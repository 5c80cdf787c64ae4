"""Ground truth for every run the benchmark makes.

The semantic checks are the fuzzer's own
(``repro.faults.registry.sync_target_by_name(...).check``): ring views,
AND, max label, quasi-orientation and common start.  Synchronous
algorithms use the check registered under their own name; the
asynchronous ones borrow the check of the synchronous algorithm that
computes the same function.  Async input distribution must also send
exactly n(n-1) messages (experiment E1; the workloads give it oriented
rings so that the even-n refinement applies).
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

from repro.faults.registry import sync_target_by_name
from repro.runtime.spec import SYNC_ENGINES, RunSpec

#: Async algorithm -> the sync-corpus target whose check it must pass.
ASYNC_CHECKS = {
    "input-distribution": "fig2-input-distribution",
    "and": "sync-and",
    "franklin": "chang-roberts-sync",
    "hirschberg-sinclair": "chang-roberts-sync",
}


def check_result(spec: RunSpec, result: Any) -> Optional[str]:
    """``None`` when ``result`` is a correct run of ``spec``, else why not."""
    if result is None or not hasattr(result, "outputs"):
        return f"no result ({type(result).__name__})"
    if result.n != spec.ring.n:
        return f"{result.n} outputs for a ring of {spec.ring.n}"
    if spec.engine in SYNC_ENGINES:
        target = spec.algorithm
    else:
        target = ASYNC_CHECKS[spec.algorithm]
    problem = sync_target_by_name(target).check(spec.ring, result)
    if problem is not None:
        return problem
    if spec.algorithm == "input-distribution":
        n = spec.ring.n
        if result.stats.messages != n * (n - 1):
            return f"E1: {result.stats.messages} messages, expected n(n-1) = {n * (n - 1)}"
    if spec.record and not result.events:
        return "record=True run carries no events"
    return None


def check_outcome(spec: RunSpec, outcome: Any, expected_pickle: Optional[bytes] = None) -> Optional[str]:
    """Check one gateway outcome: status, digest, streamed events, result.

    ``expected_pickle`` (serve-warm) is the pickle of the result set-up
    got for the same spec; the warm answer must be pickle-equal to it.
    """
    if not outcome.ok:
        return f"status {outcome.status}: {outcome.error}"
    if outcome.digest != spec.digest():
        return "outcome came back under a wrong digest"
    problem = check_result(spec, outcome.result)
    if problem is not None:
        return problem
    if len(outcome.events) != len(outcome.result.events or ()):
        return f"{len(outcome.events)} event lines for {len(outcome.result.events or ())} events"
    if expected_pickle is not None and pickle.dumps(
        outcome.result, protocol=pickle.HIGHEST_PROTOCOL
    ) != expected_pickle:
        return "warm result is not pickle-equal to the set-up result"
    return None
