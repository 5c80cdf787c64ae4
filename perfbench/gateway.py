"""The gateway process: ``python -m repro serve`` with its defaults.

Usage: ``python -m perfbench.gateway --cache DIR [--trace FILE]``, with
the repository's ``src`` on ``PYTHONPATH``.  The gateway binds a free
port, prints ``serving on URL`` and serves until SIGINT, then drains and
exits.  With ``--trace`` the span wrappers are installed before the
program is imported and the spans are written to ``FILE`` at exit;
without it the tracer is never imported.
"""

from __future__ import annotations

import argparse
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()
    # A parent started in the background may pass SIGINT down ignored;
    # the gateway's clean shutdown needs it as KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = None
    if args.trace:
        from perfbench.tracer import install

        tracer = install()
    from repro.__main__ import main as repro_main

    try:
        return repro_main(["serve", "--port", "0", "--cache", args.cache])
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
