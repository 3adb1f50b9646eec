"""Traced stand-in for `python -m symcap`.

Usage: python3 launch.py SPANS_FILE ARGS...

Installs the benchmark's tracer, runs symcap.cli.main(ARGS), then writes
the spans to SPANS_FILE and exits with main's code.
"""

import sys

from tracing import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    import symcap.cli
    tracer = Tracer()
    tracer.install()
    try:
        return symcap.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(path)


if __name__ == "__main__":
    raise SystemExit(main())
