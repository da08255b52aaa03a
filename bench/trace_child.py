"""Run one neumann-widths CLI command under the benchmark's tracing wrappers.

    python3 bench/trace_child.py <record-dir> <cli arguments...>

The program must be importable (run.py puts ./src on PYTHONPATH).  Forked
sweep workers inherit the wrappers and flush their own records.
"""

import sys
from pathlib import Path

import tracing


def main() -> int:
    from neumann_widths import cli

    tracer = tracing.Tracer(Path(sys.argv[1])).install(tracing.modules())
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
