"""Run one hpca command in this process, with spans around each module.

Usage: python perfbench/traced_cli.py SPANS_OUT N_ASSETS COMMAND [ARGS...]

The spans, including the time ``import hpca`` took, are written to
SPANS_OUT as JSON when the command ends; the exit code is the command's.
"""

import json
import sys
import time

from spans import Tracer, instrument


def main() -> int:
    spans_out, n_assets, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(n_assets)
    start = time.perf_counter_ns()
    import hpca

    tracer.add("cli.import", start, time.perf_counter_ns())
    import hpca.cli

    instrument(tracer, hpca)
    try:
        return hpca.cli.main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
