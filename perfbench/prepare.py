"""One set-up of a benchmark workload, in a process of its own.

    python3 perfbench/prepare.py --workload <name> --seed <n> --workdir <dir>

perfbench/run.py starts this once per set-up sample, with its own
environment (BLAS thread cap).  It imports pchgrav from src/, writes the
workload's inputs to the work directory and builds the workload from them,
as a run does.  Then it prints the CLOCK_MONOTONIC time at which that ended,
so the starting process can time the set-up from before this process began.
"""

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    import pchgrav.cli  # noqa: F401  (the CLI is what the passes call)
    from workloads import WORKLOADS

    pg = sys.modules["pchgrav"]
    workload = WORKLOADS[args.workload]
    workload.prepare(pg, args.seed, args.workdir)
    workload(pg, args.seed, args.workdir)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    return 0


if __name__ == "__main__":
    sys.exit(main())
