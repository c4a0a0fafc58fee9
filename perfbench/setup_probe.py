"""One fresh interpreter's set-up: import mistol.cli, then build the inputs.

run.py times this script from outside, as a child process, for setup_s, and
runs it under `python -X importtime` for the import breakdown. The inputs
are written to a private directory that is removed before exit.

    python3 perfbench/setup_probe.py --workload analytic --seed 3
"""

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mistol.cli  # noqa: E402,F401  (the import being timed)

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=args.workdir))
    try:
        workloads.build_inputs(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir)


if __name__ == "__main__":
    main()
