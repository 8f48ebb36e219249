"""Every workload, untraced then traced, in one command.

    python3 perfbench/all.py [--seed 1] [--seconds 30]

Prints each run's report: the end-to-end metrics of every workload, then
its per-layer metrics, by name and unit. Exits non-zero if a run fails
or finds a wrong output.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
