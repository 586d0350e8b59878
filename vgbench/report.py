"""Run the oracle self-test and every workload, untraced and traced, and print all metrics.

    python3 vgbench/report.py [--seed 1] [--seconds 30]

Each run is a separate process (vgbench/run.py), so each workload pays its
own set-up.  Prints one line per metric with its unit, and the attempted and
failed counts of every run; exits 1 if the self-test fails or a run reports
an incorrect price.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("smile_slices", "random_book", "engine_crosscheck")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()

    status = subprocess.run([sys.executable, str(HERE / "selftest.py")], check=False).returncode
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            label = "traced" if trace else "untraced"
            print(f"{workload} ({label}): attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {str(result['correct']).lower()}")
            for name, metric in result["metrics"].items():
                print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
            if not result["correct"]:
                status = 1
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
