"""Tracing overhead: run a workload untraced and traced, alternately, and compare.

Usage, from the repository root:

    python3 perfbench/overhead.py --workload train --seed 1 --seconds 20 --pairs 3

For each phase it prints the median instances/s of the untraced runs, of the
traced runs, and the overhead ``1 - traced / untraced``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
PHASES = ("stage1", "stage2", "finetune", "eval_beam4", "greedy")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()

    plain: dict[str, list[float]] = {p: [] for p in PHASES}
    traced: dict[str, list[float]] = {p: [] for p in PHASES}
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for trace in order:
            metrics = run(args.workload, args.seed, args.seconds, trace)
            for p in PHASES:
                if trace:
                    traced[p].append(metrics[f"trace.{p}_inst_per_s"]["value"])
                else:
                    plain[p].append(metrics[f"{p}_inst_per_s"]["value"])
    print(f"{'phase':12s} {'untraced/s':>11s} {'traced/s':>11s} {'overhead':>9s}")
    for p in PHASES:
        a, b = statistics.median(plain[p]), statistics.median(traced[p])
        print(f"{p:12s} {a:11.2f} {b:11.2f} {1 - b / a:9.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
