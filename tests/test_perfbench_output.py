"""The benchmark's last output line is strict JSON with every metric it declares.

These runs start ``perfbench/run.py`` as a subprocess for one second each, so
they exercise the same entry points, spans and checks as a full benchmark run.
A per-layer figure whose span was never recorded comes out as NaN, which
``json.dumps`` prints as a bare ``NaN`` that strict JSON parsers reject.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DECLARED = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name} in the result line")


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr[-2000:]
    assert result["failed"] == 0
    return result["metrics"]


def assert_declared_and_finite(metrics: dict, declared: list[dict]) -> None:
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    assert not missing, f"declared metrics missing from the result: {missing}"
    bad = {name: m["value"] for name, m in metrics.items() if not math.isfinite(m["value"])}
    assert not bad, f"non-finite metrics: {bad}"


@pytest.mark.parametrize("workload", ["train", "long_tables"])
def test_traced_run_reports_every_per_layer_metric(workload):
    assert_declared_and_finite(run_bench(workload, trace=1), DECLARED["per_layer"])


def test_untraced_run_reports_every_end_to_end_metric():
    assert_declared_and_finite(run_bench("train", trace=0), DECLARED["end_to_end"])
