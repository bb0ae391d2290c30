"""Short runs of the benchmark itself.

Every workload (the gated ones of BENCHMARK.json and pl-heavy), untraced and
traced, for one repetition on the default seed: each metric of BENCHMARK.json
is printed with its unit, the output checks (golden included) pass, and the
traced spans account for the run loop.

run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run(workload, trace):
    out = bench(ROOT, "--workload", workload, "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in metrics.items()} == {
        m["name"]: m["unit"] for m in spec}
    if trace:
        assert 0.9 <= metrics["trace.self_time_coverage"]["value"] <= 1.0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seconds", "1")
    assert out.returncode != 0
    assert out.stdout == ""
