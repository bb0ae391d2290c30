"""The benchmark's traced runner still fits the program.

`perfbench/sut.py` wraps socrm's functions from outside and reads their call
shapes (`process_event` returns a tuple whose first item is the state,
`take_sample`'s third argument is the report).  This runs it once, traced, on
the demo trace, so a renamed or reshaped wrapped name fails here and not only
in the benchmark's own smoke suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_sut_runs_the_demo_trace(tmp_path):
    probe, summary, spans = tmp_path / "probe.json", tmp_path / "summary.txt", tmp_path / "spans.jsonl"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sut.py"), str(probe), str(summary), str(spans),
         "--", "run", "--telemetry-file", str(tmp_path / "telemetry.jsonl")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(probe.read_text())["exit"] == 0
    assert "events processed: 4" in summary.read_text()
    # one span per line: [thread, index, name, start, end, parent, seq, tag]
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records
    names = {record[2] for record in records}
    assert {"cli.cmd_run", "controller.process_event", "telemetry.take_sample",
            "telemetry.render_sample", "telemetry.export_to_file"} <= names
    # take_sample spans carry the seq of the report they were built from
    assert sorted(r[6] for r in records if r[2] == "telemetry.take_sample") == [1, 2, 3, 4]
