"""The benchmark's traced mode still finds the layer boundaries it wraps.

``benchmarks/spans.py`` rebinds functions of the package by name and reads
``shooting._solve``'s third positional argument as ``quintic``; a rename
or a reordered signature in ``src`` breaks ``--trace`` without failing any
other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_solve_records_quintic_solve_span(tmp_path):
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "child.py"), str(result), "--trace", "t",
         "--", "solve", "--omega", "0.09", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    record = json.loads(result.read_text())
    assert record["rc"] == 0, record.get("error")
    fields = record["trace"]["fields"]
    spans = [dict(zip(fields, span)) for span in record["trace"]["spans"]]
    solves = [span for span in spans if span["name"] == "shooting._solve"]
    assert solves and all(span["attrs"]["quintic"] is True for span in solves)
