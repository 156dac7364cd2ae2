"""Smoke test of tools/scale.py, the scale record, at a tiny size."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_scale_tool_writes_a_row(tmp_path):
    output = tmp_path / "scale.json"
    output.write_text(json.dumps({"rows": [{"label": "parent", "sizes": []},
                                           {"label": "change", "sizes": []}]}))
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "scale.py"), "--k", "1", "2",
         "--label", "change", "--output", str(output)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(output.read_text())
    assert [row["label"] for row in record["rows"]] == ["parent", "change"]
    sizes = record["rows"][1]["sizes"]
    assert [size["edges"] for size in sizes] == [6, 12]
    for size in sizes:
        assert size["exit_code"] == 0
        assert size["wall_s"] > 0
        assert size["us_per_edge"] == pytest.approx(size["wall_s"] / size["edges"] * 1e6)
        assert size["bytes_per_edge"] * size["edges"] == pytest.approx(size["vmhwm_mib"] * 2**20)
        assert len(size["sha256"]) == 64
    assert json.loads(done.stdout) == record["rows"][1]
