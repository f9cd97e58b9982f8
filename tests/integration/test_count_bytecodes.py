"""``tools/count_bytecodes.py``: per-layer bytecode counts are exact.

The counts are meant to gate work, so the same checkout must give the
same numbers on every run, and the layers must account for every
counted bytecode."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "count_bytecodes.py"


def count(out: Path) -> dict:
    subprocess.run([sys.executable, str(TOOL), "--workload", "serve_node",
                    "--scale", "0.01", "--json", str(out)],
                   check=True, capture_output=True, cwd=REPO_ROOT,
                   timeout=300)
    return json.loads(out.read_text())


def test_serve_node_counts_repeat_exactly_and_sum(tmp_path):
    first = count(tmp_path / "first.json")
    second = count(tmp_path / "second.json")
    assert first == second
    (record,) = first["records"]
    assert record["bundles"] > 0
    assert sum(record["layers"].values()) == record["total"] > 0
    assert record["layers"]["cluster.exec"] > 0
