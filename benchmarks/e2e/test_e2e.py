"""Tests of the end-to-end benchmark itself, at a hundredth of its size.
They are not in the tier-1 suite; run them explicitly:

    PYTHONPATH=src:. python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCALE = 0.01

import run as bench  # noqa: E402  (benchmarks/e2e is on sys.path)

bench.use_checkout_source()

import compare  # noqa: E402
import workloads  # noqa: E402
from repro.machine import chip as chip_module  # noqa: E402
from repro.machine.chip import MAPChip  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _command(workload: str, trace: int, record: Path) -> dict:
    """One benchmark run the way BENCHMARK.json names it; returns the
    printed result and the full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace),
         "--scale", str(SCALE), "--record", str(record)],
        capture_output=True, text=True, timeout=180, cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "record": json.loads(record.read_text())}


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Every workload: one untraced run and two traced runs."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    for name in workloads.WORKLOADS:
        out[name] = [_command(name, trace, tmp / f"{name}{i}.json")
                     for i, trace in enumerate((0, 1, 1))]
    return out


def test_benchmark_json_metrics_printed_with_units(runs):
    for name, (plain, traced, _) in runs.items():
        for metrics, result in ((SPEC["end_to_end"], plain["result"]),
                                (SPEC["per_layer"], traced["result"])):
            assert result["correct"] and result["failed"] == 0, name
            assert result["attempted"] >= 1
            printed = result["metrics"]
            assert {m["name"] for m in metrics} == set(printed), name
            for metric in metrics:
                assert printed[metric["name"]]["unit"] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            assert plain["result"]["metrics"][metric["name"]]["value"] > 0


def test_exact_metrics_and_call_counts_repeat(runs):
    for name, (plain, first, second) in runs.items():
        for metric in bench.EXACT:
            values = {r["record"]["metrics"][metric]
                      for r in (plain, first, second)}
            assert len(values) == 1, (name, metric, values)
        calls = [{k: v for k, v in r["record"]["per_layer"].items()
                  if k.endswith(".calls_per_kcycle")}
                 for r in (first, second)]
        assert calls[0] == calls[1], name
        assert plain["record"]["report"] == first["record"]["report"]


def test_every_layer_attributed(runs):
    for name, (_, traced, _) in runs.items():
        assert traced["record"]["per_layer"]["unattributed.self_share"] \
            < 0.05, name


def test_superblock_share_by_workload(runs):
    def share(name):
        return runs[name][1]["record"]["per_layer"][
            "cluster.superblock.bundle_share"]

    assert share("kernel_turbo") >= 0.99
    assert share("kernel_mt") <= 0.01
    assert share("serve_mesh") == 0
    assert share("serve_mesh_sharded") == 0


def test_sharded_engine_reproduces_lockstep(runs):
    assert runs["serve_mesh"][0]["record"]["report"] \
        == runs["serve_mesh_sharded"][0]["record"]["report"]


@pytest.mark.parametrize("name", ["kernel_turbo", "kernel_mt"])
def test_kernel_cycles_do_not_depend_on_seed(name):
    assert workloads.kernel_cycles(name, 0, SCALE) \
        == workloads.kernel_cycles(name, 1, SCALE)


def _payload(records: list[dict]) -> dict:
    for run, record in enumerate(records):
        record["run"] = run
    return {"seed": 0, "summary": {records[0]["workload"]: {}},
            "records": records, "layers": {}}


def test_fetch_slowdown_reported_worse(monkeypatch):
    def measure():
        return bench.measure("kernel_mt", 0, 0, SCALE, False)

    parent = [measure() for _ in range(3)]
    # spin inside every fetch for as long as a whole bundle takes, so
    # the workload runs twice as long
    base = parent[0]
    per_bundle = min(base["wall_s"]) / (base["metrics"]["sim_cycles"]
                                        * base["metrics"]["sim_ipc"])
    original = MAPChip.fetch

    def slow_fetch(self, ip):
        end = time.perf_counter() + per_bundle
        bundle = original(self, ip)
        while time.perf_counter() < end:
            pass
        return bundle

    monkeypatch.setattr(MAPChip, "fetch", slow_fetch)
    change = [measure() for _ in range(3)]
    rows = compare.compare(_payload(parent), _payload(change),
                           compare.load_bounds())
    row, = rows
    assert row["verdict"] == "worse"
    assert row["cells"]["sim_cycles_per_s"][0] == "worse"
    assert row["cells"]["simulated"][0] == "unchanged"
    assert row["cells"]["failed_frac"][0] == "unchanged"


def test_extra_call_counted_exactly_in_fetch_layer(monkeypatch):
    def traced():
        return bench.measure("kernel_mt", 0, 0, SCALE, True)

    base = traced()
    # a wrapper that cProfile sees as chip.py's ``fetch``: one extra
    # chip.fetch call per fetch, and nothing else
    namespace = {"original": MAPChip.fetch}
    exec(compile("def fetch(self, ip):\n    return original(self, ip)\n",
                 chip_module.__file__, "exec"), namespace)
    monkeypatch.setattr(MAPChip, "fetch", namespace["fetch"])
    patched = traced()

    counters = base["report"]["counters"]
    fetches = (counters["fetch.hits"] + counters["fetch.misses"]
               - base["report"]["superblock"]["bundles"])
    cycles = base["metrics"]["sim_cycles"]
    for key, value in base["per_layer"].items():
        if not key.endswith(".calls_per_kcycle"):
            continue
        if key == "chip.fetch.calls_per_kcycle":
            assert patched["per_layer"][key] - value == pytest.approx(
                1000 * fetches / cycles, rel=1e-9)
        else:
            assert patched["per_layer"][key] == value, key
