#!/usr/bin/env python3
"""A/B verdicts between two end-to-end benchmark result directories.

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory is what ``run.py --out DIR`` wrote (``results.json``,
plus ``layers.json`` after ``--traced``), or a directory of such
directories, one per invocation, all from the same seed and run
length.  Run ``i`` of the parent and run ``i`` of the change form a
pair, so interleave the two commits' runs.  This prints one row per
workload with a verdict for each metric: improved, unchanged, worse or
unresolved.

* Host metrics (the bounded ones in ``BENCHMARK.json``) are *worse*
  when the change's median is worse than the parent's by more than the
  bound.  They are *improved* only when there are at least ten pairs,
  the change wins at least nine tenths of them (ties count for
  neither), and the medians differ by more than the parent's quartile
  spread.  They are *unresolved* when the parent's own spread is wider
  than the bound, unless every change run beats every parent run.
  Otherwise they are *unchanged*.
* Simulated results (``sim_*``) must be identical on every run of both
  sides; any difference is *worse*.
* ``failed_frac`` is *worse* if the change fails more.
* Per-layer ``calls_per_kcycle`` counts (traced runs) are exact; layers
  whose counts moved are listed as counts, not as speed-ups.

Exits 1 if any workload is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
EXACT = ("sim_cycles", "sim_ipc", "sim_latency_p50_cycles",
         "sim_latency_p99_cycles")
ORDER = ("worse", "unresolved", "improved", "unchanged")
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, dict]:
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def load(directory: Path) -> dict:
    """One side: ``DIR/results.json``, or the ``results.json`` of each
    subdirectory in name order (one per interleaved invocation), with
    the first ``layers.json`` found."""
    single = directory / "results.json"
    parts = [single] if single.is_file() else sorted(
        directory.glob("*/results.json"))
    if not parts:
        raise FileNotFoundError(f"no results.json in {directory}")
    payloads = [json.loads(p.read_text()) for p in parts]
    payload = payloads[0]
    records = []
    for part in payloads:
        if part["seed"] != payload["seed"]:
            raise ValueError(f"{directory} mixes seeds")
        for record in sorted(part["records"], key=lambda r: r["run"]):
            records.append({**record, "run": len(records)})
    payload["records"] = records
    layers = [p.parent / "layers.json" for p in parts
              if (p.parent / "layers.json").is_file()]
    payload["layers"] = (json.loads(layers[0].read_text())["layers"]
                         if layers else {})
    return payload


def _runs(payload: dict, workload: str, metric: str) -> list[float]:
    records = sorted((r for r in payload["records"]
                      if r["workload"] == workload), key=lambda r: r["run"])
    return [r["metrics"][metric] for r in records]


def host_verdict(parent: list[float], change: list[float], better: str,
                 bound: float) -> tuple[str, str]:
    """The section-8 rule for one bounded host metric."""
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if len(parent) > 1:
        q1, _, q3 = statistics.quantiles(parent, n=4)
    else:
        q1 = q3 = parent[0]
    gain = sign * (c_med - p_med) / p_med
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    detail = f"{gain:+.1%} ({wins}/{len(pairs)} pairs won)"
    if gain < -bound:
        return "worse", detail
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (c_med - p_med) > q3 - q1):
        return "improved", detail
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if (q3 - q1) / p_med > bound and not all_better:
        return "unresolved", detail + f", parent spread {(q3 - q1) / p_med:.1%}"
    return "unchanged", detail


def compare(parent: dict, change: dict, bounds: dict) -> list[dict]:
    """One row per workload both sides ran: a verdict per metric and
    the worst of them."""
    if parent["seed"] != change["seed"]:
        raise ValueError(f"seeds differ: {parent['seed']} vs {change['seed']}")
    names = [n for n in parent["summary"] if n in change["summary"]]
    rows = []
    for name in names:
        cells: dict[str, tuple[str, str]] = {}
        for metric, spec in bounds.items():
            cells[metric] = host_verdict(_runs(parent, name, metric),
                                         _runs(change, name, metric),
                                         spec["better"], spec["bound"])
        moved = [m for m in EXACT
                 if len(set(_runs(parent, name, m)
                            + _runs(change, name, m))) != 1]
        cells["simulated"] = (("worse", "differ: " + ", ".join(moved))
                              if moved else ("unchanged", "identical"))
        p_fail = max(_runs(parent, name, "failed_frac"))
        c_fail = max(_runs(change, name, "failed_frac"))
        cells["failed_frac"] = (("worse", f"{p_fail:g} -> {c_fail:g}")
                                if c_fail > p_fail
                                else ("unchanged", f"{c_fail:g}"))
        calls = []
        p_layers = parent["layers"].get(name, {})
        c_layers = change["layers"].get(name, {})
        for key, value in p_layers.items():
            if key.endswith(".calls_per_kcycle") and key in c_layers \
                    and c_layers[key] != value:
                calls.append(f"{key[:-len('.calls_per_kcycle')]} "
                             f"{value:.6g} -> {c_layers[key]:.6g}")
        verdict = min((v for v, _ in cells.values()), key=ORDER.index)
        rows.append({"workload": name, "verdict": verdict, "cells": cells,
                     "calls": calls})
    return rows


def render(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        lines.append(f"{row['workload']:<19} {row['verdict'].upper()}")
        for metric, (verdict, detail) in row["cells"].items():
            lines.append(f"    {metric:<18} {verdict:<10} {detail}")
        for line in row["calls"]:
            lines.append(f"    calls/kcycle       {line}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    rows = compare(load(Path(argv[0])), load(Path(argv[1])), load_bounds())
    print(render(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
