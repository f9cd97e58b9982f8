"""Campaign driver: generate → diff (every axis) → shrink → report.

``run_case`` is the single-case entry point the regression tests reuse;
``run_campaign`` is what the CLI and ``tools/run_fuzz.py`` drive.  Case
seeds are ``campaign_seed * 1_000_000 + index``, so any failing case is
replayable from the two integers the report prints.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.fuzz.differ import Divergence, diff_against_reference
from repro.fuzz.generator import (REFERENCE_SCENARIOS, FuzzCase,
                                  generate_case)
from repro.fuzz.scenarios import (diff_fast_paths_axis, diff_parallel_axis,
                                  diff_replay_axis)
from repro.fuzz.shrink import emit_regression_test, shrink_case


def run_case(case: FuzzCase) -> list[Divergence]:
    """Every divergence ``case`` produces: the fast-vs-plain and
    snapshot-replay axes always run; the parallel-vs-lockstep axis runs
    for the self-contained scenarios a mesh can host
    (``PARALLEL_SCENARIOS``); the chip-vs-reference axis runs for the
    scenarios the flat-memory reference can execute (no paging, no
    kernel, no mesh).  An empty list is the pass verdict the
    regression tests assert."""
    axes = [diff_fast_paths_axis, diff_replay_axis, diff_parallel_axis]
    if case.scenario in REFERENCE_SCENARIOS:
        axes.append(diff_against_reference)
    return [d for d in (axis(case) for axis in axes) if d is not None]


@dataclass
class Failure:
    """One divergence plus its shrunk repro (when shrinking ran)."""

    divergence: Divergence
    shrunk: FuzzCase | None = None

    @property
    def regression_test(self) -> str | None:
        if self.shrunk is None:
            return None
        return emit_regression_test(self.shrunk, str(self.divergence))


@dataclass
class FuzzReport:
    campaign_seed: int
    cases: int = 0
    scenarios: Counter = field(default_factory=Counter)
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"fuzz campaign seed={self.campaign_seed}: "
                 f"{self.cases} cases, {len(self.failures)} divergences"]
        lines += [f"  {name}: {count}"
                  for name, count in sorted(self.scenarios.items())]
        for failure in self.failures:
            lines.append(f"  FAIL {failure.divergence}")
        return "\n".join(lines)


def _same_failure(original: Divergence) -> Callable[[FuzzCase], bool]:
    """The shrinker's predicate: a candidate reproduces when it yields
    a divergence on the same axis with the same kind."""
    def reproduces(candidate: FuzzCase) -> bool:
        return any(d.axis == original.axis and d.kind == original.kind
                   for d in run_case(candidate))
    return reproduces


def run_campaign(seed: int = 0, cases: int = 200,
                 scenario: str | None = None, shrink: bool = True,
                 log: Callable[[str], None] | None = None) -> FuzzReport:
    """Run ``cases`` generated cases through every diff axis
    (:func:`run_case`).

    Fully deterministic in ``(seed, cases, scenario)``; pass ``log``
    (e.g. ``print``) for progress and failure reporting as it happens.
    """
    report = FuzzReport(campaign_seed=seed)
    base = seed * 1_000_000
    for index in range(cases):
        case = generate_case(base + index, scenario)
        report.cases += 1
        report.scenarios[case.scenario] += 1
        for divergence in run_case(case):
            if log:
                log(f"DIVERGENCE {divergence}")
            failure = Failure(divergence)
            if shrink:
                failure.shrunk = shrink_case(case, _same_failure(divergence))
                if log:
                    log(f"shrunk to {len(failure.shrunk.source.splitlines())}"
                        f" lines:\n{failure.regression_test}")
            report.failures.append(failure)
        if log and (index + 1) % 50 == 0:
            log(f"... {index + 1}/{cases} cases, "
                f"{len(report.failures)} divergences")
    return report


def write_failure_artifacts(report: FuzzReport, directory) -> list:
    """One directory per failure with everything needed to debug it
    offline — what CI uploads as an artifact when a campaign goes red:

    * ``dump.json`` — the replayable crash dump
      (:func:`repro.persist.replay.write_crash_dump`: case, divergence,
      embedded snapshot); ``repro replay`` takes it directly;
    * ``program.s`` — the generated program, as assembly;
    * ``repro.py`` — a ready-to-commit regression test (from the shrunk
      case when shrinking ran, else the original);
    * ``snapshot.snap`` — the failing machine image as a standalone
      snapshot file, when the divergence captured one (restorable with
      ``repro restore`` for post-mortem inspection);
    * ``flight.json`` — the misbehaving chip's flight-recorder dump
      (the last few hundred trace events before the divergence;
      ``repro.obs.load_flight`` decodes it), when captured.

    Returns the per-failure directories created.
    """
    import json
    from pathlib import Path

    from repro.persist.replay import write_crash_dump

    directory = Path(directory)
    created = []
    for number, failure in enumerate(report.failures):
        divergence = failure.divergence
        case = failure.shrunk or divergence.case
        slug = f"{number:03d}-{divergence.axis}-{case.scenario}"
        crash_dir = directory / slug
        crash_dir.mkdir(parents=True, exist_ok=True)
        write_crash_dump(divergence, crash_dir / "dump.json")
        (crash_dir / "program.s").write_text(case.source + "\n",
                                             encoding="utf-8")
        (crash_dir / "repro.py").write_text(
            emit_regression_test(case, str(divergence)) + "\n",
            encoding="utf-8")
        if divergence.snapshot is not None:
            (crash_dir / "snapshot.snap").write_bytes(divergence.snapshot)
        if divergence.flight is not None:
            (crash_dir / "flight.json").write_text(
                json.dumps(divergence.flight, indent=2) + "\n",
                encoding="utf-8")
        created.append(crash_dir)
    return created
