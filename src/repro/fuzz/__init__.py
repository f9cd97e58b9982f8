"""Differential fuzzing of the MAP simulator.

Four axes keep the chip honest:

* the :class:`~repro.machine.reference.ReferenceInterpreter`, a
  flat-memory sequential model run in lockstep with the chip;
* the plain per-cycle chip, ``ChipConfig(fast_paths=False)``
  (:func:`~repro.fuzz.scenarios.diff_fast_paths_axis`) — any
  difference from the shortcut-laden default, in state, cycles or a
  counter outside the shortcut tallies, is a coherence bug;
* the chip *restored from a snapshot* mid-run
  (:func:`~repro.fuzz.scenarios.diff_replay_axis`) — a round-trip
  through the ``repro.persist`` container must change nothing, which is
  the deterministic-replay guarantee policed case by case;
* the same case on a two-node mesh under the sharded engine
  (:func:`~repro.fuzz.scenarios.diff_parallel_axis`) — ``workers=2``
  must be bit-identical to the lockstep engine, mid-run snapshot
  digest included.

See ``docs/FUZZING.md`` for the scenario space and the invalidation
contract this subsystem polices.
"""

from repro.fuzz.differ import Divergence, diff_against_reference
from repro.fuzz.generator import (REFERENCE_SCENARIOS, SCENARIOS, FuzzCase,
                                  generate_case)
from repro.fuzz.runner import (Failure, FuzzReport, run_campaign, run_case,
                               write_failure_artifacts)
from repro.fuzz.scenarios import (PARALLEL_SCENARIOS, diff_fast_paths_axis,
                                  diff_parallel_axis, diff_replay_axis,
                                  run_scenario)
from repro.fuzz.shrink import emit_regression_test, shrink_case

__all__ = [
    "Divergence",
    "Failure",
    "FuzzCase",
    "FuzzReport",
    "PARALLEL_SCENARIOS",
    "REFERENCE_SCENARIOS",
    "SCENARIOS",
    "diff_against_reference",
    "diff_fast_paths_axis",
    "diff_parallel_axis",
    "diff_replay_axis",
    "emit_regression_test",
    "generate_case",
    "run_campaign",
    "run_case",
    "run_scenario",
    "shrink_case",
    "write_failure_artifacts",
]
