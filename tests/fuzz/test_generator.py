"""The fuzz subsystem's own machinery: generator, shrinker, differ."""

import pytest

from repro.core.exceptions import GuardedPointerFault  # noqa: F401
from repro.machine.assembler import assemble

from repro.fuzz import (REFERENCE_SCENARIOS, SCENARIOS, FuzzCase,
                        diff_against_reference, diff_fast_paths_axis,
                        emit_regression_test, generate_case, run_case,
                        shrink_case)
from repro.fuzz.shrink import _py_float, _rebuild


class TestGenerator:
    def test_deterministic(self):
        a, b = generate_case(42), generate_case(42)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_case(1) != generate_case(2)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_scenario_assembles(self, scenario):
        for seed in range(12):
            case = generate_case(seed, scenario)
            assert case.scenario == scenario
            assemble(case.source)
            if "source_b" in case.meta:
                assemble(case.meta["source_b"])

    def test_patch_offset_points_at_target(self):
        case = generate_case(5, "self_modify")
        assert assemble(case.source).labels["target"] == \
            case.meta["patch_offset"]

    def test_reference_scenarios_are_a_subset(self):
        assert REFERENCE_SCENARIOS <= set(SCENARIOS)


class TestDiffAxes:
    def test_clean_case_has_no_divergence(self):
        case = FuzzCase(seed=0, scenario="plain",
                        source="movi r1, 5\naddi r1, r1, 2\nhalt")
        assert diff_against_reference(case) is None
        assert diff_fast_paths_axis(case) is None
        assert run_case(case) == []

    def test_register_divergence_detected(self):
        # sabotage the reference by lying about the initial fregs: the
        # differ must notice the first architectural difference
        case = FuzzCase(seed=0, scenario="plain",
                        source="ftoi r1, f0\nhalt", fregs={0: 3.0})
        clean = diff_against_reference(case)
        assert clean is None
        chip_only = FuzzCase(seed=0, scenario="plain",
                             source="ftoi r1, f0\nhalt | fadd f0, f1, f2",
                             fregs={0: 3.0})
        assert diff_against_reference(chip_only) is None

    def test_fault_parity_detected(self):
        case = FuzzCase(seed=0, scenario="plain",
                        source="lea r9, r8, 5000\nld r1, r9, 0\nhalt")
        assert diff_against_reference(case) is None  # both BoundsFault

    def test_stale_decode_would_be_caught(self, monkeypatch):
        from repro.machine.chip import MAPChip
        monkeypatch.setattr(MAPChip, "invalidate_decoded_word",
                            lambda self, vaddr: None)
        hi = assemble("movi r5, 0").encode()[0].value >> 54
        case = FuzzCase(
            seed=0, scenario="self_modify",
            source=(f"movi r1, {hi}\nshli r1, r1, 54\nori r1, r1, 9\n"
                    "movi r12, 3\ntop:\nbeq r12, out\n"
                    "target:\nmovi r5, 1\nst r1, r15, 120\n"
                    "subi r12, r12, 1\nbr top\nout:\nhalt"),
            meta={"patch_offset": 120, "old": 1, "new": 9})
        assert assemble(case.source).labels["target"] == 120
        divergence = diff_fast_paths_axis(case)
        assert divergence is not None
        assert divergence.axis == "fast-vs-plain"


class TestFastPathsAxisSabotage:
    """Each test breaks one shortcut in a way no architectural register
    shows, and pins a case the fast-vs-plain axis must still catch —
    through the counter file or the cycle count."""

    LOOP = FuzzCase(seed=0, scenario="plain",
                    source="movi r2, 20\nloop:\nsubi r2, r2, 1\n"
                           "bne r2, loop\nhalt")

    @staticmethod
    def _assert_caught(case, detail):
        divergence = diff_fast_paths_axis(case)
        assert divergence is not None
        assert divergence.axis == "fast-vs-plain"
        assert detail in divergence.detail, divergence.detail

    @staticmethod
    def _forget_idle_clusters(monkeypatch):
        """Break the settle of every run of one cluster alone: the
        other clusters keep the idle cycles they had before it."""
        from repro.machine.chip import MAPChip
        settle = MAPChip._settle_others

        def forgets_idle_clusters(self, cluster, start, end, faulted):
            before = [cl.idle_cycles for cl in self.clusters]
            issued = settle(self, cluster, start, end, faulted)
            for cl, idle in zip(self.clusters, before):
                if cl is not cluster:
                    cl.idle_cycles = idle
            return issued

        monkeypatch.setattr(MAPChip, "_settle_others", forgets_idle_clusters)

    def test_trace_exit_must_charge_idle_clusters(self, monkeypatch):
        # one thread: every run alone is a trace
        self._forget_idle_clusters(monkeypatch)
        self._assert_caught(self.LOOP, "cluster1.idle")

    def test_solo_run_must_charge_idle_clusters(self, monkeypatch):
        from repro.machine.cluster import Cluster
        self._forget_idle_clusters(monkeypatch)
        # no traces, so every run alone is a solo run
        monkeypatch.setattr(Cluster, "run_superblock",
                            lambda self, thread, start, end, entry: 0)
        # two threads share cluster 0, so run() steps it alone; no
        # other scenario runs two threads at once
        case = FuzzCase(seed=0, scenario="interleave",
                        source=("movi r12, 3\ntop:\nbeq r12, out\n"
                                "ld r3, r8, 0\nsubi r12, r12, 1\n"
                                "br top\nout:\nhalt"),
                        meta={"regs": [[0] * 7, [5] * 7]})
        self._assert_caught(case, "cluster1.idle")

    @staticmethod
    def _caught_by_a_first_self_modify_case(cases=5):
        """One of the seed-0 campaign's first ``cases`` self_modify
        cases must diverge on the fast-vs-plain axis."""
        index, tried = 0, 0
        while tried < cases:
            case = generate_case(index)
            index += 1
            if case.scenario != "self_modify":
                continue
            tried += 1
            divergence = diff_fast_paths_axis(case)
            if divergence is not None:
                assert divergence.axis == "fast-vs-plain"
                return
        pytest.fail(f"none of the first {cases} self_modify cases caught it")

    def test_store_must_end_the_block_it_made_stale(self, monkeypatch):
        # blocks compiled without the exit after a store that dropped a
        # decoded bundle run on into the bundle the store patched
        from repro.machine import cluster
        monkeypatch.setattr(cluster, "_dropped_exit",
                            lambda committed, done: [])
        monkeypatch.setattr(cluster, "_BLOCK_FACTORIES", {})
        self._caught_by_a_first_self_modify_case()

    def test_store_must_empty_the_block_table(self, monkeypatch):
        # a store that drops a decoded bundle but leaves the block table
        # alone keeps a block of the old code for the next iteration
        from repro.machine.chip import MAPChip
        invalidate = MAPChip.invalidate_decoded_word

        def keeps_blocks(self, vaddr):
            kept = dict(self._blocks)
            invalidate(self, vaddr)
            self._blocks.update(kept)

        monkeypatch.setattr(MAPChip, "invalidate_decoded_word", keeps_blocks)
        self._caught_by_a_first_self_modify_case()

    def test_idle_skip_must_charge_the_clusters(self, monkeypatch):
        from repro.machine.chip import MAPChip
        skip = MAPChip._skip_idle

        def forgets_the_clusters(self, cycles):
            before = [cl.idle_cycles for cl in self.clusters]
            skip(self, cycles)
            for cl, idle in zip(self.clusters, before):
                cl.idle_cycles = idle

        monkeypatch.setattr(MAPChip, "_skip_idle", forgets_the_clusters)
        # the cold load blocks the only thread: run() skips the wait
        case = FuzzCase(seed=0, scenario="plain",
                        source="ld r3, r8, 0\nhalt")
        self._assert_caught(case, "cluster0.idle")

    def test_unmap_must_clear_the_translation_memo(self, monkeypatch):
        from repro.mem.cache import BankedCache
        monkeypatch.setattr(BankedCache, "_on_unmap",
                            lambda self, page: None)
        # the data page is swapped out and back in: a stale line memo
        # skips the demand-paging swap-in, and its 50 cycles
        case = FuzzCase(seed=0, scenario="swap",
                        source=("movi r12, 10\ntop:\nbeq r12, out\n"
                                "ld r4, r8, 0\naddi r4, r4, 1\n"
                                "st r4, r8, 0\nsubi r12, r12, 1\n"
                                "br top\nout:\nhalt"),
                        meta={"mutate_after": 25})
        self._assert_caught(case, "cycles")


class TestShrinker:
    def test_shrinks_while_preserving_predicate(self):
        case = FuzzCase(
            seed=0, scenario="plain",
            source=("movi r1, 1\nmovi r2, 2\nmovi r3, 3\n"
                    "lea r9, r8, 1\nld r4, r9, 0\nhalt"))
        # predicate: the unaligned load still faults on the chip
        def still_faults(candidate):
            from repro.fuzz.differ import setup_chip
            chip, thread, _, _ = setup_chip(candidate.source)
            chip.run(5_000)
            return (thread.fault is not None and
                    type(thread.fault.cause).__name__ == "AlignmentFault")

        small = shrink_case(case, still_faults)
        assert still_faults(small)
        assert len(small.source.splitlines()) < len(case.source.splitlines())
        assert "movi r1, 1" not in small.source

    def test_rebuild_recomputes_patch_offset(self):
        case = generate_case(5, "self_modify")
        lines = case.source.split("\n")
        # drop the first body line after the prologue; offsets shift
        candidate = _rebuild(case, lines[:3] + lines[4:])
        assert candidate is not None
        labels = assemble(candidate.source).labels
        assert candidate.meta["patch_offset"] == labels["target"]
        assert f"st r1, r15, {labels['target']}" in candidate.source

    def test_rebuild_rejects_broken_programs(self):
        case = FuzzCase(seed=0, scenario="plain",
                        source="beq r1, somewhere\nhalt")
        assert _rebuild(case, ["beq r1, somewhere"]) is None

    def test_py_float_survives_eval(self):
        for value in (1.5, -3.25, float("inf"), float("-inf")):
            assert eval(_py_float(value)) == value
        nan = eval(_py_float(float("nan")))
        assert nan != nan

    def test_emitted_test_compiles(self):
        case = FuzzCase(seed=7, scenario="plain",
                        source="movi r1, 1\nhalt",
                        fregs={0: float("inf"), 1: 2.5})
        text = emit_regression_test(case, "demo " * 100)
        compile(text, "<emitted>", "exec")
        assert "test_fuzz_seed_7_plain" in text
        assert 'float("inf")' in text
        # the long description is truncated into the docstring
        assert len(text.splitlines()[1]) < 200
