"""``tools/count_bytecodes.py``: per-layer bytecode counts are exact, and
``--check`` gates them against an anchor.

The counts gate work, so the same checkout must give the same numbers
on every run and the layers must account for every counted bytecode.
The gate must also fail on what the wall-clock ratio gate it replaced
failed on (a shortcut switched off or bypassed), and on extra work in
any one layer, which no end-to-end ratio can see.  Those proofs count
in-process at scale 0.01, each against an unpatched count."""

import dataclasses
import importlib
import importlib.util
import io
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro.machine import cluster as cluster_module
from repro.machine.chip import ChipConfig, MAPChip
from repro.machine.cluster import Cluster
from repro.machine.isa import OP_INFO, Opcode, Slot

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
TOOL = REPO_ROOT / "tools" / "count_bytecodes.py"
SCALE = 0.01


def tool(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, cwd=REPO_ROOT,
                          timeout=300)


def changed_rows(stdout: str) -> set[str]:
    """The row names of the first changed workload's table."""
    table = stdout.split("does different work from")[1].split("\n\n")[0]
    return {line.split()[0] for line in table.splitlines()[2:]}


@pytest.fixture(scope="module")
def anchor(tmp_path_factory) -> Path:
    """``serve_node``'s counts at scale 0.01, written by ``--json``."""
    path = tmp_path_factory.mktemp("anchor") / "first.json"
    done = tool("--workload", "serve_node", "--scale", str(SCALE),
                "--json", str(path))
    assert done.returncode == 0, done.stderr
    return path


def test_serve_node_counts_repeat_exactly_and_sum(anchor):
    (record,) = json.loads(anchor.read_text())["records"]
    assert "functions" not in record    # printed, never written
    assert record["bundles"] > 0
    assert sum(record["layers"].values()) == record["total"] > 0
    assert record["layers"]["cluster.exec"] > 0
    # a second run counts exactly what the first recorded
    done = tool("--check", str(anchor))
    assert done.returncode == 0, done.stdout + done.stderr


def test_check_names_the_changed_layer_and_the_interpreter(anchor,
                                                           tmp_path):
    payload = json.loads(anchor.read_text())
    # one bytecode in one layer fails the check, which names the layer
    payload["records"][0]["layers"]["mem"] += 1
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(payload))
    done = tool("--check", str(changed))
    assert done.returncode == 1, done.stdout + done.stderr
    assert changed_rows(done.stdout) == {"total", "mem"}
    assert "serve_node: the 10 costliest functions" in done.stdout
    assert f"--json {changed}" in done.stdout

    # counts compare only under the interpreter that recorded them
    payload["python"] = "2.7.18"
    changed.write_text(json.dumps(payload))
    done = tool("--check", str(changed))
    assert done.returncode == 2
    assert "2.7.18" in done.stderr


# -- in-process proofs -------------------------------------------------


@pytest.fixture(scope="module")
def counter():
    """The tool, imported as a module."""
    spec = importlib.util.spec_from_file_location("count_bytecodes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def unpatched(counter):
    """Each workload's count with nothing patched, counted once."""
    counts = {}

    def get(name: str) -> dict:
        if name not in counts:
            counts[name] = counter.count(name, SCALE)
        return counts[name]

    return get


def test_json_is_written_before_anything_prints(counter, monkeypatch,
                                                tmp_path):
    # ``--json FILE | head`` closes stdout while the tables print: FILE
    # must already hold the new record, not the old one
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    path = tmp_path / "counts.json"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        counter.main(["--workload", "kernel_mt", "--scale", "0.01",
                      "--json", str(path)])
    (record,) = json.loads(path.read_text())["records"]
    assert record["workload"] == "kernel_mt" and record["bundles"] > 0


def test_costliest_functions_are_sorted_layered_and_bounded(counter,
                                                           unpatched):
    record = unpatched("serve_node")
    rows = record["functions"]
    assert len(rows) == counter.TOP_FUNCTIONS
    costs = [row.bytecodes for row in rows]
    assert costs == sorted(costs, reverse=True) and costs[-1] > 0
    assert sum(costs) <= record["total"]
    assert len({(row.layer, row.function) for row in rows}) == len(rows)
    for row in rows:
        code = row.code
        layer = counter.layers.layer_of(code.co_filename,
                                        code.co_firstlineno, code.co_name)
        assert row.layer == (layer or counter.STDLIB)
        assert row.function == counter.function_name(code)
        assert row.function.endswith(f":{code.co_qualname}")
    # the table's layers hold every row's bytecodes
    for layer in {row.layer for row in rows}:
        assert sum(row.bytecodes for row in rows
                   if row.layer == layer) <= record["layers"][layer]


def fast_paths_off(monkeypatch):
    init = MAPChip.__init__

    def plain(self, config=None):
        init(self, dataclasses.replace(config or ChipConfig(),
                                       fast_paths=False))

    monkeypatch.setattr(MAPChip, "__init__", plain)


def decode_cache_cleared(monkeypatch):
    fetch = MAPChip.fetch

    def cold(self, ip):
        self._decode_cache.clear()
        return fetch(self, ip)

    monkeypatch.setattr(MAPChip, "fetch", cold)


def no_superblocks(monkeypatch):
    monkeypatch.setattr(Cluster, "run_superblock",
                        lambda self, thread, start, end, entry: 0)


def no_solo_runs(monkeypatch):
    run_alone = MAPChip._run_alone

    def traces_only(self, horizon):
        return 0 if self._ready_count > 1 else run_alone(self, horizon)

    monkeypatch.setattr(MAPChip, "_run_alone", traces_only)


@pytest.mark.parametrize("sabotage,workload", [
    (fast_paths_off, "kernel_mt"),
    (fast_paths_off, "serve_node"),
    (decode_cache_cleared, "kernel_mt"),
    (decode_cache_cleared, "serve_node"),
    (no_superblocks, "kernel_turbo"),
    (no_solo_runs, "kernel_mt"),
], ids=lambda v: v if isinstance(v, str) else v.__name__)
def test_a_lost_shortcut_changes_the_counts(counter, unpatched, monkeypatch,
                                            sabotage, workload):
    # what the ratio gate caught: the simulated work stays the same,
    # the host work grows.  A sabotage's wrapper, compiled in this
    # file, counts as stdlib, so the growth must show in the
    # simulator's own layers
    base = unpatched(workload)
    sabotage(monkeypatch)
    sabotaged = counter.count(workload, SCALE)
    assert sabotaged["bundles"] == base["bundles"]

    def simulator(record):
        return record["total"] - record["layers"][counter.STDLIB]

    assert simulator(sabotaged) > simulator(base)


#: for each layer that does work on serve_node, one function the layer
#: map assigns to it: (module, class or None, function)
LAYER_FUNCTIONS = {
    "service": ("repro.service.driver", "ServiceLoadDriver",
                "_check_result"),
    "sim.api": ("repro.sim.api", "Simulation", "_check_node"),
    "chip.sched": ("repro.machine.cluster", "Cluster", "_select"),
    "chip.fetch": ("repro.machine.chip", "MAPChip", "fetch"),
    "cluster.exec": ("repro.machine.cluster", None, "_lea"),
    "cluster.superblock": ("repro.machine.cluster", "Cluster",
                           "run_superblock"),
    "mem": ("repro.mem.page_table", "PageTable", "walk"),
    "obs": ("repro.obs.hub", "TraceHub", "emit"),
    "mesh": ("repro.machine.multicomputer", "LocalShards", "hist"),
}


@pytest.mark.parametrize("layer", list(LAYER_FUNCTIONS))
def test_extra_work_in_one_layer_moves_that_layer_alone(
        counter, unpatched, monkeypatch, layer):
    base = unpatched("serve_node")
    module_name, owner_name, name = LAYER_FUNCTIONS[layer]
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    assert counter.layers.layer_of(module.__file__, 1, name) == layer
    # a same-named wrapper compiled under the function's own module
    # file: the layer map takes it for that function, so each call adds
    # the wrapper's few bytecodes to that layer and nothing elsewhere
    namespace = {"original": getattr(owner, name)}
    exec(compile(f"def {name}(*args, **kwargs):\n"
                 f"    return original(*args, **kwargs)\n",
                 module.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    patched = counter.count("serve_node", SCALE)
    assert patched["bundles"] == base["bundles"]
    moved = {key for key, n in patched["layers"].items()
             if n != base["layers"][key]}
    assert moved == {layer}
    assert patched["layers"][layer] > base["layers"][layer]


def test_every_generated_issue_function_counts_as_cluster_exec(counter):
    # each bundle issues through a function generated from its opcode
    # triple's template: every factory and function the templates can
    # produce is charged to cluster.exec, never to stdlib or
    # unattributed, under a (file, first line, name) label of its own,
    # the key that profiles merge rows by
    slots = {slot: [op for op in Opcode if OP_INFO[op][0] is slot]
             for slot in Slot}
    labels = set()
    for int_code in slots[Slot.INT]:
        for mem_code in [Opcode.NOP, *slots[Slot.MEM]]:
            for fp_code in slots[Slot.FP]:
                for tail in (False, True):
                    if tail and (mem_code not in cluster_module._LOADS
                                 or int_code is Opcode.HALT):
                        continue
                    factory = cluster_module._compile_factory(
                        int_code, mem_code, fp_code, tail)
                    (issue,) = [const for const in factory.__code__.co_consts
                                if isinstance(const, types.CodeType)]
                    for code in (factory.__code__, issue):
                        label = (code.co_filename, code.co_firstlineno,
                                 code.co_name)
                        assert counter.layer_of_code(code) == "cluster.exec"
                        assert counter.layers.layer_of(*label) \
                            == "cluster.exec"
                        assert label not in labels
                        labels.add(label)
    assert len(labels) == 2 * (30 * 12 * 8 + 29 * 2 * 8)


def test_every_generated_block_counts_as_cluster_exec(counter, monkeypatch):
    # a superblock trace runs one function per basic block, generated
    # from the same templates: every block factory and function that
    # the four workloads and the LIW sweep build is charged to
    # cluster.exec under a short label of its own, apart from every
    # issue function's
    from repro.core.permissions import Permission
    from repro.core.pointer import GuardedPointer
    from tests.machine import test_liw_bundles as liw

    monkeypatch.setattr(cluster_module, "_BLOCK_FACTORIES", {})
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        counter._rep(workload["name"], SCALE, counted=False)
    built = len(cluster_module._BLOCK_FACTORIES)
    assert built
    data = GuardedPointer.make(Permission.READ_WRITE, liw.DATA_SEGLEN,
                               liw.DATA).word
    for int_code in liw.INT_OPS:
        for mem_code in liw.MEM_OPS:
            for fp_code in liw.FP_OPS:
                words = liw.sweep_program(int_code, mem_code, fp_code)
                state = liw.sweep_state(0)
                chip = MAPChip(ChipConfig(memory_bytes=128 * 1024,
                                          cache_bytes=4096))
                table = chip.page_table
                table.ensure_mapped(liw.CODE, len(words) * 8)
                for i, word in enumerate(words):
                    chip.memory.store_word(table.walk(liw.CODE + i * 8),
                                           word)
                table.ensure_mapped(liw.DATA, 1 << liw.DATA_SEGLEN)
                for offset, word in state["data"].items():
                    chip.memory.store_word(table.walk(liw.DATA + offset),
                                           word)
                chip.spawn(liw._entry(words), regs={8: data,
                                                    **state["regs"]})
                chip.run(max_cycles=5_000)
    assert len(cluster_module._BLOCK_FACTORIES) > built
    labels = {(code.co_filename, code.co_firstlineno, code.co_name)
              for factory in cluster_module._FACTORIES.values()
              for code in (factory.__code__, *[
                  const for const in factory.__code__.co_consts
                  if isinstance(const, types.CodeType)])}
    for factory in cluster_module._BLOCK_FACTORIES.values():
        (block,) = [const for const in factory.__code__.co_consts
                    if isinstance(const, types.CodeType)]
        for code in (factory.__code__, block):
            label = (code.co_filename, code.co_firstlineno, code.co_name)
            assert counter.layer_of_code(code) == "cluster.exec"
            assert counter.layers.layer_of(*label) == "cluster.exec"
            assert label not in labels
            labels.add(label)
            assert len(counter.function_name(code)) < 100
