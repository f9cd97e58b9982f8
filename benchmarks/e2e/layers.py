"""Per-layer attribution: a stdlib ``cProfile`` fold over the
simulator's modules, plus the benchmark's own request spans.

**The fold.**  Every profiled function of the ``repro`` package maps to
one layer, by file with a few function-level splits (``LAYER_OF_FILE``,
``LAYER_OF_FUNCTION``).  Builtins and stdlib frames belong to no layer:
their self time and calls are charged to the layer of whoever called
them, through cProfile's callers table (a stdlib frame called from
several layers is split by call count).  What no layer claims — the
benchmark's own frames, and stdlib frames only they call — is
``unattributed``.

**The spans.**  :class:`Spans` wraps the service driver's ``run`` and
the ``Simulation`` verbs the driver calls, records one span per call
(name, start, end, parent, request ids) in memory, and writes them as a
Chrome/Perfetto trace with one counter track per layer.
"""

from __future__ import annotations

import ast
import functools
import json
import os
import pstats
import time
from pathlib import Path

import repro

LAYERS = ("service", "sim.api", "chip.sched", "chip.fetch", "cluster.exec",
          "cluster.superblock", "mem", "obs", "mesh", "parallel", "runtime")
UNATTRIBUTED = "unattributed"

#: module path under ``repro/`` -> layer (a directory maps everything in it)
LAYER_OF_FILE = {
    "service/": "service",
    "sim/api.py": "sim.api",
    "machine/chip.py": "chip.sched",
    "machine/thread.py": "chip.sched",
    "machine/isa.py": "chip.fetch",
    "machine/cluster.py": "cluster.exec",
    "machine/registers.py": "cluster.exec",
    "machine/faults.py": "cluster.exec",
    "core/": "cluster.exec",
    "mem/": "mem",
    "obs/": "obs",
    "machine/counters.py": "obs",
    "machine/multicomputer.py": "mesh",
    "machine/network.py": "mesh",
    "machine/parallel.py": "parallel",
    "runtime/": "runtime",
    "persist/": "runtime",
    "machine/assembler.py": "runtime",
}

#: (module path, function name) -> layer, overriding the file's layer
LAYER_OF_FUNCTION = {
    ("machine/chip.py", "fetch"): "chip.fetch",
    ("machine/chip.py", "_run_superblock"): "cluster.superblock",
    ("machine/chip.py", "access_memory"): "mem",
    ("machine/chip.py", "invalidate_decoded_word"): "mem",
    ("machine/chip.py", "invalidate_decoded_range"): "mem",
    ("machine/chip.py", "_invalidate_decoded_range_local"): "mem",
    ("machine/chip.py", "flush_decoded"): "mem",
    ("machine/chip.py", "_flush_decoded_local"): "mem",
    ("machine/chip.py", "_on_unmap"): "mem",
    ("machine/chip.py", "store_runtime_word"): "mem",
    ("machine/chip.py", "_fetch_counters"): "obs",
    ("machine/chip.py", "_mem_counters"): "obs",
    ("machine/chip.py", "_thread_counters"): "obs",
    ("machine/cluster.py", "step"): "chip.sched",
    ("machine/cluster.py", "_select"): "chip.sched",
    ("machine/cluster.py", "_count"): "chip.sched",
    ("machine/cluster.py", "on_state_change"): "chip.sched",
    ("machine/cluster.py", "ready_count"): "chip.sched",
    ("machine/cluster.py", "runnable_count"): "chip.sched",
    ("machine/cluster.py", "faulted_count"): "chip.sched",
    ("machine/cluster.py", "active_count"): "chip.sched",
    ("machine/cluster.py", "next_wake"): "chip.sched",
    ("machine/cluster.py", "add_thread"): "chip.sched",
    ("machine/cluster.py", "_install"): "chip.sched",
    ("machine/cluster.py", "_evict"): "chip.sched",
    ("machine/cluster.py", "remove_thread"): "chip.sched",
    ("machine/cluster.py", "live_threads"): "chip.sched",
    ("machine/cluster.py", "as_counters"): "obs",
    ("machine/cluster.py", "run_superblock"): "cluster.superblock",
    # the compiled-op closures superblock traces call
    ("machine/cluster.py", "run"): "cluster.superblock",
    # the lockstep retire path the facade calls
    ("machine/parallel.py", "retire_on_chip"): "sim.api",
}

#: blocking pipe reads: the sharded coordinator waiting for its workers
WAIT_FUNCTIONS = ("<built-in method posix.read>",)

_PACKAGE = str(Path(repro.__file__).resolve().parent) + "/"
_BENCH = str(Path(__file__).resolve().parent) + "/"


@functools.lru_cache(maxsize=None)
def _definitions(path: str) -> tuple[tuple[int, int, str], ...]:
    """(first line, last line, name) of every function in a module."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    return tuple((node.lineno, node.end_lineno, node.name)
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)))


def _enclosing(path: str, line: int) -> str:
    """The innermost named function around ``line`` (comprehensions,
    lambdas and generator expressions take their enclosing function's
    layer)."""
    best = None
    for first, last, name in _definitions(path):
        if first <= line <= last and (best is None or first > best[0]):
            best = (first, name)
    return best[1] if best else "<module>"


def layer_of(filename: str, line: int, function: str) -> str | None:
    """The layer of one profiled function; ``None`` for builtins and
    stdlib frames (charged to their callers)."""
    if filename == "~":           # cProfile's file name for builtins
        return None
    path = os.path.abspath(filename)
    if not path.startswith(_PACKAGE):
        return UNATTRIBUTED if path.startswith(_BENCH) else None
    module = path[len(_PACKAGE):]
    if function.startswith("<"):
        function = _enclosing(path, line)
    layer = LAYER_OF_FUNCTION.get((module, function))
    if layer is not None:
        return layer
    if module == "machine/cluster.py" and function.startswith("_sb_"):
        return "cluster.superblock"
    for prefix, layer in LAYER_OF_FILE.items():
        if module == prefix or (prefix.endswith("/")
                                and module.startswith(prefix)):
            return layer
    return UNATTRIBUTED


class Fold:
    """One profile folded into layers: self seconds, primitive calls,
    and the seconds the parallel layer spent blocked in pipe reads."""

    def __init__(self, profile):
        stats = pstats.Stats(profile).stats
        self.self_s = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        self.calls = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        self.wait_s = 0.0
        layer = {func: layer_of(*func) for func in stats}
        memo: dict = {}

        def shares(func, visiting) -> dict[str, float]:
            """How ``func``'s work splits across layers (by call count
            from its callers, recursively through stdlib frames)."""
            if layer[func] is not None:
                return {layer[func]: 1.0}
            if func in memo:
                return memo[func]
            acc: dict[str, float] = {}
            total = 0
            for caller, edge in stats[func][4].items():
                if caller in visiting or caller not in stats:
                    continue
                for name, weight in shares(caller, visiting | {func}).items():
                    acc[name] = acc.get(name, 0.0) + weight * edge[1]
                total += edge[1]
            result = ({name: w / total for name, w in acc.items()} if total
                      else {UNATTRIBUTED: 1.0})
            memo[func] = result
            return result

        for func, (cc, _, tt, _, callers) in stats.items():
            if layer[func] is not None:
                self.self_s[layer[func]] += tt
                self.calls[layer[func]] += cc
                continue
            edges = [(c, e) for c, e in callers.items() if c in stats]
            if not edges:
                self.self_s[UNATTRIBUTED] += tt
                self.calls[UNATTRIBUTED] += cc
                continue
            for caller, (e_cc, _, e_tt, _) in edges:
                for name, weight in shares(caller, {func}).items():
                    self.self_s[name] += e_tt * weight
                    self.calls[name] += e_cc * weight
                    if name == "parallel" and func[2] in WAIT_FUNCTIONS:
                        self.wait_s += e_tt * weight


def layer_metrics(folds: list[Fold], cycles: int, requests: int,
                  overhead: float) -> dict[str, float]:
    """The traced-run per-layer metrics.  Calls per kilocycle come from
    the first traced rep alone, so they do not depend on how many reps
    fit in the run; self shares pool every traced rep."""
    first = folds[0]
    self_s = {name: sum(f.self_s[name] for f in folds)
              for name in first.self_s}
    total = sum(self_s.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_kcycle"] = 1000 * first.calls[layer] / cycles
        out[f"{layer}.self_share"] = self_s[layer] / total
    out["unattributed.self_share"] = self_s[UNATTRIBUTED] / total
    out["trace_overhead"] = overhead
    out["parallel.coordinator_wait_share"] = (
        sum(f.wait_s for f in folds) / total)
    out["sim.api.us_per_request"] = (
        1e6 * self_s["sim.api"] / (requests * len(folds)))
    return out


# -- spans ---------------------------------------------------------------

#: the Simulation verbs the service driver calls
VERBS = ("run", "advance_idle", "spawn_request", "retire_finished",
         "record_sample")


class Spans:
    """In-memory span recorder around the benchmark's calls into the
    simulator.  ``instrument`` shadows the verbs on one ``Simulation``
    (and the driver's ``run``) with recording wrappers; ``admit`` and
    ``done`` are the driver's request-recorder hooks, which put request
    ids on the spawn and retire spans."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[list] = []   #: [id, parent, name, start, end, args]
        self.counters: list[tuple[float, dict]] = []
        self._stack = [0]
        self._last: list | None = None
        self._retire: list | None = None
        self._requests: dict[tuple[int, int], int] = {}
        self.recording = True

    def wrap(self, name: str, fn):
        def span(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            record = [len(self.spans) + 1, self._stack[-1], name,
                      time.perf_counter(), 0.0, {}]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[4] = time.perf_counter()
                self._last = record
                if name == "sim.retire_finished":
                    self._retire = record
        return span

    def instrument(self, sim, driver=None) -> None:
        for verb in VERBS:
            setattr(sim, verb, self.wrap(f"sim.{verb}", getattr(sim, verb)))
        if driver is not None:
            driver.run = self.wrap("driver.run", driver.run)
            driver.recorder = self

    # the ServiceLoadDriver recorder hooks
    def admit(self, serial, request, node, tid, now) -> None:
        if self.recording and self._last is not None:
            self._last[5]["request"] = serial
        self._requests[(node, tid)] = serial

    def done(self, node, tid, halted_at, state) -> None:
        serial = self._requests.pop((node, tid), None)
        if self.recording and self._retire is not None:
            self._retire[5].setdefault("requests", []).append(serial)

    def counter(self, layer_seconds: dict[str, float]) -> None:
        """One sample on every layer's counter track (a traced rep's
        self time per layer)."""
        self.counters.append((time.perf_counter(), dict(layer_seconds)))

    def chrome_events(self, pid: int, label: str) -> list[dict]:
        us = 1e6
        events = [{"ph": "M", "name": "process_name", "pid": pid,
                   "args": {"name": label}}]
        for sid, parent, name, start, end, args in self.spans:
            events.append({"ph": "X", "name": name, "pid": pid, "tid": 1,
                           "ts": (start - self.origin) * us,
                           "dur": (end - start) * us,
                           "args": {"span": sid, "parent": parent, **args}})
        for stamp, seconds in self.counters:
            for layer, value in seconds.items():
                events.append({"ph": "C", "name": f"layer {layer} self ms",
                               "pid": pid, "ts": (stamp - self.origin) * us,
                               "args": {"ms": value * 1e3}})
        return events


def write_trace(path: Path, events: list[dict]) -> None:
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}) + "\n",
                    encoding="utf-8")
