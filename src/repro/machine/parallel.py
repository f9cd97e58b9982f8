"""Sharded execution of one multicomputer across OS processes.

The window protocol (see :mod:`repro.machine.multicomputer`) already
guarantees that nodes never interact *inside* a window — all cross-node
traffic queues in per-node outboxes and is exchanged at the barrier in
the deterministic ``(cycle, src_node, seq)`` order.  So the window loop
does not care where a node lives: :class:`Multicomputer` runs the one
loop over a shard transport, and :class:`ParallelMulticomputer` is the
transport that hands each OS process a contiguous slice of the nodes.
Every worker hosts a :class:`~repro.machine.multicomputer.LocalShards`
over its slice — the same class the in-process engine drives — and
executes the verbs the coordinator sends down its pipe:

* **advance / step / idle**: the worker's nodes run to the window edge
  on their own and report their clocks and runnable counts;
* **phase A** of each barrier (network timing + per-home service lists)
  runs on the coordinator via :meth:`Multicomputer._plan_barrier` — the
  mesh and the migration forwarding map live only there;
* **home ops** are executed by the worker that owns each home node, in
  global batch order, and **phase B** effects by the worker that owns
  each destination.

Every machine-state mutation for node ``n`` happens in the one worker
that owns ``n`` — chip advance, home-side demand paging, reply
effects, even the sequence counters — so the partition map cannot
change the interleaving and any ownership map produces **bit-identical**
machines.  The parallel fuzz axis checks the pipes against the
in-process transport continuously.

The coordinator's own machine is authoritative before the workers start
and after :meth:`ParallelMulticomputer.sync_back`; workload setup and
direct edits happen only then.  The next verb ships it: the coordinator
captures the whole machine
(:func:`repro.persist.image.capture_multicomputer`) and every worker —
forked on first use — restores it, then advances only its owned nodes.
The same capture → restore path implements mid-run **rebalancing**
(changing the ownership map) and migration.
"""

from __future__ import annotations

import json
import os
import traceback
from multiprocessing import get_context
from pathlib import Path

from repro.machine.multicomputer import LocalShards


class ParallelError(Exception):
    """The sharded engine cannot continue (a worker crashed or the
    coordinator was used after :meth:`ParallelMulticomputer.close`)."""


def partition_nodes(nodes: int, workers: int) -> list[list[int]]:
    """Contiguous, nearly equal node slices — worker ``w`` owns
    ``owned[w]``.  Every node appears exactly once."""
    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, nodes)
    base, extra = divmod(nodes, workers)
    owned: list[list[int]] = []
    start = 0
    for w in range(workers):
        count = base + (1 if w < extra else 0)
        owned.append(list(range(start, start + count)))
        start += count
    return owned


# -- the worker process -------------------------------------------------

def _load(shards: LocalShards | None, payload: dict,
          owned: list[int]) -> LocalShards:
    """Restore the shipped machine and own ``owned``.  A reload restores
    in place, so sinks attached to the hubs survive it."""
    from repro.persist.image import (restore_multicomputer,
                                     restore_multicomputer_state)

    if shards is None:
        return LocalShards(restore_multicomputer(payload), owned)
    restore_multicomputer_state(shards.machine, payload)
    shards.owned = list(owned)
    return shards


def _worker_main(conn, inherited) -> None:
    # the fork copied the coordinator's ends of every pipe opened so
    # far, this worker's own included; holding them would keep this
    # worker (and its older siblings) from ever seeing EOF
    for end in inherited:
        end.close()
    shards = None
    while True:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            return
        verb, args = command[0], command[1:]
        if verb == "stop":
            conn.send(["ok"])
            conn.close()
            return
        try:
            if verb == "load":
                shards = _load(shards, *args)
                result = None
            else:
                result = getattr(shards, verb)(*args)
            chips = shards.machine.chips
            # the clocks, runnable counts and faulted flags the
            # coordinator's loop reads, plus any traffic drained
            report = [[chips[n].now, chips[n]._runnable_count,
                       any(cl.faulted_count for cl in chips[n].clusters)]
                      for n in shards.owned]
            messages, shards.messages = shards.messages, []
            reply = ["ok", result, report, messages]
        except Exception:  # ship the debris home; the coordinator closes
            dumps = {}
            if shards is not None:
                try:
                    dumps = shards.flight_dumps()
                except Exception:
                    pass
            reply = ["error", traceback.format_exc(), dumps]
        try:
            conn.send(reply)
        except OSError:  # the coordinator is gone
            return


# -- the coordinator ----------------------------------------------------

class ParallelMulticomputer:
    """The pipe shard transport: :class:`LocalShards`' verbs, each sent
    to the worker processes owning the nodes it touches, so the
    ``machine``'s window loop runs sharded and bit-identically to the
    in-process engine.

    The wrapped ``machine`` always owns the mesh network, the migration
    forwarding map and the barrier position.  Node state (chips,
    kernels, sequence counters) is authoritative in the machine while
    :attr:`authoritative` is set — before the first verb and after
    :meth:`sync_back` — and in the workers otherwise."""

    def __init__(self, machine, workers: int):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.machine = machine
        self.owned = partition_nodes(len(machine.chips), workers)
        self.workers = len(self.owned)
        self._owner = {n: w for w, nodes in enumerate(self.owned)
                       for n in nodes}
        #: the coordinator's own nodes: read while authoritative, and
        #: host of the span sinks for what only the coordinator runs
        #: (``router.hop`` from barrier planning, the migration path)
        self._local = LocalShards(machine)
        self._conns: list = []
        self._procs: list = []
        self._closed = False
        #: True while the machine, not the workers, holds the live node
        #: state: direct edits are legal, and the next verb ships it
        self.authoritative = True
        #: window traffic the workers drained, awaiting the barrier
        self.messages: list[list] = []
        nodes = len(machine.chips)
        self._now = [0] * nodes
        self._runnable = [0] * nodes
        self._faulted = [False] * nodes

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Ship the machine when it is authoritative: fork the workers
        on first use, then warm-start every one from a capture (the
        same path snapshots and rebalancing use)."""
        if self._closed:
            raise ParallelError("the parallel engine is closed")
        if not self.authoritative:
            return
        from repro.persist.image import capture_multicomputer

        payload = capture_multicomputer(self.machine)
        if not self._procs:
            ctx = get_context("fork")
            for _ in range(self.workers):
                parent_end, child_end = ctx.Pipe()
                self._conns.append(parent_end)
                proc = ctx.Process(target=_worker_main,
                                   args=(child_end, list(self._conns)),
                                   daemon=True)
                proc.start()
                child_end.close()
                self._procs.append(proc)
        self.authoritative = False
        for w in range(self.workers):
            self._send(w, ["load", payload, self.owned[w]])
        for w in range(self.workers):
            self._recv(w)

    def sync_back(self) -> None:
        """Drain to a window barrier and restore every node's true state
        into the machine, making it authoritative again (for capture,
        digesting, migration or direct edits; the next verb ships it
        back)."""
        if self.authoritative:
            return
        from repro.persist.image import restore_node

        machine = self.machine
        machine.drain_to_barrier()
        for reply in self._all("capture"):
            for n, (node_state, seq, outbox) in reply.items():
                restore_node(machine.kernels[n], node_state)
                machine._seq[n] = seq
                machine._outbox[n] = outbox
        self.authoritative = True

    def rebalance(self, owned: list[list[int]] | None = None) -> None:
        """Re-shard: sync the machine back, optionally install a new
        ownership map, and warm-start every worker from the fresh
        snapshot.  The window protocol makes execution independent of
        the map, so this is bit-exact."""
        if owned is not None:
            flat = sorted(n for nodes in owned for n in nodes)
            if flat != list(range(len(self.machine.chips))) or \
                    len(owned) != self.workers:
                raise ValueError(
                    "ownership map must cover every node exactly once "
                    "across the existing workers")
        self.sync_back()
        if owned is not None:
            self.owned = [list(nodes) for nodes in owned]
            self._owner = {n: w for w, nodes in enumerate(self.owned)
                           for n in nodes}
        self.start()

    def close(self, force: bool = False) -> None:
        """Stop the workers.  The machine keeps whatever state the last
        :meth:`sync_back` gave it."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                if not force:
                    conn.send(["stop"])
                    conn.recv()
            except (OSError, EOFError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
        self._conns = []
        self._procs = []

    # -- RPC plumbing ----------------------------------------------------

    def _send(self, w: int, command: list) -> None:
        try:
            self._conns[w].send(command)
        except OSError as exc:
            self._worker_down(f"pipe to worker {w} broke: {exc}")

    def _recv(self, w: int):
        try:
            reply = self._conns[w].recv()
        except (EOFError, OSError) as exc:
            self._worker_down(f"worker {w} died mid-reply: {exc}")
        except Exception as exc:
            # a frame that does not unpickle leaves the pipe out of
            # step with the protocol: no later verb could read it
            self._worker_down(f"worker {w} sent a garbled reply: "
                              f"{type(exc).__name__}: {exc}")
        if reply[0] == "error":
            self._worker_crashed(w, reply)
        _, result, report, messages = reply
        for n, (now, runnable, faulted) in zip(self.owned[w], report):
            self._now[n] = now
            self._runnable[n] = runnable
            self._faulted[n] = faulted
        self.messages.extend(messages)
        return result

    def _scatter(self, verb: str, args: list) -> list:
        """``verb`` with ``args[w]`` on each worker ``w`` (``None``:
        not this one), sent before any reply is awaited so the workers
        overlap; returns the results by worker."""
        self.start()
        for w, part in enumerate(args):
            if part is not None:
                self._send(w, [verb, *part])
        return [None if part is None else self._recv(w)
                for w, part in enumerate(args)]

    def _all(self, verb: str, *args) -> list:
        return self._scatter(verb, [args] * self.workers)

    def _one(self, verb: str, node: int, *args):
        """``verb`` on the worker owning ``node`` (its first argument)."""
        self.start()
        w = self._owner[node]
        self._send(w, [verb, node, *args])
        return self._recv(w)

    def _split(self, per_node: dict) -> list:
        """Per-node work as each owning worker's argument list."""
        parts: list = [None] * self.workers
        for node, items in per_node.items():
            if items:
                w = self._owner[node]
                if parts[w] is None:
                    parts[w] = [{}]
                parts[w][0][node] = items
        return parts

    def _worker_down(self, why: str):
        self.close(force=True)
        raise ParallelError(why)

    def _worker_crashed(self, w: int, reply):
        _, tb, dumps = reply
        directory = Path(os.environ.get("REPRO_CRASH_DIR", "crashes"))
        directory = directory / f"parallel-worker-{w}"
        try:
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "traceback.txt").write_text(tb)
            for node, dump in dumps.items():
                (directory / f"flight-node{node}.json").write_text(
                    json.dumps(dump, indent=2, sort_keys=True))
        except OSError:
            pass
        self.close(force=True)
        raise ParallelError(
            f"worker {w} crashed (flight recorders under {directory}):\n{tb}")

    # -- what the loop reads ---------------------------------------------

    def now(self) -> int:
        if self.authoritative:
            return self._local.now()
        return max(self._now)

    def runnable(self) -> bool:
        if self.authoritative:
            return self._local.runnable()
        return any(self._runnable)

    def faulted(self) -> bool:
        if self.authoritative:
            return self._local.faulted()
        return any(self._faulted)

    # -- the verbs ---------------------------------------------------------

    def advance(self, end: int, next_barrier: int, drain: bool) -> int:
        return sum(self._all("advance", end, next_barrier, drain))

    def step(self, cycles: int, next_barrier: int, drain: bool) -> int:
        return sum(self._all("step", cycles, next_barrier, drain))

    def collect(self) -> None:
        self._all("collect")

    def skip_to(self, target: int) -> None:
        self._scatter("skip_to", [
            [target] if any(self._now[n] < target for n in nodes) else None
            for nodes in self.owned])

    def skip_all(self, cycles: int) -> None:
        self._all("skip_all", cycles)

    def home_ops(self, home_ops: dict[int, list]) -> dict[int, list]:
        replies: dict[int, list] = {}
        for part in self._scatter("home_ops", self._split(home_ops)):
            if part is not None:
                replies.update(part)
        return replies

    def effects(self, per_node: dict[int, list]) -> None:
        self._scatter("effects", self._split(per_node))

    def spawn(self, node: int, entry, kwargs: dict) -> int:
        return self._one("spawn", node, entry, kwargs)

    def retire(self, pending, result_reg: int) -> dict:
        parts: list = [None] * self.workers
        for key in pending:
            w = self._owner[key[0]]
            if parts[w] is None:
                parts[w] = [[], result_reg]
            parts[w][0].append(key)
        finished: dict = {}
        for part in self._scatter("retire", parts):
            if part is not None:
                finished.update(part)
        return finished

    def hist(self, node: int, name: str, value: int) -> None:
        self._one("hist", node, name, value)

    def emit(self, node: int, name: str, cycle: int, tid, dur,
             args: dict) -> None:
        self._one("emit", node, name, cycle, tid, dur, args)

    def counters(self) -> dict[int, dict]:
        per_node: dict[int, dict] = {}
        for part in self._all("counters"):
            per_node.update(part)
        return per_node

    def flight_dumps(self) -> dict[int, dict]:
        dumps: dict[int, dict] = {}
        for part in self._all("flight_dumps"):
            dumps.update(part)
        return dumps

    def trace_on(self) -> None:
        """Span sinks on the worker-side hubs (chip events: misses,
        faults, enter crossings, swap, halts) and on the coordinator's
        (what only it runs).  The two sets are disjoint, so their union
        is exactly the in-process engine's stream."""
        self._all("trace_on")
        self._local.trace_on()

    def trace_drain(self) -> list:
        events = self._local.trace_drain()
        for part in self._all("trace_drain"):
            events.extend(part)
        return events
