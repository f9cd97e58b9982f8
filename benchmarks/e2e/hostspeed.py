"""The host's current speed, read with frozen pure-Python probes, so
that host rates and times can be given at one reference speed.

A vCPU of a shared VM does not run at one speed.  On the 2-vCPU Xeon
VM this benchmark was built on, ``kernel_mt`` ran at 130-150k cycles/s
for a minute, then at ~72k cycles/s for the next hundred seconds, then
at 130k again; CPU time moved with wall time and no steal time showed.
A run's median over its reps cannot remove a slowdown that lasts the
whole run, so the benchmark times three probes between reps and scales
each rep's rate to the reference speed.

Contention does not slow all code alike: a tight interpreter loop,
a walk over a working set larger than the caches, and allocation-heavy
stdlib code each slowed by their own factor, and the simulator by yet
another.  No single probe tracked it; the geometric mean of the three
did best.  Over ~80 reps of each workload, the scatter of the scaled
rate was 9-11%, against 15-17% scaled by the interpreter loop alone
and 16-22% unscaled.  In passes of ten 25 s runs (three per workload,
five for ``serve_mesh``), the quartile spread of the run medians was
5-26% of their median unscaled and 1.5-7.4% scaled.

The probes are part of the benchmark: a change to the simulator cannot
change them, so the scale factor depends on the host alone.
"""

from __future__ import annotations

import copy
import difflib
import pprint
import random
import statistics
import time

#: each probe's time on the reference host, a 2-vCPU Intel Xeon VM
#: running CPython 3.11, in its fast state
REFERENCE_S = {"interpreter": 0.0077, "chase": 0.0062, "stdlib": 0.0043}
#: times each probe runs in one gap between reps
PROBES = 4
#: register-machine loop iterations in the interpreter probe
ITERATIONS = 10_000
#: nodes in the chase probe's ring, and steps it takes (a ~4 MB
#: working set, beyond the per-core caches)
RING = 1 << 15
STEPS = 10_000


class _Node:
    __slots__ = ("value", "next", "tag")


class HostSpeed:
    """The probes and their inputs.  Building one takes 0.1-0.2 s and
    ~4 MB; :meth:`sample` times every probe ``PROBES`` times."""

    def __init__(self):
        rng = random.Random(0)
        self.ring = [_Node() for _ in range(RING)]
        order = list(range(RING))
        rng.shuffle(order)
        for i, node in enumerate(self.ring):
            node.value, node.tag, node.next = i, i & 7, self.ring[order[i]]
        self.table = {i * 2654435761 & 0xFFFFFF: i for i in range(RING)}
        self.keys = list(self.table)
        rng.shuffle(self.keys)
        self.document = {f"k{i}": [{"a": i, "b": (i, str(i)),
                                    "c": list(range(i % 7))}
                                   for _ in range(3)]
                         for i in range(40)}
        self.lines = [f"line {rng.randrange(50)} {'x' * rng.randrange(8)}"
                      for _ in range(120)]
        self.shuffled = rng.sample(self.lines, len(self.lines))
        self.probes = {"interpreter": self.interpreter, "chase": self.chase,
                       "stdlib": self.stdlib}
        self.sample()                  # first calls run slow

    def interpreter(self) -> None:
        """A small register-machine interpreter: dispatch through a dict
        of closures, list and dict traffic, small-int arithmetic."""
        program = (("addi", 3, 3, 7), ("xor", 4, 3, 2), ("add", 5, 4, 3),
                   ("subi", 2, 2, 1), ("st", 5, 2, 0), ("ld", 6, 2, 0))
        memory: dict[int, int] = {}
        r = [0] * 16
        r[2] = ITERATIONS

        def addi(a, b, c): r[a] = (r[b] + c) & 0xFFFFFFFF
        def xor(a, b, c): r[a] = r[b] ^ r[c]
        def add(a, b, c): r[a] = (r[b] + r[c]) & 0xFFFFFFFF
        def subi(a, b, c): r[a] = r[b] - c
        def st(a, b, c): memory[(r[b] + c) & 1023] = r[a]
        def ld(a, b, c): r[a] = memory.get((r[b] + c) & 1023, 0)

        ops = {"addi": addi, "xor": xor, "add": add, "subi": subi, "st": st,
               "ld": ld}
        while r[2] > 0:
            for op, a, b, c in program:
                ops[op](a, b, c)

    def chase(self) -> None:
        """Follow a shuffled ring of objects and look keys up in a large
        dict: cache and TLB misses on every step."""
        node, acc, keys, table = self.ring[0], 0, self.keys, self.table
        mask = len(keys) - 1
        for i in range(STEPS):
            node = node.next
            acc += node.value ^ table[keys[(acc + i) & mask]]
            if node.tag == 3:
                node.value = acc & 0xFFFF

    def stdlib(self) -> None:
        """Allocation-heavy pure-Python library code."""
        pprint.pformat(copy.deepcopy(self.document), width=60)
        difflib.SequenceMatcher(None, self.lines, self.shuffled).ratio()

    def sample(self) -> dict[str, list[float]]:
        """Seconds each probe took, ``PROBES`` times over."""
        times: dict[str, list[float]] = {name: [] for name in self.probes}
        for _ in range(PROBES):
            for name, probe in self.probes.items():
                start = time.perf_counter()
                probe()
                times[name].append(time.perf_counter() - start)
        return times

    @staticmethod
    def slowdown(before: dict[str, list[float]],
                 after: dict[str, list[float]]) -> float:
        """How much slower than at the reference speed the host ran
        between two samples: the geometric mean of each probe's median
        time over its reference.  Multiply a rate by it, divide a time
        by it."""
        return statistics.geometric_mean(
            statistics.median(before[name] + after[name]) / reference
            for name, reference in REFERENCE_S.items())
