"""The tracing-overhead benchmark: the observability layer must be
(near-)free when nobody is listening.

Runs a multithreaded load/store workload under five configurations:

* ``disabled`` — ``chip.obs.enabled = False``: every emission site is a
  dead branch (the floor);
* ``default`` — the shipping configuration: flight recorder and latency
  histograms on, no sink attached (``hot`` is false, so per-bundle
  sites cost one attribute load and branch);
* ``requests`` — a span-only collector attached (how
  ``--explain-tail`` listens): the ``spans`` gate is up, per-miss
  events materialize, but the per-bundle path stays dark and
  superblock turbo stays engaged — must stay within the always-on
  noise band;
* ``timeseries`` — a windowed counter sampler polled from a chunked
  run loop, against a matching chunked no-sampler baseline
  (``chunked``) so the chunking itself is priced separately;
* ``traced`` — a :class:`~repro.obs.hub.TraceSession` attached: every
  hot event materializes (the ceiling; only paid while tracing).

Each configuration's wall time is its median over three interleaved
rounds, after one untimed warm-up run.  All of them must agree on the
simulated cycle count exactly — emission and sampling never touch
machine state.  The acceptance check is that
``default`` and ``requests`` are within noise of ``disabled``; CI runs
this file on every push.

The ``service`` configuration prices the always-on hub where it is
paid per request rather than per bundle: one node serving a few
hundred ``repro serve`` requests, each of which spawns a thread,
crosses a privileged gateway and back, and halts — four flight-recorder
events and one ``enter_roundtrip`` sample.  It runs with the hub
disabled and with the default hub, interleaved, and must agree on
simulated cycles, completions and request latencies exactly; its
per-request wall-clock cost is printed, not gated.
"""

from __future__ import annotations

import statistics
import time

from repro.machine.chip import RunReason
from repro.service import ServiceLoadDriver, install_tenants, open_loop
from repro.sim.api import Simulation

from benchmarks.conftest import emit

ITERATIONS = 3000
THREADS = 4
MAX_CYCLES = 5_000_000

WORKER = """
    movi r2, {iterations}
loop:
    ld r3, r1, 0    | subi r2, r2, 1
    st r3, r1, 8
    ld r4, r1, 16
    st r4, r1, 24   | beq r2, done
    br loop
done:
    halt
"""

#: the five configurations measured, in cost order, plus the chunked
#: no-sampler baseline the timeseries config is priced against
CONFIGS = ("disabled", "default", "requests", "chunked", "timeseries",
           "traced")

#: interleaved rounds of every configuration; each one's median wall
#: time is reported
ROUNDS = 3

#: per-call cycle budget for the chunked configurations (the sampler
#: polls at each chunk boundary, like the service driver's drain loop)
CHUNK_CYCLES = 50_000
SAMPLER_WINDOW = 20_000


def _run(config: str, iterations: int) -> tuple[int, float, int]:
    sim = Simulation()
    source = WORKER.format(iterations=iterations)
    entry = sim.load(source)
    for index in range(THREADS):
        data = sim.allocate(4096)
        sim.spawn(entry, cluster=index % 4, regs={1: data.word},
                  stack_bytes=0)
    if config == "disabled":
        sim.chip.obs.enabled = False
    session = sim.trace() if config == "traced" else None
    collector = sim.span_collector() if config == "requests" else None
    sampler = (sim.timeseries(SAMPLER_WINDOW)
               if config == "timeseries" else None)
    t0 = time.perf_counter()
    if config in ("chunked", "timeseries"):
        while True:
            result = sim.run(CHUNK_CYCLES)
            if sampler is not None:
                sampler.poll(sim.now)
            if result.reason == RunReason.HALTED:
                break
        cycles = sim.now
    else:
        result = sim.run(MAX_CYCLES)
        cycles = result.cycles
    wall = time.perf_counter() - t0
    if session is not None:
        session.stop()
    if collector is not None:
        assert collector.drain(), "the span collector saw no events"
    if sampler is not None:
        assert sampler.finish(), "the sampler closed no windows"
    assert result.reason == RunReason.HALTED, result.reason
    events = len(session.events) if session is not None else 0
    return cycles, wall, events


def measure(iterations: int = ITERATIONS) -> dict:
    """Time the workload under every configuration, as the median of
    :data:`ROUNDS` interleaved rounds after one untimed warm-up run (a
    process's first run pays one-off costs, and ``disabled``, the floor
    every overhead is divided by, would pay them); cycle counts must be
    bit-identical across them."""
    out: dict = {"workload": f"{THREADS} threads x {iterations} "
                             f"load/store iterations"}
    _run(CONFIGS[0], iterations)
    cycles_seen = set()
    walls: dict = {config: [] for config in CONFIGS}
    for _ in range(ROUNDS):
        for config in CONFIGS:
            cycles, wall, events = _run(config, iterations)
            cycles_seen.add(cycles)
            walls[config].append(wall)
            out[f"{config}_cycles"] = cycles
            if config == "traced":
                out["traced_events"] = events
    for config in CONFIGS:
        wall = statistics.median(walls[config])
        out[f"{config}_wall_s"] = wall
        out[f"{config}_cycles_per_s"] = out[f"{config}_cycles"] / wall
    out["cycles_equal"] = len(cycles_seen) == 1
    # wall-clock cost of the always-on layer relative to the dead floor
    out["default_overhead"] = (out["default_wall_s"]
                               / out["disabled_wall_s"]) - 1.0
    out["requests_overhead"] = (out["requests_wall_s"]
                                / out["disabled_wall_s"]) - 1.0
    # the sampler against the matching chunked baseline, so the
    # chunked run loop itself is not billed to the sampler
    out["timeseries_overhead"] = (out["timeseries_wall_s"]
                                  / out["chunked_wall_s"]) - 1.0
    out["traced_overhead"] = (out["traced_wall_s"]
                              / out["disabled_wall_s"]) - 1.0
    return out


#: the service configuration: ``repro serve`` on one node, as the
#: ``serve_node`` end-to-end workload runs it, at a few hundred requests
SERVICE_TENANTS = 200
SERVICE_REQUESTS = 300
SERVICE_MEAN_GAP = 40.0
#: interleaved disabled/default pairs; the medians are reported
SERVICE_REPS = 5


def _serve(enabled: bool) -> tuple[dict, float]:
    """One service run with the hub on or off: its simulated outcome
    and the wall seconds of the driver's run."""
    sim = Simulation(memory_bytes=8 * 1024 * 1024, page_bytes=512)
    driver = ServiceLoadDriver(sim, install_tenants(sim, SERVICE_TENANTS))
    schedule = open_loop(requests=SERVICE_REQUESTS, tenants=SERVICE_TENANTS,
                         mean_gap=SERVICE_MEAN_GAP, seed=0)
    sim.chip.obs.enabled = enabled
    t0 = time.perf_counter()
    report = driver.run(schedule)
    wall = time.perf_counter() - t0
    outcome = {"cycles": report.cycles, "completed": report.completed,
               "errors": report.errors, "wrong": report.wrong_results,
               "latency": report.latency}
    return outcome, wall


def measure_service(reps: int = SERVICE_REPS) -> dict:
    """Price the always-on hub per request: disabled and default runs,
    interleaved; their simulated outcomes must be identical."""
    outcomes = {"disabled": [], "default": []}
    walls = {"disabled": [], "default": []}
    for _ in range(reps):
        for config, enabled in (("disabled", False), ("default", True)):
            outcome, wall = _serve(enabled)
            outcomes[config].append(outcome)
            walls[config].append(wall)
    seen = outcomes["disabled"] + outcomes["default"]
    out: dict = {"requests": SERVICE_REQUESTS,
                 "outcomes_equal": all(o == seen[0] for o in seen),
                 "completed": seen[0]["completed"],
                 "cycles": seen[0]["cycles"]}
    for config in walls:
        wall = statistics.median(walls[config])
        out[f"{config}_wall_s"] = wall
        out[f"{config}_us_per_request"] = 1e6 * wall / SERVICE_REQUESTS
    out["hub_us_per_request"] = (out["default_us_per_request"]
                                 - out["disabled_us_per_request"])
    out["default_overhead"] = (out["default_wall_s"]
                               / out["disabled_wall_s"]) - 1.0
    return out


def test_trace_overhead(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    service = measure_service()
    emit("tracing overhead — disabled .. traced", "\n".join([
        f"median of {ROUNDS} interleaved rounds, after a warm-up run",
        f"{'config':<10} {'cycles':>9} {'wall (s)':>9} {'cycles/s':>12}",
        "-" * 43,
        *(f"{c:<10} {r[f'{c}_cycles']:>9} {r[f'{c}_wall_s']:>9.3f} "
          f"{r[f'{c}_cycles_per_s']:>12,.0f}" for c in CONFIGS),
        "",
        f"default overhead {r['default_overhead']:+.1%}, requests "
        f"{r['requests_overhead']:+.1%}, timeseries "
        f"{r['timeseries_overhead']:+.1%} (vs chunked), traced "
        f"{r['traced_overhead']:+.1%} ({r['traced_events']} events); "
        f"cycle counts "
        f"{'identical' if r['cycles_equal'] else 'DIFFER'}",
        "",
        f"service: {service['requests']} requests on one node, "
        f"{service['cycles']} cycles, median of {SERVICE_REPS} "
        f"interleaved runs",
        *(f"{c:<10} {service[f'{c}_wall_s']:>9.3f} s "
          f"{service[f'{c}_us_per_request']:>8.1f} us/request"
          for c in ("disabled", "default")),
        f"hub cost {service['hub_us_per_request']:+.1f} us/request "
        f"({service['default_overhead']:+.1%}); cycles, completions and "
        f"latencies "
        f"{'identical' if service['outcomes_equal'] else 'DIFFER'}",
    ]))
    assert r["cycles_equal"], "tracing changed the timing model"
    assert service["outcomes_equal"], "the hub changed a service run"
    assert service["completed"] == SERVICE_REQUESTS, service
    # the always-on layer and the span-only request path must stay
    # within noise of fully-disabled; 25% headroom keeps slow shared
    # CI machines from flaking
    assert r["default_overhead"] < 0.25, \
        f"always-on tracing costs {r['default_overhead']:+.1%}"
    assert r["requests_overhead"] < 0.25, \
        f"span-only recording costs {r['requests_overhead']:+.1%}"
