"""The service-traffic benchmark: the multi-tenant KV service under
open-loop load.

Runs :mod:`repro.service` end to end — install tenants round-robin
across a mesh, generate a Poisson/Zipf schedule, drive it with the
open-loop load driver — and reports simulator throughput (wall-clock)
alongside the *simulated* service metrics: requests per kilocycle and
the p50/p99/p999 request-latency percentiles from the
``hist.request_latency`` counters.  The acceptance checks are the
service invariants: every request completes, none faults, every GET
returns a value some PUT wrote, and the machine-wide
``enter_roundtrip`` count equals the number of gateway calls exactly
(one protection-domain round trip per request, zero kernel
crossings).  CI runs this file with ``--benchmark-disable``, so every
assertion holds on every push.
"""

from __future__ import annotations

import time

from repro.sim.api import Simulation
from repro.service import ServiceLoadDriver, install_tenants, open_loop

from benchmarks.conftest import emit

REQUESTS = 2000
TENANTS = 200
NODES = 4
SEED = 0
MEAN_GAP = 10.0  # cycles between arrivals: 100 requests per kilocycle


def measure(requests: int = REQUESTS, tenants: int = TENANTS,
            nodes: int = NODES, seed: int = SEED,
            arrivals: str = "poisson") -> dict:
    """One full open-loop run; returns service metrics + wall cost."""
    sim = Simulation(nodes=nodes, page_bytes=512,
                     memory_bytes=4 * 1024 * 1024)
    t0 = time.perf_counter()
    roster = install_tenants(sim, tenants)
    install_wall = time.perf_counter() - t0
    driver = ServiceLoadDriver(sim, roster)
    schedule = open_loop(requests=requests, tenants=tenants,
                         mean_gap=MEAN_GAP, seed=seed, arrivals=arrivals)
    t0 = time.perf_counter()
    report = driver.run(schedule)
    drive_wall = time.perf_counter() - t0
    snap = sim.snapshot()
    enter_count = snap["hist.enter_roundtrip.count"]
    return {
        "workload": f"{requests} {arrivals} requests over {tenants} "
                    f"tenants on {nodes} node(s)",
        "completed": report.completed,
        "errors": report.errors,
        "wrong_results": report.wrong_results,
        "cycles": report.cycles,
        "throughput_rpk": report.throughput_rpk,
        "latency_p50": report.latency["p50"],
        "latency_p99": report.latency["p99"],
        "latency_p999": report.latency["p999"],
        "latency_mean": report.latency["mean"],
        "enter_roundtrips": enter_count,
        "enter_exact": enter_count == report.completed,
        "all_completed": report.completed == requests,
        "clean": report.errors == 0 and report.wrong_results == 0,
        "install_wall_s": install_wall,
        "drive_wall_s": drive_wall,
        "requests_per_s": report.completed / drive_wall,
    }


def test_service_traffic(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("service traffic — open-loop multi-tenant KV", "\n".join([
        r["workload"],
        f"completed {r['completed']}  throughput "
        f"{r['throughput_rpk']:.1f} req/kcycle  "
        f"p50 {r['latency_p50']}  p99 {r['latency_p99']}  "
        f"p999 {r['latency_p999']} cycles",
        f"simulator: {r['requests_per_s']:,.0f} requests/s wall "
        f"(install {r['install_wall_s']:.2f}s, drive "
        f"{r['drive_wall_s']:.2f}s)",
    ]))
    assert r["all_completed"], "open-loop run did not drain"
    assert r["clean"], "service produced errors or wrong results"
    assert r["enter_exact"], \
        "enter_roundtrip count diverged from gateway calls"
