"""Whole-machine images: save and load simulations and multicomputers.

:mod:`repro.persist.state` knows how to freeze one node's pieces; this
module assembles them into the payloads the container format
(:mod:`repro.persist.snapshot`) carries, and rebuilds live machines
from them:

* ``simulation`` — one :class:`~repro.sim.api.Simulation` (chip +
  kernel + optional swap manager);
* ``multicomputer`` — every node of a
  :class:`~repro.machine.multicomputer.Multicomputer`, plus the mesh's
  timing state and the migration forwarding map.

Loading builds a *fresh* machine from the snapshot's recorded
architectural configuration and restores state into it.  Keyword
overrides on load may switch ``fast_paths`` — it alters zero cycles,
which the determinism tests prove by running the same image to
identical digests under both settings — or the observational
``flight_capacity``.  Architectural overrides are rejected by the
restore path.

What does **not** come back by itself: trap handlers, custom fault
handlers and jump auditors are code, not state — re-register them
after load.  The demand-paging fault handler and (when the snapshot
recorded a swap manager) the LRU evictor are machine structure, so the
load path does re-wire those.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from repro.persist.snapshot import (SnapshotError, read_snapshot,
                                    write_snapshot)
from repro.persist.state import (capture_chip, capture_kernel, capture_swap,
                                 restore_chip_state, restore_kernel_state,
                                 restore_swap_state)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.multicomputer import Multicomputer
    from repro.runtime.kernel import Kernel
    from repro.sim.api import Simulation


# -- one node (chip + kernel + optional swap) ---------------------------

def capture_node(kernel: "Kernel") -> dict:
    return {
        "chip": capture_chip(kernel.chip),
        "kernel": capture_kernel(kernel),
        "swap": capture_swap(kernel.swap) if kernel.swap is not None else None,
    }


def restore_node(kernel: "Kernel", state: dict) -> None:
    restore_chip_state(kernel.chip, state["chip"])
    restore_kernel_state(kernel, state["kernel"])
    if state["swap"] is not None:
        swap = kernel.swap
        if swap is None:
            from repro.runtime.swap import SwapManager

            swap = SwapManager(kernel)  # wires the evicting fault handler
        restore_swap_state(swap, state["swap"])


# -- single-node simulations --------------------------------------------

def capture_simulation(sim: "Simulation") -> dict:
    return {"kind": "simulation", "node": capture_node(sim.kernel)}


def restore_simulation(payload: dict, **overrides) -> "Simulation":
    from repro.machine.chip import ChipConfig
    from repro.sim.api import Simulation

    if payload.get("kind") != "simulation":
        raise SnapshotError(
            f"expected a simulation snapshot, got {payload.get('kind')!r}")
    config = ChipConfig(**payload["node"]["chip"]["config"])
    if overrides:
        config = replace(config, **overrides)
    sim = Simulation(config)
    restore_node(sim.kernel, payload["node"])
    return sim


def save_simulation(sim: "Simulation", path: str | Path) -> Path:
    return write_snapshot(capture_simulation(sim), path)


def load_simulation(path: str | Path, **overrides) -> "Simulation":
    return restore_simulation(read_snapshot(path), **overrides)


# -- multicomputers -------------------------------------------------------

def capture_multicomputer(machine: "Multicomputer") -> dict:
    return {
        "kind": "multicomputer",
        "shape": {"x": machine.shape.x, "y": machine.shape.y,
                  "z": machine.shape.z},
        "hop_cycles": machine.network.hop_cycles,
        "interface_cycles": machine.network.interface_cycles,
        "arena_order": machine.arena_order,
        "network": machine.network.capture_state(),
        "page_homes": sorted(machine._page_homes.items()),
        # the window engine's machine half: barrier position, per-node
        # sequence counters and any traffic still queued mid-window
        # (per-node mirror/exported/pending state rides in each chip)
        "windows": machine.windows_state(),
        "nodes": [capture_node(kernel) for kernel in machine.kernels],
    }


def restore_multicomputer_state(machine: "Multicomputer",
                                state: dict) -> None:
    shape = state["shape"]
    if (shape["x"], shape["y"], shape["z"]) != (
            machine.shape.x, machine.shape.y, machine.shape.z):
        raise SnapshotError("snapshot mesh shape differs from machine's")
    if len(state["nodes"]) != len(machine.kernels):
        raise SnapshotError("snapshot node count differs from machine's")
    machine.network.restore_state(state["network"])
    machine._page_homes = {int(p): int(n) for p, n in state["page_homes"]}
    for kernel, node_state in zip(machine.kernels, state["nodes"]):
        restore_node(kernel, node_state)
    machine.restore_windows_state(state["windows"])


def restore_multicomputer(payload: dict, **overrides) -> "Multicomputer":
    from repro.machine.chip import ChipConfig
    from repro.machine.multicomputer import Multicomputer
    from repro.machine.network import MeshShape

    if payload.get("kind") != "multicomputer":
        raise SnapshotError(
            f"expected a multicomputer snapshot, got {payload.get('kind')!r}")
    config = ChipConfig(**payload["nodes"][0]["chip"]["config"])
    if overrides:
        config = replace(config, **overrides)
    shape = payload["shape"]
    machine = Multicomputer(
        shape=MeshShape(shape["x"], shape["y"], shape["z"]),
        chip_config=config,
        hop_cycles=payload["hop_cycles"],
        interface_cycles=payload["interface_cycles"],
        arena_order=payload["arena_order"],
    )
    restore_multicomputer_state(machine, payload)
    return machine


def save_multicomputer(machine: "Multicomputer", path: str | Path) -> Path:
    return write_snapshot(capture_multicomputer(machine), path)


def load_multicomputer(path: str | Path, **overrides) -> "Multicomputer":
    return restore_multicomputer(read_snapshot(path), **overrides)


# -- kind-dispatching conveniences ----------------------------------------

def load_machine(path: str | Path, **overrides):
    """Load whatever the file holds: a :class:`Simulation` for
    ``simulation`` images, a :class:`Multicomputer` for
    ``multicomputer`` ones."""
    payload = read_snapshot(path)
    kind = payload.get("kind")
    if kind == "simulation":
        return restore_simulation(payload, **overrides)
    if kind == "multicomputer":
        return restore_multicomputer(payload, **overrides)
    raise SnapshotError(f"cannot load a machine from a {kind!r} snapshot")
