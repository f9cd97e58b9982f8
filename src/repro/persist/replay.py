"""Replayable crash dumps for the differential fuzzer.

When the fuzzer's replay axis finds a divergence — a machine that,
snapshotted mid-run and restored, does not finish bit-identically to
the uninterrupted run — the two integers that regenerate the case are
not enough to *debug* it: the interesting artifact is the machine
image at the divergence point.  A **crash dump** packages everything
in one JSON file:

* the full :class:`~repro.fuzz.generator.FuzzCase` (seed, scenario,
  program source, FP registers as IEEE-754 bit patterns, scenario
  meta), so ``repro replay dump.json`` re-runs every diff axis;
* the divergence (axis, kind, detail, bundle index);
* when the failing axis produced one, the machine snapshot itself
  (base64 of the container bytes), restorable with
  ``repro restore`` / :func:`repro.persist.image.load_machine` for
  post-mortem inspection.

``tools/run_fuzz.py --crashes DIR`` writes one dump per failure; CI
uploads the directory as an artifact on red runs.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

from repro.persist.snapshot import SnapshotFormatError, canonical_json

DUMP_KIND = "replay-crash"
DUMP_VERSION = 1


def state_digest(payload) -> str:
    """SHA-256 over the canonical JSON encoding — the identity of a
    machine state, stable across processes and platforms."""
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def _float_bits(value: float) -> int:
    import struct

    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _bits_float(bits: int) -> float:
    import struct

    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def encode_case(case) -> dict:
    """A FuzzCase as pure JSON (floats become bit patterns: generated
    FP state includes the infinities)."""
    return {
        "seed": case.seed,
        "scenario": case.scenario,
        "source": case.source,
        "fregs": [[index, _float_bits(value)]
                  for index, value in sorted(case.fregs.items())],
        "meta": case.meta,
    }


def decode_case(encoded: dict):
    from repro.fuzz.generator import FuzzCase

    return FuzzCase(
        seed=int(encoded["seed"]),
        scenario=encoded["scenario"],
        source=encoded["source"],
        fregs={int(i): _bits_float(int(b)) for i, b in encoded["fregs"]},
        meta=encoded["meta"],
    )


def write_crash_dump(divergence, path: str | Path) -> Path:
    """One self-contained dump for a
    :class:`~repro.fuzz.differ.Divergence` (snapshot included when the
    failing axis captured one)."""
    path = Path(path)
    dump = {
        "kind": DUMP_KIND,
        "version": DUMP_VERSION,
        "divergence": {
            "axis": divergence.axis,
            "kind": divergence.kind,
            "detail": divergence.detail,
            "bundle_index": divergence.bundle_index,
        },
        "case": encode_case(divergence.case),
        "snapshot_b64": (base64.b64encode(divergence.snapshot).decode("ascii")
                         if divergence.snapshot is not None else None),
        # flight-recorder dump from the misbehaving chip, when the axis
        # captured one (load with repro.obs.load_flight)
        "flight": divergence.flight,
    }
    path.write_text(json.dumps(dump, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")
    return path


def read_crash_dump(path: str | Path) -> dict:
    dump = json.loads(Path(path).read_text(encoding="utf-8"))
    if dump.get("kind") != DUMP_KIND:
        raise SnapshotFormatError(
            f"not a {DUMP_KIND} dump (kind={dump.get('kind')!r})")
    if dump.get("version") != DUMP_VERSION:
        raise SnapshotFormatError(
            f"dump is version {dump.get('version')}, "
            f"this reader is version {DUMP_VERSION}")
    return dump


def dump_snapshot_bytes(dump: dict) -> bytes | None:
    """The embedded machine snapshot's container bytes, if any."""
    encoded = dump.get("snapshot_b64")
    return base64.b64decode(encoded) if encoded else None


def replay_crash(path: str | Path | dict, log=None) -> list:
    """Re-run a dump's case through every diff axis; returns the
    divergences observed *now* (empty = the bug no longer reproduces).
    ``path`` may also be a dump :func:`read_crash_dump` already read."""
    from repro.fuzz.runner import run_case

    dump = path if isinstance(path, dict) else read_crash_dump(path)
    case = decode_case(dump["case"])
    if log:
        d = dump["divergence"]
        log(f"replaying seed={case.seed} scenario={case.scenario} "
            f"(recorded: [{d['axis']}] {d['kind']})")
    return run_case(case)
