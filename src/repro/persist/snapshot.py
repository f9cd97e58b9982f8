"""The snapshot container format: versioned, checksummed, replayable.

A snapshot file is a complete, self-describing machine image.  Because
protection lives *inside* guarded pointers (§2), freezing a machine is
nothing more than serialising its words and registers: there is no
capability table, segment table or per-process translation state to
re-derive on restore, so a restored pointer is a working pointer with
zero fixups.  This module owns only the *container*; what goes inside
it is the business of :mod:`repro.persist.image`.

Layout of a ``.snap`` file::

    MAPSNAP1                              8-byte magic
    {"format":...,"version":...,...}\\n    one-line canonical-JSON header
    <zlib-compressed canonical JSON>      the payload

The header carries the format name, format version, the payload kind
(``simulation`` / ``chip`` / ``multicomputer`` / ``delta``), the
payload's uncompressed length, and a CRC-32 of the uncompressed payload
bytes.  Readers verify magic, version, length and checksum before
handing the payload to anyone — a truncated or bit-flipped image is
rejected loudly, never restored quietly.

Versioning policy: ``VERSION`` bumps on any payload-schema change that
an old reader cannot ignore.  Readers accept exactly their own version
(the format is a reproduction artifact, not an archival one); the error
message names both versions so a mismatch is a one-line diagnosis.

Everything inside the payload is JSON with two rules that make images
byte-stable and diffable:

* canonical encoding — sorted keys, no whitespace, ``allow_nan=False``
  (floats such as FP register files are stored as 64-bit IEEE-754 bit
  patterns, so NaN and the infinities survive exactly);
* pure data — no pickled code.  Callables (trap handlers, fault hooks,
  MMIO devices) are structurally unsnapshotable and must be re-attached
  by the software that loads the image; capture refuses machines whose
  state it cannot fully describe (e.g. attached MMIO devices).
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

MAGIC = b"MAPSNAP1"
FORMAT = "map-snapshot"
#: 2 — the chip config's four speed knobs became one ``fast_paths``;
#: every image carries the windowed-mesh and observability state
#: (histogram sums included), so restore no longer guesses at either
VERSION = 2

#: payload kinds the image layer writes; readers use this to dispatch
KINDS = ("simulation", "chip", "multicomputer", "delta")


class SnapshotError(Exception):
    """Base class for every snapshot read/write failure."""


class SnapshotFormatError(SnapshotError):
    """Not a snapshot file, or a structurally broken one."""


class SnapshotVersionError(SnapshotError):
    """The file's format version differs from this reader's."""


class SnapshotChecksumError(SnapshotError):
    """The payload does not match its recorded checksum/length."""


def canonical_json(value) -> bytes:
    """The one true byte encoding: sorted keys, no whitespace, finite
    floats only.  Both the checksum and the on-disk bytes use this, so
    identical machine state always produces identical files."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")


def encode_snapshot(payload: dict) -> bytes:
    """Serialise a payload dict into the container bytes."""
    kind = payload.get("kind")
    if kind not in KINDS:
        raise SnapshotFormatError(f"unknown payload kind: {kind!r}")
    body = canonical_json(payload)
    header = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
        "length": len(body),
        "crc32": zlib.crc32(body) & 0xFFFFFFFF,
    }
    return MAGIC + canonical_json(header) + b"\n" + zlib.compress(body, 6)


def decode_snapshot(blob: bytes) -> dict:
    """Parse and verify container bytes; returns the payload dict."""
    if not blob.startswith(MAGIC):
        raise SnapshotFormatError("not a MAP snapshot (bad magic)")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise SnapshotFormatError("truncated snapshot: no header line")
    try:
        header = json.loads(rest[:newline])
    except ValueError as e:
        raise SnapshotFormatError(f"unreadable snapshot header: {e}") from None
    if header.get("format") != FORMAT:
        raise SnapshotFormatError(
            f"not a {FORMAT} file (format={header.get('format')!r})")
    if header.get("version") != VERSION:
        raise SnapshotVersionError(
            f"snapshot is format version {header.get('version')}, "
            f"this reader is version {VERSION}")
    try:
        body = zlib.decompress(rest[newline + 1:])
    except zlib.error as e:
        raise SnapshotChecksumError(f"corrupt snapshot body: {e}") from None
    if len(body) != header.get("length"):
        raise SnapshotChecksumError(
            f"payload is {len(body)} bytes, header says {header.get('length')}")
    if (zlib.crc32(body) & 0xFFFFFFFF) != header.get("crc32"):
        raise SnapshotChecksumError("payload checksum mismatch")
    payload = json.loads(body)
    if payload.get("kind") != header.get("kind"):
        raise SnapshotFormatError("header kind disagrees with payload kind")
    return payload


def read_header(blob_or_path: bytes | str | Path) -> dict:
    """The header alone (cheap: no payload decompression)."""
    if isinstance(blob_or_path, (str, Path)):
        with open(blob_or_path, "rb") as f:
            blob = f.read(4096)
    else:
        blob = blob_or_path
    if not blob.startswith(MAGIC):
        raise SnapshotFormatError("not a MAP snapshot (bad magic)")
    rest = blob[len(MAGIC):]
    newline = rest.find(b"\n")
    if newline < 0:
        raise SnapshotFormatError("truncated snapshot: no header line")
    try:
        return json.loads(rest[:newline])
    except ValueError as e:
        raise SnapshotFormatError(f"unreadable snapshot header: {e}") from None


def write_snapshot(payload: dict, path: str | Path) -> Path:
    """Encode and write atomically (write-then-rename, so a crash mid-
    save never leaves a half image at ``path``)."""
    path = Path(path)
    blob = encode_snapshot(payload)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    tmp.replace(path)
    return path


def read_snapshot(path: str | Path) -> dict:
    return decode_snapshot(Path(path).read_bytes())
