"""Bit-exact parameter snapshots.

Layout: magic line, 4-byte little-endian header length, UTF-8 JSON header,
then the raw row-major little-endian float64 bytes of every parameter in
header order. No timestamps or other nondeterminism: identical parameters
and metadata produce identical files.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"KGAR1\n"


class SnapshotError(ValueError):
    """Corrupt or incompatible snapshot file."""


def save_snapshot(path, params, meta):
    """Write parameters (a list of Parameter) and a JSON-able meta dict."""
    entries = []
    for p in params:
        entries.append({"name": p.name, "shape": list(p.values.shape),
                        "dtype": "<f8", "regularized": bool(p.regularized)})
    header = json.dumps({"meta": meta, "params": entries},
                        sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for p in params:
            fh.write(np.ascontiguousarray(p.values, dtype="<f8").tobytes())


def _check_header(path, header):
    """Reject a header without the fields `load_snapshot` reads."""
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("params"), list)):
        raise SnapshotError(
            f"{path}: header needs a 'meta' object and a 'params' list")
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise SnapshotError(
                f"{path}: malformed parameter entry {entry!r}: needs a "
                "'name' string and a 'shape' list of sizes")


def load_snapshot(path):
    """Read a snapshot; returns (meta, name->array, name->regularized)."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise SnapshotError(f"{path}: not a parameter snapshot")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise SnapshotError(f"{path}: truncated header")
        (header_len,) = struct.unpack("<I", raw_len)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{path}: bad header ({exc})")
        _check_header(path, header)
        arrays = {}
        regularized = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise SnapshotError(
                    f"{path}: truncated data for {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(
                buf, dtype="<f8").reshape(shape).copy()
            regularized[entry["name"]] = bool(entry.get("regularized", False))
        if fh.read(1):
            raise SnapshotError(f"{path}: trailing bytes after parameters")
    return header["meta"], arrays, regularized
