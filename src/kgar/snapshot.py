"""Bit-exact parameter snapshots.

Layout: magic line (the format version), 4-byte little-endian header
length, UTF-8 JSON header (meta, then each parameter's name, shape and
dtype; other keys are ignored), then the raw row-major little-endian
float64 bytes of every parameter in header order. No timestamps or
other nondeterminism: identical parameters and metadata produce
identical files. A save writes a temp file next to
its target and renames it over the target only once complete, so a
failed save leaves any earlier snapshot at that path as it was.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

MAGIC = b"KGAR1\n"


class SnapshotError(ValueError):
    """Corrupt or incompatible snapshot file."""


def save_snapshot(path, params, meta):
    """Write parameters (a list of Parameter) and a JSON-able meta dict."""
    entries = [{"name": p.name, "shape": list(p.values.shape), "dtype": "<f8"}
               for p in params]
    header = json.dumps({"meta": meta, "params": entries},
                        sort_keys=True).encode("utf-8")
    # same directory, so the rename cannot cross file systems; opened like
    # the target would be, so it gets the same permissions
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(header)))
            fh.write(header)
            for p in params:
                fh.write(np.ascontiguousarray(p.values, dtype="<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_header(path, header):
    """Reject a header without the fields `load_snapshot` reads, or that
    names a parameter twice."""
    if not (isinstance(header, dict) and isinstance(header.get("meta"), dict)
            and isinstance(header.get("params"), list)):
        raise SnapshotError(
            f"{path}: header needs a 'meta' object and a 'params' list")
    names = set()
    for entry in header["params"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise SnapshotError(
                f"{path}: malformed parameter entry {entry!r}: needs a "
                "'name' string and a 'shape' list of sizes")
        # the data is read as <f8; an absent dtype means <f8 too
        if entry.get("dtype", "<f8") != "<f8":
            raise SnapshotError(
                f"{path}: parameter {entry['name']!r} has dtype "
                f"{entry['dtype']!r}; snapshots hold '<f8' data only")
        if entry["name"] in names:
            raise SnapshotError(f"{path}: repeated parameter {entry['name']!r}")
        names.add(entry["name"])


def load_snapshot(path):
    """Read a snapshot; returns (meta, name->array)."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) != MAGIC:
            raise SnapshotError(f"{path}: not a parameter snapshot")
        raw_len = fh.read(4)
        if len(raw_len) != 4:
            raise SnapshotError(f"{path}: truncated header")
        (header_len,) = struct.unpack("<I", raw_len)
        # each size the file states is checked against its length before
        # the read, which would allocate the bytes asked for
        size = os.fstat(fh.fileno()).st_size
        if fh.tell() + header_len > size:
            raise SnapshotError(f"{path}: truncated header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SnapshotError(f"{path}: bad header ({exc})")
        _check_header(path, header)
        arrays = {}
        for entry in header["params"]:
            shape = tuple(entry["shape"])
            nbytes = 8 * math.prod(shape)
            if fh.tell() + nbytes > size:
                raise SnapshotError(
                    f"{path}: truncated data for {entry['name']!r}")
            arrays[entry["name"]] = np.frombuffer(
                fh.read(nbytes), dtype="<f8").reshape(shape).copy()
        if fh.tell() != size:
            raise SnapshotError(f"{path}: trailing bytes after parameters")
    return header["meta"], arrays
