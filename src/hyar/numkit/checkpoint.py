"""HYAR-CKPT-3 checkpoint container.

A file is the magic line, one line of JSON listing [name, dtype, shape] for
each entry in save order, then the entries' raw little-endian bytes packed
in that order, so no offset is stored.  dtype is "<f4" for float32 arrays,
"|u1" for uint8 ones (UTF-8 text) and "<f8" for anything else; each entry
loads back in its own dtype.  A save writes path + ".tmp", then renames it
over path.  Nothing checks the packed bytes.  Other formats (HYAR-CKPT-2
included) and malformed files raise CheckpointError, an OSError, so it maps
to the I/O exit code; so do the readers restorers use on a loaded dict
(entry, finite_entry, restore, as_int) when an entry is missing, has the
wrong shape, is not finite where training keeps it finite, or is not a
count in range.

A Slot names one piece of run state once and carries both directions:
save() gives its entries, load() restores them.  A list of slots is a
checkpoint's whole layout; gather() turns it into the entries to save.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Callable, NamedTuple

import numpy as np

MAGIC = "HYAR-CKPT-3"
_CODES = ("<f4", "<f8", "|u1")  # the entry dtypes, as numpy spells them


class CheckpointError(OSError):
    """Checkpoint file is missing, truncated, or malformed."""


def save_checkpoint(path: str, entries: dict) -> None:
    """Write entries (name -> array) as magic line, layout line and blob:
    float32 and uint8 arrays keep their dtype, anything else becomes f8.
    The file goes to path + ".tmp" first and then replaces path."""
    arrays = []
    for value in entries.values():
        a = np.asarray(value)
        arrays.append(a if a.dtype.str in _CODES else a.astype("<f8"))
    layout = json.dumps([[name, a.dtype.str, list(a.shape)]
                         for name, a in zip(entries, arrays)],
                        separators=(",", ":"))
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{MAGIC}\n{layout}\n".encode("utf-8"))
            for a in arrays:  # the array's own buffer where it can
                fh.write(a.data if a.flags.c_contiguous else a.tobytes())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint back into a name -> array dict, each array in the
    dtype its entry was stored in (float32, float64 or uint8)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    head = MAGIC.encode("ascii") + b"\n"
    if not raw.startswith(head):
        tag = raw[:64].split(b"\n")[0]
        raise CheckpointError(f"bad magic {tag!r}")
    end = raw.find(b"\n", len(head))
    try:
        layout = json.loads(raw[len(head):end]) if end >= 0 else None
    except (ValueError, RecursionError) as exc:  # too deeply nested
        raise CheckpointError(f"layout is not JSON: {exc}") from exc
    if not isinstance(layout, list):
        raise CheckpointError("no layout line holding a list")
    blob = memoryview(raw)[end + 1:]  # no copy: entries copy out
    out, off = {}, 0
    for row in layout:
        if not (isinstance(row, list) and len(row) == 3
                and isinstance(row[0], str) and row[1] in _CODES
                and isinstance(row[2], list)  # of ints >= 0, bools refused
                and all(type(d) is int and d >= 0 for d in row[2])):
            raise CheckpointError(f"bad layout row {row!r}")
        name, code, shape = row
        dtype = np.dtype(code)
        count = math.prod(shape)  # exact: np.prod wraps at 2**63
        if off + count * dtype.itemsize > len(blob):
            raise CheckpointError(f"{name}: entry runs past the blob end")
        a = np.frombuffer(blob, dtype=dtype, count=count, offset=off)
        out[name] = a.astype(dtype.type).reshape(shape)
        off += count * dtype.itemsize
    if off != len(blob):
        raise CheckpointError(f"blob holds {len(blob)} bytes, layout {off}")
    return out


def entry(entries: dict, name: str, shape: tuple) -> np.ndarray:
    """entries[name], checked against shape (a None dim matches any
    length)."""
    try:
        a = np.asarray(entries[name])
    except KeyError:
        raise CheckpointError(f"checkpoint lacks entry {name!r}") from None
    if a.ndim != len(shape) or any(w is not None and g != w
                                   for g, w in zip(a.shape, shape)):
        raise CheckpointError(f"{name}: shape {a.shape}, expected {shape}")
    return a


def finite_entry(entries: dict, name: str, shape: tuple) -> np.ndarray:
    """entry(), checked to hold no NaN or inf.  Training keeps parameters,
    Adam moments, buffer columns and bounds finite (adam_step rejects any
    non-finite gradient), so a checkpoint that does not is malformed."""
    a = entry(entries, name, shape)
    if not np.isfinite(a).all():
        raise CheckpointError(f"{name}: non-finite value")
    return a


def restore(entries: dict, name: str, dst: np.ndarray) -> None:
    """Copy finite entry `name` into dst in place; shapes must match exactly."""
    dst[...] = finite_entry(entries, name, dst.shape)


def as_int(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """An integer-valued float read from a checkpoint, in [lo, hi)."""
    v = float(value)
    if not v.is_integer() or v < lo or (hi is not None and v >= hi):
        raise CheckpointError(f"{name}: {v!r} is not an integer in [{lo}, {hi})")
    return int(v)


class Slot(NamedTuple):
    """save() -> {entry name: array} in file order; load(entries) restores
    the same state from a loaded dict, raising CheckpointError if malformed."""

    save: Callable[[], dict]
    load: Callable[[dict], None]


def gather(slots) -> dict:
    """The entries of every slot, in slot order."""
    out: dict = {}
    for slot in slots:
        out.update(slot.save())
    return out


def array_slot(name: str, arr: np.ndarray) -> Slot:
    """An array that loads back in place, at exactly its own shape."""
    return Slot(lambda: {name: arr}, lambda d: restore(d, name, arr))


def count_slot(name: str, owner, attr: str) -> Slot:
    """An integer attribute >= 0, stored as a 0-d entry."""
    return Slot(lambda: {name: np.float64(getattr(owner, attr))},
                lambda d: setattr(owner, attr,
                                  as_int(entry(d, name, ()), name)))


def fields_slot(name: str, rows) -> Slot:
    """Attributes stored together as one vector.  rows: (owner, attr, lo);
    lo None marks a float, otherwise the value is an integer count >= lo."""
    def load(d: dict) -> None:
        for (owner, attr, lo), v in zip(rows, entry(d, name, (len(rows),))):
            setattr(owner, attr,
                    float(v) if lo is None else as_int(v, f"{name} {attr}", lo))
    return Slot(lambda: {name: np.array([getattr(o, a) for o, a, _ in rows],
                                        dtype=np.float64)}, load)


def git_blob_sha1(path: str) -> str:
    """Git-style content hash: sha1 over 'blob <len>\\0' + file bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    h = hashlib.sha1()
    h.update(f"blob {len(data)}".encode("ascii") + b"\0")
    h.update(data)
    return h.hexdigest()
