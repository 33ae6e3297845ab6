"""HYAR-CKPT-1 checkpoint container.

Layout: a UTF-8 text manifest followed by one binary blob.

    HYAR-CKPT-1
    entries <N>
    <name> <shape> <byte_offset> <count>      (N lines; shape "2x3", 0-d "0d")
    blob <total_bytes>
    <raw little-endian float64 data>

Every stored value is float64; integer and RNG state words are bit-viewed by
the caller.  Names are whitespace-free.  Loading a malformed file raises
CheckpointError (an OSError, so it maps to the I/O exit code); so do entry(),
restore() and as_int(), which restorers use to read a loaded dict, when an
entry is missing, has the wrong shape or is not a count in range.
"""
from __future__ import annotations

import hashlib

import numpy as np

MAGIC = "HYAR-CKPT-1"


class CheckpointError(OSError):
    """Checkpoint file is missing, truncated, or malformed."""


def _shape_str(shape: tuple) -> str:
    return "0d" if shape == () else "x".join(str(d) for d in shape)


def _field(text: str, what: str) -> int:
    """A non-negative integer manifest field."""
    try:
        value = int(text)
    except ValueError as exc:
        raise CheckpointError(f"bad {what} field {text!r}") from exc
    if value < 0:
        raise CheckpointError(f"negative {what} field {text!r}")
    return value


def _parse_shape(text: str) -> tuple:
    if text == "0d":
        return ()
    return tuple(_field(d, "shape") for d in text.split("x"))


def save_checkpoint(path: str, entries: dict) -> None:
    """Write entries (name -> float64 array) in manifest + blob form."""
    names = list(entries)
    arrays = []
    lines = [MAGIC, f"entries {len(names)}"]
    offset = 0
    for name in names:
        if any(ch.isspace() for ch in name):
            raise CheckpointError(f"entry name contains whitespace: {name!r}")
        a = np.asarray(entries[name], dtype="<f8")
        if a.ndim and not a.flags.c_contiguous:
            a = np.ascontiguousarray(a)
        arrays.append(a)
        lines.append(f"{name} {_shape_str(a.shape)} {offset} {a.size}")
        offset += a.size * 8
    lines.append(f"blob {offset}")
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))
        for a in arrays:
            fh.write(a.tobytes())


def load_checkpoint(path: str) -> dict:
    """Read a checkpoint back into a name -> float64 array dict."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    def next_line(pos: int) -> tuple[str, int]:
        end = raw.find(b"\n", pos)
        if end < 0:
            raise CheckpointError("truncated manifest")
        try:
            return raw[pos:end].decode("utf-8"), end + 1
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"manifest is not UTF-8: {exc}") from exc

    line, pos = next_line(0)
    if line != MAGIC:
        raise CheckpointError(f"bad magic {line!r}")
    line, pos = next_line(pos)
    parts = line.split()
    if len(parts) != 2 or parts[0] != "entries":
        raise CheckpointError(f"bad entries line {line!r}")
    n = _field(parts[1], "entries")
    specs = []
    for _ in range(n):
        line, pos = next_line(pos)
        parts = line.split()
        if len(parts) != 4:
            raise CheckpointError(f"bad entry line {line!r}")
        name, shape_s, off_s, count_s = parts
        specs.append((name, _parse_shape(shape_s), _field(off_s, "offset"),
                      _field(count_s, "count")))
    line, pos = next_line(pos)
    parts = line.split()
    if len(parts) != 2 or parts[0] != "blob":
        raise CheckpointError(f"bad blob line {line!r}")
    total = _field(parts[1], "blob")
    blob = raw[pos:pos + total]
    if len(blob) != total:
        raise CheckpointError(
            f"blob truncated: expected {total} bytes, got {len(blob)}")
    out = {}
    for name, shape, off, count in specs:
        expect = int(np.prod(shape)) if shape else 1
        if count != expect:
            raise CheckpointError(f"{name}: count {count} vs shape {shape}")
        if off + count * 8 > total:
            raise CheckpointError(f"{name}: entry extends past blob end")
        a = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        out[name] = a.astype(np.float64).reshape(shape)
    return out


def entry(entries: dict, name: str, shape: tuple | None = None) -> np.ndarray:
    """entries[name], checked against shape when given (a None dim matches
    any length)."""
    try:
        a = np.asarray(entries[name])
    except KeyError:
        raise CheckpointError(f"checkpoint lacks entry {name!r}") from None
    if shape is not None and (
            a.ndim != len(shape)
            or any(w is not None and g != w for g, w in zip(a.shape, shape))):
        raise CheckpointError(f"{name}: shape {a.shape}, expected {shape}")
    return a


def restore(entries: dict, name: str, dst: np.ndarray) -> None:
    """Copy entry `name` into dst in place; the shapes must match exactly."""
    dst[...] = entry(entries, name, dst.shape)


def as_int(value, name: str, lo: int = 0, hi: int | None = None) -> int:
    """An integer-valued float read from a checkpoint, in [lo, hi)."""
    v = float(value)
    if not v.is_integer() or v < lo or (hi is not None and v >= hi):
        raise CheckpointError(f"{name}: {v!r} is not an integer in [{lo}, {hi})")
    return int(v)


def git_blob_sha1(path: str) -> str:
    """Git-style content hash: sha1 over 'blob <len>\\0' + file bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    h = hashlib.sha1()
    h.update(f"blob {len(data)}".encode("ascii") + b"\0")
    h.update(data)
    return h.hexdigest()
