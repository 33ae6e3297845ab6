"""Interval means, CSV metrics log, evaluation log, and the run manifest."""
from __future__ import annotations

import hashlib
import os
from pathlib import Path

from .. import numkit as nk


class IntervalAccum:
    """Sum and count (name_sum, name_n) per mean column of metrics.csv over
    one eval interval; COLUMNS (name -> column) is in column order, FIELDS
    in checkpoint order."""

    COLUMNS = {"vae": "loss_vae", "dyn": "loss_dyn", "critic": "critic_loss",
               "actor": "actor_loss", "cover": "bound_coverage"}
    FIELDS = tuple(f"{n}_{part}" for n in COLUMNS for part in ("sum", "n"))

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for f in self.FIELDS:
            setattr(self, f, 0.0)

    def add(self, name: str, value: float) -> None:
        setattr(self, f"{name}_sum", getattr(self, f"{name}_sum") + value)
        setattr(self, f"{name}_n", getattr(self, f"{name}_n") + 1)

    def mean(self, name: str) -> float:
        n = getattr(self, f"{name}_n")
        if n == 0.0:
            return float("nan")
        return getattr(self, f"{name}_sum") / n


METRICS_HEADER = ",".join(("env_step", "episode", "return_ma100",
                           "success_ma100", *IntervalAccum.COLUMNS.values()))
EVAL_HEADER = "env_step,mean_return,success_rate"


def _cell(v) -> str:
    """Ints verbatim; floats through repr() so reruns match bit for bit."""
    if isinstance(v, bool):
        raise TypeError("write 0/1, not booleans")
    if isinstance(v, (int,)):
        return str(v)
    return repr(float(v))


def _cut_rows_after(path: str, upto: int) -> None:
    """Truncate a log to its header plus the leading whole rows whose first
    column (env_step) is <= upto; a torn last line goes with the cut."""
    with open(path, "rb+") as fh:
        data = fh.read()
        keep = data.find(b"\n") + 1
        if keep == 0:
            raise OSError(f"{path}: no header line to resume after")
        for line in data[keep:].splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break
            step = line.split(b",", 1)[0]
            if not step.isdigit():
                raise OSError(f"{path}: malformed row {line[:40]!r}")
            if int(step) > upto:
                break
            keep += len(line)
        fh.truncate(keep)


class CsvLog:
    """Append-per-row CSV writer; flushes each row so aborts keep whole lines.

    With resume=True an existing log is continued; given upto (the env_step
    of the last evaluation a checkpoint accounts for), rows written after
    that checkpoint by an earlier, killed resume are cut first so they are
    not written twice."""

    def __init__(self, path: str, header: str, resume: bool = False,
                 upto: int | None = None):
        self.path = path
        fresh = not (resume and os.path.exists(path))
        if not fresh and upto is not None:
            _cut_rows_after(path, upto)
        self._fh = open(path, "w" if fresh else "a", encoding="utf-8")
        if fresh:
            self._fh.write(header + "\n")
            self._fh.flush()

    def row(self, values) -> None:
        self._fh.write(",".join(_cell(v) for v in values) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


def src_sha256() -> str:
    """sha256 of the code that runs: every *.py file of the hyar package in
    sorted order, each as its path relative to the package's parent
    directory, a NUL byte and its bytes (perfbench's src_sha256)."""
    pkg = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256()
    for f in sorted(pkg.rglob("*.py")):
        digest.update(str(f.relative_to(pkg.parent)).encode() + b"\0"
                      + f.read_bytes())
    return digest.hexdigest()


def write_manifest(path: str, config, checkpoint_name: str,
                   checkpoint_path: str) -> str:
    """Resolved config, the checkpoint's git-style blob hash (returned), its
    format, the numeric policy the run trained under, its bits epoch and
    the hash of the code that made it (recorded, never checked)."""
    sha = nk.git_blob_sha1(checkpoint_path)
    lines = config.manifest_lines() + [
        f"checkpoint = {checkpoint_name}",
        f"checkpoint_sha1 = {sha}",
        f"checkpoint_format = {nk.MAGIC}",
        f"numeric_policy = {nk.TRAIN_DTYPE.name}",
        f"bits_epoch = {nk.BITS_EPOCH}",
        f"src_sha256 = {src_sha256()}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return sha
