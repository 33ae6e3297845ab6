"""Check that the working tree's src/ trains byte-identical runs to a revision.

    python3 scripts/same_bytes.py [REV]        (REV defaults to HEAD)

The script extracts REV's src/ with `git archive` into a temporary
directory, then trains six tiny configurations once with each side's src/
on PYTHONPATH, at one BLAS thread and with the same --out path (the path is
written into the checkpoint's config entry).  For each configuration it
compares metrics.csv, eval.csv, run-manifest.txt and final.ckpt byte for
byte and prints one line; the manifest is compared without its src_sha256
line, which names the code and so differs whenever src/ does.  When the
final.ckpt bytes differ, the line also says whether the decoded states are
identical: each side loads its own file with its own src/ in a subprocess
and digests every entry as float64, as perfbench's state_digest does (the
config entry included, since both sides write the same --out path).  The
hard_move legs (K = 256 and 1024 table rows) are where repair_rows skips
most of its collision scans.  Then, for platform-td3, platform-ddpg (a
critic stack of one, and an actor step after every critic step) and
hard_move8-td3 (whose repair skip restarts from the fresh model's table
after the load), it trains the run again on each side, resumes it from its
own final.ckpt to RESUME_STEPS (`train --resume OUT/final.ckpt --steps
RESUME_STEPS`, which continues in OUT) and compares the four files once
more: nine legs in all.  Last it prints the bits epoch of each side, read
from the `bits_epoch` line of its run-manifest.txt (a manifest without one
is epoch 0), and the src/ line count of REV and of the working tree,
counted as `find src -name '*.py' | xargs cat | wc -l` counts them.

Exit status 1 means a run failed, or some file differs while both sides
are of the same bits epoch, whether or not the decoded states match: a
change that alters the bits must bump numkit's BITS_EPOCH.  When the
epochs differ, every difference is still printed, and the status is 0
unless a run failed.  Each run takes a few seconds on one core.  Six tiny
runs can miss a divergence that shows only in long runs: the float64 GEMM
nearest-row decoding printed identical here, yet 200k-step platform runs
of seeds 1 and 2 left their earlier bits at their 50k and 20k evals.
"""
from __future__ import annotations

import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FILES = ("metrics.csv", "eval.csv", "run-manifest.txt", "final.ckpt")
SHARED = {"run.seed": 3, "run.total_env_steps": 900,
          "run.warmup_env_steps": 300, "run.eval_interval": 300,
          "run.eval_episodes": 2, "repr.pretrain_batches": 30}
CONFIGS = {
    "platform-td3": {"env.id": "platform", "run.algo": "hyar-td3"},
    "platform-ddpg": {"env.id": "platform", "run.algo": "hyar-ddpg"},
    "catch_point-td3": {"env.id": "catch_point", "run.algo": "hyar-td3"},
    "goal-td3": {"env.id": "goal", "run.algo": "hyar-td3"},
    "hard_move8-td3": {"env.id": "hard_move", "env.n": 8,
                       "run.algo": "hyar-td3"},
    "hard_move10-td3": {"env.id": "hard_move", "env.n": 10,
                        "run.algo": "hyar-td3"},
}
RESUMED = ("platform-td3", "platform-ddpg", "hard_move8-td3")
RESUME_STEPS = 1200
DIGEST = """
import hashlib, sys
import numpy as np
from hyar import numkit as nk
entries, h = nk.load_checkpoint(sys.argv[1]), hashlib.sha256()
for name in sorted(entries):
    a = np.ascontiguousarray(entries[name], dtype="<f8")
    h.update(f"{name} {a.shape}\\n".encode())
    h.update(a.tobytes())
print(h.hexdigest())
"""


def extract_src(rev: str, dest: str) -> str:
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                         cwd=ROOT, check=True, capture_output=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, **safe)
    return os.path.join(dest, "src")


def src_lines(src: str) -> int:
    """Newlines in every .py file under src, as wc -l counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(src).rglob("*.py"))


def train(src: str, keys: dict, out: str, cfg_path: str,
          resume_steps: int | None = None) -> dict:
    """Train one run into out, then resume it to resume_steps if given;
    return {file name: bytes} plus "state", the digest of final.ckpt's
    decoded entries (None if missing or if a leg failed)."""
    shutil.rmtree(out, ignore_errors=True)
    with open(cfg_path, "w", encoding="utf-8") as fh:
        for key, val in {**SHARED, **keys, "run.out_dir": out}.items():
            fh.write(f"{key} = {val}\n")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    legs = [["--config", cfg_path]]
    if resume_steps is not None:
        legs.append(["--resume", os.path.join(out, "final.ckpt"),
                     "--steps", str(resume_steps)])
    for args in legs:
        res = subprocess.run([sys.executable, "-m", "hyar.cli", "train",
                              *args], env=env, capture_output=True,
                             text=True, timeout=600)
        if res.returncode != 0:
            sys.stderr.write(res.stderr)
            return dict.fromkeys(FILES + ("state",))
    paths = {name: Path(out, name) for name in FILES}
    got = {name: p.read_bytes() if p.exists() else None
           for name, p in paths.items()}
    if got["run-manifest.txt"] is not None:
        got["run-manifest.txt"] = b"".join(
            line for line in got["run-manifest.txt"].splitlines(keepends=True)
            if not line.startswith(b"src_sha256 = "))
    res = subprocess.run([sys.executable, "-c", DIGEST,
                          str(paths["final.ckpt"])], env=env,
                         capture_output=True, text=True, timeout=600)
    got["state"] = res.stdout if res.returncode == 0 else None
    return got


def bits_epoch(manifest: bytes | None) -> int | None:
    """The bits_epoch of a run-manifest.txt: 0 if it has no such line, None
    if there is no manifest."""
    if manifest is None:
        return None
    for line in manifest.decode("utf-8").splitlines():
        key, _, val = line.partition(" = ")
        if key == "bits_epoch":
            return int(val)
    return 0


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    identical, failed = True, False
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        old_src = extract_src(rev, os.path.join(tmp, "rev"))
        new_src = os.path.join(ROOT, "src")
        out = os.path.join(tmp, "out")
        cfg = os.path.join(tmp, "run.cfg")
        runs = [(name, keys, None) for name, keys in CONFIGS.items()]
        runs += [(f"{name} resumed to {RESUME_STEPS}", CONFIGS[name],
                  RESUME_STEPS) for name in RESUMED]
        for name, keys, steps in runs:
            old = train(old_src, keys, out, cfg, steps)
            new = train(new_src, keys, out, cfg, steps)
            failed = failed or any(got[f] is None for got in (old, new)
                                   for f in FILES)
            bad = [f for f in FILES if old[f] is None or old[f] != new[f]]
            identical = identical and not bad
            line = "identical" if not bad else "DIFFERS in " + ", ".join(bad)
            if "final.ckpt" in bad:
                same = old["state"] is not None and old["state"] == new["state"]
                line += "; decoded state " + ("identical" if same
                                              else "DIFFERS")
            print(f"{name}: {line}", flush=True)
        print(f"{rev} vs working tree: "
              + ("all identical" if identical else "NOT identical"))
        # every leg of a side runs the same src/: the last one speaks for all
        old_epoch, new_epoch = (bits_epoch(got["run-manifest.txt"])
                                for got in (old, new))
        print(f"bits epoch {old_epoch} -> {new_epoch}")
        print(f"src/ lines: {rev} {src_lines(old_src)}, "
              f"working tree {src_lines(new_src)}")
    if failed:
        return 1
    return 0 if identical or old_epoch != new_epoch else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
