"""Benchmark of hyar training: end-to-end metrics, correctness checks and a
traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload platform-td3 --seed 1 --seconds 35 --trace 0

A run repeats one training round (fresh Trainer, warm-up, RL window,
checkpoint round trips, eval pass) from the same seed for `--seconds`.
`--trace 0` reports the end-to-end metrics with tracing off.  `--trace 1`
alternates untraced and traced rounds (see spans.py) and reports the
per-layer metrics plus the tracing overhead.  `--workload all` runs every
workload, one process each.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit codes: 0 all
checks passed, 1 a check failed or the workload raised, 2 the package
sources are missing.

The package is driven only through its public API, from one process with
the BLAS thread settings left as the environment has them.  Files go to
.perfbench-out/ in the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_ROUNDS = 3        # identical training rounds per run, at least
# The end-of-window state gets TAIL_PASSES x (CKPT_REPEATS checkpoint round
# trips, then one evaluate() pass), so both sample several moments a round.
TAIL_PASSES = 3
CKPT_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """Config overrides, RL window length (0: no RL phase), eval size."""

    overrides: dict
    rl_steps: int
    eval_episodes: int


# Warm-up shortened for the TD3 workloads so the timed window is the RL phase.
SHORT_WARMUP = {"run.warmup_env_steps": 500, "repr.pretrain_batches": 100}
RL_STEPS = 150

WORKLOADS = {
    "platform-td3": Workload(
        {"env.id": "platform", "run.algo": "hyar-td3", **SHORT_WARMUP},
        rl_steps=RL_STEPS, eval_episodes=1000),
    "hard_move8-td3": Workload(
        {"env.id": "hard_move", "env.n": 8, "run.algo": "hyar-td3",
         **SHORT_WARMUP},
        rl_steps=RL_STEPS, eval_episodes=100),
    # default 5000 random steps; pre-training cut from 5000 batches to fit
    # the run budget (the per-batch work is unchanged)
    "warmup-goal": Workload(
        {"env.id": "goal", "run.algo": "hyar-td3",
         "repr.pretrain_batches": 200},
        rl_steps=0, eval_episodes=40),
}

END_TO_END = (("setup_s", "s"), ("warmup_s", "s"), ("rl_steps_per_s", "1/s"),
              ("eval_steps_per_s", "1/s"), ("ckpt_roundtrip_s", "s"),
              ("peak_rss_mb", "MB"), ("ok_share", "ratio"))

# Timed in a fresh interpreter: import of hyar, build_config, Trainer(...).
SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from hyar.harness import Trainer, build_config
Trainer(build_config(overrides=json.loads(sys.argv[2])))
print(time.perf_counter() - t0)
"""


# ---- machine block -----------------------------------------------------

def _openblas():
    """(version, effective thread count) of the OpenBLAS numpy loaded."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                threads = int(fn())
                break
    return f"{blas.get('name')} {blas.get('version')}", threads


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return res.stdout.strip() or None


def machine_block() -> dict:
    import numpy as np
    blas, threads = _openblas()
    digest = hashlib.sha256()
    lines = 0
    for f in sorted(SRC.rglob("*.py")):
        data = f.read_bytes()
        lines += data.count(b"\n")
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# ---- measurement pieces ------------------------------------------------

def setup_seconds(overrides: dict) -> float:
    """Wall time of import + build_config + Trainer in a new interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), json.dumps(overrides)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def state_digest(entries: dict) -> str:
    """sha256 over every checkpoint entry but `config` (it holds out_dir)."""
    import numpy as np
    h = hashlib.sha256()
    for name in sorted(entries):
        if name == "config":
            continue
        a = np.ascontiguousarray(entries[name], dtype="<f8")
        h.update(f"{name} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def ckpt_roundtrip(tr, path: Path, repeats: int):
    """Timed save and from_checkpoint; returns (save times, load times,
    digest, same_bits)."""
    from hyar import numkit as nk
    from hyar.harness import Trainer
    first, again = str(path / "window.ckpt"), str(path / "again.ckpt")
    saves, loads = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        tr.save_checkpoint(first)
        t1 = time.perf_counter()
        back = Trainer.from_checkpoint(first)
        loads.append(time.perf_counter() - t1)
        saves.append(t1 - t0)
    back.save_checkpoint(again)
    a, b = nk.load_checkpoint(first), nk.load_checkpoint(again)
    same = a.keys() == b.keys() and all(
        a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a)
    return saves, loads, state_digest(a), same


class Stamps(list):
    """perf_counter() readings at chosen points, to time work piece by piece."""

    def mark(self) -> None:
        self.append(time.perf_counter())

    @contextlib.contextmanager
    def hooked(self, *targets):
        """Take a reading as each call of obj.attr starts, for every
        (obj, attr) in targets, while the block runs (instance level)."""
        for obj, attr in targets:
            fn = getattr(obj, attr)

            def stamped(*args, fn=fn, **kwargs):
                self.append(time.perf_counter())
                return fn(*args, **kwargs)
            setattr(obj, attr, stamped)
        try:
            yield self
        finally:
            for obj, attr in targets:
                delattr(obj, attr)


def fastest(rounds: list) -> float:
    """Seconds for the work between the first and last stamp, taking each
    interval between stamps at the fastest it ran in any round.  Rounds do
    identical work, so the host's slow spells drop out."""
    import numpy as np
    if len({len(r) for r in rounds}) != 1:
        raise RuntimeError("rounds took different numbers of stamps")
    return float(np.diff(np.asarray(rounds), axis=1).min(axis=0).sum())


def eval_stamps(tr, wl: Workload, seed: int) -> Stamps:
    """Stamps of one evaluate() pass (batch-1 inference, no noise): start,
    each env step, end."""
    from hyar.envs import make
    from hyar.harness import derive_seed, evaluate
    env = make(tr.cfg.env_id, tr.cfg.env_n)
    stamps = Stamps()
    with stamps.hooked((env, "step")):
        stamps.mark()
        evaluate(tr.nets, tr.model, tr.bounds, env, wl.eval_episodes,
                 derive_seed(seed, 9))
        stamps.mark()
    return stamps


def update_counts(tr) -> tuple[int, int]:
    """(attempted, failed) updates from the Trainer's own counters.

    Attempted: one Adam step per critic per critic_update, the delayed actor
    steps, and every representation batch (pre-training plus one before each
    later bounds refresh).  Failed: numeric faults plus skipped repr updates.
    """
    acfg = tr.acfg
    critic = tr.nets.critic_updates
    attempted = (critic * acfg.num_critics + critic // acfg.policy_delay
                 + tr.cfg.pretrain_batches + tr.bounds_refreshes - 1)
    return attempted, tr.nets.fault_count + tr.repr_skipped


class Checks:
    """Named pass/fail results with a one-line note each."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, note: str) -> None:
        self.items.append((name, bool(ok), note))

    @property
    def ok(self) -> bool:
        return all(ok for _n, ok, _note in self.items)


def window_checks(tr, wl: Workload) -> list[tuple[str, bool, str]]:
    """Step target reached and losses finite, on the end-of-window state."""
    target = tr.cfg.warmup() + wl.rl_steps
    out = [("step_target", tr.warmed_up and tr.env_step >= target,
            f"env_step {tr.env_step} >= {target}")]
    if wl.rl_steps:
        loss = tr.acc.mean("critic")
        out.append(("critic_loss_finite", math.isfinite(loss),
                    f"mean critic loss {loss!r} over "
                    f"{int(tr.acc.critic_n)} updates"))
    else:
        vae, dyn = tr.acc.mean("vae"), tr.acc.mean("dyn")
        out.append(("repr_loss_finite", math.isfinite(vae) and math.isfinite(dyn),
                    f"mean vae {vae!r}, dyn {dyn!r}"))
        out.append(("no_agent_updates", tr.nets.critic_updates == 0,
                    f"critic_updates {tr.nets.critic_updates}"))
    return out


def training_round(wl: Workload, overrides: dict, seed: int,
                   run_dir: Path) -> dict:
    """One full pass from a fresh Trainer; every round does identical work.

    Warm-up, then the RL window: Trainer.run() up to warm-up + rl_steps env
    steps, stamped at each env step, so run()'s own set-up and final
    checkpoint stay out.  Evaluation stays out of the window (eval_interval
    is beyond the step budget).  Then checkpoint round trips and eval
    passes on the end-of-window state.
    """
    from hyar.harness import Trainer, build_config
    gc.collect()  # the last round's garbage goes before this one allocates
    tr = Trainer(build_config(overrides=overrides))
    warm, rl = Stamps(), Stamps()
    with warm.hooked((tr.env, "step"), (tr.model, "repr_train_batch")):
        warm.mark()
        tr.warmup_stage()
        warm.mark()
    if wl.rl_steps:
        with rl.hooked((tr.env, "step")):
            tr.cfg.total_env_steps = tr.cfg.warmup() + wl.rl_steps
            tr.run()
    checks = window_checks(tr, wl)
    saves, loads, digests, evals = [], [], set(), []
    for _ in range(TAIL_PASSES):
        save_s, load_s, digest, same = ckpt_roundtrip(tr, run_dir, CKPT_REPEATS)
        checks.append(("ckpt_roundtrip_bits", same, "save, load, save again"))
        saves += save_s
        loads += load_s
        digests.add(digest)
        evals.append(eval_stamps(tr, wl, seed))
    checks.append(("eval_leaves_state", len(digests) == 1,
                   "evaluate() changes no training state"))
    return {"trainer": tr, "warm": warm, "warm_steps": tr.cfg.warmup(),
            "rl": rl, "saves": saves, "loads": loads, "eval": evals,
            "digest": digest, "checks": checks, "env_step": tr.env_step,
            "counts": update_counts(tr)}


def rates(rounds: list[dict]) -> dict:
    """warmup_s, rl_steps_per_s and eval_steps_per_s over rounds of
    identical work (see fastest).  A workload without an RL phase reports
    the warm-up's env-step rate as its rl_steps_per_s."""
    warmup_s = fastest([r["warm"] for r in rounds])
    if rounds[0]["rl"]:
        rl = (len(rounds[0]["rl"]) - 1) / fastest([r["rl"] for r in rounds])
    else:
        rl = rounds[0]["warm_steps"] / warmup_s
    passes = [e for r in rounds for e in r["eval"]]
    return {"warmup_s": warmup_s, "rl_steps_per_s": rl,
            "eval_steps_per_s": (len(passes[0]) - 2) / fastest(passes)}


def round_checks(checks: Checks, rounds: list[dict]) -> None:
    """Fold per-round checks (first failure wins) and cross-round equality."""
    by_name: dict = {}
    for r in rounds:
        for name, ok, note in r["checks"]:
            if name not in by_name or (by_name[name][0] and not ok):
                by_name[name] = (ok, note)
    for name, (ok, note) in by_name.items():
        checks.add(name, ok, note)
    digests = {r["digest"] for r in rounds}
    checks.add("same_bits_across_rounds", len(digests) == 1,
               f"{len(rounds)} rounds, {len(digests)} distinct end states")


def digest_record(checks: Checks, key: str, digest: str) -> None:
    """Compare with the digest an earlier run of the same key left here."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        checks.add("same_bits_as_earlier_run", known[key] == digest,
                   f"earlier run of {key}: {known[key][:16]}")
    else:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


# ---- the two modes -----------------------------------------------------

def measure(name: str, seed: int, seconds: float, run_dir: Path,
            machine: dict, checks: Checks) -> dict:
    """End-to-end metrics of one workload, tracing off.

    Rounds of identical work repeat until `seconds` have passed (at least
    MIN_ROUNDS), each with its own setup probe, so every metric samples the
    whole run.  The host's speed shifts by tens of percent for seconds to
    minutes at a time, so timings take each piece of work at its fastest
    round (see fastest); setup_s is the median probe.
    """
    wl = WORKLOADS[name]
    overrides = config_overrides(wl, seed, run_dir)
    rounds, probes = [], []
    t_start = time.perf_counter()
    while True:
        probes.append(setup_seconds(overrides))
        rounds.append(training_round(wl, overrides, seed, run_dir))
        del rounds[-1]["trainer"]
        if len(rounds) == 1:  # later rounds add only allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        spent = time.perf_counter() - t_start
        if (len(rounds) >= MIN_ROUNDS
                and spent * (len(rounds) + 1) / len(rounds) > seconds):
            break
    round_checks(checks, rounds)
    digest = rounds[0]["digest"]
    workload_sha = hashlib.sha256(repr(wl).encode()).hexdigest()
    digest_record(checks, f"{name}/seed{seed}/src{machine['src_sha256'][:12]}"
                  f"/workload{workload_sha[:12]}", digest)
    print(f"same-bits reference  {name} seed {seed} env_step "
          f"{rounds[0]['env_step']}  sha256:{digest}")
    attempted = sum(r["counts"][0] for r in rounds)
    failed = sum(r["counts"][1] for r in rounds)
    values = {
        "setup_s": statistics.median(probes),
        **rates(rounds),
        "ckpt_roundtrip_s": (min(t for r in rounds for t in r["saves"])
                             + min(t for r in rounds for t in r["loads"])),
        "peak_rss_mb": peak_rss_mb,
        "ok_share": 1.0 - failed / attempted,
    }
    print(f"rounds {len(rounds)} in {time.perf_counter() - t_start:.1f} s")
    samples = {"setup_s": probes,
               "saves": [r["saves"] for r in rounds],
               "loads": [r["loads"] for r in rounds]}
    for key in ("warm", "rl"):
        samples[f"{key}_wall_s"] = [r[key][-1] - r[key][0] if r[key] else 0.0
                                    for r in rounds]
    samples["eval_wall_s"] = [e[-1] - e[0] for r in rounds for e in r["eval"]]
    return {"metrics": {k: (values[k], unit) for k, unit in END_TO_END},
            "attempted": attempted, "failed": failed, "samples": samples}


def measure_traced(name: str, seed: int, seconds: float, run_dir: Path,
                   checks: Checks) -> dict:
    """Per-layer metrics: untraced and traced rounds alternate until
    `seconds` have passed (two pairs at least).  The layers are reported
    from the last traced round; the overhead compares the RL rates of the
    two kinds of round, each taken as in `measure`."""
    import spans
    wl = WORKLOADS[name]
    overrides = config_overrides(wl, seed, run_dir)
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        plain.append(training_round(wl, overrides, seed, run_dir))
        del plain[-1]["trainer"]
        if traced:
            del traced[-1]["trainer"]
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            traced.append(training_round(wl, overrides, seed, run_dir))
        spent = time.perf_counter() - t_start
        if len(traced) >= 2 and spent * (len(traced) + 1) / len(traced) > seconds:
            break
    round_checks(checks, plain + traced)
    metrics = spans.layer_metrics(tracer, traced[-1]["trainer"])
    gap = abs(metrics["trace.self_sum_s"][0] - tracer.wall_s)
    checks.add("self_times_add_up", gap <= 1e-6 * tracer.wall_s,
               f"self + untraced - wall = {gap:.3g} s")
    untraced_rate = rates(plain)["rl_steps_per_s"]
    traced_rate = rates(traced)["rl_steps_per_s"]
    metrics["trace.rl_steps_per_s_untraced"] = (untraced_rate, "1/s")
    metrics["trace.rl_steps_per_s_traced"] = (traced_rate, "1/s")
    metrics["trace.overhead_share"] = (untraced_rate / traced_rate - 1.0,
                                       "ratio")
    tracer.write_csv(str(OUT / f"spans-{name}-seed{seed}.csv"))
    attempted, failed = traced[-1]["counts"]
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def config_overrides(wl: Workload, seed: int, run_dir: Path) -> dict:
    return {**wl.overrides, "run.seed": seed, "run.out_dir": str(run_dir),
            "run.eval_interval": 10**9}


# ---- entry points ------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    machine = machine_block()
    print(f"hyar benchmark  workload={name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    run_dir = OUT / f"run-{name}-seed{seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True)
    checks = Checks()
    try:
        if trace:
            res = measure_traced(name, seed, seconds, run_dir, checks)
        else:
            res = measure(name, seed, seconds, run_dir, machine, checks)
    except Exception:  # any raise fails the workload; report and exit 1
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for cname, ok, note in checks.items:
        print(f"check  {cname:<26} {'ok' if ok else 'FAILED'}  {note}")
    for mname, (value, unit) in res["metrics"].items():
        print(f"  {mname:<48} {value:>14.6g} {unit}")
    report = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine,
              "checks": checks.items, **res}
    (OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": checks.ok, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()}}))
    return 0 if checks.ok else 1


def run_all(args) -> int:
    """Every workload in its own process; metric names get the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        one = json.loads(lines[-1]) if lines else {}
        if res.returncode != 0 or "correct" not in one:
            combined["correct"] = False
            combined["failed"] += 1
            one = {"attempted": 1, "failed": 0, "metrics": {}}
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hyar" / "__init__.py").is_file():
        print(f"perfbench: no hyar sources at {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
