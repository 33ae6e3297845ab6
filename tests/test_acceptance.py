"""Release acceptance suite: one test per criterion, in order.

Each test prints a single "CRITERION n PASS/FAIL: ..." line with the measured
numbers before asserting, so a verbose run reads as a checklist.  Criteria
1-4 and 8 run their checks inline.  Criteria 5-7 and 9 consume finished
training runs cached under runs_cache/ at the repository root; those runs are
produced by the real CLI via scripts/acceptance_runs.sh (hours of compute) and
each cached run's manifest is verified against the exact required
configuration before its numbers are used.  Missing or mismatched runs fail
loudly; nothing is skipped or synthesized.
"""
from __future__ import annotations

import csv
import math
import os
import time

import numpy as np
import pytest

from hyar import envs
from hyar import numkit as nk
from hyar.agents import AgentConfig, AgentNets, Batch, relabel_batch
from hyar.harness import build_config, evaluate, gradcheck_suite
from hyar.harness.gradcheck import TOLERANCE
from hyar.representation import LatentBounds, ReprModel

from _synth import SyntheticLinear, synth_spec

RUNS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "runs_cache")


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _load_cached_run(name: str, env_id: str, seed: int, steps: int,
                     n: int | None = None, marker: str | None = None) -> float:
    """Final evaluation success of a cached run, after verifying that its
    manifest matches the required configuration key for key."""
    base = os.path.join(RUNS_DIR, name)
    done = os.path.join(RUNS_DIR, (marker or name) + ".done")
    if not (os.path.isfile(done) and os.path.isfile(os.path.join(base, "eval.csv"))):
        pytest.fail(f"cached run {name!r} is missing or unfinished; produce it "
                    "with scripts/acceptance_runs.sh (hours of compute)")
    manifest_path = os.path.join(base, "run-manifest.txt")
    if not os.path.isfile(manifest_path):
        pytest.fail(f"cached run {name!r} has no run-manifest.txt; re-make it "
                    "with scripts/acceptance_runs.sh")
    manifest: dict[str, str] = {}
    with open(manifest_path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, val = line.partition("=")
            if sep:
                manifest[key.strip()] = val.strip()
    overrides: dict = {"env.id": env_id, "run.seed": seed,
                       "run.total_env_steps": steps,
                       "run.out_dir": manifest.get("run.out_dir", "")}
    if n is not None:
        overrides["env.n"] = n
    for expect in build_config(None, overrides).manifest_lines():
        key, _, val = expect.partition(" = ")
        assert manifest.get(key) == val, \
            f"{name}: manifest has {key} = {manifest.get(key)!r}, need {val!r}"
    with open(os.path.join(base, "eval.csv"), encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        pytest.fail(f"cached run {name!r} has no evaluation rows in eval.csv")
    last = rows[-1]
    assert int(last["env_step"]) == steps, \
        f"{name}: last eval at step {last['env_step']}, expected {steps}"
    return float(last["success_rate"])


def _read(name: str, fname: str) -> bytes:
    with open(os.path.join(RUNS_DIR, name, fname), "rb") as fh:
        return fh.read()


def test_criterion_1_gradient_integrity() -> None:
    t0 = time.perf_counter()
    result = gradcheck_suite(samples_per_entry=4, seed=0)
    dt = time.perf_counter() - t0
    worst = result["max"]
    _report(1, worst < TOLERANCE and dt < 60.0,
            f"finite-difference max rel err {worst:.3e} over actor/critics/"
            f"encoder/decoder heads/table (budget 1e-4), {dt:.1f}s (< 60s)")


def test_criterion_2_oracle_equivalences() -> None:
    t0 = time.perf_counter()

    # nn_decode vs exhaustive nearest-row scan, K = 16, 1000 random queries.
    spec = envs.EnvSpec(env_id="synthetic", state_dim=4, num_discrete=16,
                        param_dims=(2,) * 16, horizon=1)
    model = ReprModel(spec, rng=np.random.default_rng(7))
    qrng = np.random.default_rng(8)
    nn_bad = 0
    for _ in range(1000):
        e = qrng.uniform(-1.5, 1.5, size=model.d1)
        best_k, best_d = 0, float("inf")
        for k in range(16):
            d = float(np.sum((model.table[k] - e) ** 2))
            if d < best_d:
                best_k, best_d = k, d
        nn_bad += model.nn_decode(e) != best_k

    # hard_move displacement vs a bit-iterating pure-Python oracle for every
    # mask at n = 1..8, plus the env's own step from the origin on a sample.
    disp_bad = 0
    for n in range(1, 9):
        xrng = np.random.default_rng(100 + n)
        for k in range(2 ** n):
            x = xrng.uniform(-1.0, 1.0, size=n)
            want_dx, want_dy = 0.0, 0.0
            for i in range(n):
                if (k >> i) & 1:
                    ang = 2.0 * math.pi * i / n
                    want_dx += 0.05 * float(x[i]) * math.cos(ang)
                    want_dy += 0.05 * float(x[i]) * math.sin(ang)
            got = envs.displacement(n, k, x)
            if abs(got[0] - want_dx) > 1e-12 or abs(got[1] - want_dy) > 1e-12:
                disp_bad += 1
    env = envs.make("hard_move", n=6)
    erng = np.random.default_rng(9)
    step_bad = 0
    for _ in range(50):
        k = int(erng.integers(2 ** 6))
        x = erng.uniform(-1.0, 1.0, size=6)
        s0 = env.reset(int(erng.integers(2 ** 31)))
        res = env.step(envs.HybridAction(k, x))
        if np.max(np.abs((res.state[:2] - s0[:2])
                         - envs.displacement(6, k, x))) > 1e-12:
            step_bad += 1

    # closed-form standard-normal KL vs Monte Carlo with 1e6 samples.
    krng = np.random.default_rng(10)
    mu = krng.normal(size=3)
    log_std = krng.uniform(-1.0, 0.5, size=3)
    z = mu + np.exp(log_std) * krng.standard_normal(size=(1_000_000, 3))
    var = np.exp(2.0 * log_std)
    log_q = -0.5 * (((z - mu) ** 2) / var + 2.0 * log_std + math.log(2.0 * math.pi))
    log_p = -0.5 * (z ** 2 + math.log(2.0 * math.pi))
    mc = float(np.mean(np.sum(log_q - log_p, axis=1)))
    closed = float(nk.kl_std_normal(mu, log_std))
    kl_err = abs(mc - closed)

    dt = time.perf_counter() - t0
    _report(2, nn_bad == 0 and disp_bad == 0 and step_bad == 0
            and kl_err < 1e-2 and dt < 120.0,
            f"nn_decode mismatches {nn_bad}/1000, displacement mismatches "
            f"{disp_bad} over all masks n<=8, env-step mismatches {step_bad}/50, "
            f"KL closed-vs-MC err {kl_err:.2e} (budget 1e-2), {dt:.1f}s (< 120s)")


def test_criterion_3_invariant_suite() -> None:
    t0 = time.perf_counter()
    spec = synth_spec(state_dim=5, K=12, pdim=3)
    model = ReprModel(spec, rng=np.random.default_rng(21))

    # Embedding roundtrip is exact for every k.
    round_bad = sum(model.nn_decode(model.embed_lookup(k)) != k
                    for k in range(12))

    # LSC nesting on 50 random datasets and the c = 100 min/max identity.
    nest_bad = minmax_bad = 0
    for i in range(50):
        drng = np.random.default_rng(1000 + i)
        m = int(drng.integers(120, 400))
        s = drng.uniform(-1.0, 1.0, size=(m, 5))
        k = drng.integers(12, size=m)
        x = drng.uniform(-1.0, 1.0, size=(m, 3))
        c1, c2 = np.sort(drng.uniform(10.0, 99.5, size=2))
        b1 = model.latent_bounds(s, k, x, c=float(c1))
        b2 = model.latent_bounds(s, k, x, c=float(c2))
        if not (np.all(b2.lower <= b1.lower) and np.all(b1.upper <= b2.upper)):
            nest_bad += 1
        b100 = model.latent_bounds(s, k, x, c=100.0)
        lat = model.latents_of(s, k, x)
        if not (np.array_equal(b100.lower, lat.min(axis=0))
                and np.array_equal(b100.upper, lat.max(axis=0))):
            minmax_bad += 1

    # Post-RSC batches decode to their stored k on 100% of rows.
    brng = np.random.default_rng(31)
    m = 256
    ks = brng.integers(12, size=m)
    batch = Batch(s=brng.uniform(-1, 1, size=(m, 5)), k=ks,
                  x=brng.uniform(-1, 1, size=(m, 3)),
                  e=brng.uniform(-2.0, 2.0, size=(m, model.d1)),
                  z=brng.standard_normal((m, model.d2)),
                  r=np.zeros(m), s_next=brng.uniform(-1, 1, size=(m, 5)),
                  done=np.zeros(m))
    relabeled, _stats = relabel_batch(model, batch, float("inf"), brng)
    rsc_frac = float(np.mean(model.nn_decode_batch(relabeled.e)
                             == np.asarray(ks)))

    # Reconstruction loss invariant to padded dims; exact loss identities.
    uneven = envs.EnvSpec(env_id="synthetic", state_dim=5, num_discrete=4,
                          param_dims=(3, 1, 2, 0), horizon=1)
    pmodel = ReprModel(uneven, rng=np.random.default_rng(41))
    prng = np.random.default_rng(42)
    s = prng.uniform(-1, 1, size=(64, 5))
    k = prng.integers(4, size=64)
    x1 = prng.uniform(-1, 1, size=(64, 3))
    s_next = prng.uniform(-1, 1, size=(64, 5))
    noise = prng.standard_normal((64, pmodel.d2))
    x2 = x1.copy()
    pad = np.arange(3)[None, :] >= np.asarray(uneven.param_dims)[k][:, None]
    x2[pad] = prng.uniform(-9.0, 9.0, size=int(pad.sum()))
    r1 = pmodel.hyar_loss(s, k, x1, s_next, noise=noise)
    r2 = pmodel.hyar_loss(s, k, x2, s_next, noise=noise)
    pad_ok = (r1.recon == r2.recon and r1.kl == r2.kl and r1.dyn == r2.dyn
              and r1.total == r2.total)
    ident_ok = (r1.total == r1.vae + 10.0 * r1.dyn
                and r1.vae == r1.recon + 0.5 * r1.kl)

    dt = time.perf_counter() - t0
    _report(3, round_bad == 0 and nest_bad == 0 and minmax_bad == 0
            and rsc_frac == 1.0 and pad_ok and ident_ok and dt < 60.0,
            f"roundtrip misses {round_bad}/12, nesting violations {nest_bad}/50, "
            f"min/max violations {minmax_bad}/50, post-RSC decode match "
            f"{rsc_frac:.3f} (need 1.0), padding invariance {pad_ok}, "
            f"L_total identity {ident_ok}, {dt:.1f}s (< 60s)")


def test_criterion_4_representation_sanity_synthetic_dynamics() -> None:
    t0 = time.perf_counter()
    spec = synth_spec()
    world = SyntheticLinear(spec, seed=3)
    model = ReprModel(spec, rng=np.random.default_rng(4))
    data_rng = np.random.default_rng(5)
    train_rng = np.random.default_rng(6)
    probe = world.batch(1024, np.random.default_rng(7))
    frozen = np.random.default_rng(8).standard_normal((1024, model.d2))
    before = model.hyar_loss(*probe, noise=frozen)
    for _ in range(5000):
        s, k, x, s_next = world.batch(128, data_rng)
        model.repr_train_batch(s, k, x, s_next, rng=train_rng)
    after = model.hyar_loss(*probe, noise=frozen)
    dt = time.perf_counter() - t0
    _report(4, after.dyn <= 0.1 * before.dyn
            and after.recon <= 0.1 * before.recon and dt < 300.0,
            f"after 5000 batches L_dyn {before.dyn:.3f} -> {after.dyn:.4f} and "
            f"recon {before.recon:.3f} -> {after.recon:.4f} (both need <= 0.1x "
            f"initial), {dt:.0f}s (< 300s)")


def test_criterion_5_platform_learning() -> None:
    finals = [_load_cached_run(f"platform-s{s}", "platform", s, 200_000)
              for s in range(5)]
    mean = float(np.mean(finals))
    _report(5, mean >= 0.85,
            f"platform hyar-td3 5 seeds x 200k steps, final eval success "
            f"{finals}, mean {mean:.3f} (need >= 0.85)")


def test_criterion_6_goal_learning() -> None:
    finals = [_load_cached_run(f"goal-s{s}", "goal", s, 300_000)
              for s in range(5)]
    mean = float(np.mean(finals))
    _report(6, mean >= 0.55,
            f"goal hyar-td3 5 seeds x 300k steps, final eval success "
            f"{finals}, mean {mean:.3f} (need >= 0.55)")


def test_criterion_7_hard_move_scaling() -> None:
    f4 = [_load_cached_run(f"hm4-s{s}", "hard_move", s, 300_000, n=4)
          for s in range(5)]
    f8 = [_load_cached_run(f"hm8-s{s}", "hard_move", s, 300_000, n=8)
          for s in range(5)]
    m4, m8 = float(np.mean(f4)), float(np.mean(f8))
    _report(7, m4 >= 0.5 and m8 >= 0.35 and m8 >= 0.5 * m4,
            f"hard_move 5 seeds x 300k steps: n=4 {f4} mean {m4:.3f} "
            f"(need >= 0.5), n=8 {f8} mean {m8:.3f} (need >= 0.35 and >= "
            f"half of n=4)")


def test_criterion_8_untrained_baselines() -> None:
    t0 = time.perf_counter()
    rates: dict[str, float] = {}
    for env_id in envs.ENV_IDS:
        n = 4 if env_id == "hard_move" else None
        spec = envs.make(env_id, n).spec()
        model = ReprModel(spec, rng=np.random.default_rng(50))
        nets = AgentNets(spec.state_dim, model.d1, model.d2,
                         AgentConfig.td3(), np.random.default_rng(51))
        dim = model.d1 + model.d2
        bounds = LatentBounds(np.full(dim, -1.0), np.full(dim, 1.0), 100.0)
        _ret, succ = evaluate(nets, model, bounds, envs.make(env_id, n),
                              episodes=100, seed=52)
        rates[env_id] = succ
    dt = time.perf_counter() - t0
    worst = max(rates.values())
    _report(8, worst < 0.05 and dt < 300.0,
            f"untrained success per env {rates} (each needs < 0.05 over 100 "
            f"episodes), {dt:.0f}s (< 300s)")


def test_criterion_9_determinism_and_resume() -> None:
    t0 = time.perf_counter()
    for name, marker in (("det-a", None), ("det-c", None),
                         ("det-b", "det-b-full")):
        succ = _load_cached_run(name, "platform", 11, 20_000, marker=marker)
        assert 0.0 <= succ <= 1.0
    rerun_ok = (_read("det-a", "metrics.csv") == _read("det-c", "metrics.csv")
                and _read("det-a", "eval.csv") == _read("det-c", "eval.csv"))
    resume_ok = (_read("det-a", "metrics.csv") == _read("det-b", "metrics.csv")
                 and _read("det-a", "eval.csv") == _read("det-b", "eval.csv"))
    dt = time.perf_counter() - t0
    _report(9, rerun_ok and resume_ok and dt < 600.0,
            f"20k-step platform runs: independent rerun bit-identical "
            f"{rerun_ok}, interrupted-at-10k + resume bit-identical "
            f"{resume_ok} (metrics.csv and eval.csv), {dt:.1f}s (< 600s)")
