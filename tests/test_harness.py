"""Harness: config parsing, warm-up, loop accounting, metrics, resume, CLI."""
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyar
from hyar import cli, numkit as nk
from hyar.cli import main as cli_main
from hyar.errors import ConfigError
from hyar.harness import (METRICS_HEADER, CsvLog, RunConfig, Trainer,
                          build_config, derive_seed, evaluate,
                          parse_config_lines)
from hyar.agents import AgentNets
from hyar.harness.config import KEYS
from hyar.envs import make


def tiny_overrides(out_dir: str, seed: int = 1, total: int = 600) -> dict:
    return {"env.id": "platform", "run.seed": seed,
            "run.total_env_steps": total, "run.warmup_env_steps": 200,
            "run.eval_interval": 200, "run.eval_episodes": 3,
            "repr.pretrain_batches": 30, "run.out_dir": out_dir}


_MEMO: dict = {}


def tiny_run():
    """One cached tiny end-to-end run shared by the read-only assertions."""
    if "run" not in _MEMO:
        out = tempfile.mkdtemp(prefix="hyar-tiny-")
        tr = Trainer(build_config(overrides=tiny_overrides(out)))
        summary = tr.run()
        _MEMO["run"] = (tr, out, summary)
    return _MEMO["run"]


# ---- config ------------------------------------------------------------

def test_warmup_defaults_per_env() -> None:
    assert RunConfig(env_id="platform").warmup() == 5000
    assert RunConfig(env_id="goal").warmup() == 5000
    assert RunConfig(env_id="hard_goal").warmup() == 5000
    assert RunConfig(env_id="catch_point").warmup() == 20000
    assert RunConfig(env_id="hard_move", env_n=4).warmup() == 20000
    assert RunConfig(env_id="platform", warmup_env_steps=777).warmup() == 777


def test_config_text_roundtrip() -> None:
    cfg = build_config(overrides={"env.id": "hard_move", "env.n": 4,
                                  "run.algo": "hyar-ddpg", "run.seed": 9,
                                  "agent.actor_lr": 2e-4})
    again = build_config(parse_config_lines(cfg.config_text().splitlines()))
    assert again.manifest_lines() == cfg.manifest_lines()
    assert again.agent_config() == cfg.agent_config()


def test_config_parse_rejects_garbage() -> None:
    with pytest.raises(ConfigError):
        parse_config_lines(["nonsense.key = 3"])
    with pytest.raises(ConfigError):
        parse_config_lines(["run.seed 3"])
    with pytest.raises(ConfigError):
        build_config(overrides={"run.seed": "abc"})
    parsed = parse_config_lines(["# comment", "", "run.seed = 3"])
    assert parsed == {"run.seed": "3"}


def test_overrides_beat_file_values() -> None:
    cfg = build_config({"run.seed": "3", "run.total_env_steps": "9000"},
                       {"run.seed": 7})
    assert cfg.seed == 7 and cfg.total_env_steps == 9000


def test_config_validation_errors() -> None:
    with pytest.raises(ConfigError):
        build_config(overrides={"env.id": "noop"}).validate()
    with pytest.raises(ConfigError):  # hard_move without n
        build_config(overrides={"env.id": "hard_move"}).validate()
    with pytest.raises(ConfigError):  # warm-up at or past the budget
        build_config(overrides=dict([("run.total_env_steps", 5000)])).validate()
    with pytest.raises(ConfigError):  # warm-up cannot fill one batch
        build_config(overrides={"run.warmup_env_steps": 50}).validate()
    with pytest.raises(ConfigError):
        build_config(overrides={"repr.c": 0.0}).validate()
    with pytest.raises(ConfigError):
        build_config(overrides={"run.algo": "td3"}).validate()


@pytest.mark.parametrize("key,value", [
    ("run.seed", -1), ("run.eval_interval", 0), ("run.eval_episodes", 0),
    ("repr.d1", 0), ("repr.d2", 0), ("repr.lr", 0.0), ("repr.c", 100.5),
    ("repr.beta", -0.1), ("repr.kl_weight", -0.1),
    ("repr.pretrain_batches", -1), ("repr.batch", 0),
    ("repr.every_episodes", 0), ("repr.ema_decay", 0.0),
    ("repr.ema_decay", 1.0), ("agent.buffer_capacity", 127)])
def test_every_run_config_bound_is_checked(key, value) -> None:
    with pytest.raises(ConfigError):
        build_config(overrides={key: value}).validate()


@pytest.mark.parametrize("key,value", [
    ("run.seed", 0), ("repr.beta", 0.0), ("repr.c", 100.0),
    ("repr.pretrain_batches", 0), ("agent.buffer_capacity", 128),
    ("run.eval_interval", 1), ("run.eval_episodes", 1), ("repr.d1", 1),
    ("repr.d2", 1), ("repr.kl_weight", 0.0), ("repr.batch", 1),
    ("repr.every_episodes", 1), ("agent.tau_actor", 1.0),
    ("agent.tau_critic", 1.0)])
def test_run_config_boundary_values_validate(key, value) -> None:
    build_config(overrides={key: value}).validate()


@pytest.mark.parametrize("key", ["agent.tau_actor", "agent.tau_critic"])
def test_tau_above_one_exits_2(tmp_path, key) -> None:
    """Polyak averaging needs tau in (0, 1]: 1.5 is a config error, from
    Python and from a config file alike, and nothing is written."""
    with pytest.raises(ConfigError, match=key.split(".")[1]):
        build_config(overrides={key: 1.5}).validate()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = 1.5\n")
    out = tmp_path / "never"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out)


@pytest.mark.parametrize("n", [0, 13])
def test_hard_move_n_out_of_range_is_a_config_error(n) -> None:
    with pytest.raises(ConfigError, match="1 <= n <= 12"):
        build_config(overrides={"env.id": "hard_move", "env.n": n}).validate()


@pytest.mark.parametrize("key,value", [
    ("agent.actor_lr", "nan"), ("agent.critic_lr", "inf"),
    ("agent.expl_sigma", "inf"), ("agent.rsc_noise", "nan"),
    ("agent.target_noise", "nan"), ("agent.rsc_threshold_mult", "inf"),
    ("repr.lr", "nan"), ("repr.beta", "nan"), ("repr.kl_weight", "inf")])
def test_nonfinite_config_float_exits_2(tmp_path, key, value) -> None:
    with pytest.raises(ConfigError):
        build_config(overrides={key: value}).validate()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {value}\n")
    out = tmp_path / "never"
    assert cli_main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert not os.path.exists(out)


def test_algo_picks_agent_preset() -> None:
    td3 = build_config(overrides={"run.algo": "hyar-td3"}).agent_config()
    assert td3.num_critics == 2 and td3.actor_lr == 3e-4
    ddpg = build_config(overrides={"run.algo": "hyar-ddpg"}).agent_config()
    assert ddpg.num_critics == 1 and ddpg.critic_lr == 1e-3
    tweaked = build_config(overrides={"run.algo": "hyar-ddpg",
                                      "agent.critic_lr": 5e-4}).agent_config()
    assert tweaked.critic_lr == 5e-4 and tweaked.actor_lr == 1e-4


def test_typed_overrides_take_the_file_parse_path(tmp_path) -> None:
    """A typed override is read as the same value in a file would be, so a
    run that trains can also be evaluated from its embedded config."""
    for bad in ({"run.seed": 1.5}, {"agent.batch_size": 128.0}):
        with pytest.raises(ConfigError):
            build_config(overrides=bad)
    assert cli_main(["train", "--algo", "td3",
                     "--out", str(tmp_path / "never")]) == 2
    assert not os.path.exists(tmp_path / "never")
    cfg = build_config(overrides={"env.n": 8, "agent.actor_lr": 2e-4})
    assert cfg.env_n == 8 and cfg.agent_config().actor_lr == 2e-4
    preset = build_config({"agent.gamma": "0.9"},
                          {"agent.gamma": "none"}).agent_config()
    assert preset == RunConfig().agent_config()


def test_manifest_order_matches_committed_det_a() -> None:
    """KEYS, with the agent.* keys in AgentConfig field order, fixes the
    manifest order of runs already on disk."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "runs_cache",
                        "det-a", "run-manifest.txt")
    with open(path, encoding="utf-8") as fh:
        committed = fh.read().splitlines()
    cfg = build_config(overrides={"env.id": "platform", "run.seed": "11",
                                  "run.total_env_steps": "20000",
                                  "run.out_dir": "runs_cache/det-a"})
    assert len(KEYS) == 33
    assert cfg.manifest_lines() == committed[:33]


def test_derive_seed_is_stable() -> None:
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert derive_seed(0) != derive_seed(1)


# ---- csv log -----------------------------------------------------------

def test_csvlog_repr_floats_and_resume(tmp_path) -> None:
    p = str(tmp_path / "m.csv")
    log = CsvLog(p, "a,b")
    log.row([3, 0.1])
    log.close()
    log = CsvLog(p, "a,b", resume=True)
    log.row([4, float("nan")])
    log.close()
    text = open(p).read().splitlines()
    assert text == ["a,b", "3,0.1", "4,nan"]
    fresh = CsvLog(p, "a,b")  # no resume: truncates
    fresh.close()
    assert open(p).read() == "a,b\n"


def test_csvlog_resume_cuts_rows_past_checkpoint(tmp_path) -> None:
    p = str(tmp_path / "m.csv")
    with open(p, "w") as fh:
        fh.write("env_step,v\n200,0.1\n400,0.2\n600,0.3\n80")  # torn tail
    log = CsvLog(p, "env_step,v", resume=True, upto=400)
    log.row([600, 0.5])
    log.close()
    assert open(p).read() == "env_step,v\n200,0.1\n400,0.2\n600,0.5\n"
    with open(p, "w") as fh:
        fh.write("env_step,v\n200,0.1\nxx,0.2\n")
    with pytest.raises(OSError):
        CsvLog(p, "env_step,v", resume=True, upto=400)


# ---- warm-up stage -----------------------------------------------------

def test_warmup_fills_buffer_and_bounds() -> None:
    tr = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-w")))
    tr.warmup_stage()
    assert tr.warmed_up
    assert tr.env_step >= 200
    assert tr.buffer.size == tr.env_step
    n = tr.buffer.size
    assert np.all(np.abs(tr.buffer.x[:n]) <= 1.0)
    assert tr.bounds is not None and not np.isnan(tr.moving_dyn)
    assert tr.bounds_refreshes == 1
    assert np.all(tr.bounds.lower <= tr.bounds.upper)


def test_warmup_deterministic() -> None:
    a = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-a")))
    b = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-b")))
    a.warmup_stage()
    b.warmup_stage()
    n = a.buffer.size
    assert n == b.buffer.size
    assert np.array_equal(a.buffer.s[:n], b.buffer.s[:n])
    assert np.array_equal(a.buffer.z[:n], b.buffer.z[:n])
    assert np.array_equal(a.model.params.flat, b.model.params.flat)
    assert np.array_equal(a.bounds.lower, b.bounds.lower)


def test_warmup_encodes_in_blocks_after_collection(monkeypatch) -> None:
    """No encode call while collecting; then ceil(n / ENCODE_BLOCK) calls
    over the stored rows, then the bounds refresh's one call."""
    import hyar.harness.loop as loop
    monkeypatch.setattr(loop, "ENCODE_BLOCK", 64)
    tr = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-e")))
    calls, encodes_at_step = [], []
    encode, step = tr.model.encode, tr.env.step
    tr.model.encode = lambda s, k, x: calls.append(len(s)) or encode(s, k, x)
    tr.env.step = lambda a: encodes_at_step.append(len(calls)) or step(a)
    tr.warmup_stage()
    n = tr.buffer.size
    blocks = -(-n // 64)
    assert n > 3 * 64 and encodes_at_step == [0] * n
    assert calls == [64] * (blocks - 1) + [n - 64 * (blocks - 1), n]


def test_warmup_latents_are_table_rows_and_block_samples(monkeypatch) -> None:
    """After collection, e is the table row of k exactly, and z is
    mu + exp(log_std) * eps of each block's encode call, with eps one
    (n, d2) block drawn from the stream."""
    import hyar.harness.loop as loop
    monkeypatch.setattr(loop, "ENCODE_BLOCK", 64)
    tr = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-f")))
    tr._collect_random()
    buf, n = tr.buffer, tr.buffer.size
    table = tr.model.table.copy()
    twin = np.random.default_rng()
    twin.bit_generator.state = tr.stream.bit_generator.state
    tr._encode_warmup()
    assert np.array_equal(buf.e[:n], table[buf.k[:n]])
    eps = twin.standard_normal((n, tr.cfg.d2))
    for i in range(0, n, 64):
        j = slice(i, min(i + 64, n))
        mu, ls = tr.model.encode(buf.s[j], buf.k[j], buf.x[j])
        z = (mu + np.exp(ls) * eps[j]).astype(buf.z.dtype)
        assert np.array_equal(buf.z[j], z)
    assert tr.stream.bit_generator.state == twin.bit_generator.state


def test_training_keeps_every_gradient_in_its_vars_dtype(monkeypatch) -> None:
    """No float64 value leaks into a float32 training graph: over warm-up,
    pre-training, RL steps with relabelling and bounds refreshes, every
    gradient the tape accumulates has the dtype of the Var it lands on
    (0-d losses are float64 by design, and so are their adjoints)."""
    import hyar.harness.loop as loop
    import hyar.numkit.tape as tape
    seen, leaks, relabels = [0], [], []
    acc = tape._acc

    def guarded(v, g):
        seen[0] += 1
        if np.asarray(g).dtype != np.asarray(v.data).dtype:
            leaks.append((np.asarray(g).dtype, np.asarray(v.data).dtype,
                          np.shape(v.data)))
        acc(v, g)

    relabel = loop.relabel_batch

    def counted(*args, **kwargs):
        batch, stats = relabel(*args, **kwargs)
        relabels.append(stats)
        return batch, stats

    monkeypatch.setattr(tape, "_acc", guarded)
    monkeypatch.setattr(loop, "relabel_batch", counted)
    tr = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-d")))
    tr.warmup_stage()
    while tr.env_step < 500:
        tr._training_episode()
    assert tr.nets.actor_updates > 0 and tr.bounds_refreshes > 1
    assert sum(r.discrete_relabeled + r.continuous_relabeled
               for r in relabels) > 0
    assert seen[0] > 0 and leaks == [], leaks[:5]
    f32 = np.dtype(np.float32)
    for arr in (tr.model.params.flat, tr.model.params.grad, tr.model.opt.m,
                tr.model.mask_table, tr.nets.actor.grad, tr.nets.opt_actor.v,
                tr.nets.target_critic.flat, tr.buffer.s, tr.buffer.r,
                tr.buffer.done, tr.bounds.lower):
        assert arr.dtype == f32


# ---- training loop accounting ------------------------------------------

def test_update_and_refresh_accounting() -> None:
    tr = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-c")))
    tr.warmup_stage()
    w0 = tr.env_step
    ep0 = tr.episode
    while tr.env_step < 600:
        tr._training_episode()
    rl_steps = tr.env_step - w0
    assert tr.nets.critic_updates == rl_steps  # buffer was already full
    assert tr.nets.actor_updates == rl_steps // tr.acfg.policy_delay
    train_eps = tr.episode - ep0
    assert tr.bounds_refreshes == 1 + train_eps // 10
    assert tr.rsc_total == rl_steps * tr.acfg.batch_size
    assert 0 <= tr.rsc_in_bounds <= tr.rsc_total


def test_every_number_a_fresh_trainer_holds_is_a_declared_counter() -> None:
    """Each int or float attribute of a fresh Trainer is in COUNTS, at its
    start value, or in FLOATS, NaN; AgentNets' are its COUNTS (beside its
    latent widths d1 and d2)."""
    tr = Trainer(build_config(overrides=tiny_overrides("/tmp/unused-n")))
    numbers = {a for a, v in vars(tr).items() if isinstance(v, (int, float))}
    assert numbers == set(Trainer.COUNTS) | set(Trainer.FLOATS)
    assert {a: getattr(tr, a) for a in Trainer.COUNTS} == Trainer.COUNTS
    assert all(np.isnan(getattr(tr, a)) for a in Trainer.FLOATS)
    nets = {a: v for a, v in vars(tr.nets).items()
            if isinstance(v, (int, float)) and a not in ("d1", "d2")}
    assert nets == AgentNets.COUNTS
    assert not tr.warmed_up


def test_run_outputs_and_metrics_marks() -> None:
    tr, out, summary = tiny_run()
    for name in ("metrics.csv", "eval.csv", "final.ckpt", "run-manifest.txt"):
        assert os.path.exists(os.path.join(out, name))
    lines = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert lines[0] == METRICS_HEADER
    steps = [int(row.split(",")[0]) for row in lines[1:]]
    assert steps == [400, 600]  # every interval mark past warm-up
    for row in lines[1:]:
        assert len(row.split(",")) == 9
    ev = open(os.path.join(out, "eval.csv")).read().splitlines()
    assert [int(r.split(",")[0]) for r in ev[1:]] == [400, 600]
    assert summary["success_rate"] == float(ev[-1].split(",")[2])


def test_manifest_lists_every_key_and_hash() -> None:
    tr, out, summary = tiny_run()
    text = open(os.path.join(out, "run-manifest.txt")).read()
    for key in KEYS:
        assert f"{key} = " in text
    sha = nk.git_blob_sha1(os.path.join(out, "final.ckpt"))
    assert f"checkpoint_sha1 = {sha}" in text
    assert "checkpoint_format = HYAR-CKPT-3\n" in text
    assert "numeric_policy = float32\n" in text
    assert summary["checkpoint_sha1"] == sha


def test_manifest_records_the_source_hash() -> None:
    """src_sha256 is the sha256 over every *.py file under the directory
    that holds hyar, in sorted order, each as its relative path, a NUL byte
    and its bytes (recomputed here by walking that directory)."""
    _tr, out, _summary = tiny_run()
    root = os.path.dirname(os.path.dirname(os.path.abspath(hyar.__file__)))
    rels = [os.path.relpath(os.path.join(d, f), root)
            for d, _dirs, files in os.walk(root)
            for f in files if f.endswith(".py")]
    digest = hashlib.sha256()
    for rel in sorted(rels, key=lambda r: r.split(os.sep)):
        with open(os.path.join(root, rel), "rb") as fh:
            digest.update(rel.encode() + b"\0" + fh.read())
    lines = open(os.path.join(out, "run-manifest.txt")).read().splitlines()
    assert lines[-1] == f"src_sha256 = {digest.hexdigest()}"


def test_evaluate_contract() -> None:
    tr, _out, _summary = tiny_run()
    env = make("platform")
    with pytest.raises(ValueError):
        evaluate(tr.nets, tr.model, tr.bounds, env, 0, 1)
    r1 = evaluate(tr.nets, tr.model, tr.bounds, env, 3, seed=11)
    r2 = evaluate(tr.nets, tr.model, tr.bounds, make("platform"), 3, seed=11)
    assert r1 == r2
    assert 0.0 <= r1[1] <= 1.0


# ---- checkpoint and resume ---------------------------------------------

def test_trainer_checkpoint_roundtrip(tmp_path) -> None:
    tr, _out, _summary = tiny_run()
    path = str(tmp_path / "t.ckpt")
    tr.save_checkpoint(path)
    back = Trainer.from_checkpoint(path)
    assert np.array_equal(back.model.params.flat, tr.model.params.flat)
    assert np.array_equal(back.nets.actor.flat, tr.nets.actor.flat)
    assert np.array_equal(back.nets.critic.flat, tr.nets.critic.flat)
    n = tr.buffer.size
    assert back.buffer.size == n and back.buffer.cursor == tr.buffer.cursor
    assert np.array_equal(back.buffer.s[:n], tr.buffer.s[:n])
    assert np.array_equal(back.bounds.lower, tr.bounds.lower)
    assert back.env_step == tr.env_step and back.episode == tr.episode
    assert back.eval_index == tr.eval_index
    assert back.moving_dyn == tr.moving_dyn
    assert list(back.ma_returns) == list(tr.ma_returns)
    # the stream generator continues identically
    assert (back.stream.standard_normal(4).tolist()
            == tr.stream.standard_normal(4).tolist())

    # every declared counter, set to a value no tiny run gives it, comes
    # back; then save, load, save again gives the same file, so no piece of
    # the run state is dropped
    ddpg = Trainer(build_config(overrides={
        **tiny_overrides(str(tmp_path / "ddpg"), total=400),
        "run.algo": "hyar-ddpg"}))
    ddpg.run()
    counters = ([(ddpg, a) for a in [*Trainer.COUNTS, *Trainer.FLOATS]]
                + [(ddpg.nets, a) for a in AgentNets.COUNTS])
    for i, (owner, a) in enumerate(counters):
        setattr(owner, a, i + 0.25 if a in Trainer.FLOATS else 1000 + i)
    first, again = str(tmp_path / "first.ckpt"), str(tmp_path / "again.ckpt")
    ddpg.save_checkpoint(first)
    back = Trainer.from_checkpoint(first)
    for owner, a in counters:
        loaded = getattr(back.nets if owner is ddpg.nets else back, a)
        assert loaded == getattr(owner, a), a
        assert type(loaded) is type(getattr(owner, a)), a
    for trainer in (tr, ddpg):
        trainer.save_checkpoint(first)
        Trainer.from_checkpoint(first).save_checkpoint(again)
        entries = nk.load_checkpoint(first)
        assert len(entries) == 74  # one critic.* stack for TD3 and DDPG
        n = trainer.nets.config.num_critics
        assert entries["critic.W0"].shape[0] == n
        assert entries["target_critic.b2"].shape == (n, 1)
        assert entries["state.scalars"].shape == (15,)
        assert entries["state.acc"].shape == (10,)
        assert open(first, "rb").read() == open(again, "rb").read()


def test_resume_matches_uninterrupted(tmp_path) -> None:
    full = str(tmp_path / "full")
    half = str(tmp_path / "half")
    Trainer(build_config(overrides=tiny_overrides(full, seed=5))).run()
    Trainer(build_config(overrides=tiny_overrides(half, seed=5,
                                                  total=400))).run()
    resumed = Trainer.from_checkpoint(os.path.join(half, "final.ckpt"),
                                      {"run.total_env_steps": 600})
    resumed.run()
    for name in ("metrics.csv", "eval.csv"):
        a = open(os.path.join(full, name), "rb").read()
        b = open(os.path.join(half, name), "rb").read()
        assert a == b, name


def test_resume_after_killed_resume_matches_uninterrupted(tmp_path) -> None:
    """A resume that logged evals past its checkpoint and then died must not
    leave those rows behind for the next resume from the same checkpoint."""
    full = str(tmp_path / "full")
    part = str(tmp_path / "part")
    Trainer(build_config(overrides=tiny_overrides(full, seed=5,
                                                  total=800))).run()
    Trainer(build_config(overrides=tiny_overrides(part, seed=5,
                                                  total=400))).run()
    ckpt = os.path.join(part, "at400.ckpt")  # a resume writes next to it
    shutil.copyfile(os.path.join(part, "final.ckpt"), ckpt)
    Trainer.from_checkpoint(ckpt, {"run.total_env_steps": 600}).run()
    Trainer.from_checkpoint(ckpt, {"run.total_env_steps": 800}).run()
    for name in ("metrics.csv", "eval.csv"):
        a = open(os.path.join(full, name), "rb").read()
        b = open(os.path.join(part, name), "rb").read()
        assert a == b, name


def test_resume_refuses_overrides_that_change_the_run(tmp_path) -> None:
    """A resume may only raise its step budget, in the run's own directory;
    any other key, a lower budget, or a config file exits 2 and writes
    nothing."""
    out = str(tmp_path / "run")
    Trainer(build_config(overrides=tiny_overrides(out, total=400))).run()
    ckpt = os.path.join(out, "final.ckpt")
    files = sorted(os.listdir(out))
    before = {name: open(os.path.join(out, name), "rb").read()
              for name in files}
    cfg = tmp_path / "other.cfg"
    cfg.write_text("run.seed = 9\n")
    resumed = str(tmp_path / "resumed")
    for flags in (["--algo", "hyar-ddpg"], ["--seed", "9"], ["--env", "goal"],
                  ["--n", "4"], ["--config", str(cfg)], ["--out", resumed],
                  ["--steps", "300"]):
        steps = [] if "--steps" in flags else ["--steps", "800"]
        assert cli_main(["train", "--resume", ckpt, *steps, *flags]) == 2, flags
        assert not os.path.exists(resumed)
        assert sorted(os.listdir(out)) == files
        for name in files:
            assert open(os.path.join(out, name), "rb").read() == before[name]
    with pytest.raises(ConfigError):  # refused before the file is opened
        Trainer.from_checkpoint(str(tmp_path / "nope.ckpt"), {"run.seed": 9})
    # the same budget again is a no-op resume in the run's own directory
    assert cli_main(["train", "--resume", ckpt, "--steps", "400"]) == 0
    assert open(ckpt, "rb").read() == before["final.ckpt"]


def test_resume_writes_next_to_its_checkpoint(tmp_path, monkeypatch) -> None:
    """A run with a relative run.out_dir, resumed from another directory,
    continues in the checkpoint's directory as if never interrupted."""
    dirs = {name: tmp_path / name for name in ("a", "b", "c")}
    for d in dirs.values():
        d.mkdir()
    monkeypatch.chdir(dirs["c"])
    Trainer(build_config(overrides=tiny_overrides("p0", seed=5,
                                                  total=800))).run()
    monkeypatch.chdir(dirs["a"])
    Trainer(build_config(overrides=tiny_overrides("p0", seed=5,
                                                  total=400))).run()
    monkeypatch.chdir(dirs["b"])
    ckpt = os.path.join("..", "a", "p0", "final.ckpt")
    assert cli_main(["train", "--resume", ckpt, "--steps", "800"]) == 0
    assert not (dirs["b"] / "p0").exists()
    for name in ("metrics.csv", "eval.csv"):
        assert ((dirs["a"] / "p0" / name).read_bytes()
                == (dirs["c"] / "p0" / name).read_bytes()), name


def test_api_resume_writes_next_to_its_checkpoint(tmp_path,
                                                 monkeypatch) -> None:
    """Trainer.from_checkpoint, with no CLI around it, continues a run with
    a relative run.out_dir in the checkpoint's directory."""
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
    monkeypatch.chdir(tmp_path / "a")
    Trainer(build_config(overrides=tiny_overrides("p0", seed=5,
                                                  total=400))).run()
    monkeypatch.chdir(tmp_path / "b")
    tr = Trainer.from_checkpoint(os.path.join("..", "a", "p0", "final.ckpt"),
                                 {"run.total_env_steps": 600})
    assert tr.cfg.out_dir == "p0"  # the embedded config is kept as it is
    tr.run()
    assert not (tmp_path / "b" / "p0").exists()
    rows = (tmp_path / "a" / "p0" / "eval.csv").read_text().splitlines()
    assert [int(r.split(",")[0]) for r in rows[1:]] == [400, 600]


def test_env_n_is_refused_for_an_env_without_actuators(tmp_path) -> None:
    """env.n belongs to hard_move: given to another env it is a config
    error (exit 2), not silently ignored, and nothing is written."""
    with pytest.raises(ConfigError, match="env.n"):
        build_config(overrides={"env.id": "platform", "env.n": 8}).validate()
    out = tmp_path / "never"
    assert cli_main(["train", "--env", "platform", "--n", "8",
                     "--out", str(out)]) == 2
    assert not out.exists()


def test_rerun_bit_identical(tmp_path) -> None:
    outs = [str(tmp_path / d) for d in ("r1", "r2")]
    for out in outs:
        Trainer(build_config(overrides=tiny_overrides(out, seed=3,
                                                      total=400))).run()
    a = open(os.path.join(outs[0], "metrics.csv"), "rb").read()
    b = open(os.path.join(outs[1], "metrics.csv"), "rb").read()
    assert a == b


# ---- CLI ---------------------------------------------------------------

def _tiny_cfg(tmp_path) -> str:
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("run.warmup_env_steps = 200\nrun.eval_interval = 200\n"
                   "run.eval_episodes = 2\nrepr.pretrain_batches = 20\n")
    return str(cfg)


def test_cli_train_and_exit_codes(tmp_path, capsys) -> None:
    out = str(tmp_path / "cli-run")
    code = cli_main(["train", "--env", "platform", "--seed", "2",
                     "--steps", "400", "--config", _tiny_cfg(tmp_path),
                     "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "final.ckpt"))
    captured = capsys.readouterr().out
    assert "success_rate" in captured and "checkpoint_sha1" in captured

    assert cli_main(["train", "--env", "bogus", "--out", str(tmp_path)]) == 2
    assert cli_main(["train", "--config", str(tmp_path / "nope.cfg")]) == 4
    assert cli_main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"),
                     "--episodes", "1", "--seed", "0"]) == 4
    ckpt = os.path.join(out, "final.ckpt")
    assert cli_main(["eval", "--ckpt", ckpt, "--episodes", "0",
                     "--seed", "0"]) == 2
    assert cli_main(["eval", "--ckpt", ckpt, "--episodes", "2",
                     "--seed", "0"]) == 0
    latents = str(tmp_path / "lat.csv")
    assert cli_main(["export-latents", "--ckpt", ckpt, "--out", latents]) == 0
    header = open(latents).readline().strip()
    assert header.endswith("k,dyn_error")


def test_cli_train_prints_progress_at_each_eval(tmp_path, capsys) -> None:
    out = str(tmp_path / "run")
    code = cli_main(["train", "--env", "platform", "--seed", "2",
                     "--steps", "600", "--out", out, "--config",
                     _tiny_cfg(tmp_path)])
    assert code == 0
    lines = capsys.readouterr().err.splitlines()
    progress = [ln for ln in lines if ln.startswith("progress: ")]
    rows = open(os.path.join(out, "eval.csv")).read().splitlines()[1:]
    assert len(progress) == len(rows) == 2
    for line, row in zip(progress, rows):
        assert f"step {row.split(',')[0]}/600," in line
        assert "RL steps/s" in line and "eta" in line


# the variables that fix glibc's malloc thresholds at the values hyar sets
MALLOC_VARS = {"MALLOC_TRIM_THRESHOLD_": "67108864",
               "MALLOC_MMAP_THRESHOLD_": "33554432"}
# Measured on a hard_move n=8 run of 300 warm-up and 300 RL steps: without
# the variables hyar train faulted 1.01x as often as with them, where a
# process leaving the thresholds dynamic faulted 10.8x as often.
FAULT_RATIO_MAX = 1.25


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_cli_train_faults_alike_without_malloc_variables(tmp_path) -> None:
    import resource  # POSIX only
    cfg = tmp_path / "hm8.cfg"
    cfg.write_text("env.id = hard_move\nenv.n = 8\nrun.seed = 1\n"
                   "run.total_env_steps = 600\nrun.warmup_env_steps = 300\n"
                   "run.eval_interval = 100000\nrepr.pretrain_batches = 20\n")
    src = os.path.dirname(os.path.dirname(hyar.__file__))
    base = {k: v for k, v in os.environ.items() if k not in MALLOC_VARS}
    base.update(PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    faults = []
    for env in ({**base, **MALLOC_VARS}, base):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "hyar.cli", "train", "--config",
                        str(cfg), "--out", str(tmp_path / f"r{len(faults)}")],
                       env=env, check=True, capture_output=True, timeout=600)
        faults.append(resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
                      - before)
    assert faults[1] <= FAULT_RATIO_MAX * faults[0], faults


def test_cli_gradcheck_failure_exits_3(monkeypatch, capsys) -> None:
    monkeypatch.setattr(cli, "TOLERANCE", 0.0)
    assert cli_main(["gradcheck", "--samples", "1"]) == 3
    assert "numeric fault: gradient check failed" in capsys.readouterr().err


# ---- malformed checkpoints ---------------------------------------------

def _entries_edit(edit):
    """Corrupt a checkpoint by editing its loaded entries and re-saving."""
    def apply(src: str, dst: str) -> None:
        entries = nk.load_checkpoint(src)
        edit(entries)
        nk.save_checkpoint(dst, entries)
    return apply


def _layout_edit(edit):
    """Corrupt a checkpoint by replacing its JSON layout line with
    edit(line); the magic line and the blob stay."""
    def apply(src: str, dst: str) -> None:
        with open(src, "rb") as fh:
            magic, layout, blob = fh.read().split(b"\n", 2)
        with open(dst, "wb") as fh:
            fh.write(b"\n".join([magic, edit(layout), blob]))
    return apply


def _rows_edit(edit):
    """_layout_edit on the parsed layout: its rows become edit(rows)."""
    return _layout_edit(
        lambda line: json.dumps(edit(json.loads(line))).encode("utf-8"))


def _first_row(field: int, value):
    """Set one field (0 name, 1 dtype, 2 shape) of the first layout row."""
    def edit(rows: list) -> list:
        rows[0][field] = value
        return rows
    return _rows_edit(edit)


def _as_text_manifest(tag: str):
    """Rewrite a checkpoint in an older text-manifest layout: HYAR-CKPT-2
    lists each entry with its f4/f8 dtype, HYAR-CKPT-1 with none, every
    value float64."""
    def apply(src: str, dst: str) -> None:
        entries = nk.load_checkpoint(src)
        lines, blob = [tag, f"entries {len(entries)}"], b""
        for name, v in entries.items():
            a = np.asarray(v, dtype="<f8")
            shape = "x".join(map(str, a.shape)) or "0d"
            dtype = " f8" if tag == "HYAR-CKPT-2" else ""
            lines.append(f"{name} {shape} {len(blob)} {a.size}{dtype}")
            blob += a.tobytes()
        lines.append(f"blob {len(blob)}")
        with open(dst, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8") + blob)
    return apply


def _poke(name: str, value: float):
    """Set the first value of entry `name` to value."""
    def edit(d: dict) -> None:
        d[name] = d[name].copy()
        d[name].flat[0] = value
    return _entries_edit(edit)


def _rng_word(d: dict) -> np.ndarray:
    """The stream generator's state text with an out-of-range state word."""
    state = json.loads(bytes(d["rng.stream"]).decode())
    state["has_uint32"] = 10**30
    return np.frombuffer(json.dumps(state).encode(), np.uint8)


def _set(name: str, value):
    """Replace entry `name` by value, or by value(entries) if callable."""
    return _entries_edit(lambda d: d.__setitem__(
        name, value(d) if callable(value) else value))


def _config_line(line: str):
    """Append one line to the embedded config text; of two lines with the
    same key, the later one wins."""
    return _set("config", lambda d: np.frombuffer(
        bytes(d["config"]) + line.encode("utf-8") + b"\n", np.uint8))


CAPACITY = RunConfig().agent_config().buffer_capacity


@pytest.mark.parametrize("corrupt", [
    pytest.param(_entries_edit(lambda d: d.pop("actor.W0")), id="missing-entry"),
    pytest.param(_set("actor.W0", np.zeros((3, 3))), id="wrong-shape"),
    pytest.param(_set("actor.W0", lambda d: d["actor.W0"][:1]),
                 id="broadcastable-shape"),
    pytest.param(_layout_edit(lambda line: line[:-1]), id="layout-not-json"),
    pytest.param(_rows_edit(lambda rows: {r[0]: r[1:] for r in rows}),
                 id="layout-not-a-list"),
    pytest.param(_rows_edit(lambda rows: [rows[0][:2]] + rows[1:]),
                 id="row-not-triple"),
    # the first entry is repr.table, shape [3, 6]: each bad shape below
    # still has 18 values, so only the dim check refuses it
    pytest.param(_first_row(2, [3, 6.0]), id="dim-integral-float"),
    pytest.param(_first_row(2, [True, 18]), id="dim-bool"),
    pytest.param(_first_row(2, [-3, -6]), id="negative-dim"),
    pytest.param(_first_row(2, [3, 6.5]), id="dim-not-int"),
    pytest.param(_first_row(1, "<f2"), id="unknown-dtype"),
    pytest.param(_rows_edit(lambda rows: rows + [["extra", "<f8", [1]]]),
                 id="entry-past-blob"),
    pytest.param(_rows_edit(lambda rows: rows[:-1]),
                 id="blob-longer-than-layout"),
    pytest.param(_as_text_manifest("HYAR-CKPT-1"), id="ckpt1-format"),
    pytest.param(_set("buffer.cursor", np.float64(CAPACITY)), id="cursor-at-capacity"),
    pytest.param(_set("buffer.cursor", np.float64(-1.0)), id="cursor-negative"),
    pytest.param(_set("buffer.cursor", np.float64(2.5)), id="cursor-not-int"),
    pytest.param(_set("buffer.cursor", lambda d: np.float64(
        d["buffer.s"].shape[0] - 100)), id="cursor-behind-size"),
    pytest.param(_set("repr_opt.t", np.float64(np.nan)), id="adam-step-nan"),
    pytest.param(_set("state.scalars", np.zeros(3)), id="scalars-short"),
    pytest.param(_set("bounds.lower", lambda d: d["bounds.upper"] + 1.0),
                 id="bounds-inverted"),
    pytest.param(_set("bounds.lower", lambda d: np.r_[np.nan,
                                                      d["bounds.lower"][1:]]),
                 id="bounds-nan"),
    pytest.param(_set("bounds.upper", lambda d: np.r_[np.inf,
                                                      d["bounds.upper"][1:]]),
                 id="bounds-inf"),
    # a checkpoint of another bits epoch, or of none, is a run of other code
    pytest.param(_entries_edit(lambda d: d.pop("bits_epoch")),
                 id="bits-epoch-missing"),
    pytest.param(_set("bits_epoch", np.float64(nk.BITS_EPOCH - 1)),
                 id="bits-epoch-older"),
    pytest.param(_set("bits_epoch", np.float64(np.nan)), id="bits-epoch-nan"),
    pytest.param(_set("buffer.k", lambda d: np.r_[-1.0, d["buffer.k"][1:]]),
                 id="k-negative"),
    pytest.param(_set("buffer.k", lambda d: np.r_[999.0, d["buffer.k"][1:]]),
                 id="k-past-num-discrete"),
    pytest.param(_poke("actor.W0", np.nan), id="actor-weight-nan"),
    pytest.param(_poke("opt_actor.m", np.inf), id="opt-moment-inf"),
    pytest.param(_poke("buffer.s", np.nan), id="buffer-s-nan"),
    # text is bytes: the same text stored as f8 values is refused
    pytest.param(_set("config", lambda d: d["config"].astype(np.float64)),
                 id="config-stored-as-f8"),
    pytest.param(_set("rng.stream",
                      lambda d: d["rng.stream"].astype(np.float64)),
                 id="rng-stored-as-f8"),
    pytest.param(_set("rng.stream", _rng_word), id="rng-word-overflow"),
    # the embedded config is part of the checkpoint: a bad one is malformed
    pytest.param(_config_line("run.nosuch = 1"), id="config-unknown-key"),
    pytest.param(_config_line("run.seed = x"), id="config-seed-not-int"),
    pytest.param(_config_line("repr.d1 = 0"), id="config-d1-zero"),
    pytest.param(_config_line("env.id = nosuch"), id="config-unknown-env"),
])
def test_cli_eval_malformed_checkpoint_exits_4(tmp_path, capsys, corrupt) -> None:
    """Every malformed checkpoint is an I/O error (exit 4), never a traceback
    or a config error."""
    _tr, out, _summary = tiny_run()
    bad = str(tmp_path / "bad.ckpt")
    corrupt(os.path.join(out, "final.ckpt"), bad)
    assert cli_main(["eval", "--ckpt", bad, "--episodes", "1",
                     "--seed", "0"]) == 4
    assert "io error" in capsys.readouterr().err


def test_cli_eval_ckpt2_file_exits_4_naming_its_tag(tmp_path, capsys) -> None:
    _tr, out, _summary = tiny_run()
    old = str(tmp_path / "old.ckpt")
    _as_text_manifest("HYAR-CKPT-2")(os.path.join(out, "final.ckpt"), old)
    assert cli_main(["eval", "--ckpt", old, "--episodes", "1",
                     "--seed", "0"]) == 4
    assert "HYAR-CKPT-2" in capsys.readouterr().err


def _epoch2_critics(d: dict, epoch: int = 2) -> None:
    """Store the critics as bits epoch 2 did, one critic{i}.* set (and one
    Adam state) per critic, and stamp the entries with `epoch`."""
    names = [k.split(".", 1)[1] for k in d if k.startswith("critic.")]
    n = d["critic.W0"].shape[0]
    for pre in ("critic", "target_critic"):
        for name in names:
            arr = d.pop(f"{pre}.{name}")
            d.update({f"{pre}{i}.{name}": arr[i] for i in range(n)})
    cuts = np.cumsum([d[f"critic0.{name}"].size * n for name in names])[:-1]
    for mom in ("m", "v"):
        parts = np.split(d.pop(f"opt_critic.{mom}"), cuts)
        for i in range(n):
            d[f"opt_critic{i}.{mom}"] = np.concatenate(
                [p.reshape(n, -1)[i] for p in parts])
    t = d.pop("opt_critic.t")
    d.update({f"opt_critic{i}.t": t for i in range(n)})
    d["bits_epoch"] = np.float64(epoch)


def test_cli_eval_epoch2_checkpoint_exits_4_naming_its_epoch(tmp_path,
                                                           capsys) -> None:
    """A checkpoint of bits epoch 2, with its critic{i}.* entries, is an I/O
    error naming that epoch; stamped with the current epoch, the per-critic
    layout is still refused."""
    _tr, out, _summary = tiny_run()
    old = str(tmp_path / "old.ckpt")
    for epoch, says in ((2, "bits_epoch: 2.0"), (nk.BITS_EPOCH, "critic.W0")):
        _entries_edit(lambda d: _epoch2_critics(d, epoch))(
            os.path.join(out, "final.ckpt"), old)
        assert len(nk.load_checkpoint(old)) == 89
        assert cli_main(["eval", "--ckpt", old, "--episodes", "1",
                         "--seed", "0"]) == 4
        assert says in capsys.readouterr().err


def _tiny_ckpt() -> tuple[bytes, int]:
    """The tiny run's final checkpoint and the length of its manifest (the
    magic line and the layout line)."""
    _tr, out, _summary = tiny_run()
    with open(os.path.join(out, "final.ckpt"), "rb") as fh:
        raw = fh.read()
    return raw, raw.index(b"\n", raw.index(b"\n") + 1) + 1


def _loads_same_state_or_raises(edited: bytes, raw: bytes) -> None:
    """Resume from edited as a checkpoint file: it must raise
    CheckpointError or give back the state saved as raw, byte for byte;
    any other exception fails the test."""
    out = tiny_run()[1]
    path, again = (os.path.join(out, n) for n in ("fuzz.ckpt", "again.ckpt"))
    with open(path, "wb") as fh:
        fh.write(edited)
    try:
        Trainer.from_checkpoint(path).save_checkpoint(again)
    except nk.CheckpointError:
        return
    with open(again, "rb") as fh:
        assert fh.read() == raw


FUZZ = settings(derandomize=True, max_examples=150, deadline=None,
                database=None)


@FUZZ
@given(data=st.data())
def test_truncated_checkpoint_loads_or_raises_checkpoint_error(data) -> None:
    raw, head = _tiny_ckpt()
    cut = data.draw(st.one_of(st.integers(0, head), st.integers(0, len(raw))))
    _loads_same_state_or_raises(raw[:cut], raw)


JSON_VALUES = st.one_of(
    st.text(), st.integers(), st.floats(), st.booleans(), st.none(),
    st.sampled_from(["<f4", "<f8", "|u1", "config", "rng.stream", "actor.W0"]),
    st.lists(st.one_of(st.integers(-2, 300), st.floats(0, 300),
                       st.booleans()), max_size=3))


@FUZZ
@given(data=st.data())
def test_edited_manifest_field_loads_or_raises_checkpoint_error(data) -> None:
    """One manifest line edited: the magic line replaced, a span of the
    layout's text replaced, or one field of one layout row set to any JSON
    value."""
    raw, head = _tiny_ckpt()
    magic, layout = raw[:head].decode("utf-8").splitlines()
    kind = data.draw(st.sampled_from(["magic", "text", "row"]))
    if kind == "magic":
        magic = data.draw(st.text())
    elif kind == "text":
        i = data.draw(st.integers(0, len(layout)))
        j = data.draw(st.integers(i, min(len(layout), i + 8)))
        layout = layout[:i] + data.draw(st.text(max_size=8)) + layout[j:]
    else:
        rows = json.loads(layout)
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(0, 2))] = data.draw(JSON_VALUES)
        layout = json.dumps(rows)
    _loads_same_state_or_raises(
        f"{magic}\n{layout}\n".encode("utf-8") + raw[head:], raw)


# Training keeps these finite; only state.* (moving_dyn and last_eval_* start
# as NaN) and the generator's text may hold a non-finite value and load.
MAY_HOLD_NONFINITE = ("state.", "rng.")


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_edited_entry_value_loads_or_raises_checkpoint_error(data) -> None:
    """One value of any entry set to any float (any byte in the config and
    rng.* texts): from_checkpoint gives a Trainer or raises CheckpointError,
    and must raise when the value is non-finite in a parameter, moment,
    buffer or bounds entry."""
    _tr, out, _summary = tiny_run()
    entries = nk.load_checkpoint(os.path.join(out, "final.ckpt"))
    name = data.draw(st.sampled_from(sorted(
        n for n, a in entries.items() if a.size)))
    i = data.draw(st.integers(0, entries[name].size - 1))
    nonfinite = st.sampled_from([np.nan, np.inf, -np.inf])
    value = data.draw(st.integers(0, 255) if entries[name].dtype == np.uint8
                      else st.one_of(nonfinite, st.floats()))
    arr = entries[name] = entries[name].copy()
    with np.errstate(over="ignore"):
        arr.flat[i] = value
    path = os.path.join(out, "edited.ckpt")
    nk.save_checkpoint(path, entries)
    try:
        Trainer.from_checkpoint(path)
    except nk.CheckpointError:
        return
    assert (np.isfinite(arr.flat[i])
            or name.startswith(MAY_HOLD_NONFINITE)), name


def test_cli_train_uses_config_file(tmp_path) -> None:
    out = str(tmp_path / "fromfile")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join([
        "env.id = platform", "run.seed = 4", "run.total_env_steps = 400",
        "run.warmup_env_steps = 200", "run.eval_interval = 200",
        "run.eval_episodes = 2", "repr.pretrain_batches = 20",
        f"run.out_dir = {out}", ""]))
    assert cli_main(["train", "--config", str(cfg)]) == 0
    text = open(os.path.join(out, "run-manifest.txt")).read()
    assert "run.seed = 4" in text
