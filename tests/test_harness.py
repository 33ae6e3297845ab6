"""Harness: config parsing, warm-up, loop accounting, metrics, resume, CLI."""
import os
import shutil
import tempfile

import numpy as np
import pytest

from hyar import numkit as nk
from hyar.cli import main as cli_main
from hyar.errors import ConfigError
from hyar.harness import (METRICS_HEADER, CsvLog, RunConfig, Trainer,
                          build_config, derive_seed, evaluate,
                          parse_config_lines)
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


def test_algo_picks_agent_preset() -> None:
    td3 = build_config(overrides={"run.algo": "hyar-td3"}).agent_config()
    assert td3.num_critics == 2 and td3.actor_lr == 3e-4
    ddpg = build_config(overrides={"run.algo": "hyar-ddpg"}).agent_config()
    assert ddpg.num_critics == 1 and ddpg.critic_lr == 1e-3
    tweaked = build_config(overrides={"run.algo": "hyar-ddpg",
                                      "agent.critic_lr": 5e-4}).agent_config()
    assert tweaked.critic_lr == 5e-4 and tweaked.actor_lr == 1e-4


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
    assert summary["checkpoint_sha1"] == sha


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
    assert np.array_equal(back.nets.critics[1].flat, tr.nets.critics[1].flat)
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

    # save, load, save again: the same file, so no piece of the run state
    # is dropped; the counters that stay 0 in a tiny run are set first
    ddpg = Trainer(build_config(overrides={
        **tiny_overrides(str(tmp_path / "ddpg"), total=400),
        "run.algo": "hyar-ddpg"}))
    ddpg.run()
    ddpg.repr_skipped, ddpg.nets.fault_count = 2, 3
    first, again = str(tmp_path / "first.ckpt"), str(tmp_path / "again.ckpt")
    for trainer, n_entries in ((tr, 89), (ddpg, 74)):
        trainer.save_checkpoint(first)
        Trainer.from_checkpoint(first).save_checkpoint(again)
        entries = nk.load_checkpoint(first)
        assert len(entries) == n_entries
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
    ckpt = str(tmp_path / "at400.ckpt")
    shutil.copyfile(os.path.join(part, "final.ckpt"), ckpt)
    Trainer.from_checkpoint(ckpt, {"run.total_env_steps": 600}).run()
    Trainer.from_checkpoint(ckpt, {"run.total_env_steps": 800}).run()
    for name in ("metrics.csv", "eval.csv"):
        a = open(os.path.join(full, name), "rb").read()
        b = open(os.path.join(part, name), "rb").read()
        assert a == b, name


def test_rerun_bit_identical(tmp_path) -> None:
    outs = [str(tmp_path / d) for d in ("r1", "r2")]
    for out in outs:
        Trainer(build_config(overrides=tiny_overrides(out, seed=3,
                                                      total=400))).run()
    a = open(os.path.join(outs[0], "metrics.csv"), "rb").read()
    b = open(os.path.join(outs[1], "metrics.csv"), "rb").read()
    assert a == b


# ---- CLI ---------------------------------------------------------------

def test_cli_train_and_exit_codes(tmp_path, capsys) -> None:
    out = str(tmp_path / "cli-run")
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("run.warmup_env_steps = 200\nrun.eval_interval = 200\n"
                   "run.eval_episodes = 2\nrepr.pretrain_batches = 20\n")
    code = cli_main(["train", "--env", "platform", "--seed", "2",
                     "--steps", "400", "--config", str(cfg),
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


# ---- malformed checkpoints ---------------------------------------------

def _entries_edit(edit):
    """Corrupt a checkpoint by editing its loaded entries and re-saving."""
    def apply(src: str, dst: str) -> None:
        entries = nk.load_checkpoint(src)
        edit(entries)
        nk.save_checkpoint(dst, entries)
    return apply


def _manifest_edit(line: int, field: int, text: str):
    """Corrupt one whitespace-separated field of one manifest line."""
    def apply(src: str, dst: str) -> None:
        with open(src, "rb") as fh:
            raw = fh.read()
        end = raw.index(b"\n", raw.index(b"\nblob ") + 1) + 1
        lines = raw[:end].decode("utf-8").splitlines()
        parts = lines[line].split()
        parts[field] = text
        lines[line] = " ".join(parts)
        with open(dst, "wb") as fh:
            fh.write(("\n".join(lines) + "\n").encode("utf-8") + raw[end:])
    return apply


def _set(name: str, value):
    """Replace entry `name` by value, or by value(entries) if callable."""
    return _entries_edit(lambda d: d.__setitem__(
        name, value(d) if callable(value) else value))


CAPACITY = RunConfig().agent_config().buffer_capacity
FIRST_ENTRY, BLOB_LINE = 2, -1  # manifest line indices


@pytest.mark.parametrize("corrupt", [
    pytest.param(_entries_edit(lambda d: d.pop("actor.W0")), id="missing-entry"),
    pytest.param(_set("actor.W0", np.zeros((3, 3))), id="wrong-shape"),
    pytest.param(_set("actor.W0", lambda d: d["actor.W0"][:1]),
                 id="broadcastable-shape"),
    pytest.param(_manifest_edit(1, 1, "x"), id="entries-count-not-int"),
    pytest.param(_manifest_edit(FIRST_ENTRY, 2, "0.5"), id="offset-not-int"),
    pytest.param(_manifest_edit(FIRST_ENTRY, 3, "18.0"), id="count-not-int"),
    pytest.param(_manifest_edit(BLOB_LINE, 1, "1e6"), id="blob-not-int"),
    pytest.param(_manifest_edit(FIRST_ENTRY, 2, "-8"), id="negative-offset"),
    pytest.param(_manifest_edit(FIRST_ENTRY, 3, "-1"), id="negative-count"),
    pytest.param(_set("buffer.cursor", np.float64(CAPACITY)), id="cursor-at-capacity"),
    pytest.param(_set("buffer.cursor", np.float64(-1.0)), id="cursor-negative"),
    pytest.param(_set("buffer.cursor", np.float64(2.5)), id="cursor-not-int"),
    pytest.param(_set("repr_opt.t", np.float64(np.nan)), id="adam-step-nan"),
    pytest.param(_set("state.scalars", np.zeros(3)), id="scalars-short"),
    pytest.param(_set("bounds.lower", lambda d: d["bounds.upper"] + 1.0),
                 id="bounds-inverted"),
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
