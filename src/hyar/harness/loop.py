"""Warm-up collection, representation pre-training, interleaved RL, resume.

One Trainer owns the env, buffer, representation, and nets.  Episodes are the
unit of progress: the loop stops at the first episode boundary past the step
budget, and checkpoints are written only at such boundaries, so no environment
state ever needs serializing.  All stochastic training decisions draw from a
single stream generator whose state rides along in the checkpoint; env resets
and evaluations use seeds derived statelessly from (run seed, counter), which
together make resumed runs bit-identical to uninterrupted ones.  The
warm-up draws only k and x per random step; the latents of its rows come
after collection, in fixed-size encoder calls over the buffer.

Checkpointed run state is listed once, in Trainer._slots(), from which
save_checkpoint and from_checkpoint are derived.  Each piece is declared
once, by its owner, and its constructor reads the same declaration: the
Trainer's and AgentNets' COUNTS, the Trainer's FLOATS, the fields of Batch
(the buffer's columns) and IntervalAccum.COLUMNS (the means of metrics.csv).
"""
from __future__ import annotations

import datetime
import json
import math
import os
import sys
import time
from collections import deque

import numpy as np

from .. import numkit as nk
from ..agents import (AgentNets, ReplayBuffer, actor_update, critic_update,
                      decode_action, relabel_batch, select_latent_action)
from ..envs import ConfigError, HybridAction, make
from ..representation import LatentBounds, ReprModel
from .config import RunConfig, build_config, parse_config_lines
from .metrics import (EVAL_HEADER, METRICS_HEADER, CsvLog, IntervalAccum,
                      write_manifest)

BOUNDS_SAMPLE_CAP = 2000  # latents fed to each percentile refresh
# Rows per encoder call over the warm-up's rows.  Fixed, because a float32
# GEMM's row bits depend on the call's row count; small, so the call's
# activations stay small (one 20000-row call would raise peak RSS).
ENCODE_BLOCK = 1024
CONFIG_ENTRY = "config"  # read first: it builds the Trainer that loads the rest
EPOCH_ENTRY = "bits_epoch"  # a checkpoint of another epoch does not resume
RESUME_KEYS = ("run.total_env_steps",)  # all a resume may change


def derive_seed(*parts) -> int:
    """Stateless child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence([int(p) for p in parts])
               .generate_state(1, dtype=np.uint64)[0])


def _utf8_array(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def _utf8_str(entries: dict, name: str) -> str:
    arr = nk.entry(entries, name, (None,))
    if arr.dtype != np.uint8:
        raise nk.CheckpointError(f"{name}: stored as {arr.dtype}, not bytes")
    try:
        return bytes(arr).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise nk.CheckpointError(f"{name}: not UTF-8 text") from exc


def _deque_slot(name: str, dq: deque) -> nk.Slot:
    return nk.Slot(lambda: {name: np.array(list(dq))},
                   lambda d: dq.extend(float(v) for v in
                                       nk.entry(d, name, (None,))))


def _rng_slot(name: str, gen: np.random.Generator) -> nk.Slot:
    def load(d: dict) -> None:
        try:
            gen.bit_generator.state = json.loads(_utf8_str(d, name))
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            raise nk.CheckpointError(
                f"{name}: bad generator state: {exc}") from exc
    return nk.Slot(
        lambda: {name: _utf8_array(json.dumps(gen.bit_generator.state))},
        load)


def evaluate(nets: AgentNets, repr_model: ReprModel, bounds: LatentBounds,
             env, episodes: int, seed: int):
    """(mean_return, success_rate) over fresh seeded episodes, no exploration."""
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    total = 0.0
    wins = 0
    for ep in range(episodes):
        s = env.reset(derive_seed(seed, ep))
        while True:
            e, z = select_latent_action(nets, bounds, s)
            res = env.step(decode_action(repr_model, s, e, z))
            total += res.reward
            s = res.state
            if res.done:
                break
        wins += 1 if res.success else 0
    return total / episodes, wins / episodes


class Trainer:
    """Owns one run end to end: warm-up, pre-train, RL loop, eval, checkpoint."""

    # counters at their start values, also the lowest a checkpoint may hold
    COUNTS = {"env_step": 0, "episode": 0, "eval_index": 0,
              "last_eval_step": -1, "episodes_since_repr": 0,
              "bounds_refreshes": 0, "repr_skipped": 0, "rsc_in_bounds": 0,
              "rsc_total": 0}
    # NaN until first set: the dynamics-loss EMA and the last evaluation
    FLOATS = dict.fromkeys(("moving_dyn", "last_eval_return",
                            "last_eval_success"), math.nan)

    def __init__(self, config: RunConfig):
        config.validate()
        self.cfg = config
        self.acfg = config.agent_config()
        self.env = make(config.env_id, config.env_n)
        self.spec = self.env.spec()
        self.model = ReprModel(
            self.spec, d1=config.d1, d2=config.d2, lr=config.repr_lr,
            rng=np.random.default_rng(derive_seed(config.seed, 1)))
        self.nets = AgentNets(self.spec.state_dim, config.d1, config.d2,
                              self.acfg,
                              np.random.default_rng(derive_seed(config.seed, 2)))
        self.buffer = ReplayBuffer(self.acfg.buffer_capacity,
                                   self.spec.state_dim, self.spec.max_param_dim,
                                   config.d1, config.d2)
        self.stream = np.random.default_rng(derive_seed(config.seed, 3))
        self.bounds: LatentBounds | None = None  # set when warm-up ends
        vars(self).update(self.COUNTS, **self.FLOATS)
        self.acc = IntervalAccum()
        self.ma_returns: deque = deque(maxlen=100)
        self.ma_success: deque = deque(maxlen=100)
        self.out_dir = config.out_dir  # where run() writes its files
        # (clock, env_step) at the last progress line; no output file sees it
        self.mark = (time.perf_counter(), self.env_step)
        self.metrics: CsvLog | None = None
        self.evallog: CsvLog | None = None

    @property
    def warmed_up(self) -> bool:
        """The warm-up ends by setting the first bounds."""
        return self.bounds is not None

    # ---- pieces --------------------------------------------------------

    def _pad(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.spec.max_param_dim)
        out[:x.size] = x
        return out

    def _store(self, s, k: int, x: np.ndarray, e, z, res) -> None:
        done = res.done and not self.env.timeout_truncated
        self.buffer.push(s, k, self._pad(x), e, z, res.reward, res.state, done)
        self.env_step += 1

    def _repr_batch(self) -> None:
        b = self.buffer.sample(self.cfg.repr_batch, self.stream)
        rec = self.model.repr_train_batch(b.s, b.k, b.x, b.s_next, self.stream,
                                          beta=self.cfg.beta,
                                          kl_weight=self.cfg.kl_weight)
        if rec.skipped:
            self.repr_skipped += 1
            return
        d = self.cfg.ema_decay
        self.moving_dyn = (rec.dyn if math.isnan(self.moving_dyn)
                           else d * self.moving_dyn + (1.0 - d) * rec.dyn)
        self.acc.add("vae", rec.vae)
        self.acc.add("dyn", rec.dyn)

    def _refresh_bounds(self) -> None:
        n = self.buffer.size
        if n > BOUNDS_SAMPLE_CAP:
            idx = self.stream.integers(0, n, size=BOUNDS_SAMPLE_CAP)
        else:
            idx = slice(0, n)
        self.bounds = self.model.latent_bounds(
            self.buffer.s[idx], self.buffer.k[idx], self.buffer.x[idx],
            c=self.cfg.c)
        self.bounds_refreshes += 1

    def _collect_random(self) -> None:
        """Random-policy episodes until the warm-up budget is met; each step
        draws k, then x, and stores its row with e and z unset."""
        target = self.cfg.warmup()
        while self.env_step < target:
            s = self.env.reset(derive_seed(self.cfg.seed, 4, self.episode))
            done = False
            while not done:
                k = int(self.stream.integers(self.spec.num_discrete))
                x = self.stream.uniform(-1.0, 1.0,
                                        size=self.spec.param_dims[k])
                res = self.env.step(HybridAction(k, x))
                self._store(s, k, x, None, None, res)
                s = res.state
                done = res.done
            self.episode += 1

    def _encode_warmup(self) -> None:
        """Latents of the stored rows [0, n): e is the table row of k (the
        table does not change during collection), and z = mu + exp(log_std)
        * eps of the encoder, with every eps drawn as one (n, d2) block and
        the rows encoded in ENCODE_BLOCK-row calls."""
        buf, n = self.buffer, self.buffer.size
        buf.e[:n] = self.model.table[buf.k[:n]]
        eps = self.stream.standard_normal((n, self.cfg.d2))
        for i in range(0, n, ENCODE_BLOCK):
            j = slice(i, min(i + ENCODE_BLOCK, n))
            mu, ls = self.model.encode(buf.s[j], buf.k[j], buf.x[j])
            buf.z[j] = nk.reparam_sample(mu, ls, eps[j])

    def warmup_stage(self) -> None:
        """Random-policy collection, the latents of what it stored, then
        representation pre-training and the first latent bounds."""
        self._collect_random()
        self._encode_warmup()
        for _ in range(self.cfg.pretrain_batches):
            self._repr_batch()
        self._refresh_bounds()

    def _rl_update(self) -> None:
        acfg = self.acfg
        batch = self.buffer.sample(acfg.batch_size, self.stream)
        thr = float("inf") if math.isnan(self.moving_dyn) else self.moving_dyn
        rb, _stats = relabel_batch(self.model, batch, thr, self.stream,
                                   noise=acfg.rsc_noise,
                                   redraws=acfg.rsc_redraws,
                                   threshold_mult=acfg.rsc_threshold_mult)
        lat = np.concatenate([rb.e, rb.z], axis=1)
        inside = (lat >= self.bounds.lower) & (lat <= self.bounds.upper)
        self.rsc_in_bounds += int(inside.all(axis=1).sum())
        self.rsc_total += lat.shape[0]
        closs = critic_update(self.nets, rb, self.bounds, self.stream)
        self.acc.add("critic", closs)
        if self.nets.critic_updates % acfg.policy_delay == 0:
            self.acc.add("actor", actor_update(self.nets, rb, self.bounds))

    def _run_eval(self) -> None:
        ev = make(self.cfg.env_id, self.cfg.env_n)
        self.last_eval_return, self.last_eval_success = evaluate(
            self.nets, self.model, self.bounds, ev, self.cfg.eval_episodes,
            derive_seed(self.cfg.seed, 5, self.eval_index))
        self.eval_index += 1
        self.last_eval_step = self.env_step
        ma = [float(np.mean(d)) if d else float("nan")
              for d in (self.ma_returns, self.ma_success)]
        if self.metrics is not None:
            self.metrics.row([self.env_step, self.episode, *ma,
                              *map(self.acc.mean, IntervalAccum.COLUMNS)])
        if self.evallog is not None:
            self.evallog.row([self.env_step, self.last_eval_return,
                              self.last_eval_success])
        self.acc.reset()
        self._progress()

    def _progress(self) -> None:
        """One stderr line: env step of the budget, RL steps/s since the
        last mark, the ETA at that rate and the last eval success."""
        now, total = time.perf_counter(), self.cfg.total_env_steps
        then, step = self.mark
        rate = (self.env_step - step) / max(now - then, 1e-9)
        left = max(total - self.env_step, 0) / rate if rate else 0.0
        eta = datetime.timedelta(seconds=round(left))
        print(f"progress: step {self.env_step}/{total}, {rate:.1f} RL steps/s,"
              f" eta {eta}, eval success {self.last_eval_success:.3f}",
              file=sys.stderr, flush=True)
        self.mark = (now, self.env_step)

    def _training_episode(self) -> None:
        cfg = self.cfg
        s = self.env.reset(derive_seed(cfg.seed, 4, self.episode))
        ep_return = 0.0
        done = False
        while not done:
            e, z = select_latent_action(self.nets, self.bounds, s,
                                        rng=self.stream)
            lat = np.concatenate([e, z])
            inside = (lat > self.bounds.lower) & (lat < self.bounds.upper)
            self.acc.add("cover", 1.0 if inside.all() else 0.0)
            act = decode_action(self.model, s, e, z)
            res = self.env.step(act)
            self._store(s, act.k, act.x, e, z, res)
            if self.buffer.size >= self.acfg.batch_size:
                self._rl_update()
            if (self.env_step % cfg.eval_interval == 0
                    and self.env_step > cfg.warmup()):
                self._run_eval()
            s = res.state
            ep_return += res.reward
            done = res.done
        self.ma_returns.append(ep_return)
        self.ma_success.append(1.0 if res.success else 0.0)
        self.episode += 1
        self.episodes_since_repr += 1
        if self.episodes_since_repr >= cfg.repr_every_episodes:
            self.episodes_since_repr = 0
            self._repr_batch()
            self._refresh_bounds()

    # ---- orchestration -------------------------------------------------

    def run(self) -> dict:
        cfg = self.cfg
        os.makedirs(self.out_dir, exist_ok=True)
        resume = self.warmed_up
        self.metrics = CsvLog(os.path.join(self.out_dir, "metrics.csv"),
                              METRICS_HEADER, resume=resume,
                              upto=self.last_eval_step)
        self.evallog = CsvLog(os.path.join(self.out_dir, "eval.csv"),
                              EVAL_HEADER, resume=resume,
                              upto=self.last_eval_step)
        try:
            if not self.warmed_up:
                self.warmup_stage()
            self.mark = (time.perf_counter(), self.env_step)
            while self.env_step < cfg.total_env_steps:
                self._training_episode()
        finally:
            self.metrics.close()
            self.evallog.close()
        ckpt = os.path.join(self.out_dir, "final.ckpt")
        self.save_checkpoint(ckpt)
        sha = write_manifest(os.path.join(self.out_dir, "run-manifest.txt"),
                             cfg, "final.ckpt", ckpt)
        return {"env_step": self.env_step, "episodes": self.episode,
                "mean_return": self.last_eval_return,
                "success_rate": self.last_eval_success,
                "checkpoint": ckpt, "checkpoint_sha1": sha}

    # ---- checkpointing -------------------------------------------------

    def _bounds_slot(self) -> nk.Slot:
        lat = (self.cfg.d1 + self.cfg.d2,)
        names = ("bounds.lower", "bounds.upper")

        def save() -> dict:
            if self.bounds is None:
                raise nk.CheckpointError("cannot checkpoint before warm-up")
            return dict(zip(names, (self.bounds.lower, self.bounds.upper)))

        def load(d: dict) -> None:
            try:
                self.bounds = LatentBounds(*(nk.finite_entry(d, n, lat).copy()
                                             for n in names))
            except ValueError as exc:
                raise nk.CheckpointError(f"bounds: {exc}") from exc
        return nk.Slot(save, load)

    def _slots(self) -> list[nk.Slot]:
        """The run state, in checkpoint order."""
        scalars = ([(self, a, lo) for a, lo in self.COUNTS.items()]
                   + [(self.nets, a, lo) for a, lo in self.nets.COUNTS.items()]
                   + [(self, a, None) for a in self.FLOATS])
        return [*self.model.params.slots("repr"),
                *self.model.opt.slots("repr_opt"),
                *self.nets.slots(),
                self.buffer.slot("buffer", self.spec.num_discrete),
                self._bounds_slot(),
                nk.fields_slot("state.scalars", scalars),
                _deque_slot("state.ma_returns", self.ma_returns),
                _deque_slot("state.ma_success", self.ma_success),
                nk.fields_slot("state.acc", [(self.acc, f, None)
                                             for f in IntervalAccum.FIELDS]),
                _rng_slot("rng.stream", self.stream)]

    def save_checkpoint(self, path: str) -> None:
        entries = nk.gather(self._slots())
        entries[CONFIG_ENTRY] = _utf8_array(self.cfg.config_text())
        entries[EPOCH_ENTRY] = np.float64(nk.BITS_EPOCH)
        nk.save_checkpoint(path, entries)

    @classmethod
    def from_checkpoint(cls, path: str,
                        overrides: dict | None = None) -> "Trainer":
        """The run saved at path, to write next to it.  A malformed file,
        its config entry included, raises CheckpointError."""
        fixed = sorted(set(overrides or {}) - set(RESUME_KEYS))
        if fixed:
            raise ConfigError(f"a resume may set only {RESUME_KEYS}, not {fixed}")
        entries = nk.load_checkpoint(path)
        epoch = float(nk.entry(entries, EPOCH_ENTRY, ()))
        if epoch != nk.BITS_EPOCH:
            raise nk.CheckpointError(f"{EPOCH_ENTRY}: {epoch!r}, but this "
                                     f"code makes epoch {nk.BITS_EPOCH}")
        try:
            values = parse_config_lines(
                _utf8_str(entries, CONFIG_ENTRY).splitlines(), where=path)
            saved = build_config(values)
            saved.validate()
        except ValueError as exc:
            raise nk.CheckpointError(f"{CONFIG_ENTRY}: {exc}") from exc
        cfg = build_config(values, overrides)
        if cfg.total_env_steps < saved.total_env_steps:
            raise ConfigError("a resume cannot lower run.total_env_steps "
                              f"below {saved.total_env_steps}")
        tr = cls(cfg)
        tr.out_dir = os.path.dirname(path) or os.curdir
        for slot in tr._slots():
            slot.load(entries)
        return tr
