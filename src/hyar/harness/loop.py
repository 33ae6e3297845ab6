"""Warm-up collection, representation pre-training, interleaved RL, resume.

One Trainer owns the env, buffer, representation, and nets.  Episodes are the
unit of progress: the loop stops at the first episode boundary past the step
budget, and checkpoints are written only at such boundaries, so no environment
state ever needs serializing.  All stochastic training decisions draw from a
single stream generator whose state rides along in the checkpoint; env resets
and evaluations use seeds derived statelessly from (run seed, counter), which
together make resumed runs bit-identical to uninterrupted ones.
"""
from __future__ import annotations

import json
import os
from collections import deque

import numpy as np

from .. import numkit as nk
from ..agents import (AgentNets, ReplayBuffer, actor_update, critic_update,
                      decode_action, relabel_batch, select_latent_action)
from ..envs import HybridAction, env_spec, make
from ..representation import LatentBounds, ReprModel
from .config import RunConfig, build_config, parse_config_lines
from .metrics import EVAL_HEADER, METRICS_HEADER, CsvLog, write_manifest

BOUNDS_SAMPLE_CAP = 2000  # latents fed to each percentile refresh


def derive_seed(*parts) -> int:
    """Stateless child seed from integer parts (order-sensitive)."""
    return int(np.random.SeedSequence([int(p) for p in parts])
               .generate_state(1, dtype=np.uint64)[0])


def _utf8_array(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float64)


def _utf8_str(entries: dict, name: str) -> str:
    arr = nk.entry(entries, name, (None,))
    try:
        return bytes(np.rint(arr).astype(np.uint8)).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise nk.CheckpointError(f"{name}: not UTF-8 text") from exc


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


class IntervalAccum:
    """Sums backing the per-interval mean columns of metrics.csv."""

    FIELDS = ("vae_sum", "vae_n", "dyn_sum", "dyn_n", "critic_sum", "critic_n",
              "actor_sum", "actor_n", "cover_in", "cover_n")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        for f in self.FIELDS:
            setattr(self, f, 0.0)

    def mean(self, prefix: str) -> float:
        n = getattr(self, f"{prefix}_n")
        if n == 0.0:
            return float("nan")
        return getattr(self, f"{prefix}_sum") / n

    def coverage(self) -> float:
        if self.cover_n == 0.0:
            return float("nan")
        return self.cover_in / self.cover_n

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in self.FIELDS])

    def load_array(self, a: np.ndarray) -> None:
        for f, v in zip(self.FIELDS, a):
            setattr(self, f, float(v))


_SCALARS = ("env_step", "episode", "eval_index", "last_eval_step",
            "episodes_since_repr", "bounds_refreshes", "repr_skipped",
            "rsc_in_bounds", "rsc_total", "fault_count", "critic_updates",
            "actor_updates", "moving_dyn", "last_eval_return",
            "last_eval_success")


class Trainer:
    """Owns one run end to end: warm-up, pre-train, RL loop, eval, checkpoint."""

    def __init__(self, config: RunConfig):
        config.validate()
        self.cfg = config
        self.acfg = config.agent_config()
        self.spec = env_spec(config.env_id, config.env_n)
        self.env = make(config.env_id, config.env_n)
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
        self.bounds: LatentBounds | None = None
        self.moving_dyn: float | None = None
        self.warmed_up = False
        self.env_step = 0
        self.episode = 0
        self.eval_index = 0
        self.last_eval_step = -1
        self.last_eval = (float("nan"), float("nan"))
        self.episodes_since_repr = 0
        self.bounds_refreshes = 0
        self.repr_skipped = 0
        self.rsc_in_bounds = 0
        self.rsc_total = 0
        self.acc = IntervalAccum()
        self.ma_returns: deque = deque(maxlen=100)
        self.ma_success: deque = deque(maxlen=100)
        self.metrics: CsvLog | None = None
        self.evallog: CsvLog | None = None

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
        self.moving_dyn = (rec.dyn if self.moving_dyn is None
                           else d * self.moving_dyn + (1.0 - d) * rec.dyn)
        self.acc.vae_sum += rec.vae
        self.acc.vae_n += 1
        self.acc.dyn_sum += rec.dyn
        self.acc.dyn_n += 1

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

    def warmup_stage(self) -> None:
        """Random-policy collection, then representation pre-training."""
        target = self.cfg.warmup()
        while self.env_step < target:
            s = self.env.reset(derive_seed(self.cfg.seed, 4, self.episode))
            done = False
            while not done:
                k = int(self.stream.integers(self.spec.num_discrete))
                x = self.stream.uniform(-1.0, 1.0,
                                        size=self.spec.param_dims[k])
                res = self.env.step(HybridAction(k, x))
                mu, ls = self.model.encode(s, k, self._pad(x))
                z = nk.reparam_sample(mu, ls,
                                      self.stream.standard_normal(mu.shape))
                self._store(s, k, x, self.model.embed_lookup(k), z, res)
                s = res.state
                done = res.done
            self.episode += 1
        for _ in range(self.cfg.pretrain_batches):
            self._repr_batch()
        self._refresh_bounds()
        self.warmed_up = True

    def _rl_update(self) -> None:
        acfg = self.acfg
        batch = self.buffer.sample(acfg.batch_size, self.stream)
        thr = float("inf") if self.moving_dyn is None else self.moving_dyn
        rb, _stats = relabel_batch(self.model, batch, thr, self.stream,
                                   noise=acfg.rsc_noise,
                                   redraws=acfg.rsc_redraws,
                                   threshold_mult=acfg.rsc_threshold_mult)
        lat = np.concatenate([rb.e, rb.z], axis=1)
        inside = (lat >= self.bounds.lower) & (lat <= self.bounds.upper)
        self.rsc_in_bounds += int(inside.all(axis=1).sum())
        self.rsc_total += lat.shape[0]
        closs = critic_update(self.nets, acfg, rb, self.bounds, self.stream)
        self.acc.critic_sum += closs
        self.acc.critic_n += 1
        if self.nets.critic_updates % acfg.policy_delay == 0:
            aloss = actor_update(self.nets, acfg, rb, self.bounds)
            self.acc.actor_sum += aloss
            self.acc.actor_n += 1

    def _run_eval(self) -> None:
        ev = make(self.cfg.env_id, self.cfg.env_n)
        self.last_eval = evaluate(self.nets, self.model, self.bounds, ev,
                                  self.cfg.eval_episodes,
                                  derive_seed(self.cfg.seed, 5, self.eval_index))
        self.eval_index += 1
        self.last_eval_step = self.env_step
        ma_ret = (float(np.mean(self.ma_returns)) if self.ma_returns
                  else float("nan"))
        ma_suc = (float(np.mean(self.ma_success)) if self.ma_success
                  else float("nan"))
        if self.metrics is not None:
            self.metrics.row([self.env_step, self.episode, ma_ret, ma_suc,
                              self.acc.mean("vae"), self.acc.mean("dyn"),
                              self.acc.mean("critic"), self.acc.mean("actor"),
                              self.acc.coverage()])
        if self.evallog is not None:
            self.evallog.row([self.env_step, self.last_eval[0],
                              self.last_eval[1]])
        self.acc.reset()

    def _training_episode(self) -> None:
        cfg = self.cfg
        s = self.env.reset(derive_seed(cfg.seed, 4, self.episode))
        ep_return = 0.0
        done = False
        while not done:
            e, z = select_latent_action(self.nets, self.bounds, s,
                                        explore=True, rng=self.stream)
            lat = np.concatenate([e, z])
            self.acc.cover_n += 1
            if np.all((lat > self.bounds.lower) & (lat < self.bounds.upper)):
                self.acc.cover_in += 1
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
        os.makedirs(cfg.out_dir, exist_ok=True)
        resume = self.warmed_up
        self.metrics = CsvLog(os.path.join(cfg.out_dir, "metrics.csv"),
                              METRICS_HEADER, resume=resume,
                              upto=self.last_eval_step)
        self.evallog = CsvLog(os.path.join(cfg.out_dir, "eval.csv"),
                              EVAL_HEADER, resume=resume,
                              upto=self.last_eval_step)
        try:
            if not self.warmed_up:
                self.warmup_stage()
            while self.env_step < cfg.total_env_steps:
                self._training_episode()
        except nk.NumericFault:
            self.save_checkpoint(os.path.join(cfg.out_dir, "abort.ckpt"))
            raise
        finally:
            self.metrics.close()
            self.evallog.close()
        ckpt = os.path.join(cfg.out_dir, "final.ckpt")
        self.save_checkpoint(ckpt)
        sha = write_manifest(os.path.join(cfg.out_dir, "run-manifest.txt"),
                             cfg, "final.ckpt", ckpt)
        return {"env_step": self.env_step, "episodes": self.episode,
                "mean_return": self.last_eval[0],
                "success_rate": self.last_eval[1],
                "checkpoint": ckpt, "checkpoint_sha1": sha}

    # ---- checkpointing -------------------------------------------------

    def save_checkpoint(self, path: str) -> None:
        entries: dict = {}
        for n in self.model.params.names():
            entries[f"repr.{n}"] = self.model.params[n]
        entries["repr_opt.m"] = self.model.opt.m
        entries["repr_opt.v"] = self.model.opt.v
        entries["repr_opt.t"] = np.float64(self.model.opt.t)
        entries.update(self.nets.checkpoint_entries())
        entries.update(self.buffer.checkpoint_entries())
        if self.bounds is None:
            raise nk.CheckpointError("cannot checkpoint before warm-up")
        entries["bounds.lower"] = self.bounds.lower
        entries["bounds.upper"] = self.bounds.upper
        entries["bounds.c"] = np.float64(self.bounds.c)
        scalars = dict(
            env_step=self.env_step, episode=self.episode,
            eval_index=self.eval_index, last_eval_step=self.last_eval_step,
            episodes_since_repr=self.episodes_since_repr,
            bounds_refreshes=self.bounds_refreshes,
            repr_skipped=self.repr_skipped,
            rsc_in_bounds=self.rsc_in_bounds, rsc_total=self.rsc_total,
            fault_count=self.nets.fault_count,
            critic_updates=self.nets.critic_updates,
            actor_updates=self.nets.actor_updates,
            moving_dyn=(float("nan") if self.moving_dyn is None
                        else self.moving_dyn),
            last_eval_return=self.last_eval[0],
            last_eval_success=self.last_eval[1])
        entries["state.scalars"] = np.array([scalars[k] for k in _SCALARS])
        entries["state.ma_returns"] = np.array(list(self.ma_returns))
        entries["state.ma_success"] = np.array(list(self.ma_success))
        entries["state.acc"] = self.acc.as_array()
        entries["rng.stream"] = _utf8_array(
            json.dumps(self.stream.bit_generator.state))
        entries["config"] = _utf8_array(self.cfg.config_text())
        nk.save_checkpoint(path, entries)

    @classmethod
    def from_checkpoint(cls, path: str,
                        overrides: dict | None = None) -> "Trainer":
        entries = nk.load_checkpoint(path)
        values = parse_config_lines(_utf8_str(entries, "config").splitlines(),
                                    where=path)
        tr = cls(build_config(values, overrides))
        for n in tr.model.params.names():
            nk.restore(entries, f"repr.{n}", tr.model.params[n])
        nk.restore(entries, "repr_opt.m", tr.model.opt.m)
        nk.restore(entries, "repr_opt.v", tr.model.opt.v)
        tr.model.opt.t = nk.as_int(nk.entry(entries, "repr_opt.t", ()),
                                   "repr_opt.t")
        tr.nets.load_checkpoint_entries(entries)
        tr.buffer.load_checkpoint_entries(entries)
        lat = (tr.cfg.d1 + tr.cfg.d2,)
        try:
            tr.bounds = LatentBounds(
                nk.entry(entries, "bounds.lower", lat).copy(),
                nk.entry(entries, "bounds.upper", lat).copy(),
                float(nk.entry(entries, "bounds.c", ())))
        except ValueError as exc:
            raise nk.CheckpointError(f"bounds: {exc}") from exc
        sc = dict(zip(_SCALARS, nk.entry(entries, "state.scalars",
                                         (len(_SCALARS),))))

        def count(name: str, lo: int = 0) -> int:
            return nk.as_int(sc[name], f"state.scalars {name}", lo)

        tr.env_step = count("env_step")
        tr.episode = count("episode")
        tr.eval_index = count("eval_index")
        tr.last_eval_step = count("last_eval_step", lo=-1)
        tr.episodes_since_repr = count("episodes_since_repr")
        tr.bounds_refreshes = count("bounds_refreshes")
        tr.repr_skipped = count("repr_skipped")
        tr.rsc_in_bounds = count("rsc_in_bounds")
        tr.rsc_total = count("rsc_total")
        tr.nets.fault_count = count("fault_count")
        tr.nets.critic_updates = count("critic_updates")
        tr.nets.actor_updates = count("actor_updates")
        md = float(sc["moving_dyn"])
        tr.moving_dyn = None if np.isnan(md) else md
        tr.last_eval = (float(sc["last_eval_return"]),
                        float(sc["last_eval_success"]))
        for v in nk.entry(entries, "state.ma_returns", (None,)):
            tr.ma_returns.append(float(v))
        for v in nk.entry(entries, "state.ma_success", (None,)):
            tr.ma_success.append(float(v))
        tr.acc.load_array(nk.entry(entries, "state.acc",
                                   (len(IntervalAccum.FIELDS),)))
        try:
            tr.stream.bit_generator.state = json.loads(
                _utf8_str(entries, "rng.stream"))
        except (ValueError, TypeError, KeyError) as exc:
            raise nk.CheckpointError(
                f"rng.stream: bad generator state: {exc}") from exc
        tr.warmed_up = True
        return tr
