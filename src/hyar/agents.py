"""Latent-space policies over the hybrid action representation.

The actor emits a point in [-1,1]^(d1+d2) which is rescaled into the current
latent bounds, split into (e, z), and decoded through the representation into
an executable hybrid action.  TD3 keeps twin critics with clipped double-Q
targets and delayed actor updates; DDPG is the single-critic, every-step
variant.  Relabeling (both the discrete table lookup and the dynamics-gated
continuous resample) happens on sampled batch copies, never on the buffer.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import numkit as nk
from .errors import ConfigError
from .envs import HybridAction
from .representation import LatentBounds, ReprModel

HIDDEN = 256


@dataclass
class AgentConfig:
    """Hyperparameters for the latent policy and its training rules."""

    algo: str = "td3"
    gamma: float = 0.99
    actor_lr: float = 3e-4
    critic_lr: float = 3e-4
    tau_actor: float = 5e-3
    tau_critic: float = 5e-3
    expl_sigma: float = 0.1
    batch_size: int = 128
    policy_delay: int = 2
    buffer_capacity: int = 100_000
    target_noise: float = 0.0  # optional TD3 target smoothing, off by default
    target_noise_clip: float = 0.5
    rsc_noise: float = 0.1
    rsc_redraws: int = 8
    rsc_threshold_mult: float = 4.0

    def __post_init__(self):
        if self.algo not in ("td3", "ddpg"):
            raise ConfigError(f"unknown algo {self.algo!r}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must lie in [0, 1), got {self.gamma}")
        for name in ("actor_lr", "critic_lr", "tau_actor", "tau_critic",
                     "expl_sigma"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.batch_size < 1 or self.policy_delay < 1:
            raise ConfigError("batch_size and policy_delay must be >= 1")
        if self.buffer_capacity < 1:
            raise ConfigError("buffer_capacity must be >= 1")
        if self.target_noise < 0.0 or self.target_noise_clip <= 0.0:
            raise ConfigError("bad target smoothing settings")
        if self.rsc_noise < 0.0 or self.rsc_redraws < 0:
            raise ConfigError("bad relabel settings")
        if self.rsc_threshold_mult <= 0.0:
            raise ConfigError("rsc_threshold_mult must be positive")

    @classmethod
    def td3(cls, **kw) -> "AgentConfig":
        return cls(algo="td3", **kw)

    @classmethod
    def ddpg(cls, **kw) -> "AgentConfig":
        kw.setdefault("actor_lr", 1e-4)
        kw.setdefault("critic_lr", 1e-3)
        kw.setdefault("tau_actor", 1e-3)
        kw.setdefault("tau_critic", 5e-3)
        kw.setdefault("policy_delay", 1)
        return cls(algo="ddpg", **kw)

    @property
    def num_critics(self) -> int:
        return 2 if self.algo == "td3" else 1


class ReplayUsageError(RuntimeError):
    """Sampling more than the buffer holds, or from an empty buffer."""


@dataclass
class Batch:
    """A sampled training batch; arrays are copies, safe to relabel."""

    s: np.ndarray
    k: np.ndarray
    x: np.ndarray
    e: np.ndarray
    z: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray

    def __len__(self) -> int:
        return self.s.shape[0]


COLUMNS = tuple(f.name for f in fields(Batch))  # buffer arrays, in Batch order


class ReplayBuffer:
    """Preallocated ring buffer of hybrid transitions with executed latents."""

    def __init__(self, capacity: int, state_dim: int, max_param_dim: int,
                 d1: int, d2: int):
        if capacity < 1:
            raise ConfigError("buffer capacity must be >= 1")
        self.capacity = capacity
        self.s = np.zeros((capacity, state_dim))
        self.k = np.zeros(capacity, dtype=np.int64)
        self.x = np.zeros((capacity, max_param_dim))
        self.e = np.zeros((capacity, d1))
        self.z = np.zeros((capacity, d2))
        self.r = np.zeros(capacity)
        self.s_next = np.zeros((capacity, state_dim))
        self.done = np.zeros(capacity)
        self.size = 0
        self.cursor = 0

    def push(self, s, k: int, x_pad, e, z, r: float, s_next,
             done: bool) -> None:
        i = self.cursor
        self.s[i] = s
        self.k[i] = int(k)
        self.x[i] = x_pad
        self.e[i] = e
        self.z[i] = z
        self.r[i] = r
        self.s_next[i] = s_next
        self.done[i] = 1.0 if done else 0.0
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> Batch:
        """Uniform with replacement; fancy indexing hands back copies."""
        if self.size == 0:
            raise ReplayUsageError("cannot sample from an empty buffer")
        if n > self.size:
            raise ReplayUsageError(f"asked for {n} of {self.size} stored")
        idx = rng.integers(0, self.size, size=n)
        return Batch(*(getattr(self, c)[idx] for c in COLUMNS))

    def slot(self, prefix: str) -> nk.Slot:
        """Checkpoint slot of the stored rows (one entry per Batch column,
        cut to size) and the write cursor."""
        def save() -> dict:
            out = {f"{prefix}.{c}": getattr(self, c)[:self.size]
                   for c in COLUMNS}
            out[f"{prefix}.cursor"] = np.float64(self.cursor)
            return out

        def load(d: dict) -> None:
            n = nk.entry(d, f"{prefix}.s", (None,) + self.s.shape[1:]).shape[0]
            if n > self.capacity:
                raise nk.CheckpointError(
                    "checkpointed buffer exceeds configured capacity")
            cursor = nk.as_int(nk.entry(d, f"{prefix}.cursor", ()),
                               f"{prefix}.cursor", 0, self.capacity)
            for c in COLUMNS:
                arr = getattr(self, c)
                v = nk.entry(d, f"{prefix}.{c}", (n,) + arr.shape[1:])
                arr[:n] = np.rint(v) if arr.dtype.kind == "i" else v
            self.size, self.cursor = n, cursor
        return nk.Slot(save, load)


class AgentNets:
    """Actor, critic(s), their targets, and the matching Adam states."""

    def __init__(self, state_dim: int, d1: int, d2: int, config: AgentConfig,
                 rng: np.random.Generator):
        self.state_dim = state_dim
        self.d1 = d1
        self.d2 = d2
        self.config = config
        lat = d1 + d2
        self.actor_spec = nk.LayerSpec.mlp([state_dim, HIDDEN, HIDDEN, lat],
                                           out_act="tanh")
        self.critic_spec = nk.LayerSpec.mlp([state_dim + lat, HIDDEN, HIDDEN, 1])
        self.actor = nk.init_params(self.actor_spec, rng)
        self.critics = [nk.init_params(self.critic_spec, rng)
                        for _ in range(config.num_critics)]
        self.target_actor = self.actor.copy()
        self.target_critics = [c.copy() for c in self.critics]
        self.opt_actor = nk.AdamState(self.actor, lr=config.actor_lr)
        self.opt_critics = [nk.AdamState(c, lr=config.critic_lr)
                            for c in self.critics]
        self.fault_count = 0
        self.critic_updates = 0
        self.actor_updates = 0

    # ---- inference -----------------------------------------------------

    def _eval(self, spec: nk.LayerSpec, params: nk.ParameterSet,
              x: np.ndarray) -> np.ndarray:
        t = nk.Tape(record=False)
        out = nk.mlp_apply(t, spec, params.frozen_vars(), nk.const(x))
        return out.data

    def actor_raw(self, s: np.ndarray, target: bool = False) -> np.ndarray:
        """Pre-rescale policy output in [-1,1]^(d1+d2); single or batch."""
        params = self.target_actor if target else self.actor
        s = np.asarray(s, dtype=np.float64)
        if s.ndim == 1:
            return self._eval(self.actor_spec, params, s[None, :])[0]
        return self._eval(self.actor_spec, params, s)

    def critic_value(self, i: int, s: np.ndarray, lat: np.ndarray,
                     target: bool = False) -> np.ndarray:
        """Q_i(s, latent action) -> (B,)."""
        params = self.target_critics[i] if target else self.critics[i]
        sa = np.concatenate([s, lat], axis=1)
        return self._eval(self.critic_spec, params, sa)[:, 0]

    def sync_targets(self, tau_actor: float, tau_critic: float) -> None:
        nk.soft_update(self.target_actor, self.actor, tau_actor)
        for tc, c in zip(self.target_critics, self.critics):
            nk.soft_update(tc, c, tau_critic)

    def slots(self) -> list[nk.Slot]:
        """Checkpoint slots of every parameter set and Adam state."""
        out = (self.actor.slots("actor")
               + self.target_actor.slots("target_actor")
               + self.opt_actor.slots("opt_actor"))
        for i, (c, tc, oc) in enumerate(zip(self.critics, self.target_critics,
                                            self.opt_critics)):
            out += (c.slots(f"critic{i}") + tc.slots(f"target_critic{i}")
                    + oc.slots(f"opt_critic{i}"))
        return out


# ---- action selection and decoding ------------------------------------


def select_latent_action(nets: AgentNets, bounds: LatentBounds, s: np.ndarray,
                         explore: bool = False,
                         rng: np.random.Generator | None = None):
    """(e, z) for one state: tanh actor, noise pre-rescale, clip, rescale."""
    raw = nets.actor_raw(s)
    if explore:
        if rng is None:
            raise ValueError("explore=True needs an rng")
        raw = np.clip(raw + rng.normal(0.0, nets.config.expl_sigma,
                                       size=raw.shape), -1.0, 1.0)
    lat = bounds.rescale(raw)
    return lat[:nets.d1], lat[nets.d1:]


def decode_action(repr_model: ReprModel, s: np.ndarray, e: np.ndarray,
                  z: np.ndarray) -> HybridAction:
    """Nearest-row lookup for k, then decode z conditioned on the table row."""
    k = repr_model.nn_decode(e)
    row = repr_model.table[k]
    x_rec = repr_model.decode(z, np.asarray(s, np.float64), row)
    pd = repr_model.env_spec.param_dims[k]
    return HybridAction(k, np.clip(x_rec[:pd], -1.0, 1.0))


# ---- representation shift correction ----------------------------------


@dataclass
class RelabelStats:
    """How much of a batch the relabel pass touched."""

    discrete_relabeled: int = 0
    discrete_fallbacks: int = 0
    continuous_relabeled: int = 0


def relabel_batch(repr_model: ReprModel, batch: Batch, moving_dyn_loss: float,
                  rng: np.random.Generator, noise: float = 0.1,
                  redraws: int = 8,
                  threshold_mult: float = 4.0) -> tuple[Batch, RelabelStats]:
    """Correct stale latents against the current representation.

    Discrete: any e that no longer decodes to its stored k is replaced by the
    current table row plus N(0, noise) kept inside the row's Voronoi cell
    (up to `redraws` attempts, then the exact row).  Continuous: transitions
    whose dynamics-prediction error exceeds threshold_mult * moving_dyn_loss
    get z resampled from the encoder posterior.  Works on copies.
    """
    if moving_dyn_loss < 0.0:
        raise ValueError("moving_dyn_loss must be >= 0")
    stats = RelabelStats()
    e = batch.e.copy()
    z = batch.z.copy()
    ks = np.asarray(batch.k, dtype=np.int64)
    wrong = np.flatnonzero(repr_model.nn_decode_batch(e) != ks)
    for i in wrong:
        k = int(ks[i])
        row = repr_model.table[k]
        for _ in range(redraws):
            cand = row + rng.normal(0.0, noise, size=row.shape)
            if repr_model.nn_decode(cand) == k:
                e[i] = cand
                break
        else:
            e[i] = row
            stats.discrete_fallbacks += 1
        stats.discrete_relabeled += 1

    rows = repr_model.table[ks]
    _x_rec, delta = repr_model.decode_and_predict(z, batch.s, rows)
    err = np.sum((delta - (batch.s_next - batch.s)) ** 2, axis=1)
    over = np.flatnonzero(err > threshold_mult * moving_dyn_loss)
    if over.size:
        mu, log_std = repr_model.encode(batch.s[over], ks[over], batch.x[over])
        eps = rng.standard_normal(size=mu.shape)
        z[over] = nk.reparam_sample(mu, log_std, eps)
        stats.continuous_relabeled = int(over.size)
    return Batch(s=batch.s, k=batch.k, x=batch.x, e=e, z=z, r=batch.r,
                 s_next=batch.s_next, done=batch.done), stats


# ---- critic and actor losses (taped, shared by updates and gradcheck) --


def critic_loss_grads(nets: AgentNets, i: int, s: np.ndarray, lat: np.ndarray,
                      y: np.ndarray):
    """Mean squared TD error of critic i against fixed targets y."""
    t = nk.Tape()
    pv = nk.param_vars(nets.critics[i])
    sa = nk.const(np.concatenate([s, lat], axis=1))
    q = nk.mlp_apply(t, nets.critic_spec, pv, sa)
    loss = t.msq_to(q, y[:, None])
    t.backward(loss)
    grads = {n: v.grad for n, v in pv.items() if v.grad is not None}
    return float(loss.data), grads


def actor_loss_grads(nets: AgentNets, s: np.ndarray, bounds: LatentBounds):
    """-mean Q_1(s, rescale(actor(s))); gradient flows through the rescale."""
    t = nk.Tape()
    pv = nk.param_vars(nets.actor)
    raw = nk.mlp_apply(t, nets.actor_spec, pv, nk.const(s))
    lat = t.rescale(raw, bounds.scale, bounds.shift)
    sa = t.concat([nk.const(s), lat])
    q = nk.mlp_apply(t, nets.critic_spec, nets.critics[0].frozen_vars(), sa)
    loss = t.neg_mean(q)
    t.backward(loss)
    grads = {n: v.grad for n, v in pv.items() if v.grad is not None}
    return float(loss.data), grads


def td_targets(nets: AgentNets, config: AgentConfig, batch: Batch,
               bounds: LatentBounds,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """y = r + gamma * (1 - done) * min_j targetQ_j(s', target_actor(s'))."""
    raw = nets.actor_raw(batch.s_next, target=True)
    if config.target_noise > 0.0:
        if rng is None:
            raise ValueError("target_noise > 0 needs an rng")
        eps = np.clip(rng.normal(0.0, config.target_noise, size=raw.shape),
                      -config.target_noise_clip, config.target_noise_clip)
        raw = np.clip(raw + eps, -1.0, 1.0)
    lat = bounds.rescale(raw)
    qs = [nets.critic_value(j, batch.s_next, lat, target=True)
          for j in range(len(nets.target_critics))]
    q_min = qs[0] if len(qs) == 1 else np.minimum(qs[0], qs[1])
    return batch.r + config.gamma * (1.0 - batch.done) * q_min


def critic_update(nets: AgentNets, config: AgentConfig, batch: Batch,
                  bounds: LatentBounds,
                  rng: np.random.Generator | None = None) -> float:
    """One Adam step per critic on the clipped double-Q objective.

    Returns the mean critic loss (pre-update).  A numeric fault skips the
    faulting critic's step and bumps nets.fault_count instead of raising.
    """
    y = td_targets(nets, config, batch, bounds, rng)
    lat = np.concatenate([batch.e, batch.z], axis=1)
    losses = []
    for i in range(len(nets.critics)):
        loss, grads = critic_loss_grads(nets, i, batch.s, lat, y)
        try:
            nk.adam_step(nets.critics[i], grads, nets.opt_critics[i])
        except nk.NumericFault:
            nets.fault_count += 1
        losses.append(loss)
    nets.critic_updates += 1
    return float(np.mean(losses))


def actor_update(nets: AgentNets, config: AgentConfig, batch: Batch,
                 bounds: LatentBounds) -> float:
    """Deterministic policy gradient step, then soft-update every target."""
    loss, grads = actor_loss_grads(nets, batch.s, bounds)
    try:
        nk.adam_step(nets.actor, grads, nets.opt_actor)
    except nk.NumericFault:
        nets.fault_count += 1
        return loss
    nets.sync_targets(config.tau_actor, config.tau_critic)
    nets.actor_updates += 1
    return loss
