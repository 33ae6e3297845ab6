"""Latent-space policies over the hybrid action representation.

The actor emits a point in [-1,1]^(d1+d2) which is rescaled into the current
latent bounds, split into (e, z), and decoded through the representation into
an executable hybrid action.  TD3 keeps twin critics with clipped double-Q
targets and delayed actor updates; DDPG is the single-critic, every-step
variant.  Relabeling (both the discrete table lookup and the dynamics-gated
continuous resample) happens on sampled batch copies, never on the buffer.
Nets and buffer keep their state in nk.model_dtype() as of their building;
env states are cast once, where they enter.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import numkit as nk
from .errors import ConfigError, check_settings, setting
from .envs import HybridAction
from .representation import LatentBounds, ReprModel

HIDDEN = 256


@dataclass
class AgentConfig:
    """Hyperparameters for the latent policy and its training rules."""

    algo: str = "td3"
    gamma: float = setting(0.99, atleast=0.0, below=1.0)
    actor_lr: float = setting(3e-4, above=0.0)
    critic_lr: float = setting(3e-4, above=0.0)
    tau_actor: float = setting(5e-3, above=0.0, upto=1.0)
    tau_critic: float = setting(5e-3, above=0.0, upto=1.0)
    expl_sigma: float = setting(0.1, above=0.0)
    batch_size: int = setting(128, atleast=1)
    policy_delay: int = setting(2, atleast=1)
    buffer_capacity: int = setting(100_000, atleast=1)
    target_noise: float = setting(0.0, atleast=0.0)  # 0: no target smoothing
    target_noise_clip: float = setting(0.5, above=0.0)
    rsc_noise: float = setting(0.1, atleast=0.0)
    rsc_redraws: int = setting(8, atleast=0)
    rsc_threshold_mult: float = setting(4.0, above=0.0)

    def __post_init__(self):
        check_settings(self)
        if self.algo not in ("td3", "ddpg"):
            raise ConfigError(f"unknown algo {self.algo!r}")

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


def _column(width: str | None, dtype=None):
    """A Batch field and buffer column.  width: the ReplayBuffer argument
    giving its row length (None: a scalar); dtype None: nk.model_dtype()."""
    return field(metadata={"width": width, "dtype": dtype})


@dataclass
class Batch:
    """A sampled training batch; arrays are copies, safe to relabel.  Its
    fields, in order, are the replay buffer's columns."""

    s: np.ndarray = _column("state_dim")
    k: np.ndarray = _column(None, np.int64)
    x: np.ndarray = _column("max_param_dim")
    e: np.ndarray = _column("d1")
    z: np.ndarray = _column("d2")
    r: np.ndarray = _column(None)
    s_next: np.ndarray = _column("state_dim")
    done: np.ndarray = _column(None)

    def __len__(self) -> int:
        return self.s.shape[0]


COLUMNS = tuple(f.name for f in fields(Batch))  # buffer arrays, in Batch order


class ReplayBuffer:
    """Preallocated ring buffer of hybrid transitions with executed latents:
    one array per Batch field, (capacity, width) or (capacity,)."""

    def __init__(self, capacity: int, state_dim: int, max_param_dim: int,
                 d1: int, d2: int):
        if capacity < 1:
            raise ConfigError("buffer capacity must be >= 1")
        self.capacity = capacity
        widths = {"state_dim": state_dim, "max_param_dim": max_param_dim,
                  "d1": d1, "d2": d2}
        for f in fields(Batch):
            w = f.metadata["width"]
            shape = (capacity,) if w is None else (capacity, widths[w])
            setattr(self, f.name, np.zeros(
                shape, f.metadata["dtype"] or nk.model_dtype()))
        self.size = 0
        self.cursor = 0

    def push(self, *row) -> None:
        """Store one transition, its values in COLUMNS order, at the cursor;
        a None leaves that column's row as it is (the warm-up's latents)."""
        i = self.cursor
        for c, v in zip(COLUMNS, row, strict=True):
            if v is not None:
                getattr(self, c)[i] = v
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

    def slot(self, prefix: str, num_discrete: int) -> nk.Slot:
        """Checkpoint slot of the stored rows (one entry per Batch column,
        cut to size) and the write cursor.  Loaded columns must be finite
        and k integers in [0, num_discrete); below capacity the cursor must
        equal the size."""
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
            if n < self.capacity and cursor != n:
                raise nk.CheckpointError(
                    f"{prefix}.cursor: {cursor} but {n} rows below capacity")
            k = nk.entry(d, f"{prefix}.k", (n,))
            if not np.all((k == np.rint(k)) & (k >= 0) & (k < num_discrete)):
                raise nk.CheckpointError(
                    f"{prefix}.k: not all integers in [0, {num_discrete})")
            for c in COLUMNS:
                arr = getattr(self, c)
                v = nk.finite_entry(d, f"{prefix}.{c}", (n,) + arr.shape[1:])
                arr[:n] = np.rint(v) if arr.dtype.kind == "i" else v
            self.size, self.cursor = n, cursor
        return nk.Slot(save, load)


class AgentNets:
    """Actor, critic stack (a slice per critic), targets, Adam states."""

    # counters, in checkpoint order, each at its start value
    COUNTS = {"fault_count": 0, "critic_updates": 0, "actor_updates": 0}

    def __init__(self, state_dim: int, d1: int, d2: int, config: AgentConfig,
                 rng: np.random.Generator):
        self.d1 = d1
        self.d2 = d2
        self.config = config
        self.dtype = nk.model_dtype()
        lat = d1 + d2
        self.actor = nk.init_params([state_dim, HIDDEN, HIDDEN, lat], rng,
                                    self.dtype)
        qs = [nk.init_params([state_dim + lat, HIDDEN, HIDDEN, 1], rng)
              for _ in range(config.num_critics)]  # drawn one by one
        self.critic = nk.ParameterSet({n: np.stack([q[n] for q in qs])
                                       for n in qs[0].names()}, self.dtype)
        # stop Vars over critic 0's slices: Q_1, for the actor loss
        self.q1 = {n: nk.const(self.critic[n][0]) for n in self.critic.names()}
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.opt_actor = nk.AdamState(self.actor, lr=config.actor_lr)
        self.opt_critic = nk.AdamState(self.critic, lr=config.critic_lr)
        vars(self).update(self.COUNTS)

    # ---- inference -----------------------------------------------------

    def actor_raw(self, s: np.ndarray, target: bool = False) -> np.ndarray:
        """Pre-rescale policy output in [-1,1]^(d1+d2) for states s (B, .)."""
        params = self.target_actor if target else self.actor
        t = nk.Tape(record=False)
        x = nk.const(np.asarray(s, dtype=self.dtype))
        return t.tanh(nk.mlp_apply(t, params.frozen_vars(), x)).data

    def critic_values(self, s: np.ndarray, lat: np.ndarray,
                      target: bool = False) -> np.ndarray:
        """Every Q_i(s, latent action) -> (num_critics, B)."""
        params = self.target_critic if target else self.critic
        sa = nk.const(np.concatenate([s, lat], axis=1))
        return nk.mlp_apply(nk.Tape(record=False), params.frozen_vars(),
                            sa).data[..., 0]

    def sync_targets(self, tau_actor: float, tau_critic: float) -> None:
        nk.soft_update(self.target_actor, self.actor, tau_actor)
        nk.soft_update(self.target_critic, self.critic, tau_critic)

    def slots(self) -> list[nk.Slot]:
        """Checkpoint slots, each entry prefixed by its attribute's name."""
        return [slot for name in ("actor", "target_actor", "opt_actor",
                                  "critic", "target_critic", "opt_critic")
                for slot in getattr(self, name).slots(name)]


# ---- action selection and decoding ------------------------------------


def select_latent_action(nets: AgentNets, bounds: LatentBounds, s: np.ndarray,
                         rng: np.random.Generator | None = None):
    """(e, z) for one state: tanh actor, noise if rng is set, clip, rescale."""
    raw = nets.actor_raw(s[None])[0]
    if rng is not None:
        noise = rng.normal(0.0, nets.config.expl_sigma, size=raw.shape)
        raw = np.clip(raw + noise.astype(raw.dtype), -1.0, 1.0)
    lat = bounds.rescale(raw)
    return lat[:nets.d1], lat[nets.d1:]


def decode_action(repr_model: ReprModel, s: np.ndarray, e: np.ndarray,
                  z: np.ndarray) -> HybridAction:
    """Nearest-row lookup for k, then decode z conditioned on the table row."""
    k = int(repr_model.nn_decode_batch(e[None])[0])
    row = repr_model.table[k]
    x_rec = repr_model.decode(z[None], s[None], row[None])[0]
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
    current table row plus N(0, noise) kept inside the row's Voronoi cell.
    Each such row gets `redraws` candidates, drawn for the whole batch as
    one normal block and decoded in one pass in the dtype of batch.e (which
    stores them); it takes the first that decodes to k, or else the exact
    row.  Continuous: transitions whose dynamics-prediction error exceeds
    threshold_mult * moving_dyn_loss get z resampled from the encoder
    posterior.  Works on copies.
    """
    if moving_dyn_loss < 0.0:
        raise ValueError("moving_dyn_loss must be >= 0")
    stats = RelabelStats()
    e = batch.e.copy()
    z = batch.z.copy()
    ks = np.asarray(batch.k, dtype=np.int64)
    wrong = np.flatnonzero(repr_model.nn_decode_batch(e) != ks)
    n, d1 = wrong.size, e.shape[1]
    if n:
        k = ks[wrong]
        exact = repr_model.table[k][:, None].astype(e.dtype)
        cand = (exact + rng.normal(0.0, noise, size=(n, redraws, d1))).astype(
            e.dtype)
        hit = repr_model.nn_decode_batch(cand.reshape(-1, d1)).reshape(
            n, redraws) == k[:, None]
        # the exact row is each row's last candidate, and always qualifies
        first = np.argmax(np.c_[hit, np.ones(n, bool)], axis=1)
        e[wrong] = np.concatenate([cand, exact], axis=1)[np.arange(n), first]
        stats.discrete_relabeled = n
        stats.discrete_fallbacks = int(np.sum(first == redraws))

    rows = repr_model.table[ks]
    _x_rec, delta = repr_model.decode_and_predict(z, batch.s, rows)
    err = np.sum((delta - (batch.s_next - batch.s)) ** 2, axis=1)
    over = np.flatnonzero(err > threshold_mult * moving_dyn_loss)
    if over.size:
        mu, log_std = repr_model.encode(batch.s[over], ks[over], batch.x[over])
        eps = rng.standard_normal(size=mu.shape)
        z[over] = nk.reparam_sample(mu, log_std, eps)
        stats.continuous_relabeled = int(over.size)
    return replace(batch, e=e, z=z), stats


# ---- critic and actor losses (taped, shared by updates and gradcheck) --


def critic_loss_grads(nets: AgentNets, s: np.ndarray, lat: np.ndarray,
                      y: np.ndarray):
    """(float64 losses (num_critics,), the stack's .grad): each critic's mean
    squared TD error against y and, in its slice, that mean's gradient.
    Seeding the all-critic mean with num_critics gives each the bits of its
    own mean's gradient: n / (n * B) rounds as 1 / B does."""
    t = nk.Tape()
    sa = nk.const(np.concatenate([s, lat], axis=1))
    q = nk.mlp_apply(t, nets.critic.grad_vars(), sa)
    sq = t.sq_dist(q, y[:, None])
    t.backward(t.mean(sq), seed=np.float64(len(sq.data)))
    return np.mean(sq.data, axis=-1).astype(np.float64), nets.critic.grad


def actor_loss_grads(nets: AgentNets, s: np.ndarray, bounds: LatentBounds):
    """(loss, actor .grad) of -mean Q_1(s, rescale(actor(s))), the mean run
    backward from seed -1; the gradient flows through the rescale."""
    t = nk.Tape()
    raw = t.tanh(nk.mlp_apply(t, nets.actor.grad_vars(), nk.const(s)))
    lat = t.rescale(raw, bounds.scale, bounds.shift)
    sa = t.concat([nk.const(s), lat])
    q = nk.mlp_apply(t, nets.q1, sa)
    mean_q = t.mean(q)
    t.backward(mean_q, seed=np.float64(-1.0))
    return -float(mean_q.data), nets.actor.grad


def td_targets(nets: AgentNets, batch: Batch, bounds: LatentBounds,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """y = r + gamma * (1 - done) * min_j targetQ_j(s', target_actor(s'))."""
    config = nets.config
    raw = nets.actor_raw(batch.s_next, target=True)
    if config.target_noise > 0.0:
        if rng is None:
            raise ValueError("target_noise > 0 needs an rng")
        eps = np.clip(rng.normal(0.0, config.target_noise, size=raw.shape),
                      -config.target_noise_clip, config.target_noise_clip)
        raw = np.clip(raw + eps.astype(raw.dtype), -1.0, 1.0)
    lat = bounds.rescale(raw)
    q = np.minimum.reduce(nets.critic_values(batch.s_next, lat, target=True))
    return batch.r + config.gamma * (1.0 - batch.done) * q


def critic_update(nets: AgentNets, batch: Batch, bounds: LatentBounds,
                  rng: np.random.Generator | None = None) -> float:
    """One Adam step of the critic stack on the clipped double-Q objective.

    Returns the mean critic loss (pre-update).  If any critic's gradient is
    not finite, no critic moves, and nets.fault_count counts every critic.
    """
    y = td_targets(nets, batch, bounds, rng)
    lat = np.concatenate([batch.e, batch.z], axis=1)
    losses, grads = critic_loss_grads(nets, batch.s, lat, y)
    if not nk.adam_step(nets.critic, grads, nets.opt_critic):
        nets.fault_count += len(losses)
    nets.critic_updates += 1
    return float(np.mean(losses))


def actor_update(nets: AgentNets, batch: Batch, bounds: LatentBounds) -> float:
    """Deterministic policy gradient step, then soft-update every target."""
    loss, grads = actor_loss_grads(nets, batch.s, bounds)
    if not nk.adam_step(nets.actor, grads, nets.opt_actor):
        nets.fault_count += 1
        return loss
    nets.sync_targets(nets.config.tau_actor, nets.config.tau_critic)
    nets.actor_updates += 1
    return loss
