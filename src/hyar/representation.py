"""Hybrid action representation: embedding table + conditional VAE + dynamics head.

The table embeds discrete actions in R^d1; the VAE embeds continuous
parameters in R^d2 conditioned on (state, table row) through element-wise
product branches.  The decoder's shared trunk feeds the reconstruction head
directly and a cascaded 256-unit layer feeds the state-residual prediction
head, so the two heads share everything except their last layers.  All
parameters (table included) live in one flat ParameterSet and train jointly
with a single Adam state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .envs import EnvSpec

HIDDEN = 256


@dataclass
class ReprLossRecord:
    """One training/evaluation pass of the representation loss."""

    total: float
    vae: float
    dyn: float
    recon: float
    kl: float
    skipped: bool = False  # update rejected on a numeric fault


@dataclass
class LatentBounds:
    """Per-dimension c-percentage central range of observed latents."""

    lower: np.ndarray
    upper: np.ndarray
    c: float

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        self.c = float(self.c)
        if self.lower.shape != self.upper.shape:
            raise nk.ShapeError("bounds shape mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")

    def rescale(self, u: np.ndarray) -> np.ndarray:
        """Map raw actor output in [-1,1] onto [lower, upper] per dimension."""
        half = (self.upper - self.lower) / 2.0
        return self.lower + (u + 1.0) * half

    @property
    def scale(self) -> np.ndarray:
        return (self.upper - self.lower) / 2.0

    @property
    def shift(self) -> np.ndarray:
        return self.lower + (self.upper - self.lower) / 2.0


def percentile_pair(c: float) -> tuple[float, float]:
    """The central-range percentiles: c=96 -> (2, 98)."""
    return (100.0 - c) / 2.0, (100.0 + c) / 2.0


ROW_COLLISION_DIST = 1e-6
ROW_REPAIR_NOISE = 0.01


class ReprModel:
    """Embedding table, encoder q_phi, decoder/prediction p_psi and the losses."""

    def __init__(self, env_spec: EnvSpec, d1: int = 6, d2: int = 6,
                 lr: float = 1e-4, rng: np.random.Generator | None = None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.env_spec = env_spec
        self.d1 = d1
        self.d2 = d2
        sd = env_spec.state_dim
        mp = env_spec.max_param_dim
        if mp < 1:
            raise nk.ShapeError("need at least one continuous parameter dim")
        cond = sd + d1

        def lin(name: str, din: int, dout: int, entries: dict) -> None:
            bound = 1.0 / np.sqrt(din)
            entries[f"{name}.W"] = rng.uniform(-bound, bound, size=(dout, din))
            entries[f"{name}.b"] = rng.uniform(-bound, bound, size=dout)

        entries: dict = {"table": rng.uniform(-1.0, 1.0,
                                              size=(env_spec.num_discrete, d1))}
        lin("enc_x", mp, HIDDEN, entries)
        lin("enc_c", cond, HIDDEN, entries)
        lin("enc_t", HIDDEN, HIDDEN, entries)
        lin("enc_mu", HIDDEN, d2, entries)
        lin("enc_ls", HIDDEN, d2, entries)
        lin("dec_z", d2, HIDDEN, entries)
        lin("dec_c", cond, HIDDEN, entries)
        lin("dec_t", HIDDEN, HIDDEN, entries)
        lin("dec_x", HIDDEN, mp, entries)
        lin("dec_cas", HIDDEN, HIDDEN, entries)
        lin("dec_d", HIDDEN, sd, entries)
        self.params = nk.ParameterSet(entries)
        self.opt = nk.AdamState(self.params, lr=lr)
        # mask_table[k] selects action k's valid parameter dims
        self.mask_table = np.zeros((env_spec.num_discrete, mp))
        for k, pd in enumerate(env_spec.param_dims):
            self.mask_table[k, :pd] = 1.0
        self.repair_rows(rng)

    # ---- parameter grouping (zeta / phi / psi0 / psi1 / psi2) ----------

    def groups(self) -> dict[str, list[str]]:
        g = {"zeta": ["table"],
             "phi": [], "psi0": [], "psi1": [], "psi2": []}
        for name in self.params.names():
            if name.startswith("enc_"):
                g["phi"].append(name)
            elif name.startswith(("dec_z", "dec_c", "dec_t")):
                g["psi0"].append(name)
            elif name.startswith("dec_x"):
                g["psi1"].append(name)
            elif name.startswith(("dec_cas", "dec_d")):
                g["psi2"].append(name)
        return g

    # ---- embedding table ----------------------------------------------

    @property
    def table(self) -> np.ndarray:
        return self.params["table"]

    def embed_lookup(self, k: int) -> np.ndarray:
        K = self.env_spec.num_discrete
        if not 0 <= int(k) < K:
            raise IndexError(f"discrete action {k} out of range [0, {K})")
        return self.table[int(k)].copy()

    def nn_decode(self, e: np.ndarray) -> int:
        d = self.table - np.asarray(e, dtype=np.float64)
        return int(np.argmin(np.einsum("kd,kd->k", d, d)))

    def nn_decode_batch(self, e: np.ndarray) -> np.ndarray:
        d = self.table[None, :, :] - np.asarray(e, dtype=np.float64)[:, None, :]
        return np.argmin(np.einsum("bkd,bkd->bk", d, d), axis=1)

    def repair_rows(self, rng: np.random.Generator) -> int:
        """Re-perturb colliding rows until all pairwise distances exceed the
        threshold.  Returns the number of perturbations applied."""
        E = self.table
        K = E.shape[0]
        fixes = 0
        while True:
            g = E @ E.T
            sq = np.diag(g)[:, None] + np.diag(g)[None, :] - 2.0 * g
            np.fill_diagonal(sq, np.inf)
            i, j = np.unravel_index(np.argmin(sq), sq.shape)
            if sq[i, j] > ROW_COLLISION_DIST ** 2:
                return fixes
            row = max(i, j)
            E[row] += rng.uniform(-ROW_REPAIR_NOISE, ROW_REPAIR_NOISE,
                                  size=E.shape[1])
            fixes += 1

    # ---- forward graphs ------------------------------------------------

    def _encode_graph(self, t: nk.Tape, pv, x: nk.Var, cond: nk.Var):
        hx = t.relu(t.affine(x, pv["enc_x.W"], pv["enc_x.b"]))
        hc = t.relu(t.affine(cond, pv["enc_c.W"], pv["enc_c.b"]))
        h = t.relu(t.affine(t.mul(hx, hc), pv["enc_t.W"], pv["enc_t.b"]))
        mu = t.affine(h, pv["enc_mu.W"], pv["enc_mu.b"])
        log_std = t.clip(t.affine(h, pv["enc_ls.W"], pv["enc_ls.b"]),
                         nk.LOG_STD_MIN, nk.LOG_STD_MAX)
        return mu, log_std

    def _decode_trunk(self, t: nk.Tape, pv, z: nk.Var, cond: nk.Var):
        hz = t.relu(t.affine(z, pv["dec_z.W"], pv["dec_z.b"]))
        hc = t.relu(t.affine(cond, pv["dec_c.W"], pv["dec_c.b"]))
        return t.relu(t.affine(t.mul(hz, hc), pv["dec_t.W"], pv["dec_t.b"]))

    def _recon_head(self, t: nk.Tape, pv, trunk: nk.Var):
        return t.affine(trunk, pv["dec_x.W"], pv["dec_x.b"])

    def _dyn_head(self, t: nk.Tape, pv, trunk: nk.Var):
        cas = t.relu(t.affine(trunk, pv["dec_cas.W"], pv["dec_cas.b"]))
        return t.affine(cas, pv["dec_d.W"], pv["dec_d.b"])

    # ---- public inference ---------------------------------------------

    def encode(self, s: np.ndarray, k, x_pad: np.ndarray):
        """(mu, log_std) for state s, discrete action k, padded parameters."""
        s = np.asarray(s, dtype=np.float64)
        single = s.ndim == 1
        sb = s[None, :] if single else s
        kb = np.atleast_1d(np.asarray(k, dtype=np.int64))
        xb = np.asarray(x_pad, dtype=np.float64)
        xb = xb[None, :] if xb.ndim == 1 else xb
        xb = xb * self.mask_table[kb]  # padded dims never reach the encoder
        t = nk.Tape(record=False)
        cond = np.concatenate([sb, self.table[kb]], axis=1)
        mu, ls = self._encode_graph(t, self.params.frozen_vars(), nk.const(xb),
                                    nk.const(cond))
        if single:
            return mu.data[0], ls.data[0]
        return mu.data, ls.data

    def _inference_trunk(self, z, s, e):
        """(single, tape, params, trunk) of a no-record decoder pass."""
        z = np.asarray(z, dtype=np.float64)
        single = z.ndim == 1
        zb = z[None, :] if single else z
        sb = np.asarray(s, dtype=np.float64)
        sb = sb[None, :] if sb.ndim == 1 else sb
        eb = np.asarray(e, dtype=np.float64)
        eb = eb[None, :] if eb.ndim == 1 else eb
        t = nk.Tape(record=False)
        pv = self.params.frozen_vars()
        cond = nk.const(np.concatenate([sb, eb], axis=1))
        return single, t, pv, self._decode_trunk(t, pv, nk.const(zb), cond)

    def decode(self, z: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """x_tilde from latent z conditioned on (s, e); no dynamics head."""
        single, t, pv, trunk = self._inference_trunk(z, s, e)
        x_rec = self._recon_head(t, pv, trunk).data
        return x_rec[0] if single else x_rec

    def decode_and_predict(self, z: np.ndarray, s: np.ndarray, e: np.ndarray):
        """(x_tilde, delta_tilde) from latent z conditioned on (s, e)."""
        single, t, pv, trunk = self._inference_trunk(z, s, e)
        x_rec = self._recon_head(t, pv, trunk).data
        delta = self._dyn_head(t, pv, trunk).data
        if single:
            return x_rec[0], delta[0]
        return x_rec, delta

    # ---- losses and training ------------------------------------------

    def _loss_graph(self, s, k, x_pad, s_next, beta: float, kl_weight: float,
                    noise: np.ndarray):
        """Build the full taped loss; returns (tape, loss_var, pvars, record)."""
        B = s.shape[0]
        if B == 0:
            raise ValueError("empty batch")
        t = nk.Tape()
        pv = nk.param_vars(self.params)
        kb = np.asarray(k, dtype=np.int64)
        rows = t.rows(pv["table"], kb)
        cond = t.concat([nk.const(s), rows])
        # zero the padded dims before anything sees them: the whole loss is
        # then invariant to whatever garbage the padding carries
        mask = self.mask_table[kb]
        x_masked = x_pad * mask
        mu, log_std = self._encode_graph(t, pv, nk.const(x_masked), cond)
        z = t.gaussian(mu, log_std, noise)
        trunk = self._decode_trunk(t, pv, z, cond)
        x_rec = self._recon_head(t, pv, trunk)
        delta = self._dyn_head(t, pv, trunk)
        recon = t.mean(t.sq_dist(x_rec, x_masked, mask))
        kl = t.mean(t.kl_std_normal(mu, log_std))
        dyn = t.mean(t.sq_dist(delta, s_next - s))
        vae = t.add_scaled(recon, kl, kl_weight)
        total = t.add_scaled(vae, dyn, beta)
        record = ReprLossRecord(total=float(total.data), vae=float(vae.data),
                                dyn=float(dyn.data), recon=float(recon.data),
                                kl=float(kl.data))
        return t, total, pv, record

    def hyar_loss(self, s, k, x_pad, s_next, beta: float = 10.0,
                  kl_weight: float = 0.5,
                  noise: np.ndarray | None = None,
                  rng: np.random.Generator | None = None) -> ReprLossRecord:
        """Loss components only (no update).  noise may be frozen by tests."""
        s = np.asarray(s, dtype=np.float64)
        if noise is None:
            if rng is None:
                raise ValueError("need noise or rng")
            noise = rng.standard_normal(size=(s.shape[0], self.d2))
        _t, _total, _pv, record = self._loss_graph(
            s, k, np.asarray(x_pad, dtype=np.float64),
            np.asarray(s_next, dtype=np.float64), beta, kl_weight, noise)
        return record

    def loss_grads(self, s, k, x_pad, s_next, beta: float, kl_weight: float,
                   noise: np.ndarray) -> tuple[ReprLossRecord, dict]:
        """Loss plus analytic gradients for every parameter (for checking)."""
        t, total, pv, record = self._loss_graph(
            np.asarray(s, dtype=np.float64), k,
            np.asarray(x_pad, dtype=np.float64),
            np.asarray(s_next, dtype=np.float64), beta, kl_weight, noise)
        t.backward(total)
        grads = {n: (v.grad if v.grad is not None else np.zeros_like(v.data))
                 for n, v in pv.items()}
        return record, grads

    def repr_train_batch(self, s, k, x_pad, s_next, rng: np.random.Generator,
                         beta: float = 10.0,
                         kl_weight: float = 0.5) -> ReprLossRecord:
        """One joint Adam step on (zeta, phi, psi).  Numeric faults skip the
        update (flagged in the record) instead of raising."""
        s = np.asarray(s, dtype=np.float64)
        noise = rng.standard_normal(size=(s.shape[0], self.d2))
        t, total, pv, record = self._loss_graph(
            s, k, np.asarray(x_pad, dtype=np.float64),
            np.asarray(s_next, dtype=np.float64), beta, kl_weight, noise)
        t.backward(total)
        grads = {n: v.grad for n, v in pv.items() if v.grad is not None}
        try:
            nk.adam_step(self.params, grads, self.opt)
        except nk.NumericFault:
            record.skipped = True
            return record
        self.repair_rows(rng)
        return record

    # ---- latent bounds and export -------------------------------------

    def latents_of(self, s, k, x_pad) -> np.ndarray:
        """[table row; encoder mean] for each sample -> (M, d1+d2)."""
        kb = np.asarray(k, dtype=np.int64)
        mu, _ls = self.encode(s, kb, x_pad)
        return np.concatenate([self.table[kb], mu], axis=1)

    def latent_bounds(self, s, k, x_pad, c: float = 96.0) -> LatentBounds:
        s = np.asarray(s, dtype=np.float64)
        if s.shape[0] < 100:
            raise ValueError(f"need at least 100 samples, got {s.shape[0]}")
        if not 0.0 < c <= 100.0:
            raise ValueError(f"c must lie in (0, 100], got {c}")
        lat = self.latents_of(s, k, x_pad)
        lo_p, hi_p = percentile_pair(c)
        lower = np.percentile(lat, lo_p, axis=0, method="linear")
        upper = np.percentile(lat, hi_p, axis=0, method="linear")
        return LatentBounds(lower, upper, c)

    def export_latents(self, s, k, x_pad, s_next, path: str) -> int:
        """CSV rows (e..., z..., k, dyn_error) using the encoder mean as z."""
        kb = np.asarray(k, dtype=np.int64)
        s = np.asarray(s, dtype=np.float64)
        mu, _ls = self.encode(s, kb, x_pad)
        e = self.table[kb]
        _x_rec, delta = self.decode_and_predict(mu, s, e)
        err = np.sum((delta - (np.asarray(s_next) - s)) ** 2, axis=1)
        header = ([f"e{i}" for i in range(self.d1)]
                  + [f"z{i}" for i in range(self.d2)] + ["k", "dyn_error"])
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for i in range(s.shape[0]):
                vals = [repr(float(v)) for v in e[i]] \
                    + [repr(float(v)) for v in mu[i]] \
                    + [str(int(kb[i])), repr(float(err[i]))]
                fh.write(",".join(vals) + "\n")
        return s.shape[0]
