"""Hybrid action representation: embedding table + conditional VAE + dynamics head.

The table embeds discrete actions in R^d1; the VAE embeds continuous
parameters in R^d2 conditioned on (state, table row) through element-wise
product branches.  The decoder's shared trunk feeds the reconstruction head
directly and a cascaded 256-unit layer feeds the state-residual prediction
head, so the two heads share everything except their last layers.  All
parameters (table included) live in one flat ParameterSet and train jointly
with a single Adam state.  Parameters, masks and every array fed to the
networks are in the model's dtype (nk.model_dtype() when it was built);
inputs are cast once where they enter.
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
    skipped: bool = False  # update rejected: the gradient was not finite


@dataclass
class LatentBounds:
    """Per-dimension central range [lower, upper] of observed latents, in
    nk.model_dtype(), and the map u * scale + shift of [-1, 1] onto it."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        dtype = nk.model_dtype()
        self.lower = np.asarray(self.lower, dtype)
        self.upper = np.asarray(self.upper, dtype)
        if self.lower.shape != self.upper.shape:
            raise nk.ShapeError("bounds shape mismatch")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        self.scale = (self.upper - self.lower) / 2.0
        self.shift = self.lower + self.scale

    def rescale(self, u: np.ndarray) -> np.ndarray:
        """Map raw actor output in [-1,1] onto [lower, upper] per dimension:
        the expression Tape.rescale evaluates, so acting, TD targets and the
        actor loss see the same bits."""
        return u * self.scale + self.shift


def percentile_pair(c: float) -> tuple[float, float]:
    """The central-range percentiles: c=96 -> (2, 98); c must lie in
    (0, 100]."""
    if not 0.0 < c <= 100.0:
        raise ValueError(f"c must lie in (0, 100], got {c}")
    return (100.0 - c) / 2.0, (100.0 + c) / 2.0


ROW_COLLISION_DIST = 1e-6
ROW_REPAIR_NOISE = 0.01


class ReprModel:
    """Embedding table, encoder q_phi, decoder/prediction p_psi and the losses."""

    def __init__(self, env_spec: EnvSpec, d1: int = 6, d2: int = 6,
                 lr: float = 1e-4, *, rng: np.random.Generator):
        self.env_spec = env_spec
        self.dtype = nk.model_dtype()
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
        self.params = nk.ParameterSet(entries, self.dtype)
        self.opt = nk.AdamState(self.params, lr=lr)
        # mask_table[k] selects action k's valid parameter dims
        self.mask_table = np.zeros((env_spec.num_discrete, mp), self.dtype)
        for k, pd in enumerate(env_spec.param_dims):
            self.mask_table[k, :pd] = 1.0
        self._decode_key = None  # table bytes behind _decode_terms
        self._decode_terms = None
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

    def nn_decode_batch(self, e: np.ndarray) -> np.ndarray:
        """Index of the nearest table row for each row of e (B, d1); ties go
        to the smallest index.  One float64 GEMM scores row k as
        |t_k|^2 - 2 e.t_k (|e|^2 is the same for every k): its error near
        1e-15 resolves the 1e-12 squared gaps repair_rows keeps, where
        float32 scores err by about 1e-7.  e is widened exactly, so a caller
        that stores e checks the value it stores.  The table's terms, -2 T^T
        and the row norms, are kept until the table's bytes change: Adam,
        repair_rows and a checkpoint load all write the table in place."""
        key = self.table.tobytes()
        if key != self._decode_key:
            t = self.table.astype(np.float64)
            self._decode_terms = (-2.0 * t.T, np.einsum("kd,kd->k", t, t))
            self._decode_key = key
        neg2t, norms = self._decode_terms
        score = np.asarray(e, np.float64) @ neg2t
        score += norms
        return np.argmin(score, axis=1)

    def repair_rows(self, rng: np.random.Generator) -> int:
        """Re-perturb colliding rows until all pairwise distances exceed the
        threshold.  Returns the number of perturbations applied.  Distances
        are taken in float64: Gram-form float32 ones err by about 1e-7."""
        E = self.table
        fixes = 0
        while True:
            E64 = E.astype(np.float64)
            g = E64 @ E64.T
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
        """(mu, log_std), each (B, d2), for states s (B, state_dim), discrete
        actions k (B,) and padded parameters x_pad (B, max_param_dim)."""
        kb = np.asarray(k, dtype=np.int64)
        # padded dims never reach the encoder
        xb = np.asarray(x_pad, dtype=self.dtype) * self.mask_table[kb]
        cond = np.concatenate([s, self.table[kb]], axis=1).astype(self.dtype)
        mu, ls = self._encode_graph(nk.Tape(record=False),
                                    self.params.frozen_vars(), nk.const(xb),
                                    nk.const(cond))
        return mu.data, ls.data

    def _inference_trunk(self, z, s, e):
        """(tape, params, trunk) of a no-record decoder pass over batches."""
        t = nk.Tape(record=False)
        pv = self.params.frozen_vars()
        cond = np.concatenate([s, e], axis=1).astype(self.dtype)
        zb = np.asarray(z, dtype=self.dtype)
        return t, pv, self._decode_trunk(t, pv, nk.const(zb), nk.const(cond))

    def decode(self, z: np.ndarray, s: np.ndarray, e: np.ndarray) -> np.ndarray:
        """x_tilde (B, max_param_dim) from latents z (B, d2) conditioned on
        states s and table rows e; no dynamics head."""
        t, pv, trunk = self._inference_trunk(z, s, e)
        return self._recon_head(t, pv, trunk).data

    def decode_and_predict(self, z: np.ndarray, s: np.ndarray, e: np.ndarray):
        """(x_tilde, delta_tilde) from latents z conditioned on (s, e)."""
        t, pv, trunk = self._inference_trunk(z, s, e)
        return (self._recon_head(t, pv, trunk).data,
                self._dyn_head(t, pv, trunk).data)

    # ---- losses and training ------------------------------------------

    def _loss_graph(self, t: nk.Tape, pv, s, k, x_pad, s_next, beta: float,
                    kl_weight: float, noise: np.ndarray):
        """(total_var, record) of the full loss on tape t over parameters pv."""
        s = np.asarray(s, dtype=self.dtype)
        if s.shape[0] == 0:
            raise ValueError("empty batch")
        kb = np.asarray(k, dtype=np.int64)
        rows = t.rows(pv["table"], kb)
        cond = t.concat([nk.const(s), rows])
        # zero the padded dims before anything sees them: the whole loss is
        # then invariant to whatever garbage the padding carries
        mask = self.mask_table[kb]
        x_masked = np.asarray(x_pad, dtype=self.dtype) * mask
        mu, log_std = self._encode_graph(t, pv, nk.const(x_masked), cond)
        z = t.gaussian(mu, log_std, np.asarray(noise, dtype=self.dtype))
        trunk = self._decode_trunk(t, pv, z, cond)
        x_rec = self._recon_head(t, pv, trunk)
        delta = self._dyn_head(t, pv, trunk)
        recon = t.mean(t.sq_dist(x_rec, x_masked, mask))
        kl = t.mean(t.kl_std_normal(mu, log_std))
        dyn = t.mean(t.sq_dist(delta, np.asarray(s_next, self.dtype) - s))
        vae = t.add_scaled(recon, kl, kl_weight)
        total = t.add_scaled(vae, dyn, beta)
        record = ReprLossRecord(total=float(total.data), vae=float(vae.data),
                                dyn=float(dyn.data), recon=float(recon.data),
                                kl=float(kl.data))
        return total, record

    def hyar_loss(self, s, k, x_pad, s_next, beta: float = 10.0,
                  kl_weight: float = 0.5, *,
                  noise: np.ndarray) -> ReprLossRecord:
        """Loss components only: no update, and .grad is left untouched."""
        _total, record = self._loss_graph(
            nk.Tape(record=False), self.params.frozen_vars(), s, k, x_pad,
            s_next, beta, kl_weight, noise)
        return record

    def loss_grads(self, s, k, x_pad, s_next, beta: float, kl_weight: float,
                   noise: np.ndarray) -> tuple[ReprLossRecord, np.ndarray]:
        """Loss plus its flat gradient over every parameter (self.params.grad)."""
        t = nk.Tape()
        total, record = self._loss_graph(t, self.params.grad_vars(), s, k,
                                         x_pad, s_next, beta, kl_weight, noise)
        t.backward(total)
        return record, self.params.grad

    def repr_train_batch(self, s, k, x_pad, s_next, rng: np.random.Generator,
                         beta: float = 10.0,
                         kl_weight: float = 0.5) -> ReprLossRecord:
        """One joint Adam step on (zeta, phi, psi), then the table repair.
        A non-finite gradient skips both, and the record says so."""
        noise = rng.standard_normal(size=(np.shape(s)[0], self.d2))
        record, grads = self.loss_grads(s, k, x_pad, s_next, beta, kl_weight,
                                        noise)
        record.skipped = not nk.adam_step(self.params, grads, self.opt)
        if not record.skipped:
            self.repair_rows(rng)
        return record

    # ---- latent bounds and export -------------------------------------

    def latents_of(self, s, k, x_pad) -> np.ndarray:
        """[table row; encoder mean] for each sample -> (M, d1+d2)."""
        kb = np.asarray(k, dtype=np.int64)
        mu, _ls = self.encode(s, kb, x_pad)
        return np.concatenate([self.table[kb], mu], axis=1)

    def latent_bounds(self, s, k, x_pad, c: float = 96.0) -> LatentBounds:
        s = np.asarray(s)
        if s.shape[0] < 100:
            raise ValueError(f"need at least 100 samples, got {s.shape[0]}")
        lat = self.latents_of(s, k, x_pad)
        lo_p, hi_p = percentile_pair(c)
        lower = np.percentile(lat, lo_p, axis=0, method="linear")
        upper = np.percentile(lat, hi_p, axis=0, method="linear")
        return LatentBounds(lower, upper)

    def export_latents(self, s, k, x_pad, s_next, path: str) -> int:
        """CSV rows (e..., z..., k, dyn_error) using the encoder mean as z."""
        kb = np.asarray(k, dtype=np.int64)
        s = np.asarray(s, dtype=self.dtype)
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
