"""Finite-difference integrity suite over every trainable loss head.

Checks the representation loss (embedding table, encoder, decoder trunk and
both heads) and the policy losses (actor through the bound rescale, the
critic stack on its critics' summed losses) on frozen random batches of 8.
Central differences, h = 1e-5, float64 throughout: the models are built
under nk.float64_models(), the one way to leave the float32 training policy.
"""
from __future__ import annotations

import numpy as np

from .. import numkit as nk
from ..agents import (AgentConfig, AgentNets, Batch, actor_loss_grads,
                      critic_loss_grads, td_targets)
from ..envs import make
from ..representation import LatentBounds, ReprModel

TOLERANCE = 1e-4
_GROUP_LABELS = {"zeta": "repr.table", "phi": "repr.encoder",
                 "psi0": "repr.decoder_trunk", "psi1": "repr.recon_head",
                 "psi2": "repr.dyn_head"}


@nk.float64_models()
def gradcheck_suite(samples_per_entry: int = 4, seed: int = 0) -> dict:
    """Name -> max relative error per checked head; key "max" is the worst."""
    spec = make("platform").spec()
    rng = np.random.default_rng(seed)
    B = 8
    results: dict[str, float] = {}

    model = ReprModel(spec, rng=rng)
    s = rng.normal(size=(B, spec.state_dim))
    k = rng.integers(0, spec.num_discrete, size=B)
    x = rng.uniform(-1, 1, size=(B, spec.max_param_dim))
    s_next = s + 0.1 * rng.normal(size=s.shape)
    noise = rng.standard_normal(size=(B, model.d2))
    weights = (10.0, 0.5)  # beta, kl_weight: the same for both losses
    _rec, grads = model.loss_grads(s, k, x, s_next, *weights, noise)

    def repr_loss() -> float:
        return model.hyar_loss(s, k, x, s_next, *weights, noise=noise).total

    report = nk.finite_diff_check(repr_loss, model.params, grads,
                                  samples_per_entry=samples_per_entry,
                                  rng=np.random.default_rng(seed + 1))
    for group, names in model.groups().items():
        results[_GROUP_LABELS[group]] = max(report[n] for n in names)

    nets = AgentNets(spec.state_dim, model.d1, model.d2, AgentConfig.td3(),
                     rng)
    lo = rng.uniform(-2.0, -0.5, size=model.d1 + model.d2)
    hi = rng.uniform(0.5, 2.0, size=model.d1 + model.d2)
    bounds = LatentBounds(lo, hi)
    batch = Batch(s=s, k=k, x=x, e=model.table[k].copy(),
                  z=rng.normal(size=(B, model.d2)), r=rng.normal(size=B),
                  s_next=s_next, done=np.zeros(B))
    y = td_targets(nets, batch, bounds)
    lat = np.concatenate([batch.e, batch.z], axis=1)
    _losses, cgrads = critic_loss_grads(nets, batch.s, lat, y)

    def critic_loss() -> float:
        return float(np.sum(critic_loss_grads(nets, batch.s, lat, y)[0]))

    rep = nk.finite_diff_check(critic_loss, nets.critic, cgrads,
                               samples_per_entry=samples_per_entry,
                               rng=np.random.default_rng(seed + 2))
    results["critics"] = rep["max"]

    _loss, agrads = actor_loss_grads(nets, batch.s, bounds)

    def actor_loss() -> float:
        loss, _ = actor_loss_grads(nets, batch.s, bounds)
        return loss

    rep = nk.finite_diff_check(actor_loss, nets.actor, agrads,
                               samples_per_entry=samples_per_entry,
                               rng=np.random.default_rng(seed + 9))
    results["actor"] = rep["max"]
    results["max"] = max(results.values())
    return results
