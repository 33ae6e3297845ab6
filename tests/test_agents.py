"""Latent policy: config, replay buffer, action pipeline, RSC, update rules."""
import numpy as np
import pytest

from hyar import numkit as nk
from hyar.agents import (AgentConfig, AgentNets, Batch, ReplayBuffer,
                         ReplayUsageError, actor_loss_grads, actor_update,
                         critic_loss_grads, critic_update, decode_action,
                         relabel_batch, select_latent_action, td_targets)
from hyar.envs import make
from hyar.errors import ConfigError
from hyar.representation import LatentBounds, ReprModel

D1 = D2 = 6


def identity_bounds(dim: int = D1 + D2) -> LatentBounds:
    return LatentBounds(-np.ones(dim), np.ones(dim))


def small_setup(seed: int = 0, algo: str = "td3", **cfg_kw):
    spec = make("platform").spec()
    cfg = AgentConfig.td3(**cfg_kw) if algo == "td3" else AgentConfig.ddpg(**cfg_kw)
    rng = np.random.default_rng(seed)
    model = ReprModel(spec, d1=D1, d2=D2, rng=rng)
    nets = AgentNets(spec.state_dim, D1, D2, cfg, rng)
    return spec, cfg, model, nets


def entry_views(params: nk.ParameterSet, flat: np.ndarray) -> dict:
    """name -> the slice of flat (in params' layout) holding that entry."""
    out, off = {}, 0
    for name in params.names():
        out[name] = flat[off:off + params[name].size].reshape(params[name].shape)
        off += params[name].size
    return out


def as_float32(batch: Batch) -> Batch:
    """The batch with the float32 float columns a replay buffer holds."""
    return Batch(*(v.astype(np.float32) if v.dtype.kind == "f" else v
                   for v in vars(batch).values()))


def consistent_batch(spec, model, B: int, rng) -> Batch:
    """Transitions whose stored e is exactly the current table row."""
    s = rng.normal(size=(B, spec.state_dim))
    k = rng.integers(0, spec.num_discrete, size=B)
    x = rng.uniform(-1, 1, size=(B, spec.max_param_dim)) * model.mask_table[k]
    z = rng.normal(size=(B, D2)) * 0.3
    return Batch(s=s, k=k, x=x, e=model.table[k].copy(), z=z,
                 r=rng.normal(size=B), s_next=rng.normal(size=(B, spec.state_dim)),
                 done=(rng.random(B) < 0.2).astype(np.float64))


# ---- config ------------------------------------------------------------

def test_config_presets() -> None:
    td3 = AgentConfig.td3()
    assert (td3.actor_lr, td3.critic_lr) == (3e-4, 3e-4)
    assert (td3.tau_actor, td3.tau_critic) == (5e-3, 5e-3)
    assert td3.policy_delay == 2 and td3.num_critics == 2
    ddpg = AgentConfig.ddpg()
    assert (ddpg.actor_lr, ddpg.critic_lr) == (1e-4, 1e-3)
    assert (ddpg.tau_actor, ddpg.tau_critic) == (1e-3, 5e-3)
    assert ddpg.policy_delay == 1 and ddpg.num_critics == 1
    for c in (td3, ddpg):
        assert c.gamma == 0.99 and c.expl_sigma == 0.1
        assert c.batch_size == 128 and c.buffer_capacity == 100_000
        assert c.target_noise == 0.0


def test_config_validation() -> None:
    with pytest.raises(ConfigError):
        AgentConfig(gamma=1.0)
    with pytest.raises(ConfigError):
        AgentConfig(actor_lr=-1e-4)
    with pytest.raises(ConfigError):
        AgentConfig(algo="sac")
    with pytest.raises(ConfigError):
        AgentConfig(policy_delay=0)


# ---- replay buffer -----------------------------------------------------

def make_buffer(capacity: int = 8) -> ReplayBuffer:
    return ReplayBuffer(capacity, state_dim=3, max_param_dim=2, d1=D1, d2=D2)


def fill(buf: ReplayBuffer, n: int) -> None:
    for i in range(n):
        buf.push(np.full(3, i), i % 4, np.full(2, 0.5), np.zeros(D1),
                 np.zeros(D2), float(i), np.full(3, i + 1), False)


def test_buffer_ring_overwrites_oldest() -> None:
    buf = make_buffer(capacity=2)
    fill(buf, 3)
    assert buf.size == 2
    assert sorted(buf.r.tolist()) == [1.0, 2.0]  # item 0 evicted


def test_buffer_sample_errors() -> None:
    buf = make_buffer()
    rng = np.random.default_rng(0)
    with pytest.raises(ReplayUsageError):
        buf.sample(1, rng)
    fill(buf, 3)
    with pytest.raises(ReplayUsageError):
        buf.sample(4, rng)


def test_buffer_sample_seeded_and_copies() -> None:
    buf = make_buffer()
    fill(buf, 6)
    b1 = buf.sample(5, np.random.default_rng(42))
    b2 = buf.sample(5, np.random.default_rng(42))
    assert np.array_equal(b1.r, b2.r) and np.array_equal(b1.s, b2.s)
    b1.s[...] = 99.0
    assert not np.any(buf.s == 99.0)


def test_buffer_sampling_uniform() -> None:
    """Frequency of each of 10 indices over 1e5 draws within 3 sigma."""
    buf = make_buffer(capacity=10)
    fill(buf, 10)
    rng = np.random.default_rng(7)
    counts = np.zeros(10)
    for _ in range(10_000):
        b = buf.sample(10, rng)
        np.add.at(counts, b.r.astype(int), 1)
    sigma = np.sqrt(100_000 * 0.1 * 0.9)
    assert np.all(np.abs(counts - 10_000) < 3 * sigma)


def test_buffer_checkpoint_roundtrip() -> None:
    buf = make_buffer(capacity=4)
    fill(buf, 6)  # wrapped: cursor 2, size 4
    entries = nk.gather([buf.slot("buffer", 4)])
    fresh = make_buffer(capacity=4)
    fresh.slot("buffer", 4).load(entries)
    assert fresh.size == 4 and fresh.cursor == 2
    assert np.array_equal(fresh.r[:4], buf.r[:4])
    assert np.array_equal(fresh.k[:4], buf.k[:4])


# ---- action selection --------------------------------------------------

def test_select_deterministic_without_exploration() -> None:
    spec, _cfg, _model, nets = small_setup()
    s = np.linspace(-1, 1, spec.state_dim)
    b = identity_bounds()
    e1, z1 = select_latent_action(nets, b, s)
    e2, z2 = select_latent_action(nets, b, s)
    assert np.array_equal(e1, e2) and np.array_equal(z1, z2)
    assert e1.shape == (D1,) and z1.shape == (D2,)
    assert np.all(np.abs(np.concatenate([e1, z1])) <= 1.0)


def test_bounds_rescale_is_the_tape_rescale_bit_for_bit() -> None:
    """Acting, TD targets and the actor loss map latents with one
    expression: LatentBounds.rescale gives Tape.rescale's float32 bits."""
    rng = np.random.default_rng(5)
    lo = rng.uniform(-3.0, 0.0, size=D1 + D2)
    b = LatentBounds(lo, lo + rng.uniform(0.0, 3.0, size=D1 + D2))
    u = np.tanh(rng.normal(size=(256, D1 + D2))).astype(np.float32)
    ours = b.rescale(u)
    tape = nk.Tape(record=False).rescale(nk.const(u), b.scale, b.shift).data
    assert ours.dtype == tape.dtype == np.float32
    assert ours.tobytes() == tape.tobytes()


def test_select_without_rng_rescales_the_actor_output() -> None:
    spec, _cfg, _model, nets = small_setup()
    b = LatentBounds(np.full(D1 + D2, -0.5), np.full(D1 + D2, 2.0))
    s = np.random.default_rng(6).normal(size=spec.state_dim)
    e, z = select_latent_action(nets, b, s)
    want = b.rescale(nets.actor_raw(s[None])[0])
    assert np.concatenate([e, z]).tobytes() == want.tobytes()


def test_select_midpoint_rescale() -> None:
    """Zero actor output lands on the bound midpoint: (2,4) -> 3."""
    spec, _cfg, _model, nets = small_setup()
    nets.actor["W2"][...] = 0.0
    nets.actor["b2"][...] = 0.0
    b = LatentBounds(np.full(D1 + D2, 2.0), np.full(D1 + D2, 4.0))
    e, z = select_latent_action(nets, b, np.zeros(spec.state_dim))
    assert np.allclose(np.concatenate([e, z]), 3.0)


def test_select_exploration_clips_then_rescales() -> None:
    spec, _cfg, _model, nets = small_setup(expl_sigma=50.0)
    s = np.zeros(spec.state_dim)
    lo, hi = np.full(D1 + D2, -0.5), np.full(D1 + D2, 2.0)
    b = LatentBounds(lo, hi)
    rng = np.random.default_rng(3)
    for _ in range(20):
        e, z = select_latent_action(nets, b, s, rng=rng)
        lat = np.concatenate([e, z])
        assert np.all(lat >= lo) and np.all(lat <= hi)
    e1, z1 = select_latent_action(nets, b, s, rng=rng)
    e2, z2 = select_latent_action(nets, b, s, rng=rng)
    assert not np.array_equal(e1, e2)


# ---- decoding ----------------------------------------------------------

def test_decode_exact_row_recovers_k() -> None:
    spec, _cfg, model, _nets = small_setup()
    s = np.zeros(spec.state_dim)
    for k in range(spec.num_discrete):
        act = decode_action(model, s, model.table[k], np.zeros(D2))
        assert act.k == k
        assert act.x.shape == (spec.param_dims[k],)


def test_decode_zero_decoder_gives_zero_params() -> None:
    spec, _cfg, model, _nets = small_setup()
    model.params["dec_x.W"][...] = 0.0
    model.params["dec_x.b"][...] = 0.0
    act = decode_action(model, np.ones(spec.state_dim), model.table[1],
                        np.full(D2, 0.3))
    assert np.array_equal(act.x, np.zeros(spec.param_dims[1]))


def test_decode_is_pure_and_in_range() -> None:
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = rng.normal(size=spec.state_dim)
        e = rng.normal(size=D1)
        z = rng.normal(size=D2)
        a1 = decode_action(model, s, e, z)
        a2 = decode_action(model, s, e, z)
        assert a1.k == a2.k and np.array_equal(a1.x, a2.x)
        assert 0 <= a1.k < spec.num_discrete
        assert np.all(np.abs(a1.x) <= 1.0)
        assert a1.x.shape == (spec.param_dims[a1.k],)


def test_decode_action_matches_decode_and_predict_bits() -> None:
    """The reconstruction-only decoder gives decode_and_predict's x bit for
    bit, for every row of a 256-row table (hard_move n=8)."""
    spec = make("hard_move", 8).spec()
    model = ReprModel(spec, d1=D1, d2=D2, rng=np.random.default_rng(4))
    rng = np.random.default_rng(6)
    for _ in range(64):
        s = rng.normal(size=spec.state_dim)
        e = rng.normal(size=D1)
        z = rng.normal(size=D2)
        act = decode_action(model, s, e, z)
        row = model.table[act.k]
        x_rec, _delta = model.decode_and_predict(z[None], s[None], row[None])
        pd = spec.param_dims[act.k]
        assert np.array_equal(act.x, np.clip(x_rec[0, :pd], -1.0, 1.0))
        assert np.array_equal(model.decode(z[None], s[None], row[None]), x_rec)


# ---- representation shift correction -----------------------------------

def test_relabel_noop_when_consistent() -> None:
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(11)
    batch = consistent_batch(spec, model, 16, rng)
    out, stats = relabel_batch(model, batch, float("inf"), rng)
    assert np.array_equal(out.e, batch.e) and np.array_equal(out.z, batch.z)
    assert stats.discrete_relabeled == 0 and stats.continuous_relabeled == 0


def test_relabel_repairs_every_discrete_mismatch() -> None:
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(12)
    batch = consistent_batch(spec, model, 32, rng)
    K = spec.num_discrete
    batch.e[...] = model.table[(batch.k + 1) % K]  # decodes to the wrong row
    out, stats = relabel_batch(model, batch, float("inf"), rng)
    assert stats.discrete_relabeled == 32
    assert np.array_equal(model.nn_decode_batch(out.e), out.k)


def test_relabel_fallback_uses_exact_row() -> None:
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(13)
    batch = consistent_batch(spec, model, 8, rng)
    batch.e[...] = model.table[(batch.k + 1) % spec.num_discrete]
    out, stats = relabel_batch(model, batch, float("inf"), rng, redraws=0)
    assert stats.discrete_fallbacks == 8
    assert np.array_equal(out.e, model.table[np.asarray(out.k)])
    assert np.array_equal(model.nn_decode_batch(out.e), out.k)


def _relabel_e_by_row(model, batch, rng, noise, redraws):
    """(e, relabeled, fallbacks) of the discrete relabel, one row at a time:
    row i of the normal block holds wrong row i's candidate draws."""
    e = batch.e.copy()
    ks = np.asarray(batch.k)
    wrong = np.flatnonzero(model.nn_decode_batch(e) != ks)
    block = rng.normal(0.0, noise, size=(wrong.size, redraws, e.shape[1]))
    fallbacks = 0
    for i, draws in zip(wrong, block):
        row = model.table[ks[i]]
        for d in draws:
            cand = (row + d).astype(e.dtype)
            if model.nn_decode_batch(cand[None])[0] == ks[i]:
                e[i] = cand
                break
        else:
            e[i] = row
            fallbacks += 1
    return e, wrong.size, fallbacks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("redraws", [0, 3])
def test_relabel_matches_row_by_row_reference(dtype, redraws) -> None:
    """The batched discrete relabel takes, row for row, the candidate a
    per-row loop over the same normal block takes, consumes the same draws
    and counts the same fallbacks, with at most two nn_decode_batch calls."""
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(16)
    batch = consistent_batch(spec, model, 64, rng)
    shift = rng.integers(0, 2, size=64)  # half the rows decode wrong
    batch.e = model.table[(batch.k + shift) % spec.num_discrete].astype(dtype)
    calls = []
    decode = model.nn_decode_batch
    model.nn_decode_batch = lambda e: calls.append(1) or decode(e)
    gen, twin = np.random.default_rng(17), np.random.default_rng(17)
    out, stats = relabel_batch(model, batch, float("inf"), gen, noise=3.0,
                               redraws=redraws)
    model.nn_decode_batch = decode
    e, relabeled, fallbacks = _relabel_e_by_row(model, batch, twin, 3.0,
                                                redraws)
    assert len(calls) == 2
    assert out.e.dtype == dtype and np.array_equal(out.e, e)
    assert (stats.discrete_relabeled, stats.discrete_fallbacks,
            stats.continuous_relabeled) == (relabeled, fallbacks, 0)
    assert gen.standard_normal() == twin.standard_normal()
    assert relabeled == np.sum(shift)
    if redraws == 0:
        assert fallbacks == relabeled
    else:  # the block exercises both outcomes
        assert 0 < fallbacks < relabeled


def test_relabel_continuous_resamples_from_encoder() -> None:
    """Zero threshold relabels every z; the draw matches the posterior oracle."""
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(14)
    batch = consistent_batch(spec, model, 16, rng)
    twin = np.random.default_rng(99)
    out, stats = relabel_batch(model, batch, 0.0, np.random.default_rng(99))
    assert stats.continuous_relabeled == 16
    mu, log_std = model.encode(batch.s, batch.k, batch.x)
    expected = nk.reparam_sample(mu, log_std, twin.standard_normal((16, D2)))
    assert np.array_equal(out.z, expected)
    assert not np.array_equal(out.z, batch.z)


def test_relabel_leaves_input_arrays_alone() -> None:
    spec, _cfg, model, _nets = small_setup()
    rng = np.random.default_rng(15)
    batch = consistent_batch(spec, model, 8, rng)
    batch.e[...] = model.table[(batch.k + 2) % spec.num_discrete]
    e_before, z_before = batch.e.copy(), batch.z.copy()
    relabel_batch(model, batch, 0.0, rng)
    assert np.array_equal(batch.e, e_before)
    assert np.array_equal(batch.z, z_before)


# ---- TD targets and critic updates -------------------------------------

def test_td_targets_gamma_zero_is_reward() -> None:
    spec, cfg, model, nets = small_setup(algo="td3", gamma=0.0)
    rng = np.random.default_rng(21)
    batch = consistent_batch(spec, model, 16, rng)
    y = td_targets(nets, batch, identity_bounds())
    assert np.array_equal(y, batch.r)


def test_td_targets_clip_min_and_done_mask() -> None:
    spec, cfg, model, nets = small_setup()
    rng = np.random.default_rng(22)
    batch = consistent_batch(spec, model, 16, rng)
    batch.done[...] = 0.0
    batch.done[:4] = 1.0
    b = identity_bounds()
    # lift target critic 1 by a constant: the min must keep following critic 0
    for name in nets.target_critic.names():
        nets.target_critic[name][1] = nets.target_critic[name][0]
    nets.target_critic["b2"][1] += 1.0
    y = td_targets(nets, batch, b)
    raw = nets.actor_raw(batch.s_next, target=True)
    lat = b.rescale(raw)
    q0, q1 = nets.critic_values(batch.s_next, lat, target=True)
    assert np.array_equal(y, batch.r + cfg.gamma * (1.0 - batch.done) * q0)
    assert np.all(y <= batch.r + cfg.gamma * (1.0 - batch.done) * q0 + 1e-15)
    assert np.all(y <= batch.r + cfg.gamma * (1.0 - batch.done) * q1 + 1e-15)
    assert np.array_equal(y[:4], batch.r[:4])


@nk.float64_models()  # tolerance assumes float64
def test_critic_update_reports_premove_loss() -> None:
    spec, cfg, model, nets = small_setup(gamma=0.0)
    rng = np.random.default_rng(23)
    batch = consistent_batch(spec, model, 16, rng)
    lat = np.concatenate([batch.e, batch.z], axis=1)
    expected = np.mean([np.mean((batch.r - q) ** 2)
                        for q in nets.critic_values(batch.s, lat)])
    loss = critic_update(nets, batch, identity_bounds())
    assert loss == pytest.approx(expected, rel=1e-12)


def test_critic_update_losses_shrink() -> None:
    spec, cfg, model, nets = small_setup(gamma=0.0)
    rng = np.random.default_rng(24)
    batch = consistent_batch(spec, model, 32, rng)
    b = identity_bounds()
    first = critic_update(nets, batch, b)
    for _ in range(60):
        last = critic_update(nets, batch, b)
    assert last < first


def test_critic_update_numeric_fault_skips() -> None:
    """A non-finite gradient, in both critics (a NaN reward) or in critic 1
    alone (a NaN output bias), moves no critic and no Adam state, and
    counts one fault per critic."""
    for poison_reward in (True, False):
        spec, cfg, model, nets = small_setup()
        rng = np.random.default_rng(25)
        batch = consistent_batch(spec, model, 8, rng)
        if poison_reward:
            batch.r[0] = np.nan
        else:
            nets.critic["b2"][1] = np.nan
        state = (nets.critic.flat, nets.opt_critic.m, nets.opt_critic.v)
        before = [a.copy() for a in state]
        critic_update(nets, batch, identity_bounds())
        assert nets.fault_count == 2 and nets.opt_critic.t == 0
        for prev, now in zip(before, state):
            assert np.array_equal(prev, now, equal_nan=True)
        grads = entry_views(nets.critic, nets.critic.grad).values()
        finite = [all(np.isfinite(g[i]).all() for g in grads) for i in range(2)]
        assert finite == [not poison_reward, False]


@nk.float64_models()  # tolerance assumes float64
def test_critic_gradients_match_finite_differences() -> None:
    spec, cfg, model, nets = small_setup()
    rng = np.random.default_rng(26)
    batch = consistent_batch(spec, model, 8, rng)
    y = td_targets(nets, batch, identity_bounds())
    lat = np.concatenate([batch.e, batch.z], axis=1)
    _losses, grads = critic_loss_grads(nets, batch.s, lat, y)

    def loss_fn() -> float:
        return float(np.sum(critic_loss_grads(nets, batch.s, lat, y)[0]))

    report = nk.finite_diff_check(loss_fn, nets.critic, grads,
                                  samples_per_entry=5,
                                  rng=np.random.default_rng(0))
    assert report["max"] < 1e-4


@pytest.mark.parametrize("algo", ["td3", "ddpg"])
def test_stacked_critic_loss_matches_each_critic_alone(algo) -> None:
    """critic_loss_grads gives each slice of the float32 critic stack the
    loss and gradient bytes of a single critic's graph (the mean over the
    batch, seeded with 1), run on a 2-D ParameterSet cut from that slice."""
    spec, cfg, model, nets = small_setup(seed=12, algo=algo)
    batch = as_float32(consistent_batch(spec, model, 128,
                                        np.random.default_rng(27)))
    lat = np.concatenate([batch.e, batch.z], axis=1)
    y = td_targets(nets, batch, identity_bounds())
    losses, grads = critic_loss_grads(nets, batch.s, lat, y)
    assert losses.dtype == np.float64 and losses.shape == (cfg.num_critics,)
    stacked = entry_views(nets.critic, grads.copy())
    for i in range(cfg.num_critics):
        one = nk.ParameterSet({n: nets.critic[n][i]
                               for n in nets.critic.names()}, nets.dtype)
        t = nk.Tape()
        sa = nk.const(np.concatenate([batch.s, lat], axis=1))
        q = nk.mlp_apply(t, one.grad_vars(), sa)
        loss = t.mean(t.sq_dist(q, y[:, None]))
        t.backward(loss)
        assert losses[i].tobytes() == loss.data.tobytes()
        for name, g in entry_views(one, one.grad).items():
            assert g.dtype == np.float32
            assert g.tobytes() == stacked[name][i].tobytes(), (i, name)


# ---- actor updates -----------------------------------------------------

@nk.float64_models()  # tolerance assumes float64
def test_actor_gradients_match_finite_differences() -> None:
    """Gradient flows through the per-dim rescale into the actor."""
    spec, cfg, model, nets = small_setup()
    rng = np.random.default_rng(31)
    batch = consistent_batch(spec, model, 8, rng)
    lo = rng.uniform(-2.0, -0.5, size=D1 + D2)
    hi = rng.uniform(0.5, 2.0, size=D1 + D2)
    bounds = LatentBounds(lo, hi)
    _loss, grads = actor_loss_grads(nets, batch.s, bounds)

    def loss_fn() -> float:
        loss, _ = actor_loss_grads(nets, batch.s, bounds)
        return loss

    report = nk.finite_diff_check(loss_fn, nets.actor, grads,
                                  samples_per_entry=5,
                                  rng=np.random.default_rng(1))
    assert report["max"] < 1e-4


def test_actor_update_zero_gradient_when_critic_ignores_action() -> None:
    spec, cfg, model, nets = small_setup()
    rng = np.random.default_rng(32)
    batch = consistent_batch(spec, model, 8, rng)
    nets.critic["W0"][0, :, spec.state_dim:] = 0.0  # Q_1 blind to the action
    before = nets.actor.flat.copy()
    actor_update(nets, batch, identity_bounds())
    assert np.array_equal(before, nets.actor.flat)


def test_actor_update_raises_q() -> None:
    spec, cfg, model, nets = small_setup(actor_lr=1e-4)
    rng = np.random.default_rng(33)
    batch = consistent_batch(spec, model, 32, rng)
    b = identity_bounds()

    def mean_q() -> float:
        raw = nets.actor_raw(batch.s)
        lat = b.rescale(raw)
        return float(np.mean(nets.critic_values(batch.s, lat)[0]))

    before = mean_q()
    actor_update(nets, batch, b)
    assert mean_q() > before


def test_actor_update_nonfinite_gradient_moves_nothing() -> None:
    spec, cfg, model, nets = small_setup()
    rng = np.random.default_rng(36)
    batch = consistent_batch(spec, model, 8, rng)
    batch.s[0, 0] = np.nan
    sets = [nets.actor, nets.target_actor, nets.target_critic]
    before = [p.flat.copy() for p in sets]
    actor_update(nets, batch, identity_bounds())
    assert nets.fault_count == 1 and nets.actor_updates == 0
    for prev, p in zip(before, sets):
        assert np.array_equal(prev, p.flat)


def test_actor_update_tau_one_copies_targets() -> None:
    spec, cfg, model, nets = small_setup(tau_actor=1.0, tau_critic=1.0)
    rng = np.random.default_rng(34)
    batch = consistent_batch(spec, model, 8, rng)
    critic_update(nets, batch, identity_bounds())
    actor_update(nets, batch, identity_bounds())
    assert np.allclose(nets.target_actor.flat, nets.actor.flat)
    assert np.allclose(nets.target_critic.flat, nets.critic.flat)


def test_soft_updates_stay_in_convex_hull() -> None:
    """A target entry never escapes [min, max] of its own start and the
    live values it has been mixed toward."""
    spec, cfg, model, nets = small_setup()
    rng = np.random.default_rng(35)
    idx = 17
    seen = [nets.target_actor.flat[idx]]
    for _ in range(50):
        nets.actor.flat[idx] = rng.normal() * 3.0
        seen.append(nets.actor.flat[idx])
        nets.sync_targets(cfg.tau_actor, cfg.tau_critic)
        t = nets.target_actor.flat[idx]
        assert min(seen) - 1e-12 <= t <= max(seen) + 1e-12


def test_update_sequence_deterministic() -> None:
    flats = []
    for _ in range(2):
        spec, cfg, model, nets = small_setup(seed=5)
        rng = np.random.default_rng(50)
        b = identity_bounds()
        for step in range(12):
            batch = consistent_batch(spec, model, 16, rng)
            batch2, _ = relabel_batch(model, batch, 1.0, rng)
            critic_update(nets, batch2, b)
            if step % cfg.policy_delay == 0:
                actor_update(nets, batch2, b)
        flats.append((nets.actor.flat.copy(), nets.critic.flat.copy()))
    assert np.array_equal(flats[0][0], flats[1][0])
    assert np.array_equal(flats[0][1], flats[1][1])


def test_nets_checkpoint_roundtrip() -> None:
    spec, cfg, model, nets = small_setup(seed=8)
    rng = np.random.default_rng(60)
    batch = consistent_batch(spec, model, 16, rng)
    b = identity_bounds()
    for _ in range(3):
        critic_update(nets, batch, b)
    actor_update(nets, batch, b)
    entries = nk.gather(nets.slots())
    other = AgentNets(spec.state_dim, D1, D2, cfg, np.random.default_rng(999))
    for slot in other.slots():
        slot.load(entries)
    assert np.array_equal(other.actor.flat, nets.actor.flat)
    assert np.array_equal(other.critic.flat, nets.critic.flat)
    assert np.array_equal(other.target_actor.flat, nets.target_actor.flat)
    assert other.opt_actor.t == nets.opt_actor.t
    assert np.array_equal(other.opt_critic.m, nets.opt_critic.m)
    assert other.opt_critic.t == nets.opt_critic.t == 3


def test_cached_frozen_vars_never_gain_a_grad() -> None:
    """The shared stop Vars of every parameter set stay grad-free through
    critic, actor and representation updates and every inference call."""
    spec, cfg, model, nets = small_setup(seed=9)
    rng = np.random.default_rng(61)
    batch = consistent_batch(spec, model, 16, rng)
    b = identity_bounds()
    sets = [nets.actor, nets.target_actor, nets.critic, nets.target_critic,
            model.params]
    cached = [p.frozen_vars() for p in sets]
    for _ in range(2):
        critic_update(nets, batch, b)
        actor_update(nets, batch, b)
        model.repr_train_batch(batch.s, batch.k, batch.x, batch.s_next, rng)
        e, z = select_latent_action(nets, b, batch.s[0])
        decode_action(model, batch.s[0], e, z)
        relabel_batch(model, batch, 0.0, rng)
    assert nets.actor_updates == 2
    for p, fv in zip(sets, cached):
        assert p.frozen_vars() is fv
        for name, v in fv.items():
            assert v.stop and v.grad is None, name
            assert np.shares_memory(v.data, p[name]), name


# ---- float32 training policy ---------------------------------------------

# of each gradient's largest entry; measured errors are 1e-7 to 5e-7
F32_GRAD_RTOL = 1e-5


def test_float32_gradients_track_float64() -> None:
    """The float32 critic, actor and representation gradients agree with
    float64 gradients of the same weights and batch to F32_GRAD_RTOL of
    the largest float64 entry."""
    spec, cfg, m32, n32 = small_setup(seed=40)
    with nk.float64_models():
        _spec, _cfg, m64, n64 = small_setup(seed=40)
        b64 = LatentBounds(np.full(D1 + D2, -1.5), np.full(D1 + D2, 2.0))
    for p32, p64 in ([(m32.params, m64.params), (n32.actor, n64.actor)]
                     + [(n32.critic, n64.critic),
                        (n32.target_critic, n64.target_critic)]
                     + [(n32.target_actor, n64.target_actor)]):
        p64.flat[...] = p32.flat  # the same weights, exactly
    b32 = LatentBounds(b64.lower, b64.upper)
    rng = np.random.default_rng(41)
    f32 = as_float32(consistent_batch(spec, m64, 32, rng))
    f64 = Batch(*(v.astype(np.float64) if v.dtype.kind == "f" else v
                  for v in vars(f32).values()))
    noise = rng.standard_normal((32, D2)).astype(np.float32)

    def grads(model, nets, bt, bounds):
        lat = np.concatenate([bt.e, bt.z], axis=1)
        y = td_targets(nets, bt, bounds)
        out = {"critics": critic_loss_grads(nets, bt.s, lat, y)[1]}
        out["actor"] = actor_loss_grads(nets, bt.s, bounds)[1]
        out["repr"] = model.loss_grads(bt.s, bt.k, bt.x, bt.s_next, 10.0, 0.5,
                                       noise)[1]
        return {k: v.copy() for k, v in out.items()}

    g32 = grads(m32, n32, f32, b32)
    g64 = grads(m64, n64, f64, b64)
    for name in g64:
        assert g32[name].dtype == np.float32 and g64[name].dtype == np.float64
        err = np.abs(g32[name] - g64[name]).max() / np.abs(g64[name]).max()
        assert err < F32_GRAD_RTOL, (name, err)
