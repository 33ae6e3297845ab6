"""Environment contracts: oracles, determinism, bounds, frozen dynamics examples."""
from __future__ import annotations

import math

import numpy as np
import pytest

from hyar import envs
from hyar.envs import HybridAction


def oracle_displacement(n: int, k: int, x: list) -> tuple[float, float]:
    """Bit-iterating reference in pure Python floats, independent of the env."""
    dx = 0.0
    dy = 0.0
    for i in range(n):
        if (k >> i) & 1:
            phi = 2.0 * math.pi * i / n
            dx += x[i] * 0.05 * math.cos(phi)
            dy += x[i] * 0.05 * math.sin(phi)
    return dx, dy


def random_action(spec, rng) -> HybridAction:
    k = int(rng.integers(spec.num_discrete))
    return HybridAction(k, rng.uniform(-1.0, 1.0, size=spec.param_dims[k]))


def rollout(env, seed: int, rng_seed: int = 0):
    rng = np.random.default_rng(rng_seed)
    states = [env.reset(seed)]
    rewards = []
    dones = []
    spec = env.spec()
    while True:
        r = env.step(random_action(spec, rng))
        states.append(r.state)
        rewards.append(r.reward)
        dones.append(r.done)
        if r.done:
            return np.array(states[:-1]), np.array(states), rewards, dones


def make_with_n(env_id: str, n: int):
    """envs.make, with actuator count n where the env takes one."""
    return envs.make(env_id, n if env_id == "hard_move" else None)


def test_hard_move_displacement_matches_oracle_exhaustive() -> None:
    for n in (1, 2, 4, 8):
        rng = np.random.default_rng(n)
        for k in range(2 ** n):
            x = rng.uniform(-1.0, 1.0, size=n)
            got = envs.displacement(n, k, x)
            want = oracle_displacement(n, k, list(x))
            assert abs(got[0] - want[0]) < 1e-12
            assert abs(got[1] - want[1]) < 1e-12


def test_hard_move_example_actuator_zero() -> None:
    # mask with only bit 0 set, x_0 = 1 -> displacement (0.05, 0)
    d = envs.displacement(4, 1, np.array([1.0, 0.7, -0.2, 0.9]))
    assert np.allclose(d, [0.05, 0.0], atol=1e-15)
    # all-off mask moves nothing
    assert np.allclose(envs.displacement(4, 0, np.ones(4)), [0.0, 0.0])


def test_hard_move_env_step_and_reward() -> None:
    env = envs.make("hard_move", n=4)
    s0 = env.reset(3)
    assert np.allclose(s0[:2], [0.0, 0.0])
    tgt = s0[2:]
    assert 0.4 <= np.hypot(*tgt) <= 0.9
    r = env.step(HybridAction(1, np.array([1.0, 0.0, 0.0, 0.0])))
    assert np.allclose(r.state[:2], [0.05, 0.0])
    assert r.reward == pytest.approx(-float(np.hypot(0.05 - tgt[0], -tgt[1])))
    assert not r.done


def test_determinism_bit_exact_all_envs() -> None:
    for env_id in envs.ENV_IDS:
        env_a = make_with_n(env_id, 4)
        env_b = make_with_n(env_id, 4)
        sa, fa, ra, da = rollout(env_a, seed=11, rng_seed=5)
        sb, fb, rb, db = rollout(env_b, seed=11, rng_seed=5)
        assert np.array_equal(fa, fb), env_id
        assert ra == rb and da == db, env_id


def test_states_finite_and_bounded() -> None:
    for env_id in envs.ENV_IDS:
        env = make_with_n(env_id, 6)
        for seed in range(20):
            _, full, _, _ = rollout(env, seed=seed, rng_seed=seed + 100)
            assert np.isfinite(full).all(), env_id
            assert np.abs(full).max() <= 1.0 + 1e-12, env_id


def test_horizon_and_success_implies_done() -> None:
    rng = np.random.default_rng(0)
    for env_id in envs.ENV_IDS:
        env = make_with_n(env_id, 4)
        spec = env.spec()
        for seed in range(30):
            env.reset(seed)
            steps = 0
            while True:
                r = env.step(random_action(spec, rng))
                steps += 1
                if r.success:
                    assert r.done
                if r.done:
                    break
            assert steps <= spec.horizon, env_id


def test_env_specs_match_contract() -> None:
    p = envs.make("platform").spec()
    assert (p.state_dim, p.num_discrete, p.param_dims, p.horizon) == (9, 3, (1, 1, 1), 20)
    g = envs.make("goal").spec()
    assert (g.state_dim, g.num_discrete, g.param_dims, g.horizon) == (14, 3, (2, 1, 1), 50)
    hg = envs.make("hard_goal").spec()
    assert hg.num_discrete == 11 and hg.param_dims == (2,) + (1,) * 10
    c = envs.make("catch_point").spec()
    assert (c.state_dim, c.num_discrete, c.param_dims, c.horizon) == (5, 2, (1, 0), 20)
    hm = envs.make("hard_move", n=8).spec()
    assert (hm.state_dim, hm.num_discrete, hm.horizon) == (4, 256, 25)
    assert hm.param_dims == (8,) * 256 and hm.max_param_dim == 8
    with pytest.raises(envs.ConfigError):
        envs.make("lunar_lander")
    with pytest.raises(envs.ConfigError):
        envs.make("hard_move")  # n missing
    for env_id in set(envs.ENV_IDS) - {"hard_move"}:
        with pytest.raises(envs.ConfigError, match="env.n"):
            envs.make(env_id, 8)  # n given to an env without actuators


def test_usage_errors_and_clamping() -> None:
    env = envs.make("catch_point")
    with pytest.raises(envs.EnvUsageError):
        env.step(HybridAction(0, np.zeros(1)))  # before reset
    env.reset(0)
    with pytest.raises(envs.EnvUsageError):
        env.step(HybridAction(5, np.zeros(1)))  # k out of range
    assert env.clamp_count == 0
    env.step(HybridAction(0, np.array([1.7])))
    assert env.clamp_count == 1
    # a parameter vector of the wrong width is rejected, longer ones too
    penv = envs.make("platform")
    penv.reset(0)
    for x in ([], [0.5, 9.0]):
        with pytest.raises(envs.EnvUsageError, match="needs 1 parameters"):
            penv.step(HybridAction(0, np.array(x)))
    assert penv.clamp_count == 0
    # a NaN parameter is rejected in every env; +-inf clamps and is counted
    for env_id in envs.ENV_IDS:
        nenv = make_with_n(env_id, 4)
        nenv.reset(0)
        k = int(np.argmax(nenv.spec().param_dims))
        width = nenv.spec().param_dims[k]
        x = np.zeros(width)
        x[-1] = np.nan
        with pytest.raises(envs.EnvUsageError, match="NaN"):
            nenv.step(HybridAction(k, x))
        assert nenv.clamp_count == 0
        x[-1] = -np.inf
        assert np.all(np.isfinite(nenv.step(HybridAction(k, x)).state))
        assert nenv.clamp_count == 1
    # clamped x=1.7 behaves exactly like x=1.0
    env2 = envs.make("catch_point")
    env2.reset(0)
    r2 = env2.step(HybridAction(0, np.array([1.0])))
    env3 = envs.make("catch_point")
    env3.reset(0)
    r3 = env3.step(HybridAction(0, np.array([1.7])))
    assert np.array_equal(r2.state, r3.state)
    # stepping a finished episode raises
    env4 = envs.make("catch_point")
    env4.reset(1)
    for _ in range(10):
        r = env4.step(HybridAction(1, np.zeros(0)))
    assert r.done
    with pytest.raises(envs.EnvUsageError):
        env4.step(HybridAction(1, np.zeros(0)))


def test_catch_point_contract() -> None:
    # initial conditions, sampled over many seeds
    env = envs.make("catch_point")
    for seed in range(200):
        s = env.reset(seed)
        assert np.allclose(s[:2], [0.5, 0.5])
        assert np.hypot(s[2] - 0.5, s[3] - 0.5) >= 0.3
        assert s[4] == 1.0
    # ten failed catches exhaust the chances with success=false
    s = env.reset(0)
    assert np.hypot(s[2] - 0.5, s[3] - 0.5) > 0.1
    for i in range(10):
        r = env.step(HybridAction(1, np.zeros(0)))
        assert r.state[4] == pytest.approx((10 - 1 - i) / 10)
    assert r.done and not r.success and not env.timeout_truncated
    # move geometry: h=0 -> theta=0 -> +x direction; reward is -distance
    env.reset(3)
    r = env.step(HybridAction(0, np.array([0.0])))
    assert np.allclose(r.state[:2], [0.6, 0.5])
    d = float(np.hypot(r.state[0] - r.state[2], r.state[1] - r.state[3]))
    assert r.reward == pytest.approx(-d)
    # catching on target pays -dist + 10
    env.reset(4)
    tgt = env._target.copy()
    env._agent = tgt + np.array([0.05, 0.0])
    r = env.step(HybridAction(1, np.zeros(0)))
    assert r.success and r.done
    assert r.reward == pytest.approx(-0.05 + 10.0)


PATROLS = ((0.0, 4.0), (11.5, 15.5), (22.5, 26.5))


def _enemy_next(e: float, d: float, lo: float, hi: float) -> float:
    e2 = e + d * 0.05
    if e2 > hi:
        return hi - (e2 - hi)
    if e2 < lo:
        return lo + (lo - e2)
    return e2


def platform_pilot(s: np.ndarray) -> HybridAction:
    """Hand-written reactive policy: run with end-of-step enemy clearance,
    jump full power at each lip.  Lower-bounds what a trained agent can do."""
    pos = s[0] * 30.0
    enemy = pos + s[2] * 10.0
    edir = s[3]
    plat = int(round(s[7] * 2.0))
    lip = pos + s[4] * 30.0
    if plat == 2:
        if s[6] * 30.0 <= 5.0:  # distance to goal
            return HybridAction(2, np.array([1.0]))
    elif pos >= lip - 1e-9:
        return HybridAction(1 if plat == 0 else 2, np.array([1.0]))
    lo, hi = PATROLS[plat]
    en = _enemy_next(enemy, edir, lo, hi)
    for d in (2.0, 1.5, 1.0, 0.5, 0.25, 0.0):
        new = min(pos + d, lip)
        if abs(new - en) > 0.25:
            return HybridAction(0, np.array([new - pos - 1.0]))
    return HybridAction(0, np.array([-1.0]))


def test_platform_geometry_and_deaths() -> None:
    env = envs.make("platform")
    s = env.reset(0)
    assert s[0] == 0.0 and s[1] == 0.0 and s[7] == 0.0
    # enemy 1 starts at its patrol midpoint x=2
    assert s[2] == pytest.approx((2.0 - 0.0) / 10.0)
    assert s[3] in (-1.0, 1.0)
    # a mid-power run advances 1.0 and pays 1/30; x=1 clears the enemy at ~2
    r = env.step(HybridAction(0, np.array([0.0])))
    assert r.state[0] == pytest.approx(1.0 / 30.0)
    assert r.reward == pytest.approx(1.0 / 30.0)
    assert not r.done

    # running straight into the patrol head dies on the first step
    env.reset(0)
    r = env.step(HybridAction(0, np.array([1.0])))  # ends at x=2.0, enemy ~2.0
    assert r.done and not r.success

    # a hop that cannot reach the next platform dies in the gap
    env.reset(0)
    env.step(HybridAction(0, np.array([0.0])))      # x=1
    env.step(HybridAction(0, np.array([0.9])))      # x=2.9, enemy near 2.1
    env.step(HybridAction(0, np.array([1.0])))      # x=4.9
    r = env.step(HybridAction(1, np.array([1.0])))  # hop 3.0 -> x=7.9 on platform 0
    assert r.done and not r.success  # lands short of the next platform

    # a tiny jump in place dies too
    env.reset(0)
    r = env.step(HybridAction(1, np.array([-0.5])))  # hop 0.75 onto own platform
    assert r.done and not r.success

    # jump into the gap proper
    env.reset(0)
    env.step(HybridAction(0, np.array([0.0])))      # x=1
    r = env.step(HybridAction(2, np.array([1.0])))  # leap -> 6 (dead: same plat)
    assert r.done and not r.success


def test_platform_pilot_crosses_and_deaths_are_real() -> None:
    # the reactive pilot should cross for nearly every initial-direction combo
    seen = {}
    seed = 0
    while len(seen) < 8 and seed < 200:
        env = envs.make("platform")
        s = env.reset(seed)
        env2 = envs.make("platform")
        env2.reset(seed)
        combo = tuple(env2._edir)
        if combo not in seen:
            total = 0.0
            while True:
                r = env.step(platform_pilot(s))
                total += r.reward
                s = r.state
                if r.done:
                    break
            seen[combo] = (r.success, total)
        seed += 1
    assert len(seen) == 8
    wins = [v for v in seen.values() if v[0]]
    assert len(wins) >= 6, f"pilot succeeded only on {len(wins)}/8 combos: {seen}"
    for _success, total in wins:
        assert total == pytest.approx(28.0 / 30.0)

    # blind full-power running dies on some direction combo (enemy is real)
    died = False
    for seed in range(20):
        env = envs.make("platform")
        env.reset(seed)
        while True:
            r = env.step(HybridAction(0, np.array([1.0])))
            if r.done:
                break
        if not r.success and not env.timeout_truncated:
            died = True
            break
    assert died


def test_platform_enemy_patrol_reverses() -> None:
    env = envs.make("platform")
    env.reset(0)
    positions = []
    # idle in place (zero-power runs are safe at x=0 while the enemy drifts)
    for _ in range(19):
        r = env.step(HybridAction(0, np.array([-1.0])))
        positions.append(r.state[2] * 10.0)  # enemy pos relative to agent at 0
    assert max(positions) <= 4.0 + 1e-9
    assert min(positions) >= 0.0 - 1e-9
    # the walk is monotone at 0.05/step until a segment end
    steps = np.diff([2.0] + positions)
    assert np.allclose(np.abs(steps), 0.05)

    # reversal at the segment ends, checked against the advance rule directly
    env.reset(0)
    env._enemy[0] = 3.975
    env._edir[0] = 1.0
    env._advance_enemies()
    assert env._enemy[0] == pytest.approx(3.975)  # 4.025 reflects back
    assert env._edir[0] == -1.0
    env._enemy[0] = 0.025
    env._edir[0] = -1.0
    env._advance_enemies()
    assert env._enemy[0] == pytest.approx(0.025)
    assert env._edir[0] == 1.0


def test_goal_mechanics() -> None:
    env = envs.make("goal")
    s = env.reset(0)
    assert s[12] == 1.0  # possession
    assert np.allclose(s[:4], [8 / 20, 0.0, 8 / 20, 0.0])
    # kick-to the goal center: ball advances 3.0 toward (20, 0)
    r = env.step(HybridAction(0, np.array([1.0, 0.0])))
    assert r.state[2] == pytest.approx(11.0 / 20.0)
    assert r.state[3] == pytest.approx(0.0)
    assert r.reward == pytest.approx(-(20.0 - 11.0) / 24.0)
    # immediate shot at the corner on the keeper's side: covered from midfield
    s = env.reset(0)
    keeper_side = 1.0 if s[6] >= 0.0 else -1.0
    k_shot = 2 if keeper_side > 0 else 1  # right-half vs left-half action
    done = False
    for _ in range(5):
        r = env.step(HybridAction(k_shot, np.array([keeper_side])))
        if r.done:
            done = True
            break
    assert done and not r.success and r.reward == 0.0

    # dribble to the right corner, then shoot far left past the keeper
    env.reset(0)
    for _ in range(6):
        r = env.step(HybridAction(0, np.array([0.9, 0.8])))
        if r.state[2] * 20.0 > 17.5:
            break
    r = env.step(HybridAction(1, np.array([-1.0])))  # shoot at y=-3
    while not r.done:
        r = env.step(HybridAction(0, np.zeros(2)))  # inputs ignored in flight
    assert r.success and r.reward == 1.0


def test_hard_goal_regions() -> None:
    env = envs.make("hard_goal")
    env.reset(0)
    # region 0 with h=-1 targets exactly y=-3; the straight dribble pulls the
    # keeper to center, so the corner is uncovered from close range
    for _ in range(6):
        r = env.step(HybridAction(0, np.array([0.9, 0.0])))
    before_y = r.state[3] * 10.0
    r = env.step(HybridAction(1, np.array([-1.0])))
    while not r.done:
        r = env.step(HybridAction(0, np.zeros(2)))
    assert r.success, f"shot from y={before_y} should beat a centered keeper"
