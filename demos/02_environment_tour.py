"""Walk through the five benchmark environments.

Prints each environment's hybrid action space, rolls a seeded random policy
for a few episodes, and finishes with a scripted platform pilot that crosses
all three platforms, which a random policy essentially never does.
"""
import numpy as np

from hyar import envs
from hyar.envs.platform import GAPS, PLATFORMS


def describe(env_id, n=None):
    spec = envs.make(env_id, n).spec()
    dims = spec.param_dims
    summary = (f"{dims[0]} each" if len(set(dims)) == 1
               else ",".join(str(d) for d in dims))
    label = env_id if n is None else f"{env_id}(n={n})"
    print(f"{label:14s} state_dim {spec.state_dim:2d}  K {spec.num_discrete:4d}  "
          f"param dims {summary:8s}  horizon {spec.horizon}")


def random_episode(env, rng):
    s = env.reset(int(rng.integers(2 ** 31)))
    total, steps = 0.0, 0
    while True:
        k = int(rng.integers(env.spec().num_discrete))
        x = rng.uniform(-1.0, 1.0, size=env.spec().param_dims[k])
        res = env.step(envs.HybridAction(k, x))
        total += res.reward
        steps += 1
        s = res.state
        if res.done or env.timeout_truncated:
            return total, steps, res.success


def patrol(plat):
    c = (2.0, 13.5, 24.5)[plat]
    return c - 2.0, c + 2.0


def pilot(s):
    """Reactive platform policy: run with enemy clearance, jump at each lip."""
    pos = s[0] * 30.0
    enemy = pos + s[2] * 10.0
    edir = s[3]
    plat = int(round(s[7] * 2.0))
    lip = pos + s[4] * 30.0
    if plat == 2:
        if s[6] * 30.0 <= 5.0:  # distance to goal
            return envs.HybridAction(2, np.array([1.0]))
    elif pos >= lip - 1e-9:
        return envs.HybridAction(1 if plat == 0 else 2, np.array([1.0]))
    lo, hi = patrol(plat)
    nxt = enemy + edir * 0.05
    if nxt > hi:
        nxt = hi - (nxt - hi)
    elif nxt < lo:
        nxt = lo + (lo - nxt)
    for d in (2.0, 1.5, 1.0, 0.5, 0.25, 0.0):
        new = min(pos + d, lip)
        if abs(new - nxt) > 0.25:
            return envs.HybridAction(0, np.array([new - pos - 1.0]))
    return envs.HybridAction(0, np.array([-1.0]))


def main():
    print("hybrid action spaces")
    for env_id in ("platform", "goal", "hard_goal", "catch_point"):
        describe(env_id)
    for n in (4, 8):
        describe("hard_move", n)

    print("\nseeded random policy, 5 episodes per environment")
    rng = np.random.default_rng(7)
    for env_id in ("platform", "goal", "hard_goal", "catch_point", "hard_move"):
        env = envs.make(env_id, 4 if env_id == "hard_move" else None)
        rets, succ = [], 0
        for _ in range(5):
            r, _steps, won = random_episode(env, rng)
            rets.append(r)
            succ += won
        print(f"  {env_id:12s} mean return {np.mean(rets):8.3f}  "
              f"successes {succ}/5")

    print(f"\nplatform pilot (gaps at {GAPS[0][0]} and {GAPS[1][0]}):")
    env = envs.make("platform")
    wins = 0
    for seed in range(8):
        s = env.reset(seed)
        total = 0.0
        while True:
            res = env.step(pilot(s))
            total += res.reward
            s = res.state
            if res.done or env.timeout_truncated:
                break
        wins += res.success
        print(f"  seed {seed}  return {total:6.3f}  "
              f"{'crossed' if res.success else 'died'}")
    print(f"pilot crossed on {wins}/8 seeds")


if __name__ == "__main__":
    main()
