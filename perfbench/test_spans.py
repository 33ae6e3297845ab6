"""Span and self-time arithmetic of the benchmark's tracer.

Run from the repository root:  python3 -m pytest perfbench/test_spans.py
"""
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def mid():
        clock.advance(2.0)
        traced_leaf()
        traced_leaf()
        clock.advance(0.5)

    def top():
        clock.advance(3.0)
        traced_mid()

    traced_leaf = tr.wrap("leaf", leaf)
    traced_mid = tr.wrap("mid", mid)
    traced_top = tr.wrap("top", top)
    tr.start()
    clock.advance(0.25)          # before any span: untraced
    traced_top()
    traced_leaf()                # a second top-level span
    clock.advance(0.75)          # after the last span: untraced
    tr.stop()

    assert [s[0] for s in tr.spans] == ["top", "mid", "leaf", "leaf", "leaf"]
    assert [s[1] for s in tr.spans] == [-1, 0, 1, 1, -1]
    assert tr.self_times() == [3.0, 2.5, 1.0, 1.0, 1.0]
    totals = tr.totals()
    assert totals["leaf"] == {"calls": 3, "self_s": 3.0, "total_s": 3.0}
    assert totals["mid"] == {"calls": 1, "self_s": 2.5, "total_s": 4.5}
    assert totals["top"] == {"calls": 1, "self_s": 3.0, "total_s": 7.5}
    assert tr.wall_s == 9.5
    assert tr.untraced_s() == 1.0
    assert sum(t["self_s"] for t in totals.values()) + tr.untraced_s() == 9.5


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tr = spans.Tracer(clock=clock)

    def boom():
        clock.advance(2.0)
        raise ValueError("boom")

    traced = tr.wrap("boom", boom)
    tr.start()
    with pytest.raises(ValueError):
        traced()
    tr.stop()
    assert tr.spans == [["boom", -1, 0.0, 2.0]]
    assert tr.stack == []


def _tiny_trainer(out_dir):
    from hyar.harness import Trainer, build_config
    return Trainer(build_config(overrides={
        "env.id": "platform", "run.seed": 3, "run.total_env_steps": 400,
        "run.warmup_env_steps": 200, "repr.pretrain_batches": 20,
        "run.eval_interval": 10**9, "run.out_dir": str(out_dir)}))


def test_traced_tiny_run_accounts_for_wall_time(tmp_path):
    from hyar import numkit as nk
    from hyar.harness import loop

    plain = _tiny_trainer(tmp_path / "plain")
    plain.run()
    original_affine = nk.Tape.affine

    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = _tiny_trainer(tmp_path / "traced")
        traced.run()
    assert nk.Tape.affine is original_affine
    assert loop.critic_update.__module__ == "hyar.agents"

    totals = tracer.totals()
    for name in ("numkit.tape.affine", "numkit.tape.backward",
                 "numkit.optim.adam_step", "agents.critic_update",
                 "agents.relabel_batch", "representation.repr_train_batch",
                 "envs.step", "numkit.checkpoint.save_checkpoint",
                 "harness.loop.run"):
        assert totals[name]["calls"] > 0, name
    own = tracer.self_times()
    assert min(own) >= 0.0
    for name, parent, start, end in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][2] <= start
            assert end <= tracer.spans[parent][3]
    assert sum(own) + tracer.untraced_s() == pytest.approx(tracer.wall_s,
                                                           rel=1e-9)
    m = spans.layer_metrics(tracer, traced)
    assert m["trace.self_sum_s"][0] == pytest.approx(tracer.wall_s, rel=1e-9)
    assert m["agents.critic_update.calls"][0] == traced.nets.critic_updates
    assert m["harness.loop.bounds_refreshes"][0] == traced.bounds_refreshes
    assert m["numkit.tape.affine.gflop"][0] > 0.0

    # tracing changes no bit of the run
    a = nk.load_checkpoint(str(tmp_path / "plain" / "final.ckpt"))
    b = nk.load_checkpoint(str(tmp_path / "traced" / "final.ckpt"))
    for key in a:
        if key != "config":
            np.testing.assert_array_equal(a[key], b[key])
