"""Span tracing of the hyar layers, done from outside the package.

`Tracer` keeps spans (name, parent span, start, end) and counters in memory.
`instrument(tracer)` replaces the public functions of each layer with traced
wrappers, at the names their callers look up (module globals, package
attributes and class attributes), and puts the originals back on exit.
`layer_metrics` turns the spans and counters into the per-layer figures.

Self time is a span's duration minus the durations of its direct children.
Calls are synchronous and single-threaded, so children nest inside their
parent and the self times of all spans add up to the durations of the
top-level spans; the rest of the traced wall time is reported as `untraced`.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import os
import time
from collections import defaultdict

# Every traced function: (layer, function, owner).  The owner is the module
# or class whose attribute the callers look up; the attribute is the last
# part of the function name.  evaluate is looked up in two places.
TRACED = (
    ("numkit.tape", "affine", "hyar.numkit.tape:Tape"),
    ("numkit.tape", "backward", "hyar.numkit.tape:Tape"),
    ("numkit.optim", "adam_step", "hyar.numkit"),
    ("numkit.optim", "soft_update", "hyar.numkit"),
    ("agents", "critic_update", "hyar.harness.loop"),
    ("agents", "td_targets", "hyar.agents"),
    ("agents", "actor_update", "hyar.harness.loop"),
    ("agents", "relabel_batch", "hyar.harness.loop"),
    ("agents", "select_latent_action", "hyar.harness.loop"),
    ("agents", "decode_action", "hyar.harness.loop"),
    ("agents", "ReplayBuffer.sample", "hyar.agents:ReplayBuffer"),
    ("agents", "ReplayBuffer.push", "hyar.agents:ReplayBuffer"),
    ("representation", "repr_train_batch", "hyar.representation:ReprModel"),
    ("representation", "latent_bounds", "hyar.representation:ReprModel"),
    ("representation", "encode", "hyar.representation:ReprModel"),
    ("representation", "decode_and_predict", "hyar.representation:ReprModel"),
    ("representation", "nn_decode_batch", "hyar.representation:ReprModel"),
    ("envs", "step", "hyar.envs.base:HybridEnv"),
    ("numkit.checkpoint", "save_checkpoint", "hyar.numkit"),
    ("numkit.checkpoint", "load_checkpoint", "hyar.numkit"),
    ("harness.loop", "warmup_stage", "hyar.harness.loop:Trainer"),
    ("harness.loop", "run", "hyar.harness.loop:Trainer"),
    ("harness.loop", "evaluate", "hyar.harness.loop"),
    ("harness.loop", "evaluate", "hyar.harness"),
)
NAMES = list(dict.fromkeys(f"{layer}.{func}" for layer, func, _o in TRACED))

MB = 1e6
# Adam reads params, grads, m and v and writes params, m and v once each:
# seven float64 vectors of the parameter count per step.
ADAM_VECTORS = 7


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self.pending_bwd: dict = {}   # id(tape) -> flop its backward will do
        self.t0 = None
        self.t1 = None

    def start(self) -> None:
        self.t0 = self.clock()

    def stop(self) -> None:
        self.t1 = self.clock()

    def wrap(self, name: str, fn):
        """fn with a span named `name` around every call."""
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), None])
            stack.append(i)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[i][3] = clock()
                stack.pop()
        return traced

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _n, _p, start, end in self.spans]
        for _n, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict:
        """name -> {"calls", "self_s", "total_s"}; total_s is inclusive."""
        out: dict = {}
        own = self.self_times()
        for i, (name, _parent, start, end) in enumerate(self.spans):
            t = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            t["calls"] += 1
            t["self_s"] += own[i]
            t["total_s"] += end - start
        return out

    def untraced_s(self) -> float:
        """Traced wall time not covered by any top-level span."""
        top = sum(end - start for _n, parent, start, end in self.spans
                  if parent < 0)
        return self.wall_s - top

    def write_csv(self, path: str) -> None:
        """One row per span, times in seconds from the start of tracing."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "parent", "name", "start_s", "end_s"])
            for i, (name, parent, start, end) in enumerate(self.spans):
                w.writerow([i, parent, name, f"{start - self.t0:.9f}",
                            f"{end - self.t0:.9f}"])


def _resolve(path: str):
    mod, _, cls = path.partition(":")
    owner = importlib.import_module(mod)
    return getattr(owner, cls) if cls else owner


def _counting(key: str, fn, tracer: Tracer):
    """fn plus the counters measured at its boundary (fn itself if none)."""
    counts, pending = tracer.counts, tracer.pending_bwd
    if key == "numkit.tape.affine":
        def affine(tape, x, w, b):
            out = fn(tape, x, w, b)
            rows = 1 if x.data.ndim == 1 else x.data.shape[0]
            flop = 2.0 * rows * w.data.shape[0] * w.data.shape[1]
            counts["tape.fwd_flop"] += flop
            if tape.record:
                grads = (not w.stop) + (not x.stop)
                pending[id(tape)] = pending.get(id(tape), 0.0) + grads * flop
            return out
        return affine
    if key == "numkit.tape.backward":
        def backward(tape, root, seed=None):
            out = fn(tape, root, seed)
            counts["tape.bwd_flop"] += pending.pop(id(tape), 0.0)
            return out
        return backward
    if key == "numkit.optim.adam_step":
        def adam_step(params, grads, state, *args, **kwargs):
            counts["adam.bytes"] += ADAM_VECTORS * 8.0 * params.size
            return fn(params, grads, state, *args, **kwargs)
        return adam_step
    if key == "agents.relabel_batch":
        def relabel_batch(repr_model, batch, *args, **kwargs):
            out = fn(repr_model, batch, *args, **kwargs)
            stats = out[1]
            counts["relabel.rows"] += len(batch)
            counts["relabel.discrete"] += stats.discrete_relabeled
            counts["relabel.fallback"] += stats.discrete_fallbacks
            counts["relabel.continuous"] += stats.continuous_relabeled
            return out
        return relabel_batch
    if key == "representation.repr_train_batch":
        def repr_train_batch(model, *args, **kwargs):
            rec = fn(model, *args, **kwargs)
            counts["repr.skipped"] += 1.0 if rec.skipped else 0.0
            return rec
        return repr_train_batch
    if key == "envs.step":
        def step(env, action):
            before = env.clamp_count
            out = fn(env, action)
            counts["env.clamped"] += env.clamp_count - before
            counts["env.params"] += env.spec().param_dims[int(action.k)]
            return out
        return step
    if key == "numkit.checkpoint.save_checkpoint":
        def save_checkpoint(path, entries):
            fn(path, entries)
            counts["ckpt.bytes"] += os.path.getsize(path)
        return save_checkpoint
    return fn


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Trace every function in TRACED while the block runs."""
    saved = []
    wrappers: dict = {}
    try:
        for layer, func, owner_path in TRACED:
            owner = _resolve(owner_path)
            attr = func.rsplit(".", 1)[-1]
            orig = owner.__dict__[attr]
            key = f"{layer}.{func}"
            if key not in wrappers:
                wrappers[key] = tracer.wrap(key, _counting(key, orig, tracer))
            saved.append((owner, attr, orig))
            setattr(owner, attr, wrappers[key])
        tracer.start()
        yield tracer
    finally:
        if tracer.t0 is not None:
            tracer.stop()
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trainer) -> dict:
    """Per-layer figures of one traced pass; `trainer` is the traced Trainer."""
    totals = tracer.totals()
    c = tracer.counts
    m: dict = {}

    def fn(name):
        t = totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        m[f"{name}.calls"] = (t["calls"], "count")
        m[f"{name}.self_s"] = (t["self_s"], "s")
        m[f"{name}.ms_per_call"] = (_share(t["total_s"] * 1e3, t["calls"]), "ms")
        return t

    by_name = {name: fn(name) for name in NAMES}

    affine = by_name["numkit.tape.affine"]
    back = by_name["numkit.tape.backward"]
    m["numkit.tape.affine.gflop"] = (c["tape.fwd_flop"] / 1e9, "GFLOP")
    m["numkit.tape.affine.gflop_per_s"] = (
        _share(c["tape.fwd_flop"] / 1e9, affine["self_s"]), "GFLOP/s")
    m["numkit.tape.backward.gflop"] = (c["tape.bwd_flop"] / 1e9, "GFLOP")
    m["numkit.tape.backward.gflop_per_s"] = (
        _share(c["tape.bwd_flop"] / 1e9, back["self_s"]), "GFLOP/s")
    adam = by_name["numkit.optim.adam_step"]
    m["numkit.optim.adam_step.mb_moved"] = (c["adam.bytes"] / MB, "MB")
    m["numkit.optim.adam_step.gb_per_s"] = (
        _share(c["adam.bytes"] / 1e9, adam["self_s"]), "GB/s")
    m["numkit.checkpoint.save_checkpoint.mb_written"] = (c["ckpt.bytes"] / MB,
                                                         "MB")

    rows = c["relabel.rows"]
    m["agents.relabel_batch.rows"] = (rows, "count")
    m["agents.relabel_batch.discrete_share"] = (
        _share(c["relabel.discrete"], rows), "ratio")
    m["agents.relabel_batch.fallback_share"] = (
        _share(c["relabel.fallback"], c["relabel.discrete"]), "ratio")
    m["agents.relabel_batch.continuous_share"] = (
        _share(c["relabel.continuous"], rows), "ratio")
    m["agents.relabel_batch.run_share"] = (
        _share(by_name["agents.relabel_batch"]["total_s"],
               by_name["harness.loop.run"]["total_s"]), "ratio")
    m["representation.repr_train_batch.skipped_share"] = (
        _share(c["repr.skipped"],
               by_name["representation.repr_train_batch"]["calls"]), "ratio")
    m["envs.clamp_share"] = (_share(c["env.clamped"], c["env.params"]), "ratio")

    m["harness.loop.untraced_s"] = (tracer.untraced_s(), "s")
    m["harness.loop.rsc_in_bounds_share"] = (
        _share(trainer.rsc_in_bounds, trainer.rsc_total), "ratio")
    m["harness.loop.bounds_refreshes"] = (trainer.bounds_refreshes, "count")
    m["trace.wall_s"] = (tracer.wall_s, "s")
    m["trace.self_sum_s"] = (sum(t["self_s"] for t in totals.values())
                             + tracer.untraced_s(), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    return m
