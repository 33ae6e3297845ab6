"""Alternating before/after runs of perfbench, summarised as BENCH_*.json.

    python3 scripts/bench_pairs.py BASE_DIR CHANGE_DIR --seeds 401-410 \\
        --seconds 35 --out-base BENCH_0.json --out-change BENCH_1.json

BASE_DIR and CHANGE_DIR are two checkouts (for instance `git archive` of
the parent commit and of the change).  For each seed the script runs
`python3 perfbench/run.py --workload all --seed N --seconds S` in both
checkouts, one after the other, base first on even-numbered pairs and
change first on odd ones, so slow spells of the host hit both sides alike.  Each output file holds, per metric, the median and quartiles
over that side's runs; the perfbench machine block of its first run; the
number of pairs the change won on each metric; and, with --tier1, the
wall time of the Tier-1 suite and of acceptance criterion 4 in that
checkout.  BLAS threads are left as the environment sets them; the script
prints each side's thread count from its machine block.

After each pair it prints every workload's rl_steps_per_s on both sides.
At the end it prints, for each workload and end-to-end metric of
BENCHMARK.json, the base median and quartiles, the change median, the
pairs the change won and the benchmark gate's verdict:
  gain              the change won at least 9 of 10 pairs and the medians
                    differ by more than the base IQR;
  worse than bound  the change median is worse than the base median by
                    more than the metric's bound (a share of the base);
  unresolved        the base IQR is wider than the bound;
  no change         otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

PERF = ["python3", "perfbench/run.py", "--workload", "all"]
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=0"]
CRIT4 = "test_acceptance.py::test_criterion_4"


def perf_run(root: str, seed: int, seconds: float) -> dict:
    res = subprocess.run(PERF + ["--seed", str(seed), "--seconds",
                                 str(seconds)],
                         cwd=root, capture_output=True, text=True, timeout=3600)
    lines = res.stdout.strip().splitlines()
    machine = next((json.loads(ln[len("machine "):]) for ln in lines
                    if ln.startswith("machine ")), None)
    out = json.loads(lines[-1]) if lines else {"correct": False}
    out["machine"], out["exit"] = machine, res.returncode
    return out


def tier1(root: str) -> dict:
    env = {**os.environ, "PYTHONPATH": "src"}
    t0 = time.perf_counter()
    res = subprocess.run(TIER1, cwd=root, env=env, capture_output=True,
                         text=True, timeout=3600)
    wall = time.perf_counter() - t0
    crit4 = re.search(r"([\d.]+)s call\s+\S*" + re.escape(CRIT4), res.stdout)
    summary = res.stdout.strip().splitlines()[-1]
    return {"wall_s": round(wall, 1), "summary": summary,
            "criterion_4_s": float(crit4.group(1)) if crit4 else None}


def quartiles(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def summary(runs: list, wins: dict, seeds: list, seconds: float) -> dict:
    names = sorted(set().union(*(r.get("metrics", {}) for r in runs)))
    metrics = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs
                if name in r.get("metrics", {})]
        if len(vals) >= 2:
            metrics[name] = {**quartiles(vals),
                             "unit": runs[0]["metrics"][name]["unit"]}
    return {"command": " ".join(PERF) + f" --seed N --seconds {seconds:g}",
            "seeds": seeds, "all_correct": all(r.get("correct")
                                              for r in runs),
            "machine": runs[0]["machine"], "metrics": metrics,
            "change_wins": wins}


def verdict(base: dict, change: dict, won: int, pairs: int, better: str,
            bound: float) -> str:
    """The benchmark gate's reading of one metric (see the module text)."""
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (change["median"] - base["median"])
    iqr = base["q3"] - base["q1"]
    scale = abs(base["median"])
    if won >= 0.9 * pairs and gain > iqr:
        return "gain"
    if -gain > bound * scale:
        return "worse than bound"
    if iqr > bound * scale:
        return "unresolved"
    return "no change"


def verdicts(base: dict, change: dict, won: dict, end_to_end: list,
             pairs: int) -> list[str]:
    """One line per workload and end-to-end metric that both sides have."""
    workloads = sorted({name.split(".")[0] for name in base})
    lines = []
    for wl in workloads:
        for m in end_to_end:
            key = f"{wl}.{m['name']}"
            if key not in base or key not in change:
                continue
            b, c = base[key], change[key]
            lines.append(
                f"{key}: base {b['median']:.4g} ({b['q1']:.4g}-{b['q3']:.4g}),"
                f" change {c['median']:.4g}, won {won.get(key, 0)}/{pairs}: "
                + verdict(b, c, won.get(key, 0), pairs, m["better"],
                          m["bound"]))
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--out-base", required=True)
    ap.add_argument("--out-change", required=True)
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    base, change = [], []
    for i, seed in enumerate(seeds):
        # alternate which side runs first, so drift favours neither
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            root, runs = ((args.base, base), (args.change, change))[side]
            runs.append(perf_run(root, seed, args.seconds))
        rl = {name: [r.get("metrics", {}).get(name, {}).get("value")
                     for r in (base[-1], change[-1])]
              for name in base[-1].get("metrics", {})
              if name.endswith(".rl_steps_per_s")}
        print(f"seed {seed}: rl_steps_per_s base/change " + ", ".join(
            f"{name.split('.')[0]} {b:.1f}/{c:.1f}"
            for name, (b, c) in sorted(rl.items())
            if b is not None and c is not None), flush=True)
    with open(os.path.join(args.change, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    lower = {m["name"] for m in end_to_end if m["better"] == "lower"}
    better = {}
    for b, c in zip(base, change):
        for name, cm in c.get("metrics", {}).items():
            bm = b.get("metrics", {}).get(name)
            if bm is None:
                continue
            sign = -1 if name.split(".", 1)[-1] in lower else 1
            won = sign * (cm["value"] - bm["value"]) > 0
            better[name] = better.get(name, 0) + int(won)
    wins = {k: f"{v}/{len(seeds)}" for k, v in sorted(better.items())}
    outs = []
    for runs, root, path in ((base, args.base, args.out_base),
                             (change, args.change, args.out_change)):
        out = summary(runs, wins if runs is change else {}, seeds,
                      args.seconds)
        if args.tier1:
            out["tier1"] = tier1(root)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
        outs.append(out)
    print("BLAS threads: base {}, change {}".format(
        *((o["machine"] or {}).get("blas_threads") for o in outs)))
    for line in verdicts(outs[0]["metrics"], outs[1]["metrics"], better,
                         end_to_end, len(seeds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
