"""End-to-end training at desk scale: a short hyar-td3 run on platform.

Runs warm-up, representation pre-training, and a few thousand RL steps, then
prints the metrics the harness logged.  With this tiny budget the agent does
not solve the task; the point is watching every stage work together.  Expect
a few minutes of runtime.
"""
import os
import tempfile

from hyar.harness import Trainer, build_config


def main():
    out = os.path.join(tempfile.mkdtemp(prefix="hyar-demo-"), "run")
    config = build_config(None, {
        "env.id": "platform",
        "run.seed": 0,
        "run.total_env_steps": 8000,
        "run.warmup_env_steps": 2000,
        "run.eval_interval": 2000,
        "run.eval_episodes": 20,
        "repr.pretrain_batches": 500,
        "run.out_dir": out,
    })
    print("training hyar-td3 on platform, 8000 env steps (2000 warm-up)")
    summary = Trainer(config).run()
    for key in ("env_step", "episodes", "mean_return", "success_rate"):
        print(f"  {key} = {summary[key]}")

    def short(cell):
        try:
            return f"{float(cell):10.4f}"
        except ValueError:
            return f"{cell:>10s}"[:10]

    print("\nmetrics.csv:")
    with open(os.path.join(out, "metrics.csv"), encoding="utf-8") as fh:
        for line in fh:
            print("  " + " ".join(short(c) for c in line.strip().split(",")))
    print(f"\nrun directory: {out}")
    print("continue it with:")
    print(f"  python3 -m hyar.cli train --resume {out}/final.ckpt "
          "--steps 16000")


if __name__ == "__main__":
    main()
