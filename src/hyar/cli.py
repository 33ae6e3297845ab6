"""Command-line entry point.

Subcommands: train, eval, export-latents, gradcheck.  Exit codes: 0 success,
2 configuration error, 3 numeric fault, 4 I/O error.
"""
from __future__ import annotations

import argparse
import ctypes
import sys

from .errors import ConfigError
from .harness import (Trainer, build_config, evaluate, gradcheck_suite,
                      parse_config_file)
from .harness.gradcheck import TOLERANCE


# glibc mallopt parameters (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD) and the
# values main sets: with fixed thresholds a step's freed temporaries stay
# mapped instead of going back to the OS and faulting in again.
MALLOC_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))

# train flag -> the config key it overrides; build_config parses the value
TRAIN_FLAGS = {"--env": "env.id", "--n": "env.n", "--algo": "run.algo",
               "--seed": "run.seed", "--steps": "run.total_env_steps",
               "--out": "run.out_dir"}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hyar",
                                description="Hybrid-action RL laboratory")
    sub = p.add_subparsers(dest="cmd", required=True)

    tr = sub.add_parser("train", help="run one training job")
    for flag, key in TRAIN_FLAGS.items():
        tr.add_argument(flag, dest=key, help=f"sets {key}")
    tr.add_argument("--config", help="flat key = value config file")
    tr.add_argument("--resume", help="checkpoint to continue from")

    ev = sub.add_parser("eval", help="evaluate a checkpoint")
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--episodes", required=True, type=int)
    ev.add_argument("--seed", required=True, type=int)

    ex = sub.add_parser("export-latents",
                        help="dump buffer latents from a checkpoint to CSV")
    ex.add_argument("--ckpt", required=True)
    ex.add_argument("--out", required=True)

    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of every loss head")
    gc.add_argument("--samples", type=int, default=4,
                    help="coordinates probed per parameter entry")
    gc.add_argument("--seed", type=int, default=0)
    return p


def _set_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; nothing where libc has no
    mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in MALLOC_THRESHOLDS:
        mallopt(param, value)


def _cmd_train(args) -> int:
    overrides = {key: getattr(args, key) for key in TRAIN_FLAGS.values()
                 if getattr(args, key) is not None}
    if args.resume:
        if args.config:
            raise ConfigError("--config cannot change a resumed run")
        trainer = Trainer.from_checkpoint(args.resume, overrides)
    else:
        file_values = parse_config_file(args.config) if args.config else None
        trainer = Trainer(build_config(file_values, overrides))
    for key, value in trainer.run().items():
        print(f"{key} = {value}")
    return 0


def _cmd_eval(args) -> int:
    trainer = Trainer.from_checkpoint(args.ckpt)
    from .envs import make
    env = make(trainer.cfg.env_id, trainer.cfg.env_n)
    mean_return, success_rate = evaluate(trainer.nets, trainer.model,
                                         trainer.bounds, env, args.episodes,
                                         args.seed)
    print(f"episodes = {args.episodes}")
    print(f"mean_return = {mean_return!r}")
    print(f"success_rate = {success_rate!r}")
    return 0


def _cmd_export(args) -> int:
    trainer = Trainer.from_checkpoint(args.ckpt)
    buf = trainer.buffer
    n = buf.size
    rows = trainer.model.export_latents(buf.s[:n], buf.k[:n], buf.x[:n],
                                        buf.s_next[:n], args.out)
    print(f"wrote {rows} rows to {args.out}")
    return 0


def _cmd_gradcheck(args) -> int:
    results = gradcheck_suite(samples_per_entry=args.samples, seed=args.seed)
    worst = results.pop("max")
    for name in sorted(results):
        status = "ok" if results[name] < TOLERANCE else "FAIL"
        print(f"{name}: max_rel_err = {results[name]:.3e} [{status}]")
    print(f"worst = {worst:.3e} (tolerance {TOLERANCE:g})")
    if worst >= TOLERANCE:
        print(f"numeric fault: gradient check failed: {worst:.3e}",
              file=sys.stderr)
        return 3
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    _set_malloc_thresholds()
    handler = {"train": _cmd_train, "eval": _cmd_eval,
               "export-latents": _cmd_export, "gradcheck": _cmd_gradcheck}
    try:
        return handler[args.cmd](args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
