"""Training orchestration: config, warm-up, interleaved RL loop, metrics, CLI glue."""
from .config import (ALGOS, RunConfig, build_config, parse_config_file,
                     parse_config_lines)
from .gradcheck import gradcheck_suite
from .loop import Trainer, derive_seed, evaluate
from .metrics import EVAL_HEADER, METRICS_HEADER, CsvLog, write_manifest

__all__ = [
    "ALGOS", "RunConfig", "build_config",
    "parse_config_file", "parse_config_lines",
    "gradcheck_suite",
    "Trainer", "derive_seed", "evaluate",
    "EVAL_HEADER", "METRICS_HEADER", "CsvLog", "write_manifest",
]
