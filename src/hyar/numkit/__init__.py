"""Minimal numeric kernel: tape autodiff, MLPs, Adam, Gaussian utils, checkpoints.

Everything runs in float64 on plain numpy.  The tape is the only autodiff
mechanism in the package; networks are built from LayerSpec + ParameterSet and
trained with adam_step / soft_update.
"""
from .errors import NumericFault, ShapeError, TapeUsageError
from .tape import Tape, Var, leaf, const
from .nets import LayerSpec, ParameterSet, init_params, param_vars, mlp_apply
from .optim import AdamState, adam_step, soft_update
from .gaussian import LOG_STD_MIN, LOG_STD_MAX, reparam_sample, kl_std_normal
from .fdcheck import finite_diff_check
from .checkpoint import (MAGIC, CheckpointError, save_checkpoint,
                         load_checkpoint, entry, restore, as_int, Slot, gather,
                         fields_slot, git_blob_sha1)

__all__ = [
    "NumericFault", "ShapeError", "TapeUsageError",
    "Tape", "Var", "leaf", "const",
    "LayerSpec", "ParameterSet", "init_params", "param_vars", "mlp_apply",
    "AdamState", "adam_step", "soft_update",
    "LOG_STD_MIN", "LOG_STD_MAX", "reparam_sample", "kl_std_normal",
    "finite_diff_check",
    "MAGIC", "CheckpointError", "save_checkpoint", "load_checkpoint",
    "entry", "restore", "as_int", "Slot", "gather", "fields_slot",
    "git_blob_sha1",
]
