"""Minimal numeric kernel: tape autodiff, MLPs, Adam, Gaussian utils, checkpoints.

Plain numpy.  The numeric policy (policy.py) declares the one dtype models
build their state in: float32 for training, float64 only inside
float64_models() (finite-difference checks); and BITS_EPOCH, which names
the bits of the runs the code makes.  Ops, Adam and Polyak compute
in the dtype of the arrays they are given and never cast.  The tape is the
only autodiff mechanism in the package; an MLP is its list of widths,
built by init_params into a ParameterSet, run by mlp_apply and trained with
adam_step / soft_update.  There is one gradient path: a training tape built
over ParameterSet.grad_vars() (which zeroes the set's flat .grad) writes its
backward() into .grad, and adam_step reads that flat vector (it returns
False, and changes nothing, if the vector is not finite).
"""
from .errors import ShapeError, TapeUsageError
from .policy import BITS_EPOCH, TRAIN_DTYPE, model_dtype, float64_models
from .tape import Tape, Var, leaf, const
from .nets import ParameterSet, init_params, mlp_apply
from .optim import AdamState, adam_step, soft_update
from .gaussian import LOG_STD_MIN, LOG_STD_MAX, reparam_sample, kl_std_normal
from .fdcheck import finite_diff_check
from .checkpoint import (MAGIC, CheckpointError, save_checkpoint,
                         load_checkpoint, entry, finite_entry, restore, as_int,
                         Slot, gather, fields_slot, git_blob_sha1)

__all__ = [
    "ShapeError", "TapeUsageError",
    "BITS_EPOCH", "TRAIN_DTYPE", "model_dtype", "float64_models",
    "Tape", "Var", "leaf", "const",
    "ParameterSet", "init_params", "mlp_apply",
    "AdamState", "adam_step", "soft_update",
    "LOG_STD_MIN", "LOG_STD_MAX", "reparam_sample", "kl_std_normal",
    "finite_diff_check",
    "MAGIC", "CheckpointError", "save_checkpoint", "load_checkpoint",
    "entry", "finite_entry", "restore", "as_int", "Slot", "gather",
    "fields_slot", "git_blob_sha1",
]
