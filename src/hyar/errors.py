"""Package-level error types shared by envs and the harness, and the check
that settings hold only finite floats."""
import math
from dataclasses import fields


class ConfigError(ValueError):
    """Invalid configuration: unknown env id, bad key, out-of-range value."""


def check_finite_floats(settings) -> None:
    """Raise ConfigError if a float field of the dataclass is NaN or inf."""
    for f in fields(settings):
        v = getattr(settings, f.name)
        if isinstance(f.default, float) and not math.isfinite(v):
            raise ConfigError(f"{f.name} must be finite, got {v}")
