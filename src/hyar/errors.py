"""Package-level error types shared by envs and the harness, and the one
range check for settings, whose dataclass fields declare their own bounds."""
import math
import operator
from dataclasses import field, fields

# bound name -> (how the message reads it, test the value must pass)
BOUNDS = {"above": (">", operator.gt), "atleast": (">=", operator.ge),
          "below": ("<", operator.lt), "upto": ("<=", operator.le)}


class ConfigError(ValueError):
    """Invalid configuration: unknown env id, bad key, out-of-range value."""


def setting(default, *, above=None, atleast=None, below=None, upto=None,
            **metadata):
    """Dataclass field of a setting: `default` plus the bounds its value
    must keep (above/below exclusive, atleast/upto inclusive)."""
    given = dict(above=above, atleast=atleast, below=below, upto=upto)
    return field(default=default, metadata={
        **metadata, **{b: v for b, v in given.items() if v is not None}})


def check_settings(settings) -> None:
    """Raise ConfigError if a field of the dataclass holds a NaN or infinite
    float, or a value outside its declared bounds (None is left unset)."""
    for f in fields(settings):
        v, m = getattr(settings, f.name), f.metadata
        name = m.get("key", f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"{name} must be finite, got {v}")
        rules = [(sym, test, m[b]) for b, (sym, test) in BOUNDS.items()
                 if b in m]
        if v is not None and not all(test(v, x) for _s, test, x in rules):
            need = " and ".join(f"{sym} {x}" for sym, _t, x in rules)
            raise ConfigError(f"{name} must be {need}, got {v}")
