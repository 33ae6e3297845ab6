"""Error types shared across the numeric kernel."""


class ShapeError(ValueError):
    """An array argument has the wrong shape for the requested op."""


class TapeUsageError(RuntimeError):
    """A gradient tape was used outside its contract (e.g. consumed twice)."""
