"""Exception types raised by state constructors, channels, and optimizers,
and the one field check that every configuration dataclass shares."""

import math
import numbers


class NotAState(ValueError):
    """Matrix fails a density-matrix invariant (hermiticity, trace, or positivity)."""


class BadDistribution(ValueError):
    """Probability vector is negative or does not sum to one."""


class EpsilonMismatch(ValueError):
    """Two deviation states with different epsilon were combined."""


class BadIndex(ValueError):
    """Protocol step index outside 1..3."""


class UnknownKind(ValueError):
    """Unrecognized or unsupported state-preparation kind."""


class SequenceMismatch(RuntimeError):
    """Composite pulse sequence does not reproduce its ideal gate."""


class BadDocument(ValueError):
    """A JSON input (a state document or a --config file) cannot be read, is
    not a JSON object, or lacks a required key."""


class BadConfig(ValueError):
    """An experiment configuration value has the wrong type or lies outside
    its range."""


def is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def is_real(v) -> bool:
    """A real number that is not a bool (JSON true would otherwise read as 1)."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_finite(v) -> bool:
    try:
        return is_real(v) and math.isfinite(v)
    except OverflowError:           # an int beyond the float range
        return False


def check_config(ok: bool, key: str, value, want: str):
    """Raise BadConfig naming ``key`` (``params.t1_h`` if nested) unless ok."""
    if not ok:
        raise BadConfig(f"config {key} must be {want}, got {value!r}")


class OptimizerFailure(RuntimeError):
    """Measurement-basis refinement did not converge within its budget."""
