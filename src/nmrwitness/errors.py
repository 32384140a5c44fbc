"""Exception types raised by state constructors, channels, and optimizers."""


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


class OptimizerFailure(RuntimeError):
    """Measurement-basis refinement did not converge within its budget."""
