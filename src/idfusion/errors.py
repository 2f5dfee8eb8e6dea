"""Exception types shared across the package."""


class ParseError(ValueError):
    """A record in a JSON-lines file could not be parsed."""


class SchemaError(ValueError):
    """Structurally valid input that violates the dataset schema."""


class SplitError(ValueError):
    """A temporal split would leave the train or test side empty."""


class ConfigError(ValueError):
    """Inconsistent or incomplete run configuration."""


class TrainingError(RuntimeError):
    """Training diverged or produced non-finite values."""


class SimulationError(RuntimeError):
    """The simulator could not satisfy a dataset invariant."""
