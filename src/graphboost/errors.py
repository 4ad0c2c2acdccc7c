"""Exception types shared across the package."""


class GraphBoostError(Exception):
    """Base class for all errors raised by this package."""


class DataError(GraphBoostError):
    """Malformed input data: CSV problems, schema mismatches, bad labels."""


class ConfigError(GraphBoostError):
    """Unparseable or inconsistent run configuration."""


class ModelFormatError(GraphBoostError):
    """Model file is corrupt, truncated, or of an unsupported version."""


class TrainingDiverged(GraphBoostError):
    """Non-finite loss or activations encountered while training."""

    def __init__(self, message: str, epoch: int | None = None):
        super().__init__(message)
        self.epoch = epoch


class NoWeakLearnability(GraphBoostError):
    """The very first boosting round already failed the error-rate gate."""

    def __init__(self, message: str, error: float):
        super().__init__(message)
        self.error = error
