"""Exception taxonomy.

The CLI maps these onto distinct exit codes: configuration problems,
data/file problems, and numeric/contract failures.
"""


class BotclfError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(BotclfError, ValueError):
    """Bad configuration: unknown key, malformed value, invalid combination.

    Also a ValueError: the settings objects (`TrainConfig`, `Architecture`)
    raise it for out-of-range arguments.
    """


class DataError(BotclfError):
    """Bad input data: unreadable file, bad row, unmappable label."""


class SchemaError(DataError):
    """CSV header does not provide the columns the feature spec requires."""


class WeightFormatError(DataError):
    """Weight manifest is malformed, truncated, or of an unknown version."""


class NumericError(BotclfError):
    """Numeric failure: non-finite loss, failed invariant."""


class ShapeError(NumericError):
    """Operands have incompatible shapes."""


class CacheReusedError(NumericError):
    """A forward cache was consumed by more than one backward call."""


class NotFittedError(BotclfError):
    """A normalizer was applied before being fitted to training data."""
