"""Exception types shared across the package."""


class EditSpanError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(EditSpanError):
    """Bad configuration: unknown provider, malformed weights file, bad option."""


class DataError(EditSpanError):
    """Malformed input data, or a contract violation between data artifacts."""


class PairLineError(DataError):
    """A corpus line that is not exactly one ``source<TAB>target`` pair."""


class BudgetError(DataError):
    """An alignment whose band would exceed ``MAX_BAND_CELLS``, refused before any work."""
