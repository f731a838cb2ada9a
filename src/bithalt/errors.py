"""Shared exception types."""


class BithaltError(Exception):
    """Base class for package errors."""


class InvalidDistributionError(BithaltError, ValueError):
    """Probability vector violates non-negativity or normalization."""


class InvalidInputError(BithaltError, ValueError):
    """Malformed numeric input (non-finite value, dimension mismatch, ...)."""


class ConfigError(BithaltError, ValueError):
    """Configuration value out of its legal range.

    When the error is about one config dataclass field, ``field`` names it and
    the message is the field name followed by ``requirement``.
    """

    def __init__(self, message, field=None):
        self.field = field
        self.requirement = message
        super().__init__(message if field is None else f"{field} {message}")


class TraceParseError(BithaltError, ValueError):
    """A trace, record or scenario file (or a config file's JSON) failed to parse.

    Carries the path and (when known) the 1-based line number.
    """

    def __init__(self, path, message, line=None):
        self.path = str(path)
        self.line = line
        where = f"{self.path}:{line}" if line is not None else self.path
        super().__init__(f"{where}: {message}")


class UnsupportedSchemaError(TraceParseError):
    """File declares a schema version this build does not understand."""


class EmptyRunError(BithaltError, ValueError):
    """Aggregation requested over zero records."""


class GroupingError(BithaltError, ValueError):
    """Records fed to a single-group aggregate mix (model, method, budget) or repeat an id."""
