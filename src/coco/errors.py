"""Exception types shared across the package."""


class CocoError(Exception):
    """Base class for all coco errors."""


class ValidationError(CocoError):
    """A value, configuration, or scenario violates an invariant."""


class InfeasibleSloError(CocoError):
    """The SLO cannot be met even at zero load (or zero offered load)."""


class EpochUnderflowError(CocoError):
    """Epoch has fewer quanta than workloads needing the 1-quantum floor."""


class SchemataParseError(CocoError):
    """Malformed schemata text; carries the offending line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ApplyDriftError(CocoError):
    """Read-back after apply() did not match the intended configuration;
    ``report`` holds what apply() did to each group before the read-back."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class ScenarioError(CocoError):
    """A scenario file failed schema validation or could not be loaded."""
