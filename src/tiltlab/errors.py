"""Exception types shared across the laboratory."""


class DimensionMismatch(ValueError):
    """A vector or matrix does not match the declared dimension."""


class MembershipViolation(ValueError):
    """A point that must lie in the feasible set does not."""


class RangeViolation(RuntimeError):
    """A map produced a value outside the feasible set; the map is ill-posed
    for this set."""

    def __init__(self, message, point=None, value=None, violation=None):
        super().__init__(message)
        self.point = point
        self.value = value
        self.violation = violation


class InfeasibleTruncation(ValueError):
    """No feasible grid point inside the truncation ball."""


class GrowthConditionNotMet(ValueError):
    """The asymptotic growth ratio bound kappa < 1/2 is unavailable, so the
    coercivity-based truncation cannot be justified."""


class FixedPointNotLocated(RuntimeError):
    """The displacement minimum stayed above the residual cap; carries the
    partial report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class FieldError(ValueError):
    """A config dataclass refuses the value of its field ``field``; a config
    file blames that field's key."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


class ConfigError(ValueError):
    """Config parse or validation failure with a line/field diagnostic."""

    def __init__(self, message, line=None, field=None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if field is not None:
            parts.append(f"field '{field}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.line = line
        self.field = field
