"""Exception taxonomy shared across the package."""


class ShapeError(ValueError):
    """Array dimensions do not agree with the declared contract."""


class ConfigError(ValueError):
    """A configuration value violates a precondition."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but numerically unusable (e.g. zero norm)."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class TraceIntegrityError(ValueError):
    """An execution trace is inconsistent with the architecture that produced it."""


class EnvError(RuntimeError):
    """The environment received an invalid action or reached an invalid state."""
