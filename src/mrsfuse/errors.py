"""Exception types shared across the package, and the integer setting check."""


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


class ConfigError(ValueError):
    """A configuration value is missing, inconsistent, or out of range."""


class DegenerateDataError(ValueError):
    """Data is too degenerate for the requested computation.

    Raised for single-class truth vectors, constant score vectors, and
    similar inputs for which the result would be undefined.
    """


def require_int(name: str, value: object, minimum: int, wording: str) -> None:
    """Raise ``<name> must be <wording>, got <value>`` unless ``value`` is an int >= ``minimum``.

    ``bool`` is an ``int`` subclass, but ``True`` is not a count or a seed.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be {wording}, got {value!r}")
