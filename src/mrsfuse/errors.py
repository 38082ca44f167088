"""Exception types shared across the package, and the checks on setting values."""

import numbers


class ValidationError(ValueError):
    """Input data violates a documented invariant."""


class ConfigError(ValueError):
    """A configuration value is missing, inconsistent, or out of range.

    A rule on named settings passes a ``(field, problem, value)`` triple per field it blames, the most
    at fault first, and ``blame`` keeps them. The message is a leading string if one is given, else
    ``<field> <problem>, got <value!r>`` from the first triple.
    """

    def __init__(self, *blame: str | tuple[str, str, object]):
        self.blame = [item for item in blame if isinstance(item, tuple)]
        if blame and isinstance(blame[0], tuple):
            field, problem, value = blame[0]
            blame = (f"{field} {problem}, got {value!r}",)
        super().__init__(*blame[:1])


class DegenerateDataError(ValueError):
    """Data is too degenerate for the requested computation.

    Raised for single-class truth vectors, constant score vectors, and
    similar inputs for which the result would be undefined.
    """


def is_number(value: object, kind: type = numbers.Real) -> bool:
    """True for an instance of ``kind`` other than a bool: ``True`` is not a count, a seed or a bound."""
    return isinstance(value, kind) and not isinstance(value, bool)


def as_float(value: object) -> float | None:
    """A real number other than a bool as a float (NaN and infinities too), else None, as for an int beyond float
    range. Range checks compare these floats, never a narrower numpy type with a cast-down ``sys.float_info.max``."""
    try:
        return float(value) if is_number(value) else None
    except OverflowError:
        return None


def require_int(name: str, value: object, minimum: int, wording: str = "") -> None:
    """Raise ``<name> must be <wording>, got <value>`` unless ``value`` is an int >= ``minimum``."""
    if not is_number(value, int) or value < minimum:
        raise ConfigError((name, f"must be {wording or f'an integer >= {minimum}'}", value))
