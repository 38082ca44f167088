"""Exception types shared across the package, and the checks on setting values and on numeric array arguments."""

import numbers

import numpy as np


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


def real_array(values: object, what: str, unit: bool = False) -> np.ndarray:
    """``values`` as a float64 array, copied only from another real dtype. One check of the dtype rejects text, bools,
    None, complex numbers and ints beyond int64; with ``unit``, the first value outside [0, 1], NaN too, is named."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real numbers, got {array.dtype.name} values")
    array = array.astype(float, copy=False)
    if unit and (outside := ~((array >= 0.0) & (array <= 1.0))).any():
        raise ValidationError(f"{what} must be in [0, 1], got {float(array[outside][0])!r}")
    return array
