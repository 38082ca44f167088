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


def as_tuple(value: object) -> tuple | None:
    """``value`` as a tuple, else None: for a string, whose characters are no items, and for what is not iterable."""
    try:
        return None if isinstance(value, str) else tuple(value)
    except TypeError:
        return None


def require_tuple(name: str, value: object, error: type = ValidationError) -> tuple:
    """``value`` as a tuple (``as_tuple``), else raise ``error("<name> must be a sequence, got <value>")``."""
    if (items := as_tuple(value)) is None:
        raise error(f"{name} must be a sequence, got {value!r}")
    return items


def require_real(name: str, value: object, low: float, high: float, closed: bool = False) -> float:
    """``value`` as a float (``as_float``: no numpy scalar is stored) if it lies in (low, high), or in [low, high]
    if ``closed``; else raise ``<name> must lie in (low, high), got <value>``."""
    number = as_float(value)
    if number is None or not (low <= number <= high if closed else low < number < high):
        raise ConfigError((name, f"must lie in {'(['[closed]}{low}, {high}{')]'[closed]}", value))
    return number


def require_int(name: str, value: object, minimum: int, wording: str = "") -> None:
    """Raise ``<name> must be <wording>, got <value>`` unless ``value`` is an int >= ``minimum``."""
    if not is_number(value, int) or value < minimum:
        raise ConfigError((name, f"must be {wording or f'an integer >= {minimum}'}", value))


def as_array(values: object, what: str, noun: str | None = None) -> np.ndarray:
    """``values`` as numpy makes an array of them, and a ragged nesting, of which it makes none, as an object array.
    Given the ``noun`` of the values, an array not in one dimension raises ``<what> must be a one-dimensional
    sequence of <noun>, got shape (...)``."""
    try:
        array = np.asarray(values)
    except ValueError:
        array = np.asarray(values, dtype=object)
    if noun is not None and array.ndim != 1:
        raise ValidationError(f"{what} must be a one-dimensional sequence of {noun}, got shape {array.shape}")
    return array


def real_array(values: object, what: str, unit: bool = False, vector: bool = False) -> np.ndarray:
    """``values`` as a float64 array, copied only from another real dtype; with ``vector``, in one dimension
    (``as_array``). One check of the dtype rejects text, bools, None, complex numbers, ints beyond int64 and a ragged
    nesting; with ``unit``, the first value outside [0, 1], NaN too, is named."""
    array = as_array(values, what, "real numbers" if vector else None)
    if array.dtype.kind not in "iuf":
        raise ValidationError(f"{what} must be real numbers, got {array.dtype.name} values")
    array = array.astype(float, copy=False)
    if unit and (outside := ~((array >= 0.0) & (array <= 1.0))).any():
        raise ValidationError(f"{what} must be in [0, 1], got {float(array[outside][0])!r}")
    return array
