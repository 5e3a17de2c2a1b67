"""2-D scalar grids and their two unit regimes.

A :class:`Field` is a finite 2-D array tagged with the unit regime its values
live in:

* ``"data"``  -- storage and evaluation units, nominally [0, 1];
* ``"model"`` -- diffusion units, nominally [-1, 1].

The two regimes are related by the affine pair

    model = 2 * data - 1        data = (model + 1) / 2

which is its own exact inverse for every value the pipeline actually moves
around (anything that survived a round trip through 32-bit storage, and any
value on the 2^-53 grid produced by a uniform draw).  Tiny magnitudes below
about 2^-29 can lose low bits to the shift; nothing in the package produces
or depends on such values.

Fields are treated as immutable: operations return new instances and never
write into ``values`` in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, UnitsError

DATA_UNITS = "data"
MODEL_UNITS = "model"
_UNIT_NAMES = (DATA_UNITS, MODEL_UNITS)


@dataclass(frozen=True, eq=False)
class Field:
    """A finite 2-D float64 grid plus the unit regime of its values."""

    values: np.ndarray
    units: str = DATA_UNITS

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"field values must be 2-D, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ShapeError("field must have at least one pixel")
        require_finite(arr)
        if self.units not in _UNIT_NAMES:
            raise UnitsError(f"unknown unit regime {self.units!r}; expected one of {_UNIT_NAMES}")
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def like(self, values: np.ndarray) -> "Field":
        """A new field with the same unit regime and fresh values."""
        return Field(values, self.units)


def require_finite(values: np.ndarray, what: str = "field") -> None:
    """Raise NumericError unless every value is finite."""
    if not np.isfinite(values).all():
        raise NumericError(f"{what} contains non-finite values")


def require_units(field: Field, units: str, what: str = "field") -> None:
    """Raise UnitsError unless ``field`` is in the given regime."""
    if field.units != units:
        raise UnitsError(f"{what} must be in {units!r} units, got {field.units!r}")


def require_same_shape(a: Field, b: Field, what: str = "fields") -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{what} must share a shape, got {a.shape} vs {b.shape}")


def to_model(field: Field) -> Field:
    """Map a data-regime field onto [-1, 1] model units."""
    require_units(field, DATA_UNITS)
    return Field(2.0 * field.values - 1.0, MODEL_UNITS)


def to_data(field: Field) -> Field:
    """Map a model-regime field back onto [0, 1] data units (no clamping)."""
    require_units(field, MODEL_UNITS)
    return Field((field.values + 1.0) / 2.0, DATA_UNITS)


def clamp01(field: Field) -> Field:
    """Clamp a data-regime field into [0, 1]."""
    require_units(field, DATA_UNITS)
    return Field(np.clip(field.values, 0.0, 1.0), DATA_UNITS)
