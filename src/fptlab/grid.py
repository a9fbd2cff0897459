"""Dyadic piecewise-constant functions on [0, 1] and their generator sequences.

The ambient space is L1([0, 1], Lebesgue).  A function is stored by its
values on the 2**level dyadic cells, which keeps every construction used
here (peaks, sign blocks, halving shifts) exact: there is no quadrature
error anywhere, only float arithmetic.
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

#: Global absolute tolerance for float comparisons throughout the package.
DEFAULT_TOL = 1e-9

#: Largest supported grid level (2**24 cells is far beyond desk scale).
MAX_LEVEL = 24

#: Trailing share of a finite run that stands in for its tail: every limsup
#: and liminf of the package is the max or min over this one window.
WINDOW_FRACTION = 0.5


def check_level(level) -> int:
    """``level`` as an int: an integer, not a bool, in [0, MAX_LEVEL]."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ValueError(f"level must be an integer, got {level!r}")
    if not (0 <= level <= MAX_LEVEL):
        raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
    return int(level)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Piecewise-constant function on the dyadic partition of [0, 1].

    ``values[i]`` is the value on the cell ``[i * 2**-level, (i+1) * 2**-level)``.
    Instances are immutable.  Arithmetic returns new objects, and operands
    must share a level.
    """

    #: Point type tag in JSON payloads.
    kind = "grid"
    level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", check_level(self.level))
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size != 2 ** self.level:
            raise ValueError(
                f"expected {2 ** self.level} values for level {self.level}, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def cell_width(self) -> float:
        return 2.0 ** -self.level

    @property
    def array(self) -> np.ndarray:
        """The stored values, one slot per cell."""
        return self.values

    @property
    def weights(self) -> np.ndarray:
        """Norm weight of each slot: the cell width."""
        return _cell_widths(self.level)

    #: Measure of each slot's support: again the cell width.
    widths = weights

    def like(self, array) -> GridFunction:
        """Point of the same grid holding ``array``."""
        return GridFunction(self.level, array)

    def norm(self) -> float:
        """Integral of |f| over [0, 1]."""
        return float(np.abs(self.values).sum() * self.cell_width)

    def row_norms(self, rows: np.ndarray) -> np.ndarray:
        """``norm`` of each row of a C-contiguous 2-d array of cell values,
        bit-equal to it (see abs_row_norms)."""
        return self.abs_row_norms(np.abs(rows))

    def abs_row_norms(self, magnitudes: np.ndarray) -> np.ndarray:
        """``row_norms`` of the rows whose absolute values the C-contiguous
        2-d array ``magnitudes`` holds, so that a caller may take them in
        place in its own buffer: the one row-norm rule of the grid, each row
        summed as one 1-d array is."""
        return magnitudes.sum(axis=1) * self.cell_width

    def row_integrals(self, rows: np.ndarray) -> np.ndarray:
        """Integral of each row of a C-contiguous 2-d array of cell values,
        or of one 1-d array: the one integral rule, so ``integral`` is its
        one-row case."""
        return rows.sum(axis=-1) * self.cell_width

    def _compat(self, other: GridFunction) -> None:
        if not isinstance(other, GridFunction):
            raise TypeError("expected GridFunction operands")
        if other.level != self.level:
            raise ValueError(f"mixed grid levels {self.level} and {other.level}")

    @classmethod
    def constant(cls, value: float, level: int) -> GridFunction:
        return cls(level, np.full(2 ** level, float(value)))

    @classmethod
    def zero(cls, level: int) -> GridFunction:
        return cls.constant(0.0, level)

    def integral(self) -> float:
        """Lebesgue integral over [0, 1]."""
        return float(self.row_integrals(self.values))

    def __add__(self, other: GridFunction) -> GridFunction:
        self._compat(other)
        return GridFunction(self.level, self.values + other.values)

    def __sub__(self, other: GridFunction) -> GridFunction:
        self._compat(other)
        return GridFunction(self.level, self.values - other.values)

    def __neg__(self) -> GridFunction:
        return GridFunction(self.level, -self.values)

    def __mul__(self, scalar: float) -> GridFunction:
        return GridFunction(self.level, self.values * float(scalar))

    __rmul__ = __mul__

    def to_json(self) -> str:
        return json.dumps({"level": self.level, "values": self.values.tolist()})

    def __repr__(self) -> str:
        return f"GridFunction(level={self.level}, norm={self.norm():.6g})"


@functools.lru_cache(maxsize=8)
def _cell_widths(level: int) -> np.ndarray:
    """Read-only array of the 2**level cell widths, built once per level:
    every in-measure distance reads it twice."""
    widths = np.full(2 ** level, 2.0 ** -level)
    widths.setflags(write=False)
    return widths


def peak_sequence(n: int, level: int) -> GridFunction:
    """Density n * indicator([0, 1/n]) for a power of two n.

    Each peak has unit integral, unit norm, and support of measure 1/n, so
    the sequence goes to zero in measure while staying on the unit sphere.
    """
    if n < 1 or (n & (n - 1)) != 0:
        raise ValueError(f"n must be a positive power of two, got {n}")
    cells = 2 ** level
    if n > cells:
        raise ValueError(f"peak n={n} does not resolve at level {level}")
    vals = np.zeros(cells)
    vals[: cells // n] = float(n)
    return GridFunction(level, vals)


def rademacher(n: int, level: int) -> GridFunction:
    """Sign function alternating +1/-1 on consecutive blocks of width 2**-n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > level:
        raise ValueError(f"rademacher n={n} does not resolve at level {level}")
    block = 2 ** (level - n)
    pattern = np.repeat(np.array([1.0, -1.0]), block)
    return GridFunction(level, np.tile(pattern, 2 ** (n - 1)))


def _trailing_window(terms) -> tuple[float, ...]:
    """The trailing window of a finite real sequence (see WINDOW_FRACTION).

    On a finite run the limit superior of a sequence is approximated by the
    maximum over this window and the limit inferior by the minimum.
    """
    terms = tuple(float(t) for t in terms)
    if not terms:
        raise ValueError("empty sequence")
    if not all(math.isfinite(t) for t in terms):
        raise ValueError("terms must be finite")
    return terms[len(terms) - window_length(len(terms)):]


def window_length(n: int) -> int:
    """Number of trailing terms in the window of a run of ``n`` terms: the
    ``WINDOW_FRACTION`` share, rounded up, and at least one."""
    return max(1, math.ceil(WINDOW_FRACTION * n))


def limsup_tail(terms) -> float:
    """Max over the trailing window: the finite-run stand-in for limsup."""
    return max(_trailing_window(terms))


def liminf_tail(terms) -> float:
    """Min over the trailing window: the finite-run stand-in for liminf."""
    return min(_trailing_window(terms))
