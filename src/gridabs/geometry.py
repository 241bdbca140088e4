"""Uniform grid decompositions of R^n: cell indexing, boxes, and distance predicates."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

CellIndex = tuple[int, ...]

# Absolute slack for boundary-sensitive predicates.
DISTANCE_ATOL = 1e-12

_TINY = np.finfo(float).tiny

# Rows up to this length are summed by adding their components in order,
# which is what numpy's reduction does there too; numpy sums longer rows
# pairwise, so those go through numpy itself.
ORDERED_SUM_MAX = 7


def _as_point(x, dimension):
    x = np.asarray(x, dtype=float)
    if x.shape != (dimension,):
        raise ValueError(f"expected a point in R^{dimension}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    return x


def components(x):
    """The n component arrays ``x[..., k]`` of points ``x`` shaped (..., n).

    Kernels on (..., n) arrays work on these, so each elementwise step runs
    over the long leading axes; an operand that broadcasts a short length-n
    axis against many rows makes numpy step n elements at a time instead.
    """
    x = np.asarray(x)
    return [x[..., k] for k in range(x.shape[-1])]


def from_components(parts):
    """Points shaped (..., n) from n component arrays of one shape; C-contiguous."""
    out = np.empty(np.shape(parts[0]) + (len(parts),))
    for k, part in enumerate(parts):
        out[..., k] = part
    return out


def sum_squares(x):
    """Sum of squares over the last axis; equals ``np.sum(x*x, axis=-1)`` bit for bit.

    Short rows add their squared components in order, which avoids numpy's
    reduction machinery on a length-n axis.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if not 0 < n <= ORDERED_SUM_MAX:
        return np.sum(x * x, axis=-1)
    return component_sum_squares(components(x))


def component_sum_squares(parts):
    """:func:`sum_squares` of the points whose components are ``parts``.

    ``parts`` are float arrays of one shape, as :func:`components` gives; the
    result equals ``sum_squares(np.stack(parts, axis=-1))`` bit for bit.
    """
    if len(parts) > ORDERED_SUM_MAX:
        return sum_squares(np.stack(parts, axis=-1))
    total = parts[0] * parts[0]
    for k in range(1, len(parts)):
        total += parts[k] * parts[k]
    return total


def row_norm(x):
    """Euclidean norm over the last axis; equals ``np.linalg.norm(x, axis=-1)`` bit for bit.

    numpy computes that norm as the square root of the same sum of squares.
    """
    return np.sqrt(sum_squares(x))


def box_distance(lo, hi, x):
    """Euclidean distance from ``x`` to the closed box [lo, hi]; broadcasts.

    All three are shaped (..., n); the gap to the box is taken one component
    at a time.
    """
    gaps = [np.maximum(np.maximum(a - b, 0.0), b - c)
            for a, b, c in zip(components(lo), components(x), components(hi))]
    return np.sqrt(component_sum_squares(gaps))


def uniform_in_box(rng, lo, hi, count):
    """``rng.uniform(lo, hi, size=(count, n))`` bit for bit, for corners lo, hi (n,).

    The generator draws ``lo + (hi - lo) * u`` per entry in C order with u
    from ``rng.random``; drawing u first and mapping one component at a time
    gives the same stream and the same values.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = rng.random((count, lo.shape[-1]))
    for col, low, span in zip(components(out), lo, hi - lo):
        col *= span
        col += low
    return out


def uniform_in_ball(rng, count, dim, radius):
    """``count`` uniform points of the closed ball of ``radius`` about 0 in R^dim,
    shaped (count, dim): normal directions, then radii ``radius * u**(1/dim)``."""
    direction = rng.normal(size=(count, dim))
    direction /= np.maximum(row_norm(direction)[:, None], _TINY)
    r = radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / dim)
    return direction * r


def first_true(mask):
    """Index tuple of the first True entry of ``mask`` in C order, or None."""
    hits = np.argwhere(mask)
    return tuple(int(v) for v in hits[0]) if len(hits) else None


@dataclass(frozen=True)
class Box:
    """Axis-aligned box between corners ``lo`` and ``hi``; distances use its closure.

    Which cell holds a point is decided by `GridDecomposition.cell_indices` alone."""

    lo: np.ndarray
    hi: np.ndarray

    def face_margin(self, x):
        """Distance from points ``x`` (..., n) to the nearest face; negative outside."""
        return np.minimum((x - self.lo).min(axis=-1), (self.hi - x).min(axis=-1))


@dataclass(frozen=True)
class CellConfiguration:
    """An agent's own cell followed by its neighbors' cells, in declared order."""

    agent: int
    cells: tuple[CellIndex, ...]

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(tuple(int(c) for c in z) for z in self.cells))
        if len(self.cells) < 1:
            raise ValueError("configuration needs at least the agent's own cell")

    @property
    def own(self) -> CellIndex:
        return self.cells[0]

    @property
    def neighbor_cells(self) -> tuple[CellIndex, ...]:
        return self.cells[1:]


class GridDecomposition:
    """Uniform axis-aligned tiling of R^n by half-open cubes of edge ``side``.

    Cell ``z`` (an integer tuple) covers ``origin + side*z <= x < origin +
    side*(z+1)`` per axis, so every point lies in exactly one cell and a shared
    face belongs to the cell with the larger index on the touching axis.
    """

    def __init__(self, dimension, side, origin=None):
        dimension = int(dimension)
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        side = float(side)
        if not (side > 0.0 and np.isfinite(side)):
            raise ValueError("cell side must be positive and finite")
        if origin is None:
            origin = np.zeros(dimension)
        origin = _as_point(origin, dimension).copy()
        origin.setflags(write=False)
        self.dimension = dimension
        self.side = side
        self.origin = origin

    def __repr__(self):
        return (f"GridDecomposition(dimension={self.dimension}, side={self.side!r}, "
                f"origin={self.origin.tolist()!r})")

    def cell_of(self, x) -> CellIndex:
        """Index of the unique cell containing ``x``; the validated one-point
        form of :meth:`cell_indices`."""
        return tuple(int(c) for c in self.cell_indices(_as_point(x, self.dimension)))

    def cell_indices(self, x) -> np.ndarray:
        """Cell indices of points shaped ``(..., n)``, as a float array.

        The floor of the offset in sides can round across a face, so it is
        corrected by one against the corners :meth:`cell_lo` gives: ``x`` lies
        in ``z`` exactly when ``cell_lo(z) <= x < cell_lo(z + 1)`` per axis.
        It does not validate ``x``.
        """
        x = np.asarray(x, dtype=float)
        z = np.floor((x - self.origin) / self.side)
        z -= x < self.cell_lo(z)
        z += x >= self.cell_lo(z + 1.0)
        return z

    def first_outside(self, x, cells):
        """Leading index (C order) of the first point of ``x`` (..., n) outside its
        cell in ``cells`` (integer indices, broadcast), or None; ``()`` for one point."""
        return first_true(np.any(self.cell_indices(x) != cells, axis=-1))

    def cell_lo(self, z) -> np.ndarray:
        """Lower corners of cells given as integer indices shaped ``(..., n)``."""
        return self.origin + self.side * np.asarray(z, dtype=float)

    def cell_box(self, z) -> Box:
        """Bounds of integer cells shaped ``(..., n)``; the one home of the upper face."""
        z = np.asarray(z, dtype=np.int64)
        if z.shape[-1:] != (self.dimension,):
            raise ValueError(f"expected cell indices of length {self.dimension}, "
                             f"got shape {z.shape}")
        lo = self.cell_lo(z)
        return Box(lo=lo, hi=lo + self.side)

    def cell_center(self, z) -> np.ndarray:
        """Centers of cells given as integer indices shaped ``(..., n)``."""
        return self.origin + self.side * (np.asarray(z, dtype=float) + 0.5)

    def diameter(self) -> float:
        """Largest distance between two points of one cell: side * sqrt(n)."""
        return self.side * float(np.sqrt(self.dimension))

    def distance_to_cell(self, z, x):
        """Euclidean distance from ``x`` to the closure of cell ``z`` (0 inside).

        ``z`` is one cell or integer cells shaped ``(..., n)``, as :meth:`cell_lo`
        takes, broadcast against points ``x`` shaped ``(..., n)``; one cell and
        one point give a float.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.dimension,):
            raise ValueError(f"expected points in R^{self.dimension}, got shape {x.shape}")
        box = self.cell_box(z)
        out = box_distance(box.lo, box.hi, x)
        return float(out) if out.ndim == 0 else out

    def inflated_contains(self, z, radius, x):
        """Whether ``x`` lies in cell ``z`` inflated by a ball of ``radius``.

        Takes cells and points as :meth:`distance_to_cell` does.
        """
        radius = float(radius)
        if radius < 0.0:
            raise ValueError("inflation radius must be nonnegative")
        return self.distance_to_cell(z, x) <= radius + DISTANCE_ATOL

    @property
    def corner_inset(self) -> float:
        """Inset of sampled cell corners; absolute, so it rounds away far from the origin."""
        return 1e-9 * self.side

    def cell_corners(self, z, inset=0.0) -> np.ndarray:
        """The 2^n corner points of cell ``z``, pulled inward by ``inset``."""
        box = self.cell_box(z)
        return np.array(list(itertools.product(*zip(box.lo + inset, box.hi - inset))))

    def sample_in_cell(self, z, rng, count=1) -> np.ndarray:
        """Uniform samples inside cell ``z``, shape (count, n)."""
        box = self.cell_box(z)
        return uniform_in_box(rng, box.lo, box.hi, count)

    def sample_with_corners(self, z, rng, count) -> np.ndarray:
        """``sample_in_cell(z, rng, count)`` with its first min(count, 2^n) rows
        replaced by the cell's corners, pulled inward by ``corner_inset``."""
        out = self.sample_in_cell(z, rng, count)
        corners = self.cell_corners(z, inset=self.corner_inset)
        out[:len(corners)] = corners[:count]
        return out

    def uniform_in_cells(self, z, rng) -> np.ndarray:
        """One uniform point in each cell of integer indices ``z`` (..., n).

        Equals ``rng.uniform(lo, lo + side)`` at the cells' lower corners ``lo``
        bit for bit: one ``rng.random`` draw per entry in C order, mapped to
        ``lo + (hi - lo) * u``.
        """
        box = self.cell_box(z)
        out = rng.random(box.lo.shape)
        out *= box.hi - box.lo
        out += box.lo
        return out
