"""Discretized separable Hilbert space core.

Everything operates on weighted finite grids: a measure space (Omega, mu)
reduced to K points with strictly positive masses.  Complex coefficient
vectors over a grid carry the weighted inner product

    <x, y> = sum_k mu_k x_k conj(y_k).

Zero-padding onto an extending grid, direct sums of grids, and the fixed
witness sequence used by the semigroup metrics live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two vectors do not live on the same (or a compatible) grid."""


def _is_integer(v) -> bool:
    """A Python or NumPy integer; bools are not counts."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class WeightedGrid:
    """K real grid points with strictly positive masses."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        wts = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if pts.ndim != 1 or wts.ndim != 1:
            raise ValueError("points and weights must be one-dimensional")
        if pts.size != wts.size:
            raise ValueError("points and weights must have equal length")
        if pts.size < 1:
            raise ValueError("grid must have at least one point")
        if not np.all(np.isfinite(wts)) or not np.all(wts > 0):
            raise ValueError("all weights must be strictly positive and finite")
        if not np.isfinite(pts).all():
            raise ValueError("all points must be finite")
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def size(self) -> int:
        return self.points.size

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def same_as(self, other: "WeightedGrid") -> bool:
        return self is other or (
            self.size == other.size
            and np.array_equal(self.points, other.points)
            and np.array_equal(self.weights, other.weights)
        )

    @staticmethod
    def uniform(size: int, weight: float = 1.0) -> "WeightedGrid":
        return WeightedGrid(np.arange(size, dtype=float), np.full(size, float(weight)))


@dataclass(frozen=True)
class HVector:
    """Complex coefficient vector over a weighted grid."""

    grid: WeightedGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(np.asarray(self.coeffs, dtype=complex))
        if c.ndim != 1 or c.size != self.grid.size:
            raise ValueError("coefficient count must equal grid size")
        if not np.isfinite(c).all():
            raise ValueError("all coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(np.sqrt((self.grid.weights * np.abs(self.coeffs) ** 2).sum()))

    def normalized(self) -> "HVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return HVector(self.grid, self.coeffs / n)

    def __add__(self, other: "HVector") -> "HVector":
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("vector addition requires a shared grid")
        return HVector(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other: "HVector") -> "HVector":
        if not self.grid.same_as(other.grid):
            raise GridMismatchError("vector subtraction requires a shared grid")
        return HVector(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar) -> "HVector":
        return HVector(self.grid, self.coeffs * complex(scalar))

    __rmul__ = __mul__


def _is_prefix_grid(short: WeightedGrid, long: WeightedGrid) -> bool:
    # equal bytes are equal entries; only a signed zero needs the slower check
    k = short.size
    return long.size >= k and all(
        a[:k].tobytes() == b.tobytes() or np.array_equal(a[:k], b)
        for a, b in ((long.points, short.points), (long.weights, short.weights)))


def pad_to_grid(x: HVector, grid: WeightedGrid) -> HVector:
    """Zero-extend x onto a grid that has x's grid as a prefix (a model's
    longer grid, or the room a truncated shift needs for its shift)."""
    if x.grid.same_as(grid):
        return x
    if not _is_prefix_grid(x.grid, grid):
        raise GridMismatchError("target grid does not extend the vector's grid")
    c = np.zeros(grid.size, dtype=complex)
    c[: x.grid.size] = x.coeffs
    return HVector(grid, c)


@dataclass(frozen=True)
class SumSpace:
    """Orthogonal direct sum of component grids, finitely truncated."""

    components: tuple[WeightedGrid, ...]
    offsets: tuple[int, ...] = field(init=False)
    combined: WeightedGrid = field(init=False)

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("a SumSpace needs at least one component")
        offs, total = [], 0
        for g in comps:
            offs.append(total)
            total += g.size
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "offsets", tuple(offs))
        object.__setattr__(
            self,
            "combined",
            WeightedGrid(
                np.concatenate([g.points for g in comps]),
                np.concatenate([g.weights for g in comps]),
            ),
        )

    @property
    def dimension(self) -> int:
        return self.combined.size

    def block_slice(self, block: int) -> slice:
        if not 0 <= block < len(self.components):
            raise IndexError(f"block index {block} out of range")
        start = self.offsets[block]
        return slice(start, start + self.components[block].size)


@dataclass(frozen=True)
class DenseSequence:
    """Finite truncation of a fixed dense sequence of nonzero witnesses."""

    vectors: tuple[HVector, ...]

    def __post_init__(self):
        vecs = tuple(self.vectors)
        if not vecs:
            raise ValueError("dense sequence must be nonempty")
        for j, v in enumerate(vecs):
            if v.norm() == 0.0:
                raise ValueError(f"witness {j} is the zero vector")
        object.__setattr__(self, "vectors", vecs)

    def __len__(self) -> int:
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __getitem__(self, j: int) -> HVector:
        return self.vectors[j]

    @staticmethod
    def gaussian(grid: WeightedGrid, count: int = 16, seed: int = 0) -> "DenseSequence":
        """Seeded complex Gaussian witnesses; the default witness choice.

        Metric values depend on this choice, the induced topology does not.
        """
        rng = np.random.default_rng(seed)
        vecs = []
        for _ in range(count):
            c = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
            vecs.append(HVector(grid, c))
        return DenseSequence(tuple(vecs))
