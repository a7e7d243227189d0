"""Discretized separable Hilbert space core.

Everything operates on weighted finite grids: a measure space (Omega, mu)
reduced to K points with strictly positive masses.  Complex coefficient
vectors over a grid carry the weighted inner product

    <x, y> = sum_k mu_k x_k conj(y_k).

Zero-padding onto an extending grid, direct sums of grids, and the fixed
witness sequence used by the semigroup metrics live here as well, and so
does the one intake of every checked input: `_intake` for an array field,
`_count` and `_positive` for a scalar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two vectors do not live on the same (or a compatible) grid."""


def _count(v, name: str, low: int = 1):
    """v if it is a Python or NumPy integer >= low, never a bool; else ValueError."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
    return v


def _positive(v, name: str):
    """v if it is a finite Python or NumPy real > 0, never a bool; else ValueError."""
    real = isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
    if not (real and 0 < v < np.inf):
        raise ValueError(f"{name} must be a finite number > 0, got {v!r}")
    return v


def _intake(obj, name: str, dtype: type, shape: tuple, shape_rule: str) -> None:
    """The one intake of an array field `name` of a frozen dataclass: refuse a complex
    value for a float field (a cast drops its imaginary part), cast once to C-contiguous
    `dtype`, check `shape` (else `shape_rule`) and finiteness, freeze, write back."""
    a = getattr(obj, name)
    if dtype is float and np.iscomplexobj(a):
        raise ValueError(f"{name} must be real")
    a = np.ascontiguousarray(a, dtype=dtype)
    if a.shape != shape:
        raise ValueError(shape_rule)
    # the float view halves a complex array's check; count_nonzero beats .all() when short
    finite = np.isfinite(a.view(float))
    if np.count_nonzero(finite) < finite.size:
        raise ValueError(f"{name} must be finite")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)


@dataclass(frozen=True)
class WeightedGrid:
    """K real grid points with strictly positive masses."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        _intake(self, "points", float, (np.size(self.points),), "points must be one-dimensional")
        _intake(self, "weights", float, self.points.shape,
                "points and weights must have equal length")
        if self.points.size < 1:
            raise ValueError("grid must have at least one point")
        if not (self.weights > 0).all():
            raise ValueError("all weights must be strictly positive")

    @property
    def size(self) -> int:
        return self.points.size

    def same_as(self, other: "WeightedGrid") -> bool:
        return self is other or (self.size == other.size and _is_prefix_grid(self, other))

    @staticmethod
    def uniform(size: int, weight: float = 1.0) -> "WeightedGrid":
        return WeightedGrid(np.arange(size, dtype=float), np.full(size, float(weight)))


@dataclass(frozen=True)
class HVector:
    """Complex coefficient vector over a weighted grid: coefficients and a
    norm, no arithmetic; to combine vectors, combine their `coeffs`."""

    grid: WeightedGrid
    coeffs: np.ndarray

    def __post_init__(self):
        _intake(self, "coeffs", complex, (self.grid.size,), "coefficient count must equal grid size")

    def norm(self) -> float:
        return float(np.sqrt((self.grid.weights * np.abs(self.coeffs) ** 2).sum()))

    def normalized(self) -> "HVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return HVector(self.grid, self.coeffs / n)


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
        # one draw in the order of a real then an imaginary part per witness
        parts = np.random.default_rng(seed).standard_normal((count, 2, grid.size))
        return DenseSequence(tuple(HVector(grid, re + 1j * im) for re, im in parts))
