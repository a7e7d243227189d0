"""Concrete semigroup representations with a uniform apply/adjoint interface.

Four structural models cover everything the constructions produce:
multiplication (spectral) groups, truncated right shifts, periodic circular
shifts, and blockwise direct sums.  A fifth wrapper conjugates a model by a
unitary basis change, which is how mixed/benchmark operators and the outputs
of the Wold-based approximation pipeline are represented on their original
ambient space.

Shift conventions: admissible times are integer multiples of the cell step h;
applying a truncated right shift EXTENDS the payload grid by the shifted
cells instead of dropping mass, so isometry is exact.  Inside a direct sum
the ambient space is fixed, so there the overflow of a shift block is
truncated (that truncated one-step map is exactly what the Wold analysis
needs).

`one_step_matrix` builds T(h) from each model's structure, not from `apply`:
a phase diagonal, a (circular) shift of cells, a block-diagonal sum, and
B* inner(h) B for a conjugation.  Shift grids are memoized, so equal grids
are one object and compare by identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    GridMismatchError,
    HVector,
    SumSpace,
    WeightedGrid,
    difference_norm,
    inner_product,
)


class InadmissibleTimeError(ValueError):
    """The requested time is not in the model's admissible set."""


# relative distance from the step lattice up to which a time counts as on it
_STEP_RTOL = 1e-9


def _shift_steps(t: float, h: float) -> int:
    ell = int(round(t / h))
    if abs(t - ell * h) > _STEP_RTOL * max(1.0, abs(t)):
        raise InadmissibleTimeError(f"t={t} is not an integer multiple of step {h}")
    return ell


def _shift_payload_cells(grid: WeightedGrid, step: float, fiber_dim: int) -> int:
    """Cell count of a payload grid that has weight `step` on every entry.

    The weights are finite (WeightedGrid checks), so one max over
    |w - step| gives the same answer as np.allclose(w, step).
    """
    w = grid.weights
    if w.size % fiber_dim != 0 or np.abs(w - step).max() > 1e-8 + 1e-5 * step:
        raise GridMismatchError("payload grid is not shift-compatible")
    return w.size // fiber_dim


def shift_grid(cells: int, step: float, fiber_dim: int = 1) -> WeightedGrid:
    """Cell-major grid for L2([0, cells*h), C^m): weight h per entry.

    Memoized: equal arguments give the same (frozen, read-only) instance.
    """
    return _shift_grid(cells, step, fiber_dim)


@functools.lru_cache(maxsize=64)
def _shift_grid(cells: int, step: float, fiber_dim: int) -> WeightedGrid:
    pts = np.repeat(np.arange(cells, dtype=float) * step, fiber_dim)
    return WeightedGrid(pts, np.full(cells * fiber_dim, step))


class SemigroupModel:
    """Common interface; concrete models subclass this."""

    is_unitary: bool = False
    is_isometric: bool = False

    def apply(self, t: float, x: HVector) -> HVector:
        raise NotImplementedError

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        raise NotImplementedError

    def admissible(self, t: float) -> bool:
        raise NotImplementedError

    @property
    def grid(self) -> WeightedGrid:
        raise NotImplementedError

    @property
    def time_step(self):
        """Smallest positive admissible step, or None if all reals admissible."""
        return None

    def max_frequency(self):
        """Upper bound on the generator's spectral radius, when available."""
        return None

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(freqs, basis) with T(t) = B* diag(exp(i t freqs)) B in weighted
        coordinates of `grid`; basis None means the identity.  None for
        models without one: every non-unitary model, and direct sums whose
        parts disagree on their time step or act on a longer component grid
        than their own."""
        return None

    def _one_step(self, h: float, grid: WeightedGrid) -> np.ndarray:
        """Matrix of T(h) in weighted coordinates of `grid`, truncated to it."""
        raise NotImplementedError


@dataclass(frozen=True)
class MultiplicationGroup(SemigroupModel):
    """(U(t)x)_k = exp(i t q_k) x_k on a weighted grid; always unitary."""

    _grid: WeightedGrid
    symbol: np.ndarray
    is_unitary: bool = field(default=True, init=False)
    is_isometric: bool = field(default=True, init=False)

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.symbol, dtype=float))
        if q.shape != (self._grid.size,):
            raise ValueError("symbol length must equal grid size")
        if not np.isfinite(q).all():
            raise ValueError("symbol must be finite")
        q.setflags(write=False)
        object.__setattr__(self, "symbol", q)

    @property
    def grid(self) -> WeightedGrid:
        return self._grid

    def admissible(self, t: float) -> bool:
        return True

    def apply(self, t: float, x: HVector) -> HVector:
        if not x.grid.same_as(self._grid):
            raise GridMismatchError("vector does not live on the model's grid")
        return HVector(self._grid, np.exp(1j * t * self.symbol) * x.coeffs)

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        return self.apply(-t, x)

    def max_frequency(self) -> float:
        return float(np.abs(self.symbol).max())

    def spectral_form(self) -> tuple[np.ndarray, None]:
        return self.symbol, None

    def _one_step(self, h: float, grid: WeightedGrid) -> np.ndarray:
        if not grid.same_as(self._grid):
            raise GridMismatchError("vector does not live on the model's grid")
        return np.diag(np.exp(1j * h * self.symbol))


@dataclass(frozen=True)
class ShiftSemigroup(SemigroupModel):
    """Truncated right shift on cell-major payloads; isometric, not unitary.

    `cells` is the nominal payload size; apply accepts any payload whose
    grid extends the nominal one and returns a payload extended by the
    shifted cells.
    """

    step: float
    cells: int
    fiber_dim: int = 1
    is_unitary: bool = field(default=False, init=False)
    is_isometric: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.step <= 0 or self.cells < 1 or self.fiber_dim < 1:
            raise ValueError("need step > 0, cells >= 1, fiber_dim >= 1")

    @property
    def grid(self) -> WeightedGrid:
        return shift_grid(self.cells, self.step, self.fiber_dim)

    @property
    def time_step(self) -> float:
        return self.step

    def admissible(self, t: float) -> bool:
        if t < -1e-12:
            return False
        try:
            _shift_steps(t, self.step)
        except InadmissibleTimeError:
            return False
        return True

    def apply(self, t: float, x: HVector) -> HVector:
        if t < -1e-12:
            raise InadmissibleTimeError("right shift only admits t >= 0")
        ell = _shift_steps(t, self.step)
        n = _shift_payload_cells(x.grid, self.step, self.fiber_dim)
        m = self.fiber_dim
        out = np.zeros((n + ell) * m, dtype=complex)
        out[ell * m :] = x.coeffs
        return HVector(shift_grid(n + ell, self.step, m), out)

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        if t < -1e-12:
            raise InadmissibleTimeError("right shift only admits t >= 0")
        ell = _shift_steps(t, self.step)
        n = _shift_payload_cells(x.grid, self.step, self.fiber_dim)
        m = self.fiber_dim
        out = np.zeros(n * m, dtype=complex)
        if ell < n:
            out[: (n - ell) * m] = x.coeffs[ell * m :]
        return HVector(shift_grid(n, self.step, m), out)

    def _one_step(self, h: float, grid: WeightedGrid) -> np.ndarray:
        if h < -1e-12:
            raise InadmissibleTimeError("right shift only admits t >= 0")
        ell = _shift_steps(h, self.step)
        k = _shift_payload_cells(grid, self.step, self.fiber_dim) * self.fiber_dim
        return np.eye(k, k=-ell * self.fiber_dim, dtype=complex)


@dataclass(frozen=True)
class PeriodicShiftGroup(SemigroupModel):
    """Circular shift on the first `period_cells` cells, identity above.

    Unitary with period period_cells * step; a group, so negative times are
    admissible.
    """

    period_cells: int
    step: float
    fiber_dim: int = 1
    is_unitary: bool = field(default=True, init=False)
    is_isometric: bool = field(default=True, init=False)

    def __post_init__(self):
        if self.step <= 0 or self.period_cells < 1 or self.fiber_dim < 1:
            raise ValueError("need step > 0, period_cells >= 1, fiber_dim >= 1")

    @property
    def period(self) -> float:
        return self.period_cells * self.step

    @property
    def grid(self) -> WeightedGrid:
        return shift_grid(self.period_cells, self.step, self.fiber_dim)

    @property
    def time_step(self) -> float:
        return self.step

    def admissible(self, t: float) -> bool:
        try:
            _shift_steps(t, self.step)
        except InadmissibleTimeError:
            return False
        return True

    def apply(self, t: float, x: HVector) -> HVector:
        ell = _shift_steps(t, self.step)
        m = self.fiber_dim
        n = _shift_payload_cells(x.grid, self.step, m)
        nc = self.period_cells
        if n < nc:
            c = np.zeros(nc * m, dtype=complex)
            c[: x.grid.size] = x.coeffs
            n = nc
        else:
            c = x.coeffs.copy()
        cells = c[: nc * m].reshape(nc, m)
        c[: nc * m] = np.roll(cells, ell % nc, axis=0).reshape(-1)
        return HVector(shift_grid(n, self.step, m), c)

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        return self.apply(-t, x)

    def _one_step(self, h: float, grid: WeightedGrid) -> np.ndarray:
        # roll the first nc cells, identity above them; a payload grid
        # shorter than the period sees the truncation of that map
        ell = _shift_steps(h, self.step)
        m, nc = self.fiber_dim, self.period_cells
        k = _shift_payload_cells(grid, self.step, m) * m
        W = np.eye(max(k, nc * m), dtype=complex)
        W[: nc * m, : nc * m] = np.kron(np.roll(np.eye(nc), ell % nc, axis=0), np.eye(m))
        return W[:k, :k]

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray]:
        # the circular shift diagonalizes in the DFT basis of each fiber slot
        nc, m, h = self.period_cells, self.fiber_dim, self.step
        F = np.fft.fft(np.eye(nc)) / np.sqrt(nc)  # rows are DFT characters
        freqs = np.repeat(-2.0 * np.pi * np.arange(nc) / (nc * h), m)
        freqs = np.where(freqs <= -np.pi / h, freqs + 2.0 * np.pi / h, freqs)
        return freqs, np.kron(F, np.eye(m))


@dataclass(frozen=True)
class DirectSumSemigroup(SemigroupModel):
    """Blockwise action on a fixed sum space.

    Shift blocks keep the ambient space fixed: overflow cells are dropped, so
    the one-step map of a shift block is the truncated shift matrix.
    """

    space: SumSpace
    parts: tuple[SemigroupModel, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) != len(self.space.components):
            raise ValueError("one part per component grid required")
        object.__setattr__(self, "parts", parts)

    @property
    def is_unitary(self) -> bool:
        return all(p.is_unitary for p in self.parts)

    @property
    def is_isometric(self) -> bool:
        return all(p.is_isometric for p in self.parts)

    @property
    def grid(self) -> WeightedGrid:
        return self.space.combined

    @property
    def time_step(self):
        steps = {p.time_step for p in self.parts if p.time_step is not None}
        if not steps:
            return None
        if len(steps) > 1:
            raise ValueError("parts with different time steps are not supported")
        return steps.pop()

    def admissible(self, t: float) -> bool:
        return all(p.admissible(t) for p in self.parts)

    def max_frequency(self):
        freqs = [p.max_frequency() for p in self.parts]
        known = [f for f in freqs if f is not None]
        return max(known) if known else None

    def apply(self, t: float, x: HVector) -> HVector:
        return self._blockwise(t, x, adjoint=False)

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        return self._blockwise(t, x, adjoint=True)

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Block-diagonal form; None unless every part has one on its own
        component grid (a part acting on a longer component falls back) and
        the parts share their time step."""
        forms = [p.spectral_form() for p in self.parts]
        steps = {p.time_step for p in self.parts} - {None}
        if len(steps) > 1 or any(f is None for f in forms) or not all(
            p.grid.same_as(g) for p, g in zip(self.parts, self.space.components)
        ):
            return None
        freqs = np.concatenate([f for f, _ in forms])
        if all(b is None for _, b in forms):
            return freqs, None
        basis = np.zeros((freqs.size, freqs.size), dtype=complex)
        for i, (f, b) in enumerate(forms):
            sl = self.space.block_slice(i)
            basis[sl, sl] = np.eye(f.size) if b is None else b
        return freqs, basis

    def _one_step(self, h: float, grid: WeightedGrid) -> np.ndarray:
        if not grid.same_as(self.space.combined):
            raise GridMismatchError("vector does not live on the sum space")
        W = np.zeros((grid.size, grid.size), dtype=complex)
        for b, (part, g) in enumerate(zip(self.parts, self.space.components)):
            sl = self.space.block_slice(b)
            W[sl, sl] = part._one_step(h, g)
        return W

    def _blockwise(self, t: float, x: HVector, adjoint: bool) -> HVector:
        if not x.grid.same_as(self.space.combined):
            raise GridMismatchError("vector does not live on the sum space")
        out = np.zeros(self.space.dimension, dtype=complex)
        for b, part in enumerate(self.parts):
            xb = self.space.restrict(b, x)
            yb = part.adjoint_apply(t, xb) if adjoint else part.apply(t, xb)
            size = self.space.components[b].size
            out[self.space.block_slice(b)] = yb.coeffs[:size]
        return HVector(self.space.combined, out)


@dataclass(frozen=True)
class ConjugatedGroup(SemigroupModel):
    """B* inner(t) B, with B unitary in weighted coordinates.

    `basis` maps outer weighted coordinates (sqrt(mu) * coeffs) to inner
    weighted coordinates.  The inner model must preserve dimension for all
    admissible times (multiplication groups, periodic shifts and their sums);
    a bare truncated shift extends its payload and is rejected.
    """

    _grid: WeightedGrid
    basis: np.ndarray
    inner: SemigroupModel

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.basis, dtype=complex))
        k = self._grid.size
        if b.shape != (self.inner.grid.size, k):
            raise ValueError("basis shape must be (inner dim, outer dim)")
        if b.shape[0] != k:
            raise ValueError("conjugation requires equal inner and outer dimension")
        if isinstance(self.inner, ShiftSemigroup):
            raise ValueError("inner model changed dimension under conjugation")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def is_unitary(self) -> bool:
        return self.inner.is_unitary

    @property
    def is_isometric(self) -> bool:
        return self.inner.is_isometric

    @property
    def grid(self) -> WeightedGrid:
        return self._grid

    @property
    def time_step(self):
        return self.inner.time_step

    def admissible(self, t: float) -> bool:
        return self.inner.admissible(t)

    def max_frequency(self):
        return self.inner.max_frequency()

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray] | None:
        form = self.inner.spectral_form()
        if form is None:
            return None
        freqs, inner_basis = form
        return freqs, self.basis if inner_basis is None else inner_basis @ self.basis

    def _conjugate(self, t: float, x: HVector, adjoint: bool) -> HVector:
        if not x.grid.same_as(self._grid):
            raise GridMismatchError("vector does not live on the model's grid")
        sw_out = np.sqrt(self._grid.weights)
        sw_in = np.sqrt(self.inner.grid.weights)
        z = self.basis @ (sw_out * x.coeffs)
        xi = HVector(self.inner.grid, z / sw_in)
        yi = self.inner.adjoint_apply(t, xi) if adjoint else self.inner.apply(t, xi)
        zo = self.basis.conj().T @ (sw_in * yi.coeffs)
        return HVector(self._grid, zo / sw_out)

    def _one_step(self, h: float, grid: WeightedGrid) -> np.ndarray:
        if not grid.same_as(self._grid):
            raise GridMismatchError("vector does not live on the model's grid")
        return self.basis.conj().T @ self.inner._one_step(h, self.inner.grid) @ self.basis

    def apply(self, t: float, x: HVector) -> HVector:
        return self._conjugate(t, x, adjoint=False)

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        return self._conjugate(t, x, adjoint=True)


# --- spectral kernels --------------------------------------------------------

# Phase entries (times x frequencies) evaluated at once by the kernels below;
# it bounds their working memory at a few MB whatever the number of times.
_PHASE_BLOCK = 1 << 16


def _check_times(T: SemigroupModel, times: np.ndarray) -> None:
    """Vectorized admissibility: every time on T's step lattice, if it has one."""
    h = T.time_step
    if h is None:
        return
    off = np.abs(times - np.round(times / h) * h) > _STEP_RTOL * np.maximum(1.0, np.abs(times))
    if off.any():
        raise InadmissibleTimeError(
            f"t={times[off].flat[0]} is not an integer multiple of step {h}")


def _spectral_coords(basis, grid: WeightedGrid, vectors) -> np.ndarray | None:
    """Columns B (sqrt(mu) x), one per vector; None when a vector is off grid."""
    if not all(v.grid.same_as(grid) for v in vectors):
        return None
    Z = np.sqrt(grid.weights)[:, None] * np.column_stack([v.coeffs for v in vectors])
    return Z if basis is None else basis @ Z


def _time_blocks(n_times: int, n_freqs: int):
    rows = max(1, _PHASE_BLOCK // max(1, n_freqs))
    return (slice(lo, lo + rows) for lo in range(0, n_times, rows))


def _phase_sums(times: np.ndarray, freqs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp(i t (x) freqs) @ V, one time block at a time.

    Real cos/sin products: the same blocks through complex exp are slower.
    """
    times = np.ravel(times)
    Vr, Vi = np.ascontiguousarray(V.real), np.ascontiguousarray(V.imag)
    out = np.empty((times.size, V.shape[1]), dtype=complex)
    for sl in _time_blocks(times.size, freqs.size):
        arg = np.multiply.outer(times[sl], freqs)
        c, s = np.cos(arg), np.sin(arg)
        out.real[sl] = c @ Vr - s @ Vi
        out.imag[sl] = s @ Vr + c @ Vi
    return out


def _phase_gaps(times: np.ndarray, dfreqs: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """|exp(i t f_S) - exp(i t f_T)|^2 @ masses for dfreqs = f_S - f_T.

    Written 4 sin^2(t dfreqs / 2) so nearby models lose no digits to
    cancellation (2 - 2 cos would leave ~1e-8 where the gap is 0).
    """
    out = np.empty((times.size, masses.shape[1]))
    for sl in _time_blocks(times.size, dfreqs.size):
        s = np.sin(np.multiply.outer(times[sl], 0.5 * dfreqs))
        out[sl] = (4.0 * s * s) @ masses
    return out


def check_semigroup_law(
    T: SemigroupModel, t: float, s: float, x: HVector, tol: float
) -> bool:
    """||T(t+s)x - T(t)T(s)x|| <= tol * ||x||."""
    lhs = T.apply(t + s, x)
    rhs = T.apply(t, T.apply(s, x))
    return difference_norm(lhs, rhs) <= tol * x.norm()


def check_isometry(T: SemigroupModel, t: float, sample, tol: float) -> bool:
    return all(abs(T.apply(t, x).norm() - x.norm()) <= tol * max(x.norm(), 1.0) for x in sample)


def check_unitarity(T: SemigroupModel, t: float, sample, tol: float) -> bool:
    if not check_isometry(T, t, sample, tol):
        return False
    for x in sample:
        scale = tol * max(x.norm(), 1.0)
        y = T.apply(t, x)
        if y.grid.size != x.grid.size:
            return False
        if difference_norm(T.adjoint_apply(t, y), x) > scale:
            return False
        if difference_norm(T.apply(t, T.adjoint_apply(t, x)), x) > scale:
            return False
    return True


def one_step_matrix(T: SemigroupModel, h: float) -> np.ndarray:
    """Matrix of T(h) in weighted coordinates on the model's nominal grid.

    Built from the model's structure, with no `apply` call.  Overflow of
    extending shifts is truncated, so the result always has the nominal
    dimension.
    """
    return T._one_step(h, T.grid)


# --- serialization (CLI round-tripping) -------------------------------------

def _grid_to_dict(g: WeightedGrid) -> dict:
    return {"points": g.points.tolist(), "weights": g.weights.tolist()}


def _grid_from_dict(d: dict) -> WeightedGrid:
    return WeightedGrid(np.asarray(d["points"]), np.asarray(d["weights"]))


def model_to_dict(T: SemigroupModel) -> dict:
    if isinstance(T, MultiplicationGroup):
        return {
            "kind": "multiplication",
            "grid": _grid_to_dict(T.grid),
            "symbol": T.symbol.tolist(),
        }
    if isinstance(T, ShiftSemigroup):
        return {
            "kind": "shift",
            "step": T.step,
            "cells": T.cells,
            "fiber_dim": T.fiber_dim,
        }
    if isinstance(T, PeriodicShiftGroup):
        return {
            "kind": "periodic_shift",
            "period_cells": T.period_cells,
            "step": T.step,
            "fiber_dim": T.fiber_dim,
        }
    if isinstance(T, DirectSumSemigroup):
        return {
            "kind": "direct_sum",
            "parts": [model_to_dict(p) for p in T.parts],
            "grids": [_grid_to_dict(g) for g in T.space.components],
        }
    if isinstance(T, ConjugatedGroup):
        return {
            "kind": "conjugated",
            "grid": _grid_to_dict(T.grid),
            "basis_re": T.basis.real.tolist(),
            "basis_im": T.basis.imag.tolist(),
            "inner": model_to_dict(T.inner),
        }
    raise TypeError(f"cannot serialize {type(T).__name__}")


def model_from_dict(d: dict) -> SemigroupModel:
    kind = d["kind"]
    if kind == "multiplication":
        return MultiplicationGroup(_grid_from_dict(d["grid"]), np.asarray(d["symbol"]))
    if kind == "shift":
        return ShiftSemigroup(d["step"], d["cells"], d.get("fiber_dim", 1))
    if kind == "periodic_shift":
        return PeriodicShiftGroup(d["period_cells"], d["step"], d.get("fiber_dim", 1))
    if kind == "direct_sum":
        space = SumSpace(tuple(_grid_from_dict(g) for g in d["grids"]))
        return DirectSumSemigroup(space, tuple(model_from_dict(p) for p in d["parts"]))
    if kind == "conjugated":
        basis = np.asarray(d["basis_re"]) + 1j * np.asarray(d["basis_im"])
        return ConjugatedGroup(_grid_from_dict(d["grid"]), basis, model_from_dict(d["inner"]))
    raise ValueError(f"unknown model kind {kind!r}")
