"""Concrete semigroup representations behind one batched evolution.

Four structural models cover everything the constructions produce:
multiplication (spectral) groups, truncated right shifts, periodic circular
shifts, and blockwise direct sums.  A fifth wrapper conjugates a model by a
unitary basis change, which is how mixed/benchmark operators and the outputs
of the Wold-based approximation pipeline are represented on their original
ambient space.

Each model defines one private `_evolve(times, X, adjoint)`: T(t) X (or
T(t)* X) for every time at once, with the columns of X in weighted
coordinates sqrt(mu) x.  It is a phase for a multiplication group, an index
shift of cells for a truncated shift, a roll of the first period cells for
a periodic shift, blocks truncated to each component for a direct sum, and
B* inner B for a conjugation.  `apply` and `adjoint_apply` are its
one-column case, and a time is admissible when `_evolve` accepts it.
`_compressed` is `_evolve` cut to the rows of X; `one_step_matrix` is its
value at one time on the identity.

Shift conventions: admissible times are integer multiples of the cell step h;
applying a truncated right shift EXTENDS the payload grid by the shifted
cells instead of dropping mass, so isometry is exact.  Inside a direct sum
the ambient space is fixed, so there a shift block is compressed: its
overflow is dropped, and never built (that truncated one-step map is
exactly what the Wold analysis needs).  Shift grids are memoized, so equal
grids are one object and compare by identity.

A model has a spectral form, frequencies and a basis, exactly when it is
unitary (a periodic shift's DFT basis is memoized by shape, like shift
grids).

Every correlation <T(t) z_r, z_c> of weighted columns Z goes through
`_correlations`, and every difference ||S(t)z - T(t)z|| through
`_diff_norms`.  One test (`_spectral`) picks their path: spectral when Z
lies on each model's own grid, where it has a spectral form, and the forms
share one basis B, so A = B Z meets phases only; otherwise `_evolve`, one
batched evolution per model and block of times (the adjoint for a
correlation), reduced by a matrix product or a norm.

The spectral kernel `_phase_sums` evaluates exp(i t (x) f) @ V over a time
grid.  On an arithmetic grid t0 + j dt, which is every grid the library
builds, it factors each phase as exp(i t_{ab} f) exp(i c dt f), reduces by
matrix products and builds both factor tables as powers of exp(i dt f) and
exp(i b dt f), so it needs 3 M cos/sin pairs instead of T M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import (
    GridMismatchError,
    HVector,
    SumSpace,
    WeightedGrid,
    _is_integer,
    pad_to_grid,
)


class InadmissibleTimeError(ValueError):
    """The requested time is not in the model's admissible set."""


# relative distance from the step lattice up to which a time counts as on it
_STEP_RTOL = 1e-9


def _steps(times: np.ndarray, h: float) -> np.ndarray:
    """Integer step counts of `times` on the lattice h Z, as a column.

    One time (an `apply`) is checked in plain Python, where numpy's per-call
    cost would dominate; a time grid in one vectorized pass.
    """
    if times.size == 1:
        t = float(times[0])
        ell = round(t / h)
        if abs(t - ell * h) > _STEP_RTOL * max(1.0, abs(t)):
            raise InadmissibleTimeError(f"t={t} is not an integer multiple of step {h}")
        return np.array([[ell]])
    ell = np.round(times / h)
    off = np.abs(times - ell * h) > _STEP_RTOL * np.maximum(1.0, np.abs(times))
    if off.any():
        raise InadmissibleTimeError(
            f"t={times[off][0]} is not an integer multiple of step {h}")
    return ell.astype(int)[:, None]


def _shared_step(models) -> float | None:
    """The step of the models that have one (None if none has); ValueError
    if two differ."""
    steps = {m.time_step for m in models} - {None}
    if len(steps) > 1:
        raise ValueError("models have incompatible time steps")
    return steps.pop() if steps else None


def _step_times(h: float, lo: float, hi: float) -> np.ndarray:
    """The lattice h Z on [lo, hi], each end widened by the margin within which
    `_steps` accepts a time: hi = 0.7 keeps the seventh step of h = 0.1, and
    hi = 1.1e6 the millionth of h = 1.1, though both quotients round below.
    The margin is at most half a step, so a step shorter than the margin
    adds no lattice point outside [lo, hi]."""
    lo -= min(_STEP_RTOL * max(1.0, abs(lo)), 0.5 * h)
    hi += min(_STEP_RTOL * max(1.0, abs(hi)), 0.5 * h)
    return np.arange(math.ceil(lo / h), math.floor(hi / h) + 1) * h


def _rows(X: np.ndarray, src: np.ndarray, extra: int) -> np.ndarray:
    """Rows `src` (times x rows) of X with `extra` zero rows appended; an
    index in [-extra, 0) counts from the end, so it reads a zero row too."""
    if not extra:
        return X[src]
    padded = np.zeros((X.shape[0] + extra, X.shape[1]), dtype=complex)
    padded[: X.shape[0]] = X
    return padded[src]


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
    """Common interface; concrete models subclass this and define `_evolve`."""

    is_unitary: bool = False
    is_isometric: bool = False

    def _evolve(self, times: np.ndarray, X: np.ndarray, adjoint: bool) -> np.ndarray:
        """T(t) X, or T(t)* X when adjoint, for each of the 1-d `times`.

        X holds weighted coordinates, one column per vector, on a grid the
        model accepts (`_check_grid`).  The result is times x rows x
        columns; it has more rows than X only where a shift extends its
        payload.  Raises InadmissibleTimeError for a time off the model's
        admissible set.
        """
        raise NotImplementedError

    def _compressed(self, times: np.ndarray, X: np.ndarray, adjoint: bool) -> np.ndarray:
        """`_evolve` cut to the rows of X: T(t) compressed to the payload it
        acts on, which is how a direct sum and a one-step matrix keep their
        space fixed."""
        return self._evolve(times, X, adjoint)[:, : X.shape[0]]

    def _check_grid(self, grid: WeightedGrid) -> None:
        """Raise GridMismatchError unless the model acts on vectors over grid."""
        if not grid.same_as(self.grid):
            raise GridMismatchError("vector does not live on the model's grid")

    def _out_grid(self, rows: int) -> WeightedGrid:
        """Grid of an evolved vector with `rows` coefficients."""
        return self.grid

    def apply(self, t: float, x: HVector) -> HVector:
        return self._act(t, x, adjoint=False)

    def adjoint_apply(self, t: float, x: HVector) -> HVector:
        return self._act(t, x, adjoint=True)

    def _act(self, t: float, x: HVector, adjoint: bool) -> HVector:
        self._check_grid(x.grid)
        z = np.sqrt(x.grid.weights) * x.coeffs
        y = self._evolve(np.array([t], dtype=float), z[:, None], adjoint)[0, :, 0]
        grid = self._out_grid(y.size)
        return HVector(grid, y / np.sqrt(grid.weights))

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
        coordinates of `grid`; basis None means the identity.  None exactly
        when the model is not unitary."""
        return None


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

    def _evolve(self, times, X, adjoint):
        return _phases(-times if adjoint else times, self.symbol)[:, :, None] * X

    def max_frequency(self) -> float:
        return float(np.abs(self.symbol).max())

    def spectral_form(self) -> tuple[np.ndarray, None]:
        return self.symbol, None


class _CellModel(SemigroupModel):
    """The two shifts: they act on cell-major payloads of any length whose
    entries all weigh `step`, and their times are multiples of `step`."""

    def _validate(self, cells, name: str) -> None:
        if not all(_is_integer(v) and v >= 1 for v in (cells, self.fiber_dim)):
            raise ValueError(f"{name} and fiber_dim must be integers >= 1")
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError("step must be finite and > 0")

    @property
    def time_step(self) -> float:
        return self.step

    def _check_grid(self, grid: WeightedGrid) -> None:
        # the weights are finite (WeightedGrid checks), so one max over
        # |w - step| gives the same answer as np.allclose(w, step)
        w = grid.weights
        if grid is not self.grid and (
                w.size % self.fiber_dim or np.abs(w - self.step).max() > 1e-8 + 1e-5 * self.step):
            raise GridMismatchError("payload grid is not shift-compatible")

    def _out_grid(self, rows: int) -> WeightedGrid:
        return shift_grid(rows // self.fiber_dim, self.step, self.fiber_dim)


@dataclass(frozen=True)
class ShiftSemigroup(_CellModel):
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
        self._validate(self.cells, "cells")

    @property
    def grid(self) -> WeightedGrid:
        return shift_grid(self.cells, self.step, self.fiber_dim)

    def _evolve(self, times, X, adjoint, extend=True):
        if times.min() < -1e-12:
            raise InadmissibleTimeError("right shift only admits t >= 0")
        d = _steps(times, self.step) * self.fiber_dim
        k, extra = X.shape[0], int(d.max())
        if adjoint:  # left shift; the payload keeps its length
            return _rows(X, np.arange(k) + d, extra)
        return _rows(X, np.arange(k + extra * extend) - d, extra)

    def _compressed(self, times, X, adjoint):
        # never builds the overflow cells only to drop them
        return self._evolve(times, X, adjoint, extend=False)


@dataclass(frozen=True)
class PeriodicShiftGroup(_CellModel):
    """Circular shift on the first `period_cells` cells, identity above.

    Unitary with period period_cells * step; a group, so negative times are
    admissible.  A payload shorter than the period is zero-padded to it.
    """

    period_cells: int
    step: float
    fiber_dim: int = 1
    is_unitary: bool = field(default=True, init=False)
    is_isometric: bool = field(default=True, init=False)

    def __post_init__(self):
        self._validate(self.period_cells, "period_cells")

    @property
    def period(self) -> float:
        return self.period_cells * self.step

    @property
    def grid(self) -> WeightedGrid:
        return shift_grid(self.period_cells, self.step, self.fiber_dim)

    def _evolve(self, times, X, adjoint):
        ell = _steps(times, self.step) * (-1 if adjoint else 1)
        p = self.period_cells * self.fiber_dim
        r = np.arange(max(X.shape[0], p))
        # a row of the first period_cells cells reads the same slot of the
        # cell ell before it, mod the period; the rows above stay
        src = r - self.fiber_dim * ell
        src[:, :p] %= p
        src[:, p:] = r[p:]
        return _rows(X, src, r.size - X.shape[0])

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray]:
        return _dft_form(self.period_cells, self.step, self.fiber_dim)


# Memoized by shape, not per instance: a model that lives long (a pool of
# cases, say) then holds no (nc m)^2 basis of its own, and few shapes are
# live at a time.
@functools.lru_cache(maxsize=8)
def _dft_form(nc: int, h: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only spectral form of a circular shift: the DFT basis of each
    fiber slot."""
    F = np.fft.fft(np.eye(nc)) / np.sqrt(nc)  # rows are DFT characters
    freqs = np.repeat(-2.0 * np.pi * np.arange(nc) / (nc * h), m)
    freqs = np.where(freqs <= -np.pi / h, freqs + 2.0 * np.pi / h, freqs)
    basis = np.kron(F, np.eye(m))
    freqs.setflags(write=False)
    basis.setflags(write=False)
    return freqs, basis


@dataclass(frozen=True)
class DirectSumSemigroup(SemigroupModel):
    """Blockwise action on a fixed sum space.

    Shift blocks keep the ambient space fixed: overflow cells are dropped, so
    the one-step map of a shift block is the truncated shift matrix.  Parts
    with different steps (None aside), or with grids longer than their
    components, raise ValueError when the sum is built.
    """

    space: SumSpace
    parts: tuple[SemigroupModel, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if len(parts) != len(self.space.components):
            raise ValueError("one part per component grid required")
        for part, g in zip(parts, self.space.components):
            part._check_grid(g)
            if part.grid.size > g.size:
                raise GridMismatchError("part's grid is longer than its component")
        _shared_step(parts)
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
        return _shared_step(self.parts)

    def max_frequency(self):
        freqs = [p.max_frequency() for p in self.parts]
        known = [f for f in freqs if f is not None]
        return max(known) if known else None

    def _evolve(self, times, X, adjoint):
        out = np.empty((times.size, *X.shape), dtype=complex)
        for b, part in enumerate(self.parts):
            sl = self.space.block_slice(b)
            out[:, sl] = part._compressed(times, X[sl], adjoint)
        return out

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Block-diagonal form; None unless every part has one.  A periodic
        part on a longer component is the identity above its period: zero
        frequencies there, with an identity block."""
        forms = [p.spectral_form() for p in self.parts]
        if any(f is None for f in forms):
            return None
        k = self.grid.size
        freqs = np.zeros(k)
        basis = None if all(b is None for _, b in forms) else np.zeros((k, k), dtype=complex)
        for i, (f, b) in enumerate(forms):
            sl = self.space.block_slice(i)
            lo, mid = sl.start, sl.start + f.size
            freqs[lo:mid] = f
            if basis is None:
                continue
            if b is not None:
                basis[lo:mid, lo:mid] = b
                lo = mid
            # the identity wherever no basis acts
            np.fill_diagonal(basis[lo:sl.stop, lo:sl.stop], 1.0)
        return freqs, basis


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

    def max_frequency(self):
        return self.inner.max_frequency()

    def _evolve(self, times, X, adjoint):
        return self.basis.conj().T @ self.inner._evolve(times, self.basis @ X, adjoint)

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray] | None:
        return self._spectral_form

    @functools.cached_property
    def _spectral_form(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The inner form, its basis composed with `basis` once per model."""
        form = self.inner.spectral_form()
        if form is None:
            return None
        freqs, inner_basis = form
        basis = self.basis if inner_basis is None else inner_basis @ self.basis
        basis.setflags(write=False)
        return freqs, basis


def _frequency_groups(freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sorted distinct frequencies, group of each entry), by exact equality; with
    `return_index` the sort is stable and pages in no second sort kernel (0.3 MB)."""
    return np.unique(freqs, return_index=True, return_inverse=True)[::2]


# --- batched kernels ---------------------------------------------------------

# Entries (times x frequencies or rows x columns) evaluated at once by the
# kernels below; it bounds their blocked working memory at a few MB.
_PHASE_BLOCK = 1 << 16


def _columns(T: SemigroupModel, vectors) -> tuple[WeightedGrid, np.ndarray]:
    """(grid, weighted coordinates sqrt(mu) x over it, one column per vector).

    Vectors on different grids are zero-padded onto the longest by
    `pad_to_grid`: a shift's extended payload and its nominal grid, say.
    Raises GridMismatchError unless that grid extends every other one and
    T acts on it (T's own grid, or for a shift any shift-compatible one).
    """
    grid = max((v.grid for v in vectors), key=lambda g: g.size)
    vectors = [v if v.grid.same_as(grid) else pad_to_grid(v, grid) for v in vectors]
    T._check_grid(grid)
    return grid, np.sqrt(grid.weights)[:, None] * np.column_stack([v.coeffs for v in vectors])


def _time_blocks(n_times: int, row_size: int):
    rows = max(1, _PHASE_BLOCK // max(1, row_size))
    return (slice(lo, lo + rows) for lo in range(0, n_times, rows))


# A time grid within this many float64 rounding errors (of max|t|) of an
# arithmetic progression is split as one: linspace and j*h grids are, and the
# phase error it allows is of the order of the rounding of t*f itself.
_GRID_ULPS = 8


def _time_split(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, fine) with times[a*b + c] = coarse[a] + fine[c], b = fine.size.

    An arithmetic grid t0 + j dt gives b = ceil(sqrt(T)), coarse = times[::b]
    and fine = c dt; any other grid gives b = 1: coarse = times, fine = {0}.
    """
    n = times.size
    if n > 2:
        dt = (times[-1] - times[0]) / (n - 1)
        drift = np.abs(times[0] + np.arange(n) * dt - times).max()
        if drift <= _GRID_ULPS * np.finfo(float).eps * np.abs(times).max():
            b = math.isqrt(n - 1) + 1
            return times[::b], np.arange(b) * dt
    return times, np.zeros(1)


def _phases(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(i a (x) b) from real cos and sin, which is faster than complex exp.

    The phases are written to the imaginary part first, so the table is the
    only allocation.
    """
    out = np.empty((a.size, b.size), dtype=complex)
    np.multiply.outer(a, b, out=out.imag)
    np.cos(out.imag, out=out.real)
    np.sin(out.imag, out=out.imag)
    return out


def _powers(first: np.ndarray, ratio: np.ndarray, rows: int) -> np.ndarray:
    """Rows first * ratio^j for j < rows, by a cumulative product in place."""
    P = np.empty((rows, first.size), dtype=complex)
    P[0], P[1:] = first, ratio
    return np.cumprod(P, axis=0, out=P)


def _phase_sums(times: np.ndarray, freqs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp(i t (x) freqs) @ V for a freqs.size x cols matrix V.

    With the split of `_time_split`, exp(i t_{ab+c} f) = exp(i coarse_a f)
    exp(i fine_c f): one product E_fine (b x M) @ (E_coarse o V), its coarse
    side in blocks of at most `_PHASE_BLOCK` entries, so the memory is that
    plus E_fine, b <= sqrt(T) + 1.  On an arithmetic grid (b > 1) the tables
    are powers of z = exp(i dt f) and w = exp(i b dt f), E_fine rows z^c and
    coarse rows exp(i t0 f) w^a, the last carried between blocks: 3 M
    cos/sin pairs, not 2 sqrt(T) M.  Error: |z| is within about 2u of 1
    (u = 2^-53) and a complex product adds sqrt(5) u, so with exponents
    <= sqrt(T) an entry is within 9 (sqrt(T) + 1) u at the rounded phases
    (4.5e-13 at T = 200001), plus the u |t f| rounding that cos/sin share.
    """
    times = np.ravel(times)
    coarse, fine = _time_split(times)
    cols, b = V.shape[1], fine.size
    if b > 1:  # w directly, not as z^b: the error then grows with sqrt(T), not T
        z, w, carry = _phases(np.array([fine[1], b * fine[1], coarse[0]]), freqs)
    E_fine = _powers(np.ones_like(z), z, b) if b > 1 else _phases(fine, freqs)
    out = np.empty((coarse.size, b, cols), dtype=complex)
    for sl in _time_blocks(coarse.size, freqs.size * cols):
        if b > 1:
            E_coarse = _powers(carry, w, coarse[sl].size).T
            carry = E_coarse[:, -1] * w
        else:
            E_coarse = _phases(freqs, coarse[sl])
        # each block's tables are freed before the next block builds its own
        S = E_fine @ (E_coarse[:, :, None] * V[:, None, :]).reshape(freqs.size, -1)
        out[sl] = S.reshape(b, -1, cols).transpose(1, 0, 2)
        del E_coarse
    return out.reshape(-1, cols)[: times.size]


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


def _gram(T: SemigroupModel, times: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """G[t, j, i] = <T(t) z_i, z_j> = <z_i, T(t)* z_j> for the weighted
    columns z of Z: one adjoint evolution per time block, reduced by a
    matrix product.  The adjoint keeps a shift's payload length, so no
    block builds the cells a forward shift would extend it by."""
    G = np.empty((times.size, Z.shape[1], Z.shape[1]), dtype=complex)
    for sl in _time_blocks(times.size, Z.size):
        G[sl] = T._compressed(times[sl], Z, True).conj().transpose(0, 2, 1) @ Z
    return G


def _spectral(models, grid: WeightedGrid, Z: np.ndarray, times: np.ndarray):
    """(each model's frequencies, A = B Z) if columns Z over `grid` take the
    spectral path: every model has a spectral form on that grid, all with one
    basis B (the same array or an equal one).  Else None.  Checks the times
    as `_evolve` would."""
    if not all(grid.same_as(M.grid) for M in models):
        return None
    forms = [M.spectral_form() for M in models]
    if any(f is None for f in forms):
        return None
    B = forms[0][1]
    if any(b is not B and (b is None or B is None or not np.array_equal(b, B)) for _, b in forms):
        return None
    h = _shared_step(models)
    if h is not None:
        _steps(times, h)
    return [f for f, _ in forms], (Z if B is None else B @ Z)


def _correlations(T: SemigroupModel, grid: WeightedGrid, Z: np.ndarray, rows, cols, times):
    """(<T(t) z_r, z_c> per time and (r, c) pair, one column per pair; the
    coordinates: A = B Z on the spectral path, Z on the other)."""
    spectral = _spectral((T,), grid, Z, times)
    if spectral is None:
        return _gram(T, times, Z)[:, cols, rows], Z
    (freqs,), A = spectral
    return _phase_sums(times, freqs, A[:, rows] * A[:, cols].conj()), A


def _diff_norms(S: SemigroupModel, T: SemigroupModel, grid: WeightedGrid, Z: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """||S(t)z - T(t)z|| per (time, column of Z).  On the `_evolve` path,
    outputs on different grids (a shift extends its payload) meet on the
    longer one, which must extend the shorter (`pad_to_grid`), and blocks
    are sized by the longest output, at the largest |t|."""
    spectral = _spectral((S, T), grid, Z, times)
    if spectral is not None:
        (fs, ft), A = spectral
        return np.sqrt(_phase_gaps(times, fs - ft, np.abs(A) ** 2))
    out = np.empty((times.size, Z.shape[1]))
    rows = Z.shape[0]
    if times.size > 1:  # one time is one block, however long its output
        far = times[[np.abs(times).argmax()]]
        rows = max(M._evolve(far, Z[:, :0], False).shape[1] for M in (S, T))
    for sl in _time_blocks(times.size, rows * Z.shape[1]):
        a, b = S._evolve(times[sl], Z, False), T._evolve(times[sl], Z, False)
        ga, gb = S._out_grid(a.shape[1]), T._out_grid(b.shape[1])
        if ga.size < gb.size:
            a = pad_to_grid(a, gb, ga)
        elif not ga.same_as(gb):
            b = pad_to_grid(b, ga, gb)
        out[sl] = np.sqrt((np.abs(a - b) ** 2).sum(axis=1))
    return out


def one_step_matrix(T: SemigroupModel, h: float) -> np.ndarray:
    """Matrix of T(h) in weighted coordinates on the model's nominal grid.

    One compressed evolution of the identity: the overflow of extending
    shifts is dropped, so the result always has the nominal dimension.
    """
    k = T.grid.size
    return T._compressed(np.array([h], dtype=float), np.eye(k, dtype=complex), False)[0]


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
