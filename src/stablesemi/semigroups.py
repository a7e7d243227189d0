"""Concrete semigroup representations behind one batched evolution.

Four structural models cover everything the constructions produce:
multiplication (spectral) groups, truncated right shifts, periodic circular
shifts, and blockwise direct sums.  A fifth wrapper conjugates a model by a
unitary basis change, which is how mixed/benchmark operators and the outputs
of the Wold-based approximation pipeline are represented on their original
ambient space.

Each model defines one private `_evolve(times, X)`: T(t) X for every time
at once, with the columns of X in weighted coordinates sqrt(mu) x, and
exactly X's rows in every output.  It is a phase for a multiplication
group, an index shift of cells for a truncated shift, a roll of the first
period cells for a periodic shift, blocks evolved within each component for
a direct sum, and B* inner B for a conjugation.  Every `_evolve` admits its
times in `_steps`: finite, on the lattice of the model's step if it has
one, and t >= 0 for a truncated shift.  Evolution runs forward only: a
unitary group's adjoint T(t)* is T(-t).  `one_step_matrix` is `_evolve` at
one time on the identity.

Shift conventions: a shift has one coefficient per cell (one of
multiplicity m is a direct sum of m, one per wandering chain); its payload
is exactly a shift grid of its step h, the points jh of weight h, of any
length; admissible times are integer multiples of h.  A truncated right
shift is an isometry of L2[0, inf), and a payload keeps that only with room
for the shift: it drops what it pushes past the payload's last cell.
Inside a direct sum the ambient space is fixed, so a shift block drops its
overflow (that truncated one-step map is exactly what the Wold analysis
needs).  Shift grids are memoized, so equal grids are one object and
compare by identity.

A model is unitary exactly when it has a spectral form, frequencies and a
basis (a periodic shift's DFT basis is memoized by shape, like shift
grids).  A direct sum's basis is block-diagonal, and `_blocks` states it
once as its parts' blocks at their offsets, the identity elsewhere: the
kernels read it block by block, and `spectral_form` writes it out dense.

A batch of vectors becomes weighted columns Z in `_columns`, on the longest
of its vectors' and its models' grids, the vectors zero-padded onto it;
given the batch's times, it also gives a bare truncated shift its room.
`apply` is a batch of one vector at one time.  Every correlation
<T(t) z_r, z_c> of weighted columns Z goes through `_correlations`, and
every difference ||S(t)z - T(t)z|| through `_diff_norms`.  One test
(`_spectral`) picks their path: spectral when Z lies on each model's own
grid, where it has a spectral form, and the forms share one basis B, so
A = B Z meets phases only, formed block by block (each block multiplies
its own rows of Z, and the rows under the identity are copied); otherwise
`_evolve`, one batched evolution per model and block of times, reduced by
a matrix product or a norm.

The spectral kernel `_phase_sums` evaluates exp(i t (x) f) @ V over a time
grid.  On an arithmetic grid t0 + j dt (a linspace or step multiples, not a
random sweep) it factors each phase as exp(i t_{ab} f) exp(i c dt f), reduces
by matrix products and builds both factor tables as powers of exp(i dt f) and
exp(i b dt f), so it needs 3 M cos/sin pairs instead of T M.  `_powers`
builds a table by repeated squaring, in log2 of its rows contiguous
products, with the error bound of a cumulative product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    GridMismatchError,
    HVector,
    SumSpace,
    WeightedGrid,
    _count,
    _intake,
    _positive,
    pad_to_grid,
)


class InadmissibleTimeError(ValueError):
    """The requested time is not in the model's admissible set."""


# distance from the step lattice, relative to max(step, |t|), within which a time is on it
_STEP_RTOL = 1e-9


def _margin(h: float, t):
    """Distance from h Z within which a time t (a float or an array) is on it:
    `_STEP_RTOL` max(h, |t|), capped at a quarter step, so never near two points."""
    if isinstance(t, float):
        return min(_STEP_RTOL * max(h, abs(t)), 0.25 * h)
    return np.minimum(_STEP_RTOL * np.maximum(h, np.abs(t)), 0.25 * h)


def _steps(times: np.ndarray, h: float | None) -> np.ndarray | None:
    """Integer step counts of `times` on the lattice h Z, as a column (None
    for h None, where every finite time is admissible); InadmissibleTimeError
    for a time that is not finite, is 2**53 steps or more (a count float64
    does not hold exactly), or is off the lattice by more than its `_margin`.

    The one place a model admits a time.  One time (a one-step matrix, a
    periodization identity) is checked in plain Python, where numpy's
    per-call cost would dominate; a time grid in one vectorized pass.
    """
    if times.size == 1:
        t = float(times[0])
        if not math.isfinite(t):
            raise InadmissibleTimeError(f"t={t} is not finite")
        if h is None:
            return None
        if abs(t) >= 2.0 ** 53 * h:
            raise InadmissibleTimeError(f"t={t} is 2**53 steps of {h} or more")
        ell = round(t / h)
        if abs(t - ell * h) > _margin(h, t):
            raise InadmissibleTimeError(f"t={t} is not an integer multiple of step {h}")
        return np.array([[ell]])
    if not np.isfinite(times).all():
        raise InadmissibleTimeError(f"t={times[~np.isfinite(times)][0]} is not finite")
    if h is None:
        return None
    big = np.abs(times) >= 2.0 ** 53 * h
    if big.any():
        raise InadmissibleTimeError(f"t={times[big][0]} is 2**53 steps of {h} or more")
    ell = np.round(times / h)
    off = np.abs(times - ell * h) > _margin(h, times)
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
    """The lattice h Z on [lo, hi], each end widened by the `_margin` within
    which `_steps` accepts a time: hi = 0.7 keeps the seventh step of h =
    0.1, and hi = 1.1e6 the millionth of h = 1.1, though both quotients
    round below."""
    lo -= _margin(h, lo)
    hi += _margin(h, hi)
    return np.arange(math.ceil(lo / h), math.floor(hi / h) + 1) * h


@functools.lru_cache(maxsize=64)
def shift_grid(cells: int, step: float) -> WeightedGrid:
    """Grid for L2([0, cells*h)): the point jh of weight h per cell j.

    Memoized: equal arguments give the same (frozen, read-only) instance.
    """
    return WeightedGrid(np.arange(cells, dtype=float) * step, np.full(cells, step))


class SemigroupModel:
    """Common interface; every model defines `_evolve` and has a `grid`: a field
    of a multiplication group and of a conjugation, a property of a shift or a sum.

    Every model is an isometric semigroup, and a unitary group exactly when
    `spectral_form` is not None; no flag restates either.  A shift acts on
    any exact shift grid of its step, every other model on its own grid
    only (`_check_grid`).
    """

    def _evolve(self, times: np.ndarray, X: np.ndarray) -> np.ndarray:
        """T(t) X for each of the 1-d `times`.

        X holds weighted coordinates, one column per vector, on a grid the
        model accepts (`_check_grid`).  The result is times x rows x
        columns, with exactly X's rows: a truncated shift drops what it
        pushes past them, so a caller that must keep that mass gives it
        room first (`_columns`).  Raises InadmissibleTimeError for a time
        off the model's admissible set.
        """
        raise NotImplementedError

    def _check_grid(self, grid: WeightedGrid) -> None:
        """Raise GridMismatchError unless the model acts on vectors over grid."""
        if not grid.same_as(self.grid):
            raise GridMismatchError("vector does not live on the model's grid")

    def apply(self, t: float, x: HVector) -> HVector:
        """T(t)x, on the grid `_columns` gives a batch of one vector and time."""
        times = np.array([t], dtype=float)
        grid, Z = _columns((self,), (x,), times)
        return HVector(grid, self._evolve(times, Z)[0, :, 0] / np.sqrt(grid.weights))

    @property
    def time_step(self):
        """Smallest positive admissible step, or None if all reals admissible."""
        return None

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """(freqs, basis) with T(t) = B* diag(exp(i t freqs)) B in weighted
        coordinates of `grid`; basis None means the identity.  None exactly
        when the model is not unitary."""
        return None


@dataclass(frozen=True)
class MultiplicationGroup(SemigroupModel):
    """(U(t)x)_k = exp(i t q_k) x_k on a weighted grid; always unitary."""

    grid: WeightedGrid
    symbol: np.ndarray

    def __post_init__(self):
        _intake(self, "symbol", float, (self.grid.size,), "symbol length must equal grid size")

    def _evolve(self, times, X):
        _steps(times, None)
        return _phases(times, self.symbol)[:, :, None] * X

    def spectral_form(self) -> tuple[np.ndarray, None]:
        return self.symbol, None


class _CellModel(SemigroupModel):
    """The two scalar shifts: they act on payloads that are exactly a shift
    grid of `step`, of any number of cells, and their times are multiples
    of `step`.  Each checks its cell count with `hilbert._count` and its step
    with `hilbert._positive` where it is built."""

    @property
    def time_step(self) -> float:
        return self.step

    def _check_grid(self, grid: WeightedGrid) -> None:
        if not grid.same_as(shift_grid(grid.size, self.step)):
            raise GridMismatchError("payload is not a shift grid of the model's step")


@dataclass(frozen=True)
class ShiftSemigroup(_CellModel):
    """Truncated right shift on cell payloads; isometric, not unitary.

    `cells` is the nominal payload size; the shift acts on a payload on a
    shift grid of `step` of any length, and drops what it pushes past the
    payload's last cell.  It is isometric on a vector whose payload has room
    for the shift, which `_columns` gives a batch that holds a bare shift.
    """

    step: float
    cells: int

    def __post_init__(self):
        _count(self.cells, "cells")
        _positive(self.step, "step")

    @property
    def grid(self) -> WeightedGrid:
        return shift_grid(self.cells, self.step)

    def _evolve(self, times, X):
        d = _steps(times, self.step)
        if d.min() < 0:
            raise InadmissibleTimeError("right shift only admits t >= 0")
        # row r reads row r - d, and a row below 0 one of the zero rows above X
        extra = int(d.max())
        padded = np.zeros((extra + X.shape[0], X.shape[1]), dtype=complex)
        padded[extra:] = X
        return padded[np.arange(X.shape[0]) + extra - d]


@dataclass(frozen=True)
class PeriodicShiftGroup(_CellModel):
    """Circular shift on the first `period_cells` cells, identity above.

    Unitary with period period_cells * step; a group, so negative times are
    admissible.  Its payload holds at least the period: `_columns` pads a
    vector onto the model's grid, and a direct sum's component holds its
    part's grid.
    """

    period_cells: int
    step: float

    def __post_init__(self):
        _count(self.period_cells, "period_cells")
        _positive(self.step, "step")

    @property
    def grid(self) -> WeightedGrid:
        return shift_grid(self.period_cells, self.step)

    def _evolve(self, times, X):
        ell = _steps(times, self.step)
        p = self.period_cells
        r = np.arange(X.shape[0])
        # a cell in the period reads the cell ell before it, mod the period;
        # the cells above stay
        src = r - ell
        src[:, :p] %= p
        src[:, p:] = r[p:]
        return X[src]

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray]:
        return _dft_form(self.period_cells, self.step)


# Memoized by shape, not per instance: a model that lives long (a pool of
# cases, say) then holds no nc^2 basis of its own, and few shapes are
# live at a time.
@functools.lru_cache(maxsize=8)
def _dft_form(nc: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only spectral form of a circular shift on nc cells, its DFT: basis
    row r is exp(2 pi i r j / nc) / sqrt(nc), at 2 pi r / (nc h), r in (-nc/2, nc/2]."""
    basis = np.fft.fft(np.eye(nc)).conj() / np.sqrt(nc)
    r = np.arange(nc)
    freqs = 2.0 * np.pi * np.where(2 * r > nc, r - nc, r) / (nc * h)
    freqs.setflags(write=False)
    basis.setflags(write=False)
    return freqs, basis


@dataclass(frozen=True)
class DirectSumSemigroup(SemigroupModel):
    """Blockwise action on a fixed sum space.

    The ambient space is fixed and no part grows its payload, so a shift
    block drops its overflow: its one-step map is the truncated shift
    matrix, which is what the Wold analysis needs.  Parts
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
    def grid(self) -> WeightedGrid:
        return self.space.combined

    @property
    def time_step(self):
        return _shared_step(self.parts)

    def _evolve(self, times, X):
        out = np.empty((times.size, *X.shape), dtype=complex)
        for lo, g, part in zip(self.space.offsets, self.space.components, self.parts):
            out[:, lo:lo + g.size] = part._evolve(times, X[lo:lo + g.size])
        return out

    def spectral_form(self) -> tuple[np.ndarray, np.ndarray | None] | None:
        """Block-diagonal form, None unless every part has one: the dense
        basis of the parts' blocks (`_blocks`), so a periodic part on a
        longer component is the identity above its period, with zero
        frequencies."""
        form = _blocks(self)
        if form is None:
            return None
        freqs, blocks = form
        return freqs, _dense(blocks, freqs.size)


def _blocks(M: SemigroupModel) -> tuple[np.ndarray, tuple] | None:
    """(freqs, blocks) of a unitary model's spectral form, None for any other.

    The basis is the identity except on each (lo, b) of `blocks`, where it
    is the square block b on rows lo to lo + len(b).  A direct sum's parts
    bring their own blocks at their offsets, so a multiplication part brings
    none and a periodic part its memoized DFT (`_dft_form`); any other model
    brings its basis as one block, or none for the identity.
    """
    if not isinstance(M, DirectSumSemigroup):
        form = M.spectral_form()
        if form is None:
            return None
        freqs, basis = form
        return freqs, (() if basis is None else ((0, basis),))
    freqs, blocks = np.zeros(M.grid.size), []
    for lo, part in zip(M.space.offsets, M.parts):
        form = _blocks(part)
        if form is None:
            return None
        f, part_blocks = form
        freqs[lo:lo + f.size] = f
        blocks += [(lo + at, b) for at, b in part_blocks]
    return freqs, tuple(blocks)


def _dense(blocks: tuple, k: int) -> np.ndarray | None:
    """The k x k basis that `blocks` state (`_blocks`), None for the identity."""
    if not blocks:
        return None
    basis = np.eye(k, dtype=complex)
    for lo, b in blocks:
        basis[lo:lo + b.shape[0], lo:lo + b.shape[0]] = b
    return basis


def _in_basis(blocks: tuple, Z: np.ndarray) -> np.ndarray:
    """B Z for the basis B that `blocks` state: each block multiplies its own
    rows, and the rows under the identity are copied."""
    if not blocks:
        return Z
    A = Z.astype(complex)
    for lo, b in blocks:
        A[lo:lo + b.shape[0]] = b @ Z[lo:lo + b.shape[0]]
    return A


@dataclass(frozen=True)
class ConjugatedGroup(SemigroupModel):
    """B* inner(t) B, with B unitary in weighted coordinates: the basis is
    checked k x k and finite where it enters, not unitary.

    `basis` maps outer weighted coordinates (sqrt(mu) * coeffs) to inner
    weighted coordinates.  A bare truncated shift is rejected: it is an
    isometry only on a payload with room for its shift (`_columns`), and a
    fixed space of conjugated coordinates cannot give that room.  Its sums,
    which drop the overflow of each block, are accepted.
    """

    grid: WeightedGrid
    basis: np.ndarray
    inner: SemigroupModel

    def __post_init__(self):
        k, rule = self.grid.size, "basis must be k x k, with k the inner and the outer dimension"
        if self.inner.grid.size != k:
            raise ValueError(rule)
        _intake(self, "basis", complex, (k, k), rule)
        if isinstance(self.inner, ShiftSemigroup):
            raise ValueError("a bare truncated shift needs room a conjugated space lacks")

    @property
    def time_step(self):
        return self.inner.time_step

    def _evolve(self, times, X):
        return self.basis.conj().T @ self.inner._evolve(times, self.basis @ X)

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


def _columns(models, vectors, times=None) -> tuple[WeightedGrid, np.ndarray]:
    """(grid, weighted coordinates sqrt(mu) x over it, one column per vector).

    The one place a batch meets its models: the grid is the longest of the
    vectors' and the models' grids, and every vector is zero-padded onto it
    (`pad_to_grid`), so a vector on a prefix of a model's grid is that
    model's vector, and a shift's longer payload meets its nominal grid.
    With the `times` a batch is evolved at, a bare truncated shift among the
    models gets room: the grid holds at least the longest vector's cells
    plus the largest step count, so the shift drops nothing.  A caller that
    reads only Z's rows of T(t)Z (a correlation) needs no room.  Raises
    GridMismatchError unless that grid extends every vector's and every
    model acts on it (its own grid, or for a shift an exact shift grid of
    its step, of any length).
    """
    grid = max([*(v.grid for v in vectors), *(M.grid for M in models)], key=lambda g: g.size)
    for M in models if times is not None else ():
        if isinstance(M, ShiftSemigroup):
            reach = max(v.grid.size for v in vectors) + int(_steps(times, M.step).max())
            if reach > grid.size:
                grid = shift_grid(reach, M.step)
    vectors = [v if v.grid.same_as(grid) else pad_to_grid(v, grid) for v in vectors]
    for M in models:
        M._check_grid(grid)
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
    # b = 1 keeps one form: a plain _phases(times, freqs) @ V sums in another order, moving bits
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
    """Rows first * ratio^j for j < rows, by repeated squaring.

    Rows [n, 2n) are rows [0, n) times ratio^n for n = 1, 2, 4, ..., and
    ratio^n is carried by squaring: ceil(log2 rows) contiguous products,
    where a cumulative product runs a strided scalar loop per column.  The
    error is that of j sequential products: with e the relative error of one
    product, ratio^(2^k) is within (2^k - 1) e of its exact value, so row j,
    one product per set bit of j, is within j e of first * ratio^j.
    """
    P = np.empty((rows, first.size), dtype=complex)
    P[0] = first
    n, r = 1, ratio
    while n < rows:
        m = min(n, rows - n)
        np.multiply(P[:m], r, out=P[n:n + m])
        n += m
        if n < rows:
            r = r * r
    return P


def _phase_sums(times: np.ndarray, freqs: np.ndarray, V: np.ndarray) -> np.ndarray:
    """exp(i t (x) freqs) @ V for a freqs.size x cols matrix V.

    With the split of `_time_split`, exp(i t_{ab+c} f) = exp(i coarse_a f)
    exp(i fine_c f): one product E_fine (b x M) @ (E_coarse o V), its coarse
    side in blocks of at most `_PHASE_BLOCK` entries, so the memory is that
    plus E_fine, b <= sqrt(T) + 1.  On an arithmetic grid (b > 1) the tables
    are powers of z = exp(i dt f) and w = exp(i b dt f), E_fine rows z^c and
    coarse rows exp(i t0 f) w^a, the last carried between blocks: 3 M
    cos/sin pairs, not 2 sqrt(T) M.  Error: |z| is within about 2u of 1
    (u = 2^-53) and a complex product adds sqrt(5) u.  `_powers` takes a
    row j in log2 j products, but each squaring doubles the error it
    inherits, so the row's error is that of j sequential products, about
    (2 + sqrt(5)) j u.  With exponents <= sqrt(T) an entry is within
    9 (sqrt(T) + 1) u at the rounded phases (4.5e-13 at T = 200001), plus
    the u |t f| rounding that cos/sin share.
    """
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

    Written 4 sin^2(t dfreqs / 2) by the half-angle identity
    |exp(ia) - exp(ib)| = 2 |sin((a - b) / 2)|, which
    `constructions._phase_distance` measures by too, so nearby models lose
    no digits to cancellation: each entry is accurate to a few ulps
    relative (2 - 2 cos would leave ~1e-8 where the gap is 0).
    """
    out = np.empty((times.size, masses.shape[1]))
    for sl in _time_blocks(times.size, dfreqs.size):
        s = np.sin(np.multiply.outer(times[sl], 0.5 * dfreqs))
        out[sl] = (4.0 * s * s) @ masses
    return out


def _spectral(models, grid: WeightedGrid, Z: np.ndarray, times: np.ndarray):
    """(each model's frequencies, A = B Z) if columns Z over `grid` take the
    spectral path: every model has a spectral form on that grid, all with one
    basis B.  Else None.  The forms are read block by block (`_blocks`): two
    with the same block offsets and sizes share B when each block is the
    same array or an equal one; forms laid out differently (a direct sum and
    a conjugation by its dense basis) are compared densely.  The spectral
    path evolves nothing, so it admits the times here (`_steps`), with the
    step the models share."""
    if not all(grid.same_as(M.grid) for M in models):
        return None
    forms = [_blocks(M) for M in models]
    if any(f is None for f in forms):
        return None
    blocks = forms[0][1]
    for _, other in forms[1:]:
        if [(lo, b.shape) for lo, b in other] == [(lo, b.shape) for lo, b in blocks]:
            # equal, not only identical: a conjugated part's basis may be a copy
            if not all(a is b or np.array_equal(a, b) for (_, a), (_, b) in zip(blocks, other)):
                return None
        else:
            B = _dense(blocks, grid.size)
            if B is None or not np.array_equal(B, _dense(other, grid.size)):
                return None
            blocks = ((0, B),)
    _steps(times, _shared_step(models))
    return [f for f, _ in forms], _in_basis(blocks, Z)


def _correlations(T: SemigroupModel, grid: WeightedGrid, Z: np.ndarray, rows, cols, times):
    """(<T(t) z_r, z_c> per time and (r, c) pair, one column per pair; the
    coordinates: A = B Z on the spectral path, Z on the other)."""
    spectral = _spectral((T,), grid, Z, times)
    if spectral is not None:
        (freqs,), A = spectral
        return _phase_sums(times, freqs, A[:, rows] * A[:, cols].conj()), A
    # Z* T(t) Z per block of times: each z_j is zero past Z's rows, so Z needs no room
    out = np.empty((times.size, len(rows)), dtype=complex)
    for sl in _time_blocks(times.size, Z.size):
        out[sl] = (Z.conj().T @ T._evolve(times[sl], Z))[:, cols, rows]
    return out, Z


def _diff_norms(S: SemigroupModel, T: SemigroupModel, grid: WeightedGrid, Z: np.ndarray,
                times: np.ndarray) -> np.ndarray:
    """||S(t)z - T(t)z|| per (time, column of Z), both models acting on
    `grid`.  On the `_evolve` path both outputs keep Z's rows, so they meet
    by one subtraction per block of times; a bare shift drops nothing where
    `_columns` gave Z room for `times`."""
    spectral = _spectral((S, T), grid, Z, times)
    if spectral is not None:
        (fs, ft), A = spectral
        return np.sqrt(_phase_gaps(times, fs - ft, np.abs(A) ** 2))
    out = np.empty((times.size, Z.shape[1]))
    for sl in _time_blocks(times.size, Z.size):
        out[sl] = np.sqrt((np.abs(S._evolve(times[sl], Z) - T._evolve(times[sl], Z)) ** 2)
                          .sum(axis=1))
    return out


def one_step_matrix(T: SemigroupModel, h: float) -> np.ndarray:
    """Matrix of T(h) in weighted coordinates on the model's nominal grid.

    One evolution of the identity, which keeps its rows: a truncated shift
    drops its overflow, so the result always has the nominal dimension.
    """
    times = np.array([h], dtype=float)
    if isinstance(T, ConjugatedGroup):
        # B* inner(h) B with inner(h) evolved on B itself, which is B @ I bit
        # for bit: `_evolve` on the identity, one k^3 product short
        return (T.basis.conj().T @ T.inner._evolve(times, T.basis))[0]
    return T._evolve(times, np.eye(T.grid.size, dtype=complex))[0]

