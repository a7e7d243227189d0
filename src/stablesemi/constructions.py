"""Constructive approximation procedures for unitary and isometric models.

Implements, on the discretized spectral model:

* symbol quantization onto the lattice (2*pi/n)Z, with the uniform bound
  2*pi*|t|/n on the resulting operator distance;
* near-identity groups with injective symbol in (0, 1/n), almost weakly
  stable in the model sense (no repeated frequency), with the bound 2t/n;
* eigenspace inflation and injective frequency perturbation of a periodic
  group, keeping embedded anchors within eps over a fixed time horizon;
* Wold decomposition of an isometric one-step map by repeated squaring;
* periodization of the truncated right shift (circular wrap on the first
  n_c cells);
* the two composed density pipelines (isometry -> periodic unitary,
  isometry -> almost weakly stable);
* the Cantor-measure witness: the depth-d multiplication group and the
  product-formula oracle for its Fourier-Stieltjes transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.linalg

from .hilbert import HVector, SumSpace, WeightedGrid
from .semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    MultiplicationGroup,
    PeriodicShiftGroup,
    SemigroupModel,
    ShiftSemigroup,
    one_step_matrix,
    shift_grid,
)


class NotIsometricError(ValueError):
    """The model is not isometric, so the operation does not apply."""


class NotPeriodicError(ValueError):
    """The model's frequencies are not commensurable within tolerance."""


# --- symbol quantization ----------------------------------------

@dataclass(frozen=True)
class QuantizationResult:
    approximant: MultiplicationGroup
    level: int
    guaranteed_bound: Callable[[float], float]


def quantize_symbol(U: MultiplicationGroup, n: int) -> QuantizationResult:
    """Snap every frequency down to the lattice (2*pi/n)Z.

    The approximant satisfies sup_k |exp(itq_k) - exp(itq_{n,k})| <= 2*pi*|t|/n
    for every real t and is n-periodic: approximant.apply(n) is the identity.
    """
    if n < 1:
        raise ValueError("quantization level must be >= 1")
    cell = 2.0 * np.pi / n
    ratio = U.symbol / cell
    j = np.floor(ratio)
    # frequencies already on the lattice must be fixed points despite rounding
    j = np.where(ratio - j > 1.0 - 1e-9, j + 1.0, j)
    qn = cell * j
    return QuantizationResult(
        approximant=MultiplicationGroup(U.grid, qn),
        level=n,
        guaranteed_bound=lambda t: 2.0 * np.pi * abs(t) / n,
    )


def quantization_distance(U: MultiplicationGroup, V: MultiplicationGroup, t: float) -> float:
    """Exact operator distance sup_k |exp(itq_k) - exp(itq'_k)| on the grid."""
    return float(np.abs(np.exp(1j * t * U.symbol) - np.exp(1j * t * V.symbol)).max())


# --- near-identity almost weakly stable groups -------------------

def near_identity_aws(grid: WeightedGrid, n: int) -> MultiplicationGroup:
    """Multiplication group with injective symbol in (0, 1/n).

    The symbol is rank-based in the grid points (any strictly monotone map
    into (0,1) works), so duplicate points are rejected: injectivity would
    fail.  Satisfies ||U_n(t) - I|| <= 2t/n for 0 <= t <= pi*n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pts = grid.points
    if np.unique(pts).size != pts.size:
        raise ValueError("grid points must be distinct for an injective symbol")
    order = np.argsort(pts)
    ranks = np.empty(grid.size)
    ranks[order] = np.arange(1, grid.size + 1)
    q = ranks / (grid.size + 1.0)  # strictly monotone into (0, 1)
    return MultiplicationGroup(grid, q / n)


# --- inflation and injective perturbation ------------------------

def _commensurable_base(freqs: np.ndarray, tol: float = 1e-9) -> float:
    """Largest g (within tol) with every frequency an integer multiple of g."""
    vals = np.abs(freqs[np.abs(freqs) > tol])
    if vals.size == 0:
        return 2.0 * np.pi  # zero symbol: any period works
    g = vals[0]
    for v in vals[1:]:
        a, b = max(g, v), min(g, v)
        while b > tol:
            a, b = b, a % b
        g = a
    if np.abs(freqs / g - np.round(freqs / g)).max() > 1e-6:
        raise NotPeriodicError("frequencies are not commensurable within tolerance")
    return float(g)


@dataclass(frozen=True)
class InflationResult:
    group: MultiplicationGroup
    space: SumSpace
    copies: int
    scale_per_level: float  # perturbation magnitudes lie in (0, scale_per_level)
    level_m: int
    embed_index: np.ndarray  # combined-grid position of each original point

    def embed(self, x: HVector) -> HVector:
        c = np.zeros(self.space.dimension, dtype=complex)
        c[self.embed_index] = x.coeffs
        return HVector(self.space.combined, c)

    @property
    def frequencies_distinct(self) -> bool:
        f = self.group.symbol
        return np.unique(f).size == f.size

    def compressed(self) -> MultiplicationGroup:
        """Restriction to the embedded copy of the original space."""
        base = self.group
        return MultiplicationGroup(
            WeightedGrid(
                base.grid.points[self.embed_index],
                base.grid.weights[self.embed_index],
            ),
            base.symbol[self.embed_index],
        )


def inflate_and_perturb(
    periodic: MultiplicationGroup,
    anchors: Sequence[HVector],
    eps: float,
    t0: float,
    copies: int = 8,
    commensurability_tol: float = 1e-9,
) -> InflationResult:
    """Perturb a periodic group into one with pairwise-distinct frequencies.

    Grid indices are grouped by exact frequency (the eigenspaces of the
    generator); each group is inflated to `copies` copies, and every inflated
    point gets its constant frequency replaced by frequency + delta with the
    deltas injective and bounded by 1/m, m the smallest integer with
    2*t0/m <= eps.  Embedded anchors then stay within eps * ||anchor|| of
    their original orbit for |t| <= t0.
    """
    if eps <= 0 or t0 <= 0:
        raise ValueError("need eps > 0 and t0 > 0")
    if copies < 2:
        raise ValueError("need at least 2 copies")
    for a in anchors:
        if not a.grid.same_as(periodic.grid):
            raise ValueError("anchors must live on the periodic group's grid")
    _commensurable_base(periodic.symbol, commensurability_tol)

    m = max(1, math.ceil(2.0 * t0 / eps))
    distinct = np.unique(periodic.symbol)
    gaps = np.diff(distinct)
    scale = 1.0 / m
    if gaps.size:
        scale = min(scale, float(gaps.min()) / 4.0)

    grids, symbols, embed_index = [], [], np.empty(periodic.grid.size, dtype=int)
    offset = 0
    for lam in distinct:
        idx = np.flatnonzero(periodic.symbol == lam)
        block_pts = np.tile(periodic.grid.points[idx], copies)
        block_wts = np.tile(periodic.grid.weights[idx], copies)
        grids.append(WeightedGrid(block_pts, block_wts))
        symbols.append(np.full(idx.size * copies, lam))
        embed_index[idx] = offset + np.arange(idx.size)  # copy 0 holds the original
        offset += idx.size * copies

    space = SumSpace(tuple(grids))
    lam_full = np.concatenate(symbols)
    p = lam_full.size
    deltas = scale * np.arange(1, p + 1) / (p + 1.0)
    group = MultiplicationGroup(space.combined, lam_full + deltas)
    return InflationResult(
        group=group,
        space=space,
        copies=copies,
        scale_per_level=scale,
        level_m=m,
        embed_index=embed_index,
    )


# --- Wold decomposition -------------------------------------------

@dataclass(frozen=True)
class WoldResult:
    unitary_basis: tuple[HVector, ...]
    shift_basis: tuple[HVector, ...]
    residual: float
    iterations: int  # squarings of the one-step map
    stabilized: bool
    # smallest kept over largest dropped singular value of W^K; None when
    # either side is empty, inf when the dropped ones are exactly zero
    rank_gap: float | None
    step: float
    one_step: np.ndarray = field(repr=False)
    unitary_block: np.ndarray = field(repr=False)  # one-step map on H0
    shift_block: np.ndarray = field(repr=False)  # one-step compression to H1
    basis_matrix_unitary: np.ndarray = field(repr=False)
    basis_matrix_shift: np.ndarray = field(repr=False)

    @property
    def unitary_dim(self) -> int:
        return len(self.unitary_basis)

    @property
    def shift_dim(self) -> int:
        return len(self.shift_basis)


def _orth_columns(A: np.ndarray, tol: float) -> np.ndarray:
    if A.shape[1] == 0:
        return A
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    rank = int((s > tol).sum())
    return u[:, :rank]


def _stable_range(
    W: np.ndarray, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray, int, bool, float | None]:
    """(B0, B1, squarings, stabilized, rank_gap) from one full SVD of W^K.

    K = 2^squarings with squarings = min(ceil(log2 k), max_iter); range(W^j)
    stops shrinking by j = k, and W is a contraction, so its powers stay
    bounded.  stabilized says rank(W^2K) = rank(W^K) at tol, read off the
    r x r core S_r Vh_r U_r S_r of W^K W^K.
    """
    k = W.shape[0]
    squarings = max(0, min((k - 1).bit_length(), max_iter))
    P = W
    for _ in range(squarings):
        P = P @ P
    u, s, vh = np.linalg.svd(P)
    rank = int((s > tol).sum())
    core = s[:rank, None] * (vh[:rank] @ u[:, :rank]) * s[:rank]
    stabilized = int((np.linalg.svd(core, compute_uv=False) > tol).sum()) == rank
    rank_gap = None
    if 0 < rank < k:
        rank_gap = float(s[rank - 1] / s[rank]) if s[rank] > 0 else math.inf
    return u[:, :rank], u[:, rank:], squarings, stabilized, rank_gap


def wold_decompose_matrix(
    W: np.ndarray, max_iter: int = 200, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Stable range of W by repeated squaring: B0 spans range(W^K), K >= k.

    Returns (B0, B1, iterations, stabilized): B0 and B1 are the left singular
    vectors of W^K above and below tol, so B1 is an orthonormal basis of the
    complement; iterations counts squarings, capped by max_iter.
    """
    return _stable_range(W, max_iter, tol)[:4]


def wold_decompose(
    V: SemigroupModel,
    max_iter: int = 200,
    tol: float = 1e-10,
    step: float | None = None,
) -> WoldResult:
    """Split an isometric model into its unitary and shift parts.

    Operates on the one-step map W = V(h) in weighted coordinates on the
    model's nominal grid; shift overflow is truncated, which is exactly what
    makes the powers of the shift part vanish on the simulated horizon.
    """
    if not V.is_isometric:
        raise NotIsometricError("Wold decomposition needs an isometric model")
    h = step if step is not None else _natural_step(V)
    W = one_step_matrix(V, h)
    B0, B1, iterations, stabilized, rank_gap = _stable_range(W, max_iter, tol)

    M0 = B0.conj().T @ W @ B0
    M1 = B1.conj().T @ W @ B1
    defects = []
    if B0.shape[1]:
        P0 = B0 @ B0.conj().T
        defects.append(np.linalg.norm(W @ B0 - P0 @ (W @ B0), 2))  # H0 invariance
        defects.append(np.linalg.norm(M0.conj().T @ M0 - np.eye(B0.shape[1]), 2))
    if B1.shape[1] and B0.shape[1]:
        defects.append(np.linalg.norm(B0.conj().T @ (W @ B1), 2))  # H1 invariance
    residual = float(max(defects)) if defects else 0.0
    if not stabilized:
        residual = max(residual, 1.0)  # dimensions never settled; flag loudly

    g = V.grid
    sw = np.sqrt(g.weights)
    to_vec = lambda col: HVector(g, col / sw)
    return WoldResult(
        unitary_basis=tuple(to_vec(B0[:, j]) for j in range(B0.shape[1])),
        shift_basis=tuple(to_vec(B1[:, j]) for j in range(B1.shape[1])),
        residual=residual,
        iterations=iterations,
        stabilized=stabilized,
        rank_gap=rank_gap,
        step=h,
        one_step=W,
        unitary_block=M0,
        shift_block=M1,
        basis_matrix_unitary=B0,
        basis_matrix_shift=B1,
    )


def _natural_step(V: SemigroupModel) -> float:
    if V.time_step is not None:
        return float(V.time_step)
    f = V.max_frequency()
    if f is None or f == 0.0:
        return 1.0
    # keep |q| * h < pi so one-step eigenvalue angles recover frequencies
    return min(1.0, float(np.pi / (2.0 * f)))


def wandering_subspace(wr: WoldResult, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of H1 minus W(H1), in weighted coordinates."""
    B1, W = wr.basis_matrix_shift, wr.one_step
    if B1.shape[1] == 0:
        return B1
    WB1 = _orth_columns(W @ B1, tol)
    # component of H1 orthogonal to W(H1)
    resid = B1 - WB1 @ (WB1.conj().T @ B1) if WB1.shape[1] else B1
    return _orth_columns(resid, tol)


# --- shift periodization -----------------------------------------

def periodize_shift(R: ShiftSemigroup, n_c: int) -> PeriodicShiftGroup:
    """Circular wrap of the truncated shift on the first n_c cells."""
    if n_c < 1:
        raise ValueError("period cell count must be >= 1")
    return PeriodicShiftGroup(period_cells=n_c, step=R.step, fiber_dim=R.fiber_dim)


def periodization_error_identity(
    R: ShiftSemigroup, n_c: int, f: HVector, t: float
) -> tuple[float, float, float]:
    """(measured error^2, identity rhs, factor-2 tail bound) for t < n.

    The identity is exact in exact arithmetic:
        error^2 = sum_{cells in [n-t, n)} h ||f||^2
                + sum_{cells >= n} h ||f(s) - f(s-t)||^2.
    The tail bound 2 * sum_{cells >= n-t} h ||f||^2 is the constant claimed
    alongside it; see the tests for how tight it actually is.
    """
    from .hilbert import difference_norm

    h, m = R.step, R.fiber_dim
    ell = int(round(t / h))
    if ell >= n_c:
        raise ValueError("the identity only applies for t < n")
    U = periodize_shift(R, n_c)
    lhs = difference_norm(U.apply(t, f), R.apply(t, f)) ** 2
    if ell == 0:
        return float(lhs), 0.0, 0.0

    n_cells = f.coeffs.size // m
    length = max(n_cells, n_c) + ell
    c = np.zeros((length, m), dtype=complex)
    c[:n_cells] = f.coeffs.reshape(-1, m)
    first = h * (np.abs(c[n_c - ell : n_c]) ** 2).sum()
    second = h * (np.abs(c[n_c:] - c[n_c - ell : length - ell]) ** 2).sum()
    tail = 2.0 * h * (np.abs(c[n_c - ell :]) ** 2).sum()
    return float(lhs), float(first + second), float(tail)


# --- composed density pipelines ---------------------------------------------

def _diagonalize_unitary(M: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, Z) with M = Z diag(exp(i h q)) Z* for unitary M."""
    if M.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    T, Z = scipy.linalg.schur(M, output="complex")
    return np.angle(np.diag(T)) / h, Z


def approximate_isometry_by_periodic(
    V: SemigroupModel,
    n: int,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> SemigroupModel:
    """Replace an isometric model by a nearby periodic unitary one.

    Structural models are handled directly (quantize the symbol, wrap the
    shift); mixed models go through the Wold decomposition, with the shift
    compression completed to a unitary by its polar factor and everything
    quantized at level n.
    """
    if not V.is_isometric:
        raise NotIsometricError("input must be isometric")
    if isinstance(V, MultiplicationGroup):
        return quantize_symbol(V, n).approximant
    if isinstance(V, ShiftSemigroup):
        n_c = max(1, int(round(n / V.step)))
        return periodize_shift(V, n_c)
    if isinstance(V, DirectSumSemigroup):
        parts, grids = [], []
        for p, g in zip(V.parts, V.space.components):
            q = approximate_isometry_by_periodic(p, n, max_iter, tol)
            k = q.grid.size
            if g.size <= k:
                parts.append(q)
                grids.append(g if g.size == k else q.grid)
                continue
            # a shift block longer than the new period: the periodic part is
            # the identity above it, kept as a zero-frequency block of its own
            # so the sum stays diagonalizable on V's ambient space
            tail = WeightedGrid(g.points[k:], g.weights[k:])
            parts += [q, MultiplicationGroup(tail, np.zeros(tail.size))]
            grids += [WeightedGrid(g.points[:k], g.weights[:k]), tail]
        return DirectSumSemigroup(SumSpace(tuple(grids)), tuple(parts))

    wr = wold_decompose(V, max_iter=max_iter, tol=tol)
    freqs0, Z0 = _diagonalize_unitary(wr.unitary_block, wr.step)
    if wr.shift_dim:
        uc, _ = scipy.linalg.polar(wr.shift_block)  # unitary completion of the
        freqs1, Z1 = _diagonalize_unitary(uc, wr.step)  # truncated shift block
    else:
        freqs1, Z1 = np.zeros(0), np.zeros((0, 0), dtype=complex)
    freqs = np.concatenate([freqs0, freqs1])
    k = V.grid.size
    to_diag = np.zeros((k, k), dtype=complex)
    d0 = wr.unitary_dim
    if d0:
        to_diag[:d0, :] = Z0.conj().T @ wr.basis_matrix_unitary.conj().T
    if wr.shift_dim:
        to_diag[d0:, :] = Z1.conj().T @ wr.basis_matrix_shift.conj().T
    diag_group = MultiplicationGroup(WeightedGrid.uniform(k), freqs)
    quantized = quantize_symbol(diag_group, n).approximant
    return ConjugatedGroup(V.grid, to_diag, quantized)


def approximate_isometry_by_aws(
    V: SemigroupModel,
    eps: float,
    t0: float,
    n: int = 64,
    copies: int = 8,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> SemigroupModel:
    """Replace an isometric model by an almost weakly stable unitary one.

    Pipeline: Wold-based periodic approximation at level n, then injective
    frequency perturbation of the resulting periodic group.  The output acts
    on V's ambient space and has pairwise-distinct frequencies (the model's
    almost-weak-stability certificate); the distance to the periodic
    approximant is at most eps on |t| <= t0 for unit vectors.
    """
    periodic = approximate_isometry_by_periodic(V, n, max_iter=max_iter, tol=tol)
    form = periodic.spectral_form()
    if form is None:
        raise TypeError(f"cannot diagonalize {type(periodic).__name__}")
    freqs, basis = form
    inner_grid = WeightedGrid.uniform(freqs.size)
    inflation = inflate_and_perturb(
        MultiplicationGroup(inner_grid, freqs), [], eps, t0, copies=copies)
    symbol = inflation.compressed().symbol
    if basis is None:
        return MultiplicationGroup(periodic.grid, symbol)
    return ConjugatedGroup(periodic.grid, basis, MultiplicationGroup(inner_grid, symbol))


def distinct_frequency_certificate(model: SemigroupModel) -> bool:
    """True when the model's spectrum is simple (no repeated frequency)."""
    if isinstance(model, ConjugatedGroup):
        return distinct_frequency_certificate(model.inner)
    if isinstance(model, MultiplicationGroup):
        return bool(np.unique(model.symbol).size == model.symbol.size)
    raise TypeError("certificate requires a (conjugated) multiplication group")


# --- Cantor measure witness -------------------------------------------------

def cantor_transform_abs(t, factor_tol: float = 1e-14) -> np.ndarray:
    """|Fourier-Stieltjes transform| of the middle-thirds Cantor measure.

    Product formula |gamma(t)| = prod_{k>=1} |cos(t / 3^k)|, truncated at the
    depth where every remaining factor is within factor_tol of 1.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tmax = max(float(np.abs(t).max()), 1.0)
    depth = max(1, math.ceil(math.log(tmax / math.sqrt(2.0 * factor_tol)) / math.log(3.0)))
    out = np.ones_like(t)
    for k in range(1, depth + 1):
        out *= np.abs(np.cos(t / 3.0 ** k))
    return out


def cantor_group(depth: int) -> MultiplicationGroup:
    """Multiplication group on the depth-d Cantor approximation grid.

    2^d atoms (left endpoints of the surviving intervals) with uniform
    weights; the symbol is the atom position, so the autocorrelation of the
    uniform unit vector is the depth-d truncated product formula.
    """
    if depth < 1:
        raise ValueError("cantor depth must be >= 1")
    bits = np.arange(2 ** depth)[:, None] >> np.arange(depth)[None, :] & 1
    pts = (bits * (2.0 / 3.0 ** np.arange(1, depth + 1))).sum(axis=1)
    grid = WeightedGrid(pts, np.full(2 ** depth, 2.0 ** -depth))
    return MultiplicationGroup(grid, pts)
