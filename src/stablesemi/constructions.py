"""Constructive approximation procedures for unitary and isometric models.

Implements, on the discretized spectral model:

* symbol quantization onto the lattice (2*pi/n)Z, with the uniform bound
  2*pi*|t|/n on the resulting operator distance;
* near-identity groups with injective symbol in (0, 1/n), almost weakly
  stable in the model sense (no repeated frequency), with the bound |t|/n;
* eigenspace inflation and injective frequency perturbation of a periodic
  group, keeping embedded anchors within eps over a fixed time horizon;
* Wold decomposition of an isometric one-step map W by its wandering
  chains W^j s, s in range(I - W W*);
* periodization of the truncated right shift (circular wrap on the first
  n_c cells);
* the two composed density pipelines (isometry -> periodic unitary,
  isometry -> almost weakly stable); on a mixed model V = U (+) S, each
  wandering chain of S is wrapped cyclically and diagonalized by a DFT;
* the Cantor-measure witness: the depth-d multiplication group and the
  product-formula oracle for its Fourier-Stieltjes transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .hilbert import HVector, SumSpace, WeightedGrid, _count, _positive
from .semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    SemigroupModel,
    ShiftSemigroup,
    _columns,
    _diff_norms,
    _frequency_groups,
    _steps,
    one_step_matrix,
)


# --- symbol quantization ----------------------------------------

@dataclass(frozen=True)
class QuantizationResult:
    approximant: MultiplicationGroup


def _levels(n) -> np.ndarray:
    """n as an array, ValueError unless it holds integers or real floats, each
    finite and >= 1 (a NaN fails `n >= 1`; a bool or a string is no level)."""
    n = np.asarray(n)
    if n.dtype.kind not in "iuf" or not ((n >= 1) & (n < np.inf)).all():
        raise ValueError("quantization level must be >= 1 and finite")
    return n


def _snap_down(q: np.ndarray, n) -> np.ndarray:
    """Every entry of q snapped down onto the lattice (2*pi/n)Z.

    q's last axis holds one symbol; n is a level or an array of levels that
    broadcasts over q's leading axes, one level per symbol (`_levels`).
    """
    n = _levels(n)
    cell = 2.0 * np.pi / n[..., None]
    ratio = q / cell
    j = np.floor(ratio)
    # frequencies already on the lattice must be fixed points despite rounding
    j = np.where(ratio - j > 1.0 - 1e-9, j + 1.0, j)
    return cell * j


def _phase_distance(q: np.ndarray, qn: np.ndarray, t) -> np.ndarray:
    """max_k |exp(itq_k) - exp(itqn_k)| over q's last axis.

    t is a time or an array of times that broadcasts over the leading axes,
    one time per symbol.  Measured by the half-angle identity
    |exp(ia) - exp(ib)| = 2 |sin((a - b) / 2)|, in the operation order of
    `semigroups._phase_gaps`: one real sine per entry, accurate to a few
    ulps relative; the difference of two complex exponentials cancels
    where the distance is small, to relative errors up to ~1e-11.
    """
    t = np.asarray(t)[..., None]
    return 2.0 * np.abs(np.sin(t * (0.5 * (q - qn)))).max(axis=-1)


def quantize_symbol(U: MultiplicationGroup, n: int) -> QuantizationResult:
    """Snap every frequency down to the lattice (2*pi/n)Z (see `_snap_down`).

    The approximant satisfies sup_k |exp(itq_k) - exp(itq_{n,k})| <= 2*pi*|t|/n
    for every real t and is n-periodic: approximant.apply(n) is the identity.
    """
    return QuantizationResult(MultiplicationGroup(U.grid, _snap_down(U.symbol, n)))


# --- near-identity almost weakly stable groups -------------------

def near_identity_aws(grid: WeightedGrid, n: int) -> MultiplicationGroup:
    """Multiplication group with injective symbol in (0, 1/n).

    The symbol is rank-based in the grid points (any strictly monotone map
    into (0,1) works), so duplicate points are rejected: injectivity would
    fail.  Satisfies ||U_n(t) - I|| <= |t| * max q < |t|/n for every real t,
    as |exp(itq) - 1| = 2|sin(tq/2)| <= |t|q.  ValueError for a level n that
    is not a finite number >= 1 (`_levels`).
    """
    _levels(n)
    pts = grid.points
    if np.unique(pts).size != pts.size:
        raise ValueError("grid points must be distinct for an injective symbol")
    order = np.argsort(pts)
    ranks = np.empty(grid.size)
    ranks[order] = np.arange(1, grid.size + 1)
    q = ranks / (grid.size + 1.0)  # strictly monotone into (0, 1)
    return MultiplicationGroup(grid, q / n)


# --- inflation and injective perturbation ------------------------

@dataclass(frozen=True)
class InflationResult:
    group: MultiplicationGroup
    embed_index: np.ndarray  # position in `group.grid` of each original point


def _inflation_layout(q: np.ndarray, eps: float, t0: float, copies: int):
    """(source, embed_index, deltas) of `inflate_and_perturb` for the symbol
    q: inflated slot i copies index source[i] and adds deltas[i] to its
    frequency, and index j sits at slot embed_index[j], in copy 0."""
    eps, t0, copies = _positive(eps, "eps"), _positive(t0, "t0"), _count(copies, "copies", 2)
    m = max(1, math.ceil(2.0 * t0 / eps))
    lams, group = _frequency_groups(q)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group)
    starts = np.cumsum(sizes) - sizes
    scale = min(1.0 / m, float(np.diff(lams).min(initial=np.inf)) / 4.0)

    # group g fills copies*size_g slots from copies*start_g, copy-major: copy c
    # of sorted position i goes to copies*start_g + c*size_g + (i - start_g)
    group_of = group[order]
    dest = ((copies - 1) * starts[group_of] + np.arange(q.size)
            + np.arange(copies)[:, None] * sizes[group_of])
    source = np.empty(dest.size, dtype=int)
    source[dest] = order
    embed_index = np.empty(q.size, dtype=int)
    embed_index[order] = dest[0]
    deltas = scale * np.arange(1, dest.size + 1) / (dest.size + 1.0)
    return source, embed_index, deltas


def inflate_and_perturb(
    periodic: MultiplicationGroup,
    anchors: Sequence[HVector],
    eps: float,
    t0: float,
    copies: int = 8,
) -> InflationResult:
    """Perturb a periodic group into one with pairwise-distinct frequencies.

    Grid indices are grouped by exact frequency (`_frequency_groups`; the
    eigenspaces of the generator).  Each group is inflated to `copies`
    copies of its points in one contiguous block, copy-major, the blocks in
    ascending frequency order; copy 0 holds the original points
    (`_inflation_layout`).  Every inflated point gets its frequency plus a
    delta, the deltas injective and below 1/m, m the smallest integer with
    2*t0/m <= eps, and below a quarter of the smallest frequency gap.  So
    the frequencies are pairwise distinct, and embedded anchors stay within
    eps * ||anchor|| of their original orbit for |t| <= t0, for any real
    symbol: neither uses a common base of the frequencies.
    """
    for a in anchors:
        if not a.grid.same_as(periodic.grid):
            raise ValueError("anchors must live on the periodic group's grid")
    q = periodic.symbol
    source, embed_index, deltas = _inflation_layout(q, eps, t0, copies)
    grid = WeightedGrid(periodic.grid.points[source], periodic.grid.weights[source])
    return InflationResult(MultiplicationGroup(grid, q[source] + deltas), embed_index)


# --- Wold decomposition -------------------------------------------

@dataclass(frozen=True)
class WoldResult:
    """The Wold split of an isometric model's one-step map W = V(step).

    A repeated `wold_decompose` of the same model with the same arguments
    returns this same object, so every array is read-only.  The split also
    holds its diagonalization (`diagonal_form`), computed on first use, so
    the pipelines that follow it on the same model factor its unitary block
    once.
    """

    residual: float  # largest 2-norm defect of the split, a measurement (`wold_decompose`)
    iterations: int  # chain-walk steps: the longest chain length once stabilized
    stabilized: bool  # the split's one soundness verdict (`wold_decompose`)
    # smallest kept pivot of the chain starts over the largest |remaining
    # diagonal| of I - W W* (`_wold_chains`); None when there is no chain
    # start, inf when the remaining diagonal is exactly zero
    rank_gap: float | None
    step: float
    unitary_block: np.ndarray = field(repr=False)  # one-step map on H0
    basis_matrix_unitary: np.ndarray = field(repr=False)  # weighted coordinates
    basis_matrix_shift: np.ndarray = field(repr=False)  # chain vectors W^j s, chain by chain
    chain_lengths: np.ndarray  # one per wandering chain, ascending, in basis_matrix_shift's order

    @property
    def unitary_dim(self) -> int:
        return self.basis_matrix_unitary.shape[1]

    @functools.cached_property
    def diagonal_form(self) -> tuple[np.ndarray, tuple]:
        """(frequencies, ((0, to_diag),)), a spectral form with one full
        block (`SemigroupModel.spectral_form`): the unitary block and the
        cyclic wrap of each chain, diagonalized.  to_diag maps weighted
        coordinates onto the eigenvectors, the unitary block's Schur vectors
        first (`_diagonalize_unitary`), then each chain's DFT vectors
        (`_periodize_chains`).  Computed once per split, read-only."""
        freqs0, Z0 = _diagonalize_unitary(self.unitary_block, self.step)
        freqs1, Z1 = _periodize_chains(self.basis_matrix_shift, self.chain_lengths, self.step)
        freqs = np.concatenate([freqs0, freqs1])
        to_diag = np.concatenate([Z0.conj().T @ self.basis_matrix_unitary.conj().T, Z1.conj().T])
        for a in (freqs, to_diag):
            a.setflags(write=False)
        return freqs, ((0, to_diag),)


# A chain length is an integer when within this many rounding errors per walk
# step and dimension of one: the round-off of G = sum_j Y_j* Y_j grows with
# both, and measured at most 1.5 of them on conjugated Mult (+) Shift models
# up to k = 1500, so 16 keeps a tenfold margin (2.6e-13 at k = 8).
_CHAIN_ULPS = 16


def _chain_tol(steps: int, k: int) -> float:
    """The bound on a chain length's distance to an integer, and on a settled
    split's residual, after `steps` walk slabs on k dimensions."""
    return _CHAIN_ULPS * steps * k * np.finfo(float).eps


def _wold_chains(W: np.ndarray, max_iter: int | None):
    """(B0, B1, WB1, lengths, iterations, settled, rank_gap): the Wold
    split of the one-step map W by its wandering chains.

    The chain starts S are an orthonormal basis of L = range(P), where
    P = I - W W* is, for an isometric W, the projector onto ker W*.  They come
    from a pivoted Gram-Schmidt on the columns of P, which is never formed:
    P's diagonal is 1 - ||W[i]||^2 and its column i is e_i - W W[i]*.  Each
    pivot takes the column with the largest remaining diagonal,
    orthogonalizes it against the starts so far (twice) and normalizes it,
    and its squared moduli come off the remaining diagonal, which so stays
    the diagonal of P - S S*.  The pivots stop once that diagonal is at most
    1/(2k), a cut that is derived, not tuned: a rank-r projector on k
    dimensions has a diagonal entry >= r/k, and each pivot takes one rank
    off, so every true pivot is >= 1/k, while the round-off left after the
    last is about k rounding errors.  rank_gap is the smallest kept pivot over the largest
    |remaining diagonal| (None with no starts, inf when that diagonal is
    exactly zero).  The walk Y_j = W^j S runs until ||Y_j|| < 0.5, for at
    most max_iter steps (None: k, as no chain is longer).  The chain lengths
    are the eigenvalues of G = sum_j Y_j* Y_j, in ascending order, and its
    eigenvectors E align S with the chains.  B1 holds the chain vectors
    W^j s chain by chain, spanning H1 = (+)_j W^j L, and B0 is an orthonormal
    basis of their complement H0.  WB1 = W B1 is read off the walk itself, as
    W (Y_j E) = Y_{j+1} E, with one step past its last slab.  settled says
    the walk vanished and every length is an integer >= 1 to within
    _CHAIN_ULPS * s * k rounding errors, s the slabs Y_j summed into G, below
    s and at most k in all, as no chain outlives the walk (a non-isometric W
    can pass the integer check alone); iterations counts the walk steps.
    """
    k = W.shape[0]
    d = 1.0 - np.einsum("ij,ij->i", W, W.conj()).real  # diagonal of P = I - W W*
    S = np.empty((k, 0), dtype=W.dtype)
    pivots = []
    while S.shape[1] < k and d.max() > 0.5 / k:
        i = int(d.argmax())
        u = -(W @ W[i].conj())  # column i of P
        u[i] += 1.0
        for _ in range(2):
            u -= S @ (S.conj().T @ u)
        norm = np.linalg.norm(u)
        if norm == 0:  # only when P is no projector, so W no isometry
            break
        pivots.append(d[i])
        u /= norm
        d -= (u * u.conj()).real
        S = np.column_stack([S, u])
    rank_gap = None
    if pivots:
        dropped = np.abs(d).max()
        rank_gap = float(min(pivots) / dropped) if dropped > 0 else math.inf
    Y = [S]
    while np.vdot(Y[-1], Y[-1]).real >= 0.25 and len(Y) <= (k if max_iter is None else max_iter):
        Y.append(W @ Y[-1])
    settled = np.vdot(Y[-1], Y[-1]).real < 0.25
    steps = len(Y)
    Y.append(W @ Y[-1])  # the step past the walk, for W B1's last chain vectors
    Y = np.stack(Y)
    lengths, E = np.linalg.eigh(np.einsum("jar,jas->rs", Y[:steps].conj(), Y[:steps]))
    ell = np.round(lengths).astype(int)
    settled = bool(settled and ell.min(initial=1) >= 1
                   and ell.max(initial=0) < steps and ell.sum() <= k
                   and np.abs(lengths - ell).max(initial=0.0) <= _chain_tol(steps, k))
    chains = (Y @ E).transpose(1, 2, 0)
    mask = np.arange(steps) < ell[:, None]
    B1, WB1 = chains[:, :, :steps][:, mask], chains[:, :, 1:][:, mask]
    B0 = np.linalg.qr(B1, mode="complete")[0][:, B1.shape[1]:]
    return B0, B1, WB1, ell, steps - 1, settled, rank_gap


def _norm2(X: np.ndarray) -> float:
    """||X||_2 as the root of the largest eigenvalue of the smaller Gram
    matrix, X* X or X X*."""
    G = X.conj().T @ X if X.shape[0] >= X.shape[1] else X @ X.conj().T
    return math.sqrt(float(np.linalg.eigvalsh(G).max(initial=0.0)))


def wold_decompose_matrix(
    W: np.ndarray, max_iter: int | None = None
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """(B0, B1, iterations, settled) of `_wold_chains`: bases of H0 and of
    the wandering chains of W, the walk steps, and whether the walk settled.
    It computes no residual, so its flag is not `WoldResult.stabilized`.

    A thin wrapper, kept only because perfbench/kernel_ladder.py calls it
    with max_iter=k + 5; it goes with the next change to the benchmark.
    """
    B0, B1, _, _, iterations, settled, _ = _wold_chains(W, max_iter)
    return B0, B1, iterations, settled


# (V, h, WoldResult) of the last call: one slot, so the pipelines that follow
# wold_decompose on the same V neither build W nor split it again.  Models are
# frozen and their arrays read-only, so the same model object has the same W.
_last_split = None


def wold_decompose(V: SemigroupModel, step: float | None = None) -> WoldResult:
    """Split an isometric model into its unitary and shift parts.

    Operates on the one-step map W = V(h) in weighted coordinates on the
    model's nominal grid; every model keeps its payload, so a shift block
    drops its overflow, which is exactly what makes the powers of the shift
    part vanish on the simulated horizon.
    The chain walk runs for at most k steps, k the dimension, which an
    isometric W never needs; the chain lengths must be integers to within a
    bound that grows with the walk and k (`_wold_chains`, which also reads
    W B1 off its walk).  The residual is the largest 2-norm defect of
    the split: ||W B0 - B0 M0|| (H0 invariance), ||M0* M0 - I|| and
    ||B0* W B1|| (H1 invariance), each from the smallest Hermitian matrix at
    hand: the eigenvalues of the Hermitian M0* M0 - I, the smaller Gram
    matrix of the others (`_norm2`).  stabilized, the split's one soundness
    verdict, says the walk settled and the residual is within `_chain_tol`,
    which a non-isometric W fails even when its walk settles.  A given step
    must be a finite number > 0 (`hilbert._positive`, else ValueError).  A
    repeated call on the same model object with the same h returns the same
    result, whose arrays are all read-only.
    """
    global _last_split
    h = _positive(step, "step") if step is not None else _natural_step(V)
    if _last_split is not None and _last_split[0] is V and _last_split[1] == h:
        return _last_split[2]
    W = one_step_matrix(V, h)
    B0, B1, WB1, lengths, iterations, settled, rank_gap = _wold_chains(W, None)
    WB0 = W @ B0
    M0 = B0.conj().T @ WB0
    # M0* M0 - I is Hermitian, so its 2-norm is its largest |eigenvalue|; an
    # empty block has an empty spectrum, so its defect reads 0
    isometry = np.abs(np.linalg.eigvalsh(M0.conj().T @ M0 - np.eye(B0.shape[1])))
    residual = max(_norm2(WB0 - B0 @ M0),  # H0 invariance
                   float(isometry.max(initial=0.0)),
                   _norm2(B0.conj().T @ WB1))  # H1 invariance
    stabilized = bool(settled and residual <= _chain_tol(iterations + 1, W.shape[0]))
    for a in (M0, B0, B1, lengths):
        a.setflags(write=False)
    result = WoldResult(
        residual, iterations, stabilized, rank_gap, step=h, unitary_block=M0,
        basis_matrix_unitary=B0, basis_matrix_shift=B1, chain_lengths=lengths)
    _last_split = (V, h, result)
    return result


def _natural_step(V: SemigroupModel) -> float:
    if V.time_step is not None:
        return float(V.time_step)
    # a model without a step is unitary, so its frequencies bound the generator
    f = float(np.abs(V.spectral_form()[0]).max())
    if f == 0.0:
        return 1.0
    # keep |q| * h < pi so one-step eigenvalue angles recover frequencies
    return min(1.0, float(np.pi / (2.0 * f)))


# --- shift periodization -----------------------------------------

def periodization_error_identity(
    R: ShiftSemigroup, n_c: int, vectors: Sequence[HVector], times: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(measured error^2, identity rhs, factor-2 tail bound) per vector f_i
    at its time t_i, 0 <= t_i < n, n = n_c * h, as three arrays.  The
    identity is exact in exact arithmetic:
        error^2 = sum_{cells in [n-t, n)} h |f|^2
                + sum_{cells >= n} h |f(s) - f(s-t)|^2.
    The tail bound 2 * sum_{cells >= n-t} h |f|^2 is the constant claimed
    alongside it; see the tests for how tight it actually is.

    ValueError unless n_c is an integer >= 1 (`hilbert._count`) and there is
    one time per vector.  Every time is admitted first, on R's lattice
    (`_steps`), before any vector is padded: InadmissibleTimeError for a
    step count l < 0, ValueError for l >= n_c.
    Then one evaluation per distinct l: its vectors meet U and R in
    `_columns`, which gives R room for l cells, the error is `_diff_norms` at
    l h, and the rhs and tail (0 at l = 0) are read off its columns sqrt(h) f.
    """
    _count(n_c, "n_c")
    h = R.step
    times = np.asarray(times, dtype=float)
    if times.shape != (len(vectors),):
        raise ValueError(f"need one time per vector, got {times.shape} for {len(vectors)}")
    ells = _steps(times, h)[:, 0]
    if ells.min(initial=0) < 0:
        raise InadmissibleTimeError("right shift only admits t >= 0")
    if ells.max(initial=0) >= n_c:
        raise ValueError("the identity only applies for t < n")
    U = PeriodicShiftGroup(n_c, h)
    lhs, rhs, tail = (np.zeros(len(vectors)) for _ in range(3))
    # per distinct count: one pass over every count for every vector is 1.5x slower
    for ell in np.unique(ells).tolist():
        idx = np.flatnonzero(ells == ell)
        t = np.array([ell * h])
        grid, Z = _columns((U, R), [vectors[i] for i in idx], t)
        lhs[idx] = _diff_norms(U, R, grid, Z, t)[0] ** 2
        if ell:
            A = np.abs(Z) ** 2
            rhs[idx] = (A[n_c - ell : n_c].sum(axis=0)
                        + (np.abs(Z[n_c:] - Z[n_c - ell : -ell]) ** 2).sum(axis=0))
            tail[idx] = 2.0 * A[n_c - ell :].sum(axis=0)
    return lhs, rhs, tail


# --- composed density pipelines ---------------------------------------------

def _diagonalize_unitary(M: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, Z) with M = Z diag(exp(i h q)) Z* for unitary M."""
    if M.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    import scipy.linalg  # local: ~0.3 s of start-up that only the Wold/Schur path needs
    T, Z = scipy.linalg.schur(M, output="complex")
    return np.angle(np.diag(T)) / h, Z


def _periodize_chains(B1: np.ndarray, lengths, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, Z) of the cyclic wrap of the chains in B1 (`_wold_chains`).

    A length-l chain's wrap is the circular shift on l cells, so the spectral
    form of `PeriodicShiftGroup(l, h)` diagonalizes it; Z's columns are its
    basis vectors, in the coordinates of B1's rows.
    """
    freqs, Z = [np.zeros(0)], [B1[:, :0]]
    for end, length in zip(np.cumsum(lengths), lengths):
        f, ((_, basis),) = PeriodicShiftGroup(int(length), h).spectral_form()
        freqs.append(f)
        Z.append(B1[:, end - length : end] @ basis.conj().T)
    return np.concatenate(freqs), np.concatenate(Z, axis=1)


def _from_form(grid: WeightedGrid, freqs: np.ndarray, blocks: tuple) -> SemigroupModel:
    """The unitary group on grid with spectral form (freqs, blocks): a
    multiplication group on each run of rows the blocks leave alone, one
    conjugated by each block on that block's rows, and the direct sum of
    these parts, or the part itself when there is one.  So the group's own
    form holds the same block arrays at the same offsets."""
    def part(lo: int, hi: int, block: np.ndarray | None) -> SemigroupModel:
        g, f = (grid, freqs) if hi - lo == freqs.size else (
            WeightedGrid(grid.points[lo:hi], grid.weights[lo:hi]), freqs[lo:hi])
        if block is None:
            return MultiplicationGroup(g, f)
        return ConjugatedGroup(g, block, MultiplicationGroup(WeightedGrid.uniform(hi - lo), f))

    parts, at = [], 0
    for lo, block in blocks:
        if lo > at:
            parts.append(part(at, lo, None))
        at = lo + block.shape[0]
        parts.append(part(lo, at, block))
    if at < freqs.size:
        parts.append(part(at, freqs.size, None))
    if len(parts) == 1:
        return parts[0]
    return DirectSumSemigroup(SumSpace(tuple(p.grid for p in parts)), tuple(parts))


def approximate_isometry_by_periodic(V: SemigroupModel, n: int) -> SemigroupModel:
    """Replace an isometric model by a nearby periodic unitary one.

    A bare shift, an isometry only on a payload with room for its shift, is
    wrapped at the period n, a whole number of its steps (`_steps`): the
    period's cells are its space.  Every other model lives on a fixed
    space, V's grid, and is quantized there at level n (`_snap_down`) in a
    spectral form: its own when it is unitary, else that of its Wold split
    V = U (+) S, where U is diagonalized by a Schur form and each wandering
    chain of S is wrapped cyclically and diagonalized by a DFT
    (`WoldResult.diagonal_form`, kept on the split).  So a model and its
    conjugation by a unitary Q get Q-conjugate approximants.  It holds the
    form's blocks (`_from_form`): a unitary direct sum gives a direct sum
    with the sum's own block arrays, and the two meet on the spectral path.
    Raises ValueError for a level n that is not a finite number >= 1 (for a
    bare shift, InadmissibleTimeError off its lattice), and when the Wold
    split is not sound (`WoldResult.stabilized`): its walk did not settle,
    or V is not an isometry.
    """
    _levels(n)
    if isinstance(V, ShiftSemigroup):
        try:
            return PeriodicShiftGroup(int(_steps(np.array([n], dtype=float), V.step)[0, 0]), V.step)
        except InadmissibleTimeError as err:
            raise InadmissibleTimeError(
                f"level n={n} is not an integer multiple of step {V.step}") from err
    form = V.spectral_form()
    if form is None:
        wr = wold_decompose(V)
        if not wr.stabilized:
            raise ValueError(f"the Wold split did not stabilize to round-off: "
                             f"residual {wr.residual:.3g}")
        form = wr.diagonal_form
    freqs, blocks = form
    return _from_form(V.grid, _snap_down(freqs, n), blocks)


def approximate_isometry_by_aws(
    V: SemigroupModel,
    eps: float,
    t0: float,
    n: int = 64,
    copies: int = 8,
) -> SemigroupModel:
    """Replace an isometric model by an almost weakly stable unitary one.

    Pipeline: periodic approximation at level n
    (`approximate_isometry_by_periodic`), then injective frequency
    perturbation of the resulting periodic group.  The output acts on the
    periodic approximant's space and has pairwise-distinct frequencies (the
    model's almost-weak-stability certificate); the distance to the
    periodic approximant is at most eps on |t| <= t0 for unit vectors.
    It keeps the periodic approximant's blocks (`_from_form`), so a unitary
    direct sum gives a direct sum here too.
    That space is V's grid, but a bare shift's is the period's n/h cells.
    A vector on V's grid meets the output as every vector meets a model
    (`semigroups._columns`): zero-padded onto the period's cells when n/h is
    at least V's cell count (plus N/h in a strong metric, which gives the
    shift room for its steps), and GridMismatchError below it.
    """
    periodic = approximate_isometry_by_periodic(V, n)
    freqs, blocks = periodic.spectral_form()
    # the compressed symbol of `inflate_and_perturb`, without its inflated group
    _, embed_index, deltas = _inflation_layout(freqs, eps, t0, copies)
    return _from_form(periodic.grid, freqs + deltas[embed_index], blocks)


def distinct_frequency_certificate(model: SemigroupModel) -> bool:
    """True when the frequencies of the model's spectral form are pairwise
    distinct (a simple spectrum); TypeError for a model that is not unitary."""
    form = model.spectral_form()
    if form is None:
        raise TypeError("certificate requires a unitary model")
    return bool(_frequency_groups(form[0])[0].size == form[0].size)


# --- Cantor measure witness -------------------------------------------------

_CANTOR_FACTOR_TOL = 1e-14  # every factor the Cantor oracle drops is this close to 1


def cantor_transform_abs(t) -> np.ndarray:
    """|Fourier-Stieltjes transform| of the middle-thirds Cantor measure.

    Product formula |gamma(t)| = prod_{k>=1} |cos(t / 3^k)|, truncated at the
    depth where every remaining factor is within _CANTOR_FACTOR_TOL of 1.
    Every time is admitted first (`_steps`): InadmissibleTimeError for a NaN
    or infinite one.  No times give an empty array.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _steps(t, None)
    tmax = float(np.abs(t).max(initial=1.0))
    depth = max(1, math.ceil(math.log(tmax / math.sqrt(2.0 * _CANTOR_FACTOR_TOL)) / math.log(3.0)))
    out, factor = np.ones_like(t), np.empty_like(t)
    for k in range(1, depth + 1):
        np.divide(t, 3.0 ** k, out=factor)
        np.cos(factor, out=factor)
        out *= np.abs(factor, out=factor)
    return out


def cantor_group(depth: int) -> MultiplicationGroup:
    """Multiplication group on the depth-d Cantor approximation grid.

    2^d atoms (left endpoints of the surviving intervals) with uniform
    weights; the symbol is the atom position, so the autocorrelation of the
    uniform unit vector is the depth-d truncated product formula.
    """
    _count(depth, "cantor depth")
    bits = np.arange(2 ** depth)[:, None] >> np.arange(depth)[None, :] & 1
    pts = (bits * (2.0 / 3.0 ** np.arange(1, depth + 1))).sum(axis=1)
    grid = WeightedGrid(pts, np.full(2 ** depth, 2.0 ** -depth))
    return MultiplicationGroup(grid, pts)
