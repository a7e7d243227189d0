import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from stablesemi import constructions
from stablesemi.constructions import (
    _norm2,
    _periodize_chains,
    _wold_chains,
    _phase_distance,
    _snap_down,
    approximate_isometry_by_aws,
    approximate_isometry_by_periodic,
    distinct_frequency_certificate,
    inflate_and_perturb,
    near_identity_aws,
    periodization_error_identity,
    quantize_symbol,
    wold_decompose,
    wold_decompose_matrix,
)
from stablesemi.hilbert import DenseSequence, HVector, SumSpace, WeightedGrid
from stablesemi.hilbert import GridMismatchError
from stablesemi.metrics import (
    MetricConfig, metric_contractive, metric_isometric, metric_unitary)
from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
    one_step_matrix,
    shift_grid,
)

from reference import operator_matrix, weighted


def _mult(dim, seed, hi=2 * np.pi):
    rng = np.random.default_rng(seed)
    g = WeightedGrid.uniform(dim, 1.0 / dim)
    return MultiplicationGroup(g, rng.uniform(0.0, hi, dim))


def _sup_phase_gap(U, V, t):
    """Operator distance of two multiplication groups at t: the sup over the
    grid of |exp(itq) - exp(itq')|, written out independently of the kernels."""
    return float(np.abs(np.exp(1j * t * U.symbol) - np.exp(1j * t * V.symbol)).max())


def _rvec(grid, seed=0):
    rng = np.random.default_rng(seed)
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


class TestQuantization:
    def test_symbol_on_lattice(self):
        U = _mult(20, seed=0)
        q = quantize_symbol(U, 16)
        j = q.approximant.symbol * 16 / (2 * np.pi)
        np.testing.assert_allclose(j, np.round(j), atol=1e-9)

    def test_idempotent_on_lattice_symbols(self):
        g = WeightedGrid.uniform(4)
        lattice = 2 * np.pi * np.array([0.0, 3.0, 7.0, 12.0]) / 32.0
        U = MultiplicationGroup(g, lattice)
        V = quantize_symbol(U, 32).approximant
        np.testing.assert_allclose(V.symbol, lattice, atol=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("t", [0.1, 1.0, -7.3])
    def test_distance_bound(self, n, t):
        U = _mult(30, seed=n)
        V = quantize_symbol(U, n).approximant
        assert _sup_phase_gap(U, V, t) <= 2 * np.pi * abs(t) / n + 1e-12

    def test_distance_is_exact_sup(self):
        g = WeightedGrid.uniform(2)
        U = MultiplicationGroup(g, np.array([0.0, 1.0]))
        V = MultiplicationGroup(g, np.array([0.0, 0.0]))
        # sup over the grid of |e^{it q} - e^{it q'}| = |e^{it} - 1|
        assert _sup_phase_gap(U, V, 1.0) == pytest.approx(abs(np.exp(1j) - 1))


    def test_snap_down_stack_keeps_each_rows_lattice(self):
        rng = np.random.default_rng(2)
        ns = np.array([1, 3, 16, 1024, 7])
        k = rng.integers(-40, 2000, (ns.size, 9)).astype(float)
        Q = (2.0 * np.pi / ns)[:, None] * k
        np.testing.assert_array_equal(_snap_down(Q, ns), Q)

    def test_snap_down_stack_matches_per_row_quantize(self):
        rng = np.random.default_rng(3)
        ns = rng.choice([1, 8, 64, 512, 1000], 40)
        Q = rng.uniform(-2 * np.pi, 4 * np.pi, (40, 6))
        ts = rng.uniform(-10, 10, 40)
        grid = WeightedGrid.uniform(6)
        snapped = _snap_down(Q, ns)
        dist = _phase_distance(Q, snapped, ts)
        u = 2.0 ** -53
        for q, n, t, got, d in zip(Q, ns, ts, snapped, dist):
            U = MultiplicationGroup(grid, q)
            V = quantize_symbol(U, int(n)).approximant
            np.testing.assert_array_equal(got, V.symbol)
            assert d == float(2.0 * np.abs(np.sin(t * (0.5 * (q - V.symbol)))).max())
            # against the exp-form oracle, within both forms' rounding, in units
            # of u: the oracle's phases t*q and t*qn (|t| m each, m the largest
            # |q| or |qn|), its two exps (2 each), difference (3) and modulus
            # (2); the half-angle value's q - qn (at most 2*pi) and product
            # with t (4*pi |t| through 2 sin), and its sine (2).  Together
            # u (11 + 2 |t| (m + 2*pi))
            m = max(np.abs(q).max(), np.abs(V.symbol).max())
            assert abs(d - _sup_phase_gap(U, V, float(t))) <= u * (11 + 2 * abs(t) * (m + 2 * np.pi))

    def test_phase_distance_is_accurate_to_a_few_ulps(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        u = 2.0 ** -53
        for n in [8, 16, 32, 64, 128, 256, 512, 1024]:  # quantization_sweep's levels
            cell = 2.0 * np.pi / n
            Q = rng.uniform(0.0, 2.0 * np.pi, (12, 32))
            ts = rng.uniform(-10.0, 10.0, 12)
            ts[0] = 3e-13
            # a hair below a cell edge snaps onto the edge: a distance of about one ulp
            Q[1] = np.nextafter(cell * rng.integers(1, n, 32), 0.0)
            qn = _snap_down(Q, n)
            for q, r, t, d in zip(Q, qn, ts, _phase_distance(Q, qn, ts)):
                with mpmath.workdps(40):
                    exact = max(2 * abs(mpmath.sin(mpmath.mpf(t) * (mpmath.mpf(a) - mpmath.mpf(b)) / 2))
                                for a, b in zip(q.tolist(), r.tolist()))
                    assert exact > 0 and abs(mpmath.mpf(d) - exact) <= 8 * u * exact

    def test_snap_down_rejects_level_below_one(self):
        with pytest.raises(ValueError, match="level"):
            _snap_down(np.zeros((2, 3)), np.array([4, 0]))
        with pytest.raises(ValueError, match="level"):
            quantize_symbol(_mult(3, seed=0), 0)

    def test_nan_level_is_rejected(self):
        with pytest.raises(ValueError, match="quantization level must be >= 1 and finite"):
            quantize_symbol(_mult(3, seed=0), np.nan)

    def test_a_bool_is_not_a_level(self):
        # True used to pass as level 1
        with pytest.raises(ValueError, match="quantization level must be >= 1 and finite"):
            quantize_symbol(_mult(3, seed=0), True)

    @pytest.mark.parametrize("n", ["3", [2, "4"], None, 3 + 0j])
    def test_a_non_real_is_not_a_level(self, n):
        with pytest.raises(ValueError, match="quantization level must be >= 1 and finite"):
            quantize_symbol(_mult(3, seed=0), n)


class TestNearIdentity:
    def test_bound_and_unitarity(self):
        rng = np.random.default_rng(5)
        g = WeightedGrid(np.sort(rng.uniform(0, 1, 25)), np.full(25, 0.04))
        n = 40
        U = near_identity_aws(g, n)
        assert distinct_frequency_certificate(U)
        for t in np.linspace(0.0, np.pi * n, 12):
            dist = float(np.abs(np.exp(1j * t * U.symbol) - 1.0).max())
            assert dist <= 2.0 * t / n + 1e-12

    def test_rejects_duplicate_points(self):
        g = WeightedGrid(np.array([0.3, 0.3, 0.7]), np.ones(3))
        with pytest.raises(ValueError):
            near_identity_aws(g, 10)

    @pytest.mark.parametrize("n", [np.inf, np.nan, 0.5, True, "3", [2, "4"], None, 3 + 0j])
    def test_level_must_be_finite_and_at_least_one(self, n):
        # an infinite level would give the identity, which is not almost
        # weakly stable
        with pytest.raises(ValueError, match="quantization level must be >= 1 and finite"):
            near_identity_aws(WeightedGrid.uniform(3), n)


def _embed(res, x):
    """x on an inflation's grid: its coefficients at res.embed_index, in
    copy 0, and zero in every other slot."""
    c = np.zeros(res.group.grid.size, dtype=complex)
    c[res.embed_index] = x.coeffs
    return HVector(res.group.grid, c)


class TestInflation:
    def test_guarantee_on_anchors(self):
        eps, t0 = 1e-3, 10.0
        U = _mult(8, seed=6, hi=2 * np.pi)
        base = quantize_symbol(U, 16).approximant
        anchors = [_rvec(base.grid, 7).normalized()]
        res = inflate_and_perturb(base, anchors, eps, t0, copies=3)
        # every delta lies below 1/m, m = 2 t0 / eps = 20000
        assert np.abs(res.group.symbol[res.embed_index] - base.symbol).max() < 1 / 20000
        assert distinct_frequency_certificate(res.group)
        a = anchors[0]
        emb = _embed(res, a)
        assert emb.norm() == pytest.approx(a.norm(), abs=1e-14)
        for t in np.linspace(-t0, t0, 11):
            orig = np.exp(1j * t * base.symbol) * a.coeffs
            pert = res.group.apply(t, emb)
            drift = np.sqrt(
                float((base.grid.weights * np.abs(pert.coeffs[res.embed_index] - orig) ** 2).sum())
            )
            assert drift <= eps * a.norm() + 1e-12

    def test_compressed_symbol_close_to_base(self):
        base = quantize_symbol(_mult(6, seed=8), 8).approximant
        res = inflate_and_perturb(base, [], 0.5, 2.0, copies=2)
        comp = res.group.symbol[res.embed_index]
        # every delta lies below 1/m, m = 2 t0 / eps = 8, a quarter of the
        # lattice gap 2 pi / 8 being larger
        assert np.abs(comp - base.symbol).max() < 1 / 8
        assert np.unique(comp).size == comp.size

    def test_incommensurable_symbol_is_perturbed(self):
        # the guarantee uses no common base of the frequencies
        eps, t0 = 0.1, 1.0
        U = MultiplicationGroup(WeightedGrid.uniform(2), np.array([1.0, np.sqrt(2.0)]))
        a = HVector(U.grid, np.array([0.6, 0.8j]))
        res = inflate_and_perturb(U, [a], eps, t0)
        assert distinct_frequency_certificate(res.group)
        emb = _embed(res, a)
        for t in np.linspace(-t0, t0, 21):
            drift = (res.group.apply(t, emb).coeffs[res.embed_index]
                     - U.apply(t, a).coeffs)
            assert np.sqrt((U.grid.weights * np.abs(drift) ** 2).sum()) <= eps * a.norm()

    @pytest.mark.parametrize("eps, t0", [(np.nan, 2.0), (0.5, np.inf), (True, 2.0)])
    def test_eps_and_t0_must_be_finite(self, eps, t0):
        base = quantize_symbol(_mult(6, seed=8), 8).approximant
        with pytest.raises(ValueError, match="(eps|t0) must be a finite number > 0"):
            inflate_and_perturb(base, [], eps, t0, copies=2)
        with pytest.raises(ValueError, match="(eps|t0) must be a finite number > 0"):
            approximate_isometry_by_aws(base, eps, t0, n=8, copies=2)

    def test_copies_must_be_an_integer(self):
        base = quantize_symbol(_mult(6, seed=8), 8).approximant
        with pytest.raises(ValueError, match="copies must be an integer"):
            inflate_and_perturb(base, [], 0.5, 2.0, copies=2.5)
        with pytest.raises(ValueError, match="copies must be an integer"):
            approximate_isometry_by_aws(base, 0.5, 2.0, n=8, copies=2.5)
        assert inflate_and_perturb(base, [], 0.5, 2.0, copies=np.int64(3)).group.grid.size == 18
        aws = approximate_isometry_by_aws(base, 0.5, 2.0, n=8, copies=np.int64(3))
        assert distinct_frequency_certificate(aws)

    def test_aws_symbol_is_the_compressed_inflation(self):
        # repeated frequencies, so the copies and the deltas both matter
        U = MultiplicationGroup(WeightedGrid.uniform(7), np.array([0.3, 1.2, 0.3, -2.0, 1.2, 0.3, 2.5]))
        base = approximate_isometry_by_periodic(U, 8)
        assert np.unique(base.symbol).size < base.symbol.size
        for copies in (2, 5):
            aws = approximate_isometry_by_aws(U, 0.2, 3.0, n=8, copies=copies)
            res = inflate_and_perturb(base, [], 0.2, 3.0, copies=copies)
            assert np.array_equal(aws.symbol, res.group.symbol[res.embed_index])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.integers(2, 8), st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    @example(n=6, copies=3, levels=1, seed=5)  # zeros at 0, 1, 3 and 5
    def test_layout_matches_per_frequency_loop(self, n, copies, levels, seed):
        # repeated, unsorted lattice frequencies on a grid with distinct
        # weights; the zeros at odd positions are -0.0, one frequency with 0.0
        rng = np.random.default_rng(seed)
        q = 2 * np.pi / levels * rng.integers(-levels, levels, n)
        q[(q == 0) & (np.arange(n) % 2 == 1)] = -0.0
        grid = WeightedGrid(rng.standard_normal(n), rng.uniform(0.5, 2.0, n))
        res = inflate_and_perturb(MultiplicationGroup(grid, q), [], 0.25, 5.0, copies=copies)
        # the definition: per distinct frequency, ascending, its points tiled
        # `copies` times, copy 0 holding the originals
        pts, wts, lam, embed, offset = [], [], [], np.empty(n, dtype=int), 0
        for f in np.unique(q):
            idx = np.flatnonzero(q == f)
            embed[idx] = offset + np.arange(idx.size)
            pts.append(np.tile(grid.points[idx], copies))
            wts.append(np.tile(grid.weights[idx], copies))
            lam.append(np.full(idx.size * copies, f))
            offset += idx.size * copies
        # injective deltas below 1/m, m = 2 t0 / eps = 40, and below a
        # quarter of the smallest frequency gap
        scale = min(1.0 / 40, float(np.diff(np.unique(q)).min(initial=np.inf)) / 4.0)
        deltas = scale * np.arange(1, offset + 1) / (offset + 1.0)
        assert np.array_equal(res.group.symbol, np.concatenate(lam) + deltas)
        assert np.array_equal(res.embed_index, embed)
        assert np.array_equal(res.group.grid.points, np.concatenate(pts))
        assert np.array_equal(res.group.grid.weights, np.concatenate(wts))


def _mixed():
    gu = WeightedGrid.uniform(3)
    gs = shift_grid(6, 1.0)
    return DirectSumSemigroup(
        SumSpace((gu, gs)),
        (MultiplicationGroup(gu, np.array([0.3, 0.9, 1.4])), ShiftSemigroup(1.0, 6)))


def _conjugated_mixed(du, nc, seed):
    """Q*(Mult (+) Shift)Q on a uniform grid, and the true H0 basis."""
    rng = np.random.default_rng(seed)
    k = du + nc
    gu = WeightedGrid.uniform(du)
    inner = DirectSumSemigroup(
        SumSpace((gu, shift_grid(nc, 1.0))),
        (MultiplicationGroup(gu, rng.uniform(-np.pi / 2, np.pi / 2, du)),
         ShiftSemigroup(1.0, nc)))
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return ConjugatedGroup(WeightedGrid.uniform(k), q, inner), q.conj().T[:, :du]


def _conjugated_chains(du, cells, seed, q=None):
    """Q*(Mult (+) Shift(c_1) (+) ... (+) Shift(c_m))Q on a uniform grid, one
    wandering chain per cell count; Q is random unitary unless given."""
    rng = np.random.default_rng(seed)
    gu = WeightedGrid.uniform(du)
    shifts = [ShiftSemigroup(1.0, c) for c in cells]
    inner = DirectSumSemigroup(
        SumSpace((gu, *(r.grid for r in shifts))),
        (MultiplicationGroup(gu, rng.uniform(-np.pi / 2, np.pi / 2, du)), *shifts))
    k = inner.grid.size
    if q is None:
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return ConjugatedGroup(WeightedGrid.uniform(k), q, inner)


def _chain_heads(B1, lengths):
    """The first vector of each chain in B1: the chain starts, aligned."""
    return B1[:, np.cumsum(lengths) - lengths]


def _capped_walk(monkeypatch, cap):
    """Cap the chain walk of every Wold split at `cap` steps."""
    walk = constructions._wold_chains
    monkeypatch.setattr(constructions, "_wold_chains", lambda W, max_iter: walk(W, cap))


class TestWold:
    def test_pure_unitary(self):
        U = _mult(7, seed=9, hi=np.pi)
        wr = wold_decompose(U)
        assert wr.unitary_dim == 7 and wr.basis_matrix_shift.shape[1] == 0
        assert wr.stabilized and wr.residual <= 1e-10

    def test_pure_shift(self):
        R = ShiftSemigroup(1.0, 9)
        gs = shift_grid(9, 1.0)
        space = SumSpace((gs,))
        T = DirectSumSemigroup(space, (R,))
        wr = wold_decompose(T, step=1.0)
        assert wr.unitary_dim == 0 and wr.basis_matrix_shift.shape[1] == 9

    @pytest.mark.parametrize("step", [0.0, np.nan, -1.0, True])
    def test_step_must_be_finite_and_positive(self, step):
        with pytest.raises(ValueError, match="step must be a finite number > 0"):
            wold_decompose(_mult(4, seed=9, hi=np.pi), step=step)

    def test_mixed_dims_and_wandering(self):
        V = _mixed()
        wr = wold_decompose(V, step=1.0)
        assert wr.unitary_dim == 3 and wr.basis_matrix_shift.shape[1] == 6
        W = one_step_matrix(V, wr.step)
        _, B1, _, lengths, _, _, _ = _wold_chains(W, None)
        freqs, Z = _periodize_chains(B1, lengths, 1.0)
        # one chain of length 6: the sixth roots of unity, each once
        np.testing.assert_allclose(np.sort(freqs), 2 * np.pi * np.arange(-2, 4) / 6, atol=1e-15)
        # its start (the inverse DFT at 0) spans the wandering subspace
        start = Z.sum(axis=1) / np.sqrt(6)
        assert abs(np.linalg.norm(start) - 1.0) < 1e-12
        assert np.linalg.norm(W.conj().T @ start) < 1e-12
        for k in range(1, 6):
            assert abs(np.vdot(np.linalg.matrix_power(W, k) @ start, start)) < 1e-10
        assert np.linalg.norm(np.linalg.matrix_power(W, 6) @ start) < 1e-12

    def test_iterations_count_chain_steps(self):
        wr = wold_decompose(_mixed(), step=1.0)
        assert wr.iterations == 6  # the walk W^j s vanishes at the chain length

    @pytest.mark.parametrize("du, cells, seed", [(4, (8,), 22), (2, (3, 5), 25)])
    def test_shift_block_is_a_shift_matrix_per_chain(self, du, cells, seed):
        # B1 is the chain basis W^j s, so the shift block B1* W B1 is the
        # truncated shift of each chain, shortest first
        V = _conjugated_chains(du, cells, seed)
        wr = wold_decompose(V, step=1.0)
        want = scipy.linalg.block_diag(*(np.eye(c, k=-1) for c in cells))
        B1 = wr.basis_matrix_shift
        assert np.abs(B1.conj().T @ one_step_matrix(V, wr.step) @ B1 - want).max() <= 1e-12
        # one chain per shift block, as long as its cell count
        assert wr.chain_lengths.tolist() == sorted(cells)
        assert wold_decompose(V, step=1.0) is wr

    def test_squaring_cap_reports_unstabilized(self, monkeypatch):
        # two walk steps from the start of a 9-cell shift do not reach its end
        _capped_walk(monkeypatch, 2)
        R = ShiftSemigroup(1.0, 9)
        T = DirectSumSemigroup(SumSpace((shift_grid(9, 1.0),)), (R,))
        wr = wold_decompose(T, step=1.0)
        assert wr.iterations == 2
        assert wr.stabilized is False
        assert wr.residual >= 1.0

    def test_conjugated_one_to_two_split(self):
        V, truth = _conjugated_mixed(100, 200, seed=21)
        wr = wold_decompose(V, step=1.0)
        assert wr.unitary_dim == 100 and wr.stabilized
        B0 = wr.basis_matrix_unitary
        sin_angle = np.linalg.norm(B0 - truth @ (truth.conj().T @ B0), 2)
        assert sin_angle <= 1e-10

    def test_shift_basis_orthonormal_complement(self):
        V, _ = _conjugated_mixed(4, 8, seed=22)
        wr = wold_decompose(V, step=1.0)
        B0, B1 = wr.basis_matrix_unitary, wr.basis_matrix_shift
        assert B1.shape[1] == 8
        np.testing.assert_allclose(B1.conj().T @ B1, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(B0.conj().T @ B1, 0.0, atol=1e-12)

    @staticmethod
    def _pivots_and_remainder(W, B1, lengths):
        """(kept pivots, remaining diagonal) of the chain starts, recomputed
        on the formed P = I - W W*: the pivots by a pivoted Cholesky of P cut
        at 1/(2k), the remainder as diag(P - S S*), S the chain heads."""
        k = W.shape[0]
        P = np.eye(k) - W @ W.conj().T
        R, pivots = P.copy(), []
        while np.diag(R).real.max() > 0.5 / k:
            i = np.diag(R).real.argmax()
            pivots.append(R[i, i].real)
            col = R[:, i] / np.sqrt(R[i, i].real)
            R -= np.outer(col, col.conj())
        S = _chain_heads(B1, lengths)
        return np.array(pivots), np.diag(P).real - (np.abs(S) ** 2).sum(axis=1)

    def test_rank_gap(self):
        # _mixed's one-step map is exact: one pivot of 1 and a zero remainder
        V = _mixed()
        wr = wold_decompose(V, step=1.0)
        pivots, rest = self._pivots_and_remainder(
            one_step_matrix(V, wr.step), wr.basis_matrix_shift, wr.chain_lengths)
        assert pivots.tolist() == [1.0] and not rest.any() and wr.rank_gap == np.inf
        # conjugated, the remainder is round-off, so the gap matches the
        # recomputed one up to that round-off's own spread
        V = _conjugated_chains(20, (9, 31), seed=23)
        wr = wold_decompose(V, step=1.0)
        pivots, rest = self._pivots_and_remainder(
            one_step_matrix(V, wr.step), wr.basis_matrix_shift, wr.chain_lengths)
        assert pivots.size == 2 and pivots.min() >= 1.0 / 60
        dropped = pivots.min() / wr.rank_gap
        assert 0 < dropped <= 60 * np.finfo(float).eps
        assert 0.25 <= dropped / np.abs(rest).max() <= 4.0
        # nothing kept, so there is no gap to report
        assert wold_decompose(_mult(5, seed=24, hi=np.pi)).rank_gap is None
        # an exact shift matrix leaves an exactly zero remainder
        assert _wold_chains(np.eye(6, k=-1), None)[6] == np.inf

    def test_rank_gap_of_a_remainder_above_round_off(self):
        # a contraction Q*(Shift(5) (+) c U)Q, c^2 = 1 - 1/(4k), keeps one
        # start; the diagonal left after it is about 1/(4k), below the 1/(2k)
        # cut but far above round-off, so the gap is pinned to round-off
        rng = np.random.default_rng(26)
        k, c = 12, np.sqrt(1.0 - 1.0 / 48)
        U = np.diag(np.exp(1j * rng.uniform(0, 6, 7)))
        M = scipy.linalg.block_diag(np.eye(5, k=-1), c * U)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        W = q.conj().T @ M @ q
        P = np.eye(k) - W @ W.conj().T
        i = np.diag(P).real.argmax()
        s = P[:, i] / np.linalg.norm(P[:, i])
        want = P[i, i].real / np.abs(np.diag(P).real - np.abs(s) ** 2).max()
        got = _wold_chains(W, None)[6]
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("W", [
        # e0 walks e0, 2 e1, 0: G = 5 is an integer, but no chain outlives
        # the walk's two nonvanishing steps
        np.array([[0.0, 0.0], [2.0, 0.0]]),
        # lengths 2 and 3 are integers, but five chain vectors in 4 dimensions
        np.array([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1], [0, -1, 0, 0]], dtype=float),
    ])
    def test_non_isometry_does_not_settle(self, W):
        assert not _wold_chains(W, None)[5]
        assert not wold_decompose_matrix(W)[3]

    def test_matrix_dims_nonincreasing(self):
        rng = np.random.default_rng(10)
        W = np.diag(np.exp(1j * rng.uniform(0, 2, 5)))
        B0, B1, iters, stab = wold_decompose_matrix(W, 50)
        assert B0.shape[1] == 5 and B1.shape[1] == 0 and stab


class TestChainDFT:
    @pytest.mark.parametrize("h", [0.5, 1.0, 1.1])
    def test_chain_wrap_takes_the_periodic_shift_form(self, h):
        # a chain's wrap is the circular shift on its cells: its frequencies
        # are 2 pi r / (l h), r in (-l/2, l/2], bit for bit, and the basis
        # diagonalizes the shift
        for ell in range(1, 10):
            freqs, basis = PeriodicShiftGroup(ell, h).spectral_form()
            r = np.arange(ell)
            want = 2.0 * np.pi * np.where(2 * r > ell, r - ell, r) / (ell * h)
            got, Z = _periodize_chains(np.eye(ell), np.array([ell]), h)
            assert np.array_equal(freqs, want) and np.array_equal(got, want)
            np.testing.assert_allclose(Z, basis.conj().T, rtol=0, atol=1e-15)
            P = np.roll(np.eye(ell), 1, axis=0)  # (P x)_j = x_{j-1}
            D = basis @ P @ basis.conj().T
            np.testing.assert_allclose(D, np.diag(np.exp(1j * h * freqs)), rtol=0, atol=1e-14)


class TestChainStarts:
    """The chain starts of `_wold_chains` against an eigh oracle: the
    eigenvectors of the formed I - W W* with eigenvalue above 0.5."""

    @staticmethod
    def _check_against_eigh(W, B1, lengths):
        S = _chain_heads(B1, lengths)
        assert np.abs(S.conj().T @ S - np.eye(S.shape[1])).max(initial=0.0) <= 1e-13
        vals, vecs = np.linalg.eigh(np.eye(W.shape[0]) - W @ W.conj().T)
        L = vecs[:, vals > 0.5]
        assert L.shape == S.shape
        if S.shape[1]:
            # sine of the largest principal angle between span(S) and span(L)
            assert np.linalg.norm(S - L @ (L.conj().T @ S), 2) <= 1e-12

    @pytest.mark.parametrize("du, cells, seed", [
        (3, (5,), 51), (10, (7, 13), 52), (40, (3, 11, 30), 53), (100, (120, 50, 20, 10), 54)])
    def test_starts_span_the_wandering_subspace(self, du, cells, seed):
        W = one_step_matrix(_conjugated_chains(du, cells, seed), 1.0)
        _, B1, _, lengths, _, stabilized, _ = _wold_chains(W, None)
        assert stabilized and lengths.tolist() == sorted(cells)
        self._check_against_eigh(W, B1, lengths)

    @pytest.mark.parametrize("k", [2, 16, 300])
    def test_start_spread_evenly(self, k):
        # conjugated by the unitary DFT, the one chain start is a DFT column:
        # every diagonal entry of I - W W* is 1/k, so its one pivot is 1/k,
        # twice the cut
        F = np.fft.fft(np.eye(k)) / np.sqrt(k)
        W = one_step_matrix(_conjugated_chains(k // 2, (k - k // 2,), 55, q=F), 1.0)
        np.testing.assert_allclose(1.0 - (np.abs(W) ** 2).sum(axis=1), 1.0 / k, rtol=1e-12)
        _, B1, _, lengths, _, stabilized, _ = _wold_chains(W, None)
        assert stabilized and lengths.tolist() == [k - k // 2]
        self._check_against_eigh(W, B1, lengths)

    @pytest.mark.parametrize("w, starts", [(0.0, 1), (np.exp(0.7j), 0)])
    def test_one_dimension(self, w, starts):
        # k = 1: the one-cell shift is one chain start, a phase none
        W = np.array([[w]])
        B0, B1, _, lengths, _, stabilized, rank_gap = _wold_chains(W, None)
        assert stabilized and B1.shape == (1, starts) and B0.shape == (1, 1 - starts)
        assert rank_gap == (np.inf if starts else None)
        self._check_against_eigh(W, B1, lengths)


class TestWoldSplitReuse:
    def test_one_split_per_model(self, monkeypatch):
        calls = []

        def counted(name):
            fn = getattr(constructions, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(constructions, name, wrapper)

        counted("_wold_chains")
        counted("one_step_matrix")
        V, _ = _conjugated_mixed(5, 11, seed=31)
        wold_decompose(V, step=1.0)
        approximate_isometry_by_periodic(V, 64)
        approximate_isometry_by_aws(V, 0.25, 5.0, n=64, copies=2)
        # the slot is keyed on the model, so W is built once, not per call
        assert sorted(calls) == ["_wold_chains", "one_step_matrix"]

    def test_one_schur_per_split(self, monkeypatch):
        calls = []
        schur = scipy.linalg.schur

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return schur(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "schur", counted)
        V, _ = _conjugated_mixed(5, 11, seed=36)
        wr = wold_decompose(V, step=1.0)
        approximate_isometry_by_periodic(V, 64)
        approximate_isometry_by_aws(V, 0.25, 5.0, n=64, copies=2)
        # the split holds its diagonalization, so the unitary block is
        # factored once for both pipelines
        assert calls == [(5, 5)]
        freqs, to_diag = wr.diagonal_form
        assert wr.diagonal_form[1] is to_diag
        with pytest.raises(ValueError):
            to_diag[0, 0] = 1.0
        with pytest.raises(ValueError):
            freqs[0] = 1.0

    def test_shared_diagonalization_is_invisible(self):
        V, _ = _conjugated_mixed(5, 11, seed=37)
        wold_decompose(V, step=1.0)
        chained = [approximate_isometry_by_periodic(V, 64),
                   approximate_isometry_by_aws(V, 0.25, 5.0, n=64, copies=2)]
        constructions._last_split = None
        periodic = approximate_isometry_by_periodic(V, 64)
        constructions._last_split = None
        aws = approximate_isometry_by_aws(V, 0.25, 5.0, n=64, copies=2)
        for got, want in zip(chained, (periodic, aws)):
            assert np.array_equal(got.basis, want.basis)
            assert np.array_equal(got.inner.symbol, want.inner.symbol)

    def test_shared_arrays_are_read_only(self):
        wr = wold_decompose(_conjugated_mixed(3, 6, seed=32)[0], step=1.0)
        with pytest.raises(ValueError):
            wr.basis_matrix_unitary[0, 0] = 1.0
        with pytest.raises(ValueError):
            wr.unitary_block[0, 0] = 1.0

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from([(2, 5, 33), (4, 7, 34), (2, 5, 35)]), min_size=2, max_size=8))
    def test_reuse_is_invisible(self, sequence):
        # interleaved models, with repeats: every call matches a fresh split
        # and the result of a call made with nothing stored
        fresh = {}
        for model in set(sequence):
            constructions._last_split = None
            fresh[model] = wold_decompose(_conjugated_mixed(*model)[0], step=1.0)
        for model in sequence:
            V, _ = _conjugated_mixed(*model)
            wr = wold_decompose(V, step=1.0)
            W = one_step_matrix(V, 1.0)
            B0, B1, _, _, iterations, stabilized, rank_gap = _wold_chains(W, None)
            assert np.array_equal(wr.basis_matrix_unitary, B0)
            assert np.array_equal(wr.basis_matrix_shift, B1)
            assert (wr.iterations, wr.stabilized, wr.rank_gap) == (iterations, stabilized, rank_gap)
            for f in dataclasses.fields(wr):
                assert np.array_equal(getattr(wr, f.name), getattr(fresh[model], f.name)), f.name


class TestSplitByproducts:
    @pytest.mark.parametrize("du, nc, seed, max_iter", [
        (4, 8, 46, None), (10, 30, 47, None), (3, 12, 48, 4)])
    def test_walk_gives_w_b1(self, du, nc, seed, max_iter):
        V, _ = _conjugated_mixed(du, nc, seed=seed)
        W = one_step_matrix(V, 1.0)
        _, B1, WB1, lengths, iterations, stabilized, _ = _wold_chains(W, max_iter)
        assert stabilized is (max_iter is None) and B1.shape[1] > 0
        if max_iter is not None:
            # the capped walk's chain reaches its last slab, so its last
            # vector's image is the step past the walk
            assert lengths.max() == iterations + 1
        assert np.abs(WB1 - W @ B1).max() <= 1e-13

    @pytest.mark.parametrize("shape", [(40, 7), (7, 40), (13, 13), (1, 9), (9, 1)])
    @pytest.mark.parametrize("scale", [1.0, 1e-15])
    def test_gram_norm_matches_svd(self, shape, scale):
        # residual-sized entries (1e-15) too: their Grams stay far from underflow
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        X = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert _norm2(X) == pytest.approx(np.linalg.norm(X, 2), rel=1e-12)
        H = X.conj().T @ X - 2.0 * scale ** 2 * np.eye(shape[1])  # indefinite when small
        for A in (H, -H):
            assert _norm2(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)

    def test_residual_is_the_largest_defect(self):
        # the three defects, written out with SVD norms
        V, _ = _conjugated_mixed(6, 14, seed=49)
        wr = wold_decompose(V, step=1.0)
        W, B0, B1 = one_step_matrix(V, wr.step), wr.basis_matrix_unitary, wr.basis_matrix_shift
        M0 = wr.unitary_block
        want = max(np.linalg.norm(W @ B0 - B0 @ M0, 2),
                   np.linalg.norm(M0.conj().T @ M0 - np.eye(6), 2),
                   np.linalg.norm(B0.conj().T @ W @ B1, 2))
        assert 0 < wr.residual <= 1e-13
        assert wr.residual == pytest.approx(want, rel=0.5)


class TestPeriodization:
    def test_period_is_identity(self):
        P = PeriodicShiftGroup(8, 0.5)
        f = _rvec(P.grid, 11)
        np.testing.assert_allclose(P.apply(8 * 0.5, f).coeffs, f.coeffs, atol=1e-14)

    def test_error_identity_exact(self):
        rng = np.random.default_rng(12)
        R = ShiftSemigroup(1.0, 30)
        f = _rvec(R.grid, 13)
        for ell in [1, 5, 14]:
            (lhs,), (rhs,), _ = periodization_error_identity(R, 15, [f], [float(ell)])
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("t", [np.inf, np.nan])
    def test_non_finite_time_is_inadmissible(self, t):
        R = ShiftSemigroup(1.0, 40)
        with pytest.raises(InadmissibleTimeError, match="not finite"):
            periodization_error_identity(R, 32, [_rvec(R.grid, 16)], [t])

    def test_zero_time_zero_error(self):
        R = ShiftSemigroup(1.0, 10)
        (lhs,), (rhs,), _ = periodization_error_identity(R, 8, [_rvec(R.grid, 14)], [0.0])
        assert lhs == pytest.approx(0.0, abs=1e-15) and rhs == 0.0

    @pytest.mark.parametrize("payload", [40, 10])
    def test_negative_time_is_inadmissible_for_any_payload(self, payload):
        # a time is admitted before any vector is padded, so the payload's
        # length cannot turn a negative time into a grid error
        R = ShiftSemigroup(1.0, 40)
        f = _rvec(shift_grid(payload, 1.0), 17)
        with pytest.raises(InadmissibleTimeError, match="t >= 0"):
            periodization_error_identity(R, 32, [f], [-1.0])

    def test_batch_matches_batches_of_one(self):
        # every step count in [0, n_c), repeated, on payloads shorter and
        # longer than the period, with a step that is not 1
        h, n_c = 0.5, 8
        R = ShiftSemigroup(h, 12)
        rng = np.random.default_rng(18)
        ells = rng.permutation(np.concatenate([np.arange(n_c), rng.integers(0, n_c, 12)]))
        fs = [_rvec(shift_grid(int(m), h), i)
              for i, m in enumerate(rng.choice([3, 8, 13, 20], ells.size))]
        got = np.array(periodization_error_identity(R, n_c, fs, ells * h))
        want = np.concatenate([periodization_error_identity(R, n_c, [f], [ell * h])
                               for f, ell in zip(fs, ells.tolist())], axis=1)
        assert {f.grid.size for f in fs} == {3, 8, 13, 20}
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        assert (got[:, ells == 0] == 0).all()

    @pytest.mark.parametrize("bad", [4.0, 5.5, 0.65, -0.5, np.inf, np.nan])
    @pytest.mark.parametrize("at", [0, 3, 6])
    def test_one_bad_time_fails_the_batch_as_alone(self, bad, at):
        # l >= n_c (4.0, 5.5), off the lattice, negative or not finite
        h, n_c = 0.5, 8
        R = ShiftSemigroup(h, 12)
        fs = [_rvec(R.grid, i) for i in range(7)]
        times = np.arange(7) * h
        times[at] = bad
        with pytest.raises(ValueError) as alone:
            periodization_error_identity(R, n_c, [fs[at]], [bad])
        with pytest.raises(ValueError) as batch:
            periodization_error_identity(R, n_c, fs, times)
        assert (type(batch.value), str(batch.value)) == (type(alone.value), str(alone.value))

    @pytest.mark.parametrize("times", [[1.0], [1.0, 2.0, 3.0], 1.0])
    def test_one_time_per_vector(self, times):
        # a shorter list would leave vectors without values, a longer one
        # times without vectors
        R = ShiftSemigroup(1.0, 12)
        with pytest.raises(ValueError, match="need one time per vector"):
            periodization_error_identity(R, 8, [_rvec(R.grid, 0), _rvec(R.grid, 1)], times)

    @pytest.mark.parametrize("n_c", [True, 0, -1, 2.5, np.nan])
    def test_period_cells_must_be_a_count(self, n_c):
        # refused before any time is admitted, even with no vectors
        with pytest.raises(ValueError, match="n_c must be an integer >= 1"):
            periodization_error_identity(ShiftSemigroup(1.0, 12), n_c, [], [])

    def test_empty_batch(self):
        got = periodization_error_identity(ShiftSemigroup(1.0, 12), 8, [], [])
        assert [a.shape for a in got] == [(0,)] * 3

    def test_factor_four_tail_bound_always_holds(self):
        # the error is provably at most 4x the tail mass past n - t; the
        # factor-2 version fails for generic payloads (see the acceptance
        # suite), but doubling the constant makes it unconditional
        rng = np.random.default_rng(15)
        R = ShiftSemigroup(1.0, 24)
        for trial in range(50):
            f = HVector(R.grid, rng.standard_normal(24) + 1j * rng.standard_normal(24))
            ell = int(rng.integers(1, 16))
            (lhs,), _, (tail,) = periodization_error_identity(R, 16, [f], [float(ell)])
            assert lhs <= 2.0 * tail + 1e-12


class TestPeriodicApproximation:
    def test_mult_branch_matches_quantization(self):
        U = _mult(10, seed=16)
        P = approximate_isometry_by_periodic(U, 64)
        np.testing.assert_allclose(
            P.symbol, quantize_symbol(U, 64).approximant.symbol)

    def test_shift_branch(self):
        # the period n is n/h cells of the shift's step
        for h, n, cells in [(1.0, 20, 20), (0.5, 64, 128)]:
            P = approximate_isometry_by_periodic(ShiftSemigroup(h, 12), n)
            assert P == PeriodicShiftGroup(cells, h)

    @pytest.mark.parametrize("make", [
        lambda: _mult(10, seed=16),
        lambda: PeriodicShiftGroup(10, 1.0),
        lambda: _conjugated_mixed(4, 12, seed=52)[0],
        lambda: ShiftSemigroup(0.5, 10),
        lambda: ShiftSemigroup(1.0, 10),
    ], ids=["mult", "periodic-shift", "conjugated-mixed", "shift-h0.5", "shift-h1.0"])
    def test_frequencies_lie_on_the_level_lattice(self, make):
        n = 64
        j = approximate_isometry_by_periodic(make(), n).spectral_form()[0] * n / (2 * np.pi)
        assert np.abs(j - np.round(j)).max() <= 1e-9

    @pytest.mark.parametrize("h, n", [(0.3, 64), (4.0, 1)])
    @pytest.mark.parametrize("pipeline", ["periodic", "aws"])
    def test_bare_shift_level_off_its_lattice_is_rejected(self, h, n, pipeline):
        # n = 64 is 213.3 steps of 0.3 and n = 1 a quarter step of 4: no
        # whole number of cells wraps at the period n, and the error names
        # the level, not a time
        V = ShiftSemigroup(h, 10)
        with pytest.raises(InadmissibleTimeError,
                           match=f"level n={n} is not an integer multiple of step {h}"):
            if pipeline == "periodic":
                approximate_isometry_by_periodic(V, n)
            else:
                approximate_isometry_by_aws(V, 0.25, 5.0, n=n)

    def test_generic_branch_is_unitary_and_close(self):
        # conjugated mixed model goes through Wold + diagonalization
        rng = np.random.default_rng(17)
        gu = WeightedGrid.uniform(3)
        gs = shift_grid(5, 1.0)
        space = SumSpace((gu, gs))
        inner = DirectSumSemigroup(
            space, (MultiplicationGroup(gu, np.array([0.2, 0.7, 1.1])), ShiftSemigroup(1.0, 5)))
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        V = ConjugatedGroup(WeightedGrid.uniform(8), q, inner)
        P = approximate_isometry_by_periodic(V, 256)
        x = _rvec(V.grid, 18).normalized()
        M = one_step_matrix(P, 1.0)
        np.testing.assert_allclose(M.conj().T @ M, np.eye(8), atol=1e-10)
        # at one step the approximant tracks V up to the quantization scale
        # plus the rank-one defect of completing the truncated shift
        vx, px = V.apply(1.0, x), P.apply(1.0, x)
        assert vx.grid.same_as(px.grid) and np.linalg.norm(weighted(vx) - weighted(px)) < 1.5

    @pytest.mark.parametrize("du, cells, seed", [
        (4, (7,), 41), (3, (5, 9), 42), (2, (6, 6), 43)])
    def test_generic_branch_matches_construction_data(self, du, cells, seed):
        # Q*(quantized Mult (+) quantized cyclic wrap of each chain)Q, built
        # from the frequencies, Q and DFT matrices alone
        n = 64
        rng = np.random.default_rng(seed)
        f = rng.uniform(-np.pi / 2, np.pi / 2, du)
        gu = WeightedGrid.uniform(du)
        shifts = [ShiftSemigroup(1.0, c) for c in cells]
        inner = DirectSumSemigroup(
            SumSpace((gu, *(s.grid for s in shifts))), (MultiplicationGroup(gu, f), *shifts))
        k = inner.grid.size
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        V = ConjugatedGroup(
            WeightedGrid(np.arange(k, dtype=float), rng.uniform(0.5, 1.5, k)), q, inner)
        cell = 2 * np.pi / n
        blocks = [np.diag(np.exp(1j * cell * np.floor(f / cell)))]
        for c in cells:
            r = np.arange(c)
            r = np.where(2 * r > c, r - c, r)  # the wrap's eigenvalues exp(2 pi i r / c)
            F = np.exp(-2j * np.pi * np.outer(np.arange(c), r) / c) / np.sqrt(c)
            wrap = F @ np.diag(np.exp(1j * cell * ((n * r) // c))) @ F.conj().T
            blocks.append(wrap)
        want = q.conj().T @ scipy.linalg.block_diag(*blocks) @ q
        P = approximate_isometry_by_periodic(V, n)
        assert np.abs(one_step_matrix(P, 1.0) - want).max() <= 1e-12

    def test_unstabilized_split_raises(self, monkeypatch):
        _capped_walk(monkeypatch, 1)
        V, _ = _conjugated_mixed(4, 12, seed=44)
        with pytest.raises(ValueError, match="did not stabilize"):
            approximate_isometry_by_periodic(V, 64)

    @pytest.mark.parametrize("pipeline", ["periodic", "aws"])
    def test_non_isometric_split_raises(self, pipeline):
        # a basis that is not unitary: the walk settles, with one 3-cell
        # chain, but the residual is 4.06, so the split is not sound
        gu = WeightedGrid.uniform(3)
        inner = DirectSumSemigroup(
            SumSpace((gu, shift_grid(3, 1.0))),
            (MultiplicationGroup(gu, np.array([0.3, 0.9, 1.4])), ShiftSemigroup(1.0, 3)))
        V = ConjugatedGroup(WeightedGrid.uniform(6), np.diag([1.5, 1.5, 1.5, 1, 1, 1]), inner)
        wr = wold_decompose(V)
        assert not wr.stabilized and wr.residual > 4
        with pytest.raises(ValueError, match="residual 4.06"):
            if pipeline == "periodic":
                approximate_isometry_by_periodic(V, 8)
            else:
                approximate_isometry_by_aws(V, 0.25, 5.0, n=8)

    def test_unitary_model_is_quantized_in_its_own_spectral_form(self, monkeypatch):
        def no_split(*args):
            raise AssertionError("a unitary model needs no Wold split")
        monkeypatch.setattr(constructions, "_wold_chains", no_split)
        rng = np.random.default_rng(49)
        q, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        U = _mult(12, seed=49)
        V = ConjugatedGroup(WeightedGrid.uniform(12), q, U)
        P = approximate_isometry_by_periodic(V, 64)
        assert np.array_equal(P.inner.symbol, _snap_down(U.symbol, 64))
        assert P.basis is V.basis
        A = approximate_isometry_by_aws(V, 0.25, 5.0, n=64, copies=2)
        assert A.basis is V.basis and distinct_frequency_certificate(A)

    def test_periodic_shift_is_quantized_from_its_dft(self):
        V = PeriodicShiftGroup(10, 1.0)
        freqs, basis = V.spectral_form()
        eps, t0 = 0.25, 5.0
        P = approximate_isometry_by_periodic(V, 64)
        A = approximate_isometry_by_aws(V, eps, t0, n=64, copies=2)
        assert np.array_equal(P.inner.symbol, _snap_down(freqs, 64))
        assert np.array_equal(P.basis, basis) and distinct_frequency_certificate(A)
        for seed in (50, 51):
            x = _rvec(V.grid, seed).normalized()
            for t in range(-int(t0), int(t0) + 1):
                ax, px = A.apply(float(t), x), P.apply(float(t), x)
                assert ax.grid.same_as(px.grid)
                assert np.linalg.norm(weighted(ax) - weighted(px)) <= eps + 1e-10

    @pytest.mark.parametrize("n", [12, 64])
    def test_one_approximant_in_every_basis(self, n):
        # D = Mult (+) Shift(40) and C = Q* D Q: P_n(C) = Q* P_n(D) Q, below
        # and above the shift's length
        rng = np.random.default_rng(46)
        gu = WeightedGrid.uniform(3)
        D = DirectSumSemigroup(
            SumSpace((gu, shift_grid(40, 1.0))),
            (MultiplicationGroup(gu, rng.uniform(-np.pi / 2, np.pi / 2, 3)),
             ShiftSemigroup(1.0, 40)))
        k = D.grid.size
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        C = ConjugatedGroup(WeightedGrid.uniform(k), q, D)
        want = q.conj().T @ one_step_matrix(approximate_isometry_by_periodic(D, n), 1.0) @ q
        got = one_step_matrix(approximate_isometry_by_periodic(C, n), 1.0)
        assert np.abs(got - want).max() <= 1e-12

    def test_periodic_part_shorter_than_its_component(self):
        # a 4-cell period on an 8-cell component beside a multiplication
        # block: both approximants act on V's 11 points
        gu = WeightedGrid.uniform(3)
        V = DirectSumSemigroup(
            SumSpace((gu, shift_grid(8, 1.0))),
            (MultiplicationGroup(gu, np.array([0.2, 0.7, 1.1])), PeriodicShiftGroup(4, 1.0)))
        P = approximate_isometry_by_periodic(V, 64)
        A = approximate_isometry_by_aws(V, 0.25, 5.0, n=64)
        assert P.grid.same_as(V.grid) and A.grid.same_as(V.grid)
        assert distinct_frequency_certificate(A)
        wit = DenseSequence.gaussian(V.grid, 3, seed=47)
        assert np.isfinite(metric_unitary(V, P, MetricConfig(wit, J=3, N=8)).value)

    @pytest.mark.parametrize("n", [0, 0.3, np.nan, np.inf])
    @pytest.mark.parametrize("shift_only_sum", [False, True])
    def test_level_below_one_is_rejected(self, n, shift_only_sum):
        V = ShiftSemigroup(1.0, 6)
        if shift_only_sum:
            V = DirectSumSemigroup(SumSpace((V.grid, shift_grid(4, 1.0))),
                                   (V, ShiftSemigroup(1.0, 4)))
        with pytest.raises(ValueError, match="quantization level must be >= 1"):
            approximate_isometry_by_periodic(V, n)
        with pytest.raises(ValueError, match="quantization level must be >= 1"):
            approximate_isometry_by_aws(V, 0.25, 5.0, n=n)


class TestPeriodizeChains:
    def test_unequal_chains_under_rotation(self):
        # the starts of a 2- and a 3-chain, mixed by a random unitary
        rng = np.random.default_rng(45)
        shift = scipy.linalg.block_diag(np.eye(2, k=-1), np.eye(3, k=-1))
        u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        B0, B1, _, lengths, _, stabilized, _ = _wold_chains(u @ shift @ u.conj().T, None)
        assert B0.shape[1] == 0 and stabilized
        freqs, Z = _periodize_chains(B1, lengths, 0.5)
        want = np.concatenate([2 * np.pi * np.array([0, 1]) / (2 * 0.5),
                               2 * np.pi * np.array([0, 1, -1]) / (3 * 0.5)])
        np.testing.assert_array_equal(freqs, want)
        wrap = scipy.linalg.block_diag(np.roll(np.eye(2), 1, axis=0), np.roll(np.eye(3), 1, axis=0))
        got = Z @ np.diag(np.exp(0.5j * freqs)) @ Z.conj().T
        np.testing.assert_allclose(got, u @ wrap @ u.conj().T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("M1", [
        0.7 * np.eye(2, k=-1),  # a contraction, not a partial isometry
        np.eye(2),  # unitary: no chain starts
    ])
    def test_rejects_non_shift_blocks(self, M1):
        # the contraction's chain length 1.49 is no integer, so its split
        # does not settle; the unitary block is a valid split, all of it H0
        B0, B1, _, _, _, stabilized, _ = _wold_chains(M1, None)
        unitary = np.allclose(M1.conj().T @ M1, np.eye(2))
        assert stabilized is unitary
        if unitary:
            assert B0.shape[1] == 2 and B1.shape[1] == 0

    def test_dependent_pivot_column_ends_the_starts(self):
        # row 3 of W has norm 2 * sqrt(2), so I - W W* is no projector: its
        # third pivot column, e_1 - W W[1]* again, lies in the span of the
        # first two starts; the starts end there, and the split does not settle
        W = np.zeros((6, 6))
        W[[0, 1, 2, 3, 3, 4], [1, 4, 2, 4, 5, 0]] = [1.0, 0.5, 1.0, 2.0, 2.0, 2.0]
        _, B1, _, lengths, _, stabilized, _ = _wold_chains(W, None)
        assert lengths.size == 2 and not stabilized

    @pytest.mark.parametrize("k, offset, settles", [
        (400, 2e-10, True), (400, 2e-8, False), (8, 0.0, True), (8, 1e-11, False)])
    def test_chain_length_check_scales_with_walk(self, k, offset, settles):
        # a k-cell truncated shift in a random basis, its last step scaled so
        # that its one chain length is k + offset; a length counts as an
        # integer within _CHAIN_ULPS rounding errors per walk step and
        # dimension: 5.7e-10 at k = 400, 2.6e-13 at k = 8
        rng = np.random.default_rng(k)
        S = np.eye(k, k=-1)
        S[k - 1, k - 2] = np.sqrt(1.0 + offset)
        u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        _, _, _, lengths, _, stabilized, _ = _wold_chains(u @ S @ u.conj().T, None)
        assert lengths.tolist() == [k] and stabilized is settles

    def test_empty_block(self):
        B0, B1, WB1, lengths, iterations, stabilized, _ = _wold_chains(np.zeros((0, 0)), None)
        assert B0.shape == B1.shape == WB1.shape == (0, 0) and lengths.size == iterations == 0 and stabilized
        freqs, Z = _periodize_chains(B1, lengths, 1.0)
        assert freqs.shape == (0,) and Z.shape == (0, 0)


class TestAwsPipeline:
    def test_output_certificate_and_closeness(self):
        U = _mult(12, seed=19, hi=np.pi)
        eps, t0 = 0.05, 3.0
        A = approximate_isometry_by_aws(U, eps, t0, n=256)
        assert distinct_frequency_certificate(A)
        x = _rvec(U.grid, 20).normalized()
        # pipeline distance <= quantization error + perturbation guarantee
        for t in np.linspace(-t0, t0, 7):
            ux, ax = U.apply(t, x), A.apply(t, x)
            d = np.linalg.norm(weighted(ux) - weighted(ax))
            assert ux.grid.same_as(ax.grid) and d <= 2 * np.pi * abs(t) / 256 + eps + 1e-10

    def test_shift_input(self):
        R = ShiftSemigroup(1.0, 10)
        A = approximate_isometry_by_aws(R, 0.2, 2.0, n=32)
        assert distinct_frequency_certificate(A)
        assert A.grid.size == 32  # acts on the periodization's ambient space

    def test_bare_shift_approximant_is_measured_on_the_period(self):
        # the approximant acts on the 64 cells of the period, which extend
        # the shift's 40; at n = 32 it acts on fewer cells than V
        R = ShiftSemigroup(1.0, 40)
        cfg = MetricConfig(DenseSequence.gaussian(R.grid, 8, seed=48), J=8, N=8)
        A = approximate_isometry_by_aws(R, 0.25, 5.0, n=64)
        assert A.grid.size == 64
        assert np.isfinite(metric_isometric(R, A, cfg).value)
        with pytest.raises(GridMismatchError):
            metric_isometric(R, approximate_isometry_by_aws(R, 0.25, 5.0, n=32), cfg)

    def test_bare_shift_metric_needs_room_for_its_shift(self):
        # a strong metric gives the shift room for its N/h = 8 steps past
        # the witnesses' 40 cells: an approximant on 44 cells cannot hold
        # them and is rejected, never truncated; one on 48 cells is measured
        # against the series built from both models' matrices.  A
        # correlation reads only the witnesses' rows, so the weak metric
        # needs no room
        R = ShiftSemigroup(1.0, 40)
        wit = DenseSequence.gaussian(R.grid, 8, seed=48)
        cfg = MetricConfig(wit, J=8, N=8)
        A44 = approximate_isometry_by_aws(R, 0.25, 5.0, n=44)
        with pytest.raises(GridMismatchError):
            metric_isometric(R, A44, cfg)
        assert np.isfinite(metric_contractive(R, A44, cfg).value)
        A48 = approximate_isometry_by_aws(R, 0.25, 5.0, n=48)
        W = np.array([np.pad(weighted(x), (0, 8)) for x in wit]).T
        diffs = np.array([np.linalg.norm(
            (operator_matrix(R, t, 48)[:48] - operator_matrix(A48, t)) @ W, axis=0)
            for t in range(9)])
        sups = np.maximum.accumulate(diffs)[1:] / [x.norm() for x in wit]
        want = (sups * 2.0 ** -np.add.outer(np.arange(1, 9), np.arange(1, 9))).sum()
        assert metric_isometric(R, A48, cfg).value == pytest.approx(want, rel=1e-12)

    def test_direct_sum_with_shift_block_shorter_than_period(self):
        # the 40-cell shift block is shorter than the new 64-cell period: V
        # lives on a fixed space, so both outputs act on V's 43 points
        gu = WeightedGrid.uniform(3)
        V = DirectSumSemigroup(
            SumSpace((gu, shift_grid(40, 1.0))),
            (MultiplicationGroup(gu, np.array([0.2, 0.7, 1.1])), ShiftSemigroup(1.0, 40)))
        P = approximate_isometry_by_periodic(V, 64)
        A = approximate_isometry_by_aws(V, 0.25, 5.0, n=64)
        assert P.grid.same_as(V.grid) and A.grid.same_as(V.grid)
        wit = DenseSequence.gaussian(V.grid, 3, seed=24)
        assert np.isfinite(metric_isometric(V, P, MetricConfig(wit, J=3, N=8)).value)

    def test_direct_sum_with_shift_block_longer_than_period(self):
        # the 40-cell shift block outlasts the new 32-cell period
        gu = WeightedGrid.uniform(3)
        V = DirectSumSemigroup(
            SumSpace((gu, shift_grid(40, 1.0))),
            (MultiplicationGroup(gu, np.array([0.2, 0.7, 1.1])), ShiftSemigroup(1.0, 40)))
        eps, t0 = 0.25, 5.0
        P = approximate_isometry_by_periodic(V, 32)
        A = approximate_isometry_by_aws(V, eps, t0, n=32)
        assert A.grid.same_as(V.grid)
        freqs, basis = A.spectral_form()
        assert np.unique(freqs).size == freqs.size
        assert distinct_frequency_certificate(A)
        sw = np.sqrt(A.grid.weights)
        for seed in (21, 22, 23):
            x = _rvec(V.grid, seed).normalized()
            for t in range(-int(t0), int(t0) + 1):
                z = basis.conj().T @ (np.exp(1j * t * freqs) * (basis @ (sw * x.coeffs)))
                y = A.apply(float(t), x)
                np.testing.assert_allclose(z / sw, y.coeffs, rtol=0, atol=1e-12)
                px = P.apply(float(t), x)
                assert y.grid.same_as(px.grid)
                assert np.linalg.norm(weighted(y) - weighted(px)) <= eps + 1e-10
