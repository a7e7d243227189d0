import math

import numpy as np
import pytest

from stablesemi.constructions import (
    NotIsometricError,
    NotPeriodicError,
    approximate_isometry_by_aws,
    approximate_isometry_by_periodic,
    distinct_frequency_certificate,
    inflate_and_perturb,
    near_identity_aws,
    periodization_error_identity,
    periodize_shift,
    quantization_distance,
    quantize_symbol,
    wandering_subspace,
    wold_decompose,
    wold_decompose_matrix,
)
from stablesemi.hilbert import HVector, SumSpace, WeightedGrid, difference_norm
from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
    check_unitarity,
    one_step_matrix,
    shift_grid,
)


def _mult(dim, seed, hi=2 * np.pi):
    rng = np.random.default_rng(seed)
    g = WeightedGrid.uniform(dim, 1.0 / dim)
    return MultiplicationGroup(g, rng.uniform(0.0, hi, dim))


def _rvec(grid, seed=0):
    rng = np.random.default_rng(seed)
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


class TestQuantization:
    def test_symbol_on_lattice(self):
        U = _mult(20, seed=0)
        q = quantize_symbol(U, 16)
        j = q.approximant.symbol * 16 / (2 * np.pi)
        np.testing.assert_allclose(j, np.round(j), atol=1e-9)
        assert q.level == 16

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
        assert quantization_distance(U, V, t) <= 2 * np.pi * abs(t) / n + 1e-12

    def test_distance_is_exact_sup(self):
        g = WeightedGrid.uniform(2)
        U = MultiplicationGroup(g, np.array([0.0, 1.0]))
        V = MultiplicationGroup(g, np.array([0.0, 0.0]))
        # sup over the grid of |e^{it q} - e^{it q'}| = |e^{it} - 1|
        assert quantization_distance(U, V, 1.0) == pytest.approx(abs(np.exp(1j) - 1))


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


class TestInflation:
    def test_guarantee_on_anchors(self):
        eps, t0 = 1e-3, 10.0
        U = _mult(8, seed=6, hi=2 * np.pi)
        base = quantize_symbol(U, 16).approximant
        anchors = [_rvec(base.grid, 7).normalized()]
        res = inflate_and_perturb(base, anchors, eps, t0, copies=3)
        assert res.level_m == 20000
        assert res.frequencies_distinct
        a = anchors[0]
        emb = res.embed(a)
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
        comp = res.compressed()
        assert np.abs(comp.symbol - base.symbol).max() <= res.scale_per_level
        assert np.unique(comp.symbol).size == comp.symbol.size

    def test_rejects_incommensurable(self):
        g = WeightedGrid.uniform(2)
        U = MultiplicationGroup(g, np.array([1.0, np.sqrt(2.0)]))
        with pytest.raises(NotPeriodicError):
            inflate_and_perturb(U, [], 0.1, 1.0)


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


class TestWold:
    def test_pure_unitary(self):
        U = _mult(7, seed=9, hi=np.pi)
        wr = wold_decompose(U)
        assert wr.unitary_dim == 7 and wr.shift_dim == 0
        assert wr.stabilized and wr.residual <= 1e-10

    def test_pure_shift(self):
        R = ShiftSemigroup(1.0, 9)
        gs = shift_grid(9, 1.0)
        space = SumSpace((gs,))
        T = DirectSumSemigroup(space, (R,))
        wr = wold_decompose(T, step=1.0)
        assert wr.unitary_dim == 0 and wr.shift_dim == 9

    def test_mixed_dims_and_wandering(self):
        wr = wold_decompose(_mixed(), step=1.0)
        assert wr.unitary_dim == 3 and wr.shift_dim == 6
        L = wandering_subspace(wr)
        assert L.shape[1] == 1  # one-dimensional wandering generator
        # the wandering vector and its images under W stay orthogonal
        W = wr.one_step
        v = L[:, 0]
        for k in range(1, 5):
            assert abs(np.vdot(np.linalg.matrix_power(W, k) @ v, v)) < 1e-10

    def test_iterations_count_squarings(self):
        wr = wold_decompose(_mixed(), step=1.0)
        assert wr.iterations == math.ceil(math.log2(9))  # W^16 for k = 9

    def test_squaring_cap_reports_unstabilized(self):
        # W^4 of a 9-cell shift still has rank 5, W^8 rank 1
        R = ShiftSemigroup(1.0, 9)
        T = DirectSumSemigroup(SumSpace((shift_grid(9, 1.0),)), (R,))
        wr = wold_decompose(T, max_iter=2, step=1.0)
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

    def test_rank_gap(self):
        assert wold_decompose(_mixed(), step=1.0).rank_gap > 1e6
        assert wold_decompose(_conjugated_mixed(4, 8, seed=23)[0], step=1.0).rank_gap > 1e6
        # nothing dropped, so there is no gap to report
        assert wold_decompose(_mult(5, seed=24, hi=np.pi)).rank_gap is None

    def test_matrix_dims_nonincreasing(self):
        rng = np.random.default_rng(10)
        W = np.diag(np.exp(1j * rng.uniform(0, 2, 5)))
        B0, B1, iters, stab = wold_decompose_matrix(W, 50, 1e-10)
        assert B0.shape[1] == 5 and B1.shape[1] == 0 and stab

    def test_requires_isometric(self):
        g = WeightedGrid.uniform(3)

        class NotIso(MultiplicationGroup):
            is_isometric = False

        with pytest.raises(NotIsometricError):
            wold_decompose(NotIso(g, np.zeros(3)))


class TestPeriodization:
    def test_period_is_identity(self):
        R = ShiftSemigroup(0.5, 10)
        P = periodize_shift(R, 8)
        f = _rvec(P.grid, 11)
        np.testing.assert_allclose(P.apply(8 * 0.5, f).coeffs, f.coeffs, atol=1e-14)

    def test_error_identity_exact(self):
        rng = np.random.default_rng(12)
        R = ShiftSemigroup(1.0, 30)
        f = _rvec(R.grid, 13)
        for ell in [1, 5, 14]:
            lhs, rhs, tail = periodization_error_identity(R, 15, f, float(ell))
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_time_zero_error(self):
        R = ShiftSemigroup(1.0, 10)
        lhs, rhs, tail = periodization_error_identity(R, 8, _rvec(R.grid, 14), 0.0)
        assert lhs == pytest.approx(0.0, abs=1e-15) and rhs == 0.0

    def test_factor_four_tail_bound_always_holds(self):
        # the error is provably at most 4x the tail mass past n - t; the
        # factor-2 version fails for generic payloads (see the acceptance
        # suite), but doubling the constant makes it unconditional
        rng = np.random.default_rng(15)
        R = ShiftSemigroup(1.0, 24)
        for trial in range(50):
            f = HVector(R.grid, rng.standard_normal(24) + 1j * rng.standard_normal(24))
            ell = int(rng.integers(1, 16))
            lhs, rhs, tail = periodization_error_identity(R, 16, f, float(ell))
            assert lhs <= 2.0 * tail + 1e-12


class TestPeriodicApproximation:
    def test_mult_branch_matches_quantization(self):
        U = _mult(10, seed=16)
        P = approximate_isometry_by_periodic(U, 64)
        np.testing.assert_allclose(
            P.symbol, quantize_symbol(U, 64).approximant.symbol)

    def test_shift_branch(self):
        R = ShiftSemigroup(1.0, 12)
        P = approximate_isometry_by_periodic(R, 20)
        assert isinstance(P, PeriodicShiftGroup) and P.period_cells == 20

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
        assert check_unitarity(P, 1.0, [x], 1e-10)
        # at one step the approximant tracks V up to the quantization scale
        # plus the rank-one defect of completing the truncated shift
        d = difference_norm(V.apply(1.0, x), P.apply(1.0, x))
        assert d < 1.5


class TestAwsPipeline:
    def test_output_certificate_and_closeness(self):
        U = _mult(12, seed=19, hi=np.pi)
        eps, t0 = 0.05, 3.0
        A = approximate_isometry_by_aws(U, eps, t0, n=256)
        assert distinct_frequency_certificate(A)
        x = _rvec(U.grid, 20).normalized()
        # pipeline distance <= quantization error + perturbation guarantee
        for t in np.linspace(-t0, t0, 7):
            d = difference_norm(U.apply(t, x), A.apply(t, x))
            assert d <= 2 * np.pi * abs(t) / 256 + eps + 1e-10

    def test_shift_input(self):
        R = ShiftSemigroup(1.0, 10)
        A = approximate_isometry_by_aws(R, 0.2, 2.0, n=32)
        assert distinct_frequency_certificate(A)
        assert A.grid.size == 32  # acts on the periodization's ambient space

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
                assert difference_norm(y, P.apply(float(t), x)) <= eps + 1e-10
