import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi.hilbert import (
    GridMismatchError, HVector, SumSpace, WeightedGrid, inner_product_aligned)
from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
    check_isometry,
    check_semigroup_law,
    check_unitarity,
    model_from_dict,
    model_to_dict,
    one_step_matrix,
    shift_grid,
)


def _rvec(grid, seed=0):
    rng = np.random.default_rng(seed)
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


def _mult(dim=12, seed=0):
    rng = np.random.default_rng(seed)
    g = WeightedGrid.uniform(dim, 1.0 / dim)
    return MultiplicationGroup(g, rng.uniform(0, 2 * np.pi, dim))


class TestMultiplicationGroup:
    def test_unitary_and_law(self):
        U = _mult()
        xs = [_rvec(U.grid, k) for k in range(3)]
        assert all(check_unitarity(U, t, xs, 1e-12) for t in [0.5, 1.3, -2.0])
        assert check_semigroup_law(U, 0.3, 0.7, xs[0], 1e-12)
        assert check_semigroup_law(U, -1.0, 2.5, xs[1], 1e-12)

    def test_apply_matches_phase_formula(self):
        U = _mult(seed=1)
        x = _rvec(U.grid, 2)
        y = U.apply(0.7, x)
        np.testing.assert_allclose(y.coeffs, np.exp(0.7j * U.symbol) * x.coeffs)

    def test_adjoint_is_inverse(self):
        U = _mult(seed=3)
        x = _rvec(U.grid, 4)
        back = U.adjoint_apply(1.1, U.apply(1.1, x))
        np.testing.assert_allclose(back.coeffs, x.coeffs, atol=1e-14)

    def test_max_frequency(self):
        g = WeightedGrid.uniform(3)
        U = MultiplicationGroup(g, np.array([1.0, -4.0, 2.0]))
        assert U.max_frequency() == pytest.approx(4.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_symbol(self, bad):
        with pytest.raises(ValueError):
            MultiplicationGroup(WeightedGrid.uniform(3), np.array([1.0, bad, 2.0]))


class TestShiftSemigroup:
    def test_isometric_by_extension(self):
        R = ShiftSemigroup(step=0.5, cells=10)
        f = _rvec(R.grid, 5)
        g5 = R.apply(2.5, f)
        assert g5.grid.size == 15
        assert g5.norm() == pytest.approx(f.norm(), abs=1e-13)

    def test_rejects_non_multiple_time(self):
        R = ShiftSemigroup(step=0.5, cells=10)
        with pytest.raises(InadmissibleTimeError):
            R.apply(0.3, _rvec(R.grid))

    def test_rejects_negative_time(self):
        R = ShiftSemigroup(step=1.0, cells=4)
        with pytest.raises(InadmissibleTimeError):
            R.apply(-1.0, _rvec(R.grid))

    def test_adjoint_identity(self):
        # <R(t)f, g> == <f, R(t)* g> on the shift-extended grid
        R = ShiftSemigroup(step=1.0, cells=12)
        f = _rvec(R.grid, 6)
        big = shift_grid(12 + 3, 1.0)
        g = _rvec(big, 7)
        lhs = inner_product_aligned(R.apply(3.0, f), g)
        gm = HVector(R.grid, g.coeffs[3: 3 + 12])
        rhs = inner_product_aligned(f, gm)
        # adjoint_apply left-shifts the payload by the same number of cells
        gshift = R.adjoint_apply(3.0, HVector(R.grid, g.coeffs[:12]))
        np.testing.assert_allclose(gshift.coeffs[: 12 - 3], g.coeffs[3:12], atol=1e-14)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_semigroup_law(self):
        R = ShiftSemigroup(step=1.0, cells=8, fiber_dim=2)
        x = _rvec(R.grid, 13)
        assert check_semigroup_law(R, 1.0, 2.0, x, 1e-12)
        assert check_semigroup_law(R, 0.0, 3.0, x, 1e-12)
        assert check_isometry(R, 4.0, [x], 1e-12)

    def test_payload_weights_checked_to_allclose_tolerance(self):
        # accepted exactly when np.allclose(weights, step) holds
        R = ShiftSemigroup(step=0.5, cells=4)
        near = WeightedGrid(np.arange(4.0), np.full(4, 0.5 + 1e-8))
        assert R.apply(0.5, HVector(near, np.ones(4))).grid.size == 5
        far = WeightedGrid(np.arange(4.0), np.array([0.5, 0.5, 0.5 + 1e-4, 0.5]))
        with pytest.raises(GridMismatchError):
            R.apply(1.0, HVector(far, np.ones(4)))
        with pytest.raises(GridMismatchError):
            PeriodicShiftGroup(period_cells=4, step=0.5).apply(1.0, HVector(far, np.ones(4)))


class TestPeriodicShiftGroup:
    def test_period_returns_identity(self):
        P = PeriodicShiftGroup(period_cells=6, step=1.0)
        f = _rvec(P.grid, 8)
        back = P.apply(6.0, f)
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-14)

    def test_group_allows_negative_times(self):
        P = PeriodicShiftGroup(period_cells=6, step=1.0)
        f = _rvec(P.grid, 9)
        z = P.apply(-2.0, P.apply(2.0, f))
        np.testing.assert_allclose(z.coeffs, f.coeffs, atol=1e-14)
        assert all(check_unitarity(P, t, [f], 1e-12) for t in [1.0, 5.0, -3.0])


class TestDirectSum:
    def _model(self):
        gu = WeightedGrid.uniform(4)
        gs = shift_grid(6, 1.0)
        space = SumSpace((gu, gs))
        U = MultiplicationGroup(gu, np.array([0.1, 0.2, 0.3, 0.4]))
        R = ShiftSemigroup(1.0, 6)
        return DirectSumSemigroup(space, (U, R)), space

    def test_blockwise_action(self):
        T, space = self._model()
        x = _rvec(space.combined, 10)
        y = T.apply(2.0, x)
        # multiplication block acts diagonally
        np.testing.assert_allclose(
            y.coeffs[:4], np.exp(2.0j * np.array([0.1, 0.2, 0.3, 0.4])) * x.coeffs[:4]
        )
        # shift block truncates overflow inside the fixed ambient space
        np.testing.assert_allclose(y.coeffs[4:6], 0.0, atol=1e-15)
        np.testing.assert_allclose(y.coeffs[6:], x.coeffs[4:8])

    def test_time_step_merge(self):
        T, _ = self._model()
        assert T.time_step == pytest.approx(1.0)


class TestConjugatedGroup:
    def test_unitary_conjugation_preserves_norm(self):
        rng = np.random.default_rng(11)
        inner = _mult(6, seed=12)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        V = ConjugatedGroup(WeightedGrid.uniform(6), q, inner)
        x = _rvec(V.grid, 13)
        assert check_unitarity(V, 0.4, [x], 1e-12)
        assert check_unitarity(V, 1.9, [x], 1e-12)
        assert check_semigroup_law(V, 0.4, 1.5, x, 1e-12)


class TestChecksNegativeControl:
    def test_corrupted_model_fails_law(self):
        class Broken(MultiplicationGroup):
            def apply(self, t, x):
                y = super().apply(t, x)
                return HVector(y.grid, y.coeffs + 0.01 * t * t)

        g = WeightedGrid.uniform(5)
        B = Broken(g, np.linspace(0, 1, 5))
        assert not check_semigroup_law(B, 1.0, 1.0, _rvec(g, 1), 1e-6)

    def test_nonisometry_detected(self):
        g = WeightedGrid.uniform(5)
        t_half = MultiplicationGroup(g, np.zeros(5))

        class Shrink(MultiplicationGroup):
            def apply(self, t, x):
                return HVector(x.grid, 0.5 * x.coeffs)

        x = _rvec(g, 2)
        assert not check_isometry(Shrink(g, np.zeros(5)), 1.0, [x], 1e-6)
        assert check_isometry(t_half, 1.0, [x], 1e-12)


class TestOneStepMatrix:
    def test_mult_one_step_is_diagonal_phase(self):
        U = _mult(5, seed=20)
        M = one_step_matrix(U, 1.0)
        np.testing.assert_allclose(M, np.diag(np.exp(1j * U.symbol)), atol=1e-13)

    def test_shift_one_step_is_partial_isometry(self):
        R = ShiftSemigroup(1.0, 5)
        M = one_step_matrix(R, 1.0)
        # truncated shift: M*M has rank cells-1
        np.testing.assert_allclose(M @ M.conj().T + np.outer(
            np.eye(5)[0], np.eye(5)[0]), np.eye(5), atol=1e-13)


ZOO = ("mult", "shift", "periodic", "dsum_shift", "dsum_long", "conj_dsum")
ZOO_STEP = 0.5


def _zoo(kind, seed):
    rng = np.random.default_rng(seed)
    g = WeightedGrid(np.arange(4, dtype=float), rng.uniform(0.2, 2.0, 4))
    mult = MultiplicationGroup(g, rng.uniform(-3.0, 3.0, 4))
    if kind == "mult":
        return mult
    if kind == "shift":
        return ShiftSemigroup(ZOO_STEP, 5, fiber_dim=2)
    if kind == "periodic":
        return PeriodicShiftGroup(4, ZOO_STEP, fiber_dim=2)
    if kind == "dsum_long":
        # a 3-cell period on a 6-cell component: identity above the period
        part, comp = PeriodicShiftGroup(3, ZOO_STEP, 2), shift_grid(6, ZOO_STEP, 2)
    else:
        part = ShiftSemigroup(ZOO_STEP, 4, fiber_dim=2)
        comp = part.grid
    dsum = DirectSumSemigroup(SumSpace((g, comp)), (mult, part))
    if kind != "conj_dsum":
        return dsum
    k = dsum.grid.size
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    outer = WeightedGrid(np.arange(k, dtype=float), rng.uniform(0.5, 1.5, k))
    return ConjugatedGroup(outer, q * (np.diag(r) / np.abs(np.diag(r))), dsum)


def _one_step_reference(T, h):
    """T(h) one weighted basis column at a time through apply."""
    g = T.grid
    sw = np.sqrt(g.weights)
    W = np.zeros((g.size, g.size), dtype=complex)
    for j in range(g.size):
        e = np.zeros(g.size, dtype=complex)
        e[j] = 1.0 / sw[j]
        y = T.apply(h, HVector(g, e))
        W[:, j] = (np.sqrt(y.grid.weights) * y.coeffs)[: g.size]
    return W


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(1, 3))
def test_one_step_matrix_matches_apply_columns(kind, seed, steps):
    T = _zoo(kind, seed)
    h = steps * ZOO_STEP
    W = one_step_matrix(T, h)
    assert W.shape == (T.grid.size,) * 2
    assert np.abs(W - _one_step_reference(T, h)).max() <= 1e-13


@pytest.mark.parametrize("kind", ["shift", "dsum_shift", "conj_dsum"])
def test_one_step_matrix_rejects_inadmissible_times(kind):
    T = _zoo(kind, 0)
    with pytest.raises(InadmissibleTimeError):
        one_step_matrix(T, -ZOO_STEP)
    with pytest.raises(InadmissibleTimeError):
        one_step_matrix(T, 1.25 * ZOO_STEP)


def test_one_step_matrix_rejects_mismatched_grids():
    mult = _mult(4, seed=1)
    off_grid = DirectSumSemigroup(SumSpace((WeightedGrid.uniform(4, 0.5),)), (mult,))
    not_shift = DirectSumSemigroup(
        SumSpace((WeightedGrid.uniform(6, 0.3),)), (ShiftSemigroup(ZOO_STEP, 3, 2),))
    for T in (off_grid, not_shift):
        with pytest.raises(GridMismatchError):
            one_step_matrix(T, ZOO_STEP)


@pytest.mark.parametrize("kind", ZOO)
def test_one_step_matrix_makes_no_apply_calls(kind, monkeypatch):
    T = _zoo(kind, 3)

    def no_apply(self, t, x):
        raise AssertionError("apply called by one_step_matrix")

    for cls in (MultiplicationGroup, ShiftSemigroup, PeriodicShiftGroup,
                DirectSumSemigroup, ConjugatedGroup):
        monkeypatch.setattr(cls, "apply", no_apply)
        monkeypatch.setattr(cls, "adjoint_apply", no_apply)
    one_step_matrix(T, 2 * ZOO_STEP)


def test_conjugating_a_truncated_shift_is_rejected_at_construction():
    with pytest.raises(ValueError, match="changed dimension"):
        ConjugatedGroup(WeightedGrid.uniform(5), np.eye(5), ShiftSemigroup(1.0, 5))


def test_shift_grid_is_shared():
    assert shift_grid(7, 0.5, 2) is shift_grid(7, 0.5, 2)
    assert ShiftSemigroup(0.5, 7, 2).grid is PeriodicShiftGroup(7, 0.5, 2).grid


class TestSerialization:
    @pytest.mark.parametrize("maker", [
        lambda: _mult(7, seed=30),
        lambda: ShiftSemigroup(0.5, 9, fiber_dim=2),
        lambda: PeriodicShiftGroup(5, 0.25),
    ])
    def test_round_trip(self, maker):
        T = maker()
        T2 = model_from_dict(model_to_dict(T))
        x = _rvec(T.grid, 31)
        t = T.time_step or 1.0
        np.testing.assert_allclose(
            T.apply(t, x).coeffs, T2.apply(t, x).coeffs, atol=1e-14)

    def test_round_trip_conjugated(self):
        rng = np.random.default_rng(32)
        inner = _mult(4, seed=33)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        V = ConjugatedGroup(WeightedGrid.uniform(4), q, inner)
        V2 = model_from_dict(model_to_dict(V))
        x = _rvec(V.grid, 34)
        np.testing.assert_allclose(V.apply(0.8, x).coeffs, V2.apply(0.8, x).coeffs, atol=1e-13)
