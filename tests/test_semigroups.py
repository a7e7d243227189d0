import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi.diagnostics import ClassifyParams, classify, correlation
from stablesemi.hilbert import (
    DenseSequence, GridMismatchError, HVector, SumSpace, WeightedGrid, pad_to_grid)
from stablesemi.metrics import MetricConfig, metric_isometric
from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
    _step_times,
    _steps,
    one_step_matrix,
    shift_grid,
)

from reference import inner_product, operator_matrix, weighted


def _rvec(grid, seed=0):
    rng = np.random.default_rng(seed)
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


def _assert_unitary(T, t, xs):
    """T(t) is the construction data's unitary matrix M, and `apply` at t
    and at -t acts on each x as M and M*."""
    M = one_step_matrix(T, t)
    np.testing.assert_allclose(M, operator_matrix(T, t), atol=1e-12)
    np.testing.assert_allclose(M.conj().T @ M, np.eye(M.shape[0]), atol=1e-12)
    for x in xs:
        np.testing.assert_allclose(weighted(T.apply(t, x)), M @ weighted(x), atol=1e-12)
        np.testing.assert_allclose(weighted(T.apply(-t, x)), M.conj().T @ weighted(x),
                                   atol=1e-12)


def _assert_law(T, t, s):
    """T(t + s) = T(t) T(s) on T's grid."""
    np.testing.assert_allclose(one_step_matrix(T, t + s),
                               one_step_matrix(T, t) @ one_step_matrix(T, s), atol=1e-12)


def _mult(dim=12, seed=0):
    rng = np.random.default_rng(seed)
    g = WeightedGrid.uniform(dim, 1.0 / dim)
    return MultiplicationGroup(g, rng.uniform(0, 2 * np.pi, dim))


class TestMultiplicationGroup:
    def test_unitary_and_law(self):
        U = _mult()
        xs = [_rvec(U.grid, k) for k in range(3)]
        for t in [0.5, 1.3, -2.0]:
            _assert_unitary(U, t, xs)
        _assert_law(U, 0.3, 0.7)
        _assert_law(U, -1.0, 2.5)

    def test_apply_matches_phase_formula(self):
        U = _mult(seed=1)
        x = _rvec(U.grid, 2)
        y = U.apply(0.7, x)
        np.testing.assert_allclose(y.coeffs, np.exp(0.7j * U.symbol) * x.coeffs)

    def test_adjoint_is_inverse(self):
        U = _mult(seed=3)
        x = _rvec(U.grid, 4)
        back = U.apply(-1.1, U.apply(1.1, x))
        np.testing.assert_allclose(back.coeffs, x.coeffs, atol=1e-14)

    def test_apply_zero_pads_a_prefix_vector(self):
        # `apply` is a batch of one, so it follows the grid rule of `_columns`
        U = _mult()
        x = _rvec(WeightedGrid(U.grid.points[:5], U.grid.weights[:5]), 3)
        y = U.apply(0.7, x)
        assert y.grid.same_as(U.grid)
        np.testing.assert_array_equal(y.coeffs, U.apply(0.7, pad_to_grid(x, U.grid)).coeffs)

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_times_are_inadmissible(self, t):
        # admitted before any phase is taken, so cos/sin never see t
        U = _mult(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InadmissibleTimeError, match="not finite"):
                one_step_matrix(U, t)
            with pytest.raises(InadmissibleTimeError, match="not finite"):
                U.apply(t, _rvec(U.grid))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_symbol(self, bad):
        with pytest.raises(ValueError):
            MultiplicationGroup(WeightedGrid.uniform(3), np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("symbol", [[1 + 1j, 2, 3], np.array([1.0, 2.0, 3.0], dtype=complex)])
    def test_rejects_complex_symbol(self, symbol):
        # a cast to float would drop the imaginary part, zero or not
        with pytest.raises(ValueError, match="real"):
            MultiplicationGroup(WeightedGrid.uniform(3), symbol)


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

    def test_sign_is_judged_on_the_step_count(self):
        # within the lattice margin of `_steps`, -1e-10 is the time 0
        R = ShiftSemigroup(step=1.0, cells=4)
        x = _rvec(R.grid)
        np.testing.assert_array_equal(R.apply(-1e-10, x).coeffs, R.apply(0.0, x).coeffs)

    # one time takes the scalar branch of `_steps`, two the vectorized one
    @pytest.mark.parametrize("times", [[np.nan], [np.inf], [-np.inf], [0.0, np.nan],
                                       [0.0, np.inf]])
    def test_non_finite_times_are_inadmissible(self, times):
        with pytest.raises(InadmissibleTimeError, match="not finite"):
            _steps(np.array(times), 0.5)

    def test_adjoint_identity(self):
        # <R(t)f, g> == <f, R(t)* g> on the shift-extended grid, where R(t)*
        # reads g three cells on
        R = ShiftSemigroup(step=1.0, cells=12)
        f = _rvec(R.grid, 6)
        big = shift_grid(12 + 3, 1.0)
        g = _rvec(big, 7)
        lhs = inner_product(R.apply(3.0, f), g)
        gm = HVector(R.grid, g.coeffs[3: 3 + 12])
        rhs = inner_product(f, gm)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_semigroup_law(self):
        R = ShiftSemigroup(step=1.0, cells=8)
        x = _rvec(R.grid, 13)
        # the shift extends its payload: both sides land on one memoized grid
        for t, s in [(1.0, 2.0), (0.0, 3.0)]:
            lhs, rhs = R.apply(t + s, x), R.apply(t, R.apply(s, x))
            assert lhs.grid is rhs.grid
            assert np.linalg.norm(weighted(lhs) - weighted(rhs)) <= 1e-12 * x.norm()
        y = R.apply(4.0, x)
        np.testing.assert_allclose(weighted(y), operator_matrix(R, 4.0) @ weighted(x))
        assert y.norm() == pytest.approx(x.norm(), rel=1e-12)


CELL_MODELS = pytest.mark.parametrize(
    "T", [ShiftSemigroup(0.5, 4), PeriodicShiftGroup(4, 0.5)], ids=["shift", "periodic"])


@CELL_MODELS
@pytest.mark.parametrize("cells", [4, 6])
def test_cell_models_act_as_the_identity_at_zero_on_exact_shift_grids(T, cells):
    # the nominal payload and one extended by two cells; powers of two keep
    # the weighting by sqrt(h) and back exact
    x = HVector(shift_grid(cells, 0.5), np.array([1, -2, 0.5j, 4, -0.25j, 8])[:cells])
    y = T.apply(0.0, x)
    assert y.grid.same_as(x.grid)
    np.testing.assert_array_equal(y.coeffs, x.coeffs)


@CELL_MODELS
@pytest.mark.parametrize("grid", [
    WeightedGrid(np.arange(4) * 0.5, np.full(4, 0.5 + 1e-8)),
    WeightedGrid(np.arange(4.0), np.full(4, 0.5)),
], ids=["weights", "points"])
def test_cell_models_reject_payloads_off_their_exact_shift_grid(T, grid):
    # near weights or other points are rejected where the vector enters,
    # not evolved as if they were the shift grid
    x = HVector(grid, np.ones(4))
    with pytest.raises(GridMismatchError):
        T.apply(0.0, x)
    with pytest.raises(GridMismatchError):
        correlation(T, x, x, np.arange(3) * 0.5)
    with pytest.raises(GridMismatchError):
        metric_isometric(T, T, MetricConfig(DenseSequence((x,)), J=1, N=1))


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
        for t in [1.0, 5.0, -3.0]:
            _assert_unitary(P, t, [f])


@pytest.mark.parametrize("cls, args", [
    (ShiftSemigroup, (1.0, 2.5)),
    (ShiftSemigroup, (1.0, True)),
    (ShiftSemigroup, (1.0, 4.0)),
    (ShiftSemigroup, (float("inf"), 4)),
    (ShiftSemigroup, (0.0, 4)),
    (PeriodicShiftGroup, (2.5, 1.0)),
    (PeriodicShiftGroup, (3, float("nan"))),
    (PeriodicShiftGroup, (3, -1.0)),
    (PeriodicShiftGroup, (np.float64(3.0), 1.0)),
    (PeriodicShiftGroup, (0, 1.0)),
    (ShiftSemigroup, (True, 4)),
    (PeriodicShiftGroup, (4, True)),
    (ShiftSemigroup, (np.array(1.0), 4)),
])
def test_shift_models_reject_bad_sizes_and_steps_at_construction(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


def test_shift_models_take_numpy_integer_sizes():
    assert ShiftSemigroup(1.0, np.int64(3)).grid.size == 3
    assert PeriodicShiftGroup(np.int32(3), 1.0).grid.size == 3


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
        _assert_unitary(V, 0.4, [x])
        _assert_unitary(V, 1.9, [x])
        _assert_law(V, 0.4, 1.5)

    @pytest.mark.parametrize("outer, basis, inner", [
        (5, np.eye(5, 4), 5),  # a basis that is not square
        (4, np.eye(4), 5),     # a square basis, inner dim != outer dim
        (4, np.eye(5, 4), 5),  # (inner dim, outer dim), not square
    ])
    def test_basis_must_be_square_on_equal_dimensions(self, outer, basis, inner):
        with pytest.raises(ValueError, match="basis must be k x k"):
            ConjugatedGroup(WeightedGrid.uniform(outer), basis, _mult(inner))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_basis_is_rejected_at_construction(self, bad):
        # once built, such a model gave NaN correlations at every time
        rng = np.random.default_rng(14)
        B, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        B[2, 1] = bad
        g = WeightedGrid.uniform(4)
        with pytest.raises(ValueError, match="basis must be finite"):
            ConjugatedGroup(g, B, MultiplicationGroup(g, rng.uniform(0.0, 2.0, 4)))


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
        return ShiftSemigroup(ZOO_STEP, 10)
    if kind == "periodic":
        return PeriodicShiftGroup(8, ZOO_STEP)
    if kind == "dsum_long":
        # a 6-cell period on a 12-cell component: identity above the period
        part, comp = PeriodicShiftGroup(6, ZOO_STEP), shift_grid(12, ZOO_STEP)
    else:
        part = ShiftSemigroup(ZOO_STEP, 8)
        comp = part.grid
    dsum = DirectSumSemigroup(SumSpace((g, comp)), (mult, part))
    if kind != "conj_dsum":
        return dsum
    k = dsum.grid.size
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    outer = WeightedGrid(np.arange(k, dtype=float), rng.uniform(0.5, 1.5, k))
    return ConjugatedGroup(outer, q * (np.diag(r) / np.abs(np.diag(r))), dsum)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(1, 3))
def test_one_step_matrix_matches_construction_data(kind, seed, steps):
    T = _zoo(kind, seed)
    h = steps * ZOO_STEP
    W = one_step_matrix(T, h)
    k = T.grid.size
    assert W.shape == (k, k)
    assert np.abs(W - operator_matrix(T, h)[:k, :k]).max() <= 1e-13


def _random_matrix(rng, rows, cols=3):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


zoo_cases = given(st.sampled_from(ZOO), st.integers(0, 10 ** 6),
                  st.lists(st.integers(0, 6), min_size=1, max_size=5))


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_evolve_matches_construction_data(kind, seed, steps):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    times = ZOO_STEP * np.array(steps, dtype=float)
    Y = T._evolve(times, X)
    for t, y in zip(times, Y):
        # a truncated shift's matrix maps onto more rows; `_evolve` keeps X's
        assert np.abs(operator_matrix(T, t)[: X.shape[0]] @ X - y).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_evolve_over_many_times_stacks_single_times(kind, seed, steps):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    times = ZOO_STEP * np.array(steps, dtype=float)
    Y = T._evolve(times, X)
    for i, t in enumerate(times):
        one = T._evolve(times[i : i + 1], X)[0]
        np.testing.assert_array_equal(one, Y[i])


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_evolve_keeps_the_rows_of_its_payload(kind, seed, steps):
    # no model grows its payload; a cell model also takes a longer one
    T = _zoo(kind, seed)
    rng = np.random.default_rng(seed)
    times = ZOO_STEP * np.array(steps, dtype=float)
    payloads = [T.grid.size]
    if isinstance(T, (ShiftSemigroup, PeriodicShiftGroup)):
        payloads.append(T.grid.size + 4)
    for rows in payloads:
        X = _random_matrix(rng, rows)
        assert T._evolve(times, X).shape == (times.size, rows, X.shape[1])
        np.testing.assert_allclose(T._evolve(times, X)[-1],
                                   operator_matrix(T, times[-1], rows)[:rows] @ X,
                                   rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(0, 6), st.integers(0, 6))
def test_evolve_obeys_the_semigroup_law_on_the_step_lattice(kind, seed, a, b):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    ta, tb = a * ZOO_STEP, b * ZOO_STEP
    both = T._evolve(np.array([ta + tb]), X)[0]
    stepwise = T._evolve(np.array([ta]), T._evolve(np.array([tb]), X)[0])[0]
    assert np.abs(both - stepwise).max() <= 1e-12


def _dropped_mass(T, X, steps):
    """Per column of X (weighted coordinates), the squared norm that T's
    truncated shifts, bare or as a block, push past their payload within
    `steps` steps; zero for every other model."""
    if isinstance(T, ConjugatedGroup):
        return _dropped_mass(T.inner, T.basis @ X, steps)
    if isinstance(T, ShiftSemigroup):
        return (np.abs(X[X.shape[0] - min(steps, X.shape[0]):]) ** 2).sum(axis=0)
    mass = np.zeros(X.shape[1])
    if isinstance(T, DirectSumSemigroup):
        for lo, g, part in zip(T.space.offsets, T.space.components, T.parts):
            mass += _dropped_mass(part, X[lo:lo + g.size], steps)
    return mass


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(0, 6))
def test_evolve_is_isometric(kind, seed, steps):
    # ||T(t)x||^2 = ||x||^2, less what a truncated shift block drops
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    Y = T._evolve(np.array([steps * ZOO_STEP]), X)[0]
    kept = (np.abs(X) ** 2).sum(axis=0) - _dropped_mass(T, X, steps)
    np.testing.assert_allclose((np.abs(Y) ** 2).sum(axis=0), kept, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([k for k in ZOO if _zoo(k, 0).spectral_form() is not None]),
       st.integers(0, 10 ** 6), st.integers(0, 6))
def test_evolve_is_unitary_for_unitary_models(kind, seed, steps):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    t = np.array([steps * ZOO_STEP])
    TX = T._evolve(t, X)[0]
    TsX = T._evolve(-t, X)[0]  # T(t)* = T(-t) on a group
    assert TX.shape == TsX.shape == X.shape
    np.testing.assert_allclose(T._evolve(-t, TX)[0], X, rtol=0, atol=1e-12)
    np.testing.assert_allclose(T._evolve(t, TsX)[0], X, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["shift", "dsum_shift", "conj_dsum"])
def test_one_step_matrix_rejects_inadmissible_times(kind):
    T = _zoo(kind, 0)
    with pytest.raises(InadmissibleTimeError):
        one_step_matrix(T, -ZOO_STEP)
    with pytest.raises(InadmissibleTimeError):
        one_step_matrix(T, 1.25 * ZOO_STEP)


def test_one_step_matrix_rejects_mismatched_grids():
    # a part off its component grid is rejected when the sum is built, so no
    # one-step matrix (or any other evolution) can start from one
    mult = _mult(4, seed=1)
    with pytest.raises(GridMismatchError):
        DirectSumSemigroup(SumSpace((WeightedGrid.uniform(4, 0.5),)), (mult,))
    with pytest.raises(GridMismatchError):
        DirectSumSemigroup(
            SumSpace((WeightedGrid.uniform(6, 0.3),)), (ShiftSemigroup(ZOO_STEP, 6),))


def test_direct_sum_rejects_a_period_longer_than_its_component():
    # a 5-cell period cannot act unitarily on a 3-cell block
    mult = _mult(4, seed=2)
    space = SumSpace((shift_grid(3, 1.0), mult.grid))
    with pytest.raises(GridMismatchError, match="longer than its component"):
        DirectSumSemigroup(space, (PeriodicShiftGroup(5, 1.0), mult))


@pytest.mark.parametrize("kind", ZOO)
def test_one_step_matrix_makes_no_apply_calls(kind, monkeypatch):
    T = _zoo(kind, 3)

    def no_apply(self, t, x):
        raise AssertionError("apply called by one_step_matrix")

    for cls in (MultiplicationGroup, ShiftSemigroup, PeriodicShiftGroup,
                DirectSumSemigroup, ConjugatedGroup):
        monkeypatch.setattr(cls, "apply", no_apply)
    one_step_matrix(T, 2 * ZOO_STEP)


def test_conjugating_a_truncated_shift_is_rejected_at_construction():
    with pytest.raises(ValueError, match="needs room"):
        ConjugatedGroup(WeightedGrid.uniform(5), np.eye(5), ShiftSemigroup(1.0, 5))


@pytest.mark.parametrize("kind", ["mult", "shift", "periodic", "dsum_shift", "conj_dsum"])
def test_every_model_has_a_grid_it_acts_on(kind):
    # the protocol declares no grid: each of the five model classes has its own
    T = _zoo(kind, 0)
    assert isinstance(T.grid, WeightedGrid)
    T._check_grid(T.grid)


def test_shift_grid_is_shared():
    assert shift_grid(7, 0.5) is shift_grid(7, 0.5)
    assert ShiftSemigroup(0.5, 7).grid is PeriodicShiftGroup(7, 0.5).grid


@pytest.mark.parametrize("h, k", [(0.1, 20481), (0.7, 24576), (1.1, 10 ** 6)])
def test_step_times_keep_both_ends(h, k):
    # (k h) / h rounds below k by more than 1e-12 steps, but k h is on the
    # lattice to within the margin of `_steps`, so both ends stay
    end = k * h
    times = _step_times(h, -end, end)
    assert times.size == 2 * k + 1
    assert times[0] == -end and times[-1] == end
    np.testing.assert_array_equal(_steps(times[[0, -1]], h).ravel(), [-k, k])


@pytest.mark.parametrize("h", [1e-9, 1e-10])
def test_step_times_add_no_point_below_a_tiny_step(h):
    # a time grid from 0 starts at 0, so a right shift can be classified on it
    np.testing.assert_array_equal(_step_times(h, 0.0, 4 * h), np.arange(5) * h)
    S = ShiftSemigroup(h, 4)
    classify(S, DenseSequence.gaussian(S.grid, 2, seed=0), ClassifyParams(horizon=8 * h))


@pytest.mark.parametrize("T, t", [(ShiftSemigroup(1e-10, 4), 1.5e-10),
                                  (ShiftSemigroup(1e-10, 4), 3.7e-11),
                                  (PeriodicShiftGroup(4, 1e-10), 1.5e-10)])
def test_small_steps_admit_only_their_lattice(T, t):
    # the lattice margin is relative to the step, not to 1, so a step far
    # below 1 does not round every time onto its lattice
    x = _rvec(T.grid)
    with pytest.raises(InadmissibleTimeError, match="not an integer multiple"):
        T.apply(t, x)
    with pytest.raises(InadmissibleTimeError, match="not an integer multiple"):
        _steps(np.array([0.0, t]), T.step)
    np.testing.assert_array_equal(_steps(np.array([2e-10]), T.step), [[2]])
    T.apply(2e-10, x)


def test_step_times_stay_within_their_ends_at_a_small_step():
    np.testing.assert_array_equal(_step_times(1e-10, 0.0, 1.5e-10), [0.0, 1e-10])
    np.testing.assert_array_equal(_step_times(1e-10, -1.5e-10, 0.0), [-1e-10, 0.0])


@pytest.mark.parametrize("t, match", [(5e8 + 0.5, "not an integer multiple"),
                                      (2e9 + 1.5, "not an integer multiple"),
                                      (2.0 ** 63, "2\\*\\*53 steps")])
def test_large_step_counts_round_no_time_onto_the_lattice(t, match):
    # the margin is capped below half a step, so a time half a step off stays
    # off at any count, and a count float64 cannot hold exactly is refused
    P = PeriodicShiftGroup(4, 1.0)
    with pytest.raises(InadmissibleTimeError, match=match):
        P.apply(t, _rvec(P.grid))
    with pytest.raises(InadmissibleTimeError, match=match):
        _steps(np.array([0.0, t]), 1.0)


def test_a_count_past_float64_is_refused_before_any_cast():
    P = PeriodicShiftGroup(4, 1.0)
    x = _rvec(P.grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InadmissibleTimeError, match="2\\*\\*53 steps"):
            correlation(P, x, x, [1.0, 1e20])


@pytest.mark.parametrize("h, t", [(1.0, 2e9 + 2.0), (1.1, 1e12 * 1.1)])
def test_large_step_counts_on_the_lattice_stay_admitted(h, t):
    k = round(t / h)
    assert _steps(np.array([t]), h).tolist() == [[k]]
    assert _steps(np.array([0.0, t]), h).tolist() == [[0], [k]]
    P = PeriodicShiftGroup(4, h)
    x = _rvec(P.grid)
    np.testing.assert_allclose(P.apply(t, x).coeffs, np.roll(x.coeffs, k), rtol=1e-15)
