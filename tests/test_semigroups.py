import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi.constructions import approximate_isometry_by_aws
from stablesemi.diagnostics import ClassifyParams, classify
from stablesemi.hilbert import (
    DenseSequence, GridMismatchError, HVector, SumSpace, WeightedGrid, inner_product)
from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
    _step_times,
    _steps,
    model_from_dict,
    model_to_dict,
    one_step_matrix,
    shift_grid,
)

from reference import operator_matrix, weighted


def _rvec(grid, seed=0):
    rng = np.random.default_rng(seed)
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


def _assert_unitary(T, t, xs):
    """T(t) is the construction data's unitary matrix M, and `apply` and
    `adjoint_apply` act on each x as M and M*."""
    M = one_step_matrix(T, t)
    np.testing.assert_allclose(M, operator_matrix(T, t), atol=1e-12)
    np.testing.assert_allclose(M.conj().T @ M, np.eye(M.shape[0]), atol=1e-12)
    for x in xs:
        np.testing.assert_allclose(weighted(T.apply(t, x)), M @ weighted(x), atol=1e-12)
        np.testing.assert_allclose(weighted(T.adjoint_apply(t, x)), M.conj().T @ weighted(x),
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
        lhs = inner_product(R.apply(3.0, f), g)
        gm = HVector(R.grid, g.coeffs[3: 3 + 12])
        rhs = inner_product(f, gm)
        # adjoint_apply left-shifts the payload by the same number of cells
        gshift = R.adjoint_apply(3.0, HVector(R.grid, g.coeffs[:12]))
        np.testing.assert_allclose(gshift.coeffs[: 12 - 3], g.coeffs[3:12], atol=1e-14)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_semigroup_law(self):
        R = ShiftSemigroup(step=1.0, cells=8, fiber_dim=2)
        x = _rvec(R.grid, 13)
        # the shift extends its payload: both sides land on one memoized grid
        for t, s in [(1.0, 2.0), (0.0, 3.0)]:
            lhs, rhs = R.apply(t + s, x), R.apply(t, R.apply(s, x))
            assert lhs.grid is rhs.grid
            assert (lhs - rhs).norm() <= 1e-12 * x.norm()
        y = R.apply(4.0, x)
        np.testing.assert_allclose(weighted(y), operator_matrix(R, 4.0) @ weighted(x))
        assert y.norm() == pytest.approx(x.norm(), rel=1e-12)

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
        for t in [1.0, 5.0, -3.0]:
            _assert_unitary(P, t, [f])


@pytest.mark.parametrize("cls, args", [
    (ShiftSemigroup, (1.0, 2.5)),
    (ShiftSemigroup, (1.0, True)),
    (ShiftSemigroup, (1.0, 4, 1.5)),
    (ShiftSemigroup, (float("inf"), 4)),
    (ShiftSemigroup, (0.0, 4)),
    (PeriodicShiftGroup, (2.5, 1.0)),
    (PeriodicShiftGroup, (3, float("nan"))),
    (PeriodicShiftGroup, (3, -1.0)),
    (PeriodicShiftGroup, (3, 1.0, np.float64(2.0))),
    (PeriodicShiftGroup, (0, 1.0)),
])
def test_shift_models_reject_bad_sizes_and_steps_at_construction(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


def test_shift_models_take_numpy_integer_sizes():
    assert ShiftSemigroup(1.0, np.int64(3), np.int32(2)).grid.size == 6
    assert PeriodicShiftGroup(np.int64(3), 1.0, np.int32(2)).grid.size == 6


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


def _pad(Y, rows):
    return np.concatenate([Y, np.zeros((rows - Y.shape[0], Y.shape[1]))])


zoo_cases = given(st.sampled_from(ZOO), st.integers(0, 10 ** 6),
                  st.lists(st.integers(0, 6), min_size=1, max_size=5))


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_evolve_matches_construction_data(kind, seed, steps):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    times = ZOO_STEP * np.array(steps, dtype=float)
    Y = T._evolve(times, X, False)
    for t, y in zip(times, Y):
        want = operator_matrix(T, t) @ X
        assert np.abs(_pad(want, y.shape[0]) - y).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_evolve_over_many_times_stacks_single_times(kind, seed, steps):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    times = ZOO_STEP * np.array(steps, dtype=float)
    Y = T._evolve(times, X, False)
    for i, t in enumerate(times):
        one = T._evolve(times[i : i + 1], X, False)[0]
        np.testing.assert_array_equal(_pad(one, Y.shape[1]), Y[i])


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_compressed_evolution_cuts_evolve_to_the_payload(kind, seed, steps):
    T = _zoo(kind, seed)
    rng = np.random.default_rng(seed)
    times = ZOO_STEP * np.array(steps, dtype=float)
    payloads = [T.grid.size]
    if isinstance(T, (ShiftSemigroup, PeriodicShiftGroup)):
        payloads.append(T.grid.size + 4 * T.fiber_dim)  # extended by 4 cells
    for rows in payloads:
        X = _random_matrix(rng, rows)
        for adjoint in (False, True):
            full = T._evolve(times, X, adjoint)
            np.testing.assert_array_equal(T._compressed(times, X, adjoint), full[:, :rows])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(0, 6), st.integers(0, 6))
def test_evolve_obeys_the_semigroup_law_on_the_step_lattice(kind, seed, a, b):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    ta, tb = a * ZOO_STEP, b * ZOO_STEP
    both = T._evolve(np.array([ta + tb]), X, False)[0]
    stepwise = T._evolve(np.array([ta]), T._evolve(np.array([tb]), X, False)[0], False)[0]
    assert np.abs(both - stepwise).max() <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(0, 6))
def test_evolve_adjoint_is_the_adjoint(kind, seed, steps):
    # <T(t)x, y> = <x, T(t)* y>, y on the space T(t)x lives on
    T = _zoo(kind, seed)
    rng = np.random.default_rng(seed)
    k = T.grid.size
    X = _random_matrix(rng, k)
    t = np.array([steps * ZOO_STEP])
    TX = T._evolve(t, X, False)[0]
    Y = _random_matrix(rng, TX.shape[0])
    TsY = T._evolve(t, Y, True)[0]
    assert TsY.shape == Y.shape
    np.testing.assert_allclose(Y.conj().T @ TX, TsY[:k].conj().T @ X, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(TsY[k:], 0.0)


def _dropped_mass(T, X, steps):
    """Per column of X (weighted coordinates), the squared norm that T's
    truncated shift blocks push off their component within `steps` steps;
    zero for every model that keeps or extends its payload."""
    if isinstance(T, ConjugatedGroup):
        return _dropped_mass(T.inner, T.basis @ X, steps)
    mass = np.zeros(X.shape[1])
    if isinstance(T, DirectSumSemigroup):
        for b, part in enumerate(T.parts):
            if isinstance(part, ShiftSemigroup):
                Xb = X[T.space.block_slice(b)]
                cut = Xb.shape[0] - min(steps, part.cells) * part.fiber_dim
                mass += (np.abs(Xb[cut:]) ** 2).sum(axis=0)
    return mass


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ZOO), st.integers(0, 10 ** 6), st.integers(0, 6))
def test_evolve_is_isometric(kind, seed, steps):
    # ||T(t)x||^2 = ||x||^2, less what a truncated shift block drops
    T = _zoo(kind, seed)
    assert T.is_isometric
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    Y = T._evolve(np.array([steps * ZOO_STEP]), X, False)[0]
    kept = (np.abs(X) ** 2).sum(axis=0) - _dropped_mass(T, X, steps)
    np.testing.assert_allclose((np.abs(Y) ** 2).sum(axis=0), kept, rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([k for k in ZOO if _zoo(k, 0).is_unitary]),
       st.integers(0, 10 ** 6), st.integers(0, 6))
def test_evolve_is_unitary_for_unitary_models(kind, seed, steps):
    T = _zoo(kind, seed)
    X = _random_matrix(np.random.default_rng(seed), T.grid.size)
    t = np.array([steps * ZOO_STEP])
    TX = T._evolve(t, X, False)[0]
    TsX = T._evolve(t, X, True)[0]
    assert TX.shape == TsX.shape == X.shape
    np.testing.assert_allclose(T._evolve(t, TX, True)[0], X, rtol=0, atol=1e-12)
    np.testing.assert_allclose(T._evolve(t, TsX, False)[0], X, rtol=0, atol=1e-12)


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
            SumSpace((WeightedGrid.uniform(6, 0.3),)), (ShiftSemigroup(ZOO_STEP, 3, 2),))


def test_direct_sum_rejects_a_period_longer_than_its_component():
    # a 5-cell period cannot act unitarily on a 3-cell block; neither the
    # constructor nor the JSON loader accepts it
    mult = _mult(4, seed=2)
    space = SumSpace((shift_grid(3, 1.0), mult.grid))
    with pytest.raises(GridMismatchError, match="longer than its component"):
        DirectSumSemigroup(space, (PeriodicShiftGroup(5, 1.0), mult))
    d = model_to_dict(DirectSumSemigroup(space, (PeriodicShiftGroup(3, 1.0), mult)))
    d["parts"][0]["period_cells"] = 5
    with pytest.raises(GridMismatchError, match="longer than its component"):
        model_from_dict(d)


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
    # the lattice margin of `_steps` is wider than these steps; a time grid
    # from 0 still starts at 0, so a right shift can be classified on it
    np.testing.assert_array_equal(_step_times(h, 0.0, 4 * h), np.arange(5) * h)
    S = ShiftSemigroup(h, 4)
    classify(S, DenseSequence.gaussian(S.grid, 2, seed=0), ClassifyParams(horizon=8 * h))


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


@settings(max_examples=40, deadline=None)
@zoo_cases
def test_json_round_trip_evolves_bit_identically(kind, seed, steps):
    T = _zoo(kind, seed)
    models = [T]
    if kind == "conj_dsum":  # and its almost weakly stable approximant
        models.append(approximate_isometry_by_aws(T, 0.25, 2.0, n=16, copies=2))
    times = ZOO_STEP * np.array(steps, dtype=float)
    for M in models:
        M2 = model_from_dict(json.loads(json.dumps(model_to_dict(M))))
        assert type(M2) is type(M)
        X = _random_matrix(np.random.default_rng(seed), M.grid.size)
        np.testing.assert_array_equal(M2._evolve(times, X, False), M._evolve(times, X, False))
