import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi import constructions, diagnostics
from stablesemi.cli import load_config
from stablesemi.constructions import cantor_group, cantor_transform_abs, quantize_symbol
from stablesemi.diagnostics import (
    ClassifyParams,
    CorrelationTrace,
    StabilityReport,
    _time_grid,
    cesaro_mean_abs2,
    classify,
    correlation,
)
from stablesemi.hilbert import DenseSequence, GridMismatchError, HVector, WeightedGrid
from stablesemi.metrics import (
    MetricConfig, _times, metric_contractive, metric_isometric, metric_unitary)
from stablesemi.semigroups import (
    InadmissibleTimeError, MultiplicationGroup, PeriodicShiftGroup, ShiftSemigroup)

from reference import atom_masses, atoms, weighted


def _two_atom():
    g = WeightedGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    return MultiplicationGroup(g, np.array([0.0, 1.0]))


def _one_witness(U, x, **params):
    """classify's report on U with x as its only witness."""
    return classify(U, DenseSequence((x,)), ClassifyParams(**params))


class TestTrace:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            CorrelationTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("times", [[0.0, np.nan], [0.0, np.inf], [np.nan]])
    def test_non_finite_times_are_inadmissible(self, times):
        R = ShiftSemigroup(1.0, 4)
        x = HVector(R.grid, np.ones(4))
        with pytest.raises(InadmissibleTimeError):
            correlation(R, x, x, times)
        with pytest.raises(InadmissibleTimeError):
            CorrelationTrace(np.array(times), np.zeros(len(times)))

    @pytest.mark.parametrize("times", [[0.0, np.inf], [1.0, 0.0], [[0.0, 1.0]], []])
    def test_correlation_checks_its_times_before_evolving(self, times, monkeypatch):
        def evolved(*args):
            raise AssertionError("evolved before the time grid was checked")

        monkeypatch.setattr(diagnostics, "_correlations", evolved)
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        with pytest.raises(ValueError):
            correlation(U, x, x, times)

    def test_correlation_of_phases(self):
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        tr = correlation(U, x, x, np.linspace(0, 10, 11))
        np.testing.assert_allclose(
            tr.values, 0.5 * (1.0 + np.exp(1j * tr.times)), atol=1e-14)


class TestCesaroWiener:
    def test_two_atom_limit_is_half(self):
        # (1/T) int |(1+e^{it})/2|^2 dt -> 1/4 + 1/4 = 1/2
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        for T, tol in [(100.0, 5e-3), (1000.0, 5e-4)]:
            tr = correlation(U, x, x, np.linspace(0.0, T, int(20 * T)))
            assert cesaro_mean_abs2(tr) == pytest.approx(0.5, abs=tol)
        assert _one_witness(U, x).wiener_closed_form == pytest.approx(0.5)

    def test_wiener_groups_equal_frequencies(self):
        g = WeightedGrid.uniform(4, 0.25)
        U = MultiplicationGroup(g, np.array([1.0, 1.0, 2.0, 3.0]))
        x = HVector(g, np.ones(4))  # a unit witness: classify normalizes its witnesses
        # masses: {1.0: 0.5, 2.0: 0.25, 3.0: 0.25} -> 0.25 + 0.0625 + 0.0625
        assert _one_witness(U, x).wiener_closed_form == pytest.approx(0.375)

    def test_wiener_rejects_a_vector_on_other_weights(self):
        U = MultiplicationGroup(WeightedGrid.uniform(4), np.array([1.0, 1.0, 2.0, 3.0]))
        with pytest.raises(GridMismatchError):
            _one_witness(U, HVector(WeightedGrid.uniform(4, 3.0), np.ones(4)))

    def test_wiener_rejects_a_vector_of_another_size(self):
        U = MultiplicationGroup(WeightedGrid.uniform(4), np.array([1.0, 1.0, 2.0, 3.0]))
        with pytest.raises(GridMismatchError):
            _one_witness(U, HVector(WeightedGrid.uniform(5), np.ones(5)))

    def test_cesaro_matches_closed_form_oracle(self):
        # independent closed form: mean of |sum w_k e^{it q_k}|^2 over [0,T]
        # = sum_k w_k^2 + sum_{k!=l} w_k w_l * (e^{iT(q_k-q_l)} - 1)/(iT(q_k-q_l))
        rng = np.random.default_rng(3)
        q = rng.uniform(0.3, 5.0, 5)
        g = WeightedGrid.uniform(5, 0.2)
        U = MultiplicationGroup(g, q)
        x = HVector(g, np.ones(5))
        T = 400.0
        closed = float(np.sum(np.full(5, 0.2) ** 2))
        for k in range(5):
            for l in range(5):
                if k != l:
                    d = q[k] - q[l]
                    closed += 0.04 * ((np.exp(1j * T * d) - 1.0) / (1j * T * d)).real
        tr = correlation(U, x, x, np.linspace(0.0, T, 80001))
        assert cesaro_mean_abs2(tr) == pytest.approx(closed, abs=1e-5)


class TestDensityAtoms:
    def test_chebyshev_relation_exact_on_grid(self):
        # density and Cesaro mean share the trapezoid weights of one grid
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        eps = 0.9
        rep = _one_witness(U, x, horizon=50.0, samples=501, eps=eps)
        assert rep.density_est >= 1.0 - rep.cesaro_abs2 / eps ** 2 - 1e-12

    def test_density_rejects_a_nan_eps(self):
        with pytest.raises(ValueError, match="eps must be a finite number > 0"):
            ClassifyParams(eps=np.nan)

    def test_atoms_sorted(self):
        g = WeightedGrid(np.arange(3.0), np.array([0.2, 0.5, 0.3]))
        U = MultiplicationGroup(g, np.array([4.0, 5.0, 6.0]))
        rep = _one_witness(U, HVector(g, np.ones(3)), mass_threshold=0.25)
        assert rep.atoms == ((5.0, pytest.approx(0.5)), (6.0, pytest.approx(0.3)))

    @settings(max_examples=200, deadline=None)
    @given(
        pool=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=24),
        weights=st.one_of(
            st.just(None),  # equal weights: equal-size groups tie in mass
            st.lists(st.floats(0.01, 10.0), min_size=24, max_size=24)),
        # an integer k puts the threshold on the mass of entry k's group
        threshold=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.integers(0, 23)),
    )
    def test_atoms_match_per_frequency_loop(self, pool, picks, weights, threshold):
        symbol = np.array([pool[i % len(pool)] for i in picks])
        w = np.ones(symbol.size) if weights is None else np.array(weights[: symbol.size])
        U = MultiplicationGroup(WeightedGrid(np.arange(float(symbol.size)), w), symbol)
        masses = atom_masses(symbol, w)
        if isinstance(threshold, int):
            threshold = masses[symbol[threshold % symbol.size]]
        want = atoms(masses, threshold)
        # the atoms read no witness and no time; the shortest grid suffices
        got = _one_witness(U, HVector(U.grid, np.ones(symbol.size)), horizon=1.0, samples=2,
                           mass_threshold=threshold).atoms
        assert [f for f, _ in got] == [f for f, _ in want]
        np.testing.assert_array_max_ulp(
            np.array([m for _, m in got]), np.array([m for _, m in want]), maxulp=4)


class TestClassify:
    @pytest.mark.parametrize("bad", [
        {"horizon": 0.0}, {"horizon": -3.0}, {"horizon": float("inf")}, {"horizon": float("nan")},
        {"samples": 1}, {"samples": 2.5}, {"samples": 200.0}, {"samples": True},
        {"eps": 0.0}, {"eps": float("nan")}, {"delta_wiener": -1e-3},
        {"delta_density": -0.1}, {"delta_density": 1.5}, {"mass_threshold": -0.1},
        {"mass_threshold": float("nan")}, {"horizon": True}, {"eps": True},
        {"eps": float("inf")}, {"delta_wiener": True}, {"delta_density": True},
        {"mass_threshold": True}, {"delta_wiener": "0.1"}, {"mass_threshold": None},
        {"delta_wiener": float("inf")}, {"mass_threshold": float("inf")},
    ])
    def test_params_reject_bad_values(self, bad):
        with pytest.raises(ValueError):
            ClassifyParams(**bad)

    def test_params_accept_the_edges(self):
        ClassifyParams(horizon=1e-3, samples=np.int64(2), delta_wiener=0.0, delta_density=0.0,
                       mass_threshold=0.0)
        ClassifyParams(delta_density=1.0)

    @pytest.mark.parametrize("h", [0.01, 0.05, 0.1, 0.2, 0.3, 0.6, 0.7, 1.0, 1.1, 1.3, 2.1])
    def test_step_grid_keeps_the_last_admissible_time(self, h):
        # horizon k*h written in decimals: for about one k in six, horizon / h
        # rounds to just below k
        for k in range(1, 28):
            horizon = round(k * h, 10)
            times = _time_grid(PeriodicShiftGroup(7, h), horizon, 10)
            assert times.size == k + 1 and times[-1] == pytest.approx(horizon, rel=1e-12)
            # the metrics' lattice over the same span (their step branch reads no config)
            np.testing.assert_array_equal(times, _times(None, h, 0.0, horizon))
        # a horizon shorter than the step still gets one step
        np.testing.assert_array_equal(_time_grid(PeriodicShiftGroup(7, h), h / 2, 10), [0.0, h])

    def test_point_spectrum_detected(self):
        U = _two_atom()
        seq = DenseSequence.gaussian(U.grid, 3, seed=0)
        rep = classify(U, seq, ClassifyParams(horizon=60.0, samples=600))
        assert rep.verdict == "PointSpectrumDetected"
        assert rep.atoms[0][1] == pytest.approx(0.5)

    def test_weakly_stable_truncated_shift(self):
        R = ShiftSemigroup(1.0, 40)
        seq = DenseSequence.gaussian(R.grid, 3, seed=1)
        rep = classify(R, seq, ClassifyParams(horizon=120.0))
        assert rep.verdict == "WeaklyStableEvidence"
        assert rep.tail_sup == pytest.approx(0.0, abs=1e-14)

    def test_aws_cantor_model(self):
        U = cantor_group(10)
        x = HVector(U.grid, np.ones(U.grid.size))
        seq = DenseSequence((x,))
        rep = classify(
            U, seq,
            ClassifyParams(horizon=300.0, samples=3000, delta_wiener=1e-2, eps=0.25,
                           delta_density=0.8),
        )
        assert rep.verdict == "AlmostWeaklyStableEvidence"
        assert rep.wiener_closed_form == pytest.approx(2.0 ** -10)

    def test_report_validates_verdict(self):
        with pytest.raises(ValueError):
            StabilityReport(0.1, 0.1, None, 0.5, (), "NotAVerdict", 0.0)


class TestMembership:
    """Membership in M_t and W_jkt is read off the correlation, as
    `category_escape` decides it: x is outside M_t when |<U(t)x, x>| > 1/2,
    and x_j inside W_jkt when its value is below 1/k."""

    def test_mt_two_atom(self):
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        # |<U(t)x,x>| = |cos(t/2)|: outside M_t at t = 0.1, inside at t = pi
        vals = np.abs(correlation(U, x, x, [0.1, np.pi]).values)
        np.testing.assert_allclose(vals, np.abs(np.cos([0.05, np.pi / 2])), atol=1e-15)
        assert vals[0] > 0.5 >= vals[1]

    @pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan])
    def test_non_finite_times_are_inadmissible(self, t):
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        with pytest.raises(InadmissibleTimeError):
            correlation(U, x, x, [t])

    @pytest.mark.parametrize("k", [2.5, True, np.nan])
    def test_wjkt_k_must_be_a_positive_integer(self, k, tmp_path):
        # the k of W_jkt is category_escape's k_max, checked where the config loads
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"scenario": "category_escape", "k_max": k}))
        with pytest.raises(ValueError, match="k_max must be an integer >= 1"):
            load_config(cfg)

    def test_eigenvector_proximity_blocks_decay(self):
        # a unit vector within delta of a unit eigenvector has
        # |<U(t)x, x>| >= 1 - delta^2 - 2 delta for all t; with delta < 1/4
        # the right side exceeds 1/3, so x never enters W_{j,3,t}
        rng = np.random.default_rng(7)
        g = WeightedGrid.uniform(6, 1.0 / 6.0)
        U = MultiplicationGroup(g, rng.uniform(0, 2 * np.pi, 6))
        e = HVector(g, np.sqrt(6.0) * np.eye(6)[2])  # unit eigenvector
        delta = 0.2
        pert = HVector(g, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        x = HVector(g, e.coeffs + (delta / pert.norm()) * pert.coeffs).normalized()
        d = np.linalg.norm(weighted(x) - weighted(e))
        floor = 1.0 - d * d - 2.0 * d
        assert floor > 1.0 / 3.0
        for t in np.linspace(0.0, 50.0, 101):
            val = abs(complex((g.weights * np.exp(1j * t * U.symbol) * x.coeffs
                               * np.conj(x.coeffs)).sum()))
            assert val >= floor - 1e-12


class TestCantorOracle:
    def test_product_formula_values(self):
        # |gamma(t)| = prod |cos(t 3^-k)|; at t = 3 pi the k=1 factor is |cos(pi)| = 1
        assert cantor_transform_abs(0.0)[0] == pytest.approx(1.0)
        v = cantor_transform_abs(np.array([3.0 * np.pi]))[0]
        manual = np.prod([abs(np.cos(3.0 * np.pi / 3.0 ** k)) for k in range(1, 40)])
        assert v == pytest.approx(manual, abs=1e-12)

    def test_product_equals_per_factor_product(self):
        # the in-place factors give the bits of the plain per-factor product
        ts = np.r_[-7.5, 0.0, np.linspace(0.0, 2e4, 2001)]
        # the docstring's depth: every factor past it is within the tolerance of 1
        tol = constructions._CANTOR_FACTOR_TOL
        depth = math.ceil(math.log(2e4 / math.sqrt(2.0 * tol)) / math.log(3.0))
        want = np.ones_like(ts)
        for k in range(1, depth + 1):
            want = want * np.abs(np.cos(ts / 3.0 ** k))
        np.testing.assert_array_equal(cantor_transform_abs(ts), want)

    def test_no_times_give_an_empty_array(self):
        out = cantor_transform_abs(np.array([]))
        assert out.shape == (0,) and out.dtype == float

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, [0.0, np.nan]])
    def test_non_finite_times_are_inadmissible(self, t):
        with pytest.raises(InadmissibleTimeError, match="not finite"):
            cantor_transform_abs(t)

    def test_discrete_model_converges_to_product(self):
        ts = np.linspace(0.0, 500.0, 400)
        oracle = cantor_transform_abs(ts)
        for depth, tol in [(8, 0.2), (12, 0.01)]:
            U = cantor_group(depth)
            disc = np.abs(np.exp(1j * np.outer(ts, U.grid.points)) @ U.grid.weights)
            assert np.abs(disc - oracle).max() < tol

    @pytest.mark.parametrize("depth", [2.5, True, 0])
    def test_depth_must_be_an_integer_at_least_one(self, depth):
        # 2.5 used to fail inside NumPy's right_shift, and True built a
        # depth-1 group; 0 is a guard
        with pytest.raises(ValueError, match="cantor depth"):
            cantor_group(depth)

    def test_depth_takes_numpy_integers(self):
        # guard: the integer check accepts NumPy integers
        assert cantor_group(np.int64(3)).grid.size == 8


class TestGridRule:
    """Every vector batch meets its models on one grid (`semigroups._columns`):
    the longest of theirs, each vector zero-padded onto it."""

    g = WeightedGrid(np.linspace(0.0, 1.0, 6), np.array([0.1, 0.3, 0.2, 0.15, 0.05, 0.2]))
    prefix = WeightedGrid(g.points[:4], g.weights[:4])
    other = WeightedGrid(g.points[1:5], g.weights[1:5])  # 4 points, not a prefix
    U = MultiplicationGroup(g, np.random.default_rng(0).uniform(-3.0, 3.0, g.size))
    V = quantize_symbol(U, 8).approximant
    NAMES = ("correlation", "classify", "metric_unitary", "metric_isometric",
             "metric_contractive")

    def _pair(self, grid):
        """Two vectors on grid and their copies zero-padded by hand onto g."""
        rng = np.random.default_rng(1)
        xs = [HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))
              for _ in range(2)]
        pad = [HVector(self.g, np.concatenate([x.coeffs, np.zeros(self.g.size - grid.size)]))
               for x in xs]
        return xs, pad

    def _calls(self, xs):
        """Each function of NAMES on U (and V) and the vectors xs, uncalled."""
        U, V = self.U, self.V
        x, y = xs
        seq = DenseSequence(tuple(xs))
        cfg = MetricConfig(seq, J=2, N=3, samples_per_block=8)
        times = np.linspace(0.0, 20.0, 41)
        return dict(zip(self.NAMES, (
            lambda: correlation(U, x, y, times).values.tolist(),
            lambda: classify(U, seq, ClassifyParams(horizon=20.0, samples=50)),
            lambda: metric_unitary(U, V, cfg),
            lambda: metric_isometric(U, V, cfg),
            lambda: metric_contractive(U, V, cfg),
        )))

    def test_a_prefix_vector_is_its_padded_copy(self):
        xs, pad = self._pair(self.prefix)
        got = {name: call() for name, call in self._calls(xs).items()}
        assert got == {name: call() for name, call in self._calls(pad).items()}

    @pytest.mark.parametrize("name", NAMES)
    def test_a_grid_that_is_not_a_prefix_is_rejected(self, name):
        with pytest.raises(GridMismatchError):
            self._calls(self._pair(self.other)[0])[name]()
