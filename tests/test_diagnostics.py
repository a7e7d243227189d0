import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi.constructions import cantor_group, cantor_transform_abs
from stablesemi.diagnostics import (
    ClassifyParams,
    CorrelationTrace,
    StabilityReport,
    cesaro_mean_abs2,
    classify,
    correlation,
    density_estimate,
    detect_atoms,
    mt_membership,
    wiener_limit,
    wjkt_membership,
)
from stablesemi.hilbert import DenseSequence, HVector, WeightedGrid
from stablesemi.semigroups import MultiplicationGroup, ShiftSemigroup


def _two_atom():
    g = WeightedGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    return MultiplicationGroup(g, np.array([0.0, 1.0]))


class TestTrace:
    def test_requires_increasing_times(self):
        with pytest.raises(ValueError):
            CorrelationTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

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
        assert wiener_limit(U, x) == pytest.approx(0.5)

    def test_wiener_groups_equal_frequencies(self):
        g = WeightedGrid.uniform(4, 0.25)
        U = MultiplicationGroup(g, np.array([1.0, 1.0, 2.0, 3.0]))
        x = HVector(g, np.ones(4))
        # masses: {1.0: 0.5, 2.0: 0.25, 3.0: 0.25} -> 0.25 + 0.0625 + 0.0625
        assert wiener_limit(U, x) == pytest.approx(0.375)

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
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        tr = correlation(U, x, x, np.linspace(0.0, 50.0, 501))
        eps = 0.9
        dens = density_estimate(tr, eps)
        ces = cesaro_mean_abs2(tr)
        assert dens >= 1.0 - ces / eps ** 2 - 1e-12

    def test_detect_atoms_sorted(self):
        g = WeightedGrid(np.arange(3.0), np.array([0.2, 0.5, 0.3]))
        U = MultiplicationGroup(g, np.array([4.0, 5.0, 6.0]))
        atoms = detect_atoms(U, 0.25)
        assert atoms == [(5.0, pytest.approx(0.5)), (6.0, pytest.approx(0.3))]

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
    def test_detect_atoms_matches_per_frequency_loop(self, pool, picks, weights, threshold):
        symbol = np.array([pool[i % len(pool)] for i in picks])
        w = np.ones(symbol.size) if weights is None else np.array(weights[: symbol.size])
        U = MultiplicationGroup(WeightedGrid(np.arange(float(symbol.size)), w), symbol)
        # the docstring, one frequency at a time: each distinct frequency's
        # weight over the total, kept above the threshold, heaviest first
        # (a stable sort, so equal masses stay in frequency order)
        masses = {}
        for lam in sorted(set(symbol.tolist())):
            mass = 0.0
            for q, wq in zip(symbol, w):
                if q == lam:
                    mass += wq
            masses[lam] = mass / U.grid.total_mass
        if isinstance(threshold, int):
            threshold = masses[symbol[threshold % symbol.size]]
        want = sorted(((lam, m) for lam, m in masses.items() if m > threshold),
                      key=lambda fm: -fm[1])
        got = detect_atoms(U, threshold)
        assert [f for f, _ in got] == [f for f, _ in want]
        np.testing.assert_array_max_ulp(
            np.array([m for _, m in got]), np.array([m for _, m in want]), maxulp=4)


class TestClassify:
    @pytest.mark.parametrize("bad", [
        {"horizon": 0.0}, {"horizon": -3.0}, {"horizon": float("inf")}, {"horizon": float("nan")},
        {"samples": 1}, {"samples": 2.5}, {"samples": 200.0}, {"samples": True},
        {"eps": 0.0}, {"eps": float("nan")}, {"delta_wiener": -1e-3},
        {"delta_density": -0.1}, {"delta_density": 1.5}, {"mass_threshold": -0.1},
    ])
    def test_params_reject_bad_values(self, bad):
        with pytest.raises(ValueError):
            ClassifyParams(**bad)

    def test_params_accept_the_edges(self):
        ClassifyParams(horizon=1e-3, samples=np.int64(2), delta_wiener=0.0, delta_density=0.0,
                       mass_threshold=0.0)
        ClassifyParams(delta_density=1.0)

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
            StabilityReport(0.1, 0.1, None, 0.5, (), "NotAVerdict")


class TestMembership:
    def test_mt_requires_unit_norm(self):
        U = _two_atom()
        with pytest.raises(ValueError):
            mt_membership(U, HVector(U.grid, 2.0 * np.ones(2)), 1.0)

    def test_mt_two_atom(self):
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        # |<U(t)x,x>| = |cos(t/2)|
        assert mt_membership(U, x, np.pi)
        assert not mt_membership(U, x, 0.1)

    def test_wjkt_strict_inequality(self):
        U = _two_atom()
        x = HVector(U.grid, np.ones(2))
        t = 2.0 * np.arccos(1.0 / 3.0)
        assert not wjkt_membership(U, x, 3, t)  # exactly 1/3 is excluded
        assert wjkt_membership(U, x, 3, t + 1e-6)

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
        pert = (delta / pert.norm()) * pert
        x = (e + pert).normalized()
        d = (x - e).norm()
        floor = 1.0 - d * d - 2.0 * d
        assert floor > 1.0 / 3.0
        for t in np.linspace(0.0, 50.0, 101):
            val = abs(complex((g.weights * np.exp(1j * t * U.symbol) * x.coeffs
                               * np.conj(x.coeffs)).sum()))
            assert val >= floor - 1e-12
            assert not wjkt_membership(U, x, 3, t)


class TestCantorOracle:
    def test_product_formula_values(self):
        # |gamma(t)| = prod |cos(t 3^-k)|; at t = 3 pi the k=1 factor is |cos(pi)| = 1
        assert cantor_transform_abs(0.0)[0] == pytest.approx(1.0)
        v = cantor_transform_abs(np.array([3.0 * np.pi]))[0]
        manual = np.prod([abs(np.cos(3.0 * np.pi / 3.0 ** k)) for k in range(1, 40)])
        assert v == pytest.approx(manual, abs=1e-12)

    def test_discrete_model_converges_to_product(self):
        ts = np.linspace(0.0, 500.0, 400)
        oracle = cantor_transform_abs(ts)
        for depth, tol in [(8, 0.2), (12, 0.01)]:
            U = cantor_group(depth)
            disc = np.abs(np.exp(1j * np.outer(ts, U.grid.points)) @ U.grid.weights)
            assert np.abs(disc - oracle).max() < tol
