import numpy as np
import pytest

from stablesemi.hilbert import DenseSequence, HVector, SumSpace, WeightedGrid
from stablesemi.metrics import (
    MetricConfig,
    metric_contractive,
    metric_isometric,
    metric_unitary,
)
from stablesemi.semigroups import (
    ConjugatedGroup, DirectSumSemigroup, InadmissibleTimeError, MultiplicationGroup,
    ShiftSemigroup)


def _mult(symbol):
    symbol = np.asarray(symbol, dtype=float)
    g = WeightedGrid.uniform(symbol.size, 1.0 / symbol.size)
    return MultiplicationGroup(g, symbol)


def _cfg(grid, J=6, N=6, spb=32, seed=0):
    return MetricConfig(DenseSequence.gaussian(grid, max(J, 6), seed=seed), J=J, N=N,
                        samples_per_block=spb)


class TestConfig:
    def test_validation(self):
        g = WeightedGrid.uniform(4)
        seq = DenseSequence.gaussian(g, 4, seed=0)
        with pytest.raises(ValueError):
            MetricConfig(seq, J=5)
        with pytest.raises(ValueError):
            MetricConfig(seq, J=2, N=0)

    @pytest.mark.parametrize("key", ["J", "N", "samples_per_block"])
    @pytest.mark.parametrize("bad", [2.5, 3.0, True])
    def test_sizes_must_be_integers(self, key, bad):
        seq = DenseSequence.gaussian(WeightedGrid.uniform(4), 4, seed=0)
        with pytest.raises(ValueError):
            MetricConfig(seq, **{"J": 2, key: bad})
        # NumPy integers are counts too
        assert MetricConfig(seq, **{"J": 2, key: np.int64(3)})


class TestMetricAxioms:
    def test_zero_on_identical_models(self):
        U = _mult(np.linspace(0.0, 2.0, 8))
        cfg = _cfg(U.grid)
        assert metric_unitary(U, U, cfg).value == pytest.approx(0.0, abs=1e-14)

    def test_symmetry(self):
        U = _mult(np.linspace(0.0, 2.0, 8))
        V = _mult(np.linspace(0.1, 2.3, 8))
        cfg = _cfg(U.grid)
        assert metric_unitary(U, V, cfg).value == pytest.approx(
            metric_unitary(V, U, cfg).value, abs=1e-13)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        U = _mult(rng.uniform(0, 2, 8))
        V = _mult(rng.uniform(0, 2, 8))
        W = _mult(rng.uniform(0, 2, 8))
        cfg = _cfg(U.grid)
        duv = metric_unitary(U, V, cfg).value
        dvw = metric_unitary(V, W, cfg).value
        duw = metric_unitary(U, W, cfg).value
        assert duw <= duv + dvw + 1e-12

    def test_positive_on_distinct_models(self):
        U = _mult([0.0, 1.0])
        V = _mult([0.0, 1.5])
        assert metric_unitary(U, V, _cfg(U.grid)).value > 0.01


class TestClosedFormTerm:
    def test_single_block_single_witness(self):
        # models e^{0} vs e^{it}: sup_{|t|<=n} |e^{it} - 1| = 2 for n >= pi,
        # and the (n=1, j=1) term with witness norm 1 is sup * 2^{-2}
        g = WeightedGrid.uniform(1, 1.0)
        U = MultiplicationGroup(g, np.array([0.0]))
        V = MultiplicationGroup(g, np.array([1.0]))
        x = HVector(g, np.ones(1))
        cfg = MetricConfig(DenseSequence((x,)), J=1, N=1, samples_per_block=64)
        got = metric_unitary(U, V, cfg)
        sup = max(abs(np.exp(1j * t) - 1.0) for t in np.linspace(-1, 1, 129))
        assert got.value == pytest.approx(sup * 0.25, abs=1e-12)
        assert got.truncation_bound == pytest.approx(2.0 * (1.0 - 0.25))
        # Lipschitz slack: (0 + 1) * dt / 2 summed against the weights
        assert got.sampling_slack == pytest.approx((1.0 / 64.0) / 2.0 * 0.25)

    @pytest.mark.parametrize("J, N, spb", [(3, 4, 16), (2, 5, 2), (1, 1, 64)])
    def test_contractive_bound_and_slack_closed_forms(self, J, N, spb):
        # max frequencies 2.5 and 1.5: the slack per entry is the strong
        # metric's, (2.5 + 1.5) dt / 2
        U = _mult([0.0, 1.0, 2.5])
        V = _mult([0.5, 1.0, -1.5])
        mv = metric_contractive(U, V, _cfg(U.grid, J=J, N=N, spb=spb))
        assert mv.truncation_bound == 2.0 * (1.0 - (1.0 - 2.0 ** -J) ** 2 * (1.0 - 2.0 ** -N))
        slack = (2.5 + 1.5) * (1.0 / spb) / 2.0
        weights = sum(2.0 ** -(i + j + n) for n in range(1, N + 1)
                      for i in range(1, J + 1) for j in range(1, J + 1))
        assert mv.sampling_slack == pytest.approx(min(slack, 2.0) * weights, rel=1e-15)

    def test_contractive_slack_covers_a_finer_sampling(self):
        # the sup over continuous time is within the slack of the sampled one:
        # 64 times the samples never rise past value + slack
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            U, V = _mult(rng.uniform(-3.0, 3.0, 6)), _mult(rng.uniform(-3.0, 3.0, 6))
            coarse = metric_contractive(U, V, _cfg(U.grid, J=3, N=3, spb=4, seed=seed))
            fine = metric_contractive(U, V, _cfg(U.grid, J=3, N=3, spb=256, seed=seed))
            worst = max(worst, (fine.value - coarse.value) / coarse.sampling_slack)
        assert worst <= 1.0


class TestOrderingAndRefinement:
    def test_contractive_leq_isometric(self):
        # |<(S-T)x, y>| <= ||(S-T)x|| ||y||; with normalized weights the weak
        # metric never exceeds the strong one on the same witnesses
        rng = np.random.default_rng(2)
        U = _mult(rng.uniform(0, 2, 6))
        V = _mult(rng.uniform(0, 2, 6))
        cfg = _cfg(U.grid, J=4, N=4)
        dc = metric_contractive(U, V, cfg).value
        di = metric_isometric(U, V, cfg).value
        assert dc <= di + 1e-12

    def test_truncation_refinement(self):
        # growing J and N can only grow the value, and the certified tail
        # plus the value is monotone enough to sandwich the limit
        rng = np.random.default_rng(3)
        U = _mult(rng.uniform(0, 2, 6))
        V = _mult(rng.uniform(0, 2, 6))
        seq = DenseSequence.gaussian(U.grid, 10, seed=4)
        prev_val, prev_hi = -1.0, np.inf
        for J, N in [(2, 2), (4, 4), (8, 8)]:
            cfg = MetricConfig(seq, J=J, N=N, samples_per_block=32)
            mv = metric_unitary(U, V, cfg)
            hi = mv.value + mv.truncation_bound
            assert mv.value >= prev_val - 1e-12
            assert hi <= prev_hi + 1e-12
            prev_val, prev_hi = mv.value, hi

    def test_tail_bound_closed_form(self):
        U = _mult([0.0, 1.0])
        cfg = _cfg(U.grid, J=3, N=5)
        mv = metric_unitary(U, U, cfg)
        expect = 2.0 * (1.0 - (1.0 - 2.0 ** -3) * (1.0 - 2.0 ** -5))
        assert mv.truncation_bound == pytest.approx(expect)


class TestDiscreteTimes:
    def test_discrete_sup_is_exact(self):
        R = ShiftSemigroup(1.0, 16)
        cfg = _cfg(R.grid, J=3, N=4)
        mv = metric_isometric(R, R, cfg)
        assert mv.sampling_slack is None
        assert mv.value == pytest.approx(0.0, abs=1e-14)

    def test_incompatible_steps_rejected(self):
        R1 = ShiftSemigroup(1.0, 8)
        R2 = ShiftSemigroup(0.5, 16)
        cfg = _cfg(R1.grid, J=2, N=2)
        with pytest.raises(ValueError):
            metric_isometric(R1, R2, cfg)

    def test_requires_unitary_for_strong_star(self):
        # a model that is not unitary holds a truncated shift, bare or inside
        # Q*(Mult (+) Shift)Q, which rejects the first negative time
        R = ShiftSemigroup(1.0, 8)
        M = _mult([0.3, -1.2, 2.0])
        inner = DirectSumSemigroup(SumSpace((M.grid, R.grid)), (M, R))
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((11, 11)))
        V = ConjugatedGroup(WeightedGrid.uniform(11), q, inner)
        for T in (R, V):
            with pytest.raises(InadmissibleTimeError):
                metric_unitary(T, T, _cfg(T.grid, J=2, N=2))
