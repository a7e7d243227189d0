"""The spectral path of correlation, classify and the strong metrics, checked
against plain apply loops over a zoo of unitary models."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablesemi.constructions import cantor_group, quantize_symbol
from stablesemi.diagnostics import ClassifyParams, classify, correlation, detect_atoms
from stablesemi.hilbert import (
    DenseSequence, GridMismatchError, HVector, SumSpace, WeightedGrid, difference_norm,
    inner_product)
from stablesemi.metrics import MetricConfig, metric_isometric, metric_unitary
from stablesemi.semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
)

KINDS = ("mult", "periodic", "dsum", "conj_mult", "conj_dsum")
TOL = 1e-12


def _unitary(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _grid(rng, k):
    return WeightedGrid(np.arange(k, dtype=float), rng.uniform(0.2, 2.0, k))


def _mult(rng, k):
    return MultiplicationGroup(_grid(rng, k), rng.uniform(-3.0, 3.0, k))


def _dsum(rng):
    mult = _mult(rng, 4)
    periodic = PeriodicShiftGroup(3, 1.0)
    return DirectSumSemigroup(SumSpace((mult.grid, periodic.grid)), (mult, periodic))


def _model(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "mult":
        return _mult(rng, 7)
    if kind == "periodic":
        return PeriodicShiftGroup(5, 0.5, fiber_dim=2)
    if kind == "dsum":
        return _dsum(rng)
    inner = _mult(rng, 6) if kind == "conj_mult" else _dsum(rng)
    k = inner.grid.size
    return ConjugatedGroup(_grid(rng, k), _unitary(rng, k), inner)


def _approximant(T):
    """A nearby model with the same spectral basis."""
    if isinstance(T, MultiplicationGroup):
        return quantize_symbol(T, 16).approximant
    if isinstance(T, PeriodicShiftGroup):
        return PeriodicShiftGroup(T.period_cells, T.step, T.fiber_dim)
    if isinstance(T, DirectSumSemigroup):
        return DirectSumSemigroup(T.space, tuple(_approximant(p) for p in T.parts))
    return ConjugatedGroup(T.grid, T.basis, _approximant(T.inner))


def _vec(grid, rng):
    return HVector(grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size))


def _times(T, rng, count=25):
    h = T.time_step
    if h is None:
        return np.sort(rng.uniform(-20.0, 20.0, count))
    return h * np.arange(-count // 2, count - count // 2, dtype=float)


def _corr_reference(T, x, y, times):
    return np.array([inner_product(T.apply(t, x), y) for t in times])


cases = given(st.sampled_from(KINDS), st.integers(0, 10 ** 6))
few = settings(max_examples=20, deadline=None)


@few
@cases
def test_spectral_form_reproduces_apply(kind, seed):
    T = _model(kind, seed)
    rng = np.random.default_rng(seed + 1)
    freqs, basis = T.spectral_form()
    k = T.grid.size
    B = np.eye(k) if basis is None else basis
    np.testing.assert_allclose(B.conj().T @ B, np.eye(k), atol=TOL)
    sw = np.sqrt(T.grid.weights)
    x = _vec(T.grid, rng)
    for t in _times(T, rng, 5):
        z = B.conj().T @ (np.exp(1j * t * freqs) * (B @ (sw * x.coeffs)))
        assert np.abs(z / sw - T.apply(t, x).coeffs).max() <= TOL * x.norm() / sw.min()


@few
@cases
def test_correlation_matches_apply_loop(kind, seed):
    T = _model(kind, seed)
    rng = np.random.default_rng(seed + 2)
    x, y = _vec(T.grid, rng), _vec(T.grid, rng)
    times = _times(T, rng)
    got = correlation(T, x, y, times)
    want = _corr_reference(T, x, y, times)
    np.testing.assert_array_equal(got.times, times)
    assert np.abs(got.values - want).max() <= TOL * x.norm() * y.norm()


def _classify_reference(T, witnesses, p):
    h = T.time_step
    times = (np.linspace(0.0, p.horizon, p.samples) if h is None
             else np.arange(0, max(1, int(np.floor(p.horizon / h))) + 1) * h)
    normed = [x.normalized() for x in witnesses]
    w = np.zeros(times.size)
    w[:-1] += np.diff(times) / 2.0
    w[1:] += np.diff(times) / 2.0
    selfs = [np.abs(_corr_reference(T, x, x, times)) for x in normed]
    tail = times >= p.horizon / 2.0
    tail_sup = max(np.abs(_corr_reference(T, x, y, times)[tail]).max()
                   for i, x in enumerate(normed) for y in normed[i:])
    ref = {
        "cesaro_abs2": max((w * c ** 2).sum() / (times[-1] - times[0]) for c in selfs),
        "cesaro_abs": max((w * c).sum() / w.sum() for c in selfs),
        "density_est": min((w * (c < p.eps)).sum() / w.sum() for c in selfs),
        "tail_sup": tail_sup,
    }
    return ref, selfs


@few
@cases
def test_classify_matches_apply_loop(kind, seed):
    T = _model(kind, seed)
    wit = DenseSequence.gaussian(T.grid, 3, seed=seed)
    p = ClassifyParams(horizon=40.0, samples=120, eps=0.2, mass_threshold=0.2)
    rep = classify(T, wit, p)
    ref, selfs = _classify_reference(T, wit, p)
    for name, want in ref.items():
        if name == "density_est" and any(np.any(np.abs(c - p.eps) < 1e-9) for c in selfs):
            continue  # a value on the threshold may fall either side
        assert getattr(rep, name) == pytest.approx(want, rel=TOL, abs=TOL), name
    diag = T.inner if isinstance(T, ConjugatedGroup) else T
    if isinstance(diag, MultiplicationGroup):
        # random frequencies are distinct: the Wiener limit is the sum of
        # squared spectral masses
        B = getattr(T, "basis", np.eye(T.grid.size))
        sw = np.sqrt(T.grid.weights)
        want = max(float((np.abs(B @ (sw * x.normalized().coeffs)) ** 4).sum()) for x in wit)
        assert rep.wiener_closed_form == pytest.approx(want, rel=TOL)
        assert rep.atoms == tuple(detect_atoms(diag, p.mass_threshold))
    else:
        assert rep.wiener_closed_form is None and rep.atoms == ()


def _metric_reference(S, T, cfg):
    h = S.time_step or T.time_step
    N, J = cfg.N, cfg.J
    if h is None:
        times = np.arange(-N * cfg.samples_per_block, N * cfg.samples_per_block + 1) / cfg.samples_per_block
    else:
        times = np.arange(np.ceil(-N / h - 1e-12), np.floor(N / h + 1e-12) + 1) * h
    value = 0.0
    for j, x in enumerate(cfg.dense_seq.vectors[:J], start=1):
        diffs = np.array([difference_norm(S.apply(t, x), T.apply(t, x)) for t in times])
        for n in range(1, N + 1):
            value += 2.0 ** -(n + j) * diffs[np.abs(times) <= n + 1e-12].max() / x.norm()
    return value


@few
@cases
def test_metric_unitary_matches_apply_loop(kind, seed):
    S = _model(kind, seed)
    rng = np.random.default_rng(seed + 3)
    k = S.grid.size
    other_basis = ConjugatedGroup(
        S.grid, _unitary(rng, k),
        MultiplicationGroup(WeightedGrid.uniform(k), rng.uniform(-3.0, 3.0, k)))
    cfg = MetricConfig(DenseSequence.gaussian(S.grid, 3, seed=seed), J=3, N=3,
                       samples_per_block=8)
    for T in (_approximant(S), other_basis):
        got = metric_unitary(S, T, cfg).value
        assert got == pytest.approx(_metric_reference(S, T, cfg), rel=TOL, abs=TOL)


@pytest.mark.parametrize("kind", KINDS)
def test_spectral_path_makes_no_apply_calls(kind, monkeypatch):
    S = _model(kind, 5)
    T = _approximant(S)
    wit = DenseSequence.gaussian(S.grid, 3, seed=5)
    cfg = MetricConfig(wit, J=3, N=2, samples_per_block=4)

    def no_apply(self, t, x):
        raise AssertionError("apply called on the spectral path")

    for cls in (MultiplicationGroup, PeriodicShiftGroup, DirectSumSemigroup, ConjugatedGroup):
        monkeypatch.setattr(cls, "apply", no_apply)
    correlation(S, wit[0], wit[1], _times(S, np.random.default_rng(5)))
    classify(S, wit, ClassifyParams(horizon=20.0, samples=50))
    metric_unitary(S, T, cfg)
    metric_isometric(S, T, cfg)


@pytest.mark.parametrize("kind", KINDS)
def test_off_grid_vectors_are_rejected(kind):
    T = _model(kind, 7)
    rng = np.random.default_rng(7)
    on = _vec(T.grid, rng)
    off = _vec(WeightedGrid.uniform(T.grid.size, 3.7), rng)
    times = _times(T, rng)
    with pytest.raises(GridMismatchError):
        correlation(T, off, on, times)
    with pytest.raises(GridMismatchError):
        correlation(T, on, off, times)
    with pytest.raises(GridMismatchError):
        classify(T, DenseSequence((on, off)), ClassifyParams(horizon=10.0, samples=20))
    with pytest.raises(GridMismatchError):
        metric_unitary(T, _approximant(T), MetricConfig(DenseSequence((off,)), J=1, N=1))


@pytest.mark.parametrize("kind", ["periodic", "dsum", "conj_dsum"])
def test_off_lattice_times_are_rejected(kind):
    T = _model(kind, 11)
    x = _vec(T.grid, np.random.default_rng(11))
    h = T.time_step
    with pytest.raises(InadmissibleTimeError):
        correlation(T, x, x, np.array([0.0, h, 1.25 * h]))
    # within the scalar check's tolerance the time is on the lattice
    trace = correlation(T, x, x, np.array([0.0, 3.0 * h * (1.0 + 1e-11)]))
    assert trace.values.size == 2


def test_direct_sums_without_a_spectral_form_fall_back():
    a, b = PeriodicShiftGroup(4, 1.0), PeriodicShiftGroup(3, 0.5)
    mixed_steps = DirectSumSemigroup(SumSpace((a.grid, b.grid)), (a, b))
    # a 3-cell period acting on a 5-cell component: identity above the period
    longer = DirectSumSemigroup(
        SumSpace((PeriodicShiftGroup(5, 1.0).grid,)), (PeriodicShiftGroup(3, 1.0),))
    rng = np.random.default_rng(13)
    for T in (mixed_steps, longer):
        assert T.spectral_form() is None
        x, y = _vec(T.grid, rng), _vec(T.grid, rng)
        times = np.arange(6.0)
        np.testing.assert_allclose(
            correlation(T, x, y, times).values, _corr_reference(T, x, y, times), rtol=0, atol=TOL)


def test_correlation_memory_is_blocked():
    # a dense exp(i t (x) q) for 8001 times x 1024 atoms would take > 260 MB
    U = cantor_group(10)
    x = HVector(U.grid, np.ones(U.grid.size))
    times = np.linspace(0.0, 1.0e4, 8001)
    tracemalloc.start()
    try:
        correlation(U, x, x, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
