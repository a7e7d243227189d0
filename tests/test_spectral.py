"""The spectral path of correlation, classify and the metrics over a zoo of
unitary models, and the `_evolve` path they take otherwise over shift and
Wold-sum pairs, checked against per-time loops over reference matrices built
from construction data."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stablesemi.constructions import (
    approximate_isometry_by_periodic, cantor_group, quantize_symbol)
from stablesemi.diagnostics import ClassifyParams, classify, correlation
from stablesemi.hilbert import (
    DenseSequence, GridMismatchError, HVector, SumSpace, WeightedGrid)
from stablesemi.metrics import MetricConfig, metric_contractive, metric_isometric, metric_unitary
from stablesemi import diagnostics, semigroups
from stablesemi.semigroups import (
    _PHASE_BLOCK,
    ConjugatedGroup,
    DirectSumSemigroup,
    InadmissibleTimeError,
    MultiplicationGroup,
    PeriodicShiftGroup,
    ShiftSemigroup,
    _correlations,
    _dft_form,
    _diff_norms,
    _phase_gaps,
    _phase_sums,
    _spectral,
    _time_split,
    one_step_matrix,
    shift_grid,
)

from reference import atom_masses, atoms, operator_matrix, weighted

KINDS = ("mult", "periodic", "dsum", "longer", "msum", "conj_mult", "conj_dsum", "conj_longer")
TOL = 1e-12


def _unitary(rng, k):
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _grid(rng, k):
    return WeightedGrid(np.arange(k, dtype=float), rng.uniform(0.2, 2.0, k))


def _mult(rng, k):
    return MultiplicationGroup(_grid(rng, k), rng.uniform(-3.0, 3.0, k))


def _dsum(rng, cells):
    """A multiplication block beside a 3-cell periodic shift on a component
    of `cells` cells: the shift is the identity above its period."""
    mult = _mult(rng, 4)
    periodic = PeriodicShiftGroup(3, 1.0)
    return DirectSumSemigroup(SumSpace((mult.grid, shift_grid(cells, 1.0))), (mult, periodic))


def _model(kind, seed):
    rng = np.random.default_rng(seed)
    cells = 5 if kind.endswith("longer") else 3
    if kind == "mult":
        return _mult(rng, 7)
    if kind == "periodic":
        return PeriodicShiftGroup(10, 0.5)
    if kind in ("dsum", "longer"):
        return _dsum(rng, cells)
    if kind == "msum":  # no part has a basis, so neither has the sum
        parts = (_mult(rng, 3), _mult(rng, 4))
        return DirectSumSemigroup(SumSpace(tuple(m.grid for m in parts)), parts)
    inner = _mult(rng, 6) if kind == "conj_mult" else _dsum(rng, cells)
    k = inner.grid.size
    return ConjugatedGroup(_grid(rng, k), _unitary(rng, k), inner)


def _approximant(T):
    """A nearby model with the same spectral basis."""
    if isinstance(T, MultiplicationGroup):
        return quantize_symbol(T, 16).approximant
    if isinstance(T, PeriodicShiftGroup):
        return PeriodicShiftGroup(T.period_cells, T.step)
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
    # a shift's extension cells meet zeros of y
    k = y.grid.size
    return np.array([np.vdot(weighted(y), (operator_matrix(T, t) @ weighted(x))[:k])
                     for t in times])


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
             else np.arange(0, max(1, int(np.floor(p.horizon / h + 1e-12))) + 1) * h)
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
        want = atoms(atom_masses(diag.symbol, diag.grid.weights), p.mass_threshold)
        assert [f for f, _ in rep.atoms] == [f for f, _ in want]
        np.testing.assert_allclose([m for _, m in rep.atoms], [m for _, m in want], rtol=TOL)
    else:
        assert rep.wiener_closed_form is None and rep.atoms == ()


def test_classify_groups_the_spectrum_once(monkeypatch):
    calls = []
    groups = diagnostics._frequency_groups
    monkeypatch.setattr(diagnostics, "_frequency_groups",
                        lambda f: calls.append(f.size) or groups(f))
    T = _model("conj_mult", 5)
    p = ClassifyParams(horizon=40.0, samples=120, mass_threshold=0.2)
    rep = classify(T, DenseSequence.gaussian(T.grid, 4, seed=5), p)
    # atoms and every witness's Wiener mass share one grouping
    assert calls == [T.inner.symbol.size]
    assert rep.wiener_closed_form is not None


def test_classify_weighs_the_time_grid_once(monkeypatch):
    calls = []
    weights = diagnostics._trapezoid_weights
    monkeypatch.setattr(diagnostics, "_trapezoid_weights",
                        lambda t: calls.append(t.size) or weights(t))
    T = _model("conj_mult", 6)
    p = ClassifyParams(horizon=40.0, samples=120)
    classify(T, DenseSequence.gaussian(T.grid, 2, seed=6), p)
    # cesaro_abs, cesaro_abs2 and the density of every witness share one grid
    assert calls == [120]


def _metric_times(S, T, cfg, lo):
    h = S.time_step or T.time_step
    if h is None:
        spb = cfg.samples_per_block
        return np.arange(lo * spb, cfg.N * spb + 1) / spb
    return np.arange(np.ceil(lo / h - 1e-12), np.floor(cfg.N / h + 1e-12) + 1) * h


def _images(S, T, t, x):
    """S(t)x and T(t)x in weighted coordinates, the shorter zero-padded."""
    a, b = (operator_matrix(M, t) @ weighted(x) for M in (S, T))
    rows = max(a.size, b.size)
    return np.pad(a, (0, rows - a.size)), np.pad(b, (0, rows - b.size))


def _metric_reference(S, T, cfg, forward=False):
    N, J = cfg.N, cfg.J
    times = _metric_times(S, T, cfg, 0 if forward else -N)
    value = 0.0
    for j, x in enumerate(cfg.dense_seq.vectors[:J], start=1):
        diffs = np.array([np.linalg.norm(np.subtract(*_images(S, T, t, x))) for t in times])
        for n in range(1, N + 1):
            value += 2.0 ** -(n + j) * diffs[np.abs(times) <= n + 1e-12].max() / x.norm()
    return value


def _contractive_reference(S, T, cfg):
    N, wit = cfg.N, cfg.dense_seq.vectors[: cfg.J]
    times = _metric_times(S, T, cfg, 0)
    value = 0.0
    for i, x in enumerate(wit, start=1):
        for j, y in enumerate(wit, start=1):
            diffs = []
            for t in times:
                a, b = _images(S, T, t, x)
                wy = np.pad(weighted(y), (0, a.size - y.grid.size))
                diffs.append(abs(np.vdot(wy, a) - np.vdot(wy, b)))
            diffs = np.array(diffs)
            for n in range(1, N + 1):
                value += (2.0 ** -(i + j + n) * diffs[times <= n + 1e-12].max()
                          / (x.norm() * y.norm()))
    return value


def _evolve_pair(name, seed):
    """Model pairs off the spectral path: a truncated shift against its
    periodization, and a conjugated Wold sum (Mult (+) Shift) against a
    conjugated multiplication group in another basis."""
    rng = np.random.default_rng(seed)
    if name == "shift_periodization":
        return ShiftSemigroup(0.5, 10), PeriodicShiftGroup(10, 0.5)
    mult = MultiplicationGroup(WeightedGrid.uniform(3), rng.uniform(-2.0, 2.0, 3))
    shift = ShiftSemigroup(1.0, 4)
    inner = DirectSumSemigroup(SumSpace((mult.grid, shift.grid)), (mult, shift))
    outer = _grid(rng, 7)
    other = MultiplicationGroup(WeightedGrid.uniform(7), rng.uniform(-2.0, 2.0, 7))
    return (ConjugatedGroup(outer, _unitary(rng, 7), inner),
            ConjugatedGroup(outer, _unitary(rng, 7), other))


evolve_pairs = given(st.sampled_from(["shift_periodization", "wold_sum"]), st.integers(0, 10 ** 6))


@settings(max_examples=10, deadline=None)
@evolve_pairs
def test_diagnostics_off_the_spectral_path_match_reference(name, seed):
    T, _ = _evolve_pair(name, seed)
    wit = DenseSequence.gaussian(T.grid, 3, seed=seed)
    x, y = wit[0], wit[1]
    times = np.arange(12) * T.time_step
    want = _corr_reference(T, x, y, times)
    assert np.abs(correlation(T, x, y, times).values - want).max() <= TOL * x.norm() * y.norm()
    p = ClassifyParams(horizon=8.0, eps=0.2)
    rep = classify(T, wit, p)
    ref, selfs = _classify_reference(T, wit, p)
    for key, want in ref.items():
        if key == "density_est" and any(np.any(np.abs(c - p.eps) < 1e-9) for c in selfs):
            continue  # a value on the threshold may fall either side
        assert getattr(rep, key) == pytest.approx(want, rel=TOL, abs=TOL), key


@settings(max_examples=10, deadline=None)
@evolve_pairs
def test_metrics_off_the_spectral_path_match_reference(name, seed):
    S, T = _evolve_pair(name, seed)
    cfg = MetricConfig(DenseSequence.gaussian(S.grid, 3, seed=seed), J=3, N=3)
    assert S.spectral_form() is None
    got = metric_isometric(S, T, cfg).value
    assert got == pytest.approx(_metric_reference(S, T, cfg, forward=True), rel=TOL, abs=TOL)
    got = metric_contractive(S, T, cfg).value
    assert got == pytest.approx(_contractive_reference(S, T, cfg), rel=TOL, abs=TOL)


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
        got = metric_contractive(S, T, cfg).value
        assert got == pytest.approx(_contractive_reference(S, T, cfg), rel=TOL, abs=TOL)


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
def test_spectral_path_builds_no_gram(kind, monkeypatch):
    # a Gram matrix Z* T(t) Z needs T(t) Z, so no model may evolve
    def no_evolve(self, times, X):
        raise AssertionError("_evolve called on the spectral path")

    for cls in (MultiplicationGroup, PeriodicShiftGroup, DirectSumSemigroup, ConjugatedGroup):
        monkeypatch.setattr(cls, "_evolve", no_evolve)
    S = _model(kind, 9)
    wit = DenseSequence.gaussian(S.grid, 3, seed=9)
    correlation(S, wit[0], wit[1], _times(S, np.random.default_rng(9)))
    classify(S, wit, ClassifyParams(horizon=20.0, samples=50))
    metric_contractive(S, _approximant(S), MetricConfig(wit, J=3, N=2, samples_per_block=4))


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


@pytest.mark.parametrize("kind", ["periodic", "dsum", "longer", "conj_dsum"])
def test_off_lattice_times_are_rejected(kind):
    T = _model(kind, 11)
    x = _vec(T.grid, np.random.default_rng(11))
    h = T.time_step
    with pytest.raises(InadmissibleTimeError):
        correlation(T, x, x, np.array([0.0, h, 1.25 * h]))
    # within the scalar check's tolerance the time is on the lattice
    trace = correlation(T, x, x, np.array([0.0, 3.0 * h * (1.0 + 1e-11)]))
    assert trace.values.size == 2


def test_spectral_form_exactly_for_unitary_models():
    # no form exactly for the models that hold a truncated shift: a bare one,
    # Mult (+) Shift and its conjugation
    shift, periodic = _evolve_pair("shift_periodization", 13)
    wold_sum = _evolve_pair("wold_sum", 13)[0]
    for T in (shift, wold_sum, wold_sum.inner):
        assert T.spectral_form() is None, T
    for T in (*(_model(kind, 13) for kind in KINDS), periodic):
        assert T.spectral_form() is not None, T


def test_direct_sums_of_different_steps_are_rejected():
    a, b = PeriodicShiftGroup(4, 1.0), PeriodicShiftGroup(3, 0.5)
    with pytest.raises(ValueError, match="incompatible time steps"):
        DirectSumSemigroup(SumSpace((a.grid, b.grid)), (a, b))


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


def test_shift_evolution_memory_is_blocked():
    # a strong metric gives the shift room for a cell per step: unblocked,
    # the 1201 times of this horizon would evolve 3 witnesses on 1210 rows
    # at once (> 60 MB)
    S, P = ShiftSemigroup(0.05, 10), PeriodicShiftGroup(10, 0.05)
    wit = DenseSequence.gaussian(S.grid, 3, seed=3)
    # inside a direct sum the shift's overflow is dropped, and must not be
    # built first either
    mult = MultiplicationGroup(WeightedGrid.uniform(2, 0.05), np.array([0.5, -1.0]))
    space = SumSpace((mult.grid, S.grid))
    wold, unitary = (DirectSumSemigroup(space, (mult, M)) for M in (S, P))
    sum_wit = DenseSequence.gaussian(space.combined, 3, seed=4)
    tracemalloc.start()
    try:
        classify(S, wit, ClassifyParams(horizon=60.0))
        metric_isometric(S, P, MetricConfig(wit, J=3, N=60))
        metric_isometric(wold, unitary, MetricConfig(sum_wit, J=3, N=60))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("T", [ShiftSemigroup(0.5, 8), PeriodicShiftGroup(8, 0.5)],
                         ids=["shift", "periodic"])
def test_vectors_on_an_extended_payload_are_zero_padded(T):
    rng = np.random.default_rng(17)
    x, y = _vec(T.grid, rng), _vec(shift_grid(14, 0.5), rng)  # y: 6 more cells
    wx, wy = np.pad(weighted(x), (0, 6)), weighted(y)
    times = np.arange(6) * 0.5
    for a, b, wa, wb in ((x, y, wx, wy), (y, x, wy, wx)):
        want = [np.vdot(wb, (operator_matrix(T, t, rows=14) @ wa)[:14]) for t in times]
        got = correlation(T, a, b, times).values
        assert np.abs(got - want).max() <= TOL * x.norm() * y.norm()
    # padding by hand changes nothing
    px = HVector(y.grid, np.pad(x.coeffs, (0, 6)))
    p = ClassifyParams(horizon=5.0, eps=0.2)
    assert classify(T, DenseSequence((x, y)), p) == classify(T, DenseSequence((px, y)), p)
    P = PeriodicShiftGroup(8, 0.5)
    got, want = (metric_isometric(T, P, MetricConfig(DenseSequence(w), J=2, N=2)).value
                 for w in ((x, y), (px, y)))
    assert got == want


@pytest.mark.parametrize("S", [ShiftSemigroup(1.0, 4), PeriodicShiftGroup(4, 1.0)],
                         ids=["shift", "periodic"])
def test_outputs_on_unrelated_grids_are_rejected(S):
    # the witnesses weigh like shift cells, but their points are not the
    # cells', so the shift rejects them where they enter
    g = WeightedGrid(np.arange(4) + 0.5, np.ones(4))
    M = MultiplicationGroup(g, np.linspace(-1.0, 1.0, 4))
    cfg = MetricConfig(DenseSequence.gaussian(g, 2, seed=1), J=2, N=2)
    with pytest.raises(GridMismatchError):
        metric_isometric(S, M, cfg)


def _dense_phase_sums(times, freqs, V):
    return np.exp(1j * np.outer(times, freqs)) @ V


def _kernel_inputs(rng, m, cols):
    freqs = rng.uniform(-4.0, 4.0, m)
    V = rng.standard_normal((m, cols)) + 1j * rng.standard_normal((m, cols))
    return freqs, V


def _assert_phase_sums(times, freqs, V, rows=slice(None)):
    got = _phase_sums(times, freqs, V)
    assert got.shape == (times.size, V.shape[1])
    err = np.abs(got[rows] - _dense_phase_sums(times[rows], freqs, V))
    assert np.all(err <= TOL * np.abs(V).sum(axis=0))


@pytest.mark.parametrize("M", [1, 64, 4096])
@pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 16, 17, 448])
def test_powers_are_within_j_products_of_exact(rows, M):
    rng = np.random.default_rng(rows * 10007 + M)
    theta = rng.uniform(-np.pi, np.pi, M)
    first = rng.uniform(0.5, 2.0, M) * np.exp(1j * rng.uniform(-np.pi, np.pi, M))
    ratio = semigroups._phases(np.ones(1), theta)[0]
    P = semigroups._powers(first, ratio, rows)
    assert P.shape == (rows, M)
    np.testing.assert_array_equal(P[0], first)
    # row j against first exp(i j theta) in long double: ratio is within
    # about 2u of exp(i theta) and a complex product adds sqrt(5) u, so row j
    # is within (2 + sqrt(5)) j u relative, as after j sequential products
    j = np.arange(rows)[:, None]
    exact = first * np.exp(1j * j.astype(np.longdouble) * theta.astype(np.longdouble))
    err = np.abs(P - exact).astype(float) / np.abs(first)
    assert np.all(err <= 5 * j * (np.finfo(float).eps / 2))


def _coarse_blocks(times, m, cols):
    rows = max(1, _PHASE_BLOCK // (m * cols))
    return -(-_time_split(times)[0].size // rows)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3, 97, 143, 144, 145, 1023, 1024, 1025, 20001, 200001]),
    t0=st.one_of(st.just(0.0), st.floats(-60.0, 60.0)),
    dt=st.one_of(st.floats(-0.1, -1e-3), st.floats(1e-3, 0.1)),
    m=st.one_of(st.integers(1, 40), st.just(300)),
    cols=st.sampled_from([1, 3, 6]),
    seed=st.integers(0, 10 ** 6),
)
# the coarse rows of these span 3 and 4 blocks, so the power carried from
# one block to the next is checked on every run
@example(n=200001, t0=-17.5, dt=-0.08, m=300, cols=1, seed=1)
@example(n=20001, t0=3.25, dt=0.05, m=300, cols=6, seed=2)
def test_phase_sums_on_arithmetic_grids(n, t0, dt, m, cols, seed):
    # the horizon stays that of the 1025-time grids: the float64 rounding of
    # t * f, which any evaluation shares, then stays far below TOL and the
    # check measures the kernel's own error, which grows with sqrt(n)
    dt *= min(1.0, 1024 / n)
    times = t0 + dt * np.arange(n)
    rng = np.random.default_rng(seed)
    freqs, V = _kernel_inputs(rng, m, cols)
    # the grid is recognized: b = ceil(sqrt(T)) fine offsets once T > 2
    assert _time_split(times)[1].size == (math.isqrt(n - 1) + 1 if n > 2 else 1)
    # long grids are checked on a sample of rows, with both ends
    rows = slice(None) if n <= 1025 else np.r_[0, np.sort(rng.integers(1, n - 1, 62)), n - 1]
    _assert_phase_sums(times, freqs, V, rows)


def test_arithmetic_grids_take_three_phase_rows(monkeypatch):
    pairs = []
    phases = semigroups._phases

    def counted(a, b):
        pairs.append(a.size * b.size)
        return phases(a, b)

    monkeypatch.setattr(semigroups, "_phases", counted)
    rng = np.random.default_rng(21)
    freqs, V = _kernel_inputs(rng, 300, 1)
    for n in (3, 2000, 200001):
        times = -4.0 + 0.0005 * np.arange(n)
        pairs.clear()
        got = _phase_sums(times, freqs, V)
        assert sum(pairs) <= 3 * freqs.size
        rows = np.r_[0, rng.integers(1, n, 30), n - 1]
        err = np.abs(got[rows] - _dense_phase_sums(times[rows], freqs, V))
        assert np.all(err <= TOL * np.abs(V).sum(axis=0))
    assert _coarse_blocks(times, freqs.size, 1) >= 3


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 400),
    m=st.integers(1, 40),
    cols=st.sampled_from([1, 3, 6]),
    jittered=st.booleans(),
    seed=st.integers(0, 10 ** 6),
)
def test_phase_sums_on_other_grids(n, m, cols, jittered, seed):
    rng = np.random.default_rng(seed)
    if jittered:  # off the progression by far more than rounding
        times = np.linspace(-50.0, 50.0, n)
        times[n // 2] += 5e-8
    else:
        times = np.sort(rng.uniform(-100.0, 100.0, n))
    freqs, V = _kernel_inputs(rng, m, cols)
    coarse, fine = _time_split(times)
    assert fine.size == 1 and np.array_equal(coarse, times)
    _assert_phase_sums(times, freqs, V)


def test_periodic_basis_is_built_once_and_read_only(monkeypatch):
    _dft_form.cache_clear()
    builds = []
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **k: builds.append(1) or fft(*a, **k))
    T = PeriodicShiftGroup(12, 0.5)
    x = _vec(T.grid, np.random.default_rng(3))
    freqs, basis = T.spectral_form()
    correlation(T, x, x, np.arange(8.0) * 0.5)
    classify(T, DenseSequence((x,)), ClassifyParams(horizon=10.0, samples=20))
    again = PeriodicShiftGroup(12, 0.5).spectral_form()
    assert len(builds) == 1
    assert again[0] is freqs and again[1] is basis
    for a in (freqs, basis):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def test_conjugated_basis_is_composed_once_and_read_only():
    # a conjugated direct sum holding a periodic shift: its spectral basis is
    # the product of the sum's basis and the conjugation, formed once per model
    T = _model("conj_dsum", 5)
    freqs, basis = T.spectral_form()
    assert T.spectral_form()[1] is basis
    np.testing.assert_array_equal(basis, T.inner.spectral_form()[1] @ T.basis)
    assert not basis.flags.writeable


def _sum_columns(S, seed, count=3):
    grid, Z = semigroups._columns((S,), DenseSequence.gaussian(S.grid, count, seed=seed))
    return grid, Z, (S.time_step or 0.3) * np.arange(40.0)


def test_sums_with_equal_blocks_share_the_spectral_path():
    # each conjugated part holds its own copy of one basis: the blocks are
    # equal arrays, not one array
    rng = np.random.default_rng(21)
    mult, inner, q, g = _mult(rng, 4), _mult(rng, 5), _unitary(rng, 5), _grid(rng, 5)
    space = SumSpace((mult.grid, g, shift_grid(6, 1.0)))
    S, T = (DirectSumSemigroup(space, (m, ConjugatedGroup(g, q.copy(), inner),
                                       PeriodicShiftGroup(3, 1.0)))
            for m in (mult, quantize_symbol(mult, 16).approximant))
    grid, Z, times = _sum_columns(S, 21)
    assert _spectral((S, T), grid, Z, times) is not None
    # the same values as the dense basis gives
    (fs, B), (ft, _) = S.spectral_form(), T.spectral_form()
    A = B @ Z
    rows, cols = np.triu_indices(Z.shape[1])
    values, coords = _correlations(S, grid, Z, rows, cols, times)
    want = _phase_sums(times, fs, A[:, rows] * A[:, cols].conj())
    np.testing.assert_allclose(coords, A, rtol=0, atol=4e-16 * np.abs(A).max())
    np.testing.assert_allclose(values, want, rtol=0, atol=4e-16 * np.abs(want).max())
    diffs = _diff_norms(S, T, grid, Z, times)
    want = np.sqrt(_phase_gaps(times, fs - ft, np.abs(A) ** 2))
    np.testing.assert_allclose(diffs, want, rtol=1e-15, atol=1e-15 * want.max())


def test_sums_with_different_blocks_take_evolve():
    rng = np.random.default_rng(22)
    mult, component = _mult(rng, 4), shift_grid(6, 1.0)
    space = SumSpace((mult.grid, component))
    # periodic blocks of other sizes at one offset
    by_period = [DirectSumSemigroup(space, (mult, PeriodicShiftGroup(p, 1.0))) for p in (3, 5)]
    # blocks of one size that differ
    cspace = SumSpace((mult.grid, WeightedGrid.uniform(5)))
    by_basis = [DirectSumSemigroup(cspace, (mult, ConjugatedGroup(
        WeightedGrid.uniform(5), _unitary(rng, 5), _mult(rng, 5)))) for _ in range(2)]
    # a periodic block against none
    by_count = [by_period[1], DirectSumSemigroup(
        space, (mult, MultiplicationGroup(component, rng.uniform(-3.0, 3.0, 6))))]
    for S, T in (by_period, by_basis, by_count):
        grid, Z, times = _sum_columns(S, 22)
        assert _spectral((S, T), grid, Z, times) is None
        want = np.linalg.norm(S._evolve(times, Z) - T._evolve(times, Z), axis=1)
        np.testing.assert_allclose(_diff_norms(S, T, grid, Z, times), want, rtol=0, atol=1e-12)


def test_blocks_of_other_sizes_with_one_dense_basis_share_the_spectral_path():
    # a 3-cell DFT block against a 5-cell block that is that DFT and the
    # identity: the block lists differ, the dense bases do not
    rng = np.random.default_rng(25)
    mult, component = _mult(rng, 4), shift_grid(5, 1.0)
    q = np.eye(5, dtype=complex)
    q[:3, :3] = _dft_form(3, 1.0)[1]
    inner = MultiplicationGroup(component, rng.uniform(-3.0, 3.0, 5))
    space = SumSpace((mult.grid, component))
    S, T = (DirectSumSemigroup(space, (mult, part)) for part in (
        PeriodicShiftGroup(3, 1.0), ConjugatedGroup(component, q, inner)))
    grid, Z, times = _sum_columns(S, 25)
    assert _spectral((S, T), grid, Z, times) is not None
    want = np.linalg.norm(S._evolve(times, Z) - T._evolve(times, Z), axis=1)
    np.testing.assert_allclose(_diff_norms(S, T, grid, Z, times), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("cells", [3, 5], ids=["period", "longer"])
def test_sum_and_its_periodic_approximant_share_the_spectral_path(cells, monkeypatch):
    # the approximant conjugates by the sum's dense basis: its one block is
    # laid out unlike the sum's, and the two are compared densely
    S = _dsum(np.random.default_rng(23), cells)
    P = approximate_isometry_by_periodic(S, 8)
    assert isinstance(P, ConjugatedGroup)
    grid, Z, times = _sum_columns(S, 23)
    assert _spectral((S, P), grid, Z, times) is not None
    assert _spectral((P, S), grid, Z, times) is not None

    def no_evolve(self, times, X):
        raise AssertionError("_evolve called on the spectral path")

    for cls in (MultiplicationGroup, PeriodicShiftGroup, DirectSumSemigroup, ConjugatedGroup):
        monkeypatch.setattr(cls, "_evolve", no_evolve)
    metric_unitary(S, P, MetricConfig(DenseSequence.gaussian(S.grid, 3, seed=23), J=3, N=2))


@pytest.mark.parametrize("kind", ["conj_mult", "conj_dsum", "conj_longer", "wold_sum"])
@pytest.mark.parametrize("k", [40, 80, 120])
def test_conjugated_one_step_matrix_is_evolve_on_the_identity(kind, k):
    rng = np.random.default_rng(k)
    if kind == "conj_mult":
        inner = _mult(rng, k)
    else:
        half = k // 2
        mult = _mult(rng, half)
        part = {"conj_dsum": PeriodicShiftGroup(k - half, 1.0),
                "conj_longer": PeriodicShiftGroup(k - half - 3, 1.0),
                "wold_sum": ShiftSemigroup(1.0, k - half)}[kind]
        inner = DirectSumSemigroup(SumSpace((mult.grid, shift_grid(k - half, 1.0))), (mult, part))
    V = ConjugatedGroup(_grid(rng, k), _unitary(rng, k), inner)
    h = V.time_step or 0.7
    np.testing.assert_array_equal(
        one_step_matrix(V, h), V._evolve(np.array([h]), np.eye(k, dtype=complex))[0])


def test_direct_sum_correlation_builds_no_dense_basis():
    # a dense basis of Mult(512) (+) Periodic(512) alone is 16 MiB
    mult = MultiplicationGroup(WeightedGrid.uniform(512), np.linspace(-3.0, 3.0, 512))
    periodic = PeriodicShiftGroup(512, 1.0)
    T = DirectSumSemigroup(SumSpace((mult.grid, periodic.grid)), (mult, periodic))
    x, y = DenseSequence.gaussian(T.grid, 2, seed=24).vectors
    times = np.arange(64.0)
    correlation(T, x, y, times)  # the memoized DFT block is built here
    tracemalloc.start()
    try:
        correlation(T, x, y, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 ** 2 * 16 // 4
