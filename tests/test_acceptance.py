"""Acceptance gate: nine numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 3 is split: the exact identity holds, but the claimed
factor-2 tail inequality is false for generic complex payloads (the cross
term in the expansion of the error is unsigned; the provable constant is 4),
so that sub-criterion fails honestly.
"""

import time

import numpy as np
import pytest
import scipy.signal

from stablesemi.cli import (
    run_category_escape,
    run_quantization_sweep,
    run_wold_benchmark,
)
from stablesemi.constructions import (
    cantor_group,
    cantor_transform_abs,
    distinct_frequency_certificate,
    inflate_and_perturb,
    near_identity_aws,
    periodization_error_identity,
    quantize_symbol,
)
from stablesemi.diagnostics import (
    CorrelationTrace,
    cesaro_mean_abs2,
    classify,
)
from stablesemi.hilbert import DenseSequence, HVector, WeightedGrid
from stablesemi.metrics import MetricConfig, metric_contractive, metric_isometric, metric_unitary
from stablesemi.semigroups import MultiplicationGroup, ShiftSemigroup

from reference import weighted


def _report(num: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({label}): {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def _autocorr(U: MultiplicationGroup, x: HVector, times: np.ndarray) -> np.ndarray:
    mass = U.grid.weights * np.abs(x.coeffs) ** 2
    return np.exp(1j * np.outer(times, U.symbol)) @ mass


def _lattice_autocorr(U: MultiplicationGroup, x: HVector, times: np.ndarray,
                      depth: int) -> np.ndarray:
    """`_autocorr` of a depth-d Cantor group on an arithmetic time grid, as a
    chirp-z transform (Rabiner, Schafer and Rader, 1969).

    The atoms lie on the lattice (2/3^d) m, integer 0 <= m < 3^d, so at
    t_n = n dt the autocorrelation is sum_m A[m] w^(n m) with A the lattice
    mass array and w = exp(2i dt/3^d).  The transform runs on the FFT, so it
    shares nothing with the library's phase kernels or the product oracle.
    """
    scaled = U.symbol * 3.0 ** depth / 2.0
    lattice = np.round(scaled)
    # each atom is d rounded terms and sums below 1, each off by <= eps/2
    assert np.abs(scaled - lattice).max() <= depth * np.finfo(float).eps * 3.0 ** depth / 2.0
    dt = (times[-1] - times[0]) / (times.size - 1)
    assert times[0] == 0.0 and np.abs(times - dt * np.arange(times.size)).max() <= 1e-12 * times[-1]
    mass = np.bincount(lattice.astype(int), weights=U.grid.weights * np.abs(x.coeffs) ** 2,
                       minlength=3 ** depth)
    return scipy.signal.czt(mass, times.size, np.exp(2j * dt / 3.0 ** depth), 1.0)


def test_criterion_1_quantization_bound():
    cfg = {"scenario": "quantization_sweep", "seed": 2026, "dimension": 32,
           "trials": 10000, "t_max": 10.0,
           "n_values": [8, 16, 32, 64, 128, 256, 512, 1024]}
    start = time.monotonic()
    table, summary, ok = run_quantization_sweep(cfg, np.random.default_rng(cfg["seed"]))
    elapsed = time.monotonic() - start
    slope = summary["slope"]
    good = ok and -1.2 <= slope <= -0.8 and elapsed <= 60.0
    _report(1, "quantization bound", good,
            f"{summary['violations']} violations in {len(table['n'])} trials, "
            f"slope {slope:.3f}, {elapsed:.1f}s")


def test_criterion_2_near_identity_bound():
    rng = np.random.default_rng(1)
    dim = 32
    grid = WeightedGrid(np.sort(rng.uniform(0, 1, dim)), np.full(dim, 1.0 / dim))
    violations = 0
    for n in [4, 64, 512]:
        U = near_identity_aws(grid, n)
        for t in np.linspace(0.0, np.pi * n, 400):
            measured = float(np.abs(np.exp(1j * t * U.symbol) - 1.0).max())
            if measured > 2.0 * t / n + 1e-12:
                violations += 1
    _report(2, "near-identity bound", violations == 0,
            f"{violations} violations over n in {{4, 64, 512}}, 400 samples each")


def test_criterion_3a_periodization_exact_identity():
    rng = np.random.default_rng(2)
    cells, n_c = 48, 32
    R = ShiftSemigroup(1.0, cells)
    worst = 0.0
    for _ in range(1000):
        c = rng.standard_normal(cells) + 1j * rng.standard_normal(cells)
        f = HVector(R.grid, c)
        ell = int(rng.integers(1, n_c))
        (lhs,), (rhs,), _ = periodization_error_identity(R, n_c, [f], [float(ell)])
        worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    _report(3, "periodization identity, exact part", worst <= 1e-12,
            f"worst relative gap {worst:.2e} over 1000 trials")


def test_criterion_3b_periodization_factor2_tail():
    # The claimed factor-2 tail inequality error^2 <= 2 * tail-mass fails for
    # generic complex payloads: expanding the error gives
    # 2*tail - 2*Re<f(s), f(s-t)> and the cross term has no sign, so the
    # sharp unconditional constant is 4 (see TestPeriodization in the unit
    # suite for the factor-4 property).  This sub-criterion stays red.
    rng = np.random.default_rng(2)
    cells, n_c = 48, 32
    R = ShiftSemigroup(1.0, cells)
    violations = 0
    worst_ratio = 0.0
    for _ in range(1000):
        c = rng.standard_normal(cells) + 1j * rng.standard_normal(cells)
        f = HVector(R.grid, c)
        ell = int(rng.integers(1, n_c))
        (lhs,), _, (tail,) = periodization_error_identity(R, n_c, [f], [float(ell)])
        if lhs > tail * (1.0 + 1e-12):
            violations += 1
        if tail > 0:
            worst_ratio = max(worst_ratio, lhs / tail)
    _report(3, "periodization factor-2 tail", violations == 0,
            f"{violations}/1000 trials violate the factor-2 bound "
            f"(worst ratio {worst_ratio:.3f}; factor 4 holds in all trials)")


def test_criterion_4_wold_recovery():
    cfg = {"trials": 100, "min_unitary_dim": 1, "max_unitary_dim": 10,
           "min_shift_cells": 5, "max_shift_cells": 50}
    table, summary, ok = run_wold_benchmark(cfg, np.random.default_rng(4))
    exact = sum(r == d for r, d in zip(table["recovered_dim"], table["true_dim_H0"]))
    worst_angle = max(table["max_principal_angle"])
    _report(4, "Wold recovery", ok,
            f"{exact}/100 exact dimensions, worst principal angle {worst_angle:.2e}")


def test_criterion_5_wiener_consistency():
    rng = np.random.default_rng(5)
    dim, T = 8, 200.0
    t1 = np.arange(0, int(T / 0.005) + 1) * 0.005
    t2 = np.arange(0, int(2 * T / 0.005) + 1) * 0.005
    gaps1, gaps2 = [], []
    for _ in range(100):
        # symbols kept gap-separated so every cross term is in its 1/T
        # decay regime at the test horizon
        q = np.sort(rng.uniform(0.5, 6.0, dim))
        q += 0.06 * np.arange(dim)
        g = WeightedGrid.uniform(dim, 1.0 / dim)
        U = MultiplicationGroup(g, q)
        x = HVector(g, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).normalized()
        # the closed-form Wiener limit of classify's report on x alone
        w = classify(U, DenseSequence((x,))).wiener_closed_form
        corr1 = _autocorr(U, x, t1)
        corr2 = _autocorr(U, x, t2)
        gaps1.append(abs(cesaro_mean_abs2(CorrelationTrace(t1, corr1)) - w))
        gaps2.append(abs(cesaro_mean_abs2(CorrelationTrace(t2, corr2)) - w))
    C = max(T * g1 for g1 in gaps1)
    # gap at 2T must sit under the doubled-horizon envelope with factor-2 slack
    bad = sum(g2 > 2.0 * C / (2.0 * T) + 1e-3 for g2 in gaps2)

    two = MultiplicationGroup(
        WeightedGrid(np.array([0.0, 1.0]), np.array([0.5, 0.5])), np.array([0.0, 1.0]))
    x2 = HVector(two.grid, np.ones(2))
    ts = np.arange(0, 200001) * 0.005
    ces2 = cesaro_mean_abs2(CorrelationTrace(ts, _autocorr(two, x2, ts)))
    two_ok = abs(ces2 - 0.5) <= 5e-3
    _report(5, "Wiener consistency", bad == 0 and two_ok,
            f"{100 - bad}/100 trials inside the C/T envelope (C = {C:.3f}); "
            f"two-atom Cesaro at T=1000: {ces2:.5f} (limit 0.5)")


def test_criterion_6_cantor_witness():
    times = np.linspace(0.0, 1.0e4, 200001)
    oracle = cantor_transform_abs(times)
    ces_oracle = cesaro_mean_abs2(CorrelationTrace(times, oracle.astype(complex)))
    sup_oracle = float(oracle[times >= 5.0e3].max())

    depth = 12
    U = cantor_group(depth)
    x = HVector(U.grid, np.ones(U.grid.size))
    disc = np.abs(_lattice_autocorr(U, x, times, depth))
    ces = cesaro_mean_abs2(CorrelationTrace(times, disc.astype(complex)))
    sup = float(disc[times >= 5.0e3].max())
    agree = abs(ces - ces_oracle) <= 1e-3 and abs(sup - sup_oracle) <= 1e-2
    ok = ces <= 0.05 and sup >= 0.2 and agree
    _report(6, "Cantor witness", ok,
            f"cesaro {ces:.5f} (oracle {ces_oracle:.5f}, need <= 0.05), "
            f"tail sup {sup:.4f} (oracle {sup_oracle:.4f}, need >= 0.2)")


def test_criterion_7_category_escape():
    cfg = {"scenario": "category_escape", "seed": 7, "dimension": 24,
           "base_level": 64, "n_values": [64, 128, 256, 512], "multiples": 3,
           "witnesses": 6, "k_max": 3, "eps": 0.25, "t0": 5.0, "copies": 2}
    table, summary, ok = run_category_escape(cfg, np.random.default_rng(cfg["seed"]))
    kind = table["table"]
    revival_exact = all(v >= 1.0 - 1e-9 for k, v in zip(kind, table["value"]) if k == "escape")
    metric_at = {n: d for k, n, d in zip(kind, table["n"], table["metric_to_base"])
                 if k == "escape"}
    metric_vals = [metric_at[n] for n in cfg["n_values"]]
    monotone = all(b <= a + 1e-12 for a, b in zip(metric_vals, metric_vals[1:]))
    entered = all(e for k, e in zip(kind, table["escaped"]) if k == "aws")

    # eigenvector proximity bound, verbatim on constructed pairs
    rng = np.random.default_rng(70)
    g = WeightedGrid.uniform(10, 0.1)
    U = MultiplicationGroup(g, rng.uniform(0, 2 * np.pi, 10))
    bound_ok = True
    for k in range(20):
        e = HVector(g, np.sqrt(10.0) * np.eye(10)[k % 10])
        p = HVector(g, rng.standard_normal(10) + 1j * rng.standard_normal(10))
        x = HVector(g, e.coeffs + (rng.uniform(0.01, 0.25) / p.norm()) * p.coeffs).normalized()
        d = min(np.linalg.norm(weighted(x) - weighted(e)), 0.25)
        floor = 1.0 - d * d - 2.0 * d
        ts = np.linspace(0.0, 100.0, 401)
        vals = np.abs(_autocorr(U, x, ts))
        bound_ok = bound_ok and floor > 1.0 / 3.0 and bool(np.all(vals >= floor - 1e-12))
    good = ok and revival_exact and monotone and entered and bound_ok
    _report(7, "category escape", good,
            f"periodic revivals exact: {revival_exact}; metric decreasing over "
            f"n={cfg['n_values']}: {monotone}; all witnesses enter W_jk (k=3): "
            f"{entered}; eigenvector bound > 1/3: {bound_ok}")


def test_criterion_8_metric_axioms_and_truncation():
    rng = np.random.default_rng(8)
    dim = 6
    g = WeightedGrid.uniform(dim, 1.0 / dim)
    seq = DenseSequence.gaussian(g, 8, seed=80)
    small = MetricConfig(seq, J=3, N=3, samples_per_block=16)
    big = MetricConfig(seq, J=5, N=5, samples_per_block=16)
    metrics = [metric_unitary, metric_isometric, metric_contractive]
    axiom_fail, trunc_fail = 0, 0
    for trial in range(100):
        models = [MultiplicationGroup(g, rng.uniform(0, 2, dim)) for _ in range(3)]
        metric = metrics[trial % 3]
        A, B, Cm = models
        dab = metric(A, B, small).value
        dba = metric(B, A, small).value
        dbc = metric(B, Cm, small).value
        dac = metric(A, Cm, small).value
        dself = metric(A, A, small).value
        if abs(dab - dba) > 1e-12 or dac > dab + dbc + 1e-12 or dself > 1e-13:
            axiom_fail += 1
        mv = metric(A, B, small)
        refined = metric(A, B, big).value
        if abs(refined - mv.value) >= mv.truncation_bound:
            trunc_fail += 1
    _report(8, "metric axioms/truncation", axiom_fail == 0 and trunc_fail == 0,
            f"axiom failures {axiom_fail}/100, truncation failures {trunc_fail}/100 "
            "(all three metrics, round-robin)")


def test_criterion_9_perturbation_guarantee():
    rng = np.random.default_rng(9)
    dim, t0 = 12, 10.0
    g = WeightedGrid.uniform(dim, 1.0 / dim)
    base = quantize_symbol(MultiplicationGroup(g, rng.uniform(0, 2 * np.pi, dim)), 16).approximant
    anchors = [
        HVector(g, rng.standard_normal(dim) + 1j * rng.standard_normal(dim)).normalized()
        for _ in range(3)
    ]
    details = []
    ok = True
    for eps in [1e-1, 1e-2, 1e-3]:
        res = inflate_and_perturb(base, anchors, eps, t0, copies=3)
        worst = 0.0
        for a in anchors:
            coeffs = np.zeros(res.group.grid.size, dtype=complex)
            coeffs[res.embed_index] = a.coeffs
            emb = HVector(res.group.grid, coeffs)
            for t in np.linspace(-t0, t0, 201):
                orig = np.exp(1j * t * base.symbol) * a.coeffs
                pert = res.group.apply(t, emb)
                drift = np.sqrt(float(
                    (g.weights * np.abs(pert.coeffs[res.embed_index] - orig) ** 2).sum()))
                worst = max(worst, drift)
        distinct = distinct_frequency_certificate(res.group)
        ok = ok and worst <= eps and distinct
        details.append(f"eps={eps:g}: sup drift {worst:.2e}, distinct={distinct}")
    _report(9, "perturbation guarantee", ok, "; ".join(details))
