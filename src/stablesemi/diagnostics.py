"""Stability diagnostics: correlation traces, the Cesaro mean, the
finite-horizon verdict `classify`, the one reader of the spectral measure
(its atoms, the Wiener limit and the density of decay).

All asymptotic notions become finite-horizon estimates; every verdict is
labeled "evidence", never a proof.  On finite grids all spectral measures
are atomic, so almost weak stability is certified by the combination of a
simple spectrum (no repeated frequency) and a small Wiener limit.

Every vector meets its model on the grid `semigroups._columns` picks (the
longest of theirs, each vector zero-padded onto it), and every correlation
goes through `semigroups._correlations`, whose module docstring states the
rule that picks its path: `correlation` evaluates one pair, and `classify`
all witness pairs in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DenseSequence, HVector, _count, _positive, _real
from .semigroups import (
    ConjugatedGroup,
    MultiplicationGroup,
    SemigroupModel,
    _columns,
    _correlations,
    _frequency_groups,
    _step_times,
    _steps,
)


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled values of t -> <T(t)x, y> on an increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = _trace_times(self.times)
        vs = np.asarray(self.values, dtype=complex)
        if ts.shape != vs.shape:
            raise ValueError("times and values must be equal-length 1-d arrays")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)


def _trace_times(time_grid) -> np.ndarray:
    """time_grid as a float array, checked before anything is evolved over
    it: ValueError unless 1-d and nonempty, InadmissibleTimeError for a time
    that is not finite (`_steps`, so a NaN is named as a time), and
    ValueError unless strictly increasing."""
    ts = np.asarray(time_grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise ValueError("times must be a nonempty 1-d array")
    _steps(ts, None)
    if ts.size > 1 and not np.all(np.diff(ts) > 0):
        raise ValueError("times must be strictly increasing")
    return ts


def correlation(T: SemigroupModel, x: HVector, y: HVector, time_grid) -> CorrelationTrace:
    times = _trace_times(time_grid)
    values = _correlations(T, *_columns((T,), (x, y)), [0], [1], times)[0]
    return CorrelationTrace(times, values[:, 0])


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    w = np.zeros(times.size)
    d = np.diff(times)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def _trapezoid_mean(w: np.ndarray, f: np.ndarray, span) -> np.ndarray:
    """sum_t w_t f[..., t] / span for each row of f, with the trapezoid
    weights w of the time grid: each row is reduced as one 1-d trace."""
    return (w * f).sum(axis=-1) / span


def cesaro_mean_abs2(trace: CorrelationTrace) -> float:
    """Trapezoidal estimate of (1/T) * integral_0^T |<T(t)x, y>|^2 dt."""
    if trace.times.size < 2:
        raise ValueError("need at least 2 samples")
    w, span = _trapezoid_weights(trace.times), trace.times[-1] - trace.times[0]
    return float(_trapezoid_mean(w, np.abs(trace.values) ** 2, span))


_VERDICTS = (
    "WeaklyStableEvidence",
    "AlmostWeaklyStableEvidence",
    "PointSpectrumDetected",
    "Inconclusive",
)


@dataclass(frozen=True)
class ClassifyParams:
    """Thresholds and time grid of `classify`: a model with a time step h
    is sampled on its lattice hZ over [0, horizon] (at least one step), so
    `samples`, the count of evenly spaced times, applies only to a model
    without one.  `horizon` and `eps` are finite numbers > 0
    (`hilbert._positive`), `samples` an integer >= 2 (`hilbert._count`), and
    the three thresholds finite reals (`hilbert._real`) in their ranges."""

    horizon: float = 200.0
    eps: float = 1e-2
    delta_wiener: float = 1e-2
    delta_density: float = 0.95
    mass_threshold: float = 0.1
    samples: int = 2000

    def __post_init__(self):
        _positive(self.horizon, "horizon")
        _count(self.samples, "samples", 2)
        _positive(self.eps, "eps")
        thresholds = (self.delta_wiener, self.delta_density, self.mass_threshold)
        if not (all(map(_real, thresholds)) and self.delta_wiener >= 0
                and 0 <= self.delta_density <= 1 and self.mass_threshold >= 0):
            raise ValueError("need finite reals delta_wiener >= 0, 0 <= delta_density <= 1"
                             " and mass_threshold >= 0")


@dataclass(frozen=True)
class StabilityReport:
    cesaro_abs: float
    cesaro_abs2: float
    wiener_closed_form: float | None
    density_est: float
    atoms: tuple[tuple[float, float], ...]
    verdict: str
    tail_sup: float

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not 0.0 <= self.density_est <= 1.0 + 1e-12:
            raise ValueError("density estimate must lie in [0, 1]")


def _time_grid(T: SemigroupModel, horizon: float, samples: int) -> np.ndarray:
    h = T.time_step
    if h is None:
        return np.linspace(0.0, horizon, samples)
    return _step_times(h, 0.0, max(horizon, h))  # at least one step


def classify(
    T: SemigroupModel, witnesses: DenseSequence, params: ClassifyParams = ClassifyParams()
) -> StabilityReport:
    """Finite-horizon stability verdict over normalized witnesses.

    Verdict precedence: PointSpectrumDetected (atoms above threshold, or a
    revival |<T(t)x, x>| > 1 - eps at some t bounded away from 0), then
    WeaklyStableEvidence (all pair correlations below eps on the tail window
    [T/2, T]), then AlmostWeaklyStableEvidence (density-one decay with a
    small Cesaro mean but a non-vanishing tail), else Inconclusive.

    On a multiplication group or its conjugate, `atoms` are the exact-equality
    frequency groups (`_frequency_groups`) whose grid weight over total mass
    exceeds mass_threshold, heaviest first, and `wiener_closed_form` is the
    largest over the witnesses of their sum of squared atom masses.
    """
    times = _time_grid(T, params.horizon, params.samples)
    normed = [x.normalized() for x in witnesses]
    tail = times >= params.horizon / 2.0
    revival_window = times >= max(params.horizon / 100.0, times[1])

    # atoms and the Wiener limit: multiplication groups and their conjugates
    diag = T.inner if isinstance(T, ConjugatedGroup) else T
    diag = diag if isinstance(diag, MultiplicationGroup) else None

    # every pair i <= j in one call; the diagonal pairs are the
    # autocorrelations
    rows, cols = np.triu_indices(len(normed))
    values, coords = _correlations(T, *_columns((T,), normed), rows, cols, times)

    # |autocorrelation|, one contiguous row per witness, reduced row by row
    # exactly as cesaro_mean_abs2 reduces one trace
    w = _trapezoid_weights(times)
    mags = np.abs(values.T[rows == cols])
    revival = bool(np.any(mags[:, revival_window] > 1.0 - params.eps))
    worst_cesaro = float(_trapezoid_mean(w, mags ** 2, times[-1] - times[0]).max())
    worst_cesaro_abs = float(_trapezoid_mean(w, mags, w.sum()).max())
    worst_density = float(_trapezoid_mean(w, mags < params.eps, w.sum()).min())
    worst_tail = float(np.abs(values[tail]).max())
    # the witnesses met a multiplication group on its own grid (`_columns`),
    # so here it took the spectral path, where |coordinate|^2 is the mass
    worst_wiener, atoms = None, ()
    if diag is not None:
        lams, group = _frequency_groups(diag.symbol)
        masses = np.bincount(group, weights=diag.grid.weights) / diag.grid.weights.sum()
        order = np.argsort(-masses, kind="stable")
        atoms = tuple((float(lams[i]), float(masses[i]))
                      for i in order[masses[order] > params.mass_threshold])
        worst_wiener = max(float((np.bincount(group, weights=np.abs(a) ** 2) ** 2).sum())
                           for a in coords.T)

    if atoms or revival:
        verdict = "PointSpectrumDetected"
    elif worst_tail < params.eps:
        verdict = "WeaklyStableEvidence"
    elif (
        worst_density >= params.delta_density
        and min(worst_cesaro, worst_wiener if worst_wiener is not None else np.inf)
        <= params.delta_wiener
    ):
        verdict = "AlmostWeaklyStableEvidence"
    else:
        verdict = "Inconclusive"

    return StabilityReport(
        cesaro_abs=worst_cesaro_abs,
        cesaro_abs2=worst_cesaro,
        wiener_closed_form=worst_wiener,
        density_est=worst_density,
        atoms=atoms,
        verdict=verdict,
        tail_sup=worst_tail,
    )
