"""Stability diagnostics: correlation traces, Cesaro/Wiener functionals,
density-one estimation, atom detection, and the membership predicates used
by the category-escape demonstration.

All asymptotic notions become finite-horizon estimates; every verdict is
labeled "evidence", never a proof.  On finite grids all spectral measures
are atomic, so almost weak stability is certified by the combination of a
simple spectrum (no repeated frequency) and a small Wiener limit.

Two paths compute every correlation <T(t)x, y>, chosen by whether T has a
spectral form and the vectors lie on T's grid.  Spectral path (multiplication
groups, periodic shifts, unitary direct sums of these, and conjugations of
any of them): the spectral sum sum_m exp(i t f_m) a_m conj(b_m) with
a = B sqrt(mu) x.  The kernel factors the phases on arithmetic time grids
(linspace, j*h; any other grid is summed row by row) into powers, so T
times cost 3 phase rows, not T.  Every other model (truncated shifts and
anything containing one): <T(t)x, y> = <x, T(t)* y>, one batched adjoint
evolution of all the vectors per block of times, reduced by a matrix
product; the adjoint keeps a shift's payload length.  `correlation` evaluates one
pair, `classify` all witness pairs in one call, and the membership
predicates one time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import DenseSequence, HVector, _is_integer
from .semigroups import (
    ConjugatedGroup,
    MultiplicationGroup,
    SemigroupModel,
    _check_times,
    _columns,
    _frequency_groups,
    _gram,
    _phase_sums,
)


@dataclass(frozen=True)
class CorrelationTrace:
    """Sampled values of t -> <T(t)x, y> on an increasing time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        vs = np.asarray(self.values, dtype=complex)
        if ts.ndim != 1 or ts.size < 1 or ts.shape != vs.shape:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if ts.size > 1 and not np.all(np.diff(ts) > 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "values", vs)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _correlations(T: SemigroupModel, vectors, rows, cols, times):
    """(<T(t) v_r, v_c> for each (r, c) pair, one column each; coordinates of
    the vectors: in T's spectral basis on the spectral path, weighted
    otherwise)."""
    grid, Z = _columns(T, vectors)
    form = T.spectral_form()
    if form is None or not grid.same_as(T.grid):
        return _gram(T, times, Z)[:, cols, rows], Z
    _check_times(T, times)
    A = Z if form[1] is None else form[1] @ Z
    return _phase_sums(times, form[0], A[:, rows] * A[:, cols].conj()), A


def correlation(T: SemigroupModel, x: HVector, y: HVector, time_grid) -> CorrelationTrace:
    times = np.asarray(time_grid, dtype=float)
    return CorrelationTrace(times, _correlations(T, (x, y), [0], [1], times)[0][:, 0])


def _trapezoid_weights(times: np.ndarray) -> np.ndarray:
    if times.size == 1:
        return np.ones(1)
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


def wiener_limit(U: MultiplicationGroup, x: HVector) -> float:
    """Closed-form limit of the Cesaro mean for the diagonal model (y = x).

    Equal to the sum of squared atom masses of the spectral measure of x:
    frequencies are grouped by exact equality (`_frequency_groups`).
    """
    return _atom_mass_squares(_frequency_groups(U.symbol)[1], U.grid.weights * abs(x.coeffs) ** 2)


def _atom_mass_squares(group: np.ndarray, masses: np.ndarray) -> float:
    return float((np.bincount(group, weights=masses) ** 2).sum())


def density_estimate(trace: CorrelationTrace, eps: float) -> float:
    """Fraction of sampled-time measure where |value| < eps.

    Uses the same trapezoid weights as cesaro_mean_abs2, so the Chebyshev
    relation density >= 1 - cesaro/eps^2 holds exactly on the grid.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    w = _trapezoid_weights(trace.times)
    return float(_trapezoid_mean(w, np.abs(trace.values) < eps, w.sum()))


def detect_atoms(U: MultiplicationGroup, mass_threshold: float) -> list[tuple[float, float]]:
    """Exact-equality frequency groups above the mass threshold.

    Masses are grid weights normalized by total mass; sorted descending.
    """
    if mass_threshold < 0:
        raise ValueError("mass threshold must be >= 0")
    return _atoms(U, *_frequency_groups(U.symbol), mass_threshold)


def _atoms(U: MultiplicationGroup, lams, group, threshold: float) -> list[tuple[float, float]]:
    """`detect_atoms` on a grouping of U.symbol; equal masses keep their order."""
    masses = np.bincount(group, weights=U.grid.weights) / U.grid.total_mass
    return [(float(lams[i]), float(masses[i]))
            for i in np.argsort(-masses, kind="stable") if masses[i] > threshold]


VERDICTS = (
    "WeaklyStableEvidence",
    "AlmostWeaklyStableEvidence",
    "PointSpectrumDetected",
    "Inconclusive",
)


@dataclass(frozen=True)
class ClassifyParams:
    horizon: float = 200.0
    eps: float = 1e-2
    delta_wiener: float = 1e-2
    delta_density: float = 0.95
    mass_threshold: float = 0.1
    samples: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError("horizon must be finite and > 0")
        if not _is_integer(self.samples) or self.samples < 2:
            raise ValueError("samples must be an integer >= 2")
        if not (self.eps > 0 and self.delta_wiener >= 0 and 0 <= self.delta_density <= 1
                and self.mass_threshold >= 0):
            raise ValueError("need eps > 0, delta_wiener >= 0, 0 <= delta_density <= 1"
                             " and mass_threshold >= 0")


@dataclass(frozen=True)
class StabilityReport:
    cesaro_abs: float
    cesaro_abs2: float
    wiener_closed_form: float | None
    density_est: float
    atoms: tuple[tuple[float, float], ...]
    verdict: str
    tail_sup: float = field(default=float("nan"))

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if not 0.0 <= self.density_est <= 1.0 + 1e-12:
            raise ValueError("density estimate must lie in [0, 1]")


def _time_grid(T: SemigroupModel, horizon: float, samples: int) -> np.ndarray:
    h = T.time_step
    if h is None:
        return np.linspace(0.0, horizon, samples)
    steps = max(1, int(np.floor(horizon / h)))
    return np.arange(0, steps + 1) * h


def classify(
    T: SemigroupModel, witnesses: DenseSequence, params: ClassifyParams = ClassifyParams()
) -> StabilityReport:
    """Finite-horizon stability verdict over normalized witnesses.

    Verdict precedence: PointSpectrumDetected (atoms above threshold, or a
    revival |<T(t)x, x>| > 1 - eps at some t bounded away from 0), then
    WeaklyStableEvidence (all pair correlations below eps on the tail window
    [T/2, T]), then AlmostWeaklyStableEvidence (density-one decay with a
    small Cesaro mean but a non-vanishing tail), else Inconclusive.
    """
    times = _time_grid(T, params.horizon, params.samples)
    normed = [x.normalized() for x in witnesses]
    tail = times >= params.horizon / 2.0
    revival_window = times >= max(params.horizon / 100.0, times[1] if times.size > 1 else 0.0)

    # atoms and the Wiener limit: multiplication groups and their conjugates
    diag = T.inner if isinstance(T, ConjugatedGroup) else T
    diag = diag if isinstance(diag, MultiplicationGroup) else None

    # every pair i <= j in one call; the diagonal pairs are the
    # autocorrelations
    rows, cols = np.triu_indices(len(normed))
    values, coords = _correlations(T, normed, rows, cols, times)

    # |autocorrelation|, one contiguous row per witness, reduced row by row
    # exactly as cesaro_mean_abs2 and density_estimate reduce one trace
    w = _trapezoid_weights(times)
    mags = np.abs(values.T[rows == cols])
    revival = bool(np.any(mags[:, revival_window] > 1.0 - params.eps))
    worst_cesaro = float(_trapezoid_mean(w, mags ** 2, times[-1] - times[0]).max())
    worst_cesaro_abs = float(_trapezoid_mean(w, mags, w.sum()).max())
    worst_density = float(_trapezoid_mean(w, mags < params.eps, w.sum()).min())
    worst_tail = float(np.abs(values[tail]).max())
    # witnesses off a multiplication group's grid are rejected, so here it
    # took the spectral path, where |coordinate|^2 is the spectral mass
    worst_wiener, atoms = None, ()
    if diag is not None:
        groups = _frequency_groups(diag.symbol)
        atoms = tuple(_atoms(diag, *groups, params.mass_threshold))
        worst_wiener = max(_atom_mass_squares(groups[1], np.abs(a) ** 2) for a in coords.T)

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


def _autocorrelation(U: SemigroupModel, x: HVector, t: float) -> complex:
    return complex(_gram(U, np.array([t], dtype=float), _columns(U, [x])[1])[0, 0, 0])


def mt_membership(U: SemigroupModel, x: HVector, t: float) -> bool:
    """|<U(t)x, x>| <= 1/2 for a unit vector x."""
    if abs(x.norm() - 1.0) > 1e-12:
        raise ValueError("membership in M_t is defined for unit vectors")
    return abs(_autocorrelation(U, x, t)) <= 0.5


def wjkt_membership(U: SemigroupModel, x_j: HVector, k: int, t: float) -> bool:
    """|<U(t)x_j, x_j>| < 1/k."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    return abs(_autocorrelation(U, x_j, t)) < 1.0 / k
