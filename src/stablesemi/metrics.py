"""The three semigroup metrics: strong* on unitary groups, strong on
isometric semigroups, weak on contractions.

Each is a doubly (or triply) truncated weighted series over a fixed witness
sequence, and all three go through one assembly: a table of per-block sups
(`_block_sups`) weighed by 2^-(n + j...) / (||x_j||...) (`_assemble`).  The
discarded tail is certified in closed form (every numerator is bounded by 2
times the witness norms), and the sup over continuous time is sampled, with
a Lipschitz slack reported whenever a frequency bound for both models is
available.  For models with discrete admissible times the sup runs over
exactly the admissible multiples of the step, so no slack is needed.

The strong metrics take a closed form when both models have a spectral form
on one grid with the same basis (the same array or an equal one), as a model
and its quantized approximant do: ||S(t)x - T(t)x||^2 is then
|exp(i t f_S) - exp(i t f_T)|^2 @ |a|^2 with a = B sqrt(mu) x, evaluated in
time blocks of bounded memory.  Every other pair (shifts, different bases)
and the weak metric take one batched `_evolve` of all witnesses per model
and block of times, reduced by a norm or a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DenseSequence, _is_integer
from .semigroups import SemigroupModel, _columns, _diff_norms, _gram, _phase_gaps, _step_times


@dataclass(frozen=True)
class MetricConfig:
    dense_seq: DenseSequence
    J: int = 12
    N: int = 12
    samples_per_block: int = 64

    def __post_init__(self):
        if not all(_is_integer(v) for v in (self.J, self.N, self.samples_per_block)):
            raise ValueError("J, N and samples_per_block must be integers")
        if not 1 <= self.J <= len(self.dense_seq):
            raise ValueError("J must satisfy 1 <= J <= len(dense_seq)")
        if self.N < 1 or self.samples_per_block < 2:
            raise ValueError("need N >= 1 and samples_per_block >= 2")


@dataclass(frozen=True)
class MetricValue:
    value: float
    truncation_bound: float
    sampling_slack: float | None  # None when the sup is exact (discrete times)

    def __float__(self) -> float:
        return self.value


def _tail_bound(J: int, N: int, axes: int) -> float:
    # sum over (n > N or some witness index > J) of 2 * 2^-(n + j...), with
    # `axes` witness indices
    return 2.0 * (1.0 - (1.0 - 2.0 ** -J) ** axes * (1.0 - 2.0 ** -N))


def _resolve_step(S: SemigroupModel, T: SemigroupModel) -> float | None:
    steps = {m.time_step for m in (S, T) if m.time_step is not None}
    if not steps:
        return None
    if len(steps) > 1:
        raise ValueError("models have incompatible time steps")
    return steps.pop()


def _times(cfg: MetricConfig, step: float | None, lo: float, hi: float) -> np.ndarray:
    if step is not None:
        return _step_times(step, lo, hi)
    spb = cfg.samples_per_block
    # rational grid hits every integer block endpoint exactly
    return np.arange(round(lo * spb), round(hi * spb) + 1) / spb


def _lipschitz_slack(S: SemigroupModel, T: SemigroupModel, dt: float) -> float | None:
    fs, ft = S.max_frequency(), T.max_frequency()
    if fs is None or ft is None:
        return None
    # d/dt ||S(t)x - T(t)x|| <= (|q_S|_max + |q_T|_max) ||x||
    return (fs + ft) * dt / 2.0


def _block_sups(diffs: np.ndarray, times: np.ndarray, cfg: MetricConfig, forward: bool):
    """Per-n sampled sup of the difference table diffs[time, witness...]:
    an (N, *witness axes) table."""
    reach = times if forward else np.abs(times)
    return np.stack([diffs[reach <= n + 1e-12].max(axis=0) for n in range(1, cfg.N + 1)])


def _assemble(sups: np.ndarray, norms: np.ndarray, cfg: MetricConfig,
              slack: float | None) -> MetricValue:
    """The series over an (N, J) or (N, J, J) sup table: each entry weighs
    2^-(n + j...) / (||x_j||...), and the truncation bound and sampling
    slack follow from the same weights."""
    axes = sups.ndim - 1
    # the indices are 0-based, so adding ndim gives n + j (+ i) from 1
    weights = 2.0 ** -(np.indices(sups.shape).sum(axis=0) + sups.ndim)
    norms = norms if axes == 1 else np.multiply.outer(norms, norms)
    value = float((sups / norms * weights).sum())
    total_slack = None
    if slack is not None:
        total_slack = float(min(slack, 2.0) * weights.sum())
    return MetricValue(value=value, truncation_bound=_tail_bound(cfg.J, cfg.N, axes),
                       sampling_slack=total_slack)


def _same_basis(a, b) -> bool:
    return a is b or (a is not None and b is not None and np.array_equal(a, b))


def _spectral_diffs(S, T, grid, Z: np.ndarray, times: np.ndarray) -> np.ndarray | None:
    """||S(t)x - T(t)x|| = sqrt(|e^{itf_S} - e^{itf_T}|^2 @ |a|^2) per (time,
    witness) when S, T and the witnesses share one grid and S and T one
    spectral basis; else None."""
    fs, ft = S.spectral_form(), T.spectral_form()
    if (fs is None or ft is None or not grid.same_as(S.grid) or not S.grid.same_as(T.grid)
            or not _same_basis(fs[1], ft[1])):
        return None
    A = Z if fs[1] is None else fs[1] @ Z
    return np.sqrt(_phase_gaps(times, fs[0] - ft[0], np.abs(A) ** 2))


def _witness_columns(S, T, cfg: MetricConfig):
    """(witness norms, their grid, weighted witness columns) after checking
    that both models act on that grid."""
    witnesses = cfg.dense_seq.vectors[: cfg.J]
    grid, Z = _columns(S, witnesses)
    T._check_grid(grid)
    return np.array([x.norm() for x in witnesses]), grid, Z


def _strong_metric(S, T, cfg: MetricConfig, forward: bool) -> MetricValue:
    step = _resolve_step(S, T)
    lo = 0.0 if forward else -float(cfg.N)
    times = _times(cfg, step, lo, float(cfg.N))
    norms, grid, Z = _witness_columns(S, T, cfg)
    diffs = _spectral_diffs(S, T, grid, Z, times)
    if diffs is None:
        diffs = _diff_norms(S, T, Z, times)
    slack = None if step is not None else _lipschitz_slack(S, T, float(times[1] - times[0]))
    return _assemble(_block_sups(diffs, times, cfg, forward), norms, cfg, slack)


def metric_unitary(U: SemigroupModel, V: SemigroupModel, cfg: MetricConfig) -> MetricValue:
    """Strong* metric: sups over t in [-n, n] (adjoints come for free since
    U(-t) = U(t)* for unitary groups)."""
    if not (U.is_unitary and V.is_unitary):
        raise ValueError("metric_unitary requires unitary models")
    return _strong_metric(U, V, cfg, forward=False)


def metric_isometric(S: SemigroupModel, T: SemigroupModel, cfg: MetricConfig) -> MetricValue:
    """Strong metric on isometric semigroups: forward times only."""
    if not (S.is_isometric and T.is_isometric):
        raise ValueError("metric_isometric requires isometric models")
    return _strong_metric(S, T, cfg, forward=True)


def metric_contractive(S: SemigroupModel, T: SemigroupModel, cfg: MetricConfig) -> MetricValue:
    """Weak metric on contractions: triple-truncated sum over witness pairs."""
    step = _resolve_step(S, T)
    times = _times(cfg, step, 0.0, float(cfg.N))
    norms, _, Z = _witness_columns(S, T, cfg)
    # diffs[t, i, j] = |<S(t)x_i, x_j> - <T(t)x_i, x_j>|
    diffs = np.abs(_gram(S, times, Z) - _gram(T, times, Z)).transpose(0, 2, 1)
    slack = None if step is not None else _lipschitz_slack(S, T, float(times[1] - times[0]))
    return _assemble(_block_sups(diffs, times, cfg, forward=True), norms, cfg,
                     None if slack is None else 2.0 * slack)
