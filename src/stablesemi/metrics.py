"""The three semigroup metrics: strong* on unitary groups, strong on
isometric semigroups, weak on contractions.

Each is a doubly (or triply) truncated weighted series over a fixed witness
sequence, and all three go through one assembly: a table of per-block sups
(`_block_sups`) weighed by 2^-(n + j...) / (||x_j||...) (`_assemble`).  The
discarded tail is certified in closed form (every numerator is bounded by 2
times the witness norms), and the sup over continuous time is sampled, with
a Lipschitz slack from the largest |frequency| of each model's spectral form
(a model without a time step is unitary, so it has one).  For models with
discrete admissible times the sup runs over exactly the admissible multiples
of the step, so no slack is needed.

The witnesses meet both models on the grid `semigroups._columns` picks,
the rule every vector batch follows: the longest of the witnesses' and the
models' grids, each witness zero-padded onto it.  The strong metrics
evaluate every difference ||S(t)x - T(t)x|| through
`semigroups._diff_norms`, and give a bare truncated shift its room for the
sampled times there: the grid then holds the witnesses' cells plus N/h, and
a model on a shorter fixed grid raises GridMismatchError.  The weak metric
reads every correlation through `semigroups._correlations`, which needs no
room; the `semigroups` module docstring states the rule that picks their
spectral or `_evolve` path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DenseSequence, _count
from .semigroups import (
    SemigroupModel, _columns, _correlations, _diff_norms, _shared_step, _step_times)


@dataclass(frozen=True)
class MetricConfig:
    dense_seq: DenseSequence
    J: int = 12
    N: int = 12
    samples_per_block: int = 64

    def __post_init__(self):
        if _count(self.J, "J") > len(self.dense_seq):
            raise ValueError("J must satisfy 1 <= J <= len(dense_seq)")
        _count(self.N, "N")
        _count(self.samples_per_block, "samples_per_block", 2)


@dataclass(frozen=True)
class MetricValue:
    value: float
    truncation_bound: float
    sampling_slack: float | None  # None when the sup is exact (discrete times)


def _tail_bound(J: int, N: int, axes: int) -> float:
    # sum over (n > N or some witness index > J) of 2 * 2^-(n + j...), with
    # `axes` witness indices
    return 2.0 * (1.0 - (1.0 - 2.0 ** -J) ** axes * (1.0 - 2.0 ** -N))


def _times(cfg: MetricConfig, step: float | None, lo: float, hi: float) -> np.ndarray:
    if step is not None:
        return _step_times(step, lo, hi)
    spb = cfg.samples_per_block
    # rational grid hits every integer block endpoint exactly
    return np.arange(round(lo * spb), round(hi * spb) + 1) / spb


def _lipschitz_slack(S: SemigroupModel, T: SemigroupModel, dt: float) -> float:
    fs, ft = (float(np.abs(M.spectral_form()[0]).max()) for M in (S, T))
    # d/dt ||S(t)x - T(t)x|| <= (|q_S|_max + |q_T|_max) ||x||
    return (fs + ft) * dt / 2.0


def _block_sups(diffs: np.ndarray, times: np.ndarray, cfg: MetricConfig):
    """Per-n sampled sup of the difference table diffs[time, witness...]
    over |t| <= n: an (N, *witness axes) table."""
    reach = np.abs(times)
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


def _metric_inputs(S, T, cfg: MetricConfig, lo: float, room: bool):
    """(sample times on [lo, N], their Lipschitz slack or None, witness norms,
    their grid, weighted witness columns) after checking that both models
    share a step; `_columns` decides the grid the witnesses meet both
    models on, with a bare shift's room for the times if `room`."""
    step = _shared_step((S, T))
    times = _times(cfg, step, lo, float(cfg.N))
    witnesses = cfg.dense_seq.vectors[: cfg.J]
    grid, Z = _columns((S, T), witnesses, times if room else None)
    slack = None if step is not None else _lipschitz_slack(S, T, float(times[1] - times[0]))
    return times, slack, np.array([x.norm() for x in witnesses]), grid, Z


def _strong_metric(S, T, cfg: MetricConfig, lo: float) -> MetricValue:
    times, slack, norms, grid, Z = _metric_inputs(S, T, cfg, lo, room=True)
    diffs = _diff_norms(S, T, grid, Z, times)
    return _assemble(_block_sups(diffs, times, cfg), norms, cfg, slack)


def metric_unitary(U: SemigroupModel, V: SemigroupModel, cfg: MetricConfig) -> MetricValue:
    """Strong* metric: sups over t in [-n, n] (adjoints come for free since
    U(-t) = U(t)* for unitary groups).  A model that is not unitary holds a
    truncated shift, which raises InadmissibleTimeError (a ValueError) at
    the first negative time, before any value is formed."""
    return _strong_metric(U, V, cfg, -float(cfg.N))


def metric_isometric(S: SemigroupModel, T: SemigroupModel, cfg: MetricConfig) -> MetricValue:
    """Strong metric on isometric semigroups (every model is one): forward times only."""
    return _strong_metric(S, T, cfg, 0.0)


def metric_contractive(S: SemigroupModel, T: SemigroupModel, cfg: MetricConfig) -> MetricValue:
    """Weak metric on contractions: triple-truncated sum over witness pairs.

    Its sampling slack is the strong metric's: d/dt <S(t)x_i, x_j> is
    <i A_S S(t)x_i, x_j>, A_S S's generator, so |d/dt (<S(t)x_i, x_j> -
    <T(t)x_i, x_j>)| <= (max|q_S| + max|q_T|) ||x_i|| ||x_j||, and
    `_assemble` divides each entry by ||x_i|| ||x_j||."""
    times, slack, norms, grid, Z = _metric_inputs(S, T, cfg, 0.0, room=False)
    # diffs[t, i, j] = |<S(t)x_i, x_j> - <T(t)x_i, x_j>|, over all J^2 pairs
    i, j = np.indices((cfg.J, cfg.J)).reshape(2, -1)
    S_ij, T_ij = (_correlations(M, grid, Z, i, j, times)[0] for M in (S, T))
    diffs = np.abs(S_ij - T_ij).reshape(times.size, cfg.J, cfg.J)
    return _assemble(_block_sups(diffs, times, cfg), norms, cfg, slack)
