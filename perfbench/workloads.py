"""Seeded workloads for the stablesemi benchmark.

A workload is a fixed cycle of case slots (model kind and size).  Case ``i``
fills slot ``i % len(cycle)`` with data drawn from
``numpy.random.default_rng([seed, i])``, so a case does not depend on how many
others are built, and the traced and untraced passes see the same inputs.
Every case has two callables:

* ``run`` (timed): the library calls whose cost the benchmark measures;
* ``check`` (untimed): compares the result with an independent float64
  reference computed from the case's construction data (frequencies, bases,
  the true H0 and Q).  ``check`` never calls the library, so it adds no spans
  or counts to a traced pass.

Models, vectors and witnesses are built through the library's constructors
when the case is built, which is part of the benchmark's set-up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import stablesemi as ss
from stablesemi import cli

# Tolerances are fixed from float64 precision, not tuned to the results.
# Every checked quantity is a sum of at most a few hundred terms of size <= 1
# whose phases t*q stay below ~10^3 rad, so its rounding error is below
# 10^3 * 256 * 2^-52 ~ 6e-11 (and ~1e-13 in practice); TOL keeps a margin
# of more than 100 over that bound.
TOL = 1e-8
# Subspaces and eigenvectors recovered by SVD/Schur carry an extra factor of
# 1/(spectral gap); the random frequencies keep that gap above ~1e-4.
ANGLE_TOL = 1e-7
# A threshold decision (verdict, density) is not compared when the reference
# quantity lies this close to the threshold: either side is then correct.
DECISION_MARGIN = 1e-7


@dataclass
class Case:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[dict, str | None]]


def random_unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def mismatch(name: str, got, want, tol: float = TOL) -> str | None:
    """Error text when got and want differ by more than tol (relative above 1)."""
    got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return f"{name}: shape {got.shape} != {want.shape}"
    if not want.size:
        return None
    err = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    return None if err <= tol else f"{name}: off by {err:.3g} (tolerance {tol:g})"


def first_error(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def trapezoid(times: np.ndarray) -> np.ndarray:
    w = np.zeros(times.size)
    d = np.diff(times)
    w[:-1] += d / 2.0
    w[1:] += d / 2.0
    return w


def snap_down(q: np.ndarray, n: int) -> list[np.ndarray]:
    """Lattice (2*pi/n)Z values at or below q; both neighbours when q is on
    the edge of a cell within DECISION_MARGIN."""
    cell = 2.0 * np.pi / n
    ratio = q / cell
    lo = np.floor(ratio)
    frac = ratio - lo
    options = [cell * lo]
    edge = (frac < DECISION_MARGIN) | (frac > 1.0 - DECISION_MARGIN)
    if edge.any():
        alt = np.where(frac > 0.5, lo + 1.0, lo - 1.0)
        options.append(cell * np.where(edge, alt, lo))
    return options


class Workload:
    """A cycle of case slots; subclasses build one case per index."""

    name = ""
    cycle: tuple = ()
    # distinct cases built at set-up = pool_cycles * len(cycle), more than a
    # run reaches today, so cases repeat only after a large speed-up
    pool_cycles = 1
    trace_cycles = 1  # cases in a traced pass = trace_cycles * len(cycle)
    min_cases = 100
    # parts of worker.Calibration whose speed tracks this workload's cases
    calibration_mix: tuple = ("interp", "matvec", "svd")

    def __init__(self, seed: int, work_dir: Path, smoke: bool = False,
                 corrupt_reference: bool = False):
        self.seed = seed
        self.work_dir = work_dir
        self.smoke = smoke
        # shifts every reference value, so a correct result must fail its check
        self.corrupt = 1e-3 if corrupt_reference else 0.0
        if smoke:
            self.cycle = self.smoke_cycle
            self.pool_cycles = self.trace_cycles = 1
            self.min_cases = 0

    def build(self) -> list[Case]:
        n = self.pool_cycles * len(self.cycle)
        return [self.build_case(i) for i in range(n)]

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def build_case(self, i: int) -> Case:
        raise NotImplementedError


# --- unitary_verdicts --------------------------------------------------------

class UnitaryVerdicts(Workload):
    """classify + correlation + metric_unitary on unitary models.

    Kinds: ``conj`` = ConjugatedGroup(MultiplicationGroup), ``periodic`` =
    PeriodicShiftGroup, ``dsum`` = unitary DirectSumSemigroup(Multiplication
    (+) PeriodicShift).  Every kind has a closed spectral form
    <T(t)x, y> = sum_m exp(i t f_m) a_m conj(b_m) with a = coords(x), which the
    reference uses in place of apply.
    """

    name = "unitary_verdicts"
    # Slot shares put p50 near the middle of the dsum group (4 of 11 slots,
    # above 4 cheaper ones) and p90 inside the conj-K256 group (the costliest,
    # 3 of 11), not on a boundary between slots of unequal cost.
    cycle = (("conj", 64), ("periodic", 64), ("periodic", 64), ("periodic", 256),
             ("dsum", 64), ("dsum", 64), ("dsum", 64), ("dsum", 256),
             ("conj", 256), ("conj", 256), ("conj", 256))
    smoke_cycle = (("periodic", 8), ("dsum", 8), ("conj", 8))
    pool_cycles = 18
    trace_cycles = 4
    params = ss.ClassifyParams(horizon=200.0, samples=200)
    witnesses = 2
    J, N, SPB, LEVEL = 4, 4, 16, 64

    def build_case(self, i: int) -> Case:
        kind, k = self.cycle[i % len(self.cycle)]
        rng = self.rng(i)
        mult = None  # (symbol, coords of the multiplication block) for the metric
        if kind == "conj":
            q = rng.uniform(-np.pi, np.pi, k)
            Q = random_unitary(rng, k)
            w = rng.uniform(0.5, 1.5, k)
            grid = ss.WeightedGrid(np.arange(k, dtype=float), w)
            model = ss.ConjugatedGroup(grid, Q, ss.MultiplicationGroup(ss.WeightedGrid.uniform(k), q))
            freqs = q

            def coords(c, Q=Q, sw=np.sqrt(w)):
                return Q @ (sw * c)

            mult = (q, coords)
            step = None
        elif kind == "periodic":
            model = ss.PeriodicShiftGroup(k, 1.0)
            grid = model.grid
            w = np.ones(k)
            freqs = -2.0 * np.pi * np.arange(k) / k

            def coords(c, k=k):
                return np.fft.fft(c) / np.sqrt(k)

            step = 1.0
        else:
            half = k // 2
            q = rng.uniform(-np.pi, np.pi, half)
            w1 = rng.uniform(0.5, 1.5, half)
            g1 = ss.WeightedGrid(np.arange(half, dtype=float), w1)
            shift = ss.PeriodicShiftGroup(half, 1.0)
            space = ss.SumSpace((g1, shift.grid))
            model = ss.DirectSumSemigroup(space, (ss.MultiplicationGroup(g1, q), shift))
            grid = space.combined
            w = np.concatenate([w1, np.ones(half)])
            freqs = np.concatenate([q, -2.0 * np.pi * np.arange(half) / half])

            def coords(c, half=half, sw=np.sqrt(w1)):
                return np.concatenate([sw * c[:half], np.fft.fft(c[half:]) / np.sqrt(half)])

            def block_coords(c, half=half, sw=np.sqrt(w1)):
                return sw * c[:half]

            mult = (q, block_coords)
            step = 1.0

        wit = ss.DenseSequence.gaussian(grid, self.witnesses, seed=int(rng.integers(2**31)))
        mseq = ss.DenseSequence.gaussian(grid, self.J, seed=int(rng.integers(2**31)))
        mcfg = ss.MetricConfig(mseq, J=self.J, N=self.N, samples_per_block=self.SPB)
        H, S = self.params.horizon, self.params.samples
        times = np.linspace(0.0, H, S) if step is None else np.arange(0, math.floor(H) + 1) * step
        wit_c = [v.coeffs for v in wit]
        met_c = [v.coeffs for v in mseq]

        def run():
            report = ss.classify(model, wit, self.params)
            trace = ss.correlation(model, wit[0], wit[1], times)
            value = None
            if kind == "conj":
                approx = ss.ConjugatedGroup(
                    model.grid, model.basis, ss.quantize_symbol(model.inner, self.LEVEL).approximant)
                value = ss.metric_unitary(model, approx, mcfg).value
            elif kind == "dsum":
                mpart, spart = model.parts
                approx = ss.DirectSumSemigroup(
                    model.space, (ss.quantize_symbol(mpart, self.LEVEL).approximant, spart))
                value = ss.metric_unitary(model, approx, mcfg).value
            return report, trace, value

        def check(out):
            report, trace, value = out
            result = {
                "verdict": report.verdict, "cesaro_abs": report.cesaro_abs,
                "cesaro_abs2": report.cesaro_abs2, "density": report.density_est,
                "tail_sup": report.tail_sup, "wiener": report.wiener_closed_form,
                "atoms": len(report.atoms), "corr": digest(trace.values), "metric": value,
            }
            err = first_error(
                self._check_classify(report, wit_c, w, freqs, coords, times, kind == "conj"),
                self._check_correlation(trace, wit_c, w, freqs, coords, times),
                self._check_metric(value, met_c, w, mult, step) if mult else None,
            )
            return result, err

        return Case(f"{kind}-K{k}", run, check)

    def _check_correlation(self, trace, wit_c, w, freqs, coords, times):
        x, y = wit_c
        want = np.exp(1j * np.outer(times, freqs)) @ (coords(x) * np.conj(coords(y)))
        scale = math.sqrt((w * abs(x) ** 2).sum() * (w * abs(y) ** 2).sum())
        return first_error(
            mismatch("correlation times", trace.times, times),
            mismatch("correlation values", trace.values / scale, want / scale + self.corrupt),
        )

    def _check_classify(self, report, wit_c, w, freqs, coords, times, diagonal):
        p = self.params
        coords_n = [coords(c) / math.sqrt((w * abs(c) ** 2).sum()) for c in wit_c]
        phase = np.exp(1j * np.outer(times, freqs))
        tw = trapezoid(times)
        tail = times >= p.horizon / 2.0
        revival_window = times >= max(p.horizon / 100.0, times[1])

        selfs = [np.abs(phase @ (a * np.conj(a))) for a in coords_n]
        cesaro2 = max(float((tw * c**2).sum() / (times[-1] - times[0])) for c in selfs)
        cesaro1 = max(float((tw * c).sum() / tw.sum()) for c in selfs)
        density = min(float((tw * (c < p.eps)).sum() / tw.sum()) for c in selfs)
        revival = any(bool(np.any(c[revival_window] > 1.0 - p.eps)) for c in selfs)
        tail_sup = max(
            float(np.abs(phase[tail] @ (a * np.conj(b))).max())
            for i, a in enumerate(coords_n) for b in coords_n[i:])
        # simple spectrum: the Wiener limit is the sum of squared point masses,
        # and every frequency is an atom of mass 1/K of the uniform inner grid
        wiener = max(float((abs(a) ** 4).sum()) for a in coords_n) if diagonal else None
        atoms = freqs.size if diagonal and 1.0 / freqs.size > p.mass_threshold else 0

        if atoms or revival:
            verdict = "PointSpectrumDetected"
        elif tail_sup < p.eps:
            verdict = "WeaklyStableEvidence"
        elif density >= p.delta_density and min(
                cesaro2, wiener if wiener is not None else np.inf) <= p.delta_wiener:
            verdict = "AlmostWeaklyStableEvidence"
        else:
            verdict = "Inconclusive"
        near = lambda a, b: abs(a - b) < DECISION_MARGIN
        density_ambiguous = any(np.any(np.abs(c - p.eps) < DECISION_MARGIN) for c in selfs)
        ambiguous = (
            density_ambiguous or near(tail_sup, p.eps) or near(density, p.delta_density)
            or near(min(cesaro2, wiener if wiener is not None else np.inf), p.delta_wiener)
            or any(np.any(np.abs(c[revival_window] - (1.0 - p.eps)) < DECISION_MARGIN)
                   for c in selfs))
        c = self.corrupt
        return first_error(
            None if len(report.atoms) == atoms else f"atoms: got {len(report.atoms)}, want {atoms}",
            mismatch("cesaro_abs2", report.cesaro_abs2, cesaro2 + c),
            mismatch("cesaro_abs", report.cesaro_abs, cesaro1 + c),
            mismatch("tail_sup", report.tail_sup, tail_sup + c),
            None if density_ambiguous else mismatch("density", report.density_est, density + c),
            mismatch("wiener", np.nan_to_num(report.wiener_closed_form or 0.0),
                     (wiener or 0.0) + c),
            None if ambiguous or report.verdict == verdict
            else f"verdict: got {report.verdict}, want {verdict}",
        )

    def _check_metric(self, value, met_c, w, mult, step):
        q, block_coords = mult
        if step is None:
            ts = np.arange(-self.N * self.SPB, self.N * self.SPB + 1) / self.SPB
        else:
            ts = np.arange(-self.N, self.N + 1) * step
        best = None
        for qn in snap_down(q, self.LEVEL):  # either lattice neighbour on a cell edge
            gap2 = np.abs(np.exp(1j * np.outer(ts, q)) - np.exp(1j * np.outer(ts, qn))) ** 2
            want = 0.0
            for j, c in enumerate(met_c, start=1):
                diff = np.sqrt(gap2 @ np.abs(block_coords(c)) ** 2)
                norm = math.sqrt((w * abs(c) ** 2).sum())
                for n in range(1, self.N + 1):
                    want += 2.0 ** -(n + j) * diff[np.abs(ts) <= n + 1e-12].max() / norm
            err = mismatch("metric_unitary", value, want + self.corrupt)
            if err is None:
                return None
            best = best or err
        return best


# --- isometry_recovery -------------------------------------------------------

class IsometryRecovery(Workload):
    """Wold decomposition and both approximation pipelines on a random
    V = Q*(Multiplication (+) truncated Shift)Q, split 1:2 unitary:shift as in
    the ROADMAP baseline (du = k // 3), plus the strong metric between V's
    shift block and its periodization, whose growing payload makes the
    metrics layer pad grids.

    The Wold iteration count is the shift's cell count + 1, so cost rises
    steeply with k.  The k=120 cases (a fifth of the cycle) hold p90, and p50
    falls in the middle of the k=80 group (three fifths)."""

    name = "isometry_recovery"
    cycle = (40, 80, 80, 80, 120)
    smoke_cycle = (16, 24)
    pool_cycles = 40
    trace_cycles = 10
    J, N, LEVEL, EPS, T0 = 4, 8, 64, 0.25, 5.0

    def build_case(self, i: int) -> Case:
        k = self.cycle[i % len(self.cycle)]
        rng = self.rng(i)
        du = k // 3
        nc = k - du
        f = rng.uniform(-np.pi / 2, np.pi / 2, du)
        Q = random_unitary(rng, k)
        w = rng.uniform(0.5, 1.5, k)
        gu = ss.WeightedGrid.uniform(du)
        shift = ss.ShiftSemigroup(1.0, nc)
        inner = ss.DirectSumSemigroup(
            ss.SumSpace((gu, ss.shift_grid(nc, 1.0))), (ss.MultiplicationGroup(gu, f), shift))
        V = ss.ConjugatedGroup(ss.WeightedGrid(np.arange(k, dtype=float), w), Q, inner)
        seq = ss.DenseSequence.gaussian(V.grid, self.J, seed=int(rng.integers(2**31)))
        mcfg = ss.MetricConfig(seq, J=self.J, N=self.N)
        wit_c = [v.coeffs for v in seq]
        periodized = ss.PeriodicShiftGroup(nc, 1.0)
        shift_seq = ss.DenseSequence.gaussian(shift.grid, self.J, seed=int(rng.integers(2**31)))
        shift_cfg = ss.MetricConfig(shift_seq, J=self.J, N=self.N)
        shift_c = [v.coeffs for v in shift_seq]

        def run():
            wr = ss.wold_decompose(V, step=1.0)
            periodic = ss.approximate_isometry_by_periodic(V, self.LEVEL)
            aws = ss.approximate_isometry_by_aws(V, self.EPS, self.T0, n=self.LEVEL, copies=2)
            value = ss.metric_isometric(V, aws, mcfg).value
            cert = ss.distinct_frequency_certificate(aws)
            # R(t)x lives on nc + t cells, so each difference pads P(t)x
            shift_value = ss.metric_isometric(shift, periodized, shift_cfg).value
            return wr, periodic, aws, value, cert, shift_value

        def check(out):
            wr, periodic, aws, value, cert, shift_value = out
            result = {
                "h0_dim": wr.unitary_dim, "iterations": wr.iterations, "residual": wr.residual,
                "periodic": digest(periodic.inner.symbol), "aws": digest(aws.inner.symbol),
                "metric": value, "certificate": cert, "shift_metric": shift_value,
            }
            truth = Q.conj().T[:, :du]  # H0 in weighted coordinates
            err = first_error(
                self._check_wold(wr, truth, du),
                self._check_periodic(periodic, truth, f),
                self._check_aws(aws, periodic, cert),
                self._check_metric(value, aws, Q, f, nc, w, wit_c),
                self._check_shift_metric(shift_value, shift_c),
            )
            return result, err

        return Case(f"k{k}", run, check)

    def _check_wold(self, wr, truth, du):
        if wr.unitary_dim != du:
            return f"wold: H0 dimension {wr.unitary_dim}, want {du}"
        if not wr.stabilized:
            return "wold: not stabilized"
        B0 = wr.basis_matrix_unitary
        sin_angle = np.linalg.norm(B0 - truth @ (truth.conj().T @ B0), 2) if du else 0.0
        return mismatch("wold principal angle", sin_angle, self.corrupt, ANGLE_TOL)

    @staticmethod
    def _op(model, t: float) -> np.ndarray:
        """Weighted-coordinate matrix of a conjugated multiplication group."""
        B = model.basis
        return B.conj().T @ (np.exp(1j * t * model.inner.symbol)[:, None] * B)

    def _check_periodic(self, periodic, truth, f):
        cell = 2.0 * np.pi / self.LEVEL
        s = periodic.inner.symbol
        err = mismatch("periodic lattice", s / cell, np.round(s / cell) + self.corrupt)
        if err:
            return err
        # on the true H0, the approximant acts as the quantized true group
        moved = self._op(periodic, 1.0) @ truth
        return min(
            (mismatch("periodic on H0", moved, truth * np.exp(1j * qn)[None, :], ANGLE_TOL)
             for qn in snap_down(f, self.LEVEL)),
            key=lambda e: e is not None)

    def _check_aws(self, aws, periodic, cert):
        gaps = np.diff(np.sort(aws.inner.symbol))
        if not bool(np.all(gaps > 0)) or cert is not True:
            return f"aws: certificate {cert}, smallest frequency gap {gaps.min():.3g}"
        dist = np.linalg.norm(self._op(aws, self.T0) - self._op(periodic, self.T0), 2)
        if dist > self.EPS + TOL - self.corrupt:
            return f"aws: distance {dist:.3g} to the periodic approximant at t0 exceeds eps"
        return None

    def _strong_sum(self, diffs, norm) -> float:
        """One witness's term of the forward strong metric, without its 2^-j."""
        return sum(2.0 ** -n * max(diffs[: n + 1]) / norm for n in range(1, self.N + 1))

    def _check_metric(self, value, aws, Q, f, nc, w, wit_c):
        # one-step map V(1) in weighted coordinates from the construction data
        inner = np.zeros((Q.shape[0],) * 2, dtype=complex)
        du = f.size
        inner[:du, :du] = np.diag(np.exp(1j * f))
        inner[du + 1:, du:-1] = np.eye(nc - 1)  # truncated right shift
        W = Q.conj().T @ inner @ Q
        want = 0.0
        for j, c in enumerate(wit_c, start=1):
            x = np.sqrt(w) * c
            v, diffs = x.copy(), []
            for t in range(self.N + 1):
                diffs.append(np.linalg.norm(v - self._op(aws, float(t)) @ x))
                v = W @ v
            want += 2.0 ** -j * self._strong_sum(diffs, np.linalg.norm(x))
        return mismatch("metric_isometric", value, want + self.corrupt)

    def _check_shift_metric(self, value, shift_c):
        # R(t)x = (0_t, x) on nc + t cells; P(t)x = roll(x, t), zero-padded to them
        want = 0.0
        for j, x in enumerate(shift_c, start=1):
            diffs = [np.linalg.norm(np.concatenate([np.zeros(t), x])
                                    - np.concatenate([np.roll(x, t), np.zeros(t)]))
                     for t in range(self.N + 1)]
            want += 2.0 ** -j * self._strong_sum(diffs, np.linalg.norm(x))
        return mismatch("metric_isometric (shift)", value, want + self.corrupt)


# --- scenario_suite ----------------------------------------------------------

SCENARIO_CONFIGS = {
    # per-call overhead at tiny dimension; seeds vary per case
    "quantization_sweep": {"trials": 2000},
    "near_identity_sweep": {},
    "shift_periodization_check": {},
    "wold_benchmark": {},
    # depth 12 as in the default, with a sample count that fits in memory
    "cantor_demo": {"depth": 12, "num_samples": 2001, "row_stride": 20},
    "category_escape": {},
    "metric_tables": {},
}

SMOKE_CONFIGS = {
    "quantization_sweep": {"trials": 20, "dimension": 4, "n_values": [8, 64, 512]},
    "near_identity_sweep": {"dimension": 4, "t_samples": 10},
    "shift_periodization_check": {"cells": 8, "period_cells": 6, "trials": 5},
    "wold_benchmark": {"trials": 2, "max_unitary_dim": 3, "min_shift_cells": 2,
                       "max_shift_cells": 4},
    "cantor_demo": {"depth": 8, "num_samples": 1001, "row_stride": 10},
    "category_escape": {},
    "metric_tables": {"J": 2, "N": 2, "samples_per_block": 4},
}


class ScenarioSuite(Workload):
    """In-process ``cli.load_config`` + ``cli.run_scenario`` over all seven
    scenarios.  A case passes when it exits 0 and its summary validates
    against the package's summary schema."""

    name = "scenario_suite"
    # All seven scenarios; the shares put p50 in the middle of the
    # quantization_sweep group (3 of 13 slots, 5 cheaper and 5 costlier) and
    # p90 inside the cantor_demo group (the costliest, 2 of 13).  Category,
    # wold and metric cases cost about the same, and wold's cost varies with
    # the seed, so no quantile may fall among them.
    cycle = ("quantization_sweep", "near_identity_sweep", "shift_periodization_check",
             "cantor_demo", "quantization_sweep", "shift_periodization_check",
             "category_escape", "wold_benchmark", "near_identity_sweep",
             "quantization_sweep", "shift_periodization_check", "metric_tables",
             "cantor_demo")
    smoke_cycle = tuple(SCENARIO_CONFIGS)
    pool_cycles = 20
    trace_cycles = 4
    # per-call overhead at tiny dimension, and the dense Cantor product
    calibration_mix = ("interp", "matvec")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.configs = SMOKE_CONFIGS if self.smoke else SCENARIO_CONFIGS
        self.schema = json.loads(
            (Path(cli.__file__).parent / "schema" / "summary.schema.json").read_text())
        if self.corrupt:
            self.schema["required"] = self.schema["required"] + ["corrupted"]
        self.out_dir = self.work_dir / "out"
        (self.work_dir / "configs").mkdir(parents=True, exist_ok=True)

    def build_case(self, i: int) -> Case:
        scenario = self.cycle[i % len(self.cycle)]
        seed = int(self.rng(i).integers(2**31))
        path = self.work_dir / "configs" / f"case{i}.json"
        path.write_text(json.dumps({"scenario": scenario, "seed": seed, **self.configs[scenario]}))

        def run():
            return cli.run_scenario(cli.load_config(path), self.out_dir, quiet=True)

        def check(code):
            import jsonschema

            csv_text = (self.out_dir / f"{scenario}.csv").read_bytes()
            doc = json.loads((self.out_dir / f"{scenario}_summary.json").read_text())
            result = {"code": code, "csv": hashlib.sha256(csv_text).hexdigest()[:16],
                      "summary": json.dumps(doc, sort_keys=True)}
            if code != 0:
                return result, f"{scenario}: exit code {code}"
            try:
                jsonschema.validate(doc, self.schema)
            except jsonschema.ValidationError as exc:
                return result, f"{scenario}: summary fails the schema: {exc.message}"
            if doc["scenario"] != scenario or doc["seed"] != seed:
                return result, f"{scenario}: summary names {doc['scenario']} seed {doc['seed']}"
            return result, None

        return Case(scenario, run, check)


WORKLOADS = {w.name: w for w in (UnitaryVerdicts, IsometryRecovery, ScenarioSuite)}
