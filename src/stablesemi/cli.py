"""Scenario runner: reproducible experiments over the library, with a CSV
table and a JSON summary per run.

Scenarios: bound-verification sweeps for the quantization and near-identity
bounds, the exact shift-periodization identity, the Cantor-measure witness
for almost weak stability, the category-escape demonstration, Wold recovery
benchmarks, and metric convergence tables.

Usage: stablesemi run <config.json> [--out DIR] [--seed N] [--quiet]

Exit codes: 0 = all bounds held, 1 = a bound was violated, 2 = config error:
any ValueError while reading or checking a config (a file that is not UTF-8
included), an output directory that cannot be created or a file that cannot
be written.
Config files are flat JSON objects with a `scenario` discriminator; unknown
keys are errors.  The seed fully determines all randomized inputs, so a
fixed config yields byte-identical CSV output.

Each `run_*` scenario returns (table, summary, ok): the table is a dict of
equal-length columns, each a list of plain Python bool, int, float or str,
which `write_outputs` writes as the CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .constructions import (
    approximate_isometry_by_aws,
    cantor_group,
    cantor_transform_abs,
    distinct_frequency_certificate,
    near_identity_aws,
    periodization_error_identity,
    quantize_symbol,
    wold_decompose,
    _phase_distance,
    _snap_down,
)
from .diagnostics import cesaro_mean_abs2, correlation
from .hilbert import DenseSequence, HVector, SumSpace, WeightedGrid, _count, _positive
from .metrics import MetricConfig, metric_unitary
from .semigroups import (
    ConjugatedGroup,
    DirectSumSemigroup,
    MultiplicationGroup,
    ShiftSemigroup,
    _columns,
    _correlations,
    shift_grid,
)


# --- helpers -----------------------------------------------------------------

def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_symbol(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(0.0, 2.0 * np.pi, shape)


def _loglog_slope(ns, errs) -> float:
    ln, le = np.log(np.asarray(ns, float)), np.log(np.asarray(errs, float))
    return float(np.polyfit(ln, le, 1)[0])


# --- scenarios ---------------------------------------------------------------

def run_quantization_sweep(cfg: dict, rng: np.random.Generator):
    dim, trials, t_max = cfg["dimension"], cfg["trials"], cfg["t_max"]
    n_values = cfg["n_values"]
    # every trial's level, time and symbol, as three draws from the stream
    ns = np.asarray(n_values)[rng.integers(0, len(n_values), trials)]
    ts = rng.uniform(-t_max, t_max, trials)
    Q = _random_symbol(rng, (trials, dim))
    # then quantize and measure the whole stack at once
    measured = _phase_distance(Q, _snap_down(Q, ns), ts)
    bound = 2.0 * np.pi * np.abs(ts) / ns
    ratio = np.divide(measured, bound, out=np.zeros(trials), where=bound > 0)
    violations = int(np.count_nonzero(measured > bound * (1.0 + 1e-12)))
    max_err = {n: float(measured[ns == n].max(initial=0.0)) for n in n_values}
    table = {"n": ns.tolist(), "t": ts.tolist(), "measured_dist": measured.tolist(),
             "bound": bound.tolist(), "ratio": ratio.tolist()}
    # fit the rate over distinct levels, only where the bound is below the
    # trivial cap of 2
    fit_ns = [n for n in max_err if 2.0 * np.pi * t_max / n < 2.0 and max_err[n] > 0]
    slope = _loglog_slope(fit_ns, [max_err[n] for n in fit_ns]) if len(fit_ns) >= 2 else float("nan")
    summary = {
        "violations": violations,
        "slope": slope,
        "fit_n_values": fit_ns,
        "max_error_per_n": {str(n): max_err[n] for n in n_values},
    }
    return table, summary, violations == 0


def run_near_identity_sweep(cfg: dict, rng: np.random.Generator):
    dim, n_values, t_samples = cfg["dimension"], cfg["n_values"], cfg["t_samples"]
    grid = WeightedGrid(np.sort(rng.uniform(0, 1, dim)), np.full(dim, 1.0 / dim))
    table = {"n": [], "t": [], "measured_dist": [], "bound": []}
    violations = 0
    for n in n_values:
        U = near_identity_aws(grid, n)
        ts = np.linspace(0.0, np.pi * n, t_samples)
        measured = _phase_distance(U.symbol, 0.0, ts)  # to the identity: q - 0 is exact
        bound = 2.0 * ts / n
        violations += int(np.count_nonzero(measured > bound * (1.0 + 1e-12)))
        table["n"] += [n] * t_samples
        table["t"] += ts.tolist()
        table["measured_dist"] += measured.tolist()
        table["bound"] += bound.tolist()
    return table, {"violations": violations}, violations == 0


def run_shift_periodization_check(cfg: dict, rng: np.random.Generator):
    cells, n_c, trials = cfg["cells"], cfg["period_cells"], cfg["trials"]
    R = ShiftSemigroup(step=1.0, cells=cells)
    # draw every trial first, in the per-trial order of the seeded stream
    fs, ells = [], []
    for _ in range(trials):
        fs.append(HVector(R.grid, rng.standard_normal(cells) + 1j * rng.standard_normal(cells)))
        ells.append(int(rng.integers(1, n_c)))
    # then one identity evaluation per distinct shift count
    lhs, rhs, tail = periodization_error_identity(R, n_c, fs, np.array(ells, dtype=float))
    gap = np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)
    worst_gap = float(gap.max())
    table = {"trial": list(range(trials)), "t": ells, "error_sq": lhs.tolist(),
             "identity_rhs": rhs.tolist(), "tail_bound": tail.tolist(), "rel_gap": gap.tolist()}
    ok = worst_gap <= 1e-12
    summary = {
        "worst_identity_gap": worst_gap,
        "factor2_tail_violations": int(np.count_nonzero(lhs > tail * (1.0 + 1e-12))),
    }
    return table, summary, ok


def run_wold_benchmark(cfg: dict, rng: np.random.Generator):
    trials = cfg["trials"]
    names = ("trial", "true_dim_H0", "recovered_dim", "max_principal_angle", "residual",
             "stabilized", "rank_gap")
    table, ok = {name: [] for name in names}, True
    for trial in range(trials):
        du = int(rng.integers(cfg["min_unitary_dim"], cfg["max_unitary_dim"] + 1))
        nc = int(rng.integers(cfg["min_shift_cells"], cfg["max_shift_cells"] + 1))
        freqs = rng.uniform(-np.pi / 2, np.pi / 2, du)
        gu = WeightedGrid.uniform(du)
        gs = shift_grid(nc, 1.0)
        space = SumSpace((gu, gs))
        inner = DirectSumSemigroup(
            space, (MultiplicationGroup(gu, freqs), ShiftSemigroup(1.0, nc)))
        dim = space.combined.size
        Q = _random_unitary(rng, dim)
        outer = WeightedGrid.uniform(dim)
        V = ConjugatedGroup(outer, Q, inner)
        wr = wold_decompose(V)
        rec = wr.unitary_dim
        # ground truth: H0 is the image of the unitary block under Q*
        truth = Q.conj().T[:, :du]
        if rec == du:
            # both bases are orthonormal, so the largest principal angle has
            # sine ||B0 - P B0||_2, P the projection onto truth's span
            B0 = wr.basis_matrix_unitary / np.sqrt(outer.weights)[:, None]
            sin_angle = np.linalg.norm(B0 - truth @ (truth.conj().T @ B0), 2)
            angle = math.asin(min(1.0, float(sin_angle)))
        else:
            angle = float("nan")
        good = wr.stabilized and rec == du and angle <= 1e-8
        ok = ok and good
        row = (trial, du, rec, angle, wr.residual, wr.stabilized, wr.rank_gap)
        for name, cell in zip(names, row):
            table[name].append(cell)
    gaps = [g for g in table["rank_gap"] if g is not None]
    return table, {"min_rank_gap": min(gaps, default=None)}, ok


def run_cantor_demo(cfg: dict, rng: np.random.Generator):
    horizon, stride = cfg["horizon"], cfg["row_stride"]
    times = np.linspace(0.0, horizon, cfg["num_samples"])
    oracle = cantor_transform_abs(times)
    group = cantor_group(cfg["depth"])
    unit = HVector(group.grid, np.ones(group.grid.size))
    # autocorrelation of the uniform unit vector
    trace = correlation(group, unit, unit, times)
    disc = np.abs(trace.values)
    gap = float(np.abs(oracle - disc).max())
    ces = cesaro_mean_abs2(trace)
    tail = times >= horizon / 2.0
    tail_sup = float(oracle[tail].max())
    table = {"t": times[::stride].tolist(), "abs_corr_product": oracle[::stride].tolist(),
             "abs_corr_discrete": disc[::stride].tolist()}
    ok = ces <= 0.05 and tail_sup >= 0.2
    summary = {
        "cesaro_abs2": ces,
        "tail_sup": tail_sup,
        "discretization_gap": gap,
        "witness_norm": unit.norm(),
    }
    return table, summary, ok


def _quantization_ladder(rng: np.random.Generator, dim: int, n_values, witnesses: int, **metric):
    """(U, seq, ladder, rise): a random multiplication group U on `dim`
    uniform points, then `witnesses` Gaussian witnesses on its grid; per level
    n, (n, U_n, metric_unitary(U, U_n)) with U_n quantized and `metric` the
    MetricConfig fields; and the metric's largest rise from one level to the
    next, d(U, U_{n_{i+1}}) - d(U, U_{n_i}) (None for a one-level ladder),
    which its callers hold to 1e-9."""
    grid = WeightedGrid.uniform(dim, 1.0 / dim)
    U = MultiplicationGroup(grid, _random_symbol(rng, dim))
    seq = DenseSequence.gaussian(grid, witnesses, seed=int(rng.integers(2 ** 31)))
    mcfg = MetricConfig(seq, **metric)
    levels = [quantize_symbol(U, n).approximant for n in n_values]
    ladder = [(n, Un, metric_unitary(U, Un, mcfg)) for n, Un in zip(n_values, levels)]
    values = [mv.value for _, _, mv in ladder]
    rise = max((d - prev for prev, d in zip(values, values[1:])), default=None)
    return U, seq, ladder, rise


def run_category_escape(cfg: dict, rng: np.random.Generator):
    dim, multiples = cfg["dimension"], cfg["multiples"]
    j_count, k_max = cfg["witnesses"], cfg["k_max"]
    U, seq, ladder, rise = _quantization_ladder(
        rng, dim, cfg["n_values"], max(j_count, 6), J=min(6, j_count), N=6,
        samples_per_block=32)
    x = HVector(U.grid, np.ones(dim))  # unit witness for the M_t escape

    # the escape rows, `multiples` per level, then one AWS row per witness
    ns, ts, values, metric = [], [], [], []
    for n, Vn, d in ladder:
        revivals = np.abs(correlation(Vn, x, x, n * np.arange(1, multiples + 1)).values)
        ns += [n] * multiples
        ts += range(n, n * multiples + 1, n)
        values += revivals.tolist()
        metric += [d.value] * multiples
    escaped = [val > 0.5 for val in values]  # outside the closed set M_t
    n_escape = len(values)

    # residual mechanism: the perturbed group enters W_{jk} for all witnesses
    aws = approximate_isometry_by_aws(
        U, cfg["eps"], cfg["t0"], n=cfg["base_level"], copies=cfg["copies"])
    t_sweep = np.unique(np.concatenate([
        np.linspace(1.0, 200.0, 200),
        np.exp(rng.uniform(np.log(10.0), np.log(1e5), 400)),
    ]))
    # every witness's autocorrelation in one call
    wit, own = seq.vectors[:j_count], np.arange(j_count)
    vals = np.abs(_correlations(aws, *_columns((aws,), wit), own, own, t_sweep)[0])
    for j, xj in enumerate(wit):
        trace = vals[:, j] / xj.norm() ** 2
        best = int(np.argmin(trace))
        ts.append(float(t_sweep[best]))
        values.append(float(trace[best]))
        escaped.append(bool(trace[best] < 1.0 / k_max))  # inside the open set W_jkt
    table = {
        "table": ["escape"] * n_escape + ["aws"] * j_count,
        "n": ns + [cfg["base_level"]] * j_count, "t": ts,
        "witness": [-1] * n_escape + list(range(j_count)), "value": values, "escaped": escaped,
        "metric_to_base": metric + [float("nan")] * j_count,
    }
    summary = {"frequencies_distinct": distinct_frequency_certificate(aws),
               "max_ladder_rise": rise}
    return table, summary, all(escaped) and (rise is None or rise <= 1e-9)


def run_metric_tables(cfg: dict, rng: np.random.Generator):
    _, _, ladder, rise = _quantization_ladder(
        rng, cfg["dimension"], cfg["n_values"], cfg["J"], J=cfg["J"], N=cfg["N"],
        samples_per_block=cfg["samples_per_block"])
    table = {
        "n": [n for n, _, _ in ladder],
        "metric_value": [mv.value for _, _, mv in ladder],
        "truncation_bound": [mv.truncation_bound for _, _, mv in ladder],
        "sampling_slack": [mv.sampling_slack for _, _, mv in ladder],
    }
    return table, {"max_ladder_rise": rise}, rise is None or rise <= 1e-9


SCENARIOS = {
    "quantization_sweep": (
        run_quantization_sweep,
        {"dimension": 32, "trials": 10000, "t_max": 10.0,
         "n_values": [8, 16, 32, 64, 128, 256, 512, 1024]},
    ),
    "near_identity_sweep": (
        run_near_identity_sweep,
        {"dimension": 32, "n_values": [4, 64, 512], "t_samples": 200},
    ),
    "shift_periodization_check": (
        run_shift_periodization_check,
        {"cells": 48, "period_cells": 32, "trials": 200},
    ),
    "wold_benchmark": (
        run_wold_benchmark,
        {"trials": 20, "min_unitary_dim": 1, "max_unitary_dim": 10,
         "min_shift_cells": 5, "max_shift_cells": 50},
    ),
    "cantor_demo": (
        run_cantor_demo,
        {"depth": 12, "horizon": 10000.0, "num_samples": 200001, "row_stride": 1000},
    ),
    "category_escape": (
        run_category_escape,
        {"dimension": 24, "base_level": 64, "n_values": [64, 128, 256, 512],
         "multiples": 3, "witnesses": 6, "k_max": 3,
         "eps": 0.25, "t0": 5.0, "copies": 2},
    ),
    "metric_tables": (
        run_metric_tables,
        {"dimension": 24, "n_values": [64, 128, 256, 512],
         "J": 8, "N": 6, "samples_per_block": 32},
    ),
}


def load_config(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # a JSON or UTF-8 decode error is a ValueError
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError("config must be a flat JSON object")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; choose one of {sorted(SCENARIOS)}")
    _, defaults = SCENARIOS[scenario]
    allowed = set(defaults) | {"scenario", "seed"}
    unknown = set(raw) - allowed
    if unknown:
        raise ValueError(f"unknown config keys for {scenario}: {sorted(unknown)}")
    cfg = dict(defaults)
    cfg.update(raw)
    cfg["seed"] = _count(cfg.get("seed", 0), "seed", 0)
    _check_values(cfg, defaults)
    return cfg


# counts that need two: a time grid needs two samples, a trial draws its period
# from [1, period_cells), and a perturbed frequency needs a copy beside it
_AT_LEAST_TWO = {"num_samples", "samples_per_block", "period_cells", "copies"}


def _check_values(cfg: dict, defaults: dict) -> None:
    """Reject values the scenario cannot run with, before it runs, by the type
    of each default and the rules of `hilbert._count` and `hilbert._positive`:
    an int is a count >= 1 (>= 2 in _AT_LEAST_TWO), a float a finite number
    > 0, a list a non-empty list of counts >= 1."""
    for key, default in defaults.items():
        v = cfg[key]
        if isinstance(default, int):
            _count(v, key, 2 if key in _AT_LEAST_TWO else 1)
        elif isinstance(default, float):
            _positive(v, key)
        elif isinstance(v, list) and v:
            for n in v:
                _count(n, key)
        else:
            raise ValueError(f"{key} must be a non-empty list of integers >= 1, got {v!r}")
    for key in defaults:  # a min_* bound may not exceed its max_*
        top = "max_" + key[4:]
        if key.startswith("min_") and cfg[key] > cfg[top]:
            raise ValueError(f"{key} must be <= {top}, got {cfg[key]!r} > {cfg[top]!r}")


def _json_safe(v):
    """The value with every non-finite float replaced by None (JSON null)."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def write_outputs(cfg: dict, table: dict, summary: dict, ok: bool, out_dir: Path, quiet: bool):
    """Write `<scenario>.csv` and `<scenario>_summary.json` under out_dir and
    return their paths.  The table is a dict of equal-length columns (else
    ValueError); the CSV is its keys as the header, then one line per row,
    each cell written as `str` of its value, which for a float is its
    `repr`, with LF line endings and no quoting: every cell is a plain
    Python bool, int, float or str with no comma, quote or newline in it.
    An empty table writes an empty CSV."""
    columns = list(table.values())
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"table columns differ in length: {dict(zip(table, lengths))}")
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = cfg["scenario"]
    csv_path = out_dir / f"{scenario}.csv"
    json_path = out_dir / f"{scenario}_summary.json"
    lines = [",".join(table)] if table else []
    lines += map(",".join, zip(*[list(map(str, col)) for col in columns]))
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    n_rows = lengths[0] if lengths else 0
    doc = {
        "scenario": scenario,
        "seed": cfg["seed"],
        "rows": n_rows,
        "bounds_ok": ok,
        "metrics": _json_safe(summary),
    }
    json_path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    if not quiet:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {scenario}: {n_rows} rows -> {csv_path}")
        for key, val in summary.items():
            print(f"    {key} = {val}")
    return csv_path, json_path


def run_scenario(cfg: dict, out_dir: Path, quiet: bool = False) -> int:
    fn, _ = SCENARIOS[cfg["scenario"]]
    rng = np.random.default_rng(cfg["seed"])
    table, summary, ok = fn(cfg, rng)
    write_outputs(cfg, table, summary, ok, out_dir, quiet)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stablesemi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a scenario config")
    runp.add_argument("config", type=Path)
    runp.add_argument("--out", type=Path, default=Path("."),
                      help="output directory (default: the current one)")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _count(args.seed, "seed", 0)
        args.out.mkdir(parents=True, exist_ok=True)  # before the scenario runs
    except OSError as exc:
        print(f"config error: cannot create output directory {args.out}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return run_scenario(cfg, args.out, args.quiet)
    except OSError as exc:
        print(f"config error: cannot write outputs to {args.out}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
