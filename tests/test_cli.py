import csv
import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from stablesemi.cli import (
    SCENARIOS,
    load_config,
    main,
    run_category_escape,
    run_metric_tables,
    run_near_identity_sweep,
    run_quantization_sweep,
    run_shift_periodization_check,
    run_wold_benchmark,
    write_outputs,
)
from stablesemi import cli, constructions
from stablesemi.constructions import (
    distinct_frequency_certificate, inflate_and_perturb, near_identity_aws, quantize_symbol)
from stablesemi.diagnostics import correlation
from stablesemi.hilbert import DenseSequence, HVector, WeightedGrid
from stablesemi.metrics import MetricConfig, metric_unitary
from stablesemi.semigroups import MultiplicationGroup


def _write(tmp_path: Path, name: str, doc: dict) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


SMALL = {
    "scenario": "quantization_sweep",
    "seed": 5,
    "trials": 60,
    "dimension": 8,
    "n_values": [16, 64, 256],
    "t_max": 5.0,
}


def _schema():
    ref = resources.files("stablesemi") / "schema" / "summary.schema.json"
    return json.loads(ref.read_text())


class TestConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(_write(tmp_path, "c.json", {"scenario": "cantor_demo"}))
        assert cfg["depth"] == 12 and cfg["seed"] == 0

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config keys"):
            load_config(_write(tmp_path, "c.json", {"scenario": "cantor_demo", "nope": 1}))

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            load_config(_write(tmp_path, "c.json", {"scenario": "wat"}))

    @pytest.mark.parametrize("bad", [
        {"depth": 0}, {"depth": 2.5}, {"num_samples": 1}, {"row_stride": 0},
        {"horizon": 0.0}, {"horizon": -3.0}, {"horizon": "10"},
    ])
    def test_cantor_demo_values_rejected(self, tmp_path, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            load_config(_write(tmp_path, "c.json", {"scenario": "cantor_demo", **bad}))

    @pytest.mark.parametrize("scenario,bad", [
        ("quantization_sweep", {"n_values": [0]}),
        ("quantization_sweep", {"n_values": []}),
        ("quantization_sweep", {"n_values": [8.5]}),
        ("quantization_sweep", {"n_values": [8, True]}),
        ("quantization_sweep", {"n_values": 8}),
        ("quantization_sweep", {"dimension": 0}),
        ("quantization_sweep", {"dimension": True}),
        ("quantization_sweep", {"trials": 0}),
        ("quantization_sweep", {"trials": 10.0}),
        ("quantization_sweep", {"t_max": 0.0}),
        ("quantization_sweep", {"t_max": -1}),
        ("quantization_sweep", {"t_max": math.inf}),
        ("quantization_sweep", {"t_max": "10"}),
        ("near_identity_sweep", {"n_values": [0]}),
        ("near_identity_sweep", {"n_values": []}),
        ("near_identity_sweep", {"n_values": [2.5]}),
        ("near_identity_sweep", {"dimension": 0}),
        ("near_identity_sweep", {"t_samples": 0}),
        ("near_identity_sweep", {"t_samples": None}),
        ("shift_periodization_check", {"period_cells": 1}),
        ("shift_periodization_check", {"cells": 0}),
        ("shift_periodization_check", {"trials": 0}),
        ("wold_benchmark", {"trials": -1}),
        ("wold_benchmark", {"min_unitary_dim": 5, "max_unitary_dim": 4}),
        ("wold_benchmark", {"min_shift_cells": 9, "max_shift_cells": 8}),
        ("wold_benchmark", {"min_shift_cells": 0}),
        ("wold_benchmark", {"min_unitary_dim": 0}),
        ("category_escape", {"witnesses": 0}),
        ("category_escape", {"copies": 1}),
        ("category_escape", {"eps": 0.0}),
        ("category_escape", {"n_values": [64, 0]}),
        ("metric_tables", {"J": 0}),
        ("metric_tables", {"samples_per_block": 1}),
        ("metric_tables", {"n_values": []}),
        ("cantor_demo", {"seed": -1}),
        ("cantor_demo", {"seed": 1.5}),
        ("cantor_demo", {"seed": "7"}),
        ("metric_tables", {"seed": True}),
    ])
    def test_sweep_values_rejected(self, tmp_path, scenario, bad):
        with pytest.raises(ValueError, match=next(iter(bad))):
            load_config(_write(tmp_path, "c.json", {"scenario": scenario, **bad}))

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_every_default_has_a_checked_type(self, scenario):
        # guard: the value rules are read from each default's type, so a
        # default of any other type would go unchecked
        _, defaults = SCENARIOS[scenario]
        assert [k for k, v in defaults.items()
                if isinstance(v, bool) or not isinstance(v, (int, float, list))] == []

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ValueError):
            load_config(p)


class TestMain:
    def test_exit_codes(self, tmp_path, capsys, monkeypatch):
        cfgp = _write(tmp_path, "ok.json", SMALL)
        assert main(["run", str(cfgp), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        bad = _write(tmp_path, "bad.json", {"scenario": "cantor_demo", "zz": 1})
        assert main(["run", str(bad)]) == 2
        # so is a config that is not UTF-8, named by its path, with no traceback
        undecodable = tmp_path / "bytes.json"
        undecodable.write_bytes(b"\xff\xfe{}")
        assert main(["run", str(undecodable)]) == 2
        assert f"cannot read config {undecodable}" in capsys.readouterr().err
        # so is an output file that cannot be written, found after the scenario ran
        (tmp_path / "w" / f"{SMALL['scenario']}.csv").mkdir(parents=True)
        assert main(["run", str(cfgp), "--out", str(tmp_path / "w"), "--quiet"]) == 2
        assert "cannot write outputs to" in capsys.readouterr().err
        # an output directory that cannot be created is a config error,
        # found before the scenario runs (exit 1 would mean a violated bound)
        blocker = tmp_path / "a_file"
        blocker.write_text("")

        def not_run(*args):
            raise AssertionError("the scenario ran")

        monkeypatch.setattr(cli, "run_scenario", not_run)
        assert main(["run", str(cfgp), "--out", str(blocker / "sub"), "--quiet"]) == 2
        assert "cannot create output directory" in capsys.readouterr().err

    def test_fiber_dim_is_an_unknown_key(self, tmp_path, capsys):
        # shifts are scalar; a multiplicity is a direct sum of shifts
        bad = _write(tmp_path, "bad.json", {"scenario": "shift_periodization_check", "fiber_dim": 1})
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_of_range_value_exits_2(self, tmp_path):
        bad = _write(tmp_path, "bad.json", {"scenario": "cantor_demo", "depth": 0})
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        ok = _write(tmp_path, "ok.json", SMALL)
        assert main(["run", str(ok), "--out", str(tmp_path / "o"), "--seed", "-3", "--quiet"]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [
        {"n_values": [0]}, {"n_values": []}, {"n_values": [8.5]}, {"dimension": 0},
        {"scenario": "metric_tables", "J": 0},
        {"scenario": "category_escape", "witnesses": 0},
        {"scenario": "shift_periodization_check", "period_cells": 1},
        {"scenario": "wold_benchmark", "trials": -1},
        {"seed": -1}, {"seed": 1.5}, {"seed": "7"}, {"seed": True},
        # the output names are the scenario's; --out picks the directory
        {"csv_name": "other.csv"}, {"json_name": "other.json"},
    ])
    def test_bad_sweep_value_exits_2(self, tmp_path, bad):
        cfgp = _write(tmp_path, "bad.json", {"scenario": "quantization_sweep", **bad})
        assert main(["run", str(cfgp), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_rows(self, tmp_path):
        cfgp = _write(tmp_path, "ok.json", SMALL)
        for seed, sub in [(5, "a"), (9, "b")]:
            main(["run", str(cfgp), "--out", str(tmp_path / sub), "--seed", str(seed), "--quiet"])
        a = (tmp_path / "a" / "quantization_sweep.csv").read_bytes()
        b = (tmp_path / "b" / "quantization_sweep.csv").read_bytes()
        assert a != b

    def test_deterministic_byte_identical(self, tmp_path):
        cfgp = _write(tmp_path, "ok.json", SMALL)
        for sub in ["r1", "r2"]:
            assert main(["run", str(cfgp), "--out", str(tmp_path / sub), "--quiet"]) == 0
        for name in ["quantization_sweep.csv", "quantization_sweep_summary.json"]:
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    cfgp = _write(tmp, "ok.json", SMALL)
    assert main(["run", str(cfgp), "--out", str(tmp), "--quiet"]) == 0
    return tmp


class TestOutputs:

    def test_csv_well_formed(self, outputs):
        with open(outputs / "quantization_sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == SMALL["trials"]
        assert set(rows[0]) == {"n", "t", "measured_dist", "bound", "ratio"}
        for row in rows:
            assert float(row["measured_dist"]) <= float(row["bound"]) + 1e-12

    def test_csv_uses_lf_line_endings(self, outputs):
        raw = (outputs / "quantization_sweep.csv").read_bytes()
        assert b"\r" not in raw

    def test_summary_validates_against_schema(self, outputs):
        doc = json.loads((outputs / "quantization_sweep_summary.json").read_text())
        jsonschema.validate(doc, _schema())
        assert doc["bounds_ok"] is True
        assert doc["rows"] == SMALL["trials"]

    def test_summary_is_strict_json(self, tmp_path):
        # one n value leaves no rate to fit: the slope is NaN, written as null
        cfgp = _write(tmp_path, "nan.json",
                      {"scenario": "quantization_sweep", "trials": 50, "n_values": [8]})
        assert main(["run", str(cfgp), "--out", str(tmp_path), "--quiet"]) == 0

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        text = (tmp_path / "quantization_sweep_summary.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        jsonschema.validate(doc, _schema())
        assert doc["metrics"]["slope"] is None

    def test_all_scenarios_validate(self, tmp_path):
        schema = _schema()
        quick = {
            "near_identity_sweep": {"dimension": 6, "n_values": [8, 32], "t_samples": 10},
            "shift_periodization_check": {"cells": 12, "period_cells": 8, "trials": 5},
            "wold_benchmark": {"trials": 2, "max_unitary_dim": 4, "max_shift_cells": 8},
            "cantor_demo": {"depth": 6, "num_samples": 2001, "row_stride": 200},
            "metric_tables": {"dimension": 8, "n_values": [32, 64], "J": 4, "N": 4,
                              "samples_per_block": 8},
        }
        for scenario, overrides in quick.items():
            cfgp = _write(tmp_path, f"{scenario}.json", {"scenario": scenario, **overrides})
            assert main(["run", str(cfgp), "--out", str(tmp_path), "--quiet"]) == 0
            doc = json.loads((tmp_path / f"{scenario}_summary.json").read_text())
            jsonschema.validate(doc, schema)


# --- reference implementations, one trial or one time at a time ---------------

def _reference_quantization_sweep(cfg):
    dim, trials, t_max, n_values = cfg["dimension"], cfg["trials"], cfg["t_max"], cfg["n_values"]
    rng = np.random.default_rng(cfg["seed"])
    grid = WeightedGrid.uniform(dim, 1.0 / dim)
    rows, violations = [], 0
    max_err = {n: 0.0 for n in n_values}
    # the trials' levels, times and symbols, each drawn as one array
    ns, ts = rng.choice(n_values, trials).tolist(), rng.uniform(-t_max, t_max, trials).tolist()
    for n, t, q in zip(ns, ts, rng.uniform(0.0, 2.0 * np.pi, (trials, dim))):
        U = MultiplicationGroup(grid, q)
        qn = quantize_symbol(U, n).approximant.symbol
        measured = float(2.0 * np.abs(np.sin(t * (0.5 * (U.symbol - qn)))).max())
        bound = 2.0 * np.pi * abs(t) / n
        violations += measured > bound * (1.0 + 1e-12)
        max_err[n] = max(max_err[n], measured)
        rows.append({"n": n, "t": t, "measured_dist": measured, "bound": bound,
                     "ratio": measured / bound if bound > 0 else 0.0})
    fit_ns = [n for n in max_err if 2.0 * np.pi * t_max / n < 2.0 and max_err[n] > 0]
    slope = (float(np.polyfit(np.log(fit_ns), np.log([max_err[n] for n in fit_ns]), 1)[0])
             if len(fit_ns) >= 2 else float("nan"))
    summary = {"violations": violations, "slope": slope, "fit_n_values": fit_ns,
               "max_error_per_n": {str(n): max_err[n] for n in n_values}}
    return rows, summary


def _reference_category_escape(cfg):
    """The scenario built by hand: a floor onto (2*pi/base_level)Z, then
    inflation and compression for the almost weakly stable group; each
    membership decided from the trace value: an escape row is outside M_t
    (value > 1/2), an AWS row inside W_jkt (value < 1/k_max)."""
    dim, base_level = cfg["dimension"], cfg["base_level"]
    n_values, multiples = cfg["n_values"], cfg["multiples"]
    j_count, k_max = cfg["witnesses"], cfg["k_max"]
    rng = np.random.default_rng(cfg["seed"])
    grid = WeightedGrid.uniform(dim, 1.0 / dim)
    U = MultiplicationGroup(grid, rng.uniform(0.0, 2.0 * np.pi, dim))
    x = HVector(grid, np.ones(dim))
    seq = DenseSequence.gaussian(grid, max(j_count, 6), seed=int(rng.integers(2 ** 31)))
    mcfg = MetricConfig(seq, J=min(6, j_count), N=6, samples_per_block=32)
    rows, ok, prev, rise = [], True, None, None
    for n in n_values:
        Vn = quantize_symbol(U, n).approximant
        d = metric_unitary(U, Vn, mcfg).value
        revivals = np.abs(correlation(Vn, x, x, n * np.arange(1, multiples + 1)).values)
        for m, val in enumerate(revivals.tolist(), start=1):
            escaped = val > 0.5
            ok = ok and escaped
            rows.append({"table": "escape", "n": n, "t": m * n, "witness": -1,
                         "value": val, "escaped": escaped, "metric_to_base": d})
        if prev is not None:
            ok = ok and d <= prev + 1e-9
            rise = d - prev if rise is None else max(rise, d - prev)
        prev = d
    jcell = 2.0 * np.pi / base_level
    base = MultiplicationGroup(grid, jcell * np.floor(U.symbol / jcell))
    infl = inflate_and_perturb(base, [], cfg["eps"], cfg["t0"], copies=cfg["copies"])
    aws = MultiplicationGroup(grid, infl.group.symbol[infl.embed_index])
    t_sweep = np.unique(np.concatenate([
        np.linspace(1.0, 200.0, 200), np.exp(rng.uniform(np.log(10.0), np.log(1e5), 400))]))
    for j in range(j_count):
        xj = seq[j]
        vals = np.abs(correlation(aws, xj, xj, t_sweep).values) / xj.norm() ** 2
        best_t = float(t_sweep[int(np.argmin(vals))])
        entered = bool(vals.min() < 1.0 / k_max)
        ok = ok and entered
        rows.append({"table": "aws", "n": base_level, "t": best_t, "witness": j,
                     "value": float(vals.min()), "escaped": entered,
                     "metric_to_base": float("nan")})
    summary = {"frequencies_distinct": distinct_frequency_certificate(infl.group),
               "max_ladder_rise": rise}
    return rows, summary, ok


def _reference_metric_tables(cfg):
    dim, n_values = cfg["dimension"], cfg["n_values"]
    rng = np.random.default_rng(cfg["seed"])
    grid = WeightedGrid.uniform(dim, 1.0 / dim)
    U = MultiplicationGroup(grid, rng.uniform(0.0, 2.0 * np.pi, dim))
    seq = DenseSequence.gaussian(grid, cfg["J"], seed=int(rng.integers(2 ** 31)))
    mcfg = MetricConfig(seq, J=cfg["J"], N=cfg["N"], samples_per_block=cfg["samples_per_block"])
    rows, ok, prev, rise = [], True, None, None
    for n in n_values:
        mv = metric_unitary(U, quantize_symbol(U, n).approximant, mcfg)
        if prev is not None:
            ok = ok and mv.value <= prev + 1e-9
            rise = mv.value - prev if rise is None else max(rise, mv.value - prev)
        prev = mv.value
        rows.append({"n": n, "metric_value": mv.value, "truncation_bound": mv.truncation_bound,
                     "sampling_slack": mv.sampling_slack})
    return rows, {"max_ladder_rise": rise}, ok


def _same_rows(table, want):
    # the table's columns against the reference rows, each cell by its type
    # and repr, which the CSV text is, NaN included
    def cells(columns):
        return [(k, [(type(v), repr(v)) for v in col]) for k, col in columns.items()]
    assert cells(table) == cells({k: [r[k] for r in want] for k in want[0]})


class TestBatchedSweeps:
    @pytest.mark.parametrize("overrides", [
        {"trials": 300},
        {"trials": 50, "n_values": [8]},
        {"trials": 200, "dimension": 5, "t_max": 3.0, "n_values": [64, 8, 64, 512, 8]},
        # one distinct level below the cap leaves no rate to fit
        {"trials": 60, "seed": 0, "n_values": [16, 16, 64, 3, 64]},
    ])
    def test_quantization_sweep_matches_per_trial_loop(self, overrides):
        cfg = {**SCENARIOS["quantization_sweep"][1], "seed": 11, **overrides}
        table, summary, ok = run_quantization_sweep(cfg, np.random.default_rng(cfg["seed"]))
        want_rows, want_summary = _reference_quantization_sweep(cfg)
        _same_rows(table, want_rows)
        slope, want_slope = summary.pop("slope"), want_summary.pop("slope")
        assert slope == want_slope or (math.isnan(slope) and math.isnan(want_slope))
        assert summary == want_summary
        assert ok == (want_summary["violations"] == 0)
        assert len(set(summary["fit_n_values"])) == len(summary["fit_n_values"])

    @pytest.mark.parametrize("trials", [1, 7, 500])
    def test_quantization_sweep_draws_three_arrays(self, trials):
        class Counting:
            """A Generator that counts the draws made through it."""
            def __init__(self, rng):
                self.rng, self.draws = rng, 0

            def __getattr__(self, name):
                draw = getattr(self.rng, name)

                def counted(*args, **kwargs):
                    self.draws += 1
                    return draw(*args, **kwargs)
                return counted

        rng = Counting(np.random.default_rng(3))
        cfg = {**SCENARIOS["quantization_sweep"][1], "trials": trials, "dimension": 4}
        table, _, _ = run_quantization_sweep(cfg, rng)
        assert len(table["n"]) == trials and rng.draws == 3

    def test_shift_periodization_check_evaluates_once_per_shift_count(self, monkeypatch):
        calls = []
        diff_norms = constructions._diff_norms

        def counted(*args):
            calls.append(args[-1])
            return diff_norms(*args)
        monkeypatch.setattr(constructions, "_diff_norms", counted)
        cfg = {"cells": 12, "period_cells": 8, "trials": 50}
        table, summary, ok = run_shift_periodization_check(cfg, np.random.default_rng(6))
        # 50 trials draw their shift counts from [1, 8)
        assert len(table["trial"]) == 50 and ok and len(calls) <= 7
        assert sorted(float(t[0]) for t in calls) == sorted({float(t) for t in table["t"]})

    def test_near_identity_sweep_matches_per_time_loop(self):
        cfg = {"dimension": 7, "n_values": [1, 4, 64], "t_samples": 25}
        table, summary, ok = run_near_identity_sweep(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        grid = WeightedGrid(np.sort(rng.uniform(0, 1, 7)), np.full(7, 1.0 / 7))
        want = []
        for n in cfg["n_values"]:
            U = near_identity_aws(grid, n)
            for t in np.linspace(0.0, np.pi * n, 25):
                want.append({"n": n, "t": float(t),
                             "measured_dist": float(2.0 * np.abs(np.sin(t * (0.5 * U.symbol))).max()),
                             "bound": float(2.0 * t / n)})
        _same_rows(table, want)
        assert ok and summary == {"violations": 0}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("overrides", [{}, {"copies": 5, "base_level": 16, "witnesses": 3}])
    def test_category_escape_matches_hand_built_pipeline(self, overrides, seed):
        cfg = {**SCENARIOS["category_escape"][1], "seed": seed, **overrides}
        table, summary, ok = run_category_escape(cfg, np.random.default_rng(seed))
        want_rows, want_summary, want_ok = _reference_category_escape(cfg)
        _same_rows(table, want_rows)
        assert summary == want_summary and ok == want_ok

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("overrides", [{}, {"J": 3, "N": 2, "n_values": [512, 64, 64, 8]}])
    def test_metric_tables_matches_per_level_loop(self, overrides, seed):
        cfg = {**SCENARIOS["metric_tables"][1], "seed": seed, **overrides}
        table, summary, ok = run_metric_tables(cfg, np.random.default_rng(seed))
        want_rows, want_summary, want_ok = _reference_metric_tables(cfg)
        _same_rows(table, want_rows)
        assert summary == want_summary and ok == want_ok


@pytest.mark.parametrize("scenario,flag", [
    ("metric_tables", "monotone"), ("category_escape", "all_escaped_and_entered")])
def test_metric_rising_along_the_ladder_fails_the_run(tmp_path, scenario, flag):
    # level 8 lies farther from U than level 512, so the metric rises
    cfgp = _write(tmp_path, "c.json", {"scenario": scenario, "n_values": [512, 8]})
    assert main(["run", str(cfgp), "--out", str(tmp_path), "--quiet"]) == 1
    doc = json.loads((tmp_path / f"{scenario}_summary.json").read_text())
    # the verdict lives in bounds_ok alone, and the rise that failed it is named
    assert doc["bounds_ok"] is False and flag not in doc["metrics"]
    assert doc["metrics"]["max_ladder_rise"] > 1e-9
    with open(tmp_path / f"{scenario}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # every escape and entry held: the rise alone fails category_escape
    assert all(r.get("escaped", "True") == "True" for r in rows)


# every scenario at a size small enough for a unit test
QUICK = {
    "quantization_sweep": {"trials": 30, "dimension": 4, "n_values": [8, 64]},
    "near_identity_sweep": {"dimension": 6, "n_values": [8, 32], "t_samples": 10},
    "shift_periodization_check": {"cells": 12, "period_cells": 8, "trials": 5},
    "wold_benchmark": {"trials": 2, "max_unitary_dim": 4, "max_shift_cells": 8},
    "cantor_demo": {"depth": 6, "num_samples": 2001, "row_stride": 200},
    "category_escape": {},
    "metric_tables": {"dimension": 8, "n_values": [32, 64], "J": 4, "N": 4,
                      "samples_per_block": 8},
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_write_outputs_matches_dictwriter(tmp_path, scenario):
    fn, defaults = SCENARIOS[scenario]
    cfg = {**defaults, **QUICK[scenario], "scenario": scenario, "seed": 4}
    table, summary, ok = fn(cfg, np.random.default_rng(cfg["seed"]))
    if scenario == "category_escape":
        # bools, strings, ints and NaN all reach the CSV
        kinds = {type(col[-1]) for col in table.values()}
        assert {bool, str, int, float} <= kinds and math.isnan(table["metric_to_base"][-1])
    # the writer writes each cell as str of its value, so each is a plain
    # Python scalar
    assert {type(v) for col in table.values() for v in col} <= {bool, int, float, str}
    csv_path, _ = write_outputs(cfg, table, summary, ok, tmp_path, quiet=True)
    rows = [dict(zip(table, cells)) for cells in zip(*table.values())]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    assert csv_path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_no_summary_restates_bounds_ok(scenario):
    # bounds_ok is each scenario's one verdict; no metrics key restates it
    fn, defaults = SCENARIOS[scenario]
    cfg = {**defaults, **QUICK[scenario], "scenario": scenario, "seed": 4}
    _, summary, _ = fn(cfg, np.random.default_rng(cfg["seed"]))
    assert not {"all_exact", "all_escaped_and_entered", "monotone"} & set(summary)


def test_wold_benchmark_fails_an_unsound_split(monkeypatch):
    # every recovered dimension and angle can hold while the split is unsound
    split = cli.wold_decompose
    monkeypatch.setattr(
        cli, "wold_decompose", lambda V: dataclasses.replace(split(V), stabilized=False))
    cfg = {**SCENARIOS["wold_benchmark"][1], **QUICK["wold_benchmark"], "seed": 4}
    table, _, ok = run_wold_benchmark(cfg, np.random.default_rng(cfg["seed"]))
    assert table["stabilized"] and ok is False
    # each row names its failed split
    assert all(s is False for s in table["stabilized"])


def test_a_numpy_scalar_in_the_summary_is_refused(tmp_path):
    cfg = {"scenario": "wold_benchmark", "seed": 0}
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_outputs(cfg, {}, {"count": np.int64(3)}, True, tmp_path, quiet=True)


def test_write_outputs_matches_csv_writer_on_edge_cells(tmp_path):
    # cells past what the scenarios write: a negative int, a signed zero,
    # floats repr writes in exponent form, NaN and inf
    cells = [True, -1, 0.1, -0.0, 1e16, 1.5e-05, math.nan, math.inf, "escape"]
    names = [f"c{i}" for i in range(len(cells))]
    cfg = {"scenario": "category_escape", "seed": 0}
    csv_path, _ = write_outputs(
        cfg, {k: [v, v] for k, v in zip(names, cells)}, {}, True, tmp_path, quiet=True)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([names, cells, cells])
    assert csv_path.read_bytes() == ref.read_bytes()


def test_write_outputs_refuses_columns_of_unequal_length(tmp_path):
    cfg = {"scenario": "metric_tables", "seed": 0}
    with pytest.raises(ValueError, match=r"\{'n': 3, 'metric_value': 2\}"):
        write_outputs(cfg, {"n": [1, 2, 3], "metric_value": [0.5, 0.25]}, {}, True,
                      tmp_path, quiet=True)
    assert not (tmp_path / "metric_tables.csv").exists()
    # an empty table writes an empty CSV and no rows
    csv_path, json_path = write_outputs(cfg, {}, {}, True, tmp_path, quiet=True)
    assert csv_path.read_bytes() == b"" and json.loads(json_path.read_text())["rows"] == 0
