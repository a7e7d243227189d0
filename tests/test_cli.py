import csv
import json
import math
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from stablesemi.cli import (
    SCENARIOS,
    ConfigError,
    _fmt,
    load_config,
    main,
    run_near_identity_sweep,
    run_quantization_sweep,
    write_outputs,
)
from stablesemi.constructions import near_identity_aws, quantize_symbol
from stablesemi.hilbert import WeightedGrid
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
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config(_write(tmp_path, "c.json", {"scenario": "cantor_demo", "nope": 1}))

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown scenario"):
            load_config(_write(tmp_path, "c.json", {"scenario": "wat"}))

    @pytest.mark.parametrize("bad", [
        {"depth": 0}, {"depth": 2.5}, {"num_samples": 1}, {"row_stride": 0},
        {"horizon": 0.0}, {"horizon": -3.0}, {"horizon": "10"},
    ])
    def test_cantor_demo_values_rejected(self, tmp_path, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
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
    ])
    def test_sweep_values_rejected(self, tmp_path, scenario, bad):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            load_config(_write(tmp_path, "c.json", {"scenario": scenario, **bad}))

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(p)


class TestMain:
    def test_exit_codes(self, tmp_path):
        cfgp = _write(tmp_path, "ok.json", SMALL)
        assert main(["run", str(cfgp), "--out", str(tmp_path / "o"), "--quiet"]) == 0
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        bad = _write(tmp_path, "bad.json", {"scenario": "cantor_demo", "zz": 1})
        assert main(["run", str(bad)]) == 2

    def test_out_of_range_value_exits_2(self, tmp_path):
        bad = _write(tmp_path, "bad.json", {"scenario": "cantor_demo", "depth": 0})
        assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", [
        {"n_values": [0]}, {"n_values": []}, {"n_values": [8.5]}, {"dimension": 0},
        {"scenario": "metric_tables", "J": 0},
        {"scenario": "category_escape", "witnesses": 0},
        {"scenario": "shift_periodization_check", "period_cells": 1},
        {"scenario": "wold_benchmark", "trials": -1},
    ])
    def test_bad_sweep_value_exits_2(self, tmp_path, bad):
        cfgp = _write(tmp_path, "bad.json", {"scenario": "quantization_sweep", **bad})
        assert main(["run", str(cfgp), "--out", str(tmp_path / "o"), "--quiet"]) == 2
        assert not (tmp_path / "o").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        cfgp = _write(tmp_path, "ok.json", SMALL)
        monkeypatch.setenv("STABLESEMI_OUT", str(tmp_path / "envout"))
        assert main(["run", str(cfgp), "--quiet"]) == 0
        assert (tmp_path / "envout" / "quantization_sweep.csv").exists()

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
    for _ in range(trials):
        n = int(rng.choice(n_values))
        t = float(rng.uniform(-t_max, t_max))
        U = MultiplicationGroup(grid, rng.uniform(0.0, 2.0 * np.pi, dim))
        qn = quantize_symbol(U, n).approximant.symbol
        measured = float(np.abs(np.exp(1j * t * U.symbol) - np.exp(1j * t * qn)).max())
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


def _same_rows(rows, want):
    assert rows == want
    # the CSV text depends on each value's type, not only on its value
    assert [[type(v) for v in r.values()] for r in rows] == \
        [[type(v) for v in r.values()] for r in want]


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
        rows, summary, ok = run_quantization_sweep(cfg, np.random.default_rng(cfg["seed"]))
        want_rows, want_summary = _reference_quantization_sweep(cfg)
        _same_rows(rows, want_rows)
        slope, want_slope = summary.pop("slope"), want_summary.pop("slope")
        assert slope == want_slope or (math.isnan(slope) and math.isnan(want_slope))
        assert summary == want_summary
        assert ok == (want_summary["violations"] == 0)
        assert len(set(summary["fit_n_values"])) == len(summary["fit_n_values"])

    def test_near_identity_sweep_matches_per_time_loop(self):
        cfg = {"dimension": 7, "n_values": [1, 4, 64], "t_samples": 25}
        rows, summary, ok = run_near_identity_sweep(cfg, np.random.default_rng(3))
        rng = np.random.default_rng(3)
        grid = WeightedGrid(np.sort(rng.uniform(0, 1, 7)), np.full(7, 1.0 / 7))
        want = []
        for n in cfg["n_values"]:
            U = near_identity_aws(grid, n)
            for t in np.linspace(0.0, np.pi * n, 25):
                want.append({"n": n, "t": float(t),
                             "measured_dist": float(np.abs(np.exp(1j * t * U.symbol) - 1.0).max()),
                             "bound": float(2.0 * t / n)})
        _same_rows(rows, want)
        assert ok and summary == {"violations": 0}


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
    rows, summary, ok = fn(cfg, np.random.default_rng(cfg["seed"]))
    if scenario == "category_escape":
        # bools, strings, ints and NaN all reach the CSV
        kinds = {type(v) for v in rows[-1].values()}
        assert {bool, str, int, float} <= kinds and math.isnan(rows[-1]["metric_to_base"])
    csv_path, _ = write_outputs(cfg, rows, summary, ok, tmp_path, quiet=True)
    assert b"np." not in csv_path.read_bytes()  # every value is a plain Python number
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(v) for k, v in row.items()})
    assert csv_path.read_bytes() == ref.read_bytes()


def test_numpy_scalars_write_the_bytes_of_python_scalars(tmp_path):
    py = {"f": 0.1, "tiny": 1.7331959548696512e-15, "half": 0.5, "nan": math.nan,
          "inf": -math.inf, "i": 3, "b": True}
    npy = {"f": np.float64(0.1), "tiny": np.float64(1.7331959548696512e-15),
           "half": np.float32(0.5), "nan": np.float64(math.nan), "inf": np.float64(-math.inf),
           "i": np.int64(3), "b": np.bool_(True)}
    paths = []
    for name, row in (("py", py), ("np", npy)):
        cfg = {"scenario": "wold_benchmark", "seed": 0, "csv_name": f"{name}.csv",
               "json_name": f"{name}.json"}
        paths.append(write_outputs(cfg, [row, row], {}, True, tmp_path, quiet=True)[0])
    assert paths[1].read_bytes() == paths[0].read_bytes()
    assert b"np." not in paths[1].read_bytes()
