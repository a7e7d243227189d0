import csv
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from stablesemi.cli import ConfigError, load_config, main


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
