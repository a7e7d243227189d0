"""Self-test of the benchmark at smoke sizes.

    python3 -m pytest perfbench/test_perfbench.py -q

Not part of the Tier-1 suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Calibration, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NO_DEADLINE = float("inf")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def smoke(name: str, tmp_path: Path, corrupt: bool = False):
    wl = workloads.WORKLOADS[name](3, tmp_path, smoke=True, corrupt_reference=corrupt)
    return wl, wl.build()


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_named_with_unit(name, trace, section):
    doc = last_json(bench("--workload", name, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--smoke"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    assert all(isinstance(v["value"], float) for v in doc["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_reference_fails_every_case(name, tmp_path):
    _, cases = smoke(name, tmp_path, corrupt=True)
    records, _ = run_pass(cases, range(len(cases)), NO_DEADLINE, Calibration())
    assert records and all(r["error"] for r in records), records


def test_corrupted_reference_reported_as_failed():
    doc = last_json(bench("--workload", "isometry_recovery", "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--smoke", "--corrupt-reference"))
    assert not doc["correct"] and doc["failed"] == doc["attempted"] >= 1
    assert doc["metrics"]["passed_frac"]["value"] == 0.0


@pytest.mark.parametrize("name", NAMES)
def test_traced_and_untraced_results_identical(name, tmp_path):
    _, cases = smoke(name, tmp_path)
    indices = range(len(cases))
    plain, _ = run_pass(cases, indices, NO_DEADLINE, Calibration())
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.installed():
            traced, _ = run_pass(cases, indices, NO_DEADLINE, Calibration())
        assert [r["result"] for r in traced] == [r["result"] for r in plain]
        assert not any(r["error"] for r in traced)
        layers = tracer.layer_metrics()
        counts.append({k: v for k, (v, unit) in layers.items() if unit == "count"})
    assert counts[0] == counts[1]  # counts repeat exactly for one seed


def test_tracer_restores_the_library():
    import stablesemi
    from stablesemi import cli, diagnostics, hilbert, semigroups

    before = (stablesemi.classify, diagnostics.correlation, semigroups.ConjugatedGroup.apply,
              hilbert.HVector.__post_init__, dict(cli.SCENARIOS))
    with Tracer().installed():
        assert stablesemi.classify is not before[0]
        assert semigroups.ConjugatedGroup.apply is not before[2]
    after = (stablesemi.classify, diagnostics.correlation, semigroups.ConjugatedGroup.apply,
             hilbert.HVector.__post_init__, dict(cli.SCENARIOS))
    assert after == before


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_isometry_recovery_pads_grids(tmp_path):
    _, cases = smoke("isometry_recovery", tmp_path)
    tracer = Tracer()
    with tracer.installed():
        run_pass(cases, range(len(cases)), NO_DEADLINE, Calibration())
    assert tracer.layer_metrics()["hilbert.pad_calls"][0] > 0
