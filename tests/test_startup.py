"""Start-up cost: `scipy.linalg` is loaded only where a Schur form is taken,
so importing the package, running unitary-only paths (the approximation
pipelines on a unitary model included) and the `wold_benchmark` scenario
never pays for it."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
from pathlib import Path

import numpy as np

import stablesemi, stablesemi.cli
from stablesemi import (ClassifyParams, ConjugatedGroup, DenseSequence, DirectSumSemigroup,
                        MultiplicationGroup, ShiftSemigroup, SumSpace, WeightedGrid,
                        approximate_isometry_by_aws, classify, shift_grid, wold_decompose)
from stablesemi.cli import run_scenario


def loaded():
    return {name: name in sys.modules for name in ("scipy", "scipy.linalg")}


states = {"import": loaded()}
cfg = {"scenario": "quantization_sweep", "seed": 5, "trials": 4, "dimension": 4,
       "n_values": [16], "t_max": 2.0}
run_scenario(cfg, Path(sys.argv[1]), quiet=True)
rng = np.random.default_rng(0)
q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
g = WeightedGrid.uniform(6)
U = ConjugatedGroup(g, q, MultiplicationGroup(g, rng.uniform(-1.0, 1.0, 6)))
classify(U, DenseSequence.gaussian(g, 2, seed=1), ClassifyParams(horizon=10.0, samples=20))
approximate_isometry_by_aws(U, 0.25, 5.0, n=64, copies=2)
states["unitary"] = loaded()
run_scenario({"scenario": "wold_benchmark", "seed": 3, "trials": 2, "min_unitary_dim": 1,
              "max_unitary_dim": 3, "min_shift_cells": 2, "max_shift_cells": 5},
             Path(sys.argv[1]), quiet=True)
states["wold_benchmark"] = loaded()
gu = WeightedGrid.uniform(3)
inner = DirectSumSemigroup(SumSpace((gu, shift_grid(4, 1.0))),
                           (MultiplicationGroup(gu, rng.uniform(-1.0, 1.0, 3)),
                            ShiftSemigroup(1.0, 4)))
q, _ = np.linalg.qr(rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)))
wold_decompose(ConjugatedGroup(WeightedGrid.uniform(7), q, inner)).diagonal_form
states["schur"] = loaded()
print(json.dumps(states))
"""


def test_scipy_linalg_is_loaded_only_by_the_schur_path(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, check=True)
    states = json.loads(proc.stdout.strip().splitlines()[-1])
    none = {"scipy": False, "scipy.linalg": False}
    assert (states["import"], states["unitary"], states["wold_benchmark"]) == (none, none, none)
    assert states["schur"]["scipy.linalg"]
