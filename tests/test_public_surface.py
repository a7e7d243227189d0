"""The package's public surface: every exported name resolves, every name
the benchmark's scripts read resolves, the kernel ladder runs its first
rungs, the model protocol has five members, and the per-vector checkers,
helpers and serializers that no scenario used, the readers of the spectral
measure that restated `classify`, the verdict tuple only `StabilityReport`
reads, the members that restated a fact or an input (vector arithmetic
among them) and the backward evolution are gone."""

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import stablesemi

MODULES = ("hilbert", "semigroups", "constructions", "diagnostics", "metrics", "cli")
DELETED = ("check_semigroup_law", "check_isometry", "check_unitarity", "align",
           "difference_norm", "direct_sum_embed", "jgl_split", "quantization_distance",
           "model_to_dict", "model_from_dict", "inner_product", "periodize_shift",
           "NotIsometricError", "_shift_grid", "NotPeriodicError", "_commensurable_base",
           "_COMMENSURABLE_TOL", "_check_finite", "_evolved_grid", "_rows",
           "_periodization_errors", "detect_atoms", "wiener_limit", "density_estimate",
           "VERDICTS", "mt_membership", "wjkt_membership", "_modulus", "ConfigError",
           "_checked_seed", "_is_integer")
# members that restated an input or another name: the level passed in; the
# inflation's perturbation scale, its m, and its embedding and compression,
# which embed_index gives; the one-step map, one_step_matrix(V, wr.step);
# float() of a metric value, its .value; a sum space's dimension and block
# slices, its combined.size and offsets; a grid's total mass, its
# weights.sum(); the `_grid` of a multiplication group and of a conjugation,
# which a `grid` property handed back (now `grid` is the field); and a
# vector's sum, difference and scaling, those of its coeffs
RESTATED = (("QuantizationResult", "level"), ("InflationResult", "scale_per_level"),
            ("InflationResult", "level_m"), ("InflationResult", "embed"),
            ("InflationResult", "compressed"), ("WoldResult", "one_step"),
            ("MetricValue", "__float__"), ("SumSpace", "dimension"),
            ("SumSpace", "block_slice"), ("WeightedGrid", "total_mass"),
            ("MultiplicationGroup", "_grid"), ("ConjugatedGroup", "_grid"),
            ("HVector", "__add__"), ("HVector", "__sub__"), ("HVector", "__mul__"),
            ("HVector", "__rmul__"))
# tolerances and walk caps are the library's own constants, not caller options
KNOBS = ("max_iter", "tol", "commensurability_tol", "factor_tol")


def test_star_import_resolves_every_export():
    ns = {}
    exec("from stablesemi import *", ns)
    assert [name for name in stablesemi.__all__ if name not in ns] == []
    assert len(set(stablesemi.__all__)) == len(stablesemi.__all__)


def test_public_name_count():
    assert len(stablesemi.__all__) == 40


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_unreachable(name):
    assert name not in stablesemi.__all__
    for mod in (stablesemi, *(importlib.import_module(f"stablesemi.{m}") for m in MODULES)):
        assert not hasattr(mod, name), f"{mod.__name__}.{name}"


@pytest.mark.parametrize("name", ["ShiftSemigroup", "PeriodicShiftGroup", "shift_grid"])
def test_shifts_take_no_fiber_dim(name):
    # a shift of multiplicity m is a direct sum of m scalar shifts
    assert "fiber_dim" not in inspect.signature(getattr(stablesemi, name)).parameters


MODELS = ("SemigroupModel", "MultiplicationGroup", "ShiftSemigroup", "PeriodicShiftGroup",
          "DirectSumSemigroup", "ConjugatedGroup")


@pytest.mark.parametrize("name", MODELS)
def test_models_state_no_isometry_flag_or_max_frequency(name):
    # every model is an isometry, its spectral form gives its frequencies and
    # says whether it is unitary, and an evolved vector's grid follows from
    # its rows
    model = getattr(stablesemi, name)
    for member in ("is_isometric", "max_frequency", "is_unitary", "_out_grid"):
        assert not hasattr(model, member), member


def test_model_protocol_has_five_members():
    # no model grows its payload, so none needs a compressed evolution
    members = {n for n in vars(stablesemi.SemigroupModel) if not n.startswith("__")}
    assert members == {"_evolve", "_check_grid", "apply", "time_step", "spectral_form"}


def test_cell_models_keep_no_scalar_rule_of_their_own():
    # a shift checks its cells and step with hilbert's _count and _positive
    assert not hasattr(importlib.import_module("stablesemi.semigroups")._CellModel, "_validate")


def test_grid_is_a_constructor_keyword():
    g = stablesemi.WeightedGrid.uniform(2)
    mult = stablesemi.MultiplicationGroup(grid=g, symbol=[0.0, 1.0])
    conj = stablesemi.ConjugatedGroup(grid=g, basis=[[0, 1], [1, 0]], inner=mult)
    assert mult.grid is conj.grid is g


def test_pad_to_grid_pads_vectors_only():
    # evolved batches keep their rows, so no array mode is left
    assert list(inspect.signature(stablesemi.pad_to_grid).parameters) == ["x", "grid"]


def test_stability_report_has_no_record_method():
    assert not hasattr(stablesemi.StabilityReport, "to_record")


def test_wold_result_states_no_shift_dim():
    # the shift part's dimension is basis_matrix_shift.shape[1]
    assert not hasattr(stablesemi.WoldResult, "shift_dim")


@pytest.mark.parametrize("cls, member", RESTATED)
def test_result_types_restate_no_input(cls, member):
    result = getattr(stablesemi, cls)
    assert member not in {f.name for f in dataclasses.fields(result)}
    assert not hasattr(result, member)


@pytest.mark.parametrize("name", ["wold_decompose", "approximate_isometry_by_periodic",
                                  "approximate_isometry_by_aws", "inflate_and_perturb",
                                  "cantor_transform_abs"])
def test_no_tolerance_knobs(name):
    params = inspect.signature(getattr(stablesemi, name)).parameters
    assert [p for p in KNOBS if p in params] == []


def test_wold_matrix_keeps_only_its_walk_cap():
    params = inspect.signature(stablesemi.wold_decompose_matrix).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == ["max_iter"]


@pytest.mark.parametrize("name", MODELS)
def test_models_evolve_forward_only(name):
    # a unitary group's adjoint is apply(-t, x); no model evolves backwards
    model = getattr(stablesemi, name)
    assert not hasattr(model, "adjoint_apply")
    assert "adjoint" not in inspect.signature(model._evolve).parameters


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _import_roots(tree):
    """Names that the import statements of a module bind to stablesemi,
    one of its modules or one of its exports, with the object each names."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "stablesemi":
                    bound = a.name if a.asname else "stablesemi"
                    roots[a.asname or "stablesemi"] = importlib.import_module(bound)
        elif isinstance(node, ast.ImportFrom) and node.module == "stablesemi":
            for a in node.names:
                try:
                    obj = importlib.import_module(f"stablesemi.{a.name}")
                except ModuleNotFoundError:
                    obj = getattr(stablesemi, a.name)
                roots[a.asname or a.name] = obj
    return roots


def test_benchmark_reads_only_names_that_resolve():
    # the benchmark's scripts run in no test, so a deleted name they read
    # would break them silently; every chain of attribute reads starting at
    # an imported stablesemi name must resolve
    missing = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        roots = _import_roots(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            chain, base = [], node
            while isinstance(base, ast.Attribute):
                chain.append(base.attr)
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in roots):
                continue
            obj = roots[base.id]
            for attr in reversed(chain):
                if not hasattr(obj, attr):
                    missing.append(f"{path.name}:{node.lineno}: {base.id}.{'.'.join(reversed(chain))}")
                    break
                obj = getattr(obj, attr)
    assert missing == []


# Calls the first rung of every library kernel of the ladder once; the
# scenario rows, the numpy pair product and the dense Cantor rows are not
# library kernels.  A subprocess, as the ladder sets BLAS threads and
# sys.path when imported.
LADDER_SMOKE = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import kernel_ladder
seen = []
for kernel, size, work, need, make in kernel_ladder.rungs(Path(sys.argv[2])):
    if kernel in seen or "numpy" in kernel or kernel.startswith(("scenario ", "dense ")):
        continue
    seen.append(kernel)
    make()()
print(",".join(seen))
"""


def test_kernel_ladder_runs_its_first_rungs(tmp_path):
    # no workload runs the ladder, and the name check above cannot follow
    # `T.apply` on a model the ladder builds itself
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", LADDER_SMOKE,
         str(PERFBENCH), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].split(",") == [
        "apply (diagonal)", "apply (conjugated)", "correlation", "classify", "metric_unitary",
        "metric_isometric", "metric_contractive", "one_step_matrix", "wold_decompose_matrix",
        "inflate_and_perturb"]
