"""The package's public surface: every exported name resolves, and the
per-vector checkers, helpers and serializers that no scenario used, and the
members that restated a fact, are gone."""

import importlib
import inspect

import pytest

import stablesemi

MODULES = ("hilbert", "semigroups", "constructions", "diagnostics", "metrics", "cli")
DELETED = ("check_semigroup_law", "check_isometry", "check_unitarity", "align",
           "difference_norm", "direct_sum_embed", "jgl_split", "quantization_distance",
           "model_to_dict", "model_from_dict", "inner_product", "periodize_shift",
           "NotIsometricError")
# tolerances and walk caps are the library's own constants, not caller options
KNOBS = ("max_iter", "tol", "commensurability_tol", "factor_tol")


def test_star_import_resolves_every_export():
    ns = {}
    exec("from stablesemi import *", ns)
    assert [name for name in stablesemi.__all__ if name not in ns] == []
    assert len(set(stablesemi.__all__)) == len(stablesemi.__all__)


@pytest.mark.parametrize("name", DELETED)
def test_deleted_name_is_unreachable(name):
    assert name not in stablesemi.__all__
    for mod in (stablesemi, *(importlib.import_module(f"stablesemi.{m}") for m in MODULES)):
        assert not hasattr(mod, name), f"{mod.__name__}.{name}"


@pytest.mark.parametrize("name", ["ShiftSemigroup", "PeriodicShiftGroup", "shift_grid"])
def test_shifts_take_no_fiber_dim(name):
    # a shift of multiplicity m is a direct sum of m scalar shifts
    assert "fiber_dim" not in inspect.signature(getattr(stablesemi, name)).parameters


@pytest.mark.parametrize("name", ["SemigroupModel", "MultiplicationGroup", "ShiftSemigroup",
                                  "PeriodicShiftGroup", "DirectSumSemigroup", "ConjugatedGroup"])
def test_models_state_no_isometry_flag_or_max_frequency(name):
    # every model is an isometry, and its spectral form gives its frequencies
    model = getattr(stablesemi, name)
    assert not hasattr(model, "is_isometric") and not hasattr(model, "max_frequency")


def test_stability_report_has_no_record_method():
    assert not hasattr(stablesemi.StabilityReport, "to_record")


@pytest.mark.parametrize("name", ["wold_decompose", "approximate_isometry_by_periodic",
                                  "approximate_isometry_by_aws", "inflate_and_perturb",
                                  "cantor_transform_abs"])
def test_no_tolerance_knobs(name):
    params = inspect.signature(getattr(stablesemi, name)).parameters
    assert [p for p in KNOBS if p in params] == []


def test_wold_matrix_keeps_only_its_walk_cap():
    params = inspect.signature(stablesemi.wold_decompose_matrix).parameters.values()
    assert [p.name for p in params if p.default is not p.empty] == ["max_iter"]
