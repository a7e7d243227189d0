"""The package's public surface: every exported name resolves, and the
per-vector checkers and helpers that no scenario used are gone."""

import importlib

import pytest

import stablesemi

MODULES = ("hilbert", "semigroups", "constructions", "diagnostics", "metrics", "cli")
DELETED = ("check_semigroup_law", "check_isometry", "check_unitarity", "align",
           "difference_norm", "direct_sum_embed", "jgl_split", "quantization_distance")


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


def test_stability_report_has_no_record_method():
    assert not hasattr(stablesemi.StabilityReport, "to_record")
