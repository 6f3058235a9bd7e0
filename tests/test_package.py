"""The top-level package: every exported name, imported on first use."""

import importlib

import pytest

import hpca

# The module each name of ``hpca.__all__`` comes from.
HOMES = {
    "HpcaError": "errors",
    "InputError": "errors",
    "NumericalError": "errors",
    "MarketSpec": "synth",
    "SectorSpec": "synth",
    "build_comparison": "report",
    "correlation": "panel",
    "defactor": "rmt",
    "default_market_spec": "synth",
    "fit_hpca": "model",
    "generate": "synth",
    "mp_density": "rmt",
    "mp_threshold": "rmt",
    "residual_spectrum": "rmt",
    "standardize": "panel",
    "sym_eig_sorted": "eigen",
}


def test_all_lists_every_exported_name():
    assert sorted(hpca.__all__) == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_name_is_its_modules_attribute(name):
    module = importlib.import_module(f"hpca.{HOMES[name]}")
    assert getattr(hpca, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from hpca import *", namespace)
    assert {name: namespace[name] for name in hpca.__all__} == {
        name: getattr(hpca, name) for name in hpca.__all__
    }


@pytest.mark.parametrize("name", ["eigen", "model", "panel", "report", "rmt", "sectors", "synth"])
def test_submodule_is_reachable_from_the_package(name):
    assert getattr(hpca, name) is importlib.import_module(f"hpca.{name}")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'hpca' has no attribute 'no_such_name'"):
        hpca.no_such_name
    with pytest.raises(ImportError):
        exec("from hpca import no_such_name", {})
