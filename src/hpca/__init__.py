"""Hierarchical PCA factor models for sector-partitioned return panels.

The package fits per-sector one-factor PCA models, assembles the
hierarchical correlation matrix whose cross-sector entries come from the
correlations of sector eigenportfolio factors, produces its full labeled
spectrum in closed form, and diagnoses defactored residuals against
random-matrix noise bounds. Plain PCA on the full empirical correlation
matrix is kept alongside as the comparison baseline.

The names below are the ones the README example and the acceptance suite
use; everything else is imported from its submodule (``hpca.panel``,
``hpca.model``, ...). Each name, and each submodule, is imported on first
use (PEP 562), so ``import hpca`` loads numpy only when a numeric name is
first used.
"""

import importlib

from .errors import HpcaError, InputError, NumericalError

__version__ = "0.1.0"

# The module that defines each name imported on first use.
_HOMES = dict(
    sym_eig_sorted="eigen", fit_hpca="model", correlation="panel", standardize="panel",
    build_comparison="report", defactor="rmt", mp_density="rmt", mp_threshold="rmt",
    residual_spectrum="rmt", MarketSpec="synth", SectorSpec="synth",
    default_market_spec="synth", generate="synth",
)
# The submodules that ``import hpca`` used to load, still reachable as attributes.
_SUBMODULES = ("eigen", "model", "panel", "report", "rmt", "sectors", "synth")

__all__ = sorted(["HpcaError", "InputError", "NumericalError", *_HOMES])


def __getattr__(name: str):
    if name in _HOMES:
        return getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
