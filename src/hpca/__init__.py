"""Hierarchical PCA factor models for sector-partitioned return panels.

The package fits per-sector one-factor PCA models, assembles the
hierarchical correlation matrix whose cross-sector entries come from the
correlations of sector eigenportfolio factors, produces its full labeled
spectrum in closed form, and diagnoses defactored residuals against
random-matrix noise bounds. Plain PCA on the full empirical correlation
matrix is kept alongside as the comparison baseline.

The names below are the ones the README example and the acceptance suite
use; everything else is imported from its submodule (``hpca.panel``,
``hpca.model``, ...).
"""

from .eigen import sym_eig_sorted
from .errors import HpcaError, InputError, NumericalError
from .model import fit_hpca
from .panel import correlation, standardize
from .report import build_comparison
from .rmt import defactor, mp_density, mp_threshold, residual_spectrum
from .synth import MarketSpec, SectorSpec, default_market_spec, generate

__version__ = "0.1.0"

__all__ = [
    "HpcaError",
    "InputError",
    "MarketSpec",
    "NumericalError",
    "SectorSpec",
    "build_comparison",
    "correlation",
    "defactor",
    "default_market_spec",
    "fit_hpca",
    "generate",
    "mp_density",
    "mp_threshold",
    "residual_spectrum",
    "standardize",
    "sym_eig_sorted",
]
