"""Hierarchical PCA factor models for sector-partitioned return panels.

The package fits per-sector one-factor PCA models, assembles the
hierarchical correlation matrix whose cross-sector entries come from the
correlations of sector eigenportfolio factors, produces its full labeled
spectrum in closed form, and diagnoses defactored residuals against
random-matrix noise bounds. Plain PCA on the full empirical correlation
matrix is kept alongside as the comparison baseline.
"""

from .eigen import Spectrum, sym_eig_sorted
from .errors import HpcaError, InputError, NumericalError
from .model import (
    FactorCovariance,
    HpcaModel,
    LabeledSpectrum,
    SpectrumLabel,
    build_factor_cov,
    compare_eigenvectors,
    cumulative_variance,
    eigenportfolio_series,
    fit_hpca,
    inter_sector_corr,
)
from .panel import (
    CorrelationMatrix,
    ReturnsPanel,
    StandardizedPanel,
    correlation,
    load_panel,
    loads_panel,
    standardize,
    write_panel,
)
from .report import ComparisonReport, build_comparison
from .rmt import (
    MpReference,
    ResidualPanel,
    ResidualReport,
    defactor,
    mp_density,
    mp_threshold,
    residual_spectrum,
)
from .sectors import (
    SectorModel,
    SectorPartition,
    factor_panel,
    fit_all_sectors,
    fit_sector,
    load_sector_map,
)
from .synth import (
    GroundTruth,
    MarketSpec,
    SectorSpec,
    default_market_spec,
    generate,
    load_market_spec,
    save_market_spec,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "CorrelationMatrix",
    "FactorCovariance",
    "GroundTruth",
    "HpcaError",
    "HpcaModel",
    "InputError",
    "LabeledSpectrum",
    "MarketSpec",
    "MpReference",
    "NumericalError",
    "ResidualPanel",
    "ResidualReport",
    "ReturnsPanel",
    "SectorModel",
    "SectorPartition",
    "SectorSpec",
    "Spectrum",
    "SpectrumLabel",
    "StandardizedPanel",
    "build_comparison",
    "build_factor_cov",
    "compare_eigenvectors",
    "correlation",
    "cumulative_variance",
    "defactor",
    "default_market_spec",
    "eigenportfolio_series",
    "factor_panel",
    "fit_all_sectors",
    "fit_hpca",
    "fit_sector",
    "generate",
    "inter_sector_corr",
    "load_market_spec",
    "load_panel",
    "load_sector_map",
    "loads_panel",
    "mp_density",
    "mp_threshold",
    "residual_spectrum",
    "save_market_spec",
    "standardize",
    "sym_eig_sorted",
    "write_panel",
]
