"""Sector partitions and one-factor PCA models per sector block.

Each sector gets the full spectrum of its own correlation sub-matrix, the
regression betas of its members on the leading eigenportfolio, and the
leading eigenportfolio return series itself.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence, TextIO

import numpy as np

from .eigen import Spectrum, _as_numbers, _whole, sym_eig_sorted
from .errors import InputError
from .panel import StandardizedPanel, _gram_correlation
from .textio import _text_stream

logger = logging.getLogger(__name__)


@dataclass
class SectorPartition:
    """Assignment of every asset to exactly one sector.

    ``labels`` fixes the sector order; ``assignment[i]`` is the sector index
    of asset ``i``.
    """

    labels: tuple[str, ...]
    assignment: np.ndarray

    def __post_init__(self) -> None:
        self.assignment = _as_numbers(self.assignment, "sector assignment", int)
        if self.assignment.ndim != 1:
            raise InputError("sector assignment must be 1-d")
        b = len(self.labels)
        if len(set(self.labels)) != b or b == 0:
            raise InputError("sector labels must be unique and non-empty")
        if self.assignment.size and (
            self.assignment.min() < 0 or self.assignment.max() >= b
        ):
            raise InputError("sector assignment index out of range")
        counts = np.bincount(self.assignment, minlength=b)
        empty = [self.labels[k] for k in np.flatnonzero(counts == 0)]
        if empty:
            raise InputError(f"empty sector(s): {', '.join(empty)}")

    @property
    def n_assets(self) -> int:
        return self.assignment.size

    @property
    def n_sectors(self) -> int:
        return len(self.labels)

    @property
    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_sectors)

    def members(self, k: int) -> np.ndarray:
        """Panel column indices of the assets in sector ``k``."""
        return np.flatnonzero(self.assignment == k)

    @classmethod
    def from_mapping(
        cls, assets: Sequence[str], mapping: Mapping[str, str]
    ) -> "SectorPartition":
        """Build a partition for ``assets`` from an asset -> sector map.

        Sector indices follow first appearance in asset order. Map entries
        for unknown assets are ignored with a warning; assets without a map
        entry are an error.
        """
        missing = [a for a in assets if a not in mapping]
        if missing:
            raise InputError(
                f"{len(missing)} asset(s) missing from sector map: "
                + ", ".join(missing[:10])
                + ("..." if len(missing) > 10 else "")
            )
        unknown = sorted(set(mapping) - set(assets))
        if unknown:
            logger.warning(
                "sector map names %d asset(s) not in the panel (ignored): %s",
                len(unknown),
                ", ".join(unknown[:10]) + ("..." if len(unknown) > 10 else ""),
            )
        labels: list[str] = []
        index: dict[str, int] = {}
        assignment = np.empty(len(assets), dtype=int)
        for i, asset in enumerate(assets):
            sector = mapping[asset]
            if sector not in index:
                index[sector] = len(labels)
                labels.append(sector)
            assignment[i] = index[sector]
        return cls(labels=tuple(labels), assignment=assignment)


def load_sector_map(source: str | Path | TextIO) -> dict[str, str]:
    """Read a two-column ``asset,sector`` file (header required)."""
    with _text_stream(source) as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise InputError("sector map needs a header row with asset,sector columns")
        mapping: dict[str, str] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise InputError(f"sector map row {line_no} has no sector column")
            asset, sector = row[0].strip(), row[1].strip()
            if not asset or not sector:
                raise InputError(f"sector map row {line_no} has a blank field")
            if asset in mapping and mapping[asset] != sector:
                raise InputError(f"conflicting sector for asset {asset!r}")
            mapping[asset] = sector
    if not mapping:
        raise InputError("sector map contains no entries")
    return mapping


def _leading_betas(spectrum: Spectrum) -> np.ndarray:
    """Member betas on a block's leading factor: ``sqrt(lambda_1) * v_1``."""
    return np.sqrt(float(spectrum.eigenvalues[0])) * spectrum.eigenvectors[:, 0]


@dataclass(frozen=True)
class SectorModel(Spectrum):
    """One-factor PCA model of a single sector: the sector's own spectrum.

    ``members`` are the sector's panel columns. ``factor`` is the leading
    eigenportfolio return series (unit sample variance, divisor T-1) and
    ``betas`` are the member regressions on it: ``sqrt(lambda_1) * v_1``.
    """

    members: np.ndarray
    correlation: np.ndarray
    factor: np.ndarray

    @property
    def betas(self) -> np.ndarray:
        return _leading_betas(self)


def fit_sector(
    panel: StandardizedPanel, partition: SectorPartition, k: int
) -> SectorModel:
    """Fit the one-factor PCA model of sector ``k``.

    The sector correlation matrix is decomposed with ``sym_eig_sorted``; the
    factor series is the members' standardized returns combined with the
    leading eigenvector weights and scaled by ``1/sqrt(lambda_1)`` so its
    sample variance is 1.
    """
    if not isinstance(panel, StandardizedPanel):
        raise InputError("fit_sector expects a standardized panel")
    if partition.n_assets != panel.n_assets:
        raise InputError(
            f"partition covers {partition.n_assets} assets, panel has {panel.n_assets}"
        )
    k = _whole(k, "sector index")
    if not 0 <= k < partition.n_sectors:
        raise InputError(f"sector index {k} out of range")
    members = partition.members(k)
    x = panel.values[:, members]
    c = _gram_correlation(x, panel.n_periods - 1)
    spectrum = sym_eig_sorted(c)
    factor = x @ spectrum.eigenvectors[:, 0] / np.sqrt(spectrum.eigenvalues[0])
    return SectorModel(
        members=members,
        correlation=c,
        eigenvalues=spectrum.eigenvalues,
        eigenvectors=spectrum.eigenvectors,
        factor=factor,
    )


def fit_all_sectors(
    panel: StandardizedPanel, partition: SectorPartition
) -> tuple[SectorModel, ...]:
    """Fit every sector of the partition, in sector order."""
    return tuple(fit_sector(panel, partition, k) for k in range(partition.n_sectors))
