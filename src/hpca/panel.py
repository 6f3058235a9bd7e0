"""Return-panel loading, validation, standardization, and correlation.

A panel is a T x n matrix of per-period arithmetic returns with date labels
on rows and asset identifiers on columns. Returns are taken as given; any
price-to-return or log/arithmetic conversion is the caller's job.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .errors import InputError

# Cell contents treated as a missing observation (case-insensitive).
MISSING_TOKENS = frozenset({"", "na", "nan", "null", "n/a"})

STANDARDIZE_TOL = 1e-12


@dataclass
class ReturnsPanel:
    """Complete return panel: T dates, n assets, no missing values."""

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    values: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InputError(f"panel values must be 2-d, got {self.values.ndim}-d")
        t, n = self.values.shape
        if len(self.dates) != t or len(self.assets) != n:
            raise InputError(
                f"label/value shape mismatch: {len(self.dates)} dates, "
                f"{len(self.assets)} assets, values {self.values.shape}"
            )
        if t < 2:
            raise InputError(f"panel needs at least 2 rows, got {t}")
        if n < 1:
            raise InputError("panel needs at least 1 asset column")
        if len(set(self.assets)) != n:
            dupes = sorted({a for a in self.assets if self.assets.count(a) > 1})
            raise InputError(f"duplicate asset names: {', '.join(dupes)}")
        if not np.isfinite(self.values).all():
            raise InputError("panel contains missing or non-finite values")

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass
class StandardizedPanel(ReturnsPanel):
    """Panel whose columns each have sample mean 0 and sample stdev 1."""

    def __post_init__(self) -> None:
        super().__post_init__()
        means = self.values.mean(axis=0)
        stds = self.values.std(axis=0, ddof=1)
        if np.abs(means).max() > STANDARDIZE_TOL:
            raise InputError(
                f"column means not zero: max |mean| = {np.abs(means).max():g}"
            )
        if np.abs(stds - 1.0).max() > STANDARDIZE_TOL:
            raise InputError(
                f"column stdevs not one: max |stdev - 1| = {np.abs(stds - 1.0).max():g}"
            )


@dataclass
class CorrelationMatrix:
    """n x n sample correlation matrix with asset labels."""

    values: np.ndarray
    assets: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise InputError(f"correlation matrix must be square, got {v.shape}")
        if self.assets and len(self.assets) != v.shape[0]:
            raise InputError("asset labels do not match matrix size")
        if np.abs(v - v.T).max() > 1e-12:
            raise InputError("correlation matrix is not symmetric")
        if np.abs(np.diag(v) - 1.0).max() > 1e-12:
            raise InputError("correlation matrix diagonal is not 1")
        if np.abs(v).max() > 1.0 + 1e-12:
            raise InputError(
                f"correlation entries outside [-1, 1]: max |entry| = {np.abs(v).max():.17g}"
            )

    @property
    def n_assets(self) -> int:
        return self.values.shape[0]


@contextmanager
def _text_stream(source: str | Path | TextIO, mode: str = "r") -> Iterator[TextIO]:
    """Open a path as UTF-8 text (closed on exit), or use the stream given.

    Bytes that are not UTF-8 surface as :class:`InputError`.
    """
    try:
        if isinstance(source, (str, Path)):
            with open(source, mode, encoding="utf-8", newline="") as fh:
                yield fh
        else:
            yield source
    except UnicodeDecodeError as exc:
        raise InputError(f"{source} is not UTF-8 text: {exc.reason}") from None


def _write_rows(dest: str | Path | TextIO, header, rows) -> None:
    """Write a header and rows as comma-delimited UTF-8 text, quoting cells as needed."""
    with _text_stream(dest, "w") as stream:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _gram_correlation(x: np.ndarray, divisor: float) -> np.ndarray:
    """``x^T x / divisor``, symmetrized, with the diagonal set to exactly 1."""
    c = x.T @ x / divisor
    c = 0.5 * (c + c.T)
    np.fill_diagonal(c, 1.0)
    return c


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in MISSING_TOKENS


def load_panel(source: str | Path | TextIO) -> ReturnsPanel:
    """Read a delimited return table into a validated panel.

    The first row is a header: first column the date label, each remaining
    column one asset. Rows containing a missing value are dropped and
    counted in ``dropped_rows``. The delimiter is a tab if the header line
    holds one, else a comma. Quoted fields and CRLF line endings are
    accepted.

    Raises:
        InputError: duplicate asset names, fewer than 2 complete rows,
            a non-numeric cell (reported with its row and column), or a
            ragged row.
    """
    with _text_stream(source) as stream:
        first = stream.readline()
        if not first:
            raise InputError("empty input: no header row")
        delimiter = "\t" if "\t" in first else ","
        header = next(csv.reader([first], delimiter=delimiter))
        if len(header) < 2:
            raise InputError("header must contain a date column and at least one asset")
        assets = tuple(name.strip() for name in header[1:])
        if any(not a for a in assets):
            raise InputError("blank asset name in header")
        lines = stream.readlines()

    dates, values, dropped = _parse_bulk(lines, delimiter, len(assets)) or _parse_rows(
        lines, delimiter, assets
    )
    if len(dates) < 2:
        raise InputError(
            f"fewer than 2 complete rows after dropping {dropped} incomplete row(s)"
        )
    return ReturnsPanel(
        dates=dates, assets=assets, values=values, dropped_rows=dropped
    )


def _has_missing_cell(line: str, delimiter: str) -> bool:
    """Whether a quote-free body line holds a missing value cell.

    Only a line whose values hold ``n``, ``N``, a space, an empty cell or
    a trailing delimiter is split, so a clean line costs a few substring
    scans; the date is not scanned. A missing cell spelled otherwise (a
    lone tab, say) is not seen, and a line with a ``\\r`` inside is never
    reported, since ``csv.reader`` rejects it: ``loadtxt`` then fails on
    the line and the row loop reads the body.
    """
    d = delimiter
    start = line.find(d)
    if not line.endswith((d, d + "\n", d + "\r\n", d + "\r")) and all(
        line.find(mark, start) < 0 for mark in ("n", "N", " ", d + d)
    ):
        return False
    text = line.rstrip("\n").removesuffix("\r")
    return "\r" not in text and any(_is_missing(cell) for cell in text.split(d)[1:])


def _parse_bulk(lines: list[str], delimiter: str, n: int):
    """``(dates, values, dropped)`` of a body from one ``np.loadtxt`` call.

    Returns None unless every non-blank line is free of quotes and holds
    exactly ``n`` delimiters, and every value of the rows without a missing
    cell parses and is finite; then ``_parse_rows`` reads the body and
    reports what is wrong. ``loadtxt`` accepts a subset of what ``float``
    does (no ``1_0``, non-ASCII digits or a bare trailing ``\\r``), so a
    value it parses has the same bits.
    """
    body = [line for line in lines if delimiter in line or line.strip()]
    if any(line.count(delimiter) != n or '"' in line for line in body):
        return None
    kept = [line for line in body if not _has_missing_cell(line, delimiter)]
    # An empty body is left to the row loop: loadtxt warns on no data.
    if not kept:
        return None
    try:
        values = np.loadtxt(
            kept, delimiter=delimiter, comments=None,
            usecols=range(1, n + 1), ndmin=2, dtype=float,
        )
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    dates = tuple(line.split(delimiter, 1)[0].strip() for line in kept)
    return dates, values, len(body) - len(kept)


def _parse_rows(lines: list[str], delimiter: str, assets: tuple[str, ...]):
    """``(dates, values, dropped)`` of a body read cell by cell.

    Drops rows with a missing token and reports a ragged row or a bad
    cell with its line number and column.
    """
    dates: list[str] = []
    rows: list[list[float]] = []
    dropped = 0
    width = len(assets) + 1
    for line_no, row in enumerate(csv.reader(lines, delimiter=delimiter), start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise InputError(f"row {line_no} has {len(row)} cells, expected {width}")
        if any(_is_missing(cell) for cell in row[1:]):
            dropped += 1
            continue
        parsed = []
        for asset, cell in zip(assets, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"non-numeric value {cell.strip()!r} at row {line_no}, "
                    f"column {asset!r}"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"non-finite value {cell.strip()!r} at row {line_no}, "
                    f"column {asset!r}"
                )
            parsed.append(value)
        dates.append(row[0].strip())
        rows.append(parsed)
    return tuple(dates), np.array(rows, dtype=float), dropped


def write_panel(panel: ReturnsPanel, dest: str | Path | TextIO) -> None:
    """Write a panel as comma-delimited text, the format ``load_panel`` reads.

    Values are written with full round-trip precision, so a write/load
    cycle reproduces the panel bit for bit.
    """
    rows = (
        [date, *map(repr, row)]
        for date, row in zip(panel.dates, panel.values.tolist())
    )
    _write_rows(dest, ("date",) + panel.assets, rows)


def standardize(panel: ReturnsPanel) -> StandardizedPanel:
    """Scale each column to sample mean 0 and sample stdev 1 (divisor T-1).

    Raises:
        InputError: a column with zero sample standard deviation, reported
            by asset name.
    """
    values = panel.values
    means = values.mean(axis=0)
    stds = values.std(axis=0, ddof=1)
    scale = np.maximum(1.0, np.abs(values).max(axis=0))
    degenerate = np.flatnonzero(stds <= 1e-12 * scale)
    if degenerate.size:
        names = ", ".join(panel.assets[i] for i in degenerate)
        raise InputError(f"constant column(s) cannot be standardized: {names}")
    return StandardizedPanel(
        dates=panel.dates,
        assets=panel.assets,
        values=(values - means) / stds,
        dropped_rows=panel.dropped_rows,
    )


def correlation(panel: StandardizedPanel) -> CorrelationMatrix:
    """Sample correlation matrix ``X^T X / (T - 1)`` of a standardized panel.

    The diagonal is set to exactly 1 and the result is symmetrized, so the
    output is a valid correlation matrix by construction.
    """
    if not isinstance(panel, StandardizedPanel):
        raise InputError("correlation expects a standardized panel")
    c = _gram_correlation(panel.values, panel.n_periods - 1)
    return CorrelationMatrix(values=c, assets=panel.assets)
