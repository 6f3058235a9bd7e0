"""Return-panel loading, validation, standardization, and correlation.

A panel is a T x n matrix of per-period arithmetic returns with date labels
on rows and asset identifiers on columns. Returns are taken as given; any
price-to-return or log/arithmetic conversion is the caller's job.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile
from contextlib import ExitStack, suppress
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import TextIO

import numpy as np

from . import _rows
from .eigen import _as_numbers, _checked_correlation, _labels, _whole
from .errors import InputError
from .textio import _not_utf8, _text_stream, _write_rows

# Cell contents treated as a missing observation (case-insensitive).
MISSING_TOKENS = frozenset({"", "na", "nan", "null", "n/a"})

# Tag on the first line of a panel cache entry; an entry without it is a miss.
CACHE_FORMAT = "hpca-panel-2"

# Values a panel needs before ``write_panel`` formats half of its rows in a
# second interpreter: half the ``repr`` work must outweigh its ~20 ms start-up.
SPLIT_VALUES = 2**16


@dataclass
class ReturnsPanel:
    """Complete return panel: T dates and n assets, tuples of text, and no missing values."""

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    values: np.ndarray
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        self.dates = _labels(self.dates, "dates and asset names")
        self.assets = _labels(self.assets, "dates and asset names")
        self.values = _as_numbers(self.values, "panel values")
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
        self.dropped_rows = _whole(self.dropped_rows, "dropped_rows")
        if self.dropped_rows < 0:
            raise InputError(f"dropped_rows must be non-negative, got {self.dropped_rows}")

    @classmethod
    def _derived(cls, source: ReturnsPanel, values: np.ndarray, **fields):
        """A ``cls`` panel of ``values`` over ``source``'s dates, assets and dropped-row count."""
        return cls(source.dates, source.assets, values, source.dropped_rows, **fields)

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


@dataclass
class StandardizedPanel(ReturnsPanel):
    """The panel of the values it is given, each column scaled to sample mean 0
    and sample stdev 1 (divisor T-1); the given array is not changed.

    Raises:
        InputError: a column whose stdev is not finite, or at most 1e-12 of
            the larger of 1 and its largest magnitude, reported by asset name.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        values = self.values
        centered = values - values.mean(axis=0)
        # The same bits as ``values.std(axis=0, ddof=1)``, which would center
        # the panel a second time; einsum needs no T x n temporary.
        stds = np.sqrt(np.einsum("ij,ij->j", centered, centered) / (self.n_periods - 1))
        scale = np.maximum(1.0, np.maximum(values.max(axis=0), -values.min(axis=0)))
        degenerate = np.flatnonzero(~np.isfinite(stds) | (stds <= 1e-12 * scale))
        if degenerate.size:
            names = ", ".join(self.assets[i] for i in degenerate)
            raise InputError(f"constant or overflowing column(s) cannot be standardized: {names}")
        centered /= stds
        self.values = centered


@dataclass
class CorrelationMatrix:
    """n x n sample correlation matrix; the panel it came from owns the labels."""

    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = v = _checked_correlation(self.values, "correlation matrix", 1e-12)
        largest = np.maximum(v.max(), -v.min())
        if largest > 1.0 + 1e-12:
            raise InputError(f"correlation entries outside [-1, 1]: max |entry| = {largest:.17g}")


def _gram_correlation(x: np.ndarray, divisor: float) -> np.ndarray:
    """``x^T x / divisor`` with the diagonal set to exactly 1.

    ``x`` must be C- or F-contiguous: numpy then fills both triangles of
    ``x.T @ x`` from one, so the product is exactly symmetric.
    """
    c = x.T @ x
    c /= divisor
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

    A panel read from a path is kept in a binary cache entry named by the
    SHA-256 of the file's bytes, under ``$XDG_CACHE_HOME/hpca/panels``
    (``~/.cache`` if unset or relative), so a later load of the same bytes
    from any path skips the parse. A stream is always parsed.

    Raises:
        InputError: duplicate asset names, fewer than 2 complete rows,
            a non-numeric cell (reported with its row and column), or a
            ragged row.
    """
    if not isinstance(source, (str, Path)):
        with _text_stream(source) as stream:
            return _parse_panel(stream)
    with open(source, "rb") as fh:
        data = fh.read()
    # hashlib loads OpenSSL (~4 ms), which only a load from a path needs.
    import hashlib

    # The XDG Base Directory spec has a relative path ignored; with no
    # absolute cache directory, nothing is cached.
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    entry = Path(cache, "hpca", "panels", hashlib.sha256(data).hexdigest())
    panel = _read_entry(entry) if entry.is_absolute() else None
    if panel is None:
        # Decoded chunk by chunk, as from the file, so the bytes are not
        # held twice and the first fault found is the same.
        stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
        try:
            panel = _parse_panel(stream)
        except UnicodeDecodeError as exc:
            raise _not_utf8(source, exc) from None
        if entry.is_absolute():
            _write_entry(entry, panel)
    return panel


def _parse_panel(stream: TextIO) -> ReturnsPanel:
    """The panel of a text stream opened with ``newline=""``."""
    first = stream.readline()
    if not first:
        raise InputError("empty input: no header row")
    delimiter = "\t" if "\t" in first else ","
    # The header is one csv record, which may run past the first line.
    header = next(csv.reader(itertools.chain([first], stream), delimiter=delimiter))
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
    return ReturnsPanel(dates, assets, values, dropped)


def _read_entry(entry: Path) -> ReturnsPanel | None:
    """The panel stored in cache file ``entry``.

    A missing, unreadable or foreign entry, one without exactly a value for
    each date and asset, or one whose labels or count ``ReturnsPanel``
    refuses, gives None.
    """
    try:
        with open(entry, "rb") as fh:
            head = json.loads(fh.readline())
            if head["format"] != CACHE_FORMAT:
                return None
            dates, assets = head["dates"], head["assets"]
            values = np.empty((len(dates), len(assets)), dtype="<f8")
            if fh.readinto(values) != values.nbytes or fh.read(1):
                return None
        return ReturnsPanel(dates, assets, values, head["dropped_rows"])
    except (OSError, ValueError, LookupError, TypeError):
        return None


def _write_entry(entry: Path, panel: ReturnsPanel) -> None:
    """Store ``panel`` as cache file ``entry``: a one-line JSON header, then
    the values as little-endian float64.

    The file is written beside ``entry`` and renamed into place, so a
    reader never sees it half written. A failure leaves no file behind and
    is ignored: the cache only ever saves a parse.
    """
    head = {
        "format": CACHE_FORMAT,
        "dates": panel.dates,
        "assets": panel.assets,
        "dropped_rows": panel.dropped_rows,
    }
    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        with open(fd, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            fh.write(np.ascontiguousarray(panel.values, dtype="<f8").data)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with suppress(OSError):
                os.remove(tmp)


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
    cycle reproduces the panel bit for bit. A panel of ``SPLIT_VALUES``
    values or more has the second half of its rows formatted meanwhile by a
    helper interpreter, to the same bytes.
    """
    # A float's repr never needs quoting, so only the header and the dates go
    # through csv, one line per write. Each date is written as the first of
    # two cells, which gives it quoted as in a full row, then its delimiter.
    made: list[str] = []
    rows = ((date, "") for date in panel.dates)
    _write_rows(SimpleNamespace(write=made.append), ("date",) + panel.assets, rows)
    header, prefixes = made[0], [prefix[:-1] for prefix in made[1:]]
    values, half, helper = panel.values, len(prefixes) // 2, None
    lines = (_rows.format_values(row.tolist()) for row in values)
    # Unwound on the way out, also on an error: the helper is killed and
    # reaped, then its two temporary files are closed.
    with ExitStack() as temporary:
        if values.size >= SPLIT_VALUES and sys.executable:
            # subprocess takes ~7 ms to import, which only this path needs.
            import subprocess

            # The helper reads and writes files, never a pipe: a pipe it
            # writes row by row would make each half wait on the other.
            with suppress(OSError):
                feed = temporary.enter_context(tempfile.TemporaryFile())
                out = temporary.enter_context(tempfile.TemporaryFile())
                feed.write(np.ascontiguousarray(values[half:]))
                feed.seek(0)
                helper = temporary.enter_context(subprocess.Popen(
                    [sys.executable, "-I", "-S", _rows.__file__, str(values.shape[1])],
                    stdin=feed, stdout=out, stderr=subprocess.DEVNULL,
                ))
                temporary.callback(helper.kill)
        with _text_stream(dest, "w") as stream:
            stream.write(header)
            stream.writelines(map(str.__add__, prefixes[:half], lines))
            # Only a helper that exited 0 wrote every row, so a failed one leaves no partial rows.
            if helper and helper.wait() == 0:
                out.seek(0)
                lines = io.TextIOWrapper(out, encoding="utf-8", newline="")
            stream.writelines(map(str.__add__, prefixes[half:], lines))


def standardize(panel: ReturnsPanel) -> StandardizedPanel:
    """The ``StandardizedPanel`` of ``panel``'s values, labels and dropped-row count."""
    return StandardizedPanel._derived(panel, panel.values)


def correlation(panel: StandardizedPanel) -> CorrelationMatrix:
    """Sample correlation matrix ``X^T X / (T - 1)`` of a standardized panel.

    The diagonal is set to exactly 1 and the result is exactly symmetric, so
    the output is a valid correlation matrix by construction.
    """
    if not isinstance(panel, StandardizedPanel):
        raise InputError("correlation expects a standardized panel")
    c = _gram_correlation(panel.values, panel.n_periods - 1)
    return CorrelationMatrix(c)
