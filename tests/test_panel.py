"""Panel loading, standardization, and correlation."""

import csv
import io
import math

import numpy as np
import pytest

from hpca import panel as panel_module
from hpca.errors import InputError
from hpca.panel import (
    ReturnsPanel,
    StandardizedPanel,
    correlation,
    load_panel,
    standardize,
    write_panel,
)


def make_panel(values, assets=None) -> ReturnsPanel:
    values = np.asarray(values, dtype=float)
    t, n = values.shape
    assets = tuple(assets) if assets else tuple(f"A{i}" for i in range(n))
    return ReturnsPanel(
        dates=tuple(f"2020-01-{i + 1:02d}" for i in range(t)),
        assets=assets,
        values=values,
    )


class TestLoadPanel:
    def test_clean_table(self):
        text = "date,AAA,BBB\n2020-01-01,0.1,0.2\n2020-01-02,-0.1,0.0\n2020-01-03,0.3,-0.2\n"
        panel = load_panel(io.StringIO(text))
        assert panel.n_periods == 3
        assert panel.n_assets == 2
        assert panel.dropped_rows == 0
        assert panel.assets == ("AAA", "BBB")
        assert panel.dates[0] == "2020-01-01"
        np.testing.assert_array_equal(panel.values[0], [0.1, 0.2])

    def test_incomplete_row_dropped(self):
        text = (
            "date,AAA,BBB\n"
            "2020-01-01,0.1,0.2\n"
            "2020-01-02,-0.1,0.0\n"
            "2020-01-03,,0.4\n"
            "2020-01-04,0.3,-0.2\n"
        )
        panel = load_panel(io.StringIO(text))
        assert panel.n_periods == 3
        assert panel.dropped_rows == 1
        assert "2020-01-03" not in panel.dates

    def test_na_tokens_dropped(self):
        text = "date,A,B\nd1,1,2\nd2,NaN,3\nd3,4,na\nd4,5,6\n"
        panel = load_panel(io.StringIO(text))
        assert panel.n_periods == 2
        assert panel.dropped_rows == 2

    def test_large_table_shape(self):
        # Shape matching a six-year daily large-cap panel.
        t, n = 1508, 434
        rng = np.random.default_rng(3)
        header = "date," + ",".join(f"A{i}" for i in range(n))
        rows = [header]
        values = rng.standard_normal((t, n))
        for i in range(t):
            rows.append(f"d{i}," + ",".join(f"{x:.6f}" for x in values[i]))
        panel = load_panel(io.StringIO("\n".join(rows) + "\n"))
        assert panel.n_periods == 1508
        assert panel.n_assets == 434
        assert panel.dropped_rows == 0

    def test_tab_delimiter_sniffed(self):
        text = "date\tA\tB\nd1\t0.1\t0.2\nd2\t0.3\t0.4\n"
        panel = load_panel(io.StringIO(text))
        assert panel.assets == ("A", "B")

    def test_duplicate_assets_rejected(self):
        text = "date,A,A\nd1,1,2\nd2,3,4\n"
        with pytest.raises(InputError, match="duplicate"):
            load_panel(io.StringIO(text))

    def test_too_few_complete_rows(self):
        text = "date,A,B\nd1,1,2\nd2,,4\n"
        with pytest.raises(InputError, match="fewer than 2"):
            load_panel(io.StringIO(text))

    def test_non_numeric_cell_names_row_and_column(self):
        text = "date,A,B\nd1,1,2\nd2,3,oops\n"
        with pytest.raises(InputError, match=r"'oops' at row 3, column 'B'"):
            load_panel(io.StringIO(text))

    def test_ragged_row_rejected(self):
        text = "date,A,B\nd1,1,2\nd2,3\n"
        with pytest.raises(InputError, match="row 3"):
            load_panel(io.StringIO(text))

    def test_roundtrip_is_bitwise(self, tmp_path):
        rng = np.random.default_rng(11)
        panel = make_panel(rng.standard_normal((7, 3)))
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        back = load_panel(path)
        assert back.assets == panel.assets
        assert back.dates == panel.dates
        assert back.values.tobytes() == panel.values.tobytes()

    def test_write_panel_golden_text(self):
        panel = ReturnsPanel(
            dates=("2020-01-01", 'Q1, "early" 2020'),
            assets=("ACME, Inc.", "B", "C"),
            values=[[0.1, -0.0, 1e-05], [5e-324, 1e16, 123456789.123]],
        )
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == (
            'date,"ACME, Inc.",B,C\n'
            "2020-01-01,0.1,-0.0,1e-05\n"
            '"Q1, ""early"" 2020",5e-324,1e+16,123456789.123\n'
        )
        back = load_panel(io.StringIO(buf.getvalue()))
        assert back.dates == panel.dates
        assert back.assets == panel.assets
        assert back.values.tobytes() == panel.values.tobytes()


def per_cell_load(text):
    """Reference reader: every cell through ``float``, one at a time.

    Returns ``(dates, assets, value bytes, dropped_rows)`` or raises the
    ``InputError`` that ``load_panel`` must raise.
    """
    stream = io.StringIO(text)
    first = stream.readline()
    delimiter = "\t" if "\t" in first else ","
    header = next(csv.reader([first], delimiter=delimiter))
    assets = tuple(name.strip() for name in header[1:])
    dates, values, dropped = [], [], 0
    for line_no, row in enumerate(csv.reader(stream, delimiter=delimiter), start=2):
        if len(row) <= 1 and not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise InputError(f"row {line_no} has {len(row)} cells, expected {len(header)}")
        if any(cell.strip().lower() in ("", "na", "nan", "null", "n/a") for cell in row[1:]):
            dropped += 1
            continue
        for asset, cell in zip(assets, row[1:]):
            try:
                value = float(cell)
            except ValueError:
                raise InputError(
                    f"non-numeric value {cell.strip()!r} at row {line_no}, column {asset!r}"
                ) from None
            if not math.isfinite(value):
                raise InputError(
                    f"non-finite value {cell.strip()!r} at row {line_no}, column {asset!r}"
                )
            values.append(value)
        dates.append(row[0].strip())
    if len(dates) < 2:
        raise InputError(
            f"fewer than 2 complete rows after dropping {dropped} incomplete row(s)"
        )
    return tuple(dates), assets, np.array(values, dtype=float).tobytes(), dropped


CLEAN_LINES = [
    "date,AAA,BBB,CCC",
    "2020-01-01,0.1,0.2,0.3",
    "2020-01-02,-0.1,0.0,1e-3",
    "2020-01-03,0.3,-0.2,5",
    "2020-01-04,1.5,2.5,-3.5",
]


def dirty(*rows, date=None, end="", **cells):
    """The clean table with cells (by asset) or the date of ``rows`` replaced."""
    lines = list(CLEAN_LINES)
    names = lines[0].split(",")
    for row in rows:
        fields = lines[row].split(",")
        for asset, cell in cells.items():
            fields[names.index(asset)] = cell
        if date is not None:
            fields[0] = date
        lines[row] = ",".join(fields) + end
    return "\n".join(lines) + "\n"


# (id, text, whether the bulk parser must accept it; None: numpy-dependent)
DIRTY_PANELS = [
    ("clean", dirty(1), True),
    *((f"missing-{tok!r}", dirty(3, BBB=tok), True) for tok in ("", "na", " NaN ", "null", "n/A")),
    ("missing-spaces", dirty(3, BBB="  "), True),
    ("missing-first-column", dirty(2, AAA=""), True),
    ("missing-last-column", dirty(4, CCC=""), True),
    ("missing-then-non-numeric", dirty(3, AAA="oops", CCC="NA"), True),
    ("nan-then-inf", dirty(2, AAA="inf", BBB="nan"), True),
    ("missing-leaves-one-row", dirty(1, 2, 4, CCC="null"), True),
    ("missing-everywhere", dirty(1, 2, 3, 4, AAA="na"), False),
    ("missing-tab-cell", dirty(3, BBB="\t"), False),
    ("missing-nbsp-cell", dirty(3, BBB="\xa0"), False),
    ("missing-with-cr-inside", dirty(3, AAA="0.3\r", BBB="na"), False),
    ("missing-crlf", dirty(3, BBB="na").replace("\n", "\r\n"), None),
    ("inf", dirty(2, BBB="inf"), False),
    ("underscore", dirty(2, BBB="1_0"), False),
    ("crlf", "\r\n".join(CLEAN_LINES) + "\r\n", None),
    ("tab", "\n".join(line.replace(",", "\t") for line in CLEAN_LINES) + "\n", True),
    ("tab-empty-row", "\n".join(line.replace(",", "\t") for line in CLEAN_LINES) + "\n\t\t\t\n", True),
    ("quoted-date", dirty(2, date='"Jan 2, 2020"'), False),
    ("quoted-plain-date", dirty(2, date='"2020-01-02"'), False),
    ("hash-in-date", dirty(2, date="2020-01-02#close"), True),
    ("spaced-date", dirty(2, date="Jan 2 2020"), True),
    ("missing-token-as-date", dirty(2, date="NA", BBB=" 0.5"), True),
    ("extra-delimiter", dirty(3, end=","), False),
    ("trailing-blank-lines", dirty(1) + "\n\n   \n", True),
    ("non-numeric", dirty(4, BBB="oops"), False),
]


@pytest.mark.parametrize(
    "text, bulk", [case[1:] for case in DIRTY_PANELS], ids=[case[0] for case in DIRTY_PANELS]
)
def test_bulk_parse_matches_per_cell_reference(monkeypatch, text, bulk):
    row_reads = []
    read_rows = panel_module._parse_rows
    monkeypatch.setattr(
        panel_module, "_parse_rows", lambda *args: row_reads.append(1) or read_rows(*args)
    )
    try:
        expected = per_cell_load(text)
    except (InputError, csv.Error) as exc:
        with pytest.raises(type(exc)) as got:
            load_panel(io.StringIO(text))
        assert str(got.value) == str(exc)
    else:
        panel = load_panel(io.StringIO(text))
        got = (panel.dates, panel.assets, panel.values.tobytes(), panel.dropped_rows)
        assert got == expected
    if bulk is not None:
        assert (not row_reads) is bulk


class TestStandardize:
    def test_two_point_column(self):
        panel = make_panel([[1.0], [-1.0]])
        std = standardize(panel)
        expected = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(std.values[:, 0], [expected, -expected], atol=1e-15)

    def test_hand_computed_column(self):
        # mean 2, stdev 1 with divisor T-1 = 2
        panel = make_panel([[1.0], [2.0], [3.0]])
        std = standardize(panel)
        np.testing.assert_allclose(std.values[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        panel = make_panel(rng.standard_normal((40, 5)) * 3.0 + 1.0)
        once = standardize(panel)
        twice = standardize(once)
        assert np.abs(twice.values - once.values).max() <= 1e-12

    def test_constant_column_names_asset(self):
        panel = make_panel([[1.0, 2.0], [1.0, 3.0], [1.0, 4.0]], assets=("FLAT", "OK"))
        with pytest.raises(InputError, match="FLAT"):
            standardize(panel)

    def test_invariants_hold(self):
        rng = np.random.default_rng(5)
        std = standardize(make_panel(rng.standard_normal((31, 8)) * 0.02))
        assert isinstance(std, StandardizedPanel)
        assert np.abs(std.values.mean(axis=0)).max() <= 1e-12
        assert np.abs(std.values.std(axis=0, ddof=1) - 1.0).max() <= 1e-12


class TestCorrelation:
    def test_identical_columns(self):
        x = np.random.default_rng(1).standard_normal(10)
        std = standardize(make_panel(np.column_stack([x, x])))
        corr = correlation(std)
        assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self):
        x = np.random.default_rng(2).standard_normal(10)
        std = standardize(make_panel(np.column_stack([x, -x])))
        corr = correlation(std)
        assert corr.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_orthogonal_sign_patterns(self):
        values = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        corr = correlation(standardize(make_panel(values)))
        assert abs(corr.values[0, 1]) <= 1e-15

    def test_unit_diagonal_exact(self):
        rng = np.random.default_rng(4)
        corr = correlation(standardize(make_panel(rng.standard_normal((25, 6)))))
        assert np.all(np.diag(corr.values) == 1.0)

    def test_psd(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            t = int(rng.integers(3, 40))
            n = int(rng.integers(1, 12))
            corr = correlation(standardize(make_panel(rng.standard_normal((t, n)))))
            assert np.linalg.eigvalsh(corr.values).min() >= -1e-10

    def test_invariant_under_column_rescaling(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((30, 4))
        base = correlation(standardize(make_panel(values)))
        scaled = values.copy()
        scaled[:, 2] *= 1234.5
        rescaled = correlation(standardize(make_panel(scaled)))
        assert np.abs(base.values - rescaled.values).max() <= 1e-12

    def test_requires_standardized_panel(self):
        with pytest.raises(InputError):
            correlation(make_panel([[1.0, 2.0], [3.0, 4.0]]))


class TestReturnsPanelValidation:
    def test_rejects_single_row(self):
        with pytest.raises(InputError):
            make_panel([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            make_panel([[1.0, np.nan], [2.0, 3.0]])

    def test_write_panel_to_stream(self):
        panel = make_panel([[0.5, -0.25], [1.5, 0.125]])
        buf = io.StringIO()
        write_panel(panel, buf)
        text = buf.getvalue()
        assert text.startswith("date,A0,A1\n")
        assert "0.5" in text
