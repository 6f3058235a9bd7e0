"""Panel loading, standardization, and correlation."""

import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import sys
import tempfile
import threading
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from hpca import panel as panel_module
from hpca.errors import InputError
from hpca.panel import (
    CorrelationMatrix,
    ReturnsPanel,
    StandardizedPanel,
    _gram_correlation,
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

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty input: no header row"),
            ("date\nd1\nd2\n", "header must contain a date column and at least one asset"),
            ("date,A, \nd1,1,2\nd2,3,4\n", "blank asset name in header"),
        ],
        ids=["empty", "date-only-header", "blank-asset"],
    )
    def test_header_errors(self, text, message):
        with pytest.raises(InputError, match=re.escape(message)):
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
    ("quoted-date-blank-lines", dirty(2, date='"Jan 2, 2020"', end="\n\n   "), False),
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


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    """A fresh ``XDG_CACHE_HOME``: its panel entry directory and a count of parses."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    parses = []
    parse = panel_module._parse_panel
    monkeypatch.setattr(
        panel_module, "_parse_panel", lambda stream: parses.append(1) or parse(stream)
    )
    return SimpleNamespace(dir=tmp_path / "xdg" / "hpca" / "panels", parses=parses)


def assert_same_panel(got, expected):
    assert got.dates == expected.dates
    assert got.assets == expected.assets
    assert got.dropped_rows == expected.dropped_rows
    assert got.values.shape == expected.values.shape
    np.testing.assert_array_equal(got.values.view(np.uint64), expected.values.view(np.uint64))


def full_precision_table(delimiter=","):
    values = np.random.default_rng(21).standard_normal((6, 3)) * [1e-300, 1.0, 1e300]
    values[0, 0] = -0.0
    rows = [delimiter.join(["d" + str(t), *map(repr, row)]) for t, row in enumerate(values.tolist())]
    return "\n".join([delimiter.join(["date", "A", "B", "C"]), *rows]) + "\n"


class TestPanelCache:
    """A panel file read again with the same bytes comes from its cache entry."""

    @pytest.mark.parametrize(
        "text",
        [
            full_precision_table(),
            full_precision_table("\t"),
            dirty(2, AAA="NA", end="\n") + "2020-01-05,,1,2\n",
            'date,"A, Inc.",B\r\n"Q1, 2020",1e-05,2\r\nd2,-0.0,5e-324\r\n',
        ],
        ids=["full-precision", "tab", "dropped-rows", "quoted-crlf"],
    )
    def test_hit_equals_parse_bit_for_bit(self, cache, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_bytes(text.encode())
        parsed = load_panel(path)
        (entry,) = cache.dir.iterdir()
        hit = load_panel(path)
        assert len(cache.parses) == 1
        assert_same_panel(hit, parsed)
        assert_same_panel(hit, load_panel(io.StringIO(text, newline="")))
        head, payload = entry.read_bytes().split(b"\n", 1)
        assert entry.name == hashlib.sha256(text.encode()).hexdigest()
        assert json.loads(head) == {
            "format": panel_module.CACHE_FORMAT,
            "dates": list(parsed.dates),
            "assets": list(parsed.assets),
            "dropped_rows": parsed.dropped_rows,
        }
        assert len(payload) == parsed.values.size * 8

    @pytest.mark.parametrize("spelling", ["copy", "symlink", "relative"])
    def test_same_bytes_at_another_path_share_one_entry(
        self, cache, tmp_path, monkeypatch, spelling
    ):
        path = tmp_path / "panel.csv"
        path.write_text(full_precision_table())
        parsed = load_panel(path)
        other = tmp_path / "elsewhere" / "panel.csv"
        other.parent.mkdir()
        if spelling == "copy":
            shutil.copyfile(path, other)
        elif spelling == "symlink":
            other.symlink_to(path)
        else:
            monkeypatch.chdir(other.parent)
            other = os.path.join("..", "panel.csv")
        assert_same_panel(load_panel(other), parsed)
        assert len(cache.parses) == 1
        assert len(list(cache.dir.iterdir())) == 1

    def test_same_size_rewrite_with_old_mtime_is_parsed_again(self, cache, tmp_path):
        path = tmp_path / "panel.csv"
        old, new = "date,A,B\nd1,0.25,1\nd2,2,3\n", "date,A,B\nd1,0.75,1\nd2,2,3\n"
        path.write_text(old)
        load_panel(path)
        before = path.stat()
        path.write_text(new)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        assert path.stat().st_mtime_ns == before.st_mtime_ns
        assert load_panel(path).values[0, 0] == 0.75
        assert len(cache.parses) == 2
        assert len(list(cache.dir.iterdir())) == 2
        # Each content keeps its own entry, so going back is a hit too.
        for text, first in [(old, 0.25), (new, 0.75)]:
            path.write_text(text)
            assert load_panel(path).values[0, 0] == first
        assert len(cache.parses) == 2

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda entry: entry[:-8],
            lambda entry: entry + bytes(8),
            lambda entry: entry.replace(
                json.dumps(panel_module.CACHE_FORMAT).encode(), b'"other-format"', 1
            ),
            lambda entry: b"not json\n" + entry.split(b"\n", 1)[1],
            lambda entry: b"",
            # The values stay, but the header counts one date fewer or one
            # asset more.
            lambda entry: entry.replace(b'["d0", ', b"[", 1),
            lambda entry: entry.replace(b'["A", ', b'["A", "Z", ', 1),
        ],
        ids=[
            "truncated", "padded", "foreign-format", "not-json", "empty",
            "one-date-fewer", "one-asset-more",
        ],
    )
    def test_spoiled_entry_is_a_miss_and_rewritten(self, cache, tmp_path, spoil):
        path = tmp_path / "panel.csv"
        path.write_text(full_precision_table())
        parsed = load_panel(path)
        (entry,) = cache.dir.iterdir()
        good = entry.read_bytes()
        spoiled = spoil(good)
        assert spoiled != good
        entry.write_bytes(spoiled)
        assert_same_panel(load_panel(path), parsed)
        assert len(cache.parses) == 2
        assert entry.read_bytes() == good

    @pytest.mark.parametrize(
        "old, new",
        [
            (b'"dropped_rows": 0', b'"dropped_rows": -5'),
            (b'"dropped_rows": 0', b'"dropped_rows": "lots"'),
            (b'"dates": ["d1", "d2", "d3"]', b'"dates": [1, 2, 3]'),
            (b'"assets": ["A", "B"]', b'"assets": [1, 2]'),
            (b'"dropped_rows": 0', b'"dropped_rows": 1.5'),
            (b'"dropped_rows": 0', b'"dropped_rows": null'),
            (b'"dates": ["d1", "d2", "d3"]', b'"dates": ["d1", null, "d3"]'),
            (b'"assets": ["A", "B"]', b'"assets": [["A"], "B"]'),
        ],
        ids=[
            "negative-dropped-rows",
            "text-dropped-rows",
            "integer-dates",
            "integer-assets",
            "fractional-dropped-rows",
            "null-dropped-rows",
            "null-date",
            "list-asset",
        ],
    )
    def test_entry_with_bad_labels_or_count_is_a_miss(self, cache, tmp_path, old, new):
        path = tmp_path / "panel.csv"
        path.write_text("date,A,B\nd1,0.25,1\nd2,2,3\nd3,4,5\n")
        parsed = load_panel(path)
        (entry,) = cache.dir.iterdir()
        good = entry.read_bytes()
        assert old in good
        entry.write_bytes(good.replace(old, new, 1))
        got = load_panel(path)
        assert_same_panel(got, parsed)
        assert got.dropped_rows == 0
        assert len(cache.parses) == 2
        assert entry.read_bytes() == good

    @pytest.mark.parametrize("blocked", ["cache-home-is-a-file", "entry-is-a-directory"])
    def test_unwritable_cache_still_loads(self, cache, tmp_path, monkeypatch, blocked):
        path = tmp_path / "panel.csv"
        path.write_text(full_precision_table())
        if blocked == "cache-home-is-a-file":
            (tmp_path / "home-file").write_text("x")
            monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "home-file"))
        else:
            load_panel(path)
            (entry,) = cache.dir.iterdir()
            entry.unlink()
            entry.mkdir()
            cache.parses.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            first, second = load_panel(path), load_panel(path)
        assert_same_panel(second, first)
        assert len(cache.parses) == 2
        if blocked == "entry-is-a-directory":
            # The stored copy could not replace the directory and was removed.
            assert list(cache.dir.iterdir()) == [entry]

    @pytest.mark.parametrize(
        "body, message",
        [
            (b"date,A,B\nd1,1,2\nd2,3,oops\n", "non-numeric value 'oops' at row 3, column 'B'"),
            (b"date,A,B\nd1,1,2\nd2,3\n", "row 3 has 2 cells, expected 3"),
            (b"date,A,A\nd1,1,2\nd2,3,4\n", "duplicate asset names: A"),
            (b"date,A\nd1,1\nd2,\xff\n", "{path} is not UTF-8 text: invalid start byte"),
            # Decoded as it is read, so a header fault is found first.
            (b"date,A, \n" + b"d1,1,2\n" * 2000 + b"\xff\n", "blank asset name in header"),
        ],
        ids=["non-numeric", "ragged", "duplicate-assets", "not-utf8", "header-before-bad-bytes"],
    )
    def test_failed_parse_is_not_stored(self, cache, tmp_path, body, message):
        path = tmp_path / "panel.csv"
        path.write_bytes(body)
        for _ in range(2):
            with pytest.raises(InputError) as got:
                load_panel(path)
            assert str(got.value) == message.format(path=path)
        assert not cache.dir.exists() or not any(cache.dir.iterdir())

    def test_stream_is_not_cached(self, cache):
        load_panel(io.StringIO(full_precision_table()))
        assert not cache.dir.exists()

    @pytest.mark.parametrize("home", ["absolute", "relative"])
    def test_relative_cache_home_is_ignored(self, cache, tmp_path, monkeypatch, home):
        # HOME and the working directory both lie in tmp_path, so nothing
        # can reach the real home directory.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("HOME", str(tmp_path / "home") if home == "absolute" else "home")
        monkeypatch.setenv("XDG_CACHE_HOME", "relcache")
        path = tmp_path / "panel.csv"
        path.write_text(full_precision_table())
        first, second = load_panel(path), load_panel(path)
        assert_same_panel(second, first)
        assert list(work.iterdir()) == []
        if home == "absolute":
            assert len(cache.parses) == 1
            assert len(list((tmp_path / "home/.cache/hpca/panels").iterdir())) == 1
        else:
            # With no absolute cache directory, every load parses.
            assert len(cache.parses) == 2
            assert not (tmp_path / "home").exists()


def big_panel() -> ReturnsPanel:
    """A panel just above ``SPLIT_VALUES``, with dates that csv quotes and
    the values whose ``repr`` is most varied in both halves of its rows."""
    t, n = 260, 256
    assert t * n >= panel_module.SPLIT_VALUES
    special = ("a,b", 'Q1, "early" 2020', "é", "", "NA")
    dates = tuple(special[i % 5] if i % 3 == 0 else f"2020-{i:03d}" for i in range(t))
    values = np.random.default_rng(31).standard_normal((t, n)) * 10.0 ** (np.arange(n) % 16 - 8)
    for row in (0, t // 2 - 1, t // 2, t - 1):
        values[row, :5] = [-0.0, 5e-324, 1e-05, 0.1, 1e16]
    return ReturnsPanel(dates, tuple(f"A{j}" for j in range(n)), values)


def reference_text(panel: ReturnsPanel) -> str:
    """The panel's text, built row by row."""
    def quoted(cell):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow([cell, ""])
        return out.getvalue()[:-2]

    lines = [",".join(map(quoted, ("date",) + panel.assets))]
    lines += [
        f"{quoted(date)},{','.join(map(repr, row))}"
        for date, row in zip(panel.dates, panel.values.tolist())
    ]
    return "\n".join(lines) + "\n"


def finishes(call, seconds=60):
    """``call()``'s exception or None, failing if it runs longer than ``seconds``."""
    outcome = []

    def run():
        try:
            call()
            outcome.append(None)
        except BaseException as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert outcome, f"did not finish within {seconds} s"
    return outcome[0]


class TestTwoCoreWrite:
    """A large panel is written half by a helper interpreter, byte for byte
    as one process would."""

    def test_bytes_match_the_row_by_row_reference(self, tmp_path, started):
        panel = big_panel()
        path = tmp_path / "panel.csv"
        write_panel(panel, path)
        assert path.read_bytes() == reference_text(panel).encode()
        assert [proc.returncode for proc in started] == [0]
        assert_same_panel(load_panel(path), panel)

    def test_small_panel_is_written_in_process(self, started):
        panel = make_panel(np.ones((4, 3)))
        write_panel(panel, io.StringIO())
        assert started == []

    def test_usable_cores_are_those_this_process_may_run_on(self):
        expected = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert panel_module._usable_cores() == expected

    @pytest.mark.parametrize("executable", ["missing", ""])
    def test_unstartable_helper_gives_the_same_bytes(
        self, tmp_path, started, monkeypatch, executable
    ):
        monkeypatch.setattr(sys, "executable", executable and str(tmp_path / executable))
        panel = big_panel()
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == reference_text(panel)
        assert started == []

    def test_failing_helper_gives_the_same_bytes(self, tmp_path, started, monkeypatch):
        monkeypatch.setattr(panel_module._rows, "__file__", str(tmp_path / "missing.py"))
        panel = big_panel()
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == reference_text(panel)
        assert len(started) == 1
        assert started[0].returncode not in (0, None)

    def test_helper_failing_after_a_row_leaves_no_partial_rows(self, tmp_path, started, monkeypatch):
        script = tmp_path / "one_row_then_fail.py"
        script.write_text("import sys\nsys.stdout.write('1.0\\n')\nsys.exit(1)\n")
        monkeypatch.setattr(panel_module._rows, "__file__", str(script))
        panel = big_panel()
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == reference_text(panel)
        assert [proc.returncode for proc in started] == [1]

    def test_no_temporary_directory_gives_the_same_bytes(self, tmp_path, started, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        panel = big_panel()
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == reference_text(panel)
        assert started == []

    # A missing first file is the case above.
    @pytest.mark.parametrize("failing", [None, 1], ids=["none", "output"])
    def test_temporary_files_are_closed_and_a_missing_one_is_no_helper(
        self, started, monkeypatch, failing
    ):
        made = []

        def temporary_file():
            if len(made) == failing:
                raise OSError("no space left on device")
            made.append(open_temporary())
            return made[-1]

        open_temporary = tempfile.TemporaryFile
        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        panel = big_panel()
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == reference_text(panel)
        assert len(made) == (2 if failing is None else failing)
        assert all(file.closed for file in made)
        assert len(started) == (failing is None)

    # The header is one write, each first-half row one more, and the helper's half the next.
    @pytest.mark.parametrize("failing_write", [0, 1, 1 + 130], ids=["header", "first-half", "second-half"])
    def test_failing_destination_reaps_the_helper(self, started, failing_write):
        error = OSError("disk full")

        class Failing(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                if self.writes > failing_write:
                    raise error
                return super().write(text)

        assert finishes(lambda: write_panel(big_panel(), Failing())) is error
        assert len(started) == 1
        assert started[0].returncode is not None


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

    def test_keeps_the_source_labels_and_dropped_rows(self):
        panel = make_panel([[1.0, 4.0], [2.0, 3.0], [4.0, 1.0]], assets=("X", "Y"))
        panel.dropped_rows = 3
        std = standardize(panel)
        assert (std.dates, std.assets, std.dropped_rows) == (panel.dates, ("X", "Y"), 3)

    @pytest.mark.parametrize("t", [2, 3, 1000, 50000])
    def test_invariants_hold_from_two_rows_to_long_panels(self, t):
        rng = np.random.default_rng(t)
        n = 3 if t > 1000 else 8
        std = standardize(make_panel(rng.standard_normal((t, n)) * 0.02 + 0.01))
        assert np.abs(std.values.mean(axis=0)).max() <= 1e-12
        assert np.abs(std.values.std(axis=0, ddof=1) - 1.0).max() <= 1e-12

    @pytest.mark.parametrize(
        "t, n, scale, offset",
        [
            (2, 1, 1.0, 0.0),
            (2, 4, 3.0, -1.0),
            (3, 1, 1e-9, 0.0),
            (40, 6, 1e-9, 5e-9),
            (40, 6, 1e9, 1e10),
            (257, 5, 1.0, 100.0),
            (1200, 3, 1e-3, 0.0),
        ],
    )
    def test_bits_match_the_two_pass_formula(self, t, n, scale, offset):
        values = np.random.default_rng(t + n).standard_normal((t, n)) * scale + offset
        expected = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
        std = standardize(make_panel(values))
        assert std.values.tobytes() == expected.tobytes()
        raw = values.copy()
        hand_built = StandardizedPanel(std.dates, std.assets, values)
        assert hand_built.values.tobytes() == expected.tobytes()
        assert values.tobytes() == raw.tobytes()


class TestStandardizedPanelValidation:
    def test_accepts_a_standardized_panel(self):
        values = np.array([[1.0, -1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        assert StandardizedPanel(("d0", "d1"), ("A", "B"), values).n_assets == 2

    @pytest.mark.parametrize(
        "spoil",
        [
            lambda column: column * 0.0,
            # Squares past the float range: the stdev is inf.
            lambda column: column * 1e160,
            # A spread of ~1 is below 1e-12 of the column's magnitude.
            lambda column: column + 1e13,
        ],
        ids=["zero", "overflow", "offset-1e13"],
    )
    @pytest.mark.parametrize(
        "build",
        [StandardizedPanel, lambda *fields: standardize(ReturnsPanel(*fields))],
        ids=["hand-built", "standardize"],
    )
    def test_refuses_a_column_it_cannot_standardize_by_name(self, build, spoil):
        values = np.random.default_rng(9).standard_normal((6, 2))
        values[:, 1] = spoil(values[:, 1])
        dates = tuple(f"d{i}" for i in range(6))
        with pytest.raises(InputError, match=r"cannot be standardized: BAD$"):
            build(dates, ("OK", "BAD"), values)

    @pytest.mark.parametrize("t, offset", [(40, 1e4), (1508, 1e6), (50000, 1e10)])
    def test_standardizes_a_shifted_panel(self, t, offset):
        # The centering rounds at ~offset * 2^-53, above any fixed tolerance.
        values = np.random.default_rng(10).standard_normal((t, 2)) + offset
        expected = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
        assert standardize(make_panel(values)).values.tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("layout", ["c-ordered", "f-ordered-gather"])
    def test_gram_bits_match_the_symmetrized_formula(self, layout):
        # numpy fills both triangles of ``x.T @ x`` from one for a C- or
        # F-contiguous ``x``, the layouts every caller passes, so the Gram
        # needs no symmetrizing of its own.
        x = np.random.default_rng(8).standard_normal((200, 200))
        x = {"c-ordered": x, "f-ordered-gather": x[:, np.r_[3:80, 110:170]]}[layout]
        assert x.flags.c_contiguous or x.flags.f_contiguous
        expected = x.T @ x / 199
        expected = 0.5 * (expected + expected.T)
        np.fill_diagonal(expected, 1.0)
        c = _gram_correlation(x, 199)
        assert c.tobytes() == expected.tobytes()
        assert np.array_equal(c, c.T)

    @pytest.mark.parametrize("asymmetry", [0.0, 1e-13])
    def test_matrix_symmetric_within_tolerance_accepted(self, asymmetry):
        values = np.array([[1.0, 0.3], [0.3 + asymmetry, 1.0]])
        assert CorrelationMatrix(values).values.shape == (2, 2)

    def test_matrix_asymmetry_above_tolerance_rejected(self):
        with pytest.raises(InputError, match="correlation matrix is not symmetric"):
            CorrelationMatrix(np.array([[1.0, 0.3], [0.3 + 1e-11, 1.0]]))

    @pytest.mark.parametrize(
        "values",
        [[[1.0, np.nan], [np.nan, 1.0]], [[np.nan, 0.3], [0.3, 1.0]]],
        ids=["off-diagonal", "diagonal"],
    )
    def test_matrix_with_nan_rejected(self, values):
        # Every other check compares with ``>``, which a NaN never satisfies.
        with pytest.raises(InputError, match="correlation matrix contains non-finite entries"):
            CorrelationMatrix(np.array(values))

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.zeros((2, 3)), "correlation matrix must be square and non-empty, got shape (2, 3)"),
            ([[1.0, 0.5], [0.5, 0.9]], "correlation matrix diagonal is not 1"),
            ([[1.0, 1.5], [1.5, 1.0]], "outside [-1, 1]: max |entry| = 1.5"),
            ([[1.0, -1.25], [-1.25, 1.0]], "outside [-1, 1]: max |entry| = 1.25"),
        ],
        ids=["not-square", "diagonal", "above-one", "below-minus-one"],
    )
    def test_matrix_rejects_malformed_values(self, values, message):
        with pytest.raises(InputError, match=re.escape(message)):
            CorrelationMatrix(np.array(values))


class TestReturnsPanelValidation:
    def test_rejects_single_row(self):
        with pytest.raises(InputError):
            make_panel([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(InputError):
            make_panel([[1.0, np.nan], [2.0, 3.0]])

    @pytest.mark.parametrize(
        "dates, assets, values, message",
        [
            (("d1", "d2"), ("A",), np.zeros(2), "panel values must be 2-d, got 1-d"),
            (
                ("d1",), ("A", "B"), np.zeros((2, 2)),
                "label/value shape mismatch: 1 dates, 2 assets, values (2, 2)",
            ),
            (
                ("d1", "d2"), ("A",), np.zeros((2, 2)),
                "label/value shape mismatch: 2 dates, 1 assets, values (2, 2)",
            ),
            (("d1", "d2"), (), np.zeros((2, 0)), "panel needs at least 1 asset column"),
        ],
        ids=["one-dimensional", "dates-mismatch", "assets-mismatch", "no-assets"],
    )
    def test_rejects_malformed_panel(self, dates, assets, values, message):
        with pytest.raises(InputError, match=re.escape(message)):
            ReturnsPanel(dates=dates, assets=assets, values=values)

    @pytest.mark.parametrize(
        "dropped, message",
        [
            (-3, "dropped_rows must be non-negative, got -3"),
            ("lots", "dropped_rows must be a whole number, got 'lots'"),
            (1.5, "dropped_rows must be a whole number, got 1.5"),
            (None, "dropped_rows must be a whole number, got None"),
            (True, "dropped_rows must be a whole number, got True"),
        ],
        ids=["negative", "text", "fractional", "none", "boolean"],
    )
    def test_rejects_bad_dropped_rows(self, dropped, message):
        with pytest.raises(InputError, match=re.escape(message)):
            ReturnsPanel(("d1", "d2"), ("A",), [[1.0], [2.0]], dropped_rows=dropped)

    @pytest.mark.parametrize(
        "dates, assets",
        [
            ((1, 2), ("A", "B")), (("d1", "d2"), (3, None)), (("d1", b"d2"), ("A", "B")),
            ("ab", ("A", "B")), (("d1", "d2"), "AB"), (None, ("A", "B")), (("d1", "d2"), 5),
        ],
        ids=[
            "integer-dates", "non-text-assets", "bytes-date",
            "one-string-dates", "one-string-assets", "dates-not-iterable", "assets-not-iterable",
        ],
    )
    def test_rejects_labels_that_are_not_text(self, dates, assets):
        with pytest.raises(InputError, match="dates and asset names must be text"):
            ReturnsPanel(dates, assets, [[1.0, 2.0], [3.0, 5.0]])

    def test_labels_are_stored_as_tuples(self):
        panel = ReturnsPanel(["d1", "d2"], iter(["A", "B"]), [[1.0, 2.0], [3.0, 5.0]])
        assert panel.dates == ("d1", "d2") and panel.assets == ("A", "B")
        buffer = io.StringIO()
        write_panel(panel, buffer)
        assert buffer.getvalue().startswith("date,A,B\nd1,")

    def test_write_panel_matches_csv_writer(self):
        # Dates that need quoting or look like a missing cell, each in a row
        # of floats whose repr text spans exponents, signs and -0.0.
        dates = ("2020-01-01", "a,b", 'say "hi"', "two\nlines", "cr\rhere", " lead", "", "NA", "é")
        values = np.random.default_rng(8).standard_normal((len(dates), 3)) * 10.0 ** np.arange(-7, 8, 7)
        values[0] = [-0.0, 5e-324, 1e300]
        panel = ReturnsPanel(dates=dates, assets=("A,1", 'B"', "C"), values=values)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(("date",) + panel.assets)
        writer.writerows([date, *map(repr, row)] for date, row in zip(dates, values.tolist()))
        buf = io.StringIO()
        write_panel(panel, buf)
        assert buf.getvalue() == expected.getvalue()

    def test_write_panel_to_stream(self):
        panel = make_panel([[0.5, -0.25], [1.5, 0.125]])
        buf = io.StringIO()
        write_panel(panel, buf)
        text = buf.getvalue()
        assert text.startswith("date,A0,A1\n")
        assert "0.5" in text
