"""End-to-end command-line workflows."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from hpca import panel as panel_module
from hpca.cli import main
from hpca.synth import MarketSpec, SectorSpec, default_market_spec, save_market_spec


@pytest.fixture()
def small_spec_file(tmp_path):
    spec = MarketSpec(
        sectors=(
            SectorSpec(name="alpha", size=3, equicorrelation=0.5),
            SectorSpec(name="beta", size=2, equicorrelation=0.4),
            SectorSpec(name="gamma", size=1),
        ),
        factor_correlation=np.array(
            [[1.0, 0.45, 0.3], [0.45, 1.0, 0.35], [0.3, 0.35, 1.0]]
        ),
        n_periods=160,
        seed=11,
    )
    path = tmp_path / "market.json"
    save_market_spec(spec, path)
    return path


@pytest.fixture()
def simulated(tmp_path, small_spec_file):
    panel = tmp_path / "panel.csv"
    sectors = tmp_path / "sectors.csv"
    rc = main(
        [
            "simulate",
            "--spec", str(small_spec_file),
            "--seed", "1",
            "--out", str(panel),
            "--sectors-out", str(sectors),
        ]
    )
    assert rc == 0
    return panel, sectors


class TestSimulate:
    def test_writes_panel_and_sector_map(self, simulated):
        panel, sectors = simulated
        header = panel.read_text().splitlines()[0]
        assert header.startswith("date,")
        assert len(header.split(",")) == 7
        lines = sectors.read_text().splitlines()
        assert lines[0] == "asset,sector"
        assert len(lines) == 7

    def test_deterministic_across_runs(self, tmp_path, small_spec_file):
        out1 = tmp_path / "p1.csv"
        out2 = tmp_path / "p2.csv"
        assert main(["simulate", "--spec", str(small_spec_file), "--seed", "3", "--out", str(out1)]) == 0
        assert main(["simulate", "--spec", str(small_spec_file), "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_integral_float_numbers_in_spec(self, tmp_path, small_spec_file):
        doc = json.loads(small_spec_file.read_text())
        doc["n_periods"] = float(doc["n_periods"])
        doc["seed"] = float(doc["seed"])
        doc["sectors"][0]["size"] = float(doc["sectors"][0]["size"])
        float_spec = tmp_path / "float.json"
        float_spec.write_text(json.dumps(doc))
        outs = []
        for spec in (small_spec_file, float_spec):
            out = tmp_path / f"{spec.stem}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "hpca", "simulate", "--spec", str(spec), "--out", str(out)],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestFitAndSpectrum:
    def test_fit_writes_model(self, tmp_path, simulated, capsys):
        panel, sectors = simulated
        out = tmp_path / "model"
        rc = main(
            [
                "fit",
                "--panel", str(panel),
                "--sectors", str(sectors),
                "--out", str(out),
                "--dense",
                "--vectors", "2",
            ]
        )
        assert rc == 0
        doc = json.loads((out / "model.json").read_text())
        assert doc["sectors"] == ["alpha", "beta", "gamma"]
        assert len(doc["spectrum"]) == 6
        assert "matrix" in doc
        assert (out / "eigenvectors.csv").exists()

    def test_vectors_above_the_asset_count_writes_every_vector(self, tmp_path, simulated):
        panel, sectors = simulated
        out = tmp_path / "model"
        args = ["fit", "--panel", str(panel), "--sectors", str(sectors), "--out", str(out)]
        assert main([*args, "--vectors", "99"]) == 0
        lines = (out / "eigenvectors.csv").read_text().splitlines()
        assert lines[0] == "asset," + ",".join(f"EV{r}" for r in range(1, 7))
        assert len(lines) == 7

    def test_fit_of_a_shifted_panel(self, tmp_path, simulated):
        panel, sectors = simulated
        shifted = tmp_path / "shifted.csv"
        loaded = panel_module.load_panel(panel)
        panel_module.write_panel(
            panel_module.ReturnsPanel(loaded.dates, loaded.assets, loaded.values + 1e4), shifted
        )
        fits = []
        for source in (panel, shifted):
            out = tmp_path / source.stem
            assert main(["fit", "--panel", str(source), "--sectors", str(sectors), "--out", str(out)]) == 0
            fits.append(json.loads((out / "model.json").read_text())["spectrum"])
        base, got = ([entry["eigenvalue"] for entry in fit] for fit in fits)
        assert np.abs(np.subtract(got, base)).max() <= 1e-12 * base[0]

    def test_spectrum_table(self, tmp_path, simulated, capsys):
        panel, sectors = simulated
        out = tmp_path / "model"
        assert main(["fit", "--panel", str(panel), "--sectors", str(sectors), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["spectrum", "--model", str(out), "--top", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rank\teigenvalue\tlabel"
        assert len(lines) == 5
        first = lines[1].split("\t")
        assert first[0] == "1"
        assert float(first[1]) > 1.0

    def test_spectrum_top_zero_prints_only_the_header(self, tmp_path, simulated):
        panel, sectors = simulated
        out = tmp_path / "model"
        assert main(["fit", "--panel", str(panel), "--sectors", str(sectors), "--out", str(out)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "hpca", "spectrum", "--model", str(out), "--top", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "rank\teigenvalue\tlabel\n"

    def test_spectrum_missing_model(self, tmp_path, capsys):
        rc = main(["spectrum", "--model", str(tmp_path / "nope")])
        assert rc == 1


class TestCompare:
    def test_text_output(self, simulated, capsys):
        panel, sectors = simulated
        rc = main(["compare", "--panel", str(panel), "--sectors", str(sectors), "--top", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("assets: 6")
        assert "Multi-sector" in out

    def test_json_output(self, simulated, capsys):
        panel, sectors = simulated
        rc = main(["compare", "--panel", str(panel), "--sectors", str(sectors), "--json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_assets"] == 6
        assert len(doc["rows"]) == 6
        assert abs(sum(doc["hpca_eigenvalues"]) - 6.0) < 1e-6

    def test_output_field_order(self, simulated, capsys):
        panel, sectors = simulated
        args = ["compare", "--panel", str(panel), "--sectors", str(sectors), "--top", "2"]
        assert main([*args, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == [
            "n_assets", "rank_one_delta", "min_pca_eigenvalue", "min_hpca_eigenvalue",
            "rows", "pca_eigenvalues", "hpca_eigenvalues", "hpca_labels",
            "pca_cumulative", "hpca_cumulative",
        ]
        for row in doc["rows"]:
            assert list(row) == [
                "rank", "pca_eigenvalue", "hpca_eigenvalue", "label",
                "rms_distance", "mean_difference", "mean_abs_entry",
            ]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[5] == "rank\tpca\thpca\tlabel\trms_distance\tmean_difference\tmean_abs_entry"
        assert [line.split("\t")[0] for line in lines[6:]] == ["1", "2"]

    def test_repeat_runs_identical(self, simulated, capsys):
        panel, sectors = simulated
        args = ["compare", "--panel", str(panel), "--sectors", str(sectors)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_top_zero_has_no_rows(self, simulated, fmt):
        panel, sectors = simulated
        proc = subprocess.run(
            [sys.executable, "-m", "hpca", "compare", "--panel", str(panel),
             "--sectors", str(sectors), "--top", "0", *fmt],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        if fmt:
            doc = json.loads(proc.stdout)
            assert doc["rows"] == []
            assert len(doc["hpca_eigenvalues"]) == 6
        else:
            assert proc.stdout.endswith("\nrank\tpca\thpca\tlabel\trms_distance\t"
                                        "mean_difference\tmean_abs_entry\n")


class TestResiduals:
    @pytest.mark.parametrize("method", ["pca", "hpca"])
    def test_methods_run(self, tmp_path, simulated, capsys, method):
        panel, sectors = simulated
        out = tmp_path / f"resid_{method}"
        rc = main(
            [
                "residuals",
                "--panel", str(panel),
                "--sectors", str(sectors),
                "--method", method,
                "--m", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert f"method={method} m=2" in text
        assert (out / "eigenvalues.csv").read_text().startswith("rank,eigenvalue")
        assert (out / "histogram.csv").read_text().startswith("bin_left,bin_right,count")
        assert (out / "mp_density.csv").read_text().startswith("eigenvalue,density")

    def test_default_cutoff_reported(self, simulated, capsys):
        panel, sectors = simulated
        rc = main(["residuals", "--panel", str(panel), "--sectors", str(sectors), "--method", "pca"])
        assert rc == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("method=pca m=")

    def test_excessive_cutoff_is_input_error(self, simulated, capsys):
        panel, sectors = simulated
        rc = main(["residuals", "--panel", str(panel), "--sectors", str(sectors), "--method", "pca", "--m", "99"])
        assert rc == 1


class TestPanelCache:
    def test_same_seed_runs_in_two_directories_share_one_entry(
        self, tmp_path, small_spec_file, monkeypatch
    ):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        parses = []
        parse = panel_module._parse_panel
        monkeypatch.setattr(
            panel_module, "_parse_panel", lambda stream: parses.append(1) or parse(stream)
        )
        runs = [tmp_path / "run1", tmp_path / "run2"]
        for run in runs:
            run.mkdir()
            assert main([
                "simulate", "--spec", str(small_spec_file), "--seed", "1",
                "--out", str(run / "panel.csv"), "--sectors-out", str(run / "sectors.csv"),
            ]) == 0
        for run in runs:
            assert main([
                "fit", "--panel", str(run / "panel.csv"), "--sectors", str(run / "sectors.csv"),
                "--out", str(run / "model"),
            ]) == 0
            assert len(parses) == 1
        assert len(list((tmp_path / "xdg" / "hpca" / "panels").iterdir())) == 1


class TestErrorPaths:
    def test_missing_panel_file(self, tmp_path, simulated, capsys):
        _, sectors = simulated
        rc = main(["compare", "--panel", str(tmp_path / "nope.csv"), "--sectors", str(sectors)])
        assert rc == 1

    def test_malformed_panel(self, tmp_path, simulated, capsys):
        _, sectors = simulated
        bad = tmp_path / "bad.csv"
        bad.write_text("date,A,B\nd1,1,x\nd2,2,3\n")
        rc = main(["compare", "--panel", str(bad), "--sectors", str(sectors)])
        assert rc == 1

    def test_incomplete_sector_map(self, tmp_path, simulated, capsys):
        panel, _ = simulated
        partial = tmp_path / "partial.csv"
        partial.write_text("asset,sector\nS01A001,alpha\n")
        rc = main(["compare", "--panel", str(panel), "--sectors", str(partial)])
        assert rc == 1

    def test_spec_with_boolean_and_text_entries(self, tmp_path, capsys):
        spec = tmp_path / "market.json"
        spec.write_text(
            '{"n_periods": 10, "factor_correlation": [[true]], "sectors": '
            '[{"name": "a", "size": 2, "correlation": [[true, "0.3"], ["0.3", 1]]}]}'
        )
        assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "p.csv")]) == 1
        assert "sector 'a' correlation must be an array of numbers" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hpca", "no-such-command"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hpca", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("hpca ")


class TestExitCodes:
    """The README's exit codes: 2 for a numerical failure, 1 for a usage error."""

    @pytest.fixture()
    def repeated_column(self, tmp_path):
        values = np.random.default_rng(23).standard_normal((50, 4))
        values[:, 3] = values[:, 2]
        panel, sectors = tmp_path / "panel.csv", tmp_path / "sectors.csv"
        rows = [f"d{t}," + ",".join(map(repr, row)) for t, row in enumerate(values.tolist())]
        panel.write_text("\n".join(["date,A,B,C,D", *rows]) + "\n")
        sectors.write_text("asset,sector\nA,x\nB,x\nC,y\nD,y\n")
        return panel, sectors

    @pytest.mark.parametrize("method", ["pca", "hpca"])
    def test_singular_panel_is_numerical_failure(self, repeated_column, capsys, method):
        panel, sectors = repeated_column
        rc = main([
            "residuals", "--panel", str(panel), "--sectors", str(sectors),
            "--method", method, "--m", "4",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: cannot realize eigenportfolios"
        )

    @pytest.mark.parametrize("method, m, columns", [("hpca", "2", "C,D")])
    def test_degenerate_columns_are_listed(self, repeated_column, capsys, method, m, columns):
        panel, sectors = repeated_column
        rc = main([
            "residuals", "--panel", str(panel), "--sectors", str(sectors),
            "--method", method, "--m", m,
        ])
        assert rc == 0
        assert f"degenerate_columns={columns}" in capsys.readouterr().out.splitlines()

    def test_all_degenerate_residuals_are_numerical_failure(self, repeated_column, capsys):
        panel, sectors = repeated_column
        rc = main([
            "residuals", "--panel", str(panel), "--sectors", str(sectors),
            "--method", "pca", "--m", "3",
        ])
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: every residual column is degenerate: "
            "the 3 factor(s) explain the whole panel\n"
        )

    def test_linalg_error_is_numerical_failure(self, simulated, capsys, monkeypatch):
        def fail(*args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        panel, sectors = simulated
        rc = main(["compare", "--panel", str(panel), "--sectors", str(sectors)])
        assert rc == 2
        assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"

    @pytest.mark.parametrize("missing", ["--panel", "--sectors"])
    @pytest.mark.parametrize(
        "command, rest",
        [("fit", ["--out", "model"]), ("compare", []), ("residuals", ["--method", "pca"])],
    )
    def test_inputs_are_required(self, capsys, command, rest, missing):
        inputs = {"--panel": "panel.csv", "--sectors": "sectors.csv"}
        del inputs[missing]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *[a for pair in inputs.items() for a in pair], *rest])
        assert exit_info.value.code == 1
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err


class TestDeterminismContract:
    """Same machine and same BLAS thread count give the same bytes, run to run."""

    def test_compare_json_repeats_at_each_thread_count(self, tmp_path):
        spec_path = tmp_path / "market.json"
        save_market_spec(default_market_spec(n_periods=600, seed=5), spec_path)
        panel, sectors = tmp_path / "panel.csv", tmp_path / "sectors.csv"
        assert main([
            "simulate", "--spec", str(spec_path),
            "--out", str(panel), "--sectors-out", str(sectors),
        ]) == 0
        argv = [
            sys.executable, "-m", "hpca", "compare",
            "--panel", str(panel), "--sectors", str(sectors), "--top", "25", "--json",
        ]
        for threads in ("1", "2"):
            env = {
                **os.environ,
                "OPENBLAS_NUM_THREADS": threads,
                "OMP_NUM_THREADS": threads,
                "MKL_NUM_THREADS": threads,
            }
            first, second = (
                subprocess.run(argv, capture_output=True, env=env, timeout=300)
                for _ in range(2)
            )
            assert first.returncode == 0, first.stderr.decode()
            assert second.returncode == 0, second.stderr.decode()
            assert json.loads(first.stdout)["n_assets"] == 462
            assert first.stdout == second.stdout, f"{threads} BLAS thread(s)"


class TestInputFailuresReportCleanly:
    """Bad input files exit 1 with an ``error:`` line, never a traceback."""

    @staticmethod
    def assert_input_error(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "hpca", *map(str, args)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
        return proc.stderr

    @pytest.mark.parametrize("text", ['{"spectrum": [', "{}"])
    def test_spectrum_on_bad_model_file(self, tmp_path, text):
        (tmp_path / "model.json").write_text(text)
        self.assert_input_error("spectrum", "--model", tmp_path)

    def test_simulate_with_non_integer_size(self, tmp_path, small_spec_file):
        doc = json.loads(small_spec_file.read_text())
        doc["sectors"][0]["size"] = "abc"
        small_spec_file.write_text(json.dumps(doc))
        self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )

    def test_simulate_with_non_text_sector_name(self, tmp_path, small_spec_file):
        doc = json.loads(small_spec_file.read_text())
        doc["sectors"][0]["name"] = 3
        small_spec_file.write_text(json.dumps(doc))
        stderr = self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )
        assert "sector name must be a string, got 3" in stderr

    @pytest.mark.parametrize(
        "where, value",
        [("size", 2.9), ("size", True), ("n_periods", 10.7), ("seed", 1.5), ("seed", True)],
    )
    def test_simulate_with_fractional_number(self, tmp_path, small_spec_file, where, value):
        doc = json.loads(small_spec_file.read_text())
        if where == "size":
            doc["sectors"][0]["size"] = value
        else:
            doc[where] = value
        small_spec_file.write_text(json.dumps(doc))
        stderr = self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )
        assert "must be a whole number" in stderr

    @pytest.mark.parametrize(
        "matrix", ["factor correlation", "sector 'beta' correlation"], ids=["factor", "sector"]
    )
    def test_simulate_with_nan_correlation(self, tmp_path, small_spec_file, matrix):
        doc = json.loads(small_spec_file.read_text())
        if matrix == "factor correlation":
            doc["factor_correlation"][0][1] = doc["factor_correlation"][1][0] = float("nan")
        else:
            beta = doc["sectors"][1]
            del beta["equicorrelation"]
            beta["correlation"] = [[1.0, float("nan")], [float("nan"), 1.0]]
        small_spec_file.write_text(json.dumps(doc))
        stderr = self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )
        assert f"{matrix} contains non-finite entries" in stderr

    @pytest.mark.parametrize(
        "value, message",
        [
            # A value the spec refuses is reported as its check words it.
            (True, "sector 'alpha' equicorrelation must be a finite real number, got True"),
            (10**400, "malformed market spec: int too large to convert to float"),
        ],
        ids=["bool", "huge-int"],
    )
    def test_simulate_with_bad_equicorrelation(self, tmp_path, small_spec_file, value, message):
        doc = json.loads(small_spec_file.read_text())
        doc["sectors"][0]["equicorrelation"] = value
        small_spec_file.write_text(json.dumps(doc))
        stderr = self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )
        assert stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["sectors"][0].update(name="a", size=2.5),
             "sector 'a' size must be a whole number, got 2.5"),
            (lambda doc: doc.pop("sectors"), "malformed market spec: 'sectors'"),
        ],
        ids=["refused-size", "no-sectors"],
    )
    def test_simulate_names_what_the_spec_gets_wrong(self, tmp_path, small_spec_file, edit, message):
        doc = json.loads(small_spec_file.read_text())
        edit(doc)
        small_spec_file.write_text(json.dumps(doc))
        stderr = self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )
        assert stderr == f"error: {message}\n"

    def test_simulate_with_boolean_among_correlations(self, tmp_path, small_spec_file):
        doc = json.loads(small_spec_file.read_text())
        beta = doc["sectors"][1]
        del beta["equicorrelation"]
        beta["correlation"] = [[True, 0.4], [0.4, 1.0]]
        small_spec_file.write_text(json.dumps(doc))
        stderr = self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )
        assert "sector 'beta' correlation must be an array of numbers" in stderr

    def test_simulate_with_negative_seed(self, tmp_path, small_spec_file):
        self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--seed", "-1",
            "--out", tmp_path / "p.csv",
        )

    def test_simulate_with_negative_spec_seed(self, tmp_path, small_spec_file):
        doc = json.loads(small_spec_file.read_text())
        doc["seed"] = -3
        small_spec_file.write_text(json.dumps(doc))
        self.assert_input_error(
            "simulate", "--spec", small_spec_file, "--out", tmp_path / "p.csv"
        )

    @pytest.mark.parametrize(
        "command, option",
        [("fit", "--vectors"), ("spectrum", "--top"), ("compare", "--top"), ("residuals", "--m")],
    )
    def test_negative_count_is_usage_error(self, tmp_path, simulated, command, option):
        panel, sectors = simulated
        # argparse rejects the count before any input is opened.
        model = tmp_path / "model"
        inputs = {
            "fit": ["--panel", panel, "--sectors", sectors, "--out", model],
            "spectrum": ["--model", model],
            "compare": ["--panel", panel, "--sectors", sectors],
            "residuals": ["--panel", panel, "--sectors", sectors, "--method", "hpca"],
        }[command]
        for count in ("-1", "abc", "1.5"):
            proc = subprocess.run(
                [sys.executable, "-m", "hpca", command, *map(str, inputs), option, count],
                capture_output=True, text=True,
            )
            assert proc.returncode == 1
            assert (
                f"argument {option}: expected a non-negative integer, got {count!r}"
                in proc.stderr
            )
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad", ["panel", "sectors"])
    def test_fit_on_non_utf8_file(self, tmp_path, simulated, bad):
        inputs = dict(zip(("panel", "sectors"), simulated))
        inputs[bad].write_bytes(b"\xff\xfe" + inputs[bad].read_bytes())
        self.assert_input_error(
            "fit", "--panel", inputs["panel"], "--sectors", inputs["sectors"],
            "--out", tmp_path / "model",
        )


def _imports_numpy(*args, cwd=None):
    """Whether ``python -X importtime ARGS`` imported numpy, and the run."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, cwd=cwd,
    )
    return bool(re.search(r"\|\s+numpy$", proc.stderr, flags=re.M)), proc


class TestStartsWithoutNumpy:
    """Commands that do no numeric work never import numpy."""

    @pytest.mark.parametrize(
        "args, code",
        [
            (["-c", "import hpca"], 0),
            (["-c", "import hpca.cli"], 0),
            (["-m", "hpca", "--version"], 0),
            (["-m", "hpca", "--help"], 0),
            (["-m", "hpca", "spectrum", "--help"], 0),
            (["-m", "hpca", "no-such-command"], 1),
            (["-m", "hpca", "spectrum"], 1),
        ],
        ids=["import", "import-cli", "version", "help", "spectrum-help", "usage-error", "no-model"],
    )
    def test_no_numpy(self, args, code):
        numpy, proc = _imports_numpy(*args)
        assert proc.returncode == code
        assert not numpy

    def test_spectrum_of_a_fitted_model(self, tmp_path, simulated, capsys):
        panel, sectors = simulated
        model = tmp_path / "model"
        assert main(["fit", "--panel", str(panel), "--sectors", str(sectors), "--out", str(model)]) == 0
        capsys.readouterr()
        assert main(["spectrum", "--model", str(model), "--top", "3"]) == 0
        numpy, proc = _imports_numpy("-m", "hpca", "spectrum", "--model", str(model), "--top", "3")
        assert proc.returncode == 0
        assert not numpy
        assert proc.stdout == capsys.readouterr().out

    def test_the_probe_sees_numpy(self):
        numpy, proc = _imports_numpy("-c", "import hpca.panel")
        assert proc.returncode == 0
        assert numpy
