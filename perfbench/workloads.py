"""The benchmark's workloads: inputs, one round of operations, and checks.

Each workload is a closed loop with one caller. ``setup`` builds the inputs
from the seed, ``run_round`` performs one round of operations and returns
them timed, ``check_round`` checks a round's outputs just after it (outside
every timed region) and ``finish`` makes the checks that need a reference
computed once per run. A failed check is recorded on its operation.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hpca import eigen, model, panel, report, rmt, synth
from oracle import (
    CheckFailed,
    Reference,
    contiguous_groups,
    expect,
    expect_close,
    expect_spectrum_props,
    hierarchical_eigenvalues,
    noise_edge,
)

PAPER_PERIODS = 1508
SCALE_4X = 4
TOP = 25
VECTORS = 10
MULTI = "Multi-sector"
HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"


@dataclass
class Op:
    """One timed operation; ``error`` is set if it raised or exited non-zero.

    ``check_seconds`` is time spent on checks inside the operation's timed
    region, which ``seconds`` leaves out.
    """

    name: str
    seconds: float = 0.0
    check_seconds: float = 0.0
    error: str | None = None
    check_error: str | None = None
    out: dict = field(default_factory=dict)


def market(scale: int, n_periods: int, seed: int) -> synth.MarketSpec:
    """The default 11-sector market with every sector ``scale`` times larger."""
    base = synth.default_market_spec(n_periods=n_periods, seed=seed)
    return synth.MarketSpec(
        sectors=tuple(
            synth.SectorSpec(s.name, scale * s.size, s.equicorrelation) for s in base.sectors
        ),
        factor_correlation=base.factor_correlation,
        n_periods=n_periods,
        seed=seed,
    )


def _count_multi(labels) -> int:
    return sum(1 for label in labels if label == MULTI)


def _check_each(ops, check) -> None:
    """Run ``check(op)`` on every operation that completed; record failures."""
    for op in ops:
        if op.error is not None:
            continue
        try:
            check(op)
        except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
            op.check_error = f"{type(exc).__name__}: {exc}"


class CliPaper:
    """The README round trip as ``python -m hpca`` subprocesses at paper scale."""

    name = "cli-paper"
    in_process = False
    commands = ("simulate", "fit", "spectrum", "compare", "residuals_hpca", "residuals_pca")

    def __init__(self, seed: int, quick: bool, workdir: Path):
        self.seed = seed
        self.spec = market(1, 600 if quick else PAPER_PERIODS, seed)
        self.dir = workdir
        self.peak_kib = 0
        self.reference: Reference | None = None
        self.expected = None

    def describe(self) -> str:
        s = self.spec
        return f"n={s.n_assets} T={s.n_periods} b={s.n_sectors} spec=default_market_spec seed={self.seed}"

    def setup(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        synth.save_market_spec(self.spec, self.dir / "market.json")
        # Start one interpreter up front, so bytecode and page cache are warm.
        subprocess.run([sys.executable, "-c", "import hpca"], check=True)

    def _argv(self, command: str) -> list[str]:
        d = self.dir
        data = ["--panel", str(d / "panel.csv"), "--sectors", str(d / "sectors.csv")]
        return {
            "simulate": ["simulate", "--spec", str(d / "market.json"), "--seed", str(self.seed),
                         "--out", str(d / "panel.csv"), "--sectors-out", str(d / "sectors.csv")],
            "fit": ["fit", *data, "--out", str(d / "model"), "--vectors", str(VECTORS)],
            "spectrum": ["spectrum", "--model", str(d / "model"), "--top", str(TOP)],
            "compare": ["compare", *data, "--top", str(TOP), "--json"],
            "residuals_hpca": ["residuals", *data, "--method", "hpca", "--out", str(d / "resid")],
            "residuals_pca": ["residuals", *data, "--method", "pca"],
        }[command]

    def run_round(self, tracer) -> list[Op]:
        ops = []
        for command in self.commands:
            argv = self._argv(command)
            spans_path = self.dir / "spans.json"
            if tracer is None:
                cmd = [sys.executable, "-m", "hpca", *argv]
            else:
                cmd = [sys.executable, str(TRACED_CLI), str(spans_path), str(self.spec.n_assets), *argv]
            out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter_ns()
                proc = subprocess.Popen(cmd, stdout=out, stderr=err)
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.perf_counter_ns()
            proc.returncode = os.waitstatus_to_exitcode(status)
            op = Op(command, seconds=(end - start) / 1e9)
            self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
            if proc.returncode != 0:
                op.error = f"exit {proc.returncode}: {err_path.read_text()[-500:]}"
            else:
                op.out["stdout"] = out_path.read_text()
            if tracer is not None:
                parent = tracer.add(f"proc.{command}", start, end)
                if spans_path.exists():
                    tracer.merge(json.loads(spans_path.read_text()), parent)
                    spans_path.unlink()
            ops.append(op)
        return ops

    def peak_rss_mb(self) -> float:
        return self.peak_kib / 1024  # ru_maxrss counts KiB

    # -- checks ---------------------------------------------------------

    def _read_inputs(self):
        """The simulated panel and sector map, read with the benchmark's own parser."""
        with open(self.dir / "panel.csv", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n").split(",")
            rows = [line.rstrip("\n").split(",") for line in fh]
        values = np.array([[float(c) for c in row[1:]] for row in rows])
        with open(self.dir / "sectors.csv", encoding="utf-8") as fh:
            sector_rows = list(csv.reader(fh))[1:]
        return header, [row[0] for row in rows], values, sector_rows

    def check_round(self, ops: list[Op]) -> None:
        by_name = {op.name: op for op in ops}
        if self.expected is None:
            generated, _ = synth.generate(self.spec, seed=self.seed)
            self.expected = generated
        doc = {}

        def check(op: Op) -> None:
            getattr(self, f"_check_{op.name}")(op, doc)

        # simulate's outputs are the inputs of every later command.
        _check_each([by_name["simulate"]], check)
        if by_name["simulate"].error or by_name["simulate"].check_error:
            for op in ops[1:]:
                if op.error is None:
                    op.check_error = "inputs from simulate are wrong"
            return
        _check_each(ops[1:], check)

    def _check_simulate(self, op: Op, doc: dict) -> None:
        ref = self.expected
        header, dates, values, sector_rows = self._read_inputs()
        expect(header == ["date", *ref.assets], "panel header differs from the generated assets")
        expect(dates == list(ref.dates), "panel dates differ from the generated dates")
        expect(values.shape == ref.values.shape, f"panel shape {values.shape}")
        expect(
            np.array_equal(values.view(np.int64), ref.values.view(np.int64)),
            "panel values differ from the generated panel in some bit",
        )
        sizes = [s.size for s in self.spec.sectors]
        names = [s.name for s in self.spec.sectors for _ in range(s.size)]
        expect([r[0] for r in sector_rows] == list(ref.assets), "sector map assets differ")
        expect([r[1] for r in sector_rows] == names, "sector map sectors differ")
        if self.reference is None:
            self.reference = Reference(values, contiguous_groups(sizes))

    def _check_fit(self, op: Op, doc: dict) -> None:
        ref = self.reference
        with open(self.dir / "model" / "model.json", encoding="utf-8") as fh:
            doc["model"] = json.load(fh)
        entries = doc["model"]["spectrum"]
        eig = np.array([e["eigenvalue"] for e in entries])
        expect_spectrum_props(eig, ref.n, "fit spectrum")
        expect_close(eig, ref.hpca, "fit spectrum vs dense hierarchical oracle")
        expect(_count_multi(e["label"] for e in entries) == ref.b, "fit: multi-sector label count")
        with open(self.dir / "model" / "eigenvectors.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        expect(rows[0] == ["asset"] + [f"EV{k + 1}" for k in range(VECTORS)], "vector table header")
        expect([r[0] for r in rows[1:]] == list(self.expected.assets), "vector table assets")
        vectors = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
        h = ref.hierarchical_matrix
        for k in range(VECTORS):
            v = vectors[:, k]
            expect(abs(float(np.linalg.norm(v)) - 1.0) <= 1e-10, f"EV{k + 1} is not unit norm")
            err = float(np.linalg.norm(h @ v - eig[k] * v))
            expect(err <= 1e-8 * max(1.0, eig[0]), f"EV{k + 1}: |Hv - lambda v| = {err:.3g}")

    def _check_spectrum(self, op: Op, doc: dict) -> None:
        lines = op.out["stdout"].splitlines()
        expect(lines[0] == "rank\teigenvalue\tlabel", "spectrum header")
        expect(len(lines) == TOP + 1, f"spectrum printed {len(lines) - 1} rows, not {TOP}")
        entries = doc["model"]["spectrum"]
        for k, line in enumerate(lines[1:]):
            rank, value, label = line.split("\t")
            expect(int(rank) == k + 1, f"spectrum rank {rank} on row {k + 1}")
            expect(float(value) == entries[k]["eigenvalue"], f"spectrum row {k + 1} value")
            expect(label == entries[k]["label"], f"spectrum row {k + 1} label")

    def _check_compare(self, op: Op, doc: dict) -> None:
        ref = self.reference
        rep = json.loads(op.out["stdout"])
        expect(rep["n_assets"] == ref.n, "compare: n_assets")
        expect(len(rep["rows"]) == TOP, f"compare: {len(rep['rows'])} rows")
        expect_spectrum_props(rep["pca_eigenvalues"], ref.n, "compare pca")
        expect_spectrum_props(rep["hpca_eigenvalues"], ref.n, "compare hpca")
        expect_close(rep["pca_eigenvalues"], ref.pca, "compare pca vs eigvalsh(corrcoef)")
        expect_close(rep["hpca_eigenvalues"], ref.hpca, "compare hpca vs dense oracle")
        expect(_count_multi(rep["hpca_labels"]) == ref.b, "compare: multi-sector label count")

    def _check_residuals(self, op: Op, method: str) -> None:
        ref = self.reference
        fields = dict(tok.split("=", 1) for tok in op.out["stdout"].split() if "=" in tok)
        expect(fields["method"] == method, f"residuals: method {fields['method']}")
        expect(int(fields["m"]) == ref.cutoff[method], f"residuals: m={fields['m']}, oracle {ref.cutoff[method]}")
        upper = float(fields["mp_upper"])
        expect(abs(upper - ref.edge) <= 1e-12 * ref.edge, f"mp_upper {upper!r} != {ref.edge!r}")
        expected = ref.residuals[method]
        expect_close([float(fields["leading_eigenvalue"])], expected[:1], "residual leading eigenvalue")
        expect(
            int(fields["count_above_threshold"]) == int((expected > ref.edge).sum()),
            "residuals: count above the noise edge",
        )

    def _check_residuals_hpca(self, op: Op, doc: dict) -> None:
        ref = self.reference
        self._check_residuals(op, "hpca")
        with open(self.dir / "resid" / "eigenvalues.csv", encoding="utf-8") as fh:
            eig = np.array([float(r[1]) for r in list(csv.reader(fh))[1:]])
        expect_close(eig, ref.residuals["hpca"], "residual spectrum vs oracle")
        with open(self.dir / "resid" / "histogram.csv", encoding="utf-8") as fh:
            counts = [int(r[2]) for r in list(csv.reader(fh))[1:]]
        expect(sum(counts) == ref.n, f"histogram counts sum to {sum(counts)}, not {ref.n}")

    def _check_residuals_pca(self, op: Op, doc: dict) -> None:
        self._check_residuals(op, "pca")

    def finish(self, ops: list[Op]) -> None:
        """Every check of this workload runs right after its round."""


class _InProcess:
    """A 4x market generated in this process, with the panel kept in memory."""

    in_process = True

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick
        self.spec = market(1 if quick else SCALE_4X, 600 if quick else 2 * PAPER_PERIODS, seed)
        self.groups = contiguous_groups([s.size for s in self.spec.sectors])

    def describe(self) -> str:
        s = self.spec
        scale = 1 if self.quick else SCALE_4X
        return (f"n={s.n_assets} T={s.n_periods} b={s.n_sectors} "
                f"spec=default_market_spec x{scale} sizes seed={self.seed}")

    def setup(self) -> None:
        self.raw, truth = synth.generate(self.spec, seed=self.seed)
        self.partition = truth.partition

    def _timed(self, name: str, body) -> Op:
        op = Op(name)
        start = time.perf_counter()
        try:
            body(op)
        except Exception:  # a failed operation is counted, and the loop goes on
            op.error = traceback.format_exc(limit=3)
        op.seconds = time.perf_counter() - start - op.check_seconds
        return op


def _max_factor_correlation(residuals: np.ndarray, factors: np.ndarray) -> float:
    """Largest |sample correlation| between a residual column and a factor."""
    fc = factors - factors.mean(axis=0)
    r_norm = np.sqrt(np.einsum("ij,ij->j", residuals, residuals))
    f_norm = np.sqrt(np.einsum("ij,ij->j", fc, fc))
    live = r_norm > 0
    corr = (residuals.T @ fc)[live] / np.outer(r_norm[live], f_norm)
    return float(np.abs(corr).max()) if corr.size else 0.0


class Analysis4x(_InProcess):
    """One pass of the paper's analysis on the in-memory 4x panel."""

    name = "analysis-4x"

    def _pass(self, op: Op) -> None:
        std = panel.standardize(self.raw)
        fitted = model.fit_hpca(std, self.partition)
        pca = eigen.sym_eig_sorted(panel.correlation(std).values)
        rep = report.build_comparison(pca, fitted.spectrum, std.assets, top_k=TOP)
        ref = rmt.mp_density(std.n_assets, std.n_periods)
        out = op.out
        out.update(
            pca=pca.eigenvalues, hpca=fitted.spectrum.eigenvalues,
            labels=[label.describe() for label in fitted.spectrum.labels],
            rows=len(rep.rows), delta=rep.rank_one_delta, upper=ref.lambda_plus,
        )
        for method, spectrum in (("hpca", fitted.spectrum), ("pca", pca)):
            m = int((spectrum.eigenvalues > ref.lambda_plus).sum())
            factors = model.eigenportfolio_series(
                std.values, spectrum.eigenvalues, spectrum.eigenvectors, m
            )
            residuals = rmt.defactor(std, factors, model_type=method)
            diag = rmt.residual_spectrum(residuals, ref)
            c0 = time.perf_counter()
            out[method + "_ortho"] = _max_factor_correlation(residuals.values, factors)
            op.check_seconds += time.perf_counter() - c0
            out[method + "_m"] = m
            out[method + "_resid"] = diag.eigenvalues
            out[method + "_hist"] = int(diag.hist_counts.sum())
            del residuals, factors

    def run_round(self, tracer) -> list[Op]:
        return [self._timed("pass", self._pass)]

    def check_round(self, ops: list[Op]) -> None:
        n, b = self.spec.n_assets, self.spec.n_sectors

        def check(op: Op) -> None:
            out = op.out
            expect_spectrum_props(out["pca"], n, "pca spectrum")
            expect_spectrum_props(out["hpca"], n, "hpca spectrum")
            expect(_count_multi(out["labels"]) == b, "multi-sector label count")
            expect(out["rows"] == TOP, "comparison rows")
            edge = noise_edge(n, self.spec.n_periods)
            expect(abs(out["upper"] - edge) <= 1e-12 * edge, f"mp_upper {out['upper']!r} != {edge!r}")
            for method in ("hpca", "pca"):
                expect(out[method + "_hist"] == n, f"{method}: histogram counts sum to {out[method + '_hist']}")
                expect(out[method + "_ortho"] <= 1e-8, f"{method}: residual-factor correlation {out[method + '_ortho']:.3g}")

        _check_each(ops, check)

    def finish(self, ops: list[Op]) -> None:
        ref = Reference(self.raw.values, self.groups)

        def check(op: Op) -> None:
            out = op.out
            expect_close(out["pca"], ref.pca, "pca vs eigvalsh(corrcoef)")
            expect_close(out["hpca"], ref.hpca, "hpca vs dense hierarchical oracle")
            expect_close([out["delta"]], [(ref.pca[0] - ref.hpca[0]) / ref.n], "rank-one delta")
            for method in ("hpca", "pca"):
                expect(out[method + "_m"] == ref.cutoff[method], f"{method}: cutoff {out[method + '_m']}")
                expect_close(out[method + "_resid"], ref.residuals[method], f"{method} residual spectrum")

        _check_each(ops, check)


class Rolling4x(_InProcess):
    """Rolling-window refits of the hierarchical model on the 4x panel."""

    name = "rolling-4x"

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.window, self.step = (300, 150) if quick else (1000, 250)
        t = self.spec.n_periods
        self.starts = list(range(0, t - self.window + 1, self.step))

    def describe(self) -> str:
        return (f"{super().describe()} window={self.window} step={self.step} "
                f"windows={len(self.starts)}")

    def setup(self) -> None:
        super().setup()
        raw = self.raw
        self.windows = [
            panel.ReturnsPanel(
                dates=raw.dates[a : a + self.window], assets=raw.assets,
                values=raw.values[a : a + self.window],
            )
            for a in self.starts
        ]

    def run_round(self, tracer) -> list[Op]:
        ops = []
        for k, window in enumerate(self.windows):
            def refit(op: Op, window=window, k=k) -> None:
                std = panel.standardize(window)
                fitted = model.fit_hpca(std, self.partition)
                op.out.update(
                    window=k, hpca=fitted.spectrum.eigenvalues,
                    labels=[label.describe() for label in fitted.spectrum.labels],
                )
            ops.append(self._timed("refit", refit))
        return ops

    def check_round(self, ops: list[Op]) -> None:
        n, b = self.spec.n_assets, self.spec.n_sectors

        keep = {0, len(self.starts) - 1}

        def check(op: Op) -> None:
            out = op.out
            expect_spectrum_props(out["hpca"], n, f"window {out['window']} spectrum")
            expect(_count_multi(out.pop("labels")) == b, "multi-sector label count")
            if out["window"] not in keep:
                del out["hpca"]

        _check_each(ops, check)

    def finish(self, ops: list[Op]) -> None:
        last = len(self.starts) - 1
        oracles = {
            k: hierarchical_eigenvalues(self.windows[k].values, self.groups) for k in (0, last)
        }

        def check(op: Op) -> None:
            k = op.out["window"]
            if "hpca" in op.out:
                expect_close(op.out["hpca"], oracles[k], f"window {k} vs dense hierarchical oracle")

        _check_each(ops, check)


def make(name: str, seed: int, quick: bool, workdir: Path):
    if name == CliPaper.name:
        return CliPaper(seed, quick, workdir)
    if name == Analysis4x.name:
        return Analysis4x(seed, quick)
    if name == Rolling4x.name:
        return Rolling4x(seed, quick)
    raise ValueError(f"unknown workload {name!r}")
