"""Command-line interface.

Subcommands:
    fit        fit the hierarchical model and export it to a directory
    spectrum   print the labeled eigenvalue table of an exported model
    compare    plain-vs-hierarchical spectrum comparison for a panel
    residuals  defactor a panel and diagnose the residual spectrum
    simulate   generate a synthetic panel from a market spec

Exit codes: 0 success, 1 input error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .eigen import sym_eig_sorted
from .errors import InputError, NumericalError
from .model import (
    eigenportfolio_series,
    fit_hpca,
    load_model_dict,
    save_model,
)
from .panel import _dump_json, _write_rows, correlation, load_panel, standardize, write_panel
from .report import build_comparison, render_text, report_to_dict
from .rmt import mp_density, residual_spectrum, defactor
from .sectors import SectorPartition, load_sector_map
from .synth import generate, load_market_spec, sector_map_for

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """argparse type for a non-negative integer option."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _load_inputs(panel_path: str, sectors_path: str):
    panel = load_panel(panel_path)
    mapping = load_sector_map(sectors_path)
    partition = SectorPartition.from_mapping(panel.assets, mapping)
    return standardize(panel), partition


def _cmd_fit(args) -> None:
    panel, partition = _load_inputs(args.panel, args.sectors)
    model = fit_hpca(panel, partition)
    path = save_model(
        model, args.out, include_matrix=args.dense, vectors=args.vectors
    )
    print(f"wrote {path}")
    print(
        f"assets={model.n_assets} sectors={partition.n_sectors} "
        f"periods={panel.n_periods} dropped_rows={panel.dropped_rows}"
    )


def _cmd_spectrum(args) -> None:
    doc = load_model_dict(args.model)
    try:
        rows = [(entry["eigenvalue"], entry["label"]) for entry in doc["spectrum"]]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed model file: no valid spectrum ({exc!r})") from None
    print("rank\teigenvalue\tlabel")
    for rank, (value, label) in enumerate(rows[: args.top], start=1):
        print(f"{rank}\t{value!r}\t{label}")


def _cmd_compare(args) -> None:
    panel, partition = _load_inputs(args.panel, args.sectors)
    pca = sym_eig_sorted(correlation(panel).values)
    model = fit_hpca(panel, partition)
    report = build_comparison(pca, model.spectrum, panel.assets, top_k=args.top)
    if args.json:
        _dump_json(report_to_dict(report), sys.stdout)
    else:
        sys.stdout.write(render_text(report))


def _cmd_residuals(args) -> None:
    panel, partition = _load_inputs(args.panel, args.sectors)
    n, t = panel.n_assets, panel.n_periods
    ref = mp_density(n, t)

    if args.method == "pca":
        spectrum = sym_eig_sorted(correlation(panel).values)
    else:
        spectrum = fit_hpca(panel, partition).spectrum
    eigenvalues = spectrum.eigenvalues
    cutoff = (
        int((eigenvalues > ref.lambda_plus).sum()) if args.m is None else args.m
    )
    factors = eigenportfolio_series(
        panel.values, eigenvalues, spectrum.vectors(cutoff), cutoff
    )
    residuals = defactor(panel, factors, model_type=args.method)
    rep = residual_spectrum(residuals, ref)

    print(f"method={args.method} m={cutoff} n={n} T={t}")
    print(f"mp_lower={ref.lambda_minus!r} mp_upper={ref.lambda_plus!r}")
    print(f"leading_eigenvalue={rep.leading_eigenvalue!r}")
    print(f"leading_share={rep.leading_share!r}")
    print(f"count_above_threshold={rep.count_above_threshold}")
    print(f"mean_offdiag_correlation={rep.mean_offdiag_correlation!r}")
    if residuals.degenerate:
        print(f"degenerate_columns={','.join(residuals.degenerate)}")

    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        # ``csv`` writes each float as its shortest ``repr``.
        edges = rep.hist_edges.tolist()
        _write_rows(
            out / "eigenvalues.csv",
            ["rank", "eigenvalue"],
            enumerate(rep.eigenvalues.tolist(), start=1),
        )
        _write_rows(
            out / "histogram.csv",
            ["bin_left", "bin_right", "count"],
            zip(edges[:-1], edges[1:], rep.hist_counts.tolist()),
        )
        _write_rows(
            out / "mp_density.csv",
            ["eigenvalue", "density"],
            zip(ref.grid.tolist(), ref.density.tolist()),
        )
        print(f"wrote tables to {out}")


def _cmd_simulate(args) -> None:
    spec = load_market_spec(args.spec)
    panel, _ = generate(spec, seed=args.seed)
    write_panel(panel, args.out)
    print(f"wrote {args.out} ({panel.n_periods} x {panel.n_assets})")
    if args.sectors_out is not None:
        # The map is built in the panel's asset order.
        _write_rows(args.sectors_out, ["asset", "sector"], sector_map_for(spec).items())
        print(f"wrote {args.sectors_out}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hpca",
        description="Hierarchical PCA factor models and residual diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--panel", required=True, help="return panel file (CSV/TSV)")
    inputs.add_argument("--sectors", required=True, help="asset,sector map file")

    fit = sub.add_parser(
        "fit", parents=[inputs], help="fit the hierarchical model and export it"
    )
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--dense", action="store_true", help="include the dense matrix")
    fit.add_argument(
        "--vectors", type=_count, default=0, metavar="K",
        help="also export the top K eigenvectors as CSV",
    )
    fit.set_defaults(func=_cmd_fit)

    spectrum = sub.add_parser("spectrum", help="print the labeled eigenvalue table")
    spectrum.add_argument("--model", required=True, help="directory written by fit")
    spectrum.add_argument("--top", type=_count, default=None, metavar="K")
    spectrum.set_defaults(func=_cmd_spectrum)

    compare = sub.add_parser(
        "compare", parents=[inputs], help="plain vs hierarchical spectra"
    )
    compare.add_argument("--top", type=_count, default=25, metavar="K")
    compare.add_argument("--json", action="store_true", help="emit JSON instead of text")
    compare.set_defaults(func=_cmd_compare)

    residuals = sub.add_parser(
        "residuals", parents=[inputs], help="residual spectrum vs noise bounds"
    )
    residuals.add_argument("--method", choices=("pca", "hpca"), required=True)
    residuals.add_argument(
        "--m", type=_count, default=None,
        help="factor cutoff (default: count of eigenvalues above the noise edge)",
    )
    residuals.add_argument("--out", default=None, help="directory for plot-ready tables")
    residuals.set_defaults(func=_cmd_residuals)

    simulate = sub.add_parser("simulate", help="generate a synthetic panel")
    simulate.add_argument("--spec", required=True, help="market spec JSON file")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--out", required=True, help="panel file to write")
    simulate.add_argument(
        "--sectors-out", default=None, help="also write the matching sector map"
    )
    simulate.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
