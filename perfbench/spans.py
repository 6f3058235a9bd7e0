"""Spans around the public functions of each hpca module, kept in memory.

A span is recorded where a call crosses from one module (or from the
benchmark) into another. A call that stays inside one module gets no span of
its own, so each span's self time is the work its module did before handing
off to the next one. Exact work counts are attached to the spans as
attributes, measured after the call returns so they cost the span nothing.
This module imports no numpy, so that the time ``import hpca`` takes can be
measured after it is loaded.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import os
import statistics
import time

LAYERS = ("panel", "eigen", "sectors", "model", "rmt", "report", "synth", "cli")
MIB = 2**20

# Per-layer metric -> span names whose self time, summed over a round, it reports.
ROUND_SELF_TIMES = {
    "panel.load_panel_s": ("panel.load_panel",),
    "panel.write_panel_s": ("panel.write_panel",),
    "panel.standardize_s": ("panel.standardize",),
    "panel.correlation_s": ("panel.correlation",),
    "eigen.sym_eig_sorted_s": ("eigen.sym_eig_sorted",),
    "sectors.fit_all_sectors_s": ("sectors.fit_all_sectors",),
    "sectors.load_sector_map_s": ("sectors.load_sector_map",),
    "model.fit_hpca_s": ("model.fit_hpca",),
    "model.save_model_s": ("model.save_model",),
    "rmt.defactor_s": ("rmt.defactor",),
    "rmt.residual_spectrum_s": ("rmt.residual_spectrum",),
    "report.build_comparison_s": ("report.build_comparison",),
    "report.render_s": ("report.render_text", "report.report_to_dict"),
    "cli.self_s": ("cli.main",),
}


class Tracer:
    """In-memory span recorder for one process.

    ``spans`` is a list of dicts; a span's id is its index and ``parent`` is
    the id of the span open when it started. ``round`` tags every span with
    the benchmark round it belongs to (None during set-up). Wrapped
    functions record nothing while ``active`` is false.
    """

    def __init__(self, n_assets: int):
        self.n_assets = n_assets
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.active = True
        self.round: int | None = None

    def open(self, name: str, layer: str | None = None) -> int:
        idx = len(self.spans)
        self.spans.append({
            "name": name, "layer": layer, "start": time.perf_counter_ns(), "end": None,
            "parent": self.stack[-1] if self.stack else None, "round": self.round, "attrs": {},
        })
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter_ns()
        self.stack.pop()

    def add(self, name: str, start: int, end: int, **attrs) -> int:
        """Record a span timed elsewhere, as a child of the open span."""
        idx = len(self.spans)
        self.spans.append({
            "name": name, "layer": None, "start": start, "end": end,
            "parent": self.stack[-1] if self.stack else None, "round": self.round, "attrs": attrs,
        })
        return idx

    def merge(self, spans: list[dict], parent: int) -> None:
        """Adopt spans recorded by another process under span ``parent``.

        Both processes time spans with the monotonic clock that
        ``perf_counter_ns`` reads, so the timelines line up.
        """
        offset = len(self.spans)
        for span in spans:
            span = dict(span, round=self.round)
            span["parent"] = parent if span["parent"] is None else span["parent"] + offset
            self.spans.append(span)


def _dense_bytes(obj, n: int, depth: int = 2) -> int:
    """Bytes of n x n arrays held by a dataclass and the dataclasses it holds."""
    total = 0
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if getattr(value, "shape", None) == (n, n):
            total += value.nbytes
        elif depth and dataclasses.is_dataclass(value):
            total += _dense_bytes(value, n, depth - 1)
    return total


def _path_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# Exact counts taken from a call's arguments and result, by span name.
MEASURES = {
    "eigen.sym_eig_sorted": lambda tr, args, kwargs, result: {
        "dense": int(len(_first(args, kwargs)) == tr.n_assets)
    },
    "panel.load_panel": lambda tr, args, kwargs, result: {
        "bytes": _path_bytes(_first(args, kwargs))
    },
    "model.save_model": lambda tr, args, kwargs, result: {"bytes": _path_bytes(result)},
    "model.fit_hpca": lambda tr, args, kwargs, result: {
        "dense_bytes": _dense_bytes(result, tr.n_assets)
    },
}


def _wrap(tracer: Tracer, layer: str, name: str, fn):
    measure = MEASURES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active or (
            tracer.stack and tracer.spans[tracer.stack[-1]]["layer"] == layer
        ):
            return fn(*args, **kwargs)
        idx = tracer.open(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            tracer.spans[idx]["attrs"].update(measure(tracer, args, kwargs, result))
        return result

    return traced


def instrument(tracer: Tracer, package) -> None:
    """Wrap every public function of each layer module of ``package``.

    Modules bind each other's functions by name at import time, so every
    reference to an original function, in the package and in each layer
    module, is replaced by its wrapper.
    """
    modules = [importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS]
    spaces = [package, *modules]
    for layer, module in zip(LAYERS, modules):
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != module.__name__:
                continue
            wrapped = _wrap(tracer, layer, f"{layer}.{attr}", fn)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is fn:
                        setattr(space, key, wrapped)


def self_times(spans: list[dict]) -> list[int]:
    """Each span's duration minus the durations of its direct children, in ns.

    Spans come from one caller at a time, so children never overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], rounds: list[int]) -> dict[str, float]:
    """Per-layer metrics over the traced ``rounds``.

    Self times and counts are per round, as the median over the traced
    rounds (0 where the layer does not run). ``synth.generate_s`` and
    ``cli.import_s`` are medians per call, since on the in-process
    workloads they run only before the rounds. ``model.dense_mb`` is per
    fitted model, computed from array sizes. A call that raised carries no
    counts.
    """
    own = self_times(spans)
    traced = set(rounds)
    sums = {metric: dict.fromkeys(rounds, 0) for metric in ROUND_SELF_TIMES}
    counts = {
        key: dict.fromkeys(rounds, 0)
        for key in ("eigen.solves", "eigen.dense_solves", "panel.bytes_read", "model.json_bytes")
    }
    generate, imports, dense = [], [], []
    by_name = {name: metric for metric, names in ROUND_SELF_TIMES.items() for name in names}
    for span, self_ns in zip(spans, own):
        name, rnd, attrs = span["name"], span["round"], span["attrs"]
        if name == "synth.generate":
            generate.append(self_ns)
        elif name == "cli.import":
            imports.append(self_ns)
        elif name == "model.fit_hpca":
            dense.append(attrs.get("dense_bytes", 0))
        if rnd not in traced:
            continue
        if name in by_name:
            sums[by_name[name]][rnd] += self_ns
        if name == "eigen.sym_eig_sorted":
            counts["eigen.solves"][rnd] += 1
            counts["eigen.dense_solves"][rnd] += attrs.get("dense", 0)
        elif name == "panel.load_panel":
            counts["panel.bytes_read"][rnd] += attrs.get("bytes", 0)
        elif name == "model.save_model":
            counts["model.json_bytes"][rnd] += attrs.get("bytes", 0)

    out = {m: statistics.median(v.values()) / 1e9 for m, v in sums.items()}
    out.update({m: statistics.median_low(v.values()) for m, v in counts.items()})
    out["synth.generate_s"] = statistics.median(generate) / 1e9 if generate else 0.0
    out["cli.import_s"] = statistics.median(imports) / 1e9 if imports else 0.0
    out["model.dense_mb"] = statistics.median(dense) / MIB if dense else 0.0
    return out
