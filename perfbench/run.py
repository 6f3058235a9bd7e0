"""Benchmark for hpca: times its CLI and library from outside, checks every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cli-paper --seed 1 --seconds 20 --trace 0

Workloads are ``cli-paper``, ``analysis-4x`` and ``rolling-4x`` (see
perfbench/README.md). With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it has the per-layer metrics, taken from spans recorded around
each hpca module's public functions, and the spans are written to
perfbench/out/. ``--quick`` shrinks every input, for the benchmark's own test.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 5
MIB = 2**20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Pin BLAS to one thread per available core, before numpy loads.

    The variables are inherited by every subprocess the benchmark starts.
    """
    count = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(count)
    return count


class RssSampler:
    """Highest resident set size of this process, sampled every millisecond.

    Unlike ``ru_maxrss``, which keeps the high-water mark of the whole
    process, this covers only the interval it is entered for.
    """

    def __init__(self):
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        page = os.sysconf("SC_PAGE_SIZE")
        fd = os.open("/proc/self/statm", os.O_RDONLY)
        try:
            while True:
                self.peak = max(self.peak, int(os.pread(fd, 128, 0).split()[1]) * page)
                if self._stop.wait(0.001):
                    break
        finally:
            os.close(fd)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def machine_facts(np, blas_threads: int) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in (SRC / "hpca").rglob("*.py")
    )
    return (
        f"machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
        f"blas_threads={blas_threads} python={sys.version.split()[0]} "
        f"numpy={np.__version__} blas={blas_desc} src_hpca_lines={src_lines}"
    )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _tail(values) -> str:
    """The highest of p99/p95/p90/p75 with ten samples beyond it, given 40 or more."""
    values = sorted(values)
    if len(values) < 40:
        return ""
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            cut = statistics.quantiles(values, n=100)[q - 1]
            return f" p{q}={cut:.6f}"
    return ""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark the hpca CLI and library.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="shrink every input (for tests)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = pin_blas_threads()
    if not (SRC / "hpca" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: run from a checkout holding src/hpca and BENCHMARK.json ({ROOT})",
              file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import_start = time.perf_counter_ns()
    import hpca
    import_end = time.perf_counter_ns()
    if Path(hpca.__file__).resolve().parent != SRC / "hpca":
        print(f"error: imported hpca from {hpca.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _run(args, definition, blas_threads, (import_start, import_end), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, definition, blas_threads, import_span, workdir) -> int:
    import hpca
    import numpy as np
    import workloads
    from spans import Tracer, instrument, layer_metrics

    wl = workloads.make(args.workload, args.seed, args.quick, workdir)
    print(machine_facts(np, blas_threads))
    print(f"workload {wl.name}: {wl.describe()} trace={args.trace}")

    tracer = None
    if args.trace:
        tracer = Tracer(wl.spec.n_assets)
        tracer.add("cli.import", *import_span)
        instrument(tracer, hpca)

    setup_times = []
    for _ in range(SETUPS):
        root = tracer.open("setup") if tracer else None
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
        if tracer:
            tracer.close(root)

    # Closed loop, one caller. A traced run alternates untraced and traced
    # rounds, so that the difference is the tracing overhead.
    rounds: list[tuple[bool, list]] = []
    sampler = RssSampler() if wl.in_process else None
    start = time.perf_counter()
    with sampler or contextlib.nullcontext():
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if tracer:
                tracer.round, tracer.active = len(rounds), traced
                root = tracer.open("round") if traced else None
            ops = wl.run_round(tracer if traced else None)
            if tracer:
                if traced:
                    tracer.close(root)
                tracer.active = False
            wl.check_round(ops)
            rounds.append((traced, ops))
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds and (tracer is None or len(rounds) >= 2):
                break
    all_ops = [op for _, ops in rounds for op in ops]
    wl.finish(all_ops)

    plain = [ops for traced, ops in rounds if not traced]
    done = [op for ops in plain for op in ops if op.error is None]
    round_times = [sum(op.seconds for op in ops) for ops in plain]
    values = {
        "setup_s": _median(setup_times),
        "round_s": _median(round_times),
        "peak_rss_mb": (sampler.peak / MIB) if sampler else wl.peak_rss_mb(),
    }

    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup_times)}")
    print(f"rounds: {len(plain)} untraced, {len(rounds) - len(plain)} traced, "
          f"{elapsed:.1f} s measured")
    print(f"round_s samples: {' '.join(f'{t:.4f}' for t in round_times)}")
    for name in dict.fromkeys(op.name for op in done):
        times = [op.seconds for op in done if op.name == name]
        print(f"op {name}: median={_median(times):.6f} s over {len(times)}{_tail(times)} "
              f"rate={len(times) / sum(times):.4f}/s")

    if tracer:
        traced_rounds = [i for i, (traced, _) in enumerate(rounds) if traced]
        values.update(layer_metrics(tracer.spans, traced_rounds))
        for command in workloads.CliPaper.commands:
            values[f"cli.{command}_s"] = _median(op.seconds for op in done if op.name == command)
        traced_times = [sum(op.seconds for op in ops) for traced, ops in rounds if traced]
        values["trace.overhead_s"] = _median(traced_times) - _median(round_times)
        spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(tracer.spans), encoding="utf-8")
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    failed_ops = [op for op in all_ops if op.error or op.check_error]
    for op in failed_ops[:5]:
        print(f"failed {op.name}: {op.error or op.check_error}", file=sys.stderr)
    wanted = definition["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not any(op.check_error for op in all_ops),
        "attempted": len(all_ops),
        "failed": len(failed_ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
