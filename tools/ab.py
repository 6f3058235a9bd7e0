"""Run the benchmark on two trees in alternating pairs and summarize every metric.

Usage: python3 tools/ab.py BASE [HEAD] --out FILE [--workload NAME ...]
                           [--seed N] [--pairs N] [--seconds S] [--quick]

BASE and HEAD are git refs; without HEAD the head side is the working tree,
uncommitted and untracked (not ignored) files included. Each side's ``src``,
``perfbench`` and ``BENCHMARK.json`` are extracted into a temporary
directory, by ``git archive`` for a ref, and each side runs its own
``perfbench/run.py --trace 0``, so neither benchmark is edited. Both sides
share one empty ``XDG_CACHE_HOME`` in that directory. Pair i runs both
sides, the base first in even pairs and the head first in odd ones, and
the last JSON line of every run is kept. The workloads default to those
the head's BENCHMARK.json declares.

FILE (by convention ``BENCH_<n>.json``) has the keys ``machine``,
``blas_threads``, ``src_hpca_lines`` (of each side), ``command``, ``runs``
and ``summary``. For each workload and end-to-end metric, the summary gives
each side's median and quartiles (``statistics.quantiles``, inclusive), the
median of the paired differences head - base, that difference over the
base's interquartile range, the relative change of the medians, and in how
many pairs the head was lower.

The tool applies no threshold. The rule its numbers serve: a claimed gain
holds when the head is better in at least 9 of 10 pairs and the two medians
differ by more than the base's interquartile range; a metric regresses when
the head's median is worse than the base's by more than the metric's
``bound``, a fraction, in BENCHMARK.json. Standard library only.
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PATHS = ["src", "perfbench", "BENCHMARK.json"]
SIDES = ("base", "head")


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], check=True, capture_output=True, **kwargs)


def extract(ref: str | None, dest: Path) -> str:
    """Put a tree's benchmark files under ``dest``; return its commit, or a work-tree note."""
    dest.mkdir()
    if ref is None:
        top = Path(git("rev-parse", "--show-toplevel", text=True).stdout.strip())
        files = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", *PATHS,
                    cwd=top, text=True).stdout.split("\0")
        for name in filter(None, files):
            if (top / name).is_file():  # a tracked file deleted in the work tree is left out
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(top / name, dest / name)
        return "working tree on " + git("rev-parse", "HEAD", text=True).stdout.strip()
    commit = git("rev-parse", "--verify", f"{ref}^{{commit}}", text=True).stdout.strip()
    archive = git("archive", "--format=tar", commit, *PATHS).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def hpca_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (tree / "src" / "hpca").rglob("*.py"))


def run_once(tree: Path, argv: list[str], env: dict) -> tuple[dict, str, float]:
    """One benchmark run: its last JSON line, its machine line and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    results = [line for line in lines if line.startswith("{")]
    if proc.returncode or not results:
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode}:\n"
                 + "\n".join((proc.stdout + proc.stderr).splitlines()[-20:]))
    machine = next((line for line in lines if line.startswith("machine: ")), "")
    return json.loads(results[-1]), machine, wall


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and metric, the numbers the claim and regression rules read."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        pairs = {}
        for run in runs:
            if run["workload"] == workload:
                pairs.setdefault(run["pair"], {})[run["side"]] = run["result"]
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        entry = {side: {"correct": all(p[side]["correct"] for p in pairs),
                        "failed": sum(p[side]["failed"] for p in pairs),
                        "attempted": sum(p[side]["attempted"] for p in pairs)}
                 for side in SIDES}
        for metric in metrics:
            name = metric["name"]
            base, head = ([p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES)
            spread = {side: quartiles(values) for side, values in zip(SIDES, (base, head))}
            diff = statistics.median(h - b for b, h in zip(base, head))
            iqr = spread["base"]["iqr"]
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **spread,
                "median_paired_diff": diff,
                "diff_over_base_iqr": diff / iqr if iqr else None,
                "relative_change_of_medians": (
                    spread["head"]["median"] / spread["base"]["median"] - 1.0
                    if spread["base"]["median"] else None
                ),
                "head_lower": sum(h < b for b, h in zip(base, head)),
                "pairs": len(pairs),
            }
        summary[workload] = entry
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref of the base tree")
    parser.add_argument("head", nargs="?", help="git ref of the head tree (default: work tree)")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--workload", nargs="+", help="default: the head's BENCHMARK.json ones")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--quick", action="store_true", help="shrink every input (run.py --quick)")
    return parser.parse_args(argv)


def main(argv=None) -> None:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="hpca-ab-") as tmp:
        trees = {side: Path(tmp, side) for side in SIDES}
        refs = {side: extract(ref, trees[side]) for side, ref in zip(SIDES, (args.base, args.head))}
        definition = json.loads((trees["head"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        workloads = args.workload or [w["name"] for w in definition["workloads"]]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["XDG_CACHE_HOME"] = str(Path(tmp, "cache"))
        runs, machine = [], ""
        for workload in workloads:
            run_argv = ["perfbench/run.py", "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0"] + ["--quick"] * args.quick
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result, machine, wall = run_once(trees[side], run_argv, env)
                    runs.append({"workload": workload, "pair": pair, "side": side,
                                 "first": position == 0, "wall_s": wall, "result": result})
                    values = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                    print(f"{workload} pair {pair + 1}/{args.pairs} {side}: {values}",
                          file=sys.stderr)
        threads = re.search(r"blas_threads=(\d+)", machine)
        doc = {
            # run.py's machine line, less the line count, which differs by side.
            "machine": re.sub(r" ?src_hpca_lines=\d+", "", machine.removeprefix("machine: ")),
            "blas_threads": int(threads[1]) if threads else None,
            "src_hpca_lines": {side: hpca_lines(trees[side]) for side in SIDES},
            "command": {
                "tool": " ".join(["python3", "tools/ab.py", *(argv or sys.argv[1:])]),
                "run": " ".join(["python3", *run_argv]),
                **refs,
            },
            "runs": runs,
            "summary": summarize(runs, definition["end_to_end"]),
        }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}: {len(runs)} runs", file=sys.stderr)


if __name__ == "__main__":
    main()
