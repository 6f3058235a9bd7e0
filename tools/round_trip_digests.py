"""Print the SHA-256 of every output of the README round trip.

Usage: python3 tools/round_trip_digests.py SRC_DIR

Runs the README's command-line round trip on the default market at seed 7
with the ``hpca`` package under SRC_DIR (the ``src`` directory of a
checkout), in a temporary directory with its own ``XDG_CACHE_HOME``: once
with an empty panel cache ("cold") and once with the cache the first pass
left ("warm"). Run it on two trees and diff the output to check that a
change leaves every output byte-identical. Standard library only.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PANEL = ["--panel", "panel.csv", "--sectors", "sectors.csv"]
# (name of the stdout to digest or None, the hpca arguments)
COMMANDS = [
    (None, ["simulate", "--spec", "market.json", "--seed", "7", "--out", "panel.csv",
            "--sectors-out", "sectors.csv"]),
    (None, ["fit", *PANEL, "--out", "model", "--vectors", "10"]),
    ("spectrum --top 25", ["spectrum", "--model", "model", "--top", "25"]),
    ("compare --top 25", ["compare", *PANEL, "--top", "25"]),
    ("compare --top 25 --json", ["compare", *PANEL, "--top", "25", "--json"]),
    *((f"residuals --method {m}", ["residuals", *PANEL, "--method", m, "--m", "30",
                                   "--out", f"resid-{m}"]) for m in ("hpca", "pca")),
]
FILES = ["panel.csv", "sectors.csv", "model/model.json", "model/eigenvectors.csv"] + [
    f"resid-{m}/{table}.csv"
    for m in ("hpca", "pca") for table in ("eigenvalues", "histogram", "mp_density")
]


def round_trip(label: str, root: Path, env: dict) -> None:
    work = root / label
    work.mkdir()
    def run(*args):
        return subprocess.run([sys.executable, *args], cwd=work, env=env, check=True,
                              capture_output=True).stdout
    run("-c", "from hpca.synth import default_market_spec, save_market_spec; "
        "save_market_spec(default_market_spec(), 'market.json')")
    for name, args in COMMANDS:
        out = run("-m", "hpca", *args)
        if name:
            print(label, hashlib.sha256(out).hexdigest(), f"stdout of {name}")
    for name in FILES:
        print(label, hashlib.sha256((work / name).read_bytes()).hexdigest(), name)


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    src = Path(sys.argv[1]).resolve()
    with tempfile.TemporaryDirectory(prefix="hpca-digests-") as tmp:
        env = dict(os.environ, PYTHONPATH=str(src), XDG_CACHE_HOME=str(Path(tmp, "cache")))
        for label in ("cold", "warm"):
            round_trip(label, Path(tmp), env)
        entries = Path(tmp, "cache", "hpca", "panels")
        print("panel cache entries:", len(list(entries.iterdir())) if entries.is_dir() else 0)


if __name__ == "__main__":
    main()
