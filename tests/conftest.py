"""Make ``src`` importable by the ``python -m hpca`` child processes tests start.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; child
processes see only the environment, so ``src`` is prepended to their
``PYTHONPATH`` as well.
"""

import os
from pathlib import Path


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
