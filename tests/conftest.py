"""Set up the environment that the ``python -m hpca`` child processes tests start inherit.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; child
processes see only the environment, so ``src`` is prepended to their
``PYTHONPATH`` as well. ``XDG_CACHE_HOME`` points at a directory made for
the run, so panel cache entries never reach the user's home.
"""

import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import pytest

CACHE_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    src = str(Path(__file__).resolve().parents[1] / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )
    cache_home = tempfile.mkdtemp(prefix="hpca-cache-")
    os.environ["XDG_CACHE_HOME"] = config.stash[CACHE_HOME] = cache_home


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[CACHE_HOME], ignore_errors=True)


@pytest.fixture()
def started(monkeypatch):
    """Every process started during the test, through a recording ``Popen``;
    the host counts as having two usable cores, so a large panel is written
    with ``write_panel``'s helper."""
    from hpca import panel

    procs = []

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recording)
    monkeypatch.setattr(panel, "_usable_cores", lambda: 2)
    return procs
