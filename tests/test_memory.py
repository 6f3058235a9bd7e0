"""Traced memory high-water of the n x n and T x n hot paths.

numpy reports every array allocation to ``tracemalloc``, so the traced peak
above the starting level counts the result plus every temporary made on the
way. Each bound sits half an array of the result's size above what the call
must hold (the result, and for the eigensolve also ``eigh``'s own output),
so one more full-size temporary breaks it.
"""

import tracemalloc

import numpy as np

from hpca.eigen import sym_eig_sorted
from hpca.panel import SPLIT_VALUES, ReturnsPanel, _gram_correlation, standardize, write_panel
from hpca.rmt import defactor
from hpca.synth import default_market_spec, generate

T, N = 2000, 300


def traced_peak(fn, *args):
    """Bytes allocated at the high-water mark of ``fn(*args)``, result included."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_defactor_makes_no_second_panel():
    rng = np.random.default_rng(1)
    panel = standardize(
        ReturnsPanel(
            dates=tuple(f"d{i}" for i in range(T)),
            assets=tuple(f"A{i}" for i in range(N)),
            values=rng.standard_normal((T, N)),
        )
    )
    factors = rng.standard_normal((T, 10))
    assert traced_peak(defactor, panel, factors) <= 1.5 * T * N * 8


def test_gram_correlation_makes_no_second_matrix():
    x = np.random.default_rng(2).standard_normal((T, N))
    assert traced_peak(_gram_correlation, x, T - 1) <= 1.5 * N * N * 8


def test_sym_eig_sorted_does_not_copy_a_symmetric_input():
    c = _gram_correlation(np.random.default_rng(3).standard_normal((T, N)), T - 1)
    assert traced_peak(sym_eig_sorted, c) <= 2.5 * N * N * 8


def test_generate_holds_one_panel():
    spec = default_market_spec(n_periods=T)
    assert traced_peak(generate, spec) <= 1.5 * T * spec.n_assets * 8


def test_write_panel_holds_no_panel_of_text(tmp_path):
    # Below SPLIT_VALUES every row is formatted in this process.
    t = SPLIT_VALUES // N - 1
    panel = ReturnsPanel(
        dates=tuple(f"d{i}" for i in range(t)),
        assets=tuple(f"A{i}" for i in range(N)),
        values=np.random.default_rng(4).standard_normal((t, N)),
    )
    assert traced_peak(write_panel, panel, tmp_path / "panel.csv") < panel.values.nbytes


def test_write_panel_holds_none_of_the_helpers_text(tmp_path, started):
    # The helper formats the second half into a file, read back in chunks.
    t = 2 * SPLIT_VALUES // N
    panel = ReturnsPanel(
        dates=tuple(f"d{i}" for i in range(t)),
        assets=tuple(f"A{i}" for i in range(N)),
        values=np.random.default_rng(5).standard_normal((t, N)),
    )
    peak = traced_peak(write_panel, panel, tmp_path / "panel.csv")
    assert [proc.returncode for proc in started] == [0]
    assert peak < panel.values.nbytes
