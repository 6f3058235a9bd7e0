"""README.md's library example and the contracts its prose states."""

import dataclasses
import re
from pathlib import Path

import numpy as np

from hpca import (
    build_comparison,
    correlation,
    default_market_spec,
    defactor,
    fit_hpca,
    generate,
    mp_density,
    residual_spectrum,
    standardize,
    sym_eig_sorted,
)
from hpca.model import eigenportfolio_series, save_model
from hpca.panel import load_panel, write_panel

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def frozen(obj):
    """``obj``, with every array in it, its fields, lists and tuples set read-only."""
    if isinstance(obj, np.ndarray):
        obj.setflags(write=False)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            frozen(getattr(obj, field.name))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            frozen(item)
    return obj


def test_no_library_function_writes_into_an_array_it_is_given(tmp_path):
    # numpy refuses a write into a read-only array, so a function that
    # wrote into its input would raise here.
    panel, truth = frozen(generate(default_market_spec(n_periods=600), seed=3))
    std = frozen(standardize(panel))
    model = frozen(fit_hpca(std, truth.partition))
    pca = frozen(sym_eig_sorted(frozen(correlation(std)).values))
    frozen(build_comparison(pca, model.spectrum, std.assets, top_k=25))
    ref = frozen(mp_density(std.n_assets, std.n_periods))
    count = int((model.spectrum.eigenvalues > ref.lambda_plus).sum())
    assert count > 0 and not model.spectrum.eigenvectors.flags.writeable
    factors = frozen(
        eigenportfolio_series(std.values, model.spectrum.eigenvalues, model.spectrum.vectors(count), count)
    )
    residual_spectrum(frozen(defactor(std, factors)), ref)
    write_panel(panel, tmp_path / "panel.csv")
    save_model(model, tmp_path / "model", vectors=10)
    assert load_panel(tmp_path / "panel.csv").values.tobytes() == panel.values.tobytes()
