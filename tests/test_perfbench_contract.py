"""The interface the benchmark in perfbench/ reads from peelcore.

perfbench/tracing.py is loaded from its file, not edited: a refactor that
renames a traced function or changes the kernel arrays fails here instead of
in a benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from peelcore import ensemble, kernels
from peelcore.ensemble import EnsembleParams

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_are_functions_of_their_modules():
    traced = _tracing().TRACED
    assert traced
    for layer, names in traced.items():
        mod = importlib.import_module(f"peelcore.{layer}")
        if names is None:
            names = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
            assert names, layer
        for name in names:
            # an lru_cache wrapper is traced like the function it wraps
            fn = inspect.unwrap(getattr(mod, name, None))
            assert inspect.isfunction(fn), f"{layer}.{name}"


@pytest.mark.parametrize("law", [
    lambda: kernels.w_exact((7, 9), 3, EnsembleParams(3, 20, 24)),
    lambda: kernels.w_hat((0.35, 0.45), 0.15, EnsembleParams(3, 20, 24)),
], ids=["w_exact", "w_hat"])
def test_kernel_arrays_have_the_benchmark_layout(law):
    keys, probs = law().arrays()
    assert keys.dtype == np.int64 and keys.ndim == 2 and keys.shape[1] == 2
    assert probs.dtype == np.float64 and probs.shape == (len(keys),)


def test_coefficient_row_cache_reports_its_size():
    assert isinstance(ensemble.log_coeff_rows.cache_info().currsize, int)
