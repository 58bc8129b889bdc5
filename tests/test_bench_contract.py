"""The benchmark's tracer reads the package's function names and argument
names; a rename must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from bectube import manybody as mb

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooked_functions_exist():
    for name in _tracer().HOOKS:
        layer, func = name.split(".")
        module = importlib.import_module(f"bectube.{layer}")
        assert inspect.isfunction(getattr(module, func, None)), name


def test_lanczos_hook_reads_bound_arguments():
    tracer = _tracer()
    H = sp.diags(np.arange(1.0, 6.0)).tocsr()
    v = np.ones(5, dtype=complex)
    bound = inspect.signature(mb.lanczos_expm_apply).bind(H, v, 0.1)
    bound.apply_defaults()
    result = mb.lanczos_expm_apply(*bound.args, **bound.kwargs)
    counters = {}
    tracer.HOOKS["manybody.lanczos_expm_apply"](counters, bound.arguments,
                                                result)
    assert counters["manybody.krylov_bytes_computed"] == 41 * v.nbytes
    assert counters["manybody.krylov_dims"] == [5]
