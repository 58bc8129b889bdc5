"""The benchmark's tracer reads the package's function names and argument
names; a rename must fail here, not only in a traced benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import textwrap
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


def _arguments_read(hook):
    """Names n of every ``args["n"]`` the hook reads."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(hook)))
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "args"
            and isinstance(node.slice, ast.Constant)}


def test_hooks_read_only_real_parameters():
    for name, hook in _tracer().HOOKS.items():
        layer, func = name.split(".")
        module = importlib.import_module(f"bectube.{layer}")
        params = inspect.signature(getattr(module, func)).parameters
        missing = _arguments_read(hook) - set(params)
        assert not missing, f"{name} has no parameter {sorted(missing)}"


def test_lanczos_hook_reads_bound_arguments():
    tracer = _tracer()
    H = sp.diags(np.arange(1.0, 6.0)).tocsr()
    v = np.ones(5, dtype=complex)
    bound = inspect.signature(mb.lanczos_expm_apply).bind(H, v, [0.1],
                                                          kdim=40)
    bound.apply_defaults()
    result = mb.lanczos_expm_apply(*bound.args, **bound.kwargs)
    counters = {}
    tracer.HOOKS["manybody.lanczos_expm_apply"](counters, bound.arguments,
                                                result)
    assert counters["manybody.krylov_bytes_computed"] == 41 * v.nbytes
    assert counters["manybody.krylov_dims"] == [5]
