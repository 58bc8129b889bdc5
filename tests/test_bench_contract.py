"""The benchmark's tracer reads the package's function names and argument
names, and its workloads call the package; a rename or a newly required
parameter must fail here, not only in a benchmark run."""

import ast
import importlib
import importlib.util
import inspect
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from bectube import manybody as mb

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


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


def test_workload_calls_bind():
    # every call of a bectube module in the workloads, by the alias it is
    # imported under, binds to the function's signature
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: f"bectube.{alias.name}"
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "bectube"
               for alias in node.names}
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name)
             and node.func.value.id in modules]
    assert len(calls) >= 10
    for call in calls:
        module = importlib.import_module(modules[call.func.value.id])
        sig = inspect.signature(getattr(module, call.func.attr))
        assert not any(isinstance(a, ast.Starred) for a in call.args)
        assert all(k.arg is not None for k in call.keywords)
        try:
            sig.bind(*call.args, **{k.arg: k.value for k in call.keywords})
        except TypeError as exc:
            pytest.fail(f"bench/workloads.py:{call.lineno}: {exc}")
