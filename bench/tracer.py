"""Span tracing of the bectube public API from outside the package.

``Tracer.install`` replaces every public function of the traced modules with
a wrapper that records a span (name, start, end, parent). Names that another
module re-imported, such as ``condensation.build_basis``, and functions held
in module-level tables, such as ``cli.COMMANDS``, are replaced by the same
wrapper, so a call is attributed to the module that defines the function.
The package source is not edited.

Spans stay in memory; ``write`` dumps them when the pass ends and
``summary`` derives per-function inclusive times and call counts, each
layer's self time, and the sizes and counts the hooks below read from the
arguments and results of a few calls.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict


def _basis(c, args, result):
    c["manybody.fock_dim_max"] = max(c.get("manybody.fock_dim_max", 0),
                                     result.dim)
    c.setdefault("manybody.bases_d_N_dim", []).append(
        [result.d, result.N, result.dim])


def _hamiltonian(c, args, result):
    c["manybody.hamiltonian_nnz"] = max(c.get("manybody.hamiltonian_nnz", 0),
                                        int(result.nnz))
    c.setdefault("manybody.hamiltonian_nnzs", []).append(int(result.nnz))


def _lanczos(c, args, result):
    # bytes of the Krylov basis, computed from array sizes: up to kdim + 1
    # vectors of the state's length and dtype
    v = args["v"]
    c["manybody.krylov_bytes_computed"] = (
        c.get("manybody.krylov_bytes_computed", 0)
        + (args["kdim"] + 1) * v.nbytes)
    c.setdefault("manybody.krylov_dims", []).append(v.size)


def _hartree(c, args, result):
    c["manybody.rk4_steps"] = c.get("manybody.rk4_steps", 0) + len(result) - 1


def _nls_evolve(c, args, result):
    c["nls.steps"] = c.get("nls.steps", 0) + int(round(args["T"] / args["dt"]))
    c.setdefault("nls.grids", []).append(len(args["w0"].values))


def _ground_state(c, args, result):
    c.setdefault("nls.grids", []).append(int(args["G"]))


def _modes(c, args, result):
    c.setdefault("transverse.grid_nodes", []).append(int(args["cs"].mask.sum()))


def _frame(c, args, result):
    c.setdefault("geometry.frame_nodes", []).append(int(args["n_nodes"]))


def _defect(c, args, result):
    c.setdefault("scaling.defect_grids", []).append(int(args["n_xi"]))


HOOKS = {
    "manybody.build_basis": _basis,
    "manybody.build_hamiltonian": _hamiltonian,
    "manybody.lanczos_expm_apply": _lanczos,
    "manybody.hartree_evolve": _hartree,
    "nls.evolve": _nls_evolve,
    "nls.ground_state": _ground_state,
    "transverse.dirichlet_modes": _modes,
    "geometry.bishop_frame": _frame,
    "scaling.convolution_defect": _defect,
}


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.outermost = []      # no enclosing span of the same name
        self.counters = {}
        self._stack = []
        self._active = defaultdict(int)

    def install(self, modules) -> None:
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in wrappers:
                            obj[key] = wrappers[id(val)]

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.outermost.append(self._active[name] == 0)
            self._active[name] += 1
            self._stack.append(idx)
            self.spans.append([name, time.perf_counter(), 0.0, parent])
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                self._active[name] -= 1
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counters, bound.arguments, result)
            return result

        return wrapper

    def summary(self):
        """Return (times, counts). Times are per-function ``<name>.s``
        (inclusive, outermost calls only) and per-layer ``<layer>.self_s``;
        counts are ``<name>.calls`` and the hook counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        times = defaultdict(float)
        counts = defaultdict(int)
        for (name, start, end, _), outer, inner in zip(
                self.spans, self.outermost, child):
            counts[f"{name}.calls"] += 1
            if outer:
                times[f"{name}.s"] += end - start
            times[f"{name.split('.')[0]}.self_s"] += end - start - inner
        return dict(times), {**counts, **self.counters}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
