"""Every top-level name of ``bectube`` has a caller in the program, and
every defaulted parameter has two: one that passes it and one that omits it.

A public function that only tests call is either a reference implementation
that the tests compare a product path against, listed in KEPT_ORACLES, or a
duplicate path that should go.  A private one is a duplicate path: the tests
compare against their own oracles.  A default that no program call
overrides is a constant, and one that every program call overrides is a
required parameter.

These checks read names by AST, so they cannot see a method or a nested
function that no program calls; ``test_program_reach.py`` runs the programs
and covers those.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# oracles of the test suite; ``masked`` is the only input that reaches the
# eigensolve of a cross-section with holes
KEPT_ORACLES = ("convolution_defect_direct", "overlap_tensor",
                "rayleigh_residual", "masked", "embed_jacobian_det")

# defaults that only a benchmark reads: bench/tracer.py's hook records n_xi
BENCH_READ_DEFAULTS = {("convolution_defect", "n_xi")}


def top_level_names():
    """(public, private): the names bound by the top-level defs, classes and
    assignments of src/bectube, split by one leading underscore; dunder
    names are neither."""
    names = set()
    for path in (ROOT / "src" / "bectube").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
    private = {n for n in names if n.startswith("_")}
    return names - private, {n for n in private if not n.startswith("__")}


def referenced_names(*dirs):
    """Every name that code under the given directories loads, reads as an
    attribute or imports; a name that is only assigned does not count."""
    used = set()
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    return used


def test_kept_oracles_exist():
    assert sorted(set(KEPT_ORACLES) - top_level_names()[0]) == []


def test_every_public_name_has_a_program_caller():
    public, _ = top_level_names()
    unreached = public - referenced_names("src", "demos", "bench")
    assert sorted(unreached - set(KEPT_ORACLES)) == []


def test_every_private_name_has_a_program_caller():
    _, private = top_level_names()
    unreached = private - referenced_names("src", "demos", "bench")
    assert sorted(unreached) == []


def program_calls():
    """Name -> the calls under src/, demos/ and bench/ of a function or
    method of that name."""
    calls = {}
    for d in ("src", "demos", "bench"):
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = getattr(f, "id", None) or getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def defaulted_parameters():
    """(file:function(parameter), function, parameter, positional
    parameter names) of every defaulted parameter of src/bectube that the
    rules below cover: AST ``defaults`` plus the non-None ``kw_defaults``,
    without the test oracles and the defaults only a benchmark reads."""
    found = []
    for path in (ROOT / "src" / "bectube").glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if (not isinstance(fn, ast.FunctionDef)
                    or fn.name in KEPT_ORACLES):
                continue
            a = fn.args
            pos = [p.arg for p in a.posonlyargs + a.args]
            defaulted = pos[len(pos) - len(a.defaults):] if a.defaults else []
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            if pos[:1] in (["self"], ["cls"]):
                pos = pos[1:]
            found += [(f"{path.name}:{fn.name}({name})", fn.name, name, pos)
                      for name in defaulted
                      if (fn.name, name) not in BENCH_READ_DEFAULTS]
    return found


def passes(call, name, pos) -> bool:
    """Whether call passes the parameter name, by keyword or position."""
    return (any(k.arg == name for k in call.keywords)
            or (name in pos and pos.index(name) < len(call.args)))


def test_every_default_has_a_program_caller():
    calls = program_calls()
    unset = [key for key, fn, name, pos in defaulted_parameters()
             if not any(passes(c, name, pos) for c in calls.get(fn, []))]
    assert sorted(unset) == []


def test_every_default_is_read_by_a_program():
    calls = program_calls()
    unread = [key for key, fn, name, pos in defaulted_parameters()
              if all(passes(c, name, pos) for c in calls.get(fn, []))]
    assert sorted(unread) == []
