"""Every top-level name of ``bectube`` has a caller in the program.

A public function that only tests call is either a reference implementation
that the tests compare a product path against, listed in KEPT_ORACLES, or a
duplicate path that should go.  A private one is a duplicate path: the tests
compare against their own oracles.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# oracles of the test suite; ``masked`` is the only input that reaches the
# eigensolve of a cross-section with holes
KEPT_ORACLES = ("convolution_defect_direct", "overlap_tensor",
                "rayleigh_residual", "masked", "embed_jacobian_det",
                "bending_potential", "hat_dynamics_check")


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
