"""Every public top-level name of ``bectube`` has a caller in the program.

A function that only tests call is either a reference implementation that
the tests compare a product path against, listed in KEPT_ORACLES, or a
duplicate path that should go.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# oracles of the test suite; ``masked`` is the only input that reaches the
# eigensolve of a cross-section with holes
KEPT_ORACLES = ("convolution_defect_direct", "overlap_tensor",
                "rayleigh_residual", "masked", "embed_jacobian_det",
                "bending_potential", "hat_dynamics_check")


def public_names():
    """Names bound by the top-level defs, classes and assignments of
    src/bectube, without the leading-underscore ones."""
    names = set()
    for path in (ROOT / "src" / "bectube").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets
                             if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def referenced_names(*dirs):
    """Every name that code under the given directories loads, reads as an
    attribute or imports."""
    used = set()
    for d in dirs:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name)
    return used


def test_kept_oracles_exist():
    assert sorted(set(KEPT_ORACLES) - public_names()) == []


def test_every_public_name_has_a_program_caller():
    unreached = public_names() - referenced_names("src", "demos", "bench")
    assert sorted(unreached - set(KEPT_ORACLES)) == []
