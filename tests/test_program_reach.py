"""Every function and method of ``bectube`` is run by a program.

One subprocess runs a fixed program set under ``sys.setprofile`` and
records the code object of every Python call it makes:

- each subcommand on the default config, with ``converge`` at N_list [2, 3]
  (``verify`` runs inside demo 06);
- every value of ``geometry.curve``, ``cross_section.shape``,
  ``solver.initial`` and ``scaling.regime``, and a twisted guide;
- one INI config;
- one ``manybody`` lattice with dx <= mu / 2, where the pair kernel has
  more than one offset;
- every demo.

A def of src/bectube (function, method or nested function; a lambda is no
def) that the set never calls fails the test, unless it serves only a
refusal.
Defs are matched to code objects by file and qualified name, not by line,
because a decorated function's code starts at its decorator's line.  Defs
of one name in one scope share a key: verify's checks are all ``_``, and
its registry loop runs them all.

Run as a script, this file is the subprocess:
``python tests/test_program_reach.py OUT.json`` runs the set in the
current directory and writes the reached (file, qualified name) pairs to
OUT.json.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bectube"

# defs that run only when a program fails: the verify failure that carries
# the partial scalars to main's exit-3 branch
REFUSAL_ONLY = {("cli.py", "VerificationFailure.__init__")}

CONFIGS = {
    "effective.json": {
        "geometry": {"curve": "helix", "radius": 1.0, "pitch": 1.0,
                     "twist_rate": 0.5},
        "cross_section": {"shape": "disk", "radius": 1.0}},
    "ellipse_strong.json": {
        "geometry": {"curve": "circle"},
        "cross_section": {"shape": "ellipse", "a": 2.0, "b": 1.5},
        "scaling": {"regime": "strong"},
        "solver": {"initial": "gaussian", "T": 0.1}},
    "converge.json": {"converge": {"N_list": [2, 3]}},
    # N = 2 at eps = 0.25: mu = 0.42 >= 2 dx
    "finite_range.json": {"scaling": {"N": 2}, "solver": {"dx": 0.2}},
}
INI = "[geometry]\ncurve = bump_line\namplitude = 0.3\n"
RUNS = [
    ("frame", None), ("modes", None), ("coeffs", None), ("evolve", None),
    ("manybody", None), ("converge", "converge.json"),
    ("coeffs", "effective.json"), ("evolve", "ellipse_strong.json"),
    ("frame", "bump_line.ini"), ("manybody", "finite_range.json"),
]


def run_programs(out_json):
    """Run the program set under a profiler in the current directory and
    write the reached (file, qualified name) pairs of bectube to
    out_json."""
    for name, cfg in CONFIGS.items():
        Path(name).write_text(json.dumps(cfg))
    Path("bump_line.ini").write_text(INI)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    from bectube import cli
    sys.setprofile(profile)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main([sub, "--out", "runs"]
                          + (["--config", cfg] if cfg else []))
                 for sub, cfg in RUNS]
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    sys.setprofile(None)
    if any(codes):
        sys.exit(f"exit codes {codes} of {RUNS}")
    reached = sorted({(Path(c.co_filename).name, c.co_qualname) for c in seen
                      if Path(c.co_filename).parent == PACKAGE})
    Path(out_json).write_text(json.dumps(reached))


def package_defs():
    """(file, qualified name) of every def of src/bectube, qualified as
    Python's ``__qualname__``: Class.method, outer.<locals>.inner."""
    found = set()

    def walk(node, prefix, file):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                found.add((file, prefix + child.name))
                walk(child, f"{prefix}{child.name}.<locals>.", file)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", file)
            else:
                walk(child, prefix, file)

    for path in PACKAGE.glob("*.py"):
        walk(ast.parse(path.read_text()), "", path.name)
    return found


def test_every_def_is_run_by_a_program(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [
               str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "reached.json"
    proc = subprocess.run([sys.executable, __file__, str(out)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    reached = {tuple(pair) for pair in json.loads(out.read_text())}
    defs = package_defs()
    assert REFUSAL_ONLY <= defs
    assert sorted(defs - reached - REFUSAL_ONLY) == []


if __name__ == "__main__":
    run_programs(sys.argv[1])
