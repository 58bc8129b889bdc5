"""Record the reference outputs of every workload variant in reference.json.

Run from the repository root, on the commit whose outputs are the reference:

    PYTHONPATH=src python3 bench/make_reference.py [workload ...]

Each variant runs once, and is recorded only if its identity and bound
checks pass. Workloads not named keep their recorded values.
"""

import json
import sys
import tempfile
from pathlib import Path

from workloads import VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent


def main(names) -> int:
    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for name in names or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        table[name] = {}
        for seed in range(VARIANTS):
            with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
                inputs = wl.inputs(seed, Path(tmp))
                outputs = wl.run(inputs, Path(tmp))
                ref = wl.reference(outputs)
                failed = [row for row in wl.checks(inputs, outputs, ref)
                          if not row[1]]
            if failed:
                print(f"{name} variant {seed}: checks failed: {failed}",
                      file=sys.stderr)
                return 1
            table[name][str(seed)] = ref
            print(f"{name} variant {seed}: {len(ref)} values", flush=True)
    path.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
