"""One benchmark pass in a fresh interpreter; started by run.py.

Modes:
  setup  import the package, make the inputs, report when ready, exit
  pass   ... then run one untraced pass and check its outputs
  trace  ... the same pass with the public API wrapped by the tracer

The result goes to ``--result`` as JSON. ``ready`` is the CLOCK_MONOTONIC
time at which the first workload call could be made; run.py subtracts the
time it started this interpreter to get the set-up time.
"""

import argparse
import json
import resource
import time
import traceback
from pathlib import Path

from workloads import VARIANTS, WORKLOADS

import bectube
from bectube import cli
from tracer import Tracer

HERE = Path(__file__).resolve().parent
TRACED = (bectube.geometry, bectube.transverse, bectube.scaling, bectube.nls,
          bectube.manybody, bectube.condensation, cli)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _jsonable(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "pass", "trace"))
    ap.add_argument("--tmp", required=True, help="scratch directory of the pass")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    inputs = wl.inputs(args.seed, tmp)
    result = {"ready": time.monotonic()}
    if args.mode != "setup":
        reference = json.loads((HERE / "reference.json").read_text())
        reference = reference[args.workload][str(args.seed % VARIANTS)]
        tracer = Tracer() if args.mode == "trace" else None
        if tracer:
            tracer.install(TRACED)
        cpu0, t0 = _cpu(), time.perf_counter()
        outputs, error = None, None
        try:
            outputs = wl.run(inputs, tmp)
        except Exception:
            error = traceback.format_exc()
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = _cpu() - cpu0
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["error"] = error
        checks = wl.checks(inputs, outputs, reference) if outputs else []
        result["checks"] = [[name, bool(ok), _jsonable(value)]
                            for name, ok, value in checks]
        if tracer:
            result["times"], result["counts"] = tracer.summary()
            result["bytes_written"] = sum(
                p.stat().st_size for p in tmp.glob("out_*/**/*") if p.is_file())
            if args.spans:
                tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
