"""bectube benchmark launcher.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every pass runs in a fresh interpreter
(bench/worker.py) with BLAS threads capped at the number of usable CPUs and
its own temporary output root under .bench_out/.

--trace 0 repeats untraced passes for about S seconds, then starts set-up
only interpreters until there are MIN_SETUP_SAMPLES set-up times, and reports
the end-to-end metrics of BENCHMARK.json as medians over the passes.

--trace 1 alternates untraced and traced passes for about S seconds, then
runs one more traced pass with seed N+1 and checks that every size and count
the tracer read repeats exactly across the two seeds. It reports the
per-layer metrics of BENCHMARK.json; the spans of each traced pass are kept
in .bench_out/spans/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. attempted counts passes, set-up interpreters
and output checks; failed counts those that failed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0     # a run must end within 180 s


class Run:
    def __init__(self, workload: str, env: dict, t_start: float):
        self.workload = workload
        self.env = env
        self.t_start = t_start
        self.attempted = 0
        self.failures = []

    def spawn(self, seed: int, mode: str):
        """One worker interpreter; returns its result, or None if it failed."""
        self.attempted += 1
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=OUT / "tmp"))
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(seed),
               "--mode", mode, "--tmp", str(tmp),
               "--result", str(tmp / "result.json")]
        if mode == "trace":
            (OUT / "spans").mkdir(parents=True, exist_ok=True)
            cmd += ["--spans",
                    str(OUT / "spans" / f"{self.workload}-seed{seed}.json")]
        try:
            with open(tmp / "log.txt", "w") as log:
                t_spawn = time.monotonic()
                proc = subprocess.run(
                    cmd, env=self.env, cwd=ROOT, stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=max(1.0, DEADLINE_S - (t_spawn - self.t_start)))
            if proc.returncode != 0:
                self.fail(f"{mode} seed {seed}: exit {proc.returncode}: "
                          + (tmp / "log.txt").read_text()[-2000:])
                return None
            result = json.loads((tmp / "result.json").read_text())
        except subprocess.TimeoutExpired:
            self.fail(f"{mode} seed {seed}: timed out")
            return None
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        result["setup_s"] = result["ready"] - t_spawn
        if result.get("error"):
            self.fail(f"{mode} seed {seed}: {result['error']}")
        for name, ok, value in result.get("checks", []):
            self.attempted += 1
            if not ok:
                self.fail(f"{mode} seed {seed}: check {name} = {value}")
        return result

    def fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)


def _timed_loop(seconds: float, step) -> None:
    """Call step() until the next call would end after `seconds`, at least
    once."""
    t0 = time.monotonic()
    n = 0
    while True:
        step()
        n += 1
        elapsed = time.monotonic() - t0
        if elapsed + elapsed / n > seconds:
            return


def untraced(run: Run, seed: int, seconds: float) -> dict:
    passes, setups = [], []

    def step():
        res = run.spawn(seed, "pass")
        if res is not None:
            setups.append(res["setup_s"])
            if not res.get("error"):
                passes.append(res)

    _timed_loop(seconds, step)
    while len(setups) < MIN_SETUP_SAMPLES:
        res = run.spawn(seed, "setup")
        if res is None:
            break
        setups.append(res["setup_s"])
    if not passes or not setups:
        return {}
    med = {key: statistics.median(p[key] for p in passes)
           for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    return {**med, "setup_s": statistics.median(setups), "passes": len(passes)}


def traced(run: Run, seed: int, seconds: float) -> dict:
    plain, tracedp = [], []

    def step():
        for mode, into in (("pass", plain), ("trace", tracedp)):
            res = run.spawn(seed, mode)
            if res is not None and not res.get("error"):
                into.append(res)

    _timed_loop(seconds, step)
    other = run.spawn(seed + 1, "trace")
    if not plain or not tracedp or other is None or other.get("error"):
        return {}
    # sizes and counts must repeat exactly across passes and seeds
    counts = tracedp[0]["counts"]
    run.attempted += 1
    differ = sorted({k for res in (*tracedp[1:], other)
                     for k in set(counts) | set(res["counts"])
                     if res["counts"].get(k) != counts.get(k)})
    if differ:
        run.fail(f"sizes or counts differ across passes or seeds: {differ}")
    keys = set().union(*(res["times"] for res in tracedp))
    layers = {k: statistics.median(res["times"].get(k, 0.0) for res in tracedp)
              for k in keys}
    layers.update((k, v) for k, v in counts.items() if not isinstance(v, list))
    layers["cli.bytes_written"] = statistics.median(
        res["bytes_written"] for res in tracedp)
    layers["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in tracedp)
        - statistics.median(r["wall_s"] for r in plain))
    return {"layers": layers, "counts": counts, "passes": len(tracedp)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.monotonic()
    if not (ROOT / "src" / "bectube" / "__init__.py").is_file():
        print(f"error: no bectube source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(
                   [str(ROOT / "src")]
                   + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = Run(args.workload, env, t_start)
    if args.trace:
        got = traced(run, args.seed, args.seconds)
        chosen = spec["per_layer"]
        values = got.get("layers", {})
    else:
        got = untraced(run, args.seed, args.seconds)
        chosen = spec["end_to_end"]
        values = got
    if not got:
        print("error: no pass completed", file=sys.stderr)
        return 1

    failed = len(run.failures)
    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {got['passes']}")
    if args.trace:
        print("sizes and counts: " + json.dumps(got["counts"], sort_keys=True))
    metrics = {}
    for m in chosen:
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)),
                              "unit": m["unit"]}
        print(f"  {m['name']:<36} {metrics[m['name']]['value']:>16.6g} "
              f"{m['unit']}")
    print(f"  {'fail_ratio':<36} {failed / run.attempted:>16.6g} "
          f"({failed} of {run.attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
