"""affine-ergo benchmark: one workload per run, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  The package is imported from
``src/`` of the checkout; nothing is installed.

``--trace 0`` runs one warm-up pass, then repeats the workload's pass while
the next pass still fits in ``--seconds`` (at least one pass after the
warm-up), and reports the end-to-end metrics: ``wall_s`` (median over the
passes after the warm-up of the time spent in the timed calls), ``setup_s``
(median over seven fresh interpreters of importing ``affine_ergo`` and its
``cli`` and loading and validating the bundled models), ``peak_rss_mb``
(peak resident memory of this process by the end of the first timed pass)
and ``ok_frac`` (operations that neither raised nor failed their output
check, over operations attempted, warm-up included).  Metric names and units come from ``BENCHMARK.json``.

``--trace 1`` runs a warm-up pass, an untraced pass, one pass with every
public function of the package wrapped (tracing.py) and a second untraced
pass, and reports the per-layer metrics.  Spans and the run record are
written to ``.perfbench-out/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 7

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def run_record(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup() -> float:
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if r.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {r.stderr.strip()}")
        samples.append(float(r.stdout.split()[-1]))
    return statistics.median(samples)


def result_line(passes, metrics: dict, units: dict) -> str:
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "affine_ergo" / "__init__.py").is_file():
        print(f"error: no affine_ergo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    seed = args.seed % (1 << 31)
    record = run_record(args.workload, args.seed, args.trace)
    OUT.mkdir(exist_ok=True)

    if args.trace == 0:
        setup_s = measure_setup()
        start = time.perf_counter()
        warmup = workloads.Pass()
        run(warmup, seed, ROOT)
        passes = []
        while True:
            p = workloads.Pass()
            run(p, seed, ROOT)
            passes.append(p)
            if len(passes) == 1:
                # memory grows with each pass: read it before the pass count,
                # which depends on the host's speed, can move it
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / (len(passes) + 1) > args.seconds:
                break
        done = [warmup] + passes
        attempted = sum(p.attempted for p in done)
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": 1.0 - sum(p.failed for p in done) / attempted,
        }
        record["warmup_wall_s"] = warmup.wall_s
        record["pass_wall_s"] = [p.wall_s for p in passes]
        print(json.dumps({"run_record": record}))
        print(result_line(done, metrics, END_TO_END))
        return 0

    import tracing

    # untraced passes on both sides of the traced one, so that drift in the
    # host's speed cancels from the overhead
    warmup, before, after = workloads.Pass(), workloads.Pass(), workloads.Pass()
    run(warmup, seed, ROOT)
    run(before, seed, ROOT)
    tracer = tracing.Tracer(tracing.ModelNames(workloads.bundled_models()))
    tracer.install()
    try:
        traced = workloads.Pass(untraced=tracer.paused)
        run(traced, seed, ROOT)
    finally:
        tracer.uninstall()
    run(after, seed, ROOT)
    untraced_s = (before.wall_s + after.wall_s) / 2
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(tracing.layer_metrics(tracer.spans))
    metrics.update(traced.notes)
    path_steps = metrics["simulator.single.path_steps"] + metrics["simulator.coupled.path_steps"]
    metrics["path_steps_per_s"] = path_steps / untraced_s
    metrics["trace.overhead_s"] = traced.wall_s - untraced_s
    record.update(passes=4, path_steps=path_steps, warmup_wall_s=warmup.wall_s,
                  untraced_wall_s=[before.wall_s, after.wall_s], traced_wall_s=traced.wall_s)
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", {**record, "metrics": metrics})
    print(json.dumps({"run_record": record}))
    print(result_line([warmup, before, traced, after], metrics, PER_LAYER))
    return 0


if __name__ == "__main__":
    sys.exit(main())
