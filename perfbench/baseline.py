"""Runs the benchmark over ten seeds per workload and records the result.

    python3 perfbench/baseline.py [--out FILE]

For each workload of BENCHMARK.json, one untraced run per seed (seeds
1..10) gives, for every end-to-end metric, the median, the quartiles as
``statistics.quantiles(n=4)`` gives them, and the spread (Q3 - Q1) / median;
then one traced run at seed 1 gives the per-layer metrics.  Every run's
pass times are kept.  Prints one line per metric with its spread against a
third of the bound from BENCHMARK.json, exits 1 if any spread reaches it or
any operation failed, and writes everything, with the run record, to
``--out`` (default: print only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {r.returncode}:\n{r.stderr}")
    record = next((json.loads(ln)["run_record"] for ln in lines if ln.startswith('{"run_record"')), {})
    return record, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    ok = True
    for w in spec["workloads"]:
        workload = w["name"]
        values: dict[str, list[float]] = {}
        passes = []
        failed = 0
        for seed in SEEDS:
            record, res = run_once(workload, seed, spec["run_seconds"], 0)
            machine = {k: v for k, v in record.items()
                       if k not in ("workload", "seed", "trace", "warmup_wall_s", "pass_wall_s")}
            report.setdefault("record", machine)
            passes.append({"seed": seed, "warmup_wall_s": record["warmup_wall_s"],
                           "pass_wall_s": record["pass_wall_s"]})
            failed += res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
                  + f", passes={len(record['pass_wall_s'])}", file=sys.stderr, flush=True)
        entry = {"why": w["why"], "failed": failed, "passes": passes,
                 "end_to_end": {k: summarise(v) for k, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            steady = s["spread"] < bounds[name] / 3
            ok = ok and steady and failed == 0
            print(f"{workload:14s} {name:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[name]}  {'ok' if steady else 'NOT STEADY'}", flush=True)
        record, res = run_once(workload, TRACE_SEED, spec["run_seconds"], 1)
        entry["traced_seed"] = TRACE_SEED
        entry["path_steps"] = record.get("path_steps")
        entry["per_layer"] = {k: m["value"] for k, m in res["metrics"].items()}
        entry["failed"] += res["failed"]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
