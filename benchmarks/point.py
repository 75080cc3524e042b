#!/usr/bin/env python3
"""Record a benchmark point: several seeds per workload, summarised.

    python3 benchmarks/point.py --seeds 1-10 --out benchmarks/points/baseline.json

For each workload of BENCHMARK.json, runs ``run.py --trace 0`` for its
``run_seconds`` once per seed (one at a time) and reports every end-to-end
metric's median, quartiles and spread (the distance between the quartiles
as a share of the median, as ``statistics.quantiles(values, n=4)`` gives
them).  One ``--trace 1`` run
per workload, on the first seed, adds the per-layer metrics.  Every run's
stamp and result line are kept in the point file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload, seed, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    stamp = next((json.loads(line[6:]) for line in lines if line.startswith("stamp ")), None)
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"exit": proc.returncode, "stamp": stamp, "result": result, "stderr": proc.stderr[-2000:]}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", type=seed_list)
    p.add_argument("--out", help="write the point to this JSON file")
    args = p.parse_args(argv)

    point = {"seeds": args.seeds, "seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        runs = []
        for seed in args.seeds:
            r = one_run(name, seed, 0)
            runs.append(r)
            res = r["result"]
            ok &= r["exit"] == 0 and bool(res) and res["correct"]
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()) if res else r["stderr"]
            print(f"{name} seed {seed} exit {r['exit']} failed {res and res['failed']}/{res and res['attempted']} {line}",
                  flush=True)
        metrics = {}
        for r in runs:
            for key, m in (r["result"] or {}).get("metrics", {}).items():
                metrics.setdefault(key, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        summary = {k: {"unit": v["unit"], **summarise(v["values"])} for k, v in metrics.items()}
        for key, s in summary.items():
            print(f"  {name:13s} {key:16s} median {s['median']:.5g} {s['unit']:5s} spread {s['spread']:.4f}")
        traced = one_run(name, args.seeds[0], 1)
        ok &= traced["exit"] == 0
        point["workloads"][name] = {"summary": summary, "runs": runs, "traced": traced}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(point, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
