"""Record the benchmark's baseline: repeated runs of every workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload in BENCHMARK.json, runs ``run.py`` once per seed (seeds
1..RUNS, one process at a time), reports each end-to-end metric's median,
quartiles and spread (interquartile distance over the median) against its
bound, then makes one traced run (seed 1) for the per-layer breakdown.  Writes the result with the
machine it ran on.  Exits non-zero if a run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "runs_per_workload": RUNS,
        "run_seconds": spec["run_seconds"],
        "workloads": {},
        "note": "The fuzz and hand-off timings in ROADMAP.md predate this harness: they are "
                "raw wall times at other sizes (10^4 fuzz steps; 100/200/400 hand-offs), not "
                "calibrated episode medians, and are not comparable with these figures.",
    }
    ok = True
    for entry in spec["workloads"]:
        name = entry["name"]
        values: dict = {}
        for seed in range(1, RUNS + 1):
            res = run_once(name, seed, spec["run_seconds"], 0)
            ok &= res["correct"]
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        end_to_end = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            end_to_end[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "bound": bounds[metric], "values": vals}
            print(f"{name:15s} {metric:15s} median {med:12.5g} spread {spread:.4f} "
                  f"bound/3 {bounds[metric] / 3:.4f}")
        traced = run_once(name, 1, spec["run_seconds"], 1)
        ok &= traced["correct"]
        result["workloads"][name] = {
            "why": entry["why"],
            "end_to_end": end_to_end,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
