"""Record the benchmark baseline of the current checkout.

Usage (from the root of a synsim checkout):

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

For every workload in BENCHMARK.json it makes one untraced run per seed
and one traced run on the first seed, each exactly as the benchmark's
command would, then writes the median and quartiles of every end-to-end
metric, its spread (quartile distance over median) next to its bound, the
same without calibration (``end_to_end_unscaled``) with each seed's median
calibration factor, the per-layer metrics of the traced run, and the
Python version and CPU count.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The run's result line, and its ``# unscaled`` line (empty when traced)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} operations failed")
    prefix = "# unscaled "
    unscaled = next((json.loads(x[len(prefix):]) for x in lines if x.startswith(prefix)), {})
    return result, unscaled


def summary(series: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(series, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "bound": bound, "values": series}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    baseline = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        values: dict[str, list[float]] = {}
        raw: dict[str, list[float]] = {}
        factors = []
        attempted = failed = 0
        for seed in seeds:
            result, unscaled = run_once(name, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            factors.append(unscaled["calibration_factor"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                raw.setdefault(metric, []).append(unscaled["metrics"][metric])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  f"factor {factors[-1]:.3f}", flush=True)
        end_to_end, end_to_end_unscaled = {}, {}
        for metric, series in values.items():
            end_to_end[metric] = summary(series, bounds[metric])
            end_to_end_unscaled[metric] = summary(raw[metric], bounds[metric])
            print(f"  {metric:14s} median {end_to_end[metric]['median']:.6g} "
                  f"spread {end_to_end[metric]['spread']:.4f} "
                  f"unscaled spread {end_to_end_unscaled[metric]['spread']:.4f} "
                  f"bound {bounds[metric]}", flush=True)
        traced, _ = run_once(name, seeds[0], seconds, 1)
        baseline["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "end_to_end_unscaled": end_to_end_unscaled,
            "calibration_factors": factors,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
