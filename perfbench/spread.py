"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a source checkout:

    python3 perfbench/spread.py --seeds 1-10 [--workloads jones-9,small-braids] [--trace 0] [--out runs.json]

Runs ``perfbench/run.py`` once per (workload, seed), one at a time, with the
``run_seconds`` of BENCHMARK.json. For every metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as a
share of the median; an end-to-end metric other than ``setup_s`` whose share
is not below a third of its bound is marked ``WIDE``. ``--out`` keeps every
run's result and detail line, for comparing two commits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
            runs.append({"workload": workload, "seed": seed, "result": result, "detail": detail})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {workload}: {len(next(iter(values.values()), []))} runs")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
            else:
                q1 = q3 = vs[0]
            share = (q3 - q1) / med if med else float("nan")
            flag = ""
            if name in bounds and name != "setup_s" and not share < bounds[name] / 3:
                flag = "  WIDE"
            print(f"  {name:34s} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {share:.4f}{flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(runs, fh, indent=1)
    return status


if __name__ == "__main__":
    sys.exit(main())
