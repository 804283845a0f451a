"""Benchmark of the twistsum library: end-to-end and per-layer metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload jones-9 --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md for why each exists):
``jones-9``, ``alexander-sweep`` and ``small-braids``. The library is imported
from ``src/`` of the checkout; no install is needed.

Each run starts fresh single-threaded interpreters one at a time: several
that only set up (import plus input construction), for a median set-up time,
then one that runs timed passes for ``--seconds``. Because ``ru_maxrss`` is a
per-process high-water mark, the peak RSS belongs to that one workload.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``. The line before it holds
the details (seed, input digest, pass counts, tail percentile, environment).
``--negative-control`` checks every item against a deliberately wrong
reference; every item then fails and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


def run_worker(argv: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest rank with at least ten items beyond it.

    With ten items or fewer no such rank exists and the slowest item is used.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return 100.0, ordered[-1]
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "twistsum", "__init__.py")):
        print(f"no library source at {os.path.join(ROOT, 'src', 'twistsum')}", file=sys.stderr)
        return 2

    started = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.negative_control:
        common.append("--negative-control")
    probes = [run_worker(common + ["--setup-only"], 30.0) for _ in range(SETUP_PROBES)]
    trace_file = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
    argv = common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--trace-file", trace_file]
    res = run_worker(argv, TIME_LIMIT_S - (time.monotonic() - started))

    digests = {p["digest"] for p in probes} | {res["digest"]}
    if len(digests) != 1:
        raise SystemExit(f"inputs differ between processes for one seed: {sorted(digests)}")

    n_items = res["sizes"]["items"]
    attempted = n_items * len(res["failed"])
    failed = sum(len(f) for f in res["failed"])
    per_item_ms = [1000.0 * statistics.median(ts) for ts in res["item_s"]]
    tail_pct, tail_ms = tail(per_item_ms)
    run_s = statistics.median(res["pass_s"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": res["digest"],
        "sizes": res["sizes"],
        "passes": res["passes"],
        "failed_frac": failed / attempted,
        "failed_items": sorted({label for f in res["failed"] for label in f})[:10],
        "item_tail_percentile": tail_pct,
        "item_tail_items": n_items,
        "import_s": statistics.median(p["import_s"] for p in probes),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if args.trace:
        traced_s = statistics.median(res["traced_pass_s"])
        layers = {}
        for name in res["layers"][0]:
            median = statistics.median if name.endswith("_s") else statistics.median_low
            layers[name] = median(layer[name] for layer in res["layers"])
        layers["trace.run_s"] = traced_s
        layers["trace.overhead_s"] = traced_s - run_s
        metrics = {name: metric(v, "s" if name.endswith("_s") else "count")
                   for name, v in layers.items()}
        detail.update(traced_passes=len(res["traced_pass_s"]), trace_file=os.path.relpath(trace_file, ROOT),
                      unwrapped=res["unwrapped"])
    else:
        metrics = {
            "run_s": metric(run_s, "s"),
            "item_p50_ms": metric(statistics.median(per_item_ms), "ms"),
            "item_tail_ms": metric(tail_ms, "ms"),
            "setup_s": metric(statistics.median([p["setup_s"] for p in probes] + [res["setup_s"]]), "s"),
            "peak_rss_mb": metric(res["peak_rss_kb"] / 1024.0, "MB"),
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
