"""One workload in one fresh interpreter: set up, run timed passes, report.

Started by run.py, never by hand. With ``--setup-only`` it imports the
library, builds the inputs and reports the set-up time. Otherwise it runs
whole passes over the items until another pass would overrun ``--seconds``.
With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is the difference of their medians within one process. It prints
one JSON line with its measurements; run.py turns them into metrics.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

_t0 = time.perf_counter()
import twistsum  # noqa: E402

_t_import = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import workloads  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402


def run_pass(items, tr):
    """Time every item once; return (wall seconds, item seconds, failed labels)."""
    clock = time.perf_counter
    times, failed = [], []
    start = clock()
    with tr.span("bench.pass"):
        for label, run, _, _ in items:
            t = clock()
            with tr.span("bench.item"):
                try:
                    ok = run(tr)
                except Exception as exc:  # a raising item counts as failed, the run goes on
                    ok = False
                    label = f"{label}: {type(exc).__name__}: {exc}"
            times.append(clock() - t)
            if not ok:
                failed.append(label)
    return clock() - start, times, failed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file")
    args = ap.parse_args()

    items, digest, sizes = workloads.build(args.workload, args.seed, args.negative_control)
    setup_s = time.perf_counter() - _t0
    out = {"setup_s": setup_s, "import_s": _t_import - _t0, "digest": digest, "sizes": sizes}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    null, tracer = NullTracer(), Tracer()
    plain, traced = [], []  # (wall, item times, failed) per pass
    layers, spans = [], []
    start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        if use_trace:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_pass(items, tracer))
            finally:
                tracer.uninstall()
            layers.append(tracer.layer_metrics())
            spans.append(tracer.spans)
        else:
            plain.append(run_pass(items, null))
        if args.trace and not traced:
            continue
        upcoming = traced if args.trace and len(traced) < len(plain) else plain
        estimate = statistics.median(p[0] for p in upcoming)
        if time.perf_counter() - start + estimate > args.seconds:
            break

    out.update(
        passes=len(plain),
        pass_s=[p[0] for p in plain],
        item_s=[list(ts) for ts in zip(*(p[1] for p in plain))],
        failed=[p[2] for p in plain + traced],
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if args.trace:
        out.update(traced_pass_s=[p[0] for p in traced], layers=layers,
                   unwrapped=tracer.unwrapped)
        if args.trace_file:
            os.makedirs(os.path.dirname(args.trace_file), exist_ok=True)
            with open(args.trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "digest": digest,
                           "span_fields": ["name", "parent", "start_s", "end_s"],
                           "passes": spans}, fh, separators=(",", ":"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
