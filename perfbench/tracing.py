"""Span tracing for the benchmark's traced passes, from outside the library.

The tracer wraps public library functions at every module attribute that
holds them. ``knot_expr``, ``family`` and the package itself bind imported
names, so replacing ``twistsum.burau.alexander_from_braid`` alone would miss
the calls made through ``knot_expr``; ``install`` therefore replaces the
function object wherever a ``twistsum`` module refers to it, and
``uninstall`` puts every original back.

Spans are kept in memory as ``[name, parent, start, end]`` with ``parent``
the index of the enclosing span (-1 for a root), so a span's self time is
exact: its duration minus the durations of its direct children. Counters are
read from each call's arguments and result after the call returns; the time
spent counting is recorded as its own ``trace.counters`` span, so it is
charged to tracing and not to the layer that made the call.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

from workloads import catalan


class NullTracer:
    """Stand-in used by untraced passes: spans and counts cost nothing."""

    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass


def _poly_size(tr: "Tracer", poly) -> None:
    terms = poly.items()
    tr.maximum("laurent.result_terms_max", len(terms))
    tr.maximum("laurent.coeff_bits_max", max((abs(c).bit_length() for _, c in terms), default=0))


def _braid_hook(tr, args, result) -> None:
    tr.count("braid.letters", len(result.letters))


def _columns_hook(tr, args, result) -> None:
    b = args[0]
    tr.count("burau.column_updates", len(b.letters) * (b.strands - 1))
    tr.maximum("burau.entry_terms_max",
               max((len(p.items()) for row in result.entries for p in row), default=0))


def _det_hook(tr, args, result) -> None:
    tr.maximum("burau.bareiss_dim_max", args[0].strands - 1)
    _poly_size(tr, result)


def _bracket_hook(tr, args, result) -> None:
    b = args[0]
    tr.count("temperley_lieb.letter_steps", len(b.letters))
    tr.count("temperley_lieb.basis_steps_bound", len(b.letters) * catalan(b.strands))
    _poly_size(tr, result)


def _jones_hook(tr, args, result) -> None:
    _poly_size(tr, result)


def _closed_hook(tr, args, result) -> None:
    tr.count("knot_expr.closed_calls")


def _family_hook(tr, args, result) -> None:
    tr.count("family.checks", len(result.checks))
    tr.count("family.mismatch", sum(c.equal is False for c in result.checks))
    tr.count("family.skipped", sum(bool(c.skipped) for c in result.checks))


# (module, function, span name, counter hook)
TARGETS = (
    ("twistsum.braid", "torus_braid", "braid.construct", _braid_hook),
    ("twistsum.braid", "twisted_torus_braid", "braid.construct", _braid_hook),
    ("twistsum.burau", "burau_of_word", "burau.columns", _columns_hook),
    ("twistsum.burau", "alexander_from_braid", "burau.det", _det_hook),
    ("twistsum.temperley_lieb", "kauffman_bracket", "temperley_lieb.bracket", _bracket_hook),
    ("twistsum.temperley_lieb", "jones_from_braid", "temperley_lieb.jones", _jones_hook),
    ("twistsum.knot_expr", "torus_alexander_closed", "knot_expr.closed", _closed_hook),
    ("twistsum.knot_expr", "torus_jones_closed", "knot_expr.closed", _closed_hook),
    ("twistsum.family", "family_verify", "family.verify", _family_hook),
)
# (module, class, method, span name)
METHOD_TARGETS = (
    ("twistsum.family", "VerificationReport", "to_json_obj", "family.report_json"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple] = []
        self.unwrapped: list[str] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, self._stack[-1], time.perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def maximum(self, name: str, value: int) -> None:
        if value > self.counts[name]:
            self.counts[name] = value

    def _wrap(self, name: str, fn, hook):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1]
            idx = len(self.spans)
            rec = [name, parent, clock(), 0.0]
            self.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                start = clock()
                hook(self, args, result)
                self.spans.append(["trace.counters", parent, start, clock()])
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "twistsum" or name.startswith("twistsum."))]
        for mod_name, attr, name, hook in TARGETS:
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                self.unwrapped.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(name, fn, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            fn = vars(cls).get(attr) if cls is not None else None
            if fn is None:
                self.unwrapped.append(f"{mod_name}.{cls_name}.{attr}")
                continue
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn, None))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, fn = self._patches.pop()
            setattr(owner, key, fn)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass (times in seconds)."""
        t, c = self.self_times(), self.counts
        return {
            "temperley_lieb.bracket_s": t["temperley_lieb.bracket"],
            "temperley_lieb.jones_self_s": t["temperley_lieb.jones"],
            "temperley_lieb.letter_steps": c["temperley_lieb.letter_steps"],
            "temperley_lieb.basis_steps_bound": c["temperley_lieb.basis_steps_bound"],
            "temperley_lieb.refused": c["temperley_lieb.bracket.raised.TooManyStrands"],
            "burau.columns_s": t["burau.columns"],
            "burau.det_s": t["burau.det"],
            "burau.column_updates": c["burau.column_updates"],
            "burau.bareiss_dim_max": c["burau.bareiss_dim_max"],
            "burau.entry_terms_max": c["burau.entry_terms_max"],
            "laurent.result_terms_max": c["laurent.result_terms_max"],
            "laurent.coeff_bits_max": c["laurent.coeff_bits_max"],
            "braid.construct_s": t["braid.construct"],
            "braid.letters": c["braid.letters"],
            "knot_expr.closed_s": t["knot_expr.closed"],
            "knot_expr.closed_calls": c["knot_expr.closed_calls"],
            "family.self_s": t["family.verify"],
            "family.report_json_s": t["family.report_json"],
            "family.checks": c["family.checks"],
            "family.mismatch": c["family.mismatch"],
            "family.skipped": c["family.skipped"],
            "bench.self_s": t["bench.pass"] + t["bench.item"],
            "trace.counters_s": t["trace.counters"],
            "trace.spans": len(self.spans),
        }
