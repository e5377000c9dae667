"""Per-layer tracing from outside the library.

``install`` replaces the module-level names the layers call through (for
example ``scgadjust.identify.possible_descendants`` or
``scgadjust.oracle.BackdoorTester``) with wrappers that time each call.  A
span's self time is its duration minus the time of the spans it caused.
Spans are aggregated per name in memory and handed back at the end of the
worker; no library source is edited.

A wrapper costs time outside the span it times (the call into the wrapper,
the bookkeeping, the work counters).  ``install`` measures that cost on a
wrapped no-op and charges it to no span: it is taken off the caller's self
time, so the self times and shares are those of the library's own code.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (defining module, attribute, span name); every binding of the attribute in
# any loaded scgadjust module is replaced.
TARGETS = (
    ("graph", "scc_partition", "graph.scc_partition"),
    ("graph", "simple_directed_paths", "graph.simple_directed_paths"),
    ("unroll", "count_densest_templates", "unroll.count_densest_templates"),
    ("unroll", "densest_templates", "unroll.densest_templates"),
    ("unroll", "count_compatible_templates", "unroll.enumerate_templates"),
    ("unroll", "enumerate_compatible_templates", "unroll.enumerate_templates"),
    ("unroll", "possible_descendants", "unroll.possible_descendants"),
    ("unroll", "unroll", "unroll.unroll"),
    ("identify", "identify", "identify.identify"),
    ("identify", "canonical_sets", "identify.canonical_sets"),
    ("identify", "qopt", "identify.qopt"),
    ("identify", "scg_backdoor_check", "identify.scg_backdoor_check"),
    ("oracle", "soundness_experiment", "oracle.soundness_experiment"),
    ("oracle", "candidate_subsets", "oracle.candidate_subsets"),
    ("simulate", "variance_experiment", "simulate.variance_experiment"),
    ("simulate", "sample_linear_model", "simulate.sample_linear_model"),
    ("simulate", "generate", "simulate.generate"),
    ("simulate", "ols_effect", "simulate.ols_effect"),
)
TESTER_SPANS = ("identify.tester_build", "identify.tester_check", "identify.padded_check")
SPANS = tuple(dict.fromkeys([name for _, _, name in TARGETS] + list(TESTER_SPANS)))
LAYERS = ("graph", "unroll", "identify", "oracle", "simulate")

# Work counts recorded at the same boundaries: (name, unit, better).
COUNTS = (
    ("unroll.densest_templates.templates", "count", "lower"),
    ("unroll.unroll.nodes", "count", "lower"),
    ("unroll.unroll.edges", "count", "lower"),
    ("identify.scg_backdoor_check.accepted", "count", "higher"),
    ("identify.scg_backdoor_check.rejected", "count", "lower"),
    ("identify.facts_built", "count", "lower"),
    ("oracle.candidates", "count", "lower"),
    ("simulate.generate.cells", "count", "lower"),
    ("simulate.ols_effect.rows", "count", "lower"),
)


# Wrapped no-op calls per batch, and batches, when measuring the wrapper cost.
PROBE_CALLS = 2000
PROBE_BATCHES = 5


class Tracer:
    def __init__(self, clock=perf_counter):
        self._clock = clock
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for name in SPANS}
        self.counts: dict[str, int] = {name: 0 for name, _, _ in COUNTS}
        # Time covered by child spans, one accumulator per open span; the
        # bottom entry collects the top-level spans.
        self._child_time = [0.0]
        # Per-call wrapper time outside the span, charged to no span.
        self.wrapper_s = 0.0

    def call(self, name, fn, *args, **kwargs):
        child_time = self._child_time
        child_time.append(0.0)
        clock = self._clock
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = clock() - t0
            inner = child_time.pop()
            child_time[-1] += dt + self.wrapper_s
            st = self.stats[name]
            st[0] += 1
            st[1] += dt
            st[2] += dt - inner

    def wrap(self, name, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def add(self, name: str, n: int) -> None:
        self.counts[name] += n

    def top_level_s(self) -> float:
        return self._child_time[0]

    def snapshot(self) -> dict:
        return {
            "stats": self.stats,
            "counts": self.counts,
            "top_level_s": self.top_level_s(),
            "wrapper_s": self.wrapper_s,
        }


def wrapper_cost(clock=perf_counter) -> float:
    """Time per call that a wrapper spends outside its own span: the time of
    a wrapped no-op with a work counter, seen from its caller, minus what its
    span records and minus the same calls to the bare no-op.  The median over
    a few batches."""
    per_call = []
    for _ in range(PROBE_BATCHES):
        probe = Tracer(clock)
        probe.stats["probe"] = [0, 0.0, 0.0]
        probe.counts["probe"] = 0
        bare = lambda: None  # noqa: E731
        wrapped = probe.wrap("probe", bare, lambda r: probe.add("probe", 1))
        t0 = clock()
        for _ in range(PROBE_CALLS):
            bare()
        t1 = clock()
        for _ in range(PROBE_CALLS):
            wrapped()
        seen = clock() - t1
        per_call.append(max(0.0, seen - probe.stats["probe"][1] - (t1 - t0)) / PROBE_CALLS)
    per_call.sort()
    return per_call[len(per_call) // 2]


def _rebind(orig, replacement) -> None:
    """Point every scgadjust module-level name bound to ``orig`` at ``replacement``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "scgadjust" or modname.startswith("scgadjust."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, replacement)


def install(lib: dict, clock=perf_counter) -> Tracer:
    tracer = Tracer(clock)
    tracer.wrapper_s = wrapper_cost(clock)
    after = {
        "unroll.densest_templates": lambda r: tracer.add("unroll.densest_templates.templates", len(r)),
        "unroll.unroll": lambda r: (
            tracer.add("unroll.unroll.nodes", len(r.nodes)),
            tracer.add("unroll.unroll.edges", len(r.edges)),
        ),
        "identify.scg_backdoor_check": lambda r: tracer.add(
            "identify.scg_backdoor_check.accepted" if r.satisfied else "identify.scg_backdoor_check.rejected", 1
        ),
        "oracle.candidate_subsets": lambda r: tracer.add("oracle.candidates", len(r)),
        "simulate.generate": lambda r: tracer.add("simulate.generate.cells", r.values.size),
        "simulate.ols_effect": lambda r: tracer.add("simulate.ols_effect.rows", r.n),
    }
    for module, attr, name in TARGETS:
        if module in lib:
            orig = getattr(lib[module], attr)
            _rebind(orig, tracer.wrap(name, orig, after.get(name)))

    # Only the identify layer builds query facts, each with one call.
    identify = lib["identify"]
    possible_descendants = identify.possible_descendants

    def counted_possible_descendants(*args, **kwargs):
        tracer.add("identify.facts_built", 1)
        return possible_descendants(*args, **kwargs)

    identify.possible_descendants = counted_possible_descendants

    base = identify.BackdoorTester

    class TracedBackdoorTester(base):
        def __init__(self, tmpl, q, extra_padding=0):
            tracer.call("identify.tester_build", super().__init__, tmpl, q, extra_padding)
            self._check_span = "identify.padded_check" if extra_padding > 0 else "identify.tester_check"

        def check(self, z):
            return tracer.call(self._check_span, super().check, z)

    _rebind(base, TracedBackdoorTester)
    return tracer
