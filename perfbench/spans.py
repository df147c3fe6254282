"""Per-layer tracing from outside the library.

``Tracer.install`` replaces each traced tanglex function with a wrapper that
records a span (request, span id, parent span id, name, start, end) and adds
the span's self time, its duration minus the time covered by its wrapped
children, to a per-name total.  The wrapper is installed under every name
that refers to the function in any tanglex module, so calls through an
import (``statesum.dotted_class``, ``invariant.evaluate_dp``, ...) are seen
as well as calls inside the defining module.  ``uninstall`` puts the original
objects back.  A function missing from the library is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute, span name); attributes of LaurentPoly are patched on
# the class
TARGETS = (
    ("tangle", "parse", "tangle.parse"),
    ("tangle", "analyze", "tangle.analyze"),
    ("tangle", "turning_number", "tangle.turning_number"),
    ("tangle", "braid_to_tangle", "tangle.braid_to_tangle"),
    ("statesum", "evaluate_dp", "statesum.evaluate_dp"),
    ("statesum", "expand_states", "statesum.expand_states"),
    ("diagram", "canonical_rep", "diagram.canonical_rep"),
    ("diagram", "dotted_class", "diagram.dotted_class"),
    ("diagram", "glue_evaluate", "diagram.glue_evaluate"),
    ("diagram", "coordinates", "diagram.coordinates"),
    ("oracle", "alexander_via_burau", "oracle.alexander_via_burau"),
    ("invariant", "alexander_polynomial", "invariant.alexander_polynomial"),
    ("invariant", "tangle_invariant", "invariant.tangle_invariant"),
    ("cli", "main", "cli.main"),
)
LAURENT_TARGETS = (
    ("__mul__", "laurent.mul"),
    ("__rmul__", "laurent.mul"),
    ("__add__", "laurent.add"),
)
SPAN_NAMES = tuple(dict.fromkeys(
    [n for _, _, n in TARGETS] + [n for _, n in LAURENT_TARGETS]))
# counts read from return values
COUNTERS = ("statesum.naive_raw_states", "statesum.naive_kept_terms",
            "statesum.dp_output_keys")
# spans kept per run; later spans are counted as dropped, totals stay exact
MAX_SPANS = 100_000


def _count_expand_states(tracer, result):
    vec, raw = result
    tracer.counts["statesum.naive_raw_states"] += raw
    tracer.counts["statesum.naive_kept_terms"] += len(vec)


def _count_evaluate_dp(tracer, result):
    tracer.counts["statesum.dp_output_keys"] += len(result)


_RESULT_HOOKS = {
    "statesum.expand_states": _count_expand_states,
    "statesum.evaluate_dp": _count_evaluate_dp,
}


class Tracer:
    """Spans and per-name totals for one process, kept in memory."""

    def __init__(self, max_spans: int = MAX_SPANS):
        self.max_spans = max_spans
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_ns = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.spans = []
        self.dropped = 0
        self.request = 0
        self._stack = []
        self._next_id = 0
        self._patched = []

    def _wrap(self, name, fn):
        stack = self._stack
        hook = _RESULT_HOOKS.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            self._next_id += 1
            sid = self._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                self.calls[name] += 1
                self.self_ns[name] += dur - frame[1]
                if len(self.spans) < self.max_spans:
                    self.spans.append((self.request, sid, parent, name,
                                       start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "tanglex"
                                         or k.startswith("tanglex."))]
        for mod_name, attr, name in TARGETS:
            mod = sys.modules.get("tanglex." + mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, fn))
        laurent = sys.modules.get("tanglex.laurent")
        cls = getattr(laurent, "LaurentPoly", None)
        wrappers = {}
        for attr, name in LAURENT_TARGETS:
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None:
                continue
            if (fn, name) not in wrappers:
                wrappers[(fn, name)] = self._wrap(name, fn)
            setattr(cls, attr, wrappers[(fn, name)])
            self._patched.append((cls, attr, fn))

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def analyze_cache_entries(self) -> int:
        """Entries held by ``tangle.analyze``'s cache, 0 if it has none."""
        fn = getattr(sys.modules.get("tanglex.tangle"), "analyze", None)
        info = getattr(fn, "cache_info", None)
        return info().currsize if info is not None else 0

    def totals(self) -> dict:
        return {"calls": self.calls, "self_ns": self.self_ns,
                "counts": self.counts, "spans": len(self.spans),
                "dropped_spans": self.dropped}

    def write_spans(self, path: str):
        """One JSON list per line: request, span, parent span, name,
        start ns, end ns (perf_counter clock of the recording process)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
