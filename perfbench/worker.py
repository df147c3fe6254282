"""Benchmark worker process, started by run.py with tanglex's ``src`` on
PYTHONPATH.

    worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]
              [--spans-out PATH]
    worker.py --scaling STRANDS --braid "1 -2 ..."

A workload run imports tanglex, builds the base tables, does the workload's
warm-up, and prints ``READY``; the parent times set-up up to that line.
Then it prints ``REF <seconds> <spent>``: the reference time (see
calibrate.py) for scaling that set-up time, and the seconds the set-up spent
timing reference loops, which the parent subtracts.  It then runs the timed closed loop of knot-batch-warm or tangle-vector-both for
S seconds, checks every output outside the timed region, and prints one JSON
line with the per-request latencies, reference-loop times (see
calibrate.py) and verdicts.  With ``--trace 1`` every
other request runs with the span wrappers installed, so traced and untraced
requests see the same inputs and cache state.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback

import calibrate
import checks
import spans
import workloads as wl

# peak RSS is read when this many requests have completed, so it depends on
# the inputs and not on how many requests fit into the run
RSS_REQUESTS = 300


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _setup(workload: str, seed: int):
    """Import, tables and warm-up.  Returns the warm-up braids, reference
    times taken during the warm-up, and the seconds spent taking them."""
    import tanglex
    tanglex.base_tables()
    warm, refs, spent = [], [], 0.0
    if workload == "knot-batch-warm":
        stream = wl.knot_braids(workload, seed, "warmup")
        for i in range(wl.WARMUP_BRAIDS):
            if i % 10 == 0:
                t0 = time.perf_counter()
                refs.append(calibrate.reference_seconds())
                spent += time.perf_counter() - t0
            braid = next(stream)
            tanglex.alexander_polynomial(
                tanglex.braid_to_tangle(braid, wl.KNOT_STRANDS),
                evaluator="dp")
            warm.append(braid)
    return warm, refs, spent


# the request functions look tanglex names up on every call, so a traced
# request calls the wrappers that Tracer.install put in their place
def _knot_request(braid):
    from tanglex import alexander_polynomial, braid_to_tangle
    return alexander_polynomial(braid_to_tangle(braid, wl.KNOT_STRANDS),
                                evaluator="dp")


def _vector_request(text):
    from tanglex import parse, tangle_invariant
    return tangle_invariant(parse(text), evaluator="both")


def _check_knot(braid, result):
    """Digest form of a warm result, and why it is wrong (or None)."""
    from tanglex import alexander_via_burau
    out = result.alexander.to_json()
    problem = checks.knot_polynomial_problem(out)
    if problem is None:
        oracle = alexander_via_burau(braid, wl.KNOT_STRANDS).to_json()
        if oracle != out:
            problem = f"oracle {oracle} != {out}"
    return out, problem


def _check_vector(text, result):
    out = result.to_json()
    return out, checks.class_vector_problem(out)


def run_loop(workload: str, seed: int, seconds: float, trace: bool,
             exclude, spans_out):
    """The timed closed loop, then the output checks; ``exclude`` holds the
    warm-up braids, which the timed stream skips."""
    if workload == "knot-batch-warm":
        stream = wl.knot_braids(workload, seed, "timed", exclude)
        request, check = _knot_request, _check_knot
    else:
        stream = wl.morse_texts(seed)
        request, check = _vector_request, _check_vector
    tracer = spans.Tracer() if trace else None
    clock = time.perf_counter
    done = []          # (input, result or None, error or None, seconds, traced)
    refs = []          # reference-loop times around the requests
    rss_mb = None
    deadline = clock() + seconds
    i = 0
    while clock() < deadline:
        inp = next(stream)
        refs.append(calibrate.reference_seconds())
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.request = i
            tracer.install()
        t0 = clock()
        try:
            res, err = request(inp), None
        except Exception:  # a failed request is counted, the loop goes on
            res, err = None, traceback.format_exc(limit=3)
        dt = clock() - t0
        if traced:
            tracer.uninstall()
        done.append((inp, res, err, dt, traced))
        i += 1
        if i == RSS_REQUESTS:
            rss_mb = _peak_rss_mb()
    refs.append(calibrate.reference_seconds())
    # each request's reference time: the mean of the loops on either side
    refs = [(a + b) / 2 for a, b in zip(refs, refs[1:])]

    digest = checks.Digest()
    latencies, ok, traced_flags, first_error = [], [], [], None
    for inp, res, err, dt, traced in done:
        out = None
        if err is None:
            out, err = check(inp, res)
        digest.add(list(inp) if isinstance(inp, tuple) else inp, out)
        if err is not None and first_error is None:
            first_error = f"input {inp!r}: {err}"
        latencies.append(dt)
        ok.append(err is None)
        traced_flags.append(traced)
    doc = {
        "latencies": latencies, "refs": refs, "ok": ok,
        "traced": traced_flags,
        "rss_mb": rss_mb if rss_mb is not None else _peak_rss_mb(),
        "digest": digest.as_dict(), "first_error": first_error,
    }
    if tracer is not None:
        doc["trace"] = tracer.totals()
        doc["trace"]["analyze_cache_entries"] = tracer.analyze_cache_entries()
        if spans_out:
            tracer.write_spans(spans_out)
    return doc


def scaling_one(strands: int, braid):
    """Cold and warm dp time and Burau time for one braid, in this fresh
    process."""
    from tanglex import (alexander_polynomial, alexander_via_burau,
                         base_tables, braid_to_tangle)
    base_tables()
    clock = time.perf_counter
    t0 = clock()
    cold = alexander_polynomial(braid_to_tangle(braid, strands))
    t1 = clock()
    warm = alexander_polynomial(braid_to_tangle(braid, strands))
    t2 = clock()
    oracle = alexander_via_burau(braid, strands)
    t3 = clock()
    agree = cold.alexander == warm.alexander == oracle
    return {"strands": strands, "letters": len(braid), "braid": list(braid),
            "cold_dp_s": t1 - t0, "warm_dp_s": t2 - t1, "burau_s": t3 - t2,
            "agree": agree}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--scaling", type=int, metavar="STRANDS")
    ap.add_argument("--braid")
    args = ap.parse_args()
    if args.scaling is not None:
        braid = tuple(int(x) for x in args.braid.split())
        print(json.dumps(scaling_one(args.scaling, braid)))
        return 0
    if args.workload is None:
        ap.error("--workload or --scaling is required")
    warm, refs, spent = _setup(args.workload, args.seed)
    print("READY", flush=True)
    refs.append(calibrate.reference_seconds(3))
    print(f"REF {statistics.median(refs)!r} {spent!r}", flush=True)
    if args.setup_only:
        return 0
    doc = run_loop(args.workload, args.seed, args.seconds, bool(args.trace),
                   warm, args.spans_out)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
