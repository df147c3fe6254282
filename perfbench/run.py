"""tanglex benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --scaling [--seed N]

Run from the root of a tanglex checkout; the library is imported from its
``src`` directory.  A workload run measures for S seconds, checks every
output, prints a human-readable summary and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones from a run in which every other request is traced.  A record
of the run (machine, workload, digests, every metric) and, when traced, the
spans are written under perfbench/out/.

``--scaling`` prints the ungated strand-scaling table instead: cold dp, warm
dp and Burau time for one knot braid per strand count 2..9.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import random
import subprocess
import sys
import tempfile
import threading
import time

import calibrate
import checks
import gen
import workloads as wl
from spans import COUNTERS, MAX_SPANS, SPAN_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PY = sys.executable

# a child that runs longer than this is killed and its request fails
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics in the result line: every count, and the self time of
# the layers that all three workloads call, so that no reported time is 0
# only because a workload skips that layer.  The other self times are
# printed in the summary and kept in the run record.
PER_LAYER_UNITS = {
    **{f"{name}.calls": "calls/req" for name in (
        "tangle.parse", "tangle.analyze", "statesum.evaluate_dp",
        "statesum.expand_states", "diagram.dotted_class",
        "diagram.canonical_rep", "diagram.glue_evaluate",
        "diagram.coordinates", "laurent.mul", "laurent.add",
        "oracle.alexander_via_burau")},
    **{name: "count/req" for name in COUNTERS},
    "tangle.analyze.cache_entries": "count",
    **{f"{name}.self_ms": "ms/req" for name in (
        "tangle.analyze", "statesum.evaluate_dp", "laurent.mul",
        "laurent.add")},
    "trace.overhead_ratio": "ratio",
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_at_start": list(os.getloadavg())}


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile; failed requests are +inf."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    x = (len(s) - 1) * p / 100
    lo = math.floor(x)
    hi = min(lo + 1, len(s) - 1)
    if math.isinf(s[hi]):
        return s[hi]
    return s[lo] + (s[hi] - s[lo]) * (x - lo)


def median(values):
    return percentile(values, 50)


# ---------------------------------------------------------------------------
# child processes


def _spawn(cmd):
    """Start a child whose stderr goes to a temporary file; returns the
    process, the file, and a timer that kills the child after
    CHILD_TIMEOUT_S."""
    err = tempfile.TemporaryFile(dir=OUT)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                            env=child_env(), cwd=ROOT, text=True)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    return proc, err, timer


def _reap(proc, err, timer):
    """Read the child's remaining stdout, wait for it, and return
    (exit code, stdout, stderr text, peak RSS in MB)."""
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
    err.seek(0)
    msg = err.read().decode(errors="replace")
    err.close()
    return proc.returncode, out, msg, usage.ru_maxrss / 1024


def _worker_cmd(workload, seed, seconds=0.0, trace=0, setup_only=False,
                spans_out=None):
    cmd = [PY, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    return cmd


def _start_worker(cmd):
    """Spawn a worker and wait for its READY and REF lines; returns the
    handles, the set-up time in seconds and the worker's reference time."""
    t0 = time.perf_counter()
    handles = _spawn(cmd)
    line = handles[0].stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() == "READY":
        line = handles[0].stdout.readline()
        if line.startswith("REF "):
            _, ref, spent = line.split()
            return handles, setup - float(spent), float(ref)
    code, out, msg, _ = _reap(*handles)
    raise BenchError(f"worker set-up failed (exit {code}): "
                     f"{(line + out)[-500:]} {msg[-2000:]}")


def measure_setups(workload, seed, repeats) -> list:
    """Set-up times of ``repeats`` set-up-only workers, as (raw seconds,
    reference time)."""
    samples = []
    for _ in range(repeats):
        handles, setup, ref = _start_worker(
            _worker_cmd(workload, seed, setup_only=True))
        code, _, msg, _ = _reap(*handles)
        if code != 0:
            raise BenchError(f"set-up child exited {code}: {msg[-2000:]}")
        samples.append((setup, ref))
    return samples


# ---------------------------------------------------------------------------
# workloads


def _cold_check(code, out, msg):
    """The parsed CLI output, and why the request failed (or None)."""
    if code != 0:
        last = msg.strip().splitlines()[-1:] or [""]
        return None, f"exit {code}: {last[0][:300]}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return None, f"not JSON: {out[:200]!r}"
    if not isinstance(doc, dict) or doc.get("oracle_agrees") is not True:
        return doc, "oracle_agrees is not true"
    return doc, checks.knot_polynomial_problem(doc.get("alexander"))


def _split_ref(msg):
    """A CLI child's stderr without its last ``perfbench-ref`` line, the
    reference time and the seconds spent on it.  A child that did not get
    that far is not scaled."""
    head, _, last = msg.rstrip("\n").rpartition("\n")
    if last.startswith("perfbench-ref "):
        _, ref, spent = last.split()
        return head, float(ref), float(spent)
    return msg, calibrate.REFERENCE_NOMINAL_S, 0.0


def _add_totals(acc, tdoc):
    for part in ("calls", "self_ns", "counts"):
        for k, v in tdoc[part].items():
            acc[part][k] = acc[part].get(k, 0) + v
    for part in ("spans", "dropped_spans"):
        acc[part] = acc.get(part, 0) + tdoc[part]


def run_cold(seed, seconds, trace, spans_path):
    """knot-cli-cold: one CLI process per request.  The request's latency
    runs from just before the spawn until the child has been reaped, less
    the time the child spent on its reference loop."""
    workload = "knot-cli-cold"
    stream = wl.knot_braids(workload, seed, "timed")
    digest = checks.Digest()
    lat, refs, ok, traced_flags, rss = [], [], [], [], []
    totals = {"calls": {}, "self_ns": {}, "counts": {}}
    startups, cache_entries = [], []
    first_error = None
    script = os.path.join(HERE, "cli_child.py")
    trace_file = os.path.join(OUT, f"cli-trace-{os.getpid()}.json")
    span_fh = open(spans_path, "w") if trace else None
    try:
        deadline = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < deadline:
            braid = next(stream)
            args = ["alexander", "--braid", " ".join(map(str, braid)),
                    "--strands", str(wl.KNOT_STRANDS), "--oracle",
                    "--format", "json"]
            traced = bool(trace) and i % 2 == 1
            t0 = time.perf_counter()
            if traced:
                cmd = [PY, script, "--trace-out", trace_file,
                       str(time.monotonic_ns())] + args
            else:
                cmd = [PY, script] + args
            code, out, msg, child_rss = _reap(*_spawn(cmd))
            dt = time.perf_counter() - t0
            msg, ref, spent = _split_ref(msg)
            refs.append(ref)
            dt -= spent
            doc, err = _cold_check(code, out, msg)
            if traced and err is None:
                with open(trace_file) as fh:
                    tdoc = json.load(fh)
                room = max(MAX_SPANS - totals.get("spans", 0), 0)
                kept = tdoc.pop("span_list")[:room]
                for span in kept:
                    span[0] = i
                    span_fh.write(json.dumps(span) + "\n")
                tdoc["dropped_spans"] += tdoc["spans"] - len(kept)
                tdoc["spans"] = len(kept)
                _add_totals(totals, tdoc)
                startups.append(tdoc["startup_ns"] / 1e6)
                cache_entries.append(tdoc["analyze_cache_entries"])
            digest.add(list(braid), doc)
            if err is not None and first_error is None:
                first_error = f"braid {braid}: {err}"
            lat.append(dt)
            ok.append(err is None)
            traced_flags.append(traced)
            rss.append(child_rss)
            i += 1
    finally:
        if span_fh is not None:
            span_fh.close()
        if os.path.exists(trace_file):
            os.remove(trace_file)
    doc = {"latencies": lat, "refs": refs, "ok": ok, "traced": traced_flags,
           "rss_mb": median(rss), "digest": digest.as_dict(),
           "first_error": first_error}
    if trace:
        totals["analyze_cache_entries"] = median(cache_entries or [0])
        totals["startup_ms"] = median(startups or [0])
        doc["trace"] = totals
    return doc


def run_in_worker(workload, seed, seconds, trace, spans_path):
    """knot-batch-warm / tangle-vector-both: one long-lived worker process;
    its READY line ends set-up, so its own set-up time is one more
    sample."""
    handles, setup, ref = _start_worker(_worker_cmd(
        workload, seed, seconds, trace, spans_out=spans_path if trace else None))
    code, out, msg, _ = _reap(*handles)
    if code != 0:
        raise BenchError(f"worker exited {code}: {msg[-2000:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup"] = (setup, ref)
    return doc


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, doc, setups):
    """End-to-end metrics as (scaled, raw), name -> value.  Scaled times
    are corrected for the host's speed by the reference loop (see
    calibrate.py).  Throughput is completed requests per second spent inside
    requests; a failed request counts as infinitely slow in the latency
    percentiles."""
    tail = wl.WORKLOADS[workload]["tail_percentile"]

    def metrics(latencies, setup_times):
        lat = [dt if good else math.inf
               for dt, good in zip(latencies, doc["ok"])]
        return {
            "throughput_rps": sum(doc["ok"]) / sum(latencies),
            "latency_p50_ms": median(lat) * 1e3,
            "latency_tail_ms": percentile(lat, tail) * 1e3,
            "setup_s": median(setup_times),
            "peak_rss_mb": doc["rss_mb"],
        }

    raw_setups = [t for t, _ in setups]
    scaled_setups = calibrate.scaled(raw_setups, [r for _, r in setups])
    return (metrics(calibrate.scaled(doc["latencies"], doc["refs"]),
                    scaled_setups),
            metrics(doc["latencies"], raw_setups))


def per_layer(doc):
    """Every per-layer metric of a traced run, name -> (value, unit).
    Calls, self times and return-value counts are per traced request."""
    t = doc["trace"]
    traced = [dt for dt, tr in zip(doc["latencies"], doc["traced"]) if tr]
    untraced = [dt for dt, tr in zip(doc["latencies"], doc["traced"])
                if not tr]
    n = max(len(traced), 1)
    every = {}
    for name in SPAN_NAMES:
        every[f"{name}.calls"] = (t["calls"].get(name, 0) / n, "calls/req")
        every[f"{name}.self_ms"] = (t["self_ns"].get(name, 0) / n / 1e6,
                                    "ms/req")
    for name in COUNTERS:
        every[name] = (t["counts"].get(name, 0) / n, "count/req")
    every["tangle.analyze.cache_entries"] = (t["analyze_cache_entries"],
                                             "count")
    if "startup_ms" in t:
        every["cli.startup_ms"] = (t["startup_ms"], "ms")
    ratio = 0.0
    if traced and untraced:
        ratio = (len(traced) / sum(traced)) / (len(untraced) / sum(untraced))
    every["trace.overhead_ratio"] = (ratio, "ratio")
    return every


# ---------------------------------------------------------------------------
# entry points


def run_workload(args) -> int:
    workload = args.workload
    w = wl.WORKLOADS[workload]
    info = machine_info()
    stamp = f"{workload}-s{args.seed}-t{args.trace}"
    spans_path = os.path.join(OUT, f"spans-{stamp}.jsonl")
    print(f"# {workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    if workload == "knot-cli-cold":
        setups = measure_setups(workload, args.seed, w["setup_repeats"])
        doc = run_cold(args.seed, args.seconds, args.trace, spans_path)
    else:
        setups = measure_setups(workload, args.seed, w["setup_repeats"] - 1)
        doc = run_in_worker(workload, args.seed, args.seconds, args.trace,
                            spans_path)
        setups.append(doc["setup"])
    attempted = len(doc["ok"])
    failed = attempted - sum(doc["ok"])
    if attempted == 0:
        raise BenchError("no request completed")
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "machine": info,
              "config": w, "attempted": attempted, "failed": failed,
              "failed_ratio": failed / attempted, "digest": doc["digest"],
              "first_error": doc["first_error"],
              "setup_samples_s": setups}
    n_tail = attempted - math.ceil(attempted * w["tail_percentile"] / 100)
    if args.trace:
        every = per_layer(doc)
        record["per_layer"] = every
        metrics = {k: every[k][0] for k in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
        for k, (v, unit) in sorted(every.items()):
            if k in metrics or v:
                print(f"  {k:40s} {v:14.4f} {unit}")
        print(f"# spans: {doc['trace']['spans']} kept, "
              f"{doc['trace']['dropped_spans']} dropped -> {spans_path}")
    else:
        metrics, raw = end_to_end(workload, doc, setups)
        record["end_to_end"] = metrics
        record["end_to_end_raw"] = raw
        record["latencies_s"] = doc["latencies"]
        record["reference_s"] = doc["refs"]
        units = END_TO_END_UNITS
        print(f"  {'metric':40s} {'scaled':>14s} {'raw':>14s}")
        for k, v in metrics.items():
            print(f"  {k:40s} {v:14.4f} {raw[k]:14.4f} {units[k]}")
        print(f"  {'reference_loop_ms (median)':40s} "
              f"{median(doc['refs']) * 1e3:14.4f}")
        print(f"  {'failed_ratio':40s} {failed / attempted:14.4f} ratio")
    print(f"# requests: {attempted} attempted, {failed} failed; tail = "
          f"p{w['tail_percentile']} with {n_tail} samples beyond it")
    print(f"# digest: {json.dumps(doc['digest'])}")
    if doc["first_error"]:
        print(f"# first failure: {doc['first_error']}")
    with open(os.path.join(OUT, f"run-{stamp}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_scaling(seed) -> int:
    """One cold and one warm dp evaluation per strand count 2..9, each in a
    fresh worker, with the Burau oracle on the same braid."""
    print(f"{'n':>2} {'letters':>7} {'cold dp s':>10} {'warm dp s':>10} "
          f"{'burau s':>9}  agree")
    rows = []
    for n in range(2, 10):
        braid = gen.knot_braid(random.Random(f"scaling/{seed}/{n}"), n,
                               gen.knot_length(n))
        cmd = [PY, os.path.join(HERE, "worker.py"), "--scaling", str(n),
               "--braid", " ".join(map(str, braid))]
        code, out, msg, _ = _reap(*_spawn(cmd))
        if code != 0:
            raise BenchError(f"scaling child exited {code}: {msg[-2000:]}")
        row = json.loads(out.strip().splitlines()[-1])
        rows.append(row)
        print(f"{n:>2} {row['letters']:>7} {row['cold_dp_s']:>10.3f} "
              f"{row['warm_dp_s']:>10.3f} {row['burau_s']:>9.3f}  "
              f"{row['agree']}", flush=True)
    with open(os.path.join(OUT, f"scaling-s{seed}.json"), "w") as fh:
        json.dump({"machine": machine_info(), "seed": seed, "rows": rows},
                  fh, indent=1)
    return 0 if all(r["agree"] for r in rows) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scaling", action="store_true",
                    help="print the strand-scaling table instead")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "tanglex", "__init__.py")):
        print(f"error: no tanglex sources under {SRC}; run from the root of "
              f"a tanglex checkout", file=sys.stderr)
        return 2
    if not args.scaling and args.workload is None:
        ap.error("--workload is required")
    os.makedirs(OUT, exist_ok=True)
    # byte-compile once, as an installed package would be, so no timed
    # request pays for compiling the library
    if not compileall.compile_dir(os.path.join(SRC, "tanglex"), quiet=1):
        print("error: tanglex sources do not compile", file=sys.stderr)
        return 2
    try:
        return run_scaling(args.seed) if args.scaling else run_workload(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
