"""One knot-cli-cold request: ``python3 cli_child.py <tanglex CLI args>``.

Untraced, it does what the ``tanglex`` console script does: import
``tanglex.cli`` and call ``main``.  Traced, it is started as
``cli_child.py --trace-out PATH SPAWN_NS <CLI args>``: it records the time
from ``SPAWN_NS`` (the parent's ``time.monotonic_ns()`` just before the spawn)
until ``tanglex.cli`` is imported, installs the span wrappers, calls the
wrapped ``main``, and writes its totals and spans to PATH as JSON.  Either
way its last act is to time the reference loop of calibrate.py and print
``perfbench-ref <reference seconds> <seconds spent on it>`` on stderr.
"""

import json
import sys
import time

import calibrate


def request() -> int:
    argv = sys.argv[1:]
    if argv[:1] != ["--trace-out"]:
        import tanglex.cli
        return tanglex.cli.main(argv)
    out_path, spawn_ns, argv = argv[1], int(argv[2]), argv[3:]
    import tanglex.cli
    startup_ns = time.monotonic_ns() - spawn_ns
    import spans
    # the parent keeps at most spans.MAX_SPANS spans over all children
    tracer = spans.Tracer(max_spans=spans.MAX_SPANS // 10)
    tracer.install()
    try:
        rc = tanglex.cli.main(argv)
    finally:
        tracer.uninstall()
        doc = tracer.totals()
        doc["startup_ns"] = startup_ns
        doc["analyze_cache_entries"] = tracer.analyze_cache_entries()
        doc["span_list"] = tracer.spans
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return rc


def main() -> int:
    rc = request()
    sys.stdout.flush()
    # the parent scales this request's time by the reference time and
    # subtracts the time spent measuring it
    t0 = time.perf_counter()
    ref = calibrate.reference_seconds(3)
    spent = time.perf_counter() - t0
    print(f"perfbench-ref {ref!r} {spent!r}", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
