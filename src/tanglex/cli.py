"""Command line interface.

Commands:
  alexander  print delta, the turning number, and the normalized Alexander
             polynomial of a 2-endpoint tangle; --oracle compares against the
             Burau determinant value when the input is a braid (any closure,
             knot or link).
  vector     print the tangle invariant in canonical coordinates.
  check      run the identity suite of tanglex.checks (tables, dotted
             equivalence, R1/R2/R3, skein, negligibility, Gram matrices),
             --dims N dimension counts (N at most 14: every basis up to
             Motzkin(N) diagrams is enumerated), and a chained
             move-invariance walk of --fuzz moves (default 25).  A failed
             identity, or a ConsistencyError the library raises while
             checking, is a FAIL row.

Exit codes: 0 ok, 1 check-suite failure, 2 bad input (including a negative
--dims or --fuzz, or --dims above 14), 3 evaluator mismatch (--evaluator
both: the dp and naive class vectors differ, for alexander as for vector),
4 oracle mismatch, 5 internal error (alexander or vector: a ConsistencyError
the library raised while evaluating, such as a 2-endpoint class vector whose
two coordinates differ, which is how a wrong delta shows on any evaluator;
alexander --oracle: an OracleError, such as a result without the closure's
q -> q^-1 parity, or a non-exact division, raised by the Burau oracle).
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagram import ConsistencyError
from .tangle import MorseWord, TangleError, braid_to_tangle, parse
from .invariant import (EvaluatorMismatchError, alexander_polynomial,
                        tangle_invariant)
from . import oracle as oracle_mod

(OK, FAIL, BAD_INPUT, EVAL_MISMATCH, ORACLE_MISMATCH,
 INTERNAL_ERROR) = 0, 1, 2, 3, 4, 5


def _load_word(args) -> tuple[MorseWord, list | None]:
    """The input word, and the braid word when the input is --braid."""
    sources = [s for s in (args.text, args.file, args.braid) if s is not None]
    if len(sources) != 1:
        raise TangleError("give exactly one of --text, --file, --braid")
    if args.text is not None:
        return parse(args.text), None
    if args.file is not None:
        with open(args.file) as fh:
            return parse(fh.read()), None
    # items are separated by commas or spaces; an empty item between two
    # commas or beside a comma at either end is refused, not skipped
    items = args.braid.split(",")
    empty = [i for i, item in enumerate(items, 1) if not item.strip()]
    if len(items) > 1 and empty:
        raise TangleError(f"--braid {args.braid!r}: item {empty[0]} is empty")
    braid = [int(x) for item in items for x in item.split()]
    if args.strands is None:
        raise TangleError("--braid requires --strands")
    return braid_to_tangle(braid, args.strands), braid


def cmd_alexander(args) -> int:
    try:
        word, braid = _load_word(args)
    except (TangleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    try:
        res = alexander_polynomial(word, args.evaluator)
    except EvaluatorMismatchError as exc:
        print(f"evaluator mismatch: {exc}", file=sys.stderr)
        return EVAL_MISMATCH
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except TangleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT

    oracle_val = None
    oracle_note = None
    if args.oracle:
        if braid is None:
            oracle_note = "oracle unavailable: needs --braid input"
        else:
            try:
                oracle_val = oracle_mod.alexander_via_burau(braid, args.strands)
            except (oracle_mod.OracleError, ValueError) as exc:
                # the braid was read and evaluated already, so a failed
                # parity check or a non-exact division is the oracle's fault
                print(f"internal error: oracle: {exc}", file=sys.stderr)
                return INTERNAL_ERROR

    if args.format == "json":
        doc = {"delta": res.delta.to_json(), "tau": res.tau,
               "alexander": res.alexander.to_json()}
        if oracle_val is not None:
            doc["oracle"] = oracle_val.to_json()
            doc["oracle_agrees"] = oracle_val == res.alexander
        if oracle_note:
            doc["oracle_note"] = oracle_note
        print(json.dumps(doc))
    else:
        print(f"delta     = {res.delta}")
        print(f"tau       = {res.tau}")
        print(f"alexander = {res.alexander}")
        if oracle_val is not None:
            verdict = "AGREE" if oracle_val == res.alexander else "MISMATCH"
            print(f"oracle    = {oracle_val}  [{verdict}]")
        elif oracle_note:
            print(oracle_note)
    if oracle_val is not None and oracle_val != res.alexander:
        return ORACLE_MISMATCH
    return OK


def cmd_vector(args) -> int:
    try:
        word, _ = _load_word(args)
        cv = tangle_invariant(word, args.evaluator)
    except EvaluatorMismatchError as exc:
        print(f"evaluator mismatch: {exc}", file=sys.stderr)
        return EVAL_MISMATCH
    except ConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except (TangleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    if args.format == "json":
        print(json.dumps(cv.to_json()))
    else:
        print(str(cv))
    return OK


def cmd_check(args) -> int:
    # imported here: the suite parses its words on import, which alexander
    # and vector never need
    from . import checks
    suite = list(checks.SUITE)
    if args.dims:
        suite.append(("dimensions", lambda: checks.dimensions(args.dims)))
    suite.append(("move-fuzz", lambda: checks.move_fuzz(args.fuzz, args.seed)))
    failures = 0
    rows = []
    for name, fn in suite:
        try:
            rows.append({"name": name, "ok": True, "detail": fn()})
        except (checks.CheckFailed, ConsistencyError) as exc:
            failures += 1
            rows.append({"name": name, "ok": False, "detail": str(exc)})
    if args.format == "json":
        print(json.dumps({"ok": failures == 0, "checks": rows}))
    else:
        for row in rows:
            mark = "PASS" if row["ok"] else "FAIL"
            print(f"{mark} {row['name']}: {row['detail']}")
    return OK if failures == 0 else FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="tanglex",
        description="State-sum Alexander invariants of oriented tangles")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_input_flags(p):
        p.add_argument("--text", help="tangle word, e.g. 'bottom 1 up; ...'")
        p.add_argument("--file", help="file containing a tangle word")
        p.add_argument("--braid", help="braid word, e.g. '1 1 1'")
        p.add_argument("--strands", type=int, help="braid strand count")
        p.add_argument("--evaluator", choices=("naive", "dp", "both"),
                       default="dp")
        p.add_argument("--format", choices=("text", "json"), default="text")

    pa = sub.add_parser("alexander", help="Alexander polynomial of a closure")
    add_input_flags(pa)
    pa.add_argument("--oracle", action="store_true",
                    help="compare against the Burau determinant oracle")
    pa.set_defaults(fn=cmd_alexander)

    pv = sub.add_parser("vector", help="tangle invariant in canonical basis")
    add_input_flags(pv)
    pv.set_defaults(fn=cmd_vector)

    def count(text):
        n = int(text)
        if n < 0:
            raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
        return n

    def dims(text):
        # refused before enumerating: dimensions(14) builds every basis up to
        # Motzkin(14) = 113,634 diagrams in 4-5 s and 148 MB, and each step
        # up multiplies that by almost 3
        n = count(text)
        if n > 14:
            raise argparse.ArgumentTypeError(f"must be 14 or less, not {n}")
        return n

    pc = sub.add_parser("check", help="run the identity suites")
    pc.add_argument("--dims", type=dims, default=0,
                    help="also verify dimension counts up to n (at most 14)")
    pc.add_argument("--fuzz", type=count, default=25,
                    help="number of random moves in the invariance walk "
                         "(default 25)")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
