"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 internal
inconsistency, 4 internal error (any other exception, such as a
``MemoryError`` or a library bug), 141 silently when the reader closes
stdout early (128 + SIGPIPE).  All output is deterministic for identical
inputs; suite timings are printed only on request.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import serialize
from .action import Cycle, Diverged, Fixed, find_fixed_point
from .affine import (
    anderson,
    in_sommers,
    mn_swap_dominant,
    pak_stanley,
)
from .errors import InternalInconsistency, RatparkError
from .filters import dyck_filter_to_path, filter_from_path
from .sweep import sweep, sweep_inverse
from .tuples import area, dinv, qt_table, zeta, zeta_inverse
from .words import Word, classify, enumerate_words


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratpark",
        description="rational parking-function combinatorics, exact integers only",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        return p

    p = add("enumerate", "list words of a given kind in lexicographic order")
    p.add_argument("--kind", choices=("all", "parking", "dyck"), default="parking")
    p.add_argument("--json", action="store_true")

    p = add("classify", "fixed-point trichotomy of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")

    p = add("fixed-point", "run the orbit solver on a word")
    p.add_argument("--word", required=True)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = add("zeta", "area-to-rank relabeling of a parking word")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")

    p = add("zeta-inv", "inverse relabeling, via the fixed point")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")

    p = add("stats", "area and dinv of a parking word")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")

    p = add("qt-table", "joint (area, dinv) counts")
    p.add_argument("--over", choices=("parking", "dyck"), default="parking")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("sweep", "sort the steps of a Dyck path by level")
    p.add_argument("--path", required=True, help="step string over N and W")
    p.add_argument("--json", action="store_true")

    p = add("sweep-inv", "invert the sweep of a Dyck path")
    p.add_argument("--path", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("affine", help="labelings and membership for windows")
    p.add_argument("--window", required=True, help="comma-separated window entries")
    p.add_argument("--m", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--pak-stanley", action="store_true")
    group.add_argument("--anderson", action="store_true")
    group.add_argument("--sommers-check", action="store_true")
    group.add_argument("--swap", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="replay reference tables and property suites")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument(
        "--paper",
        action="store_true",
        help="run only the published-table fixtures",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--json", action="store_true")

    return parser


def _emit(payload, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _word_arg(args) -> Word:
    return serialize.word_from_text(args.word, args.m, args.n)


def _run(args) -> int:
    if args.command == "enumerate":
        # streamed; the JSON form is byte-identical to json.dumps of the list
        words = enumerate_words(args.m, args.n, args.kind)
        if args.json:
            sep = "["
            for w in words:
                print(sep + json.dumps(serialize.word_to_json(w)), end="")
                sep = ", "
            print("[]" if sep == "[" else "]")
        else:
            for w in words:
                print(w)
        return 0

    if args.command == "classify":
        outcome = classify(_word_arg(args))
        _emit({"classification": outcome.value}, args.json, outcome.value)
        return 0

    if args.command == "fixed-point":
        report = find_fixed_point(_word_arg(args), max_iterations=args.max_iter)
        out = report.outcome
        if isinstance(out, Fixed):
            payload = {"outcome": "fixed", "point": serialize.point_to_json(out.point)}
            text = "fixed " + ",".join(str(c) for c in out.point.coords)
        elif isinstance(out, Diverged):
            payload = {"outcome": "diverged", "step": out.step, "norm": out.norm}
            text = f"diverged at application {out.step} with norm {out.norm}"
        else:
            assert isinstance(out, Cycle)
            payload = {
                "outcome": "cycle",
                "period": out.period,
                "witness": serialize.point_to_json(out.witness),
            }
            text = f"cycle of period {out.period}"
        payload["iterations"] = report.iterations
        payload["applications"] = report.applications
        _emit(payload, args.json, text)
        return 0

    if args.command in ("zeta", "zeta-inv"):
        w = _word_arg(args)
        image = zeta(w) if args.command == "zeta" else zeta_inverse(w)
        _emit(serialize.word_to_json(image), args.json, str(image))
        return 0

    if args.command == "stats":
        w = _word_arg(args)
        payload = {"area": area(w), "dinv": dinv(w)}
        _emit(payload, args.json, f"area {payload['area']} dinv {payload['dinv']}")
        return 0

    if args.command == "qt-table":
        table = qt_table(args.m, args.n, args.over)
        if args.format == "json":
            print(json.dumps(serialize.qt_table_to_json(table), sort_keys=True))
        else:
            sys.stdout.write(table.to_csv())
        return 0

    if args.command in ("sweep", "sweep-inv"):
        d = filter_from_path(args.m, args.n, args.path.strip().upper())
        result = sweep(d) if args.command == "sweep" else sweep_inverse(d)
        steps, levels = dyck_filter_to_path(result)
        payload = {
            "row_minima": list(result.row_minima),
            "steps": steps,
            "step_levels": list(levels),
        }
        text = "\n".join(
            [steps, ",".join(str(v) for v in levels),
             "row minima " + ",".join(str(v) for v in result.row_minima)]
        )
        _emit(payload, args.json, text)
        return 0

    if args.command == "affine":
        w = serialize.window_from_text(args.window)
        if args.sommers_check:
            ok = in_sommers(w, args.m)
            _emit({"in_sommers": ok}, args.json, "yes" if ok else "no")
            return 0
        if args.swap:
            swapped = mn_swap_dominant(w, args.m)
            _emit(
                serialize.window_to_json(swapped),
                args.json,
                ",".join(str(v) for v in swapped.window),
            )
            return 0
        label = anderson(w, args.m) if args.anderson else pak_stanley(w, args.m)
        _emit(serialize.word_to_json(label), args.json, str(label))
        return 0

    if args.command == "verify":
        # the one function-level import: only this command loads the
        # suites and the reference tables
        from .verify import DEFAULT_PAIRS, format_report, run_verify

        if (args.m is None) != (args.n is None):
            print("verify needs both --m and --n, or neither", file=sys.stderr)
            return 2
        pairs = ((args.m, args.n),) if args.m is not None else DEFAULT_PAIRS
        report = run_verify(
            pairs=pairs, reference_only=args.paper, seed=args.seed
        )
        if args.json:
            payload = {
                "ok": report.ok,
                "passed": report.passed,
                "failed": report.failed,
                "suites": [
                    {
                        "name": s.name,
                        "passed": s.passed,
                        "failed": s.failed,
                        "first_failure": s.first_failure,
                        **({"seconds": round(s.seconds, 3)} if args.timings else {}),
                    }
                    for s in report.suites
                ],
            }
            print(json.dumps(payload, sort_keys=True))
        else:
            print(format_report(report, timings=args.timings))
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled command {args.command}")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: the flush at exit goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except InternalInconsistency as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3
    except RatparkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # not 1: that code means a verify suite failed
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
