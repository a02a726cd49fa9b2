"""ratpark benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload solve --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory, never from an installed copy, and the run fails with a nonzero
exit code when those sources are missing.  One process, one closed-loop
caller, no threads: each operation starts when the previous one returns.

``--trace 0`` generates the workload's inputs from the seed, calls the
operations in order for ``--seconds`` seconds, checks every output
afterwards and reports the end-to-end metrics, with times scaled to a
reference host speed (see ``calibration.py``).  ``--trace 1`` ignores
``--seconds``: it replays a fixed number of operations twice, untraced and
then with every layer's public functions wrapped (see ``tracing.py``), and
reports the per-layer metrics; its counts repeat exactly at one seed.
Spans and counts of the traced run are written to ``bench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

COLD_STARTS = 15
# Runs in a fresh interpreter; argv[1] is this directory.  The import is
# timed first, so the probe's own imports do not shorten it.
CHILD = """
import sys, time
before = set(sys.modules)
t0 = time.perf_counter()
import ratpark.cli
seconds = time.perf_counter() - t0
loaded = len(set(sys.modules) - before)
sys.path.insert(0, sys.argv[1])
import statistics, calibration
print(seconds, statistics.median(calibration.probe() for _ in range(7)), loaded)
"""


def _import_library() -> None:
    package = SRC / "ratpark"
    if not (package / "__init__.py").is_file():
        sys.exit(f"bench: ratpark sources not found at {package}")
    sys.path.insert(0, str(SRC))
    import ratpark

    if Path(ratpark.__file__).resolve().parent != package:
        sys.exit(f"bench: imported ratpark from {ratpark.__file__}, not {package}")


def _cold_imports(count: int) -> list[tuple[float, float, int]]:
    """Import time of ``ratpark.cli``, probe time and modules loaded, in
    ``count`` fresh interpreters.

    One extra start runs first and is dropped: it fills the bytecode cache
    that every later CLI invocation finds.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(count + 1):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD, str(BENCH)],
            cwd=ROOT, env=env, check=True, capture_output=True, text=True,
        )
        seconds, probe, loaded = proc.stdout.split()
        out.append((float(seconds), float(probe), int(loaded)))
    return out[1:]


def _percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ratpark").glob("*.py"))
    )


def _describe(workload, tally, results, elapsed: float) -> None:
    print(
        f"workload {workload.name} {workload.size}: {tally.attempted} ops "
        f"in {elapsed:.3f} s, {tally.failed} failed ({tally.wrong} wrong outputs)"
    )
    if len(workload.ops) and tally.attempted > len(workload.ops):
        print(f"  note: the run wrapped around its pool of {len(workload.ops)} ops")
    kinds = Counter(workload.ops[r.op].kind for r in results)
    for kind, count in kinds.most_common():
        print(f"  {kind} x{count} ({count / tally.attempted:.3f})")
    for (error, kind), count in sorted(tally.errors.items()):
        known = "known defect" if error in workload.known_errors else "unexpected"
        print(f"  raised {error} in {kind} x{count} ({known})")


def _print_metrics(metrics: dict) -> None:
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:<24} {entry['unit']}")


def _result(tally, metrics: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _words_per_s(workload, tally, results, seconds: list[float]) -> float:
    """Input words completed correctly per second, for the pool's mix.

    Each op kind's words and seconds per op in the run are weighted by the
    kind's count in the workload's pool, so the rate does not hinge on how
    many of the rare slow inputs a run of a given length reaches.  A run
    that covers whole blocks of a pool with a fixed rotation gets the plain
    ratio of its total words to its total seconds.
    """
    pool = Counter(op.kind for op in workload.ops)
    ran = {}
    for r, ok, t in zip(results, tally.ok, seconds):
        op = workload.ops[r.op]
        n, done, spent = ran.get(op.kind, (0, 0.0, 0.0))
        ran[op.kind] = n + 1, done + (op.words if ok else 0), spent + t
    done = sum(pool[k] * w / n for k, (n, w, _) in ran.items())
    spent = sum(pool[k] * t / n for k, (n, _, t) in ran.items())
    return done / spent


def end_to_end_metrics(words_per_s: float, latencies: list[float], setup_s: float) -> dict:
    """Rate and latencies scaled to reference speed, latencies sorted."""
    values = {
        "words_per_s": (words_per_s, "words/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_timed(workload, seconds: float) -> dict:
    import calibration
    import workloads as wl

    cold = _cold_imports(COLD_STARTS)
    setup = statistics.median(t * calibration.REF_PROBE_S / p for t, p, _ in cold)
    results, elapsed, probes = wl.run_ops(
        workload.ops, seconds, workload.block_ops, wl.MIN_OPS, calibration.probe
    )
    tally = wl.check(workload.ops, results, workload.known_errors)
    raw = [r.seconds for r in results]
    scaled = [t * f for t, f in zip(raw, calibration.scales(probes))]
    latencies = sorted(scaled)
    _describe(workload, tally, results, elapsed)
    # failed_ratio is zero on most workloads, so it travels in the result's
    # attempted and failed fields rather than as a metric
    print(f"  failed_ratio {tally.failed / tally.attempted} ratio")
    # printed, not a metric: on solve the 95th percentile falls on the
    # solver's steep iteration tail, where a run holds only a few inputs
    p95, beyond = _percentile(latencies, 0.95)
    print(f"  op_p95_ms {p95 * 1e3} ms, from {len(latencies)} samples, {beyond} beyond it")
    if beyond < 10:
        print("  warning: fewer than 10 samples beyond op_p95_ms")
    print(
        f"  raw wall clock: words_per_s {_words_per_s(workload, tally, results, raw)}, "
        f"op_p50_ms {statistics.median(raw) * 1e3}, "
        f"op_p95_ms {_percentile(sorted(raw), 0.95)[0] * 1e3}, "
        f"setup_s {statistics.median(t for t, _, _ in cold)}; "
        f"median probe {statistics.median(probes) * 1e3} ms "
        f"(reference {calibration.REF_PROBE_S * 1e3} ms)"
    )
    metrics = end_to_end_metrics(
        _words_per_s(workload, tally, results, scaled), latencies, setup
    )
    _print_metrics(metrics)
    return _result(tally, metrics)


def layer_metrics(
    t, overhead: float, cli_import_s: float, cli_modules: int, src_lines: int
) -> dict:
    iterations = sorted(t.iterations.elements())
    built = t.counts["words.enumerate_words.built"]
    yielded = t.counts["words.enumerate_words.yielded"]
    values = {
        "action.find_fixed_point.calls": (t.calls("action.find_fixed_point"), "count"),
        "action.find_fixed_point.self_s": (t.self_s("action.find_fixed_point"), "s"),
        "action.iterations.total": (t.counts["action.iterations.total"], "count"),
        "action.iterations.p50": (
            statistics.median_low(iterations) if iterations else 0, "count"
        ),
        "action.iterations.max": (max(iterations, default=0), "count"),
        "action.budget_exhausted": (t.counts["action.budget_exhausted"], "count"),
        "action.apply_word.calls": (t.calls("action.apply_word"), "count"),
        "action.apply_word.self_s": (t.self_s("action.apply_word"), "s"),
        "filters.Filter.constructions": (t.calls("filters.Filter"), "count"),
        "filters.minimum_by_residue.calls": (
            t.calls("filters.Filter.minimum_by_residue"), "count"
        ),
        "filters.removable_levels.calls": (t.calls("filters.removable_levels"), "count"),
        "filters.removable_levels.self_s": (t.self_s("filters.removable_levels"), "s"),
        "filters.column_minima.self_s": (t.self_s("filters.column_minima"), "s"),
        "tuples.FilterTuple.constructions": (t.calls("tuples.FilterTuple"), "count"),
        "tuples.FilterTuple.validate_s": (t.total_s("tuples.FilterTuple"), "s"),
        "tuples.tuple_from_rank_word.self_s": (
            t.self_s("tuples.tuple_from_rank_word"), "s"
        ),
        "tuples.tuple_from_area_word.self_s": (
            t.self_s("tuples.tuple_from_area_word"), "s"
        ),
        "tuples.rank_word.self_s": (t.self_s("tuples.rank_word"), "s"),
        "tuples.qt_table.self_s": (t.self_s("tuples.qt_table"), "s"),
        "affine.value_position.calls": (t.calls("affine.value_position"), "count"),
        "affine.pak_stanley.self_s": (t.self_s("affine.pak_stanley"), "s"),
        "affine.tuple_to_window.self_s": (t.self_s("affine.tuple_to_window"), "s"),
        "affine.enumerate_sommers.self_s": (t.self_s("affine.enumerate_sommers"), "s"),
        "sweep.sweep.self_s": (t.self_s("sweep.sweep"), "s"),
        "sweep.sweep_inverse.self_s": (t.self_s("sweep.sweep_inverse"), "s"),
        "words.Word.constructions": (t.calls("words.Word"), "count"),
        "words.enumerate_words.yielded": (yielded, "count"),
        "words.enumerate_words.useful_ratio": (yielded / built if built else 0.0, "ratio"),
        "words.enumerate_words.self_s": (t.self_s("words.enumerate_words"), "s"),
        "verify.run_verify.self_s": (t.self_s("verify.run_verify"), "s"),
        "verify.assertions": (t.counts["verify.assertions"], "count"),
        "cli.import_s": (cli_import_s, "s"),
        "cli.modules": (cli_modules, "count"),
        "src.lines": (src_lines, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (len(t.spans), "count"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_traced(workload, seed: int) -> dict:
    import workloads as wl
    from tracing import Tracer

    cold = _cold_imports(5)
    ops = workload.ops[: workload.trace_ops]
    plain, plain_s, _ = wl.run_ops(ops, 0, len(ops), len(ops))
    tracer = Tracer()
    tracer.install()
    origin = time.perf_counter()
    try:
        traced, traced_s, _ = wl.run_ops(
            ops, 0, len(ops), len(ops), on_op=lambda i: setattr(tracer, "op", i)
        )
    finally:
        tracer.uninstall()
    plain_tally = wl.check(ops, plain, workload.known_errors)
    tally = wl.check(ops, traced, workload.known_errors)
    _describe(workload, tally, traced, traced_s)
    print(f"  untraced pass {plain_s:.3f} s, traced pass {traced_s:.3f} s")
    metrics = layer_metrics(
        tracer,
        traced_s / plain_s,
        statistics.median(t for t, _, _ in cold),
        cold[0][2],
        _src_lines(),
    )
    _print_metrics(metrics)

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    tracer.write(stem.with_suffix(".spans.jsonl"), origin)
    stem.with_suffix(".counts.json").write_text(
        json.dumps(
            {
                "iteration_histogram": sorted(tracer.iterations.items()),
                "counts": dict(sorted(tracer.counts.items())),
                "stats": dict(sorted(tracer.stats.items())),
            },
            indent=1,
        )
    )
    print(f"  spans written to {stem.with_suffix('.spans.jsonl').relative_to(ROOT)}")
    result = _result(tally, metrics)
    result["correct"] = plain_tally.correct and tally.correct
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("solve", "forward", "escape", "exhaustive")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = run_traced(workload, args.seed)
    else:
        result = run_timed(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
