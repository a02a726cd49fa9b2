"""Self-tests of the benchmark: input generators, expected outputs, tracing.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs as gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

from ratpark import (  # noqa: E402
    IterationBudgetExhausted,
    anderson_inverse,
    enumerate_sommers,
    enumerate_words,
    filter_from_path,
    in_sommers,
    is_parking_word,
    pak_stanley,
    word,
    zeta,
)
from ratpark.sweep import sweep  # noqa: E402

SIZES = [(3, 5), (5, 3), (4, 7), (13, 21), (50, 77)]


@pytest.mark.parametrize("m,n", SIZES)
def test_exactly_one_letter_shift_is_parking(m, n):
    rng = random.Random(m * 1000 + n)
    for _ in range(100):
        letters = tuple(rng.randrange(m) for _ in range(n))
        shifts = [tuple((x + c) % m for x in letters) for c in range(m)]
        parking = [w for w in shifts if is_parking_word(word(m, n, w))]
        assert len(parking) == 1
        assert gen.parking_shifts(m, n, letters) == parking


@pytest.mark.parametrize("m,n", SIZES)
def test_exactly_one_path_rotation_is_dyck(m, n):
    rng = random.Random(m * 1000 + n)
    for _ in range(50):
        steps = ["N"] * m + ["W"] * n
        rng.shuffle(steps)
        assert len(gen.path_rotations(m, n, "".join(steps))) == 1
        path = gen.dyck_path(rng, m, n)
        assert gen.path_rotations(m, n, path) == [path]
        assert filter_from_path(m, n, path).row_minima == gen.row_minima_from_columns(
            m, n, gen.path_columns(m, n, path)
        )


def test_near_miss_words_are_not_parking():
    m, n = 13, 21
    rng = random.Random(7)
    thresholds = set()
    for _ in range(300):
        letters = gen.near_miss_word(rng, m, n)
        thresholds.add(gen.broken_threshold(m, n, letters))
        assert not is_parking_word(word(m, n, letters))
        # lowering one letter far enough makes it parking again
        assert any(
            gen.is_parking(m, n, letters[:j] + (0,) + letters[j + 1:]) for j in range(n)
        )
    # every threshold that ESCAPE_SHARES names is drawn
    assert thresholds == set(wl.ESCAPE_SHARES)


def test_stratified_keeps_the_shares_in_every_prefix():
    shares = {"a": 70, "b": 25, "c": 5}

    def stratum(x):
        return "a" if x < 0.7 else "b" if x < 0.95 else "c"

    drawn = gen.stratified(random.Random(1), random.Random.random, stratum, shares, 200)
    kinds = [k for k, _ in drawn]
    assert kinds[:3] == ["a", "b", "c"]
    for n in range(10, 201, 10):
        for k, w in shares.items():
            assert abs(kinds[:n].count(k) - n * w / 100) <= 2
    assert all(stratum(x) == k for k, x in drawn)


def test_words_per_s_weights_each_kind_by_its_pool_count():
    ops = [wl.Op("slow", None, None, 1)] + [wl.Op("fast", None, None, 1)] * 3
    workload = wl.Workload("w", "", ops, 1, 1)
    # the run reached the slow op twice and a fast one once
    results = [wl.Result(0, 4.0, None, None)] * 2 + [wl.Result(1, 1.0, None, None)]
    tally = wl.Tally(3, 0, 0, 0, [True] * 3, None)
    rate = run._words_per_s(workload, tally, results, [r.seconds for r in results])
    assert rate == pytest.approx((1 + 3) / (1 * 4.0 + 3 * 1.0))


@pytest.mark.parametrize("m,n", [(3, 5), (5, 3), (4, 5), (5, 4)])
def test_expected_outputs_match_the_library_exhaustively(m, n):
    parking = gen.all_parking(m, n)
    assert parking == [w.letters for w in enumerate_words(m, n, "parking")]
    windows = [gen.sommers_window(m, n, u) for u in parking]
    assert windows == [w.window for w in enumerate_sommers(m, n)]
    for u, win in zip(parking, windows):
        aff = anderson_inverse(word(m, n, u))
        assert aff.window == win
        assert gen.in_sommers(m, win) and in_sommers(aff, m)
        assert zeta(word(m, n, u)).letters == gen.zeta_letters(m, n, u)
        assert pak_stanley(aff, m).letters == gen.zeta_letters(m, n, u)


@pytest.mark.parametrize("m,n", [(4, 7), (13, 21), (50, 77)])
def test_expected_outputs_match_the_library_on_samples(m, n):
    rng = random.Random(3)
    for _ in range(5):
        u = gen.parking_word(rng, m, n)
        assert zeta(word(m, n, u)).letters == gen.zeta_letters(m, n, u)
        assert anderson_inverse(word(m, n, u)).window == gen.sommers_window(m, n, u)
        path = gen.dyck_path(rng, m, n)
        swept = sweep(filter_from_path(m, n, path))
        assert swept.row_minima == gen.swept_minima(m, n, path)


def _raise_once(monkeypatch, module, name, error):
    """Make ``module.name`` raise ``error`` on its first call only."""
    original = getattr(module, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, patched)


def test_unexpected_error_makes_the_result_incorrect(monkeypatch):
    from ratpark.errors import InternalInconsistency

    _raise_once(monkeypatch, wl.tuples, "zeta_inverse", InternalInconsistency("x"))
    monkeypatch.setattr(run, "COLD_STARTS", 1)
    monkeypatch.setattr(wl, "MIN_OPS", 3)
    solve = wl.WORKLOADS["solve"](1)
    small = wl.Workload(solve.name, solve.size, solve.ops[:3], 3, 3)
    result = run.run_timed(small, 0)
    assert result["attempted"] == 3
    assert result["failed"] == 1
    assert result["correct"] is False


@pytest.mark.parametrize("name,correct", [("solve", False), ("escape", True)])
def test_budget_exhaustion_is_known_only_on_escape(monkeypatch, name, correct):
    _raise_once(
        monkeypatch, wl.action, "find_fixed_point", IterationBudgetExhausted("x")
    )
    workload = wl.WORKLOADS[name](1)
    ops = workload.ops[:3]
    results, _, _ = wl.run_ops(ops, 0, len(ops), len(ops))
    tally = wl.check(ops, results, workload.known_errors)
    assert tally.failed >= 1 and tally.wrong == 0
    assert tally.correct is correct


def test_escape_fails_on_budget_exhaustion_only():
    workload = wl.WORKLOADS["escape"](1)
    ops = workload.ops[:60]
    results, _, _ = wl.run_ops(ops, 0, len(ops), len(ops))
    tally = wl.check(ops, results, workload.known_errors)
    assert tally.correct and tally.failed > 0
    assert {error for error, _ in tally.errors} == {"IterationBudgetExhausted"}


def _traced_counts(name: str, seed: int) -> dict:
    """Deterministic counts of one traced pass over a few ops of each kind."""
    workload = wl.WORKLOADS[name](seed)
    firsts = {}
    for op in workload.ops:
        firsts.setdefault(op.kind, op)
    ops = list(firsts.values()) * 2
    tracer = Tracer()
    tracer.install()
    try:
        results, _, _ = wl.run_ops(ops, 0, len(ops), len(ops))
    finally:
        tracer.uninstall()
    assert wl.check(ops, results, workload.known_errors).correct
    metrics = run.layer_metrics(tracer, 1.0, 0.0, 1, run._src_lines())
    counted = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    return {"iterations": dict(tracer.iterations), **counted}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first = _traced_counts(name, 5)
    assert first == _traced_counts(name, 5)
    for key in (
        "words.Word.constructions",
        "filters.Filter.constructions",
        "tuples.FilterTuple.constructions",
        "filters.minimum_by_residue.calls",
        "affine.value_position.calls",
        "verify.assertions",
        "src.lines",
    ):
        assert key in first
    if name in ("solve", "escape", "exhaustive"):
        assert first["iterations"]
    if name == "exhaustive":
        assert first["verify.assertions"] > 0


def test_tracer_restores_every_function():
    import ratpark
    from ratpark import action, filters, tuples, verify, words

    before = {
        "find": action.find_fixed_point,
        "tuples_action": tuples.action.find_fixed_point,
        "verify_find": verify.find_fixed_point,
        "package": ratpark.zeta,
        "min": filters.Filter.minimum_by_residue,
        "init": words.Word.__post_init__,
    }
    tracer = Tracer()
    tracer.install()
    assert verify.find_fixed_point is not before["verify_find"]
    assert tuples.action.find_fixed_point is not before["tuples_action"]
    tracer.uninstall()
    after = {
        "find": action.find_fixed_point,
        "tuples_action": tuples.action.find_fixed_point,
        "verify_find": verify.find_fixed_point,
        "package": ratpark.zeta,
        "min": filters.Filter.minimum_by_residue,
        "init": words.Word.__post_init__,
    }
    assert after == before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        wl.WORKLOADS["solve"](1).ops[0].call()
    finally:
        tracer.uninstall()
    total = tracer.total_s("tuples.zeta_inverse")
    inner = tracer.total_s("tuples.tuple_from_rank_word")
    assert 0 < tracer.self_s("tuples.zeta_inverse") < total - inner + 1e-9
    assert tracer.self_s("tuples.tuple_from_rank_word") < inner
    for name, start, end, parent, op in tracer.spans:
        assert end >= start
        assert parent < 0 or tracer.spans[parent][1] <= start


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end_metrics(10.0, [0.001], 0.05)
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
    per_layer = run.layer_metrics(Tracer(), 1.0, 0.05, 1, 1)
    assert {k: v["unit"] for k, v in per_layer.items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
