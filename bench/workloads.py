"""The four benchmark workloads, built from a seed before any timing.

Each workload is a pool of operations.  An operation is one public ratpark
call on one pre-built input (``escape`` runs ``classify`` and
``find_fixed_point`` on the same word as one verdict), together with a
check of its output against an expected value that :mod:`inputs` computed
without ratpark.  Calls look the function up on its module at call time,
so the traced run sees the wrappers it installs.

* ``solve`` — rank-word inversions at (50,77): ``zeta_inverse``,
  ``sweep_inverse`` and ``pak_stanley_inverse`` in rotation, their rank
  words stratified by smallest parking slack.  The orbit solver does most
  of the work.
* ``forward`` — the directions that need no solver at (50,77): ``zeta``,
  ``area``, ``dinv``, ``anderson_inverse``, ``anderson``, ``pak_stanley``
  and ``sweep``.  ``action`` is idle here.
* ``escape`` — near-miss non-parking words at (13,21), stratified by the
  parking inequality they break; only a ``Diverged`` verdict is correct.
  Words that exhaust the iteration budget count as failed operations.
* ``exhaustive`` — whole-space calls at the ``DEFAULT_PAIRS`` sizes of
  ``ratpark verify``: parking enumeration, both ``qt_table`` domains,
  ``enumerate_sommers`` and a one-pair ``run_verify``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import inputs as gen

# by module path: the package attribute ``ratpark.sweep`` is the function
action, affine, filters, sweep, tuples, verify, words = (
    import_module(f"ratpark.{name}")
    for name in ("action", "affine", "filters", "sweep", "tuples", "verify", "words")
)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    words: float  # input words one correct call completes


@dataclass
class Workload:
    name: str
    size: str
    ops: list[Op]  # run in order, wrapping around if a run outlasts them
    # a timed run ends only after a whole number of blocks, so that it
    # covers whole rotations of the workload's calls
    block_ops: int
    trace_ops: int  # the traced run replays this many ops from the start
    # type names of errors that are known defects: they count as failed
    # operations but leave the result correct; any other error does not
    known_errors: frozenset[str] = frozenset()


# Shares of the strata that the solve and escape inputs are drawn in (see
# ``inputs.stratified``), measured over many draws of each generator.  A
# stratum sets the solver's iteration count almost alone, so a run that
# left the mix to chance would move by the count of its rare, slow inputs.
#
# solve: the smallest slack of the rank word the solver gets at (50,77).
# Slack 1 takes about 15,000 applications, slack 4 about 800 to 900, slack
# 9 and more a few hundred.  Counts over 120,000 draws:
ZETA_SLACKS = {  # zeta of a uniform parking word
    "1": 1284, "2": 871, "3": 1467, "4": 14236, "5": 1002, "6": 736,
    "7": 1635, "8": 4506, "9+": 94263,
}
SWEEP_SLACKS = {  # sweep column word of a uniform Dyck path
    "1": 817, "2": 541, "3": 919, "4": 8649, "5": 655, "6": 474,
    "7": 1056, "8": 2950, "9+": 103939,
}
# escape: the parking inequality i = 1..12 that a near-miss word at (13,21)
# breaks, shares over 200,000 draws; i = 5 and i = 10 exhaust the
# iteration budget
ESCAPE_SHARES = {
    1: 0.0509, 2: 0.0565, 3: 0.0132, 4: 0.0334, 5: 0.0617, 6: 0.0170,
    7: 0.0590, 8: 0.0187, 9: 0.0623, 10: 0.1582, 11: 0.0677, 12: 0.4016,
}

# a timed run holds at least this many ops, so that the printed op_p95_ms
# has at least ten samples beyond it
MIN_OPS = 200


def _solve(seed: int) -> Workload:
    m, n = 50, 77
    rng = random.Random(seed)
    count = 256  # inputs of each kind

    def slack_class(x):
        slack = gen.min_slack(m, n, x[1])
        return str(slack) if slack < 9 else "9+"

    def zeta_draw(rng):
        u = gen.parking_word(rng, m, n)
        return u, gen.zeta_letters(m, n, u)

    def sweep_draw(rng):
        steps = gen.dyck_path(rng, m, n)
        return steps, gen.sweep_letters(m, n, steps)

    inverses = gen.stratified(rng, zeta_draw, slack_class, ZETA_SLACKS, count)
    sweeps = gen.stratified(rng, sweep_draw, slack_class, SWEEP_SLACKS, count)
    labels = gen.stratified(rng, zeta_draw, slack_class, ZETA_SLACKS, count)
    ops = []
    for (a, (u, r)), (b, (steps, swept)), (c, (v, p)) in zip(inverses, sweeps, labels):
        r = words.Word(m, n, r)
        d = gen.row_minima_from_columns(m, n, gen.path_columns(m, n, steps))
        s = filters.Filter(
            m, n, gen.row_minima_from_columns(m, n, gen.dyck_columns(m, n, swept))
        )
        p = words.Word(m, n, p)
        win = gen.sommers_window(m, n, v)
        ops += [
            Op(
                f"zeta_inverse slack={a}",
                lambda r=r: tuples.zeta_inverse(r),
                lambda out, u=u: out.letters == u,
                1,
            ),
            Op(
                f"sweep_inverse slack={b}",
                lambda s=s: sweep.sweep_inverse(s),
                lambda out, d=d: out.row_minima == d,
                1,
            ),
            Op(
                f"pak_stanley_inverse slack={c}",
                lambda p=p: affine.pak_stanley_inverse(p),
                lambda out, win=win: out.window == win,
                1,
            ),
        ]
    return Workload("solve", f"({m},{n})", ops, 3, 150)


def _forward(seed: int) -> Workload:
    m, n = 50, 77
    rng = random.Random(seed)
    ceiling = gen.statistic_ceiling(m, n)
    ops = []
    for _ in range(450):
        u = gen.parking_word(rng, m, n)
        r = gen.zeta_letters(m, n, u)
        win = gen.sommers_window(m, n, u)
        steps = gen.dyck_path(rng, m, n)
        swept = gen.swept_minima(m, n, steps)
        w = words.Word(m, n, u)
        aff = affine.AffinePermutation(win)
        d = filters.Filter(
            m, n, gen.row_minima_from_columns(m, n, gen.path_columns(m, n, steps))
        )
        chain = [
            ("zeta", lambda w=w: tuples.zeta(w), lambda out, r=r: out.letters == r),
            ("area", lambda w=w: tuples.area(w), lambda out, u=u: out == ceiling - sum(u)),
            ("dinv", lambda w=w: tuples.dinv(w), lambda out, r=r: out == ceiling - sum(r)),
            (
                "anderson_inverse",
                lambda w=w: affine.anderson_inverse(w),
                lambda out, win=win: out.window == win,
            ),
            (
                "anderson",
                lambda aff=aff: affine.anderson(aff, m),
                lambda out, u=u: out.letters == u,
            ),
            # pak_stanley(anderson_inverse(u)) == zeta(u)
            (
                "pak_stanley",
                lambda aff=aff: affine.pak_stanley(aff, m),
                lambda out, r=r: out.letters == r,
            ),
            # dyck_word(sweep(d)) == sweep_column_word(d)
            (
                "sweep",
                lambda d=d: sweep.sweep(d),
                lambda out, swept=swept: out.row_minima == swept,
            ),
        ]
        ops.extend(Op(kind, call, check, 1 / len(chain)) for kind, call, check in chain)
    return Workload("forward", f"({m},{n})", ops, 7, 420)


def _escape(seed: int) -> Workload:
    m, n = 13, 21
    rng = random.Random(seed)
    drawn = gen.stratified(
        rng,
        lambda rng: gen.near_miss_word(rng, m, n),
        lambda letters: gen.broken_threshold(m, n, letters),
        ESCAPE_SHARES,
        1024,
    )
    ops = []
    for i, letters in drawn:
        w = words.Word(m, n, letters)
        ops.append(Op(
            f"classify+find_fixed_point i={i}",
            lambda w=w: (words.classify(w), action.find_fixed_point(w)),
            lambda out: (
                out[0] is words.Classification.NO_FIXED_POINT
                and isinstance(out[1].outcome, action.Diverged)
            ),
            1,
        ))
    # ROADMAP item 2: some words exhaust the iteration budget
    return Workload(
        "escape", f"({m},{n})", ops, 1, 100, frozenset({"IterationBudgetExhausted"})
    )


# the pairs ``ratpark verify`` checks by default, fixed here so that a
# change to that default does not change the benchmark
EXHAUSTIVE_PAIRS = (
    (2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3),
    (3, 5), (5, 3), (4, 5), (5, 4),
)


def _marginals_ok(table, expected: list[int], total: int) -> bool:
    area = list(table.area_marginal())
    dinv = list(table.dinv_marginal())
    return table.total == total and area == expected and dinv == area


def _pair_ops(m: int, n: int, verify_seed: int) -> list[Op]:
    ceiling = gen.statistic_ceiling(m, n)
    parking = gen.all_parking(m, n)
    dyck = [u for u in parking if list(u) == sorted(u)]
    windows = [gen.sommers_window(m, n, u) for u in parking]

    def histogram(ws):
        counts = Counter(ceiling - sum(u) for u in ws)
        return [counts[a] for a in range(ceiling + 1)]

    area_parking, area_dyck = histogram(parking), histogram(dyck)
    return [
        Op(
            "enumerate_words",
            lambda: [w.letters for w in words.enumerate_words(m, n, "parking")],
            lambda out: out == parking,
            len(parking),
        ),
        Op(
            "qt_table(parking)",
            lambda: tuples.qt_table(m, n, "parking"),
            lambda out: _marginals_ok(out, area_parking, len(parking)),
            len(parking),
        ),
        Op(
            "qt_table(dyck)",
            lambda: tuples.qt_table(m, n, "dyck"),
            lambda out: _marginals_ok(out, area_dyck, gen.rational_catalan(m, n)),
            len(dyck),
        ),
        Op(
            "enumerate_sommers",
            lambda: [w.window for w in affine.enumerate_sommers(m, n)],
            lambda out: out == windows and all(gen.in_sommers(m, w) for w in out),
            len(windows),
        ),
        Op(
            "run_verify",
            lambda: verify.run_verify(pairs=((m, n),), seed=verify_seed),
            lambda out: out.ok and out.failed == 0 and out.passed > 0,
            len(parking),
        ),
    ]


def _exhaustive(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for _ in range(8):
        round_ = []
        for m, n in EXHAUSTIVE_PAIRS:
            round_.extend(_pair_ops(m, n, rng.randrange(2**31)))
        rng.shuffle(round_)
        ops.extend(round_)
    per_round = len(ops) // 8
    return Workload("exhaustive", "DEFAULT_PAIRS", ops, per_round, per_round)


WORKLOADS = {
    "solve": _solve,
    "forward": _forward,
    "escape": _escape,
    "exhaustive": _exhaustive,
}


@dataclass
class Result:
    op: int  # index into the pool
    seconds: float
    output: object
    error: str | None  # type name of the raised error


def run_ops(
    ops: list[Op], seconds: float, block_ops: int, min_ops: int, probe=None, on_op=None
):
    """Call ops in order until ``seconds`` have passed, then finish the block.

    Returns the results, the wall time of the whole loop and, when a
    ``probe`` is given, the time it reported just before each op.  ``on_op``
    is told the index of each op before it runs.
    """
    results = []
    probes = []
    perf = time.perf_counter
    start = perf()
    deadline = start + seconds
    i = 0
    while True:
        k = i % len(ops)
        if probe is not None:
            probes.append(probe())
        if on_op is not None:
            on_op(i)
        t0 = perf()
        try:
            out, err = ops[k].call(), None
        except Exception as exc:  # a raised error is a failed operation
            # keep only the name: the traceback would keep the failed
            # call's frames, and their memory, alive
            out, err = None, type(exc).__name__
        t1 = perf()
        results.append(Result(k, t1 - t0, out, err))
        i += 1
        if t1 >= deadline and i >= min_ops and i % block_ops == 0:
            break
    return results, perf() - start, probes


@dataclass
class Tally:
    attempted: int
    failed: int
    wrong: int  # failed by a wrong output rather than a raised error
    unexpected: int  # raised errors that are not known defects
    ok: list[bool]  # per result: no error and the right output
    errors: Counter  # (error type, op kind) -> count

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.unexpected == 0


def check(ops: list[Op], results: list[Result], known: frozenset[str]) -> Tally:
    """Check every output after timing; a raised error or wrong output fails.

    Errors whose type is in ``known`` fail the operation but leave the
    tally correct.
    """
    errors_ = Counter()
    ok = []
    for r in results:
        if r.error is not None:
            errors_[r.error, ops[r.op].kind] += 1
        ok.append(r.error is None and ops[r.op].check(r.output))
    raised = sum(errors_.values())
    unexpected = sum(c for (err, _), c in errors_.items() if err not in known)
    return Tally(
        len(results), ok.count(False), ok.count(False) - raised, unexpected, ok, errors_
    )
