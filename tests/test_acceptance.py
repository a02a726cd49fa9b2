"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every assertion is exact; the only tolerances are the stated wall-clock
budgets, which are asserted too.
"""

import random
import time
from math import comb, gcd

from ratpark import (
    AffinePermutation,
    Classification,
    Diverged,
    Filter,
    Fixed,
    Point,
    Word,
    anderson,
    apply_word,
    classify,
    column_minima,
    contraction_certificate,
    dyck_embedding,
    enumerate_balanced,
    enumerate_sommers,
    enumerate_words,
    filter_from_dyck_word,
    find_fixed_point,
    is_dominant,
    is_parking_word,
    norm,
    pak_stanley,
    qt_table,
    rank_word,
    staircase_point,
    staircase_window,
    sweep,
    sweep_inverse,
    tuple_from_area_word,
    tuple_from_rank_word,
    window_to_tuple,
    zeta,
    zeta_inverse,
)
from ratpark import reference as ref
from ratpark.verify import LIPSCHITZ_TRIALS

COPRIME_PAIRS_LE_5 = [
    (m, n) for m in range(2, 6) for n in range(2, 6) if gcd(m, n) == 1
]


def _verdict(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {detail}"


def w(m, n, text):
    return Word(m, n, tuple(int(ch) for ch in text))


def test_criterion_1_parking_word_tables():
    started = time.perf_counter()
    got_43 = {str(x) for x in enumerate_words(4, 3, "parking")}
    got_53 = {str(x) for x in enumerate_words(5, 3, "parking")}
    elapsed = time.perf_counter() - started
    ok = (
        got_43 == set(ref.PARKING_WORDS_4_3)
        and got_53 == set(ref.PARKING_WORDS_5_3)
        and elapsed < 1.0
    )
    _verdict(1, ok, f"16+25 words in {elapsed:.3f}s")


def test_criterion_2_fixed_point_characterization():
    started = time.perf_counter()
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5)):
        for word_ in enumerate_words(m, n, "all"):
            report = find_fixed_point(word_)
            if is_parking_word(word_):
                assert isinstance(report.outcome, Fixed), word_
                point = report.outcome.point
                assert apply_word(point, word_) == point
            else:
                assert isinstance(report.outcome, Diverged), word_
    for text in ref.PARKING_WORDS_4_3:
        assert classify(w(3, 3, text)) is Classification.INFINITELY_MANY_FIXED_POINTS
    for letters in ((0, 1, 2), (2, 2, 2)):
        word_ = Word(3, 3, letters)
        expected = (
            Classification.INFINITELY_MANY_FIXED_POINTS
            if is_parking_word(word_)
            else Classification.NO_FIXED_POINT
        )
        assert classify(word_) is expected
    six_nine = w(6, 9, ref.GCD_EXAMPLE_6_9["word"])
    assert classify(six_nine) is Classification.INFINITELY_MANY_FIXED_POINTS
    fp = Point(ref.GCD_EXAMPLE_6_9["fixed_point"])
    assert apply_word(fp, six_nine) == fp
    elapsed = time.perf_counter() - started
    _verdict(2, elapsed < 30.0, f"five coprime pairs + gcd cases in {elapsed:.1f}s")


def test_criterion_3_zeta_tables():
    ok = True
    for table, (m, n) in ((ref.ZETA_4_3, (4, 3)), (ref.ZETA_5_3, (5, 3))):
        for src, dst in table.items():
            ok = ok and str(zeta(w(m, n, src))) == dst
    _verdict(3, ok, "16 + 25 zeta rows")


def test_criterion_4_qt_matrices():
    ok = (
        qt_table(4, 3, "parking").counts == ref.QT_4_3_PARKING
        and qt_table(4, 3, "dyck").counts == ref.QT_4_3_DYCK
        and qt_table(5, 3, "parking").counts == ref.QT_5_3_PARKING
        and qt_table(5, 3, "dyck").counts == ref.QT_5_3_DYCK
    )
    _verdict(4, ok, "4 matrices, entry for entry")


def test_criterion_5_equidistribution():
    from ratpark import area, dinv

    ok = True
    for m, n in COPRIME_PAIRS_LE_5:
        words = list(enumerate_words(m, n, "parking"))
        ok = ok and sorted(area(x) for x in words) == sorted(dinv(x) for x in words)
    _verdict(5, ok, f"{len(COPRIME_PAIRS_LE_5)} coprime pairs")


def test_criterion_6_bijections():
    for m, n in COPRIME_PAIRS_LE_5:
        parking = {x.letters for x in enumerate_words(m, n, "parking")}
        zeta_images = set()
        for letters in parking:
            word_ = Word(m, n, letters)
            image = zeta(word_)
            zeta_images.add(image.letters)
            assert zeta_inverse(image) == word_
            assert zeta(zeta_inverse(word_)) == word_
        assert zeta_images == parking

        windows = list(enumerate_sommers(m, n))
        assert {anderson(x, m).letters for x in windows} == parking
        assert {pak_stanley(x, m).letters for x in windows} == parking

        dycks = [filter_from_dyck_word(x) for x in enumerate_words(m, n, "dyck")]
        swept = set()
        for d in dycks:
            s = sweep(d)
            swept.add(s.row_minima)
            assert sweep_inverse(s) == d
        assert len(swept) == len(dycks)

    dycks = [filter_from_dyck_word(x) for x in enumerate_words(4, 7, "dyck")]
    swept = set()
    for d in dycks:
        s = sweep(d)
        swept.add(s.row_minima)
        assert sweep_inverse(s) == d
    assert len(swept) == len(dycks) == comb(11, 4) // 11
    _verdict(6, True, "zeta, labelings, sweep all bijective")


def test_criterion_7_sweep_fixture():
    before = Filter(4, 7, ref.SWEEP_4_7["before"])
    after = sweep(before)
    ok = after.row_minima == ref.SWEEP_4_7["after"]
    ok = ok and sweep_inverse(after) == before
    final = list(dyck_embedding(before).stages())[-1]
    ok = ok and final.row_minima == ref.SWEEP_4_7["vertical_levels"]
    ok = ok and column_minima(before) == ref.SWEEP_4_7["horizontal_levels"]
    _verdict(7, ok, "(4,7) path, inverse, and step levels")


def test_criterion_8_affine_fixtures():
    ok = staircase_window(4, 3).window == (-2, 2, 6)
    ok = ok and staircase_window(5, 3).window == (-3, 2, 7)
    ok = ok and staircase_window(3, 4).window == (-2, 1, 4, 7)
    from ratpark import mn_swap_dominant

    for window, m, expected in ref.SWAP_PAIRS:
        ok = ok and mn_swap_dominant(AffinePermutation(window), m).window == expected
    ok = ok and str(pak_stanley(AffinePermutation((3, -1, 2, 5, 6)), 3)) == "10011"
    ok = ok and str(anderson(AffinePermutation((3, -1, 2, 5, 6)), 3)) == "10001"
    ok = ok and str(anderson(AffinePermutation((5, -2, 3)), 5)) == "100"
    for m, n in COPRIME_PAIRS_LE_5:
        for window in enumerate_sommers(m, n):
            assert pak_stanley(window, m) == rank_word(window_to_tuple(window, m))
    _verdict(8, ok, "staircase windows, swaps, labelings, agreement")


def test_criterion_9_counts():
    for m in range(1, 8):
        for n in range(1, 8):
            if gcd(m, n) != 1:
                continue
            count = sum(1 for _ in enumerate_balanced(m, n))
            assert count == comb(m + n, n) // (m + n), (m, n)
            dominant = sum(
                1
                for b in enumerate_balanced(m, n)
                if is_dominant(AffinePermutation(column_minima(b)))
            )
            assert dominant == count
    for m, n in COPRIME_PAIRS_LE_5:
        windows = {x.window for x in enumerate_sommers(m, n)}
        assert len(windows) == m ** (n - 1), (m, n)
    assert sum(1 for _ in enumerate_balanced(3, 4)) == 5
    assert sum(1 for _ in enumerate_balanced(3, 5)) == 7
    _verdict(9, True, "balanced = dominant counts <= 7, alcoves <= 5")


def test_criterion_10_property_suites(default_verify_report):
    started = time.perf_counter()
    rng = random.Random(0)
    # the coprime pairs get their 10,000 trials from the lipschitz suites
    # of the default run_verify; verify refuses the gcd > 1 pairs
    for m, n in [(3, 3), (6, 9)]:
        span = m * n + 5
        for _ in range(10_000):
            x = Point(tuple(sorted(rng.randint(-span, span) for _ in range(m))))
            y = Point(tuple(sorted(rng.randint(-span, span) for _ in range(m))))
            word_ = Word(m, n, tuple(rng.randrange(m) for _ in range(n)))
            assert contraction_certificate(word_, x, y)

    for m in range(1, 5):
        for n in range(1, 5):
            for word_ in enumerate_words(m, n, "all"):
                if is_parking_word(word_):
                    continue
                cur = staircase_point(m, n)
                start_norm = norm(cur)
                for _ in range(50):
                    cur = apply_word(cur, word_)
                assert norm(cur) > start_norm, word_

    for m, n in COPRIME_PAIRS_LE_5:
        for word_ in enumerate_words(m, n, "parking"):
            report = find_fixed_point(word_)
            residues = sorted(c % m for c in report.outcome.point.coords)
            assert residues == list(range(m)), word_
            t = tuple_from_area_word(word_)
            assert sorted(t.removals) == list(column_minima(t.initial))
            assert tuple_from_rank_word(rank_word(t)) is not None

    # the shared default run is timed suite by suite; its seconds count
    # toward the budget as though it ran here
    report = default_verify_report
    elapsed = time.perf_counter() - started + sum(s.seconds for s in report.suites)
    lipschitz = {s.name for s in report.suites if s.name.startswith("lipschitz")}
    assert LIPSCHITZ_TRIALS == 10_000
    assert lipschitz == {f"lipschitz ({m},{n})" for m, n in COPRIME_PAIRS_LE_5}
    ok = report.ok and elapsed < 300.0
    _verdict(
        10,
        ok,
        f"lipschitz, divergence, residues, tuples + full verify in {elapsed:.1f}s",
    )
