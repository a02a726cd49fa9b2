"""Regression and property harness behind ``ratpark verify``.

Reference suites replay the frozen tables in :mod:`ratpark.reference`;
property suites run exhaustive desk-scale checks (counts, bijectivity,
equidistribution, contraction, divergence, residue structure) for a set
of (m, n) pairs.  Randomized suites draw from a seeded generator so the
default output is byte-stable.
"""

from __future__ import annotations

import random
import time
from math import comb
from operator import mul, sub

from . import reference as ref
from .errors import require_coprime
from .action import (
    Diverged,
    Fixed,
    Point,
    apply_letter,
    apply_word,
    construct_fixed_point_general,
    distance,
    find_fixed_point,
    norm,
    staircase_point,
    _act,
    _apply_raw,
    _norm,
)
from .affine import (
    AffinePermutation,
    anderson,
    dominant_to_filter,
    enumerate_sommers,
    filter_to_dominant,
    in_sommers,
    is_dominant,
    mn_swap_dominant,
    pak_stanley,
    staircase_window,
    tuple_to_window,
    window_to_tuple,
)
from .filters import (
    Filter,
    _dyck_classes,
    column_minima,
    dyck_word,
    enumerate_balanced,
    filter_from_dyck_word,
    generator_filter,
    mn_swap,
    remove,
    removable_levels,
    to_balanced,
    to_dyck,
)
from .serialize import word_from_text
from .sweep import sweep, sweep_column_word, sweep_inverse
from .tuples import (
    area,
    area_word,
    dinv,
    dyck_embedding,
    fixed_point_oracle,
    qt_table,
    rank_word,
    tuple_from_area_word,
    tuple_from_rank_word,
    tuple_to_balanced,
    zeta,
    zeta_inverse,
)
from .words import (
    Classification,
    Word,
    classify,
    enumerate_words,
    is_parking_word,
    touch_decomposition,
    touch_points,
)

DEFAULT_PAIRS = (
    (2, 3), (3, 2), (2, 5), (5, 2), (3, 4), (4, 3),
    (3, 5), (5, 3), (4, 5), (5, 4),
)

LIPSCHITZ_TRIALS = 10_000
DIVERGENCE_APPLICATIONS = 50


class SuiteResult:
    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.seconds = 0.0
        self.first_failure: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def check(self, condition: bool, label: str) -> bool:
        if condition:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = label
        return condition

    def equal(self, got, expected, label: str) -> bool:
        if got == expected:  # the reprs are built only for a failure
            return self.check(True, label)
        return self.check(False, f"{label}: got {got!r}, expected {expected!r}")


class VerifyReport:
    def __init__(self):
        self.suites: list[SuiteResult] = []

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.suites)

    @property
    def passed(self) -> int:
        return sum(s.passed for s in self.suites)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.suites)


# ---------------------------------------------------------------- reference

def _suite_reference_words(c: SuiteResult) -> None:
    got = {str(w) for w in enumerate_words(4, 3, "parking")}
    c.equal(got, set(ref.PARKING_WORDS_4_3), "parking words (4,3)")
    got = {str(w) for w in enumerate_words(5, 3, "parking")}
    c.equal(got, set(ref.PARKING_WORDS_5_3), "parking words (5,3)")
    got = {str(w) for w in enumerate_words(3, 3, "parking")}
    c.equal(got, set(ref.PARKING_WORDS_4_3), "parking words (3,3) match (4,3)")

    c.equal(
        touch_points(word_from_text("531030678631", 9, 12)),
        (3, 6),
        "touch points (9,12)",
    )
    c.equal(touch_points(word_from_text("020101151", 6, 9)), (), "touch points (6,9)")
    c.equal(
        classify(word_from_text("000", 3, 3)),
        Classification.INFINITELY_MANY_FIXED_POINTS,
        "classification (3,3) 000",
    )
    c.equal(
        classify(word_from_text("012", 4, 3)),
        Classification.UNIQUE_FIXED_POINT,
        "classification (4,3) 012",
    )
    c.equal(
        classify(word_from_text("022", 4, 3)),
        Classification.NO_FIXED_POINT,
        "classification (4,3) 022",
    )


def _suite_reference_action(c: SuiteResult) -> None:
    word = word_from_text(ref.ORBIT_3_5["word"], 3, 5)
    chain = ref.ORBIT_3_5["chain"]
    cur = Point(chain[0])
    for letter, expected in zip(word.letters, chain[1:]):
        cur = apply_letter(cur, letter)
        c.equal(cur.coords, expected, f"orbit step {letter} of {word}")

    for target, words in ref.FIXED_POINTS_3_4.items():
        for text in words:
            w = word_from_text(text, 3, 4)
            report = find_fixed_point(w)
            c.check(isinstance(report.outcome, Fixed), f"solver fixes {w}")
            if isinstance(report.outcome, Fixed):
                c.equal(report.outcome.point.coords, target, f"fixed point of {w}")
            oracle = fixed_point_oracle(w)
            c.equal(oracle.coords, target, f"oracle point of {w}")

    for target, words in ref.FIXED_REGIONS_3_3.items():
        for text in words:
            w = word_from_text(text, 3, 3)
            c.check(
                apply_word(Point(target), w).coords == target,
                f"{w} fixes {target}",
            )

    six_nine = ref.GCD_EXAMPLE_6_9
    w = word_from_text(six_nine["word"], 6, 9)
    fp = Point(six_nine["fixed_point"])
    c.check(apply_word(fp, w).coords == fp.coords, "(6,9) fixed point")
    for vertex in six_nine["simplex"]:
        c.check(
            apply_word(Point(vertex), w).coords == vertex,
            f"(6,9) simplex vertex {vertex}",
        )
    for a_pt in six_nine["simplex"]:
        for b_pt in six_nine["simplex"]:
            summed = tuple(p + q for p, q in zip(a_pt, b_pt))
            doubled = _apply_raw(summed, w.letters, 2 * w.m, 2 * w.n)
            c.check(doubled == summed, f"(6,9) convexity witness {summed}")

    nine_twelve = ref.GCD_EXAMPLE_9_12
    w = Word(9, 12, nine_twelve["word"])
    blocks = touch_decomposition(w)
    c.equal(
        tuple(str(q) for _, q in blocks), nine_twelve["blocks"], "(9,12) blocks"
    )
    for (_, q), target in zip(blocks, nine_twelve["block_fixed_points"]):
        c.check(
            apply_word(Point(target), q).coords == target,
            f"block {q} fixes {target}",
        )
    witness = construct_fixed_point_general(w)
    c.check(apply_word(witness, w) == witness, "(9,12) assembled witness fixed")

    c.equal(norm(Point((-1, 3, 4))), 42, "norm (-1,3,4)")
    c.equal(norm(Point((-2, 3, 5))), 78, "norm (-2,3,5)")
    c.equal(distance(Point((-1, 3, 4)), Point((0, 2, 4))), 6, "distance example")

    report = find_fixed_point(word_from_text("022", 4, 3))
    c.check(isinstance(report.outcome, Diverged), "(4,3) 022 diverges")


def _suite_reference_filters(c: SuiteResult) -> None:
    for m, n, minima, cols in ref.FILTER_MINIMA_PAIRS:
        f = Filter(m, n, minima)
        c.equal(column_minima(f), cols, f"column minima of {minima} ({m},{n})")

    c.equal(
        to_dyck(Filter(3, 4, (-1, 1, 3))).row_minima, (0, 2, 4), "dyck rep (3,4)"
    )
    c.equal(
        to_balanced(Filter(3, 4, (-1, 1, 3))).row_minima,
        (0, 2, 4),
        "balanced rep (3,4)",
    )
    c.equal(
        to_dyck(Filter(3, 5, (2, 4, 6))).row_minima, (0, 2, 4), "dyck rep (3,5)"
    )

    for m, n, minima, text in ref.DYCK_WORD_PAIRS:
        f = Filter(m, n, minima)
        c.equal(str(dyck_word(f)), text, f"dyck word of {minima}")
        c.equal(
            filter_from_dyck_word(word_from_text(text, m, n)).row_minima,
            minima,
            f"filter of word {text}",
        )

    c.equal(
        removable_levels(Filter(3, 5, (-1, 3, 4))), (-1, 3), "removable (3,5)"
    )
    for before, level_, after in ref.REMOVE_CHAIN_3_5:
        c.equal(
            remove(Filter(3, 5, before), level_).row_minima,
            after,
            f"remove {level_} from {before}",
        )

    got = tuple(b.row_minima for b in enumerate_balanced(3, 4))
    c.equal(got, ref.BALANCED_MINIMA_3_4, "balanced (3,4) enumeration")
    c.check(
        any(b.row_minima == (-3, 2, 7) for b in enumerate_balanced(3, 5)),
        "balanced (3,5) contains (-3,2,7)",
    )
    c.equal(sum(1 for _ in enumerate_balanced(3, 5)), 7, "balanced (3,5) count")
    c.equal(sum(1 for _ in enumerate_balanced(1, 4)), 1, "balanced (1,4) count")

    c.equal(
        mn_swap(Filter(3, 5, (-1, 3, 4))).row_minima,
        (-1, 2, 3, 5, 6),
        "mn swap (3,5)",
    )
    c.equal(
        mn_swap(Filter(5, 3, (-1, 2, 3, 5, 6))).row_minima,
        (-1, 3, 4),
        "mn swap (5,3)",
    )


def _suite_reference_zeta(c: SuiteResult) -> None:
    for table, (m, n) in ((ref.ZETA_4_3, (4, 3)), (ref.ZETA_5_3, (5, 3))):
        for src, dst in table.items():
            got = str(zeta(word_from_text(src, m, n)))
            c.equal(got, dst, f"zeta({src}) ({m},{n})")
            c.equal(
                str(zeta_inverse(word_from_text(dst, m, n))),
                src,
                f"zeta_inverse({dst}) ({m},{n})",
            )

    for table, (m, n) in ((ref.REMOVALS_4_3, (4, 3)), (ref.REMOVALS_5_3, (5, 3))):
        for src, removals in table.items():
            t = tuple_to_balanced(tuple_from_area_word(word_from_text(src, m, n)))
            c.equal(t.removals, removals, f"removals of {src} ({m},{n})")

    worked = ref.WORKED_TUPLE_3_5
    t = tuple_from_area_word(word_from_text(worked["area_word"], 3, 5))
    c.equal(t.initial.row_minima, worked["initial_parking"], "worked initial")
    c.equal(t.removals, worked["removals_parking"], "worked removals")
    c.equal(str(rank_word(t)), worked["rank_word"], "worked rank word")
    c.equal(area(t), worked["area"], "worked area")
    c.equal(dinv(t), worked["dinv"], "worked dinv")
    balanced = tuple_to_balanced(t)
    c.equal(
        balanced.initial.row_minima, worked["initial_balanced"], "worked balanced"
    )
    c.equal(
        balanced.removals, worked["removals_balanced"], "worked balanced removals"
    )
    back = tuple_from_rank_word(word_from_text(worked["rank_word"], 3, 5))
    c.equal(
        back.initial.row_minima, worked["initial_balanced"], "rank-word inversion"
    )
    c.equal(back.removals, worked["removals_balanced"], "rank-word removals")

    worked = ref.WORKED_TUPLE_5_3
    t = tuple_from_area_word(word_from_text(worked["area_word"], 5, 3))
    c.equal(t.removals, worked["removals_parking"], "worked (5,3) removals")


def _suite_reference_qt(c: SuiteResult) -> None:
    c.equal(qt_table(4, 3, "parking").counts, ref.QT_4_3_PARKING, "qt (4,3)")
    c.equal(qt_table(4, 3, "dyck").counts, ref.QT_4_3_DYCK, "qt (4,3) dyck")
    c.equal(qt_table(5, 3, "parking").counts, ref.QT_5_3_PARKING, "qt (5,3)")
    c.equal(qt_table(5, 3, "dyck").counts, ref.QT_5_3_DYCK, "qt (5,3) dyck")


def _suite_reference_sweep(c: SuiteResult) -> None:
    data = ref.SWEEP_4_7
    before = Filter(4, 7, data["before"])
    after = sweep(before)
    c.equal(after.row_minima, data["after"], "sweep (4,7)")
    c.equal(
        sweep_inverse(after).row_minima, data["before"], "sweep inverse (4,7)"
    )
    c.equal(
        tuple(v + 7 for v in before.row_minima),
        data["vertical_levels"],
        "vertical levels (4,7)",
    )
    c.equal(
        column_minima(before), data["horizontal_levels"], "horizontal levels (4,7)"
    )
    t = dyck_embedding(before)
    final = list(t.stages())[-1]
    c.equal(final.row_minima, data["vertical_levels"], "final stage minima (4,7)")

    for m, n in ((4, 3), (5, 3)):
        table = ref.ZETA_4_3_DYCK_ROWS if (m, n) == (4, 3) else ref.ZETA_5_3_DYCK_ROWS
        zeta_map = ref.ZETA_4_3 if (m, n) == (4, 3) else ref.ZETA_5_3
        got = {str(sweep_column_word(d)) for _, d, _ in _dyck_classes(m, n)}
        c.equal(
            got, {zeta_map[row] for row in table}, f"sweep column words ({m},{n})"
        )


def _suite_reference_affine(c: SuiteResult) -> None:
    for (m, n), window in ref.STAIRCASE_WINDOWS.items():
        w = staircase_window(m, n)
        c.equal(w.window, window, f"staircase window ({m},{n})")
        c.check(is_dominant(w), f"staircase window ({m},{n}) dominant")
        c.check(in_sommers(w, m), f"staircase window ({m},{n}) in region")

    for window, m, expected in ref.SWAP_PAIRS:
        got = mn_swap_dominant(AffinePermutation(window), m)
        c.equal(got.window, expected, f"swap of {window} with m={m}")

    for (m, n), windows in ref.DOMINANT_WINDOWS.items():
        got = {filter_to_dominant(b).window for b in enumerate_balanced(m, n)}
        c.equal(got, set(windows), f"dominant windows ({m},{n})")

    for window, m, expected in ref.ANDERSON_EXAMPLES:
        got = anderson(AffinePermutation(window), m)
        c.equal(str(got), expected, f"anderson {window} m={m}")

    for window, m, expected in ref.PAK_STANLEY_EXAMPLES:
        got = pak_stanley(AffinePermutation(window), m)
        c.equal(str(got), expected, f"pak-stanley {window} m={m}")

    got = {w.window for w in enumerate_sommers(4, 3)}
    c.equal(got, set(ref.REMOVALS_4_3.values()), "sommers windows (4,3)")
    got = {w.window for w in enumerate_sommers(5, 3)}
    c.equal(got, set(ref.REMOVALS_5_3.values()), "sommers windows (5,3)")

    c.check(
        not in_sommers(AffinePermutation((4, 0, 2)), 4),
        "window (4,0,2) outside S with m=4",
    )


# ---------------------------------------------------------------- properties

def _suite_counts(c: SuiteResult, m: int, n: int) -> None:
    parking = sum(1 for _ in enumerate_words(m, n, "parking"))
    c.equal(parking, m ** (n - 1), f"|parking({m},{n})| = m^(n-1)")
    balanced = sum(1 for _ in enumerate_balanced(m, n))
    c.equal(balanced, comb(m + n, n) // (m + n), f"|balanced({m},{n})|")
    windows, dominant = {}, 0
    for w in enumerate_sommers(m, n):
        windows[w.window] = w
        dominant += is_dominant(w)
    c.equal(dominant, balanced, f"dominant count ({m},{n})")
    c.equal(len(windows), m ** (n - 1), f"sommers alcove count ({m},{n})")
    for w in windows.values():
        c.check(in_sommers(w, m), f"membership of {w.window} ({m},{n})")


def _suite_solver_matches_parking(c: SuiteResult, m: int, n: int) -> None:
    for w in enumerate_words(m, n, "all"):
        report = find_fixed_point(w)
        if is_parking_word(w):
            ok = isinstance(report.outcome, Fixed)
            c.check(ok, f"parking word {w} should fix a point")
            if ok:
                point = report.outcome.point
                c.check(
                    apply_word(point, w) == point, f"claimed fixed point of {w}"
                )
                residues = sorted(x % m for x in point.coords)
                c.equal(
                    residues, list(range(m)), f"residues of fixed point of {w}"
                )
        else:
            c.check(
                isinstance(report.outcome, Diverged),
                f"non-parking word {w} should diverge",
            )


def _suite_oracle_agreement(c: SuiteResult, m: int, n: int) -> None:
    # one enumeration pass plays the oracle for every word at once; the
    # per-word oracle function is exercised on a slice of the words
    mapping = {}
    for u in enumerate_words(m, n, "parking"):
        t = tuple_from_area_word(u)
        mapping[rank_word(t).letters] = to_balanced(t.initial).row_minima
    for i, w in enumerate(enumerate_words(m, n, "parking")):
        report = find_fixed_point(w)
        c.equal(
            report.outcome.point.coords,
            mapping[w.letters],
            f"oracle vs solver on {w}",
        )
        if i % 16 == 0:
            c.equal(
                fixed_point_oracle(w).coords,
                mapping[w.letters],
                f"oracle function on {w}",
            )


def _suite_zeta_bijection(c: SuiteResult, m: int, n: int) -> None:
    words = list(enumerate_words(m, n, "parking"))
    images = set()
    for w in words:
        image = zeta(w)
        images.add(image.letters)
        c.check(is_parking_word(image), f"zeta({w}) parking")
        c.equal(
            zeta_inverse(image).letters, w.letters, f"zeta round trip at {w}"
        )
    c.equal(len(images), len(words), f"zeta image size ({m},{n})")

    and_images = set()
    ps_images = set()
    for window in enumerate_sommers(m, n):
        and_images.add(anderson(window, m).letters)
        ps_images.add(pak_stanley(window, m).letters)
    expected = {w.letters for w in words}
    c.equal(and_images, expected, f"anderson image ({m},{n})")
    c.equal(ps_images, expected, f"pak-stanley image ({m},{n})")


def _suite_equidistribution(c: SuiteResult, m: int, n: int) -> None:
    words = list(enumerate_words(m, n, "parking"))
    areas = sorted(area(w) for w in words)
    dinvs = sorted(dinv(w) for w in words)
    c.equal(areas, dinvs, f"area/dinv equidistribution ({m},{n})")
    table = qt_table(m, n, "parking")
    c.equal(table.total, m ** (n - 1), f"qt total ({m},{n})")
    c.equal(
        sorted(table.area_marginal()),
        sorted(table.dinv_marginal()),
        f"qt marginals ({m},{n})",
    )


def _suite_sweep_properties(c: SuiteResult, m: int, n: int) -> None:
    filters = [d for _, d, _ in _dyck_classes(m, n)]
    images = set()
    for d in filters:
        swept = sweep(d)
        images.add(swept.row_minima)
        c.equal(
            str(sweep_column_word(d)),
            str(dyck_word(swept)),
            f"column word of sweep at {d.row_minima}",
        )
        c.equal(
            sweep_inverse(swept).row_minima,
            d.row_minima,
            f"sweep inversion at {d.row_minima}",
        )
        embedded = dyck_embedding(d)
        c.equal(
            tuple(sorted(area_word(embedded).letters)),
            dyck_word(d).letters,
            f"embedding area word at {d.row_minima}",
        )
    c.equal(len(images), len(filters), f"sweep bijectivity ({m},{n})")

    increasing = {
        w.letters for w in enumerate_words(m, n, "parking")
        if tuple(sorted(w.letters)) == w.letters
    }
    from_dyck = {sweep_column_word(d).letters for d in filters}
    c.equal(from_dyck, increasing, f"rank words of embeddings ({m},{n})")


def _suite_affine_agreement(c: SuiteResult, m: int, n: int) -> None:
    for window in enumerate_sommers(m, n):
        t = window_to_tuple(window, m)
        c.equal(
            pak_stanley(window, m).letters,
            rank_word(t).letters,
            f"pak-stanley vs rank word at {window.window}",
        )
        c.equal(
            anderson(window, m).letters,
            area_word(t).letters,
            f"anderson vs area word at {window.window}",
        )
        c.equal(
            tuple_to_window(t).window,
            window.window,
            f"window round trip at {window.window}",
        )
        if is_dominant(window):
            b = dominant_to_filter(window, m)
            c.equal(
                filter_to_dominant(b).window,
                window.window,
                f"dominant round trip at {window.window}",
            )
            back = mn_swap_dominant(mn_swap_dominant(window, m), n)
            c.equal(
                back.window, window.window, f"double swap at {window.window}"
            )
            ps = pak_stanley(window, m).letters
            c.check(
                all(a <= b_ for a, b_ in zip(ps, ps[1:])),
                f"dominant pak-stanley increasing at {window.window}",
            )


def _contracts(x: list[int], y: list[int], letters: list[int], m: int, n: int) -> bool:
    """``contraction_certificate`` on sorted raw lists, acting on them in
    place: does the word not push ``x`` and ``y`` apart?

    ``distance`` is ``m*sum(d*d) - sum(d)**2`` of the difference ``d``, and
    :func:`_act` adds ``m`` to one coordinate of each point per letter (no
    ``-n`` shift), so ``sum(d)`` stays and ``sum(d*d)`` orders the two.
    """
    d = list(map(sub, x, y))
    before = sum(map(mul, d, d))
    _act(x, letters, m)
    _act(y, letters, m)
    d = list(map(sub, x, y))
    return before >= sum(map(mul, d, d))


def _suite_lipschitz(c: SuiteResult, m: int, n: int, rng: random.Random) -> None:
    # randint(-span, span) is -span + randrange(width), and CPython's
    # randrange(k) for an int k > 0 draws getrandbits(k.bit_length()) again
    # while the result is at least k.  The loops below apply that rule
    # inline, without a frame per draw: the 2m coordinates, x's then y's,
    # then the n letters, as Point(sorted(randint ...)) and Word would draw
    # them; tests pin the stream.  So the points are sorted and the letters
    # below m, and _contracts may skip Point and Word.
    span = m * n + 5
    width = 2 * span + 1
    bits = rng.getrandbits
    kw, km = width.bit_length(), m.bit_length()
    coordinates, word = range(2 * m), range(n)
    failures = 0
    for _ in range(LIPSCHITZ_TRIALS):
        drawn, letters = [], []
        for _ in coordinates:
            r = bits(kw)
            while r >= width:
                r = bits(kw)
            drawn.append(r - span)
        x, y = drawn[:m], drawn[m:]
        x.sort()
        y.sort()
        for _ in word:
            r = bits(km)
            while r >= m:
                r = bits(km)
            letters.append(r)
        if not _contracts(x, y, letters, m, n):
            failures += 1
    c.equal(failures, 0, f"contraction failures ({m},{n})")


def _suite_divergence(c: SuiteResult, m: int, n: int) -> None:
    """The norm grows along each non-parking word's orbit.  :func:`_act`
    skips the shift by ``-n`` per coordinate, which no norm sees."""
    start = staircase_point(m, n).coords
    start_norm = _norm(start)
    for w in enumerate_words(m, n, "all"):
        if is_parking_word(w):
            continue
        xs = list(start)
        for _ in range(DIVERGENCE_APPLICATIONS):
            _act(xs, w.letters, m)
        c.check(
            _norm(xs) > start_norm,
            f"norm did not grow under {w} ({m},{n})",
        )


def _suite_tuple_validity(c: SuiteResult, m: int, n: int) -> None:
    for w in enumerate_words(m, n, "parking"):
        t = tuple_from_area_word(w)
        c.check(
            sorted(t.removals) == sorted(column_minima(t.initial)),
            f"area-side removals of {w} are the column minima",
        )
        stages = list(t.stages())
        c.equal(
            stages[-1].row_minima,
            tuple(v + n for v in stages[0].row_minima),
            f"final stage of {w}",
        )
        back = tuple_from_rank_word(rank_word(t))
        c.equal(
            tuple_to_balanced(t), back, f"rank word round trip at {w}"
        )


def _suite_graph_reachability(c: SuiteResult, m: int, n: int) -> None:
    start = to_balanced(generator_filter(m, n))
    seen = {start.row_minima}
    frontier = [start]
    while frontier:
        f = frontier.pop()
        for v in removable_levels(f):
            nxt = to_balanced(remove(f, v))
            if nxt.row_minima not in seen:
                seen.add(nxt.row_minima)
                frontier.append(nxt)
    expected = {b.row_minima for b in enumerate_balanced(m, n)}
    c.equal(seen, expected, f"graph reachability ({m},{n})")


_REFERENCE_SUITES = {
    "reference-words": _suite_reference_words,
    "reference-action": _suite_reference_action,
    "reference-filters": _suite_reference_filters,
    "reference-zeta": _suite_reference_zeta,
    "reference-qt": _suite_reference_qt,
    "reference-sweep": _suite_reference_sweep,
    "reference-affine": _suite_reference_affine,
}


def run_verify(
    pairs: tuple[tuple[int, int], ...] | None = None,
    reference_only: bool = False,
    seed: int = 0,
) -> VerifyReport:
    if pairs is None:
        pairs = DEFAULT_PAIRS
    for m, n in pairs:
        require_coprime(m, n, "verify")
    report = VerifyReport()

    def run(name, fn, *args):
        result = SuiteResult(name)
        started = time.perf_counter()
        fn(result, *args)
        result.seconds = time.perf_counter() - started
        report.suites.append(result)

    for name, fn in _REFERENCE_SUITES.items():
        run(name, fn)
    if reference_only:
        return report

    rng = random.Random(seed)
    for m, n in pairs:
        tag = f"({m},{n})"
        run(f"counts {tag}", _suite_counts, m, n)
        run(f"solver-vs-parking {tag}", _suite_solver_matches_parking, m, n)
        run(f"zeta-bijection {tag}", _suite_zeta_bijection, m, n)
        run(f"equidistribution {tag}", _suite_equidistribution, m, n)
        run(f"sweep {tag}", _suite_sweep_properties, m, n)
        run(f"affine-agreement {tag}", _suite_affine_agreement, m, n)
        run(f"tuple-validity {tag}", _suite_tuple_validity, m, n)
        run(f"graph-reachability {tag}", _suite_graph_reachability, m, n)
        # at m = 1 every word is parking and every norm is 0, so the
        # lipschitz and divergence suites would check nothing
        if m > 1:
            run(f"lipschitz {tag}", _suite_lipschitz, m, n, rng)
        if 1 < m <= 4 and n <= 4:
            run(f"divergence {tag}", _suite_divergence, m, n)
        run(f"oracle {tag}", _suite_oracle_agreement, m, n)
    return report


def format_report(report: VerifyReport, timings: bool = False) -> str:
    lines = []
    for s in report.suites:
        status = "PASS" if s.ok else "FAIL"
        line = f"{status} {s.name} ({s.passed} passed, {s.failed} failed)"
        if timings:
            line += f" [{s.seconds:.2f}s]"
        if s.first_failure:
            line += f"\n     first failure: {s.first_failure}"
        lines.append(line)
    lines.append(
        f"{'OK' if report.ok else 'FAILED'}: "
        f"{report.passed} assertions passed, {report.failed} failed"
    )
    return "\n".join(lines)
