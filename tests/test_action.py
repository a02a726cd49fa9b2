import itertools
import random
import tracemalloc
from math import gcd

import pytest

from ratpark import (
    Cycle,
    DimensionMismatch,
    Diverged,
    Filter,
    Fixed,
    InternalInconsistency,
    InvalidBudget,
    IterationBudgetExhausted,
    LetterOutOfRange,
    NotAParkingWord,
    Point,
    RatparkError,
    Word,
    apply_letter,
    apply_word,
    construct_fixed_point_general,
    contraction_certificate,
    distance,
    enumerate_words,
    filter_from_dyck_word,
    find_fixed_point,
    fixed_point_oracle,
    is_parking_word,
    norm,
    staircase_point,
    to_balanced,
    touch_decomposition,
)
from ratpark import action, tuples
from ratpark.action import _apply_raw, _norm
from ratpark.reference import (
    FIXED_POINTS_3_4,
    FIXED_REGIONS_3_3,
    GCD_EXAMPLE_6_9,
    GCD_EXAMPLE_9_12,
    ORBIT_3_5,
)


def w(m, n, text):
    return Word(m, n, tuple(int(ch) for ch in text))


def brute_norm(coords):
    return sum(
        (b - a) ** 2 for a, b in itertools.combinations(coords, 2)
    )


def test_point_validation():
    with pytest.raises(DimensionMismatch):
        Point((2, 1))
    assert Point((1, 1, 2)).total == 4
    # exact integers only: a float or bool coordinate is refused up front,
    # not deep inside the solver
    for coords in ((0.5, 1.0, 4.5), (0, 1.0, 2), (False, True, 2), (0, 1, "2")):
        with pytest.raises(DimensionMismatch):
            Point(coords)


def test_apply_letter_examples():
    assert apply_letter(Point((0, 2, 4)), 0).coords == (1, 2, 3)
    assert apply_letter(Point((-1, 3, 4)), 1).coords == (-2, 3, 5)
    assert apply_letter(Point((0, 0)), 1).coords == (-1, 1)
    with pytest.raises(LetterOutOfRange):
        apply_letter(Point((0, 0)), 2)
    # a float or bool letter is refused, as Word refuses it
    for letter in (1.0, True, "1"):
        with pytest.raises(LetterOutOfRange):
            apply_letter(Point((0, 1, 2)), letter)


def test_apply_word_chain():
    word_ = w(3, 5, ORBIT_3_5["word"])
    cur = Point(ORBIT_3_5["chain"][0])
    for letter, expected in zip(word_.letters, ORBIT_3_5["chain"][1:]):
        cur = apply_letter(cur, letter)
        assert cur.coords == expected
    assert apply_word(Point(ORBIT_3_5["chain"][0]), word_).coords == ORBIT_3_5[
        "chain"
    ][0]


def test_apply_word_six_nine_fixture():
    word_ = w(6, 9, GCD_EXAMPLE_6_9["word"])
    fp = Point(GCD_EXAMPLE_6_9["fixed_point"])
    assert apply_word(fp, word_) == fp


def test_apply_word_identity_and_mismatch():
    from ratpark.action import _apply_raw

    p = Point((-1, 3, 4))
    assert apply_word(p, Word(3, 1, (0,))).coords == (1, 2, 3)
    assert _apply_raw(p.coords, (), 3, 0) == p.coords
    with pytest.raises(DimensionMismatch):
        apply_word(p, Word(4, 2, (0, 1)))


def test_apply_word_preserves_sum_and_order():
    for letters in itertools.product(range(4), repeat=3):
        word_ = Word(4, 3, letters)
        p = Point((-3, 0, 2, 7))
        q = apply_word(p, word_)
        assert q.total == p.total
        assert q.coords == tuple(sorted(q.coords))


def test_norm_examples_against_defining_sum():
    assert norm(Point((0, 0, 0))) == 0
    assert norm(Point((-1, 3, 4))) == 42 == brute_norm((-1, 3, 4))
    assert norm(Point((-2, 3, 5))) == 78 == brute_norm((-2, 3, 5))
    for coords in itertools.product(range(-4, 5), repeat=3):
        assert norm(Point(tuple(sorted(coords)))) == brute_norm(coords)


def test_distance_example():
    assert distance(Point((-1, 3, 4)), Point((0, 2, 4))) == 6


def test_staircase_point_is_balanced():
    for m, n in ((3, 4), (4, 3), (5, 3), (6, 9), (2, 2)):
        p = staircase_point(m, n)
        assert p.total == m * (m + 1) // 2


def test_find_fixed_point_published_values():
    for target, words in FIXED_POINTS_3_4.items():
        for text in words:
            report = find_fixed_point(w(3, 4, text))
            assert isinstance(report.outcome, Fixed)
            assert report.outcome.point.coords == target


def test_find_fixed_point_diverges_on_non_parking():
    report = find_fixed_point(w(4, 3, "022"))
    assert isinstance(report.outcome, Diverged)
    report = find_fixed_point(w(3, 5, "22222"))
    assert isinstance(report.outcome, Diverged)


def test_find_fixed_point_gcd_words_fix_or_cycle():
    # opportunistic iteration on words with gcd > 1 never errors out
    for text in ("000", "012", "210"):
        report = find_fixed_point(w(3, 3, text))
        assert isinstance(report.outcome, (Fixed, Cycle))


def test_fixed_point_oracle_examples(monkeypatch):
    # the oracle is an independent route: neither the solver nor the action
    def boom(*args, **kwargs):
        raise AssertionError("the oracle called the action or the solver")

    for name in ("find_fixed_point", "_act", "_apply_raw", "_apply_traced"):
        monkeypatch.setattr(action, name, boom)
    assert fixed_point_oracle(w(3, 5, "10011")).coords == (-1, 3, 4)
    assert fixed_point_oracle(w(3, 4, "0000")).coords == (1, 2, 3)
    assert fixed_point_oracle(w(3, 4, "0012")).coords == (-2, 2, 6)


def test_oracle_matches_solver():
    for m, n in ((3, 4), (4, 3), (5, 4), (3, 7), (7, 3)):
        for word_ in enumerate_words(m, n, "parking"):
            report = find_fixed_point(word_)
            assert fixed_point_oracle(word_) == report.outcome.point


def test_fixed_region_words():
    for target, words in FIXED_REGIONS_3_3.items():
        for text in words:
            assert apply_word(Point(target), w(3, 3, text)).coords == target


def test_contraction_certificate():
    word_ = w(3, 5, "10011")
    x, y = Point((-1, 3, 4)), Point((0, 2, 4))
    assert contraction_certificate(word_, x, y)
    assert contraction_certificate(word_, x, x)


def test_construct_fixed_point_general_nine_twelve():
    word_ = Word(9, 12, GCD_EXAMPLE_9_12["word"])
    witness = construct_fixed_point_general(word_)
    assert apply_word(witness, word_) == witness
    # blocks rescale the published component fixed points by n/n_j = 3;
    # the assembled coordinates reproduce them up to a uniform shift
    diffs = [
        tuple(c - block[0] for c in block)
        for block in GCD_EXAMPLE_9_12["scaled_blocks"]
    ]
    coords = witness.coords
    for j, diff in enumerate(diffs):
        chunk = coords[3 * j : 3 * j + 3]
        assert tuple(c - chunk[0] for c in chunk) == diff


def test_construct_fixed_point_general_coprime_degenerates():
    word_ = w(3, 5, "10011")
    assert construct_fixed_point_general(word_).coords == (-1, 3, 4)


def test_construct_fixed_point_general_refuses_non_parking_words():
    for m, n, text in ((3, 5, "22222"), (3, 3, "022"), (6, 9, "000000555")):
        with pytest.raises(NotAParkingWord):
            construct_fixed_point_general(w(m, n, text))


SMALL_GCD_SIZES = ((2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 6), (6, 3))


def test_construct_fixed_point_general_exhaustive_small_gcd():
    # includes blocks that are themselves non-coprime, e.g. the (4,2)
    # block of the (6,3) word 004, where plain iteration orbits the
    # fixed region in a 2-cycle and the witness is the cycle's floored
    # centroid
    for m, n in SMALL_GCD_SIZES:
        for word_ in enumerate_words(m, n, "parking"):
            witness = construct_fixed_point_general(word_)
            assert apply_word(witness, word_) == witness, word_


def test_touch_blocks_keep_the_scaled_sums():
    # the precondition of _scaled_block_fixed_point: each block q of a
    # parking word's touch decomposition, acted on with add = m and
    # cycle_sub = n, gains m * q.n and loses q.m * n per application
    blocks = 0
    for m, n in SMALL_GCD_SIZES:
        for word_ in enumerate_words(m, n, "parking"):
            for _, q in touch_decomposition(word_):
                assert q.n * m == q.m * n, (word_, q)
                blocks += 1
    assert blocks == 1157


def test_floor_commutes_with_the_action():
    # the floor lemma behind the gcd > 1 block witness: acting by (m, n)
    # on S // p is acting by (p*m, p*n) on S, floored
    rng = random.Random(32)
    for _ in range(3000):
        p, m, n = rng.randint(1, 12), rng.randint(1, 7), rng.randint(1, 9)
        span = p * m * n
        coords = tuple(sorted(rng.randint(-span, span) for _ in range(m)))
        letters = [rng.randrange(m) for _ in range(rng.randint(0, 2 * n))]
        floored = tuple(s // p for s in coords)
        scaled = _apply_raw(coords, letters, p * m, p * n)
        assert _apply_raw(floored, letters, m, n) == tuple(
            v // p for v in scaled
        ), (coords, letters, p, m, n)


def _seen_block_fixed_point(q, add, cycle_sub, budget, restarts):
    """The gcd > 1 block builder with a record of every orbit point.

    The reference for the O(m)-memory builder: appends to ``restarts``
    once per centroid restart.
    """
    mu, n_j = q.m, q.n
    ratio, rem = divmod(add, mu)
    if rem == 0:
        start = tuple(c * ratio for c in staircase_point(mu, n_j).coords)
    else:
        start = (0,) * mu
    tried = set()
    for _ in range(2 * mu + 4):
        tried.add(start)
        seen = {start: 0}
        cur = start
        cycle_start = None
        for it in range(1, budget + 1):
            nxt = _apply_raw(cur, q.letters, add, cycle_sub)
            if nxt == cur:
                return cur
            if nxt in seen:
                cycle_start = seen[nxt]
                break
            seen[nxt] = it
            cur = nxt
        if cycle_start is None:
            raise IterationBudgetExhausted(
                f"block word {q} unresolved within {budget}"
            )
        restarts.append(start)
        cycle_points = [p for p, i in seen.items() if i >= cycle_start]
        period = len(cycle_points)
        centroid = tuple(
            sorted(sum(col) // period for col in zip(*cycle_points))
        )
        if centroid not in tried:
            start = centroid
        else:
            start = tuple(
                c + 1 if i == mu - 1 else c for i, c in enumerate(start)
            )
    raise InternalInconsistency(
        f"no integral fixed point located for block word {q}"
    )


def test_block_witnesses_match_the_recorded_orbit():
    rng = random.Random(23)
    sample = []
    while len(sample) < 200:
        u = Word(6, 9, tuple(rng.randrange(6) for _ in range(9)))
        if is_parking_word(u):
            sample.append(u)
    # at (8,4) the witness depends on the exact centroid of some cycles
    sizes = ((3, 6), (4, 6), (8, 4))
    words = [u for m, n in sizes for u in enumerate_words(m, n, "parking")]

    def outcome(build, *args):
        try:
            return build(*args)
        except RatparkError as exc:
            return type(exc), str(exc)

    restarts, exhausted = [], 0
    for u in words + sample:
        for _, q in touch_decomposition(u):
            # the default budget, and budgets that cut some orbits short
            for budget in (action.default_budget(u.m, u.n), 1, 2, 3, 4, 6):
                expected = outcome(
                    _seen_block_fixed_point, q, u.m, u.n, budget, restarts
                )
                got = outcome(action._scaled_block_fixed_point, q, u.m, u.n, budget)
                assert got == expected, (u, q, budget)
                exhausted += expected[0] is IterationBudgetExhausted
    assert restarts and exhausted


def test_divergence_of_all_non_parking_words_up_to_five():
    for m in range(1, 6):
        for n in range(1, 6):
            for word_ in enumerate_words(m, n, "all"):
                if is_parking_word(word_):
                    continue
                cur = staircase_point(m, n)
                start = norm(cur)
                for _ in range(50):
                    cur = apply_word(cur, word_)
                assert norm(cur) > start, (m, n, word_)


def test_fixed_point_residue_structure():
    # gcd = 1: a complete residue system mod m
    for m, n in ((3, 4), (4, 3), (3, 5)):
        for word_ in enumerate_words(m, n, "parking"):
            point = find_fixed_point(word_).outcome.point
            assert sorted(c % m for c in point.coords) == list(range(m))
    # gcd > 1: the residue multiset is invariant under adding n mod m
    m = 6
    residues = sorted(c % m for c in GCD_EXAMPLE_6_9["fixed_point"])
    shifted = sorted((r + 9) % m for r in residues)
    assert residues == shifted


def test_six_nine_simplex_and_convexity():
    word_ = w(6, 9, GCD_EXAMPLE_6_9["word"])
    from ratpark.action import _apply_raw

    for vertex in GCD_EXAMPLE_6_9["simplex"]:
        assert apply_word(Point(vertex), word_).coords == vertex
    # pairwise sums are fixed by the doubled action: the midpoints of the
    # fixed simplex stay fixed, witnessing convexity without fractions
    for a in GCD_EXAMPLE_6_9["simplex"]:
        for b in GCD_EXAMPLE_6_9["simplex"]:
            summed = tuple(x + y for x, y in zip(a, b))
            assert _apply_raw(summed, word_.letters, 12, 18) == summed


# ------------------------------------------------ both kernels against the loop


def _bubble_traced(coords, letters, add, total_sub):
    """The action as a compare-exchange loop, also recording slots."""
    xs = list(coords)
    last = len(xs) - 1
    slots = []
    for letter in letters:
        v = xs[letter] + add
        j = letter
        while j < last and xs[j + 1] < v:
            xs[j] = xs[j + 1]
            j += 1
        xs[j] = v
        slots.append(j)
    return tuple(x - total_sub for x in xs), slots


# (mu, n_j, add, sub) of gcd > 1 blocks: construct_fixed_point_general
# acts on mu < m coordinates with the whole word's add = m and sub = n,
# where a whole word acts as (m, n, m, n)
BLOCK_CASES = [(2, 3, 4, 6), (4, 6, 6, 9), (3, 2, 9, 6), (25, 38, 50, 76)]


def _tied_point(rng, mu, add):
    # every point repeats a coordinate, and in a range 3*add wide a moved
    # value often ties with a coordinate it meets
    values = [rng.randrange(-add, 2 * add) for _ in range(mu - 1)]
    return tuple(sorted(values + [rng.choice(values)]))


def test_apply_traced_matches_the_loop():
    rng = random.Random(17)
    ties = 0
    sizes = ((3, 3), (4, 6), (5, 4), (13, 21), (50, 77))
    for mu, n_j, add, sub in [(m, n, m, n) for m, n in sizes] + BLOCK_CASES:
        for _ in range(200):
            coords = _tied_point(rng, mu, add)
            word_ = tuple(rng.randrange(mu) for _ in range(n_j))
            for letters, total_sub in [((i,), 1) for i in range(mu)] + [(word_, sub)]:
                expected = _bubble_traced(coords, letters, add, total_sub)
                got = action._apply_traced(coords, letters, add, total_sub)
                assert got == expected
                assert _apply_raw(coords, letters, add, total_sub) == expected[0]
            ties += sum(c + add in coords for c in coords)
    assert ties > 0


def test_in_place_kernel_keeps_its_list_sorted_and_its_sum_exact():
    # verify._contracts relies on this contract: each letter adds `add` to
    # one coordinate, so two points' sums move alike and their difference
    # keeps its sum
    rng = random.Random(31)
    sizes = ((3, 4), (13, 21), (50, 77))
    for mu, n_j, add, _ in [(m, n, m, n) for m, n in sizes] + BLOCK_CASES:
        for _ in range(100):
            xs = list(_tied_point(rng, mu, add))
            letters = [rng.randrange(mu) for _ in range(n_j)]
            before = sum(xs)
            action._act(xs, letters, add)
            assert xs == sorted(xs)
            assert sum(xs) == before + len(letters) * add


def test_in_place_kernel_then_shift_is_the_action():
    # _act leaves out the uniform shift; adding it back gives _apply_raw,
    # and for a whole word the chain of single letters, ties included
    rng = random.Random(29)
    ties = 0
    sizes = ((3, 4), (13, 21), (50, 77))
    for mu, n_j, add, sub in [(m, n, m, n) for m, n in sizes] + BLOCK_CASES:
        for _ in range(100):
            coords = _tied_point(rng, mu, add)
            letters = tuple(rng.randrange(mu) for _ in range(n_j))
            xs = list(coords)
            assert action._act(xs, letters, add) is None
            shifted = tuple(x - sub for x in xs)
            assert shifted == _apply_raw(coords, letters, add, sub)
            assert shifted == _bubble_traced(coords, letters, add, sub)[0]
            if add == mu:
                chained = Point(coords)
                for letter in letters:
                    chained = apply_letter(chained, letter)
                assert shifted == chained.coords
            ties += sum(c + add in coords for c in coords)
    assert ties > 0


def test_apply_raw_leaves_its_argument_untouched():
    coords = [-3, 0, 0, 4, 9]
    letters = (4, 0, 2, 2, 1, 3, 0)
    assert _apply_raw(coords, letters, 5, 7) == _apply_raw(tuple(coords), letters, 5, 7)
    assert coords == [-3, 0, 0, 4, 9]


# ------------------------------------------ drift jumps against the plain orbit


def _plain_orbit(w, max_iterations=None, escape_bound=None, start=None):
    """Plain value iteration with every orbit point recorded.

    The solver's definition: ``find_fixed_point`` must report the same
    outcome and iteration count, and raise the same errors.
    """
    m, n = w.m, w.n
    if max_iterations is None:
        budget = action.default_budget(m, n)
    else:
        budget = max_iterations
    start = (staircase_point(m, n) if start is None else start).coords
    bound = (_norm(start) + (m * n) ** 4) if escape_bound is None else escape_bound
    seen = {start: 0}
    cur = start
    for it in range(1, budget + 1):
        nxt = _apply_raw(cur, w.letters, m, n)
        if nxt == cur:
            return Fixed(Point(cur)), it
        nrm = _norm(nxt)
        if nrm > bound:
            return Diverged(it, nrm), it
        if nxt in seen:
            period = it - seen[nxt]
            distinct = len({c % m for c in start}) == m
            if gcd(m, n) == 1 and is_parking_word(w) and distinct:
                raise InternalInconsistency(
                    f"coprime parking word {w} entered a {period}-cycle",
                    witness=Point(nxt),
                )
            return Cycle(period, Point(nxt)), it
        seen[nxt] = it
        cur = nxt
    raise IterationBudgetExhausted(
        f"no resolution for {w} within {budget} word applications"
    )


def _run(solve, w, **kwargs):
    try:
        result = solve(w, **kwargs)
    except RatparkError as exc:
        return type(exc), str(exc), getattr(exc, "witness", None)
    if isinstance(result, tuple):
        return result
    return result.outcome, result.iterations


def _assert_matches_plain(w, **kwargs):
    expected = _run(_plain_orbit, w, **kwargs)
    assert _run(find_fixed_point, w, **kwargs) == expected, (w, kwargs)
    return expected


def _outcome_kind(result):
    return result[0] if isinstance(result[0], type) else type(result[0])


def test_solver_matches_plain_orbit_on_small_sizes():
    kinds = set()
    for m, n in ((3, 4), (4, 3), (3, 5), (4, 5), (5, 4), (2, 4), (3, 3), (4, 6)):
        for word_ in enumerate_words(m, n, "all"):
            for kwargs in ({}, {"max_iterations": 4}, {"escape_bound": 300}):
                kinds.add(_outcome_kind(_assert_matches_plain(word_, **kwargs)))
    assert kinds == {Fixed, Diverged, IterationBudgetExhausted}


def test_solver_matches_plain_orbit_on_cycles():
    # off the balanced slice integral fixed points may not exist, and the
    # orbit closes into a cycle instead; so does the orbit of a coprime
    # parking word from a start whose residues mod m repeat, which can
    # never reach the fixed point, whose residues are distinct
    rng = random.Random(3)
    kinds = set()
    coprime_parking_cycles = 0
    for m, n in ((4, 2), (4, 6), (6, 4), (3, 4), (5, 4)):
        for _ in range(150):
            word_ = Word(m, n, tuple(rng.randrange(m) for _ in range(n)))
            coords = tuple(sorted(rng.randrange(-3 * m, 3 * m) for _ in range(m)))
            # tight budgets end some orbits right after their first repeat,
            # before cycle detection has seen it
            for budget in (None, 1, 2, 3, 5, 8):
                result = _assert_matches_plain(
                    word_, max_iterations=budget, start=Point(coords)
                )
                kinds.add(_outcome_kind(result))
                if gcd(m, n) == 1 and is_parking_word(word_):
                    coprime_parking_cycles += _outcome_kind(result) is Cycle
    assert {Cycle, IterationBudgetExhausted} <= kinds
    # no random start with distinct residues closed a cycle
    assert InternalInconsistency not in kinds
    assert coprime_parking_cycles > 0
    # a coprime orbit whose repeat closes on the last application of the
    # budget, from a start with residues 0, 0, 1 mod 3
    result = _assert_matches_plain(
        w(3, 4, "0020"), max_iterations=8, start=Point((-9, 3, 7))
    )
    assert result == (Cycle(3, Point((-2, 1, 2))), 8)


def test_coprime_parking_cycle_from_repeated_residues_is_no_inconsistency(
    monkeypatch,
):
    # each letter shifts every residue mod m by -1, so the residues of
    # (2, 2, 2) stay equal and the orbit cycles with the period m
    report = find_fixed_point(w(3, 4, "0012"), start=Point((2, 2, 2)))
    assert report.outcome == Cycle(3, Point((-2, 1, 7)))
    assert report.iterations == 4
    rng = random.Random(5)
    for m, n in ((5, 7), (13, 21)):
        for _ in range(10):
            word_ = _random_parking_word(rng, m, n)
            coords = [rng.randrange(-3 * m, 3 * m) for _ in range(m - 1)]
            start = Point(tuple(sorted(coords + coords[:1])))
            outcome = find_fixed_point(word_, start=start).outcome
            assert isinstance(outcome, Cycle) and outcome.period == m
    # a cycle from a start with distinct residues stays a violation: a
    # stand-in word that rotates the coordinates closes a 3-cycle from any
    # start; like the real action it commutes with adding a constant, so
    # the in-place kernel of the plain phase, which leaves out the shift of
    # n per application, carries it too
    def cycling(coords, *args):
        return tuple(coords[1:]) + tuple(coords[:1])

    def cycling_in_place(xs, letters, add):
        xs[:] = [c + add * len(letters) // len(xs) for c in cycling(xs)]

    monkeypatch.setattr(action, "_act", cycling_in_place)
    monkeypatch.setattr(action, "_apply_raw", cycling)
    # slots that differ at every application keep drift jumps out
    monkeypatch.setattr(action, "_apply_traced", lambda x, *a: (cycling(x), x))
    with pytest.raises(InternalInconsistency, match="entered a 3-cycle") as info:
        find_fixed_point(w(3, 4, "0012"), start=Point((0, 1, 2)))
    assert info.value.witness == Point((0, 1, 2))
    report = find_fixed_point(w(3, 4, "0012"), start=Point((0, 3, 6)))
    assert report.outcome == Cycle(3, Point((0, 3, 6)))
    # a non-parking word closes no cycle from any start: the sum of its i
    # smallest coordinates falls at each application for some i, so its
    # cycle is a violation even from repeated residues, at any gcd
    for word_ in (w(3, 4, "1222"), w(3, 6, "012222")):
        with pytest.raises(InternalInconsistency, match="non-parking") as info:
            find_fixed_point(word_, start=Point((0, 3, 6)))
        assert info.value.witness == Point((0, 3, 6))


def _warm_start(word_):
    """The balanced Dyck filter of the sorted word, as rank-word inversion uses."""
    dyck = Word(word_.m, word_.n, tuple(sorted(word_.letters)))
    return Point(to_balanced(filter_from_dyck_word(dyck)).row_minima)


def test_solver_matches_plain_orbit_from_warm_starts():
    # a balanced start reaches the staircase orbit's fixed point
    for m, n in ((3, 4), (4, 3), (3, 5), (4, 5), (5, 4)):
        for word_ in enumerate_words(m, n, "parking"):
            outcome, _ = _assert_matches_plain(word_, start=_warm_start(word_))
            assert outcome == find_fixed_point(word_).outcome
    word_ = w(3, 5, "10011")
    for bad in (Point((0, 1)), Point((0, 1, 2, 3)), (-1, 3, 4)):
        with pytest.raises(DimensionMismatch):
            find_fixed_point(word_, start=bad)


def _random_parking_word(rng, m, n):
    """A uniform parking word: exactly one letter shift of a word parks."""
    raw = [rng.randrange(m) for _ in range(n)]
    shifts = (Word(m, n, tuple((x + c) % m for x in raw)) for c in range(m))
    (word_,) = [u for u in shifts if is_parking_word(u)]
    return word_


def _parking_words_by_slack(m, n, seed, slacks):
    """One seeded uniform parking word for each smallest slack in ``slacks``.

    Zeta is a bijection of the parking words, so these are also uniform
    rank words.  The slack ``m * #{j : w_j < i} - i * n`` (``0 < i < m``)
    sets how long the orbit solver runs.
    """
    rng = random.Random(seed)
    found = {}
    while len(found) < len(slacks):
        word_ = _random_parking_word(rng, m, n)
        below = list(itertools.accumulate(word_.letters.count(i) for i in range(m)))
        slack = min(m * below[i - 1] - i * n for i in range(1, m))
        if slack in slacks:
            found.setdefault(slack, word_)
    return found


def test_solver_matches_plain_orbit_on_large_rank_words():
    found = _parking_words_by_slack(50, 77, seed=11, slacks=(1, 2, 3, 4))
    # these pin the jump schedule: a jump test moved to another
    # application changes them, though outcomes and iterations stay exact;
    # the slack-2 orbit drifts from inside the plain phase of the first
    # m + n applications, so its first jump comes later than it could
    applications = {1: 776, 2: 592, 3: 852, 4: 538}
    for slack, word_ in sorted(found.items()):
        outcome, iterations = _assert_matches_plain(word_)
        assert isinstance(outcome, Fixed)
        report = find_fixed_point(word_)
        assert report.applications == applications[slack], (slack, report)
        if slack <= 3:
            assert report.applications < iterations // 4, (slack, report)
    # budgets that run out inside the long drift of the slack-1 orbit
    word_ = found[1]
    for budget in (900, 4_321, 10_000):
        assert _assert_matches_plain(word_, max_iterations=budget)[0] is (
            IterationBudgetExhausted
        )


def test_solver_matches_plain_orbit_on_near_misses():
    # parking words at (13,21) with one letter raised until they stop
    # parking: their orbits drift off through long runs in one piece
    rng = random.Random(5)
    m, n = 13, 21
    near = []
    while len(near) < 6:
        letters = list(_random_parking_word(rng, m, n).letters)
        j = rng.randrange(n)
        while letters[j] < m - 1:
            letters[j] += 1
            if not is_parking_word(Word(m, n, tuple(letters))):
                near.append(Word(m, n, tuple(letters)))
                break
    diverged, applications = [], []
    for word_ in near:
        result = _assert_matches_plain(word_)
        if isinstance(result[0], Diverged):
            diverged.append(word_)
            applications.append(find_fixed_point(word_).applications)
            assert applications[-1] < result[1] // 4
    # the other three exhaust the budget, as the plain orbit does; all
    # three drifts start inside the plain phase of the first m + n = 34
    # applications, so each is jumped only from application 35 on
    assert applications == [60, 40, 60]
    # exhaustion and escape inside a jump window
    word_ = diverged[0]
    outcome, iterations = _assert_matches_plain(word_)
    for budget in (iterations // 3, iterations // 2 + 1, iterations - 1):
        assert _assert_matches_plain(word_, max_iterations=budget)[0] is (
            IterationBudgetExhausted
        )
    steps = set()
    for k in range(1, 12):
        escaped, step = _assert_matches_plain(word_, escape_bound=outcome.norm >> k)
        assert isinstance(escaped, Diverged)
        steps.add(step)
    assert len(steps) > 5 and max(steps) < iterations
    # escape is strict, and the solver skips the exact norm only where
    # C(m,2) times the squared spread rules escape out: a bound one below
    # the escaping norm still escapes there, a bound equal to it does not
    edge_words = [diverged[0]]
    for m, n in ((4, 3), (5, 4)):
        words = enumerate_words(m, n, "all")
        edge_words.append(
            next(u for u in words if isinstance(_plain_orbit(u)[0], Diverged))
        )
    for word_ in edge_words:
        outcome, _ = _assert_matches_plain(word_)
        below = _assert_matches_plain(word_, escape_bound=outcome.norm - 1)
        assert below[0] == outcome
        at = _assert_matches_plain(word_, escape_bound=outcome.norm)[0]
        assert not (isinstance(at, Diverged) and at.step == outcome.step)


def _refuse(name):
    def refuse(*args):
        raise AssertionError(f"{name} called in the plain phase")

    return refuse


def test_short_orbits_run_plain(monkeypatch):
    # a warm-started (50,77) orbit that resolves within m + n applications
    # never traces a slot or builds a piece
    m, n = 50, 77
    rng = random.Random(25)
    short = []
    while len(short) < 12:
        word_ = _random_parking_word(rng, m, n)
        report = find_fixed_point(word_, start=_warm_start(word_))
        if report.iterations <= m + n:
            assert report.applications == report.iterations
            short.append((word_, tuples.tuple_from_rank_word(word_)))
    monkeypatch.setattr(action, "_apply_traced", _refuse("_apply_traced"))
    monkeypatch.setattr(action, "_Piece", _refuse("_Piece"))
    for word_, expected in short:
        assert tuples.tuple_from_rank_word(word_) == expected


def test_plain_phase_boundary():
    # starts on a plain orbit m + n - 1, m + n and m + n + 1 applications
    # before its fixed point, and near misses whose drift begins inside the
    # plain phase: the solver's outcome and iterations stay those of the
    # plain orbit, and it never computes more applications than that
    m, n = 13, 21
    word_ = _parking_words_by_slack(m, n, seed=3, slacks=(1,))[1]
    orbit = [staircase_point(m, n).coords]
    while len(orbit) < 2 or orbit[-1] != orbit[-2]:
        orbit.append(_apply_raw(orbit[-1], word_.letters, m, n))
    assert len(orbit) > m + n + 2
    for length in (m + n - 1, m + n, m + n + 1):
        start = Point(orbit[-1 - length])
        _, iterations = _assert_matches_plain(word_, start=start)
        assert iterations == length
        report = find_fixed_point(word_, start=start)
        assert report.applications <= report.iterations == length
    rng = random.Random(5)
    drifting = 0
    while drifting < 2:
        letters = list(_random_parking_word(rng, m, n).letters)
        letters[letters.index(min(letters))] = m - 1
        near = Word(m, n, tuple(letters))
        if is_parking_word(near):
            continue
        # the slots of application m + n + 1 repeat those of m + n
        cur, slots = staircase_point(m, n).coords, []
        for _ in range(m + n + 1):
            cur, traced = action._apply_traced(cur, near.letters, m, n)
            slots.append(traced)
        outcome, iterations = _assert_matches_plain(near)
        if slots[-1] != slots[-2] or not isinstance(outcome, Diverged):
            continue
        report = find_fixed_point(near)
        assert report.applications < report.iterations == iterations
        drifting += 1


def _cycle_detected_at(report):
    """The application at which Brent's tortoise met the hare: the report
    counts ``detected + period + 2*first`` applications, and the first
    repeat comes ``first + period`` applications from the start."""
    period = report.outcome.period
    return report.applications + period - 2 * report.iterations


def test_each_exit_of_the_plain_phase(monkeypatch):
    # within the first m + n applications the in-place plain phase fixes a
    # point, escapes a small explicit bound, or closes a gcd > 1 cycle that
    # the tortoise finds, as the plain orbit does, and traces nothing
    m, n = 13, 21
    rng = random.Random(33)
    fixed = []
    while len(fixed) < 4:
        word_ = _random_parking_word(rng, m, n)
        start = _warm_start(word_)
        if find_fixed_point(word_, start=start).iterations <= m + n:
            fixed.append((word_, start))
    near = Word(m, n, (m - 1,) + _random_parking_word(rng, m, n).letters[1:])
    assert not is_parking_word(near)
    orbit = [staircase_point(m, n).coords]
    for _ in range(m + n):
        orbit.append(_apply_raw(orbit[-1], near.letters, m, n))
    escapes = [(near, _norm(orbit[k]) - 1, k) for k in (1, 2, 17, m + n)]
    # (4,6) 102120 from a start off the balanced slice: a 2-cycle that the
    # tortoise placed at application 7 meets at application 9
    cycle = (w(4, 6, "102120"), Point((-10, -2, 9, 11)))
    expected = [_run(_plain_orbit, u, start=s) for u, s in fixed]
    expected += [_run(_plain_orbit, u, escape_bound=b) for u, b, _ in escapes]
    expected.append(_run(_plain_orbit, cycle[0], start=cycle[1]))
    monkeypatch.setattr(action, "_apply_traced", _refuse("_apply_traced"))
    monkeypatch.setattr(action, "_Piece", _refuse("_Piece"))
    got = [_run(find_fixed_point, u, start=s) for u, s in fixed]
    for u, bound, k in escapes:
        report = find_fixed_point(u, escape_bound=bound)
        assert isinstance(report.outcome, Diverged)
        assert report.outcome.step <= k and report.applications == report.iterations
        got.append(_run(find_fixed_point, u, escape_bound=bound))
    report = find_fixed_point(cycle[0], start=cycle[1])
    assert report.outcome.period == 2 and _cycle_detected_at(report) == 9 <= 10
    got.append(_run(find_fixed_point, cycle[0], start=cycle[1]))
    assert got == expected
    assert {_outcome_kind(r) for r in got} == {Fixed, Diverged, Cycle}


def test_tortoise_placed_in_the_plain_phase_meets_the_hare_after_it(monkeypatch):
    # the tortoise is copied in the plain phase's in-place frame and handed
    # to the traced phase, where it meets the hare: (6,9) 013004313 places
    # it at application 15 = m + n and closes a 2-cycle at 17; a coprime
    # (13,21) word from a start that repeats a residue places it at 31 and
    # closes its 13-cycle at 44, three applications into the traced phase
    # at the hand-off after application 34
    cases = [
        (w(6, 9, "013004313"), (-18, -11, -11, -4, 15, 17), 15, 2),
        (
            Word(13, 21, (5, 10, 2, 2, 1, 8, 9, 12, 3, 1, 6, 6, 3, 4, 7, 0, 8, 7, 11, 3, 0)),
            (-38, -34, -34, -29, -25, -14, -12, 11, 16, 28, 36, 37, 38),
            31,
            13,
        ),
    ]
    traced = []
    apply_traced = action._apply_traced

    def counted(*args):
        traced.append(args[0])
        return apply_traced(*args)

    monkeypatch.setattr(action, "_apply_traced", counted)
    for word_, coords, placed, period in cases:
        traced.clear()
        start = Point(coords)
        assert _assert_matches_plain(word_, start=start)[0].period == period
        detected = _cycle_detected_at(find_fixed_point(word_, start=start))
        assert placed == detected - period <= word_.m + word_.n < detected
        assert traced


def test_trusted_points_equal_validated_points(monkeypatch):
    # the action, the solver, the oracle and the warm start of rank-word
    # inversion build their points unchecked; each must be the point the
    # validating constructor makes of its coordinates
    solved = []
    solve = action.find_fixed_point

    def recording(word_, **kwargs):
        report = solve(word_, **kwargs)
        solved.extend([kwargs["start"], report.outcome.point])
        return report

    monkeypatch.setattr(action, "find_fixed_point", recording)
    rng = random.Random(21)
    for m, n in ((3, 5), (13, 21), (50, 77)):
        for _ in range(3):
            word_ = _random_parking_word(rng, m, n)
            solved.clear()
            start = Filter(m, n, _warm_start(word_).coords)
            initial = tuples._fixed_filter(word_, start)
            fixed = solve(word_).outcome.point
            points = [
                *solved,
                fixed,
                apply_word(staircase_point(m, n), word_),
                apply_word(fixed, word_),
                apply_letter(fixed, word_.letters[0]),
            ]
            if m < 13:
                points.append(fixed_point_oracle(word_))
            assert initial.row_minima == fixed.coords
            for p in points:
                assert p == Point(p.coords), (word_, p)


def test_solver_memory_is_bounded():
    word_ = _parking_words_by_slack(50, 77, seed=11, slacks=(1,))[1]
    tracemalloc.start()
    try:
        report = find_fixed_point(word_)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.iterations > 10_000
    assert peak < 1_000_000


# the longest orbit from the staircase over every parking word, measured;
# a solver change that lengthens the worst orbit fails here, long before
# an orbit nears its budget of 10*(m+n)**2 applications
STAIRCASE_ORBIT_MAXIMA = {(3, 7): 7, (4, 7): 10, (5, 7): 18, (7, 5): 22}
# the same at sizes too large for tier-1 ((7,8) has 823,543 parking words);
# the slow tier, pytest -m slow, replays them
SLOW_STAIRCASE_ORBIT_MAXIMA = {(6, 7): 16, (5, 8): 21, (7, 8): 22}


def _longest_staircase_orbit(m, n):
    """The most iterations from the staircase over every parking word, each
    of which must reach its fixed point; streamed, in O(m) memory."""
    longest = 0
    for u in enumerate_words(m, n, "parking"):
        report = find_fixed_point(u)
        assert isinstance(report.outcome, Fixed), u
        longest = max(longest, report.iterations)
    return longest


def test_staircase_orbit_maxima_are_replayed(monkeypatch):
    monkeypatch.delenv("RATPARK_MAX_ITER", raising=False)
    for (m, n), longest in STAIRCASE_ORBIT_MAXIMA.items():
        assert _longest_staircase_orbit(m, n) == longest
        assert 50 * longest < action.default_budget(m, n) <= 1440


@pytest.mark.slow
def test_staircase_orbit_maxima_are_replayed_at_larger_sizes(monkeypatch):
    monkeypatch.delenv("RATPARK_MAX_ITER", raising=False)
    for (m, n), longest in SLOW_STAIRCASE_ORBIT_MAXIMA.items():
        assert _longest_staircase_orbit(m, n) == longest, (m, n)
        assert 50 * longest < action.default_budget(m, n)


def test_budget_must_be_a_positive_integer(monkeypatch):
    word_ = w(3, 5, "10011")
    for bad in (0, -5, 2.5, True, "10"):
        with pytest.raises(InvalidBudget):
            find_fixed_point(word_, max_iterations=bad)
    # the environment variable is read by the integer rule of text input:
    # other scripts' digits, underscores and a sign other than - are refused
    for bad in ("abc", "0", "-5", "1.5", "١٠", "1_0", "+5"):
        monkeypatch.setenv("RATPARK_MAX_ITER", bad)
        with pytest.raises(InvalidBudget):
            action.default_budget(3, 5)
