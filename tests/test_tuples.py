import random
from bisect import insort
from collections import Counter
from math import gcd

import pytest

from ratpark import (
    AffinePermutation,
    DimensionMismatch,
    Filter,
    FilterTuple,
    InternalInconsistency,
    LevelNotRemovable,
    NotAParkingWord,
    NotCoprime,
    Point,
    Word,
    anderson,
    anderson_inverse,
    area,
    area_word,
    column_minima,
    dinv,
    dyck_embedding,
    enumerate_sommers,
    enumerate_words,
    filter_from_dyck_word,
    find_fixed_point,
    fixed_point_oracle,
    pak_stanley,
    pak_stanley_inverse,
    qt_table,
    rank_word,
    removable_levels,
    remove,
    sweep,
    sweep_inverse,
    to_balanced,
    tuple_from_area_word,
    tuple_from_rank_word,
    tuple_to_balanced,
    zeta,
    zeta_inverse,
)
from ratpark import filters, tuples
from ratpark.filters import (
    _class_minima,
    _column_groups,
    _dyck_classes,
    _dyck_filter,
    _removable,
    _residue_table,
    after_removal,
    area_letters,
)
from ratpark.reference import (
    QT_4_3_DYCK,
    QT_4_3_PARKING,
    QT_5_3_DYCK,
    QT_5_3_PARKING,
    REMOVALS_4_3,
    REMOVALS_5_3,
    ZETA_4_3,
    ZETA_5_3,
)
from test_action import _parking_words_by_slack, _random_parking_word, _warm_start


def w(m, n, text):
    return Word(m, n, tuple(int(ch) for ch in text))


def test_tuple_validation():
    initial = Filter(3, 5, (-1, 3, 4))
    t = FilterTuple(initial, (3, -1, 2, 5, 6))
    assert t.removals == (3, -1, 2, 5, 6)
    with pytest.raises(LevelNotRemovable):
        FilterTuple(initial, (4, -1, 2, 5, 6))  # 4 is not removable
    with pytest.raises(LevelNotRemovable):
        FilterTuple(initial, (3, -1, 2))
    for removals in ((3.0, -1, 2, 5, 6), (3, -1, 2, 5, True), (3, "-1", 2, 5, 6)):
        with pytest.raises(DimensionMismatch):
            FilterTuple(initial, removals)


def test_worked_example_maps():
    t = FilterTuple(Filter(3, 5, (-1, 3, 4)), (3, -1, 2, 5, 6))
    assert str(rank_word(t)) == "10011"
    assert str(area_word(t)) == "10001"
    parking = tuples.translate(t, -min(t.initial.row_minima))
    assert parking.initial.row_minima == (0, 4, 5)
    assert parking.removals == (4, 0, 3, 6, 7)
    assert str(area_word(parking)) == "10001"
    assert area(t) == 2 and dinv(t) == 1


def test_area_word_five_three():
    t = tuple_from_area_word(w(5, 3, "010"))
    assert tuples.translate(t, -min(t.initial.row_minima)).removals == (0, 7, 5)


def test_area_word_inverse_round_trip():
    for m, n in ((3, 5), (5, 3), (4, 3), (4, 5)):
        for word_ in enumerate_words(m, n, "parking"):
            t = tuple_from_area_word(word_)
            assert area_word(t) == word_
            assert min(t.initial.row_minima) == 0


def test_published_removal_sequences():
    for table, (m, n) in ((REMOVALS_4_3, (4, 3)), (REMOVALS_5_3, (5, 3))):
        for src, removals in table.items():
            t = tuple_to_balanced(tuple_from_area_word(w(m, n, src)))
            assert t.removals == removals


def test_rank_word_inverse():
    t = tuple_from_rank_word(w(3, 5, "10011"))
    assert t.initial.row_minima == (-1, 3, 4)
    assert t.removals == (3, -1, 2, 5, 6)
    for m, n in ((5, 3), (4, 3), (3, 4)):
        for word_ in enumerate_words(m, n, "parking"):
            t = tuple_from_rank_word(word_)
            assert rank_word(t) == word_
    with pytest.raises(NotAParkingWord):
        tuple_from_rank_word(w(4, 3, "022"))
    with pytest.raises(NotCoprime):
        tuple_from_rank_word(w(3, 3, "000"))


def _replayed_from_staircase(word_):
    """The tuple replayed from the fixed point of the staircase orbit."""
    initial = Filter(word_.m, word_.n, find_fixed_point(word_).outcome.point.coords)
    minima, removals = initial.row_minima, []
    for letter in word_.letters:
        removals.append(minima[letter])
        minima = after_removal(minima, minima[letter], word_.m)
    return FilterTuple(initial, tuple(removals))


def test_rank_word_inverse_matches_the_staircase_orbit():
    # 9,439 words; the (50,77) words are one per smallest slack 1 to 4
    pairs = ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4), (7, 3), (4, 7))
    for m, n in pairs + ((7, 4), (6, 5), (5, 6)):
        for word_ in enumerate_words(m, n, "parking"):
            assert tuple_from_rank_word(word_) == _replayed_from_staircase(word_)
    found = _parking_words_by_slack(50, 77, seed=11, slacks=(1, 2, 3, 4))
    for slack, word_ in found.items():
        assert tuple_from_rank_word(word_) == _replayed_from_staircase(word_)
        warm = find_fixed_point(word_, start=_warm_start(word_)).iterations
        assert warm < find_fixed_point(word_).iterations // 2, slack


def test_rank_word_inverse_checks_its_replay(monkeypatch):
    # the one replay checks what FilterTuple would: handed any other
    # balanced (3,5) filter as the fixed point of 10011, it refuses the
    # two whose replay stops at a level that is not removable and the four
    # whose replay removes all five levels but ends elsewhere
    word_ = w(3, 5, "10011")
    stopped = ended = 0
    for b in tuples.enumerate_balanced(3, 5):
        if b.row_minima == (-1, 3, 4):
            continue
        monkeypatch.setattr(tuples, "_fixed_filter", lambda u, start, b=b: b)
        with pytest.raises(InternalInconsistency, match="does not replay"):
            tuple_from_rank_word(word_)
        full = len(tuples._rank_removals(b, word_.letters)[0]) == 5
        stopped, ended = stopped + (not full), ended + full
    assert (stopped, ended) == (2, 4)


def test_rank_word_inverse_oracle_mode():
    assert fixed_point_oracle(w(3, 4, "0012")).coords == (-2, 2, 6)


def test_zeta_tables():
    for table, (m, n) in ((ZETA_4_3, (4, 3)), (ZETA_5_3, (5, 3))):
        for src, dst in table.items():
            assert str(zeta(w(m, n, src))) == dst
            assert str(zeta_inverse(w(m, n, dst))) == src


def test_zeta_is_a_bijection():
    for m, n in ((4, 3), (3, 4), (3, 5), (5, 3), (4, 5)):
        words = [x.letters for x in enumerate_words(m, n, "parking")]
        images = {zeta(Word(m, n, letters)).letters for letters in words}
        assert images == set(words)


def test_zeta_inverse_round_trip():
    for word_ in enumerate_words(5, 3, "parking"):
        assert zeta_inverse(zeta(word_)) == word_
        assert zeta(zeta_inverse(word_)) == word_


def test_stats_on_words():
    assert area(w(3, 5, "10001")) == 2
    assert dinv(w(3, 5, "10001")) == 1
    assert area(w(4, 3, "012")) == 0
    assert dinv(w(4, 3, "012")) == 3
    assert area(w(4, 3, "000")) == 3
    with pytest.raises(NotAParkingWord):
        area(w(4, 3, "022"))


def test_all_zero_word_area_is_maximal():
    for m, n in ((4, 3), (3, 5), (5, 4)):
        zero = Word(m, n, (0,) * n)
        assert area(zero) == (m - 1) * (n - 1) // 2


def test_qt_tables_published():
    assert qt_table(4, 3, "parking").counts == QT_4_3_PARKING
    assert qt_table(4, 3, "dyck").counts == QT_4_3_DYCK
    assert qt_table(5, 3, "parking").counts == QT_5_3_PARKING
    assert qt_table(5, 3, "dyck").counts == QT_5_3_DYCK


def test_qt_table_totals_and_symmetry():
    for m, n in ((3, 4), (4, 5), (5, 4)):
        table = qt_table(m, n)
        assert table.total == m ** (n - 1)
        assert sorted(table.area_marginal()) == sorted(table.dinv_marginal())


def _enumerated_fixed_points(m, n):
    """Reference oracle: one filter tuple per parking word, on the area side.

    Maps each tuple's rank word to its balanced initial row minima, the
    fixed point of that word.
    """
    points = {}
    for u in enumerate_words(m, n, "parking"):
        t = tuple_from_area_word(u)
        points[rank_word(t).letters] = Point(to_balanced(t.initial).row_minima)
    return points


def _enumerated_qt_counts(m, n):
    """Reference ``qt_table(m, n, "parking")``: one filter tuple per parking word."""
    size = (m - 1) * (n - 1) // 2 + 1
    counts = [[0] * size for _ in range(size)]
    for u in enumerate_words(m, n, "parking"):
        t = tuple_from_area_word(u)
        counts[area(t)][dinv(t)] += 1
    return tuple(tuple(row) for row in counts)


def _enumerated_dyck_qt_counts(m, n):
    """Reference ``qt_table(m, n, "dyck")``: one canonical tuple per Dyck filter."""
    size = (m - 1) * (n - 1) // 2 + 1
    counts = [[0] * size for _ in range(size)]
    for u in enumerate_words(m, n, "dyck"):
        t = dyck_embedding(filter_from_dyck_word(u))
        counts[area(t)][dinv(t)] += 1
    return tuple(tuple(row) for row in counts)


def _coprime_pairs(top, words_at_most):
    return [
        (m, n)
        for m in range(1, top + 1)
        for n in range(1, top + 1)
        if gcd(m, n) == 1 and m ** (n - 1) <= words_at_most
    ]


def test_fixed_point_oracle_matches_the_enumeration():
    for m, n in _coprime_pairs(10, 1_000):
        points = _enumerated_fixed_points(m, n)
        assert len(points) == m ** (n - 1)
        for word_ in enumerate_words(m, n, "parking"):
            assert fixed_point_oracle(word_) == points[word_.letters], word_


def test_fixed_point_oracle_matches_the_solver_at_seven_nine():
    rng = random.Random(7)
    for _ in range(5):
        word_ = _random_parking_word(rng, 7, 9)
        solved = tuple_from_rank_word(word_).initial.row_minima
        assert fixed_point_oracle(word_).coords == solved, word_


def test_fixed_point_oracle_needs_exactly_one_replay(monkeypatch):
    word_ = w(3, 5, "10011")
    balanced = list(tuples.enumerate_balanced(3, 5))
    monkeypatch.setattr(tuples, "enumerate_balanced", lambda m, n: balanced * 2)
    with pytest.raises(InternalInconsistency, match="2 balanced tuples"):
        fixed_point_oracle(word_)
    others = [b for b in balanced if b.row_minima != (-1, 3, 4)]
    monkeypatch.setattr(tuples, "enumerate_balanced", lambda m, n: others)
    with pytest.raises(InternalInconsistency, match="0 balanced tuples"):
        fixed_point_oracle(word_)


def test_fixed_point_oracle_drops_candidates_at_a_refused_level(monkeypatch):
    # a candidate leaves at its first non-removable level; only the five
    # of the seven balanced (3,5) filters that replay 10011 to the end
    # reach FilterTuple, which accepts exactly one of them
    constructions = []
    post_init = FilterTuple.__post_init__

    def counted(self):
        constructions.append(self.initial.row_minima)
        post_init(self)

    monkeypatch.setattr(FilterTuple, "__post_init__", counted)
    assert fixed_point_oracle(w(3, 5, "10011")).coords == (-1, 3, 4)
    assert len(constructions) == 5 < sum(1 for _ in tuples.enumerate_balanced(3, 5))
    assert (-1, 3, 4) in constructions


def test_qt_table_matches_the_enumeration():
    for m, n in _coprime_pairs(6, 6**6) + [(5, 7)]:
        assert qt_table(m, n).counts == _enumerated_qt_counts(m, n), (m, n)


def test_dyck_qt_table_matches_the_embeddings():
    for m, n in _coprime_pairs(8, 8**7):
        assert qt_table(m, n, "dyck").counts == _enumerated_dyck_qt_counts(m, n)


def test_qt_table_refuses_a_group_out_of_order(monkeypatch):
    classes = tuples._dyck_classes

    def reversed_groups(m, n):
        for letters, d, groups in classes(m, n):
            yield letters, d, {k: g[::-1] for k, g in groups.items()}

    monkeypatch.setattr(tuples, "_dyck_classes", reversed_groups)
    with pytest.raises(InternalInconsistency, match="not removable"):
        qt_table(3, 4)


def test_qt_table_seven_nine_is_symmetric():
    table = qt_table(7, 9)
    assert table.total == 7**8
    assert table.counts == tuple(zip(*table.counts))


def test_qt_table_csv():
    csv = qt_table(4, 3).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "area\\dinv,0,1,2,3"
    assert lines[1] == "0,1,2,2,1"
    assert len(lines) == 5


def test_equidistribution():
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4), (2, 5), (5, 2)):
        words = list(enumerate_words(m, n, "parking"))
        assert sorted(area(x) for x in words) == sorted(dinv(x) for x in words)


def test_fixed_point_consistency():
    # the balanced initial minima are fixed by the tuple's rank word
    from ratpark import Point, apply_word

    for word_ in enumerate_words(4, 3, "parking"):
        t = tuple_to_balanced(tuple_from_area_word(word_))
        point = Point(t.initial.row_minima)
        assert apply_word(point, rank_word(t)) == point


def test_removals_are_column_minima_permutation():
    for word_ in enumerate_words(3, 5, "parking"):
        t = tuple_from_area_word(word_)
        assert sorted(t.removals) == list(column_minima(t.initial))
        # same residue class mod m: removed in increasing order
        seen = {}
        for v in t.removals:
            r = v % t.m
            assert seen.get(r, v - 1) < v
            seen[r] = v


def _chain_of_removals(initial, removals):
    """Reference check: a validated filter per stage, as FilterTuple once did."""
    m, n = initial.m, initial.n
    if len(removals) != n:
        raise LevelNotRemovable(f"expected {n} removals, got {len(removals)}")
    stage = initial
    for v in removals:
        below = v - n
        if v not in stage.row_minima or below >= stage.minimum_by_residue(below % m):
            raise LevelNotRemovable(f"level {v} is not removable")
        stage = Filter(m, n, after_removal(stage.row_minima, v, m))
    if stage.row_minima != tuple(v + n for v in initial.row_minima):
        raise InternalInconsistency(f"final stage {stage.row_minima}")


def _outcome(check, initial, removals):
    try:
        check(initial, removals)
    except (LevelNotRemovable, InternalInconsistency) as exc:
        return type(exc)
    return None


def _mutations(t, rng):
    """The tuple's removals, then seeded corruptions of them."""
    m, n, r = t.m, t.n, list(t.removals)
    yield tuple(r)
    yield tuple(r[:-1])
    i, j = rng.sample(range(n), 2)
    swapped = r[:]
    swapped[i], swapped[j] = r[j], r[i]
    yield tuple(swapped)
    minima = list(t.stages())[i].row_minima
    stray = rng.choice(
        [v for v in range(minima[0] - m, minima[-1] + m) if v not in minima]
    )
    yield tuple(r[:i] + [stray] + r[i + 1 :])
    yield tuple(r[:i] + [r[i] + rng.choice((-m, m))] + r[i + 1 :])
    # n removable levels in a row need not end at the initial filter + n
    stage, walk = t.initial, []
    for _ in range(n):
        walk.append(rng.choice(removable_levels(stage)))
        stage = remove(stage, walk[-1])
    yield tuple(walk)


def test_tuple_check_matches_the_removal_chain():
    rng = random.Random(11)
    seen = Counter()
    for m, n in ((3, 4), (4, 5), (5, 3)):
        for word_ in enumerate_words(m, n, "parking"):
            t = tuple_from_area_word(word_)
            for removals in _mutations(t, rng):
                want = _outcome(_chain_of_removals, t.initial, removals)
                assert _outcome(FilterTuple, t.initial, removals) == want
                seen[want] += 1
    assert set(seen) == {None, LevelNotRemovable, InternalInconsistency}


def test_public_filter_validations_per_op_do_not_grow_with_n(monkeypatch):
    # library-derived filters, words, points and windows are trusted; only
    # boundary filters validate, sweep_inverse, which needs only the fixed
    # filter, builds no tuple, and no op validates a word, point or window
    # it derives
    counts = Counter()

    def counting(cls):
        post_init = cls.__post_init__

        def counted(self):
            counts[cls] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    types = (FilterTuple, Filter, Word, Point, AffinePermutation)
    for cls in types:
        counting(cls)
    per_op, sizes = {}, ((3, 5), (13, 21))
    for m, n in sizes:
        word_ = _random_parking_word(random.Random(3), m, n)
        swept = sweep(filter_from_dyck_word(Word(m, n, tuple(sorted(word_.letters)))))
        window = anderson_inverse(word_)
        ops = (
            (zeta, word_),
            (zeta_inverse, word_),
            (dinv, word_),
            (sweep_inverse, swept),
            (anderson_inverse, word_),
            (pak_stanley_inverse, word_),
            (anderson, window, m),
            (pak_stanley, window, m),
        )
        for op, *args in ops:
            counts.clear()
            op(*args)
            per_op[op.__name__, m, n] = tuple(counts[cls] for cls in types)
    # dyck filters of checked words are trusted; the solver's fixed point is
    # not, and the replay of its rank word checks the removals as it walks
    # them, so rank-word inversion validates no tuple; a window is read off
    # the checked removals, with no second tuple and no second check; a word
    # the library derives is checked by its theorem, not validated; the
    # solver's start and outcome are points by construction
    expected = {
        "zeta": (1, 0, 0, 0, 0),
        "zeta_inverse": (0, 1, 0, 0, 0),
        "dinv": (1, 0, 0, 0, 0),
        "sweep_inverse": (0, 1, 0, 0, 0),
        "anderson_inverse": (1, 0, 0, 0, 0),
        "pak_stanley_inverse": (0, 1, 0, 0, 0),
        "anderson": (0, 0, 0, 0, 0),
        "pak_stanley": (0, 0, 0, 0, 0),
    }
    assert per_op == {
        (op, m, n): want for op, want in expected.items() for m, n in sizes
    }


def test_class_minima_per_op(monkeypatch):
    # a Dyck class's column minima come with its filter, and its row minima
    # are counted from its column lengths, so no route derives class minima;
    # column_minima, which does, shows the count is live
    calls = []
    class_minima = filters._class_minima

    def counted(*args):
        calls.append(args)
        return class_minima(*args)

    monkeypatch.setattr(filters, "_class_minima", counted)
    word_ = _random_parking_word(random.Random(3), 13, 21)
    per_op = {}
    for name, op in (
        ("zeta", lambda: zeta(word_)),
        ("dinv", lambda: dinv(word_)),
        ("anderson_inverse", lambda: anderson_inverse(word_)),
        ("enumerate_sommers", lambda: list(enumerate_sommers(5, 4))),
        ("qt_table", lambda: qt_table(5, 4)),
        ("column_minima", lambda: column_minima(tuple_from_area_word(word_).initial)),
    ):
        calls.clear()
        op()
        per_op[name] = len(calls)
    assert per_op == {
        "zeta": 0,
        "dinv": 0,
        "anderson_inverse": 0,
        "enumerate_sommers": 0,
        "qt_table": 0,
        "column_minima": 1,
    }


def _copying_removal(minima, v, m):
    """Sorted row minima less ``v``, by a copy, a scan and an insertion."""
    out = list(minima)
    out.remove(v)
    insort(out, v + m)
    return out


def _reference_rank_word(t):
    """The rank replay that scans for each removal and copies per step."""
    letters, minima = [], t.initial.row_minima
    for v in t.removals:
        letters.append(minima.index(v))
        minima = _copying_removal(minima, v, t.m)
    return tuple(letters)


def _reference_rank_removals(initial, letters):
    """:func:`tuples._rank_removals` with a copy per step."""
    m, n = initial.m, initial.n
    table, minima, removals = list(initial.by_residue), initial.row_minima, []
    for letter in letters:
        v = minima[letter]
        if not _removable(table, v, m, n):
            break
        table[v % m] = v + m
        removals.append(v)
        minima = _copying_removal(minima, v, m)
    return tuple(removals)


def _reference_dyck_filter(letters, m, n):
    """Row minima and area groups of the Dyck filter of sorted ``letters``,
    the rows derived from the residue table of its column minima."""
    cols = [(k - n) * m + (m - c) * n for k, c in enumerate(letters)]
    groups = {}
    for c, v in zip(letters, cols):
        groups.setdefault(c, []).append(v)
    return _class_minima(_residue_table(cols, n), n, m), groups


def _check_kernels(word_):
    m, n = word_.m, word_.n
    letters = sorted(word_.letters)
    d = _dyck_filter(letters, m, n)
    groups = _column_groups(letters, m, n)
    want_rows, want_groups = _reference_dyck_filter(letters, m, n)
    assert d.row_minima == want_rows, word_
    assert list(groups.items()) == list(want_groups.items()), word_
    t = tuple_from_area_word(word_)
    ranks = rank_word(t).letters
    assert ranks == _reference_rank_word(t), word_
    removals, final = tuples._rank_removals(t.initial, ranks)
    assert removals == t.removals, word_
    assert final == [v + n for v in t.initial.row_minima], word_
    # a replay from a start that is not the fixed point stops early
    start = to_balanced(d)
    assert tuples._rank_removals(start, word_.letters)[0] == _reference_rank_removals(
        start, word_.letters
    ), word_


def test_tuple_kernels_match_the_copying_references():
    seen = 0
    for m in range(1, 8):
        for n in range(1, 8):
            if gcd(m, n) != 1 or m ** (n - 1) > 20_000:
                continue
            for word_ in enumerate_words(m, n, "parking"):
                _check_kernels(word_)
                seen += 1
    assert seen == 45_113
    rng = random.Random(23)
    for m, n in ((50, 77), (77, 101)):
        for _ in range(200):
            _check_kernels(_random_parking_word(rng, m, n))


def test_dyck_rows_match_the_class_minima_on_every_small_class():
    seen = 0
    for m in range(1, 9):
        for n in range(1, 10):
            if gcd(m, n) != 1:
                continue
            for letters, d, groups in _dyck_classes(m, n):
                want_rows, want_groups = _reference_dyck_filter(letters, m, n)
                assert (d.row_minima, groups) == (want_rows, want_groups), letters
                seen += 1
    assert seen == 4_084


def _reference_area_groups(d):
    """The column minima of the Dyck filter ``d`` by area letter, each
    increasing, derived from its row minima."""
    cols = column_minima(d)
    groups = {}
    for q, letter in zip(cols, area_letters(cols, d.m, d.n)):
        groups.setdefault(letter, []).append(q)
    return groups


def test_dyck_class_groups_match_the_row_minima():
    seen = 0
    for m in range(1, 9):
        for n in range(1, 10):
            if gcd(m, n) != 1 or m ** (n - 1) > 20_000:
                continue
            for _, d, groups in _dyck_classes(m, n):
                assert groups == _reference_area_groups(d)
                assert all(g == sorted(g) for g in groups.values())
                seen += 1
    assert seen == 652
