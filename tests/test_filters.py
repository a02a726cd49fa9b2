import random
import sys
import time
import tracemalloc
from itertools import combinations, product
from math import comb, gcd

import pytest

from ratpark import (
    DimensionMismatch,
    Filter,
    InternalInconsistency,
    LetterOutOfRange,
    LevelNotRemovable,
    NotCoprime,
    NotDyck,
    NotInSommers,
    Word,
    anderson,
    anderson_inverse,
    column_minima,
    dinv,
    dyck_embedding,
    dyck_filter_to_path,
    dyck_word,
    enumerate_balanced,
    enumerate_words,
    filter_from_column_minima,
    filter_from_dyck_word,
    filter_from_path,
    generator_filter,
    level,
    mn_swap,
    pak_stanley,
    pak_stanley_inverse,
    qt_table,
    removable_levels,
    remove,
    staircase_point,
    staircase_window,
    sweep,
    sweep_inverse,
    to_balanced,
    to_dyck,
    tuple_from_area_word,
    tuple_from_rank_word,
    tuple_to_balanced,
    zeta,
    zeta_inverse,
)
from ratpark.affine import AffinePermutation, window_to_tuple
from ratpark.filters import _class_minima, _dyck_classes, _residue_table
from ratpark.reference import BALANCED_MINIMA_3_4, REMOVE_CHAIN_3_5
from test_action import _random_parking_word


def test_level():
    assert level(0, 0, 3, 4) == 0
    assert level(1, 1, 3, 5) == 8
    seen = {level(i, j, 3, 4) % 12 for i in range(4) for j in range(3)}
    assert len(seen) == 12


def test_filter_validation():
    with pytest.raises(NotCoprime):
        Filter(2, 4, (0, 1))
    with pytest.raises(InternalInconsistency):
        Filter(3, 4, (0, 3, 5))  # residues 0, 0, 2
    with pytest.raises(InternalInconsistency):
        Filter(3, 4, (0, 2, 10))  # 2 + 4 = 6 missing from row 0's closure
    # (0, 2, 4) is a (3,4) filter; a float or bool stand-in is no level
    for minima in ((0.0, 2, 4), (0, 2, 4.0), (False, 2, 4)):
        with pytest.raises(DimensionMismatch):
            Filter(3, 4, minima)
    # sizes pass the size gate of Word, here, in every coprime-size check
    # and in the staircase builders: a float, bool or nonpositive size is
    # refused before gcd or the staircase sees it
    for m, n, minima in (
        (3.0, 4, (0, 2, 4)),
        (3, 4.0, (0, 2, 4)),
        (True, 3, (0,)),
        (2.5, 3, (0, 2)),
        (2.0, 3, (0, 2)),
        (0, 3, ()),
        (3, 0, (0, 1, 2)),
    ):
        with pytest.raises(LetterOutOfRange):
            Filter(m, n, minima)
        with pytest.raises(LetterOutOfRange):
            qt_table(m, n)
        for build in (staircase_point, generator_filter, staircase_window):
            for sizes in ((m, n), (n, m)):
                with pytest.raises(LetterOutOfRange):
                    build(*sizes)


def _each_built_filter(m, n):
    """Every filter the public builders yield at (m, n), each fresh."""
    for b in enumerate_balanced(m, n):
        yield b
        yield Filter(m, n, b.row_minima)
        yield to_dyck(b)
        yield mn_swap(b)
        yield filter_from_column_minima(m, n, column_minima(b))
        for v in removable_levels(b):
            yield remove(b, v)
        yield from dyck_embedding(to_dyck(b)).stages()


def _scanned_minimum(f, r):
    """The linear scan that the residue table replaced."""
    return next(v for v in f.row_minima if v % f.m == r % f.m)


def test_residue_table_matches_the_row_minima():
    assert Filter._fields == ("m", "n", "row_minima")
    for m, n in ((3, 5), (4, 7), (5, 8)):
        for f in _each_built_filter(m, n):
            # the table is no field: reading it changes no comparison or output
            twin = Filter(f.m, f.n, f.row_minima)
            seen = (hash(f), repr(f), f.row_minima)
            assert f == twin
            table = f.by_residue
            assert (hash(f), repr(f), f.row_minima) == seen
            assert f == twin and hash(f) == hash(twin)
            assert len(table) == f.m
            for v in f.row_minima:
                assert table[v % f.m] == v
            for r in range(-2 * f.m, 2 * f.m):
                assert f.minimum_by_residue(r) == _scanned_minimum(f, r)


def test_generator_filter_membership():
    b = generator_filter(3, 5)
    assert b.row_minima == (-3, 2, 7)
    l = -3
    closure = {
        l + a * 3 + c * 5 for a in range(0, 40) for c in range(0, 40)
    }
    for v in range(-10, 30):
        assert (v >= b.by_residue[v % 3]) == (v in closure)


def test_column_minima_examples():
    assert column_minima(Filter(3, 4, (-1, 1, 3))) == (-1, 1, 2, 4)
    assert column_minima(Filter(3, 5, (2, 4, 6))) == (2, 4, 5, 6, 8)
    assert column_minima(Filter(3, 5, (-1, 3, 4))) == (-1, 2, 3, 5, 6)


def test_representatives():
    f = Filter(3, 4, (-1, 1, 3))
    assert to_dyck(f).row_minima == (0, 2, 4)
    assert to_balanced(f).row_minima == (0, 2, 4)
    assert to_dyck(to_dyck(f)) == to_dyck(f)
    assert to_dyck(Filter(3, 5, (2, 4, 6))).row_minima == (0, 2, 4)
    assert to_balanced(Filter(3, 4, (4, 6, 8))) == to_balanced(f)
    assert to_balanced(Filter(3, 4, (1, 2, 3))) != to_balanced(f)


def test_balanced_duality():
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 4)):
        for b in enumerate_balanced(m, n):
            assert sum(b.row_minima) == comb(m + 1, 2)
            assert sum(column_minima(b)) == comb(n + 1, 2)


def test_removable_levels():
    f = Filter(3, 5, (-1, 3, 4))
    assert removable_levels(f) == (-1, 3)
    # brute force: a level is removable iff it is row- and column-minimal
    for m, n in ((3, 4), (4, 5)):
        for b in enumerate_balanced(m, n):
            cols = set(column_minima(b))
            assert set(removable_levels(b)) == set(b.row_minima) & cols
    assert len(removable_levels(generator_filter(4, 5))) == 1


def test_remove():
    for before, level_, after in REMOVE_CHAIN_3_5:
        assert remove(Filter(3, 5, before), level_).row_minima == after
    f = Filter(3, 5, (-1, 3, 4))
    with pytest.raises(LevelNotRemovable):
        remove(f, 4)
    g = remove(f, 3)
    assert 3 + 3 in g.row_minima


def test_mn_swap_examples_and_involution():
    assert mn_swap(Filter(3, 5, (-1, 3, 4))).row_minima == (-1, 2, 3, 5, 6)
    assert mn_swap(Filter(5, 3, (-1, 2, 3, 5, 6))).row_minima == (-1, 3, 4)
    for m, n in ((2, 3), (3, 4), (4, 5), (5, 6), (5, 2)):
        for b in enumerate_balanced(m, n):
            swapped = mn_swap(b)
            assert sum(swapped.row_minima) == comb(n + 1, 2)
            assert mn_swap(swapped) == b


def test_enumerate_balanced():
    got = tuple(b.row_minima for b in enumerate_balanced(3, 4))
    assert got == BALANCED_MINIMA_3_4
    assert sum(1 for _ in enumerate_balanced(3, 5)) == 7
    assert any(b.row_minima == (-3, 2, 7) for b in enumerate_balanced(3, 5))
    assert sum(1 for _ in enumerate_balanced(1, 6)) == 1
    for m, n in ((2, 3), (3, 4), (2, 5), (3, 5), (4, 5), (5, 6), (6, 7), (5, 7)):
        count = sum(1 for _ in enumerate_balanced(m, n))
        assert count == comb(m + n, n) // (m + n)


def test_dyck_word_round_trip():
    assert str(dyck_word(Filter(3, 4, (0, 2, 4)))) == "0011"
    assert str(dyck_word(Filter(3, 5, (0, 2, 4)))) == "00012"
    f = filter_from_dyck_word(Word(3, 4, (0, 0, 1, 1)))
    assert f.row_minima == (0, 2, 4)
    for m, n in ((3, 4), (4, 3), (4, 7), (5, 4)):
        for w in enumerate_words(m, n, "dyck"):
            assert dyck_word(filter_from_dyck_word(w)) == w
    with pytest.raises(NotDyck):
        filter_from_dyck_word(Word(4, 3, (1, 0, 2)))


def test_dyck_filter_to_path():
    steps, levels = dyck_filter_to_path(Filter(3, 4, (0, 2, 4)))
    assert steps == "NNWWNWW"
    assert levels == (4, 8, 5, 2, 6, 3, 0)
    with pytest.raises(NotDyck):
        dyck_filter_to_path(Filter(3, 4, (1, 2, 3)))
    # west-step levels are exactly the column minima
    for b in enumerate_balanced(3, 5):
        d = to_dyck(b)
        steps, levels = dyck_filter_to_path(d)
        west = sorted(l for s, l in zip(steps, levels) if s == "W")
        assert tuple(west) == column_minima(d)
        north = sorted(l for s, l in zip(steps, levels) if s == "N")
        assert tuple(north) == tuple(v + d.n for v in d.row_minima)


def test_filter_from_path_round_trip():
    for m, n in ((3, 4), (4, 7)):
        for w in enumerate_words(m, n, "dyck"):
            d = filter_from_dyck_word(w)
            steps, _ = dyck_filter_to_path(d)
            assert filter_from_path(m, n, steps) == d
    with pytest.raises(NotDyck):
        filter_from_path(3, 4, "WWWWNNN")
    with pytest.raises(NotDyck):
        filter_from_path(3, 4, "NNWW")
    for m, n, steps in ((0, 1, "W"), (-1, 1, "W"), (1, 0, "N")):
        with pytest.raises(NotDyck):
            filter_from_path(m, n, steps)
    # of all step strings, exactly the Dyck paths are accepted
    for m, n in ((3, 4), (5, 3)):
        accepted = {steps for steps, _ in _accepted_paths(m, n)}
        dyck = {
            dyck_filter_to_path(filter_from_dyck_word(w))[0]
            for w in enumerate_words(m, n, "dyck")
        }
        assert accepted == dyck


def _accepted_paths(m, n):
    """Each step string of m N and n W steps that ``filter_from_path`` takes."""
    for north in combinations(range(m + n), m):
        steps = "".join("N" if i in north else "W" for i in range(m + n))
        try:
            yield steps, filter_from_path(m, n, steps)
        except NotDyck:
            continue


def test_remove_preserves_validity():
    # a level comes off iff it is row- and column-minimal; the level just
    # below the filter misses its own ``v - n`` too, yet is no row minimum
    for m, n in ((3, 4), (4, 3), (4, 5), (5, 3)):
        for b in enumerate_balanced(m, n):
            cols = set(column_minima(b))
            for v in b.row_minima + (b.row_minima[0] - 1,):
                if v in b.row_minima and v in cols:
                    g = remove(b, v)
                    assert isinstance(g, Filter)
                    assert sorted(x % m for x in g.row_minima) == list(range(m))
                else:
                    with pytest.raises(LevelNotRemovable):
                        remove(b, v)


def test_trusted_results_are_filters():
    # filters the library derives without validation pass the public check
    def check(f):
        assert f == Filter(f.m, f.n, f.row_minima)

    pairs = [(m, n) for m in range(1, 6) for n in range(1, 6) if gcd(m, n) == 1]
    for m, n in pairs + [(4, 7)]:
        for b in enumerate_balanced(m, n):
            for f in (b, *(remove(b, v) for v in removable_levels(b))):
                check(f)
                check(to_dyck(f))
                check(to_balanced(f))
                check(mn_swap(f))
        # every word and every step string the checks let through
        dyck = list(enumerate_words(m, n, "dyck"))
        for w in dyck:
            check(filter_from_dyck_word(w))
        # the whole-space builder yields the same filters, in the same order
        classes = list(_dyck_classes(m, n))
        assert [letters for letters, _, _ in classes] == [w.letters for w in dyck]
        for (_, d, _), w in zip(classes, dyck):
            check(d)
            assert d == filter_from_dyck_word(w)
            check(sweep(d))
        for _, d in _accepted_paths(m, n):
            check(d)
        for u in enumerate_words(m, n, "parking"):
            for t in (tuple_from_area_word(u), tuple_from_rank_word(u)):
                for stage in t.stages():
                    check(stage)
                check(tuple_to_balanced(t).initial)


def test_per_word_routes_never_enumerate_classes(monkeypatch):
    # at (50,77) an enumeration of the Dyck classes would never finish, so
    # no per-word route may reach the whole-space builder
    def refuse(m, n):
        raise AssertionError(f"the Dyck classes of ({m},{n}) were enumerated")

    for name, module in list(sys.modules.items()):
        if name.startswith("ratpark") and hasattr(module, "_dyck_classes"):
            monkeypatch.setattr(module, "_dyck_classes", refuse)
    rng = random.Random(16)
    for _ in range(10):
        w = _random_parking_word(rng, 13, 21)
        assert zeta_inverse(zeta(w)) == w
        assert dinv(w) == 12 * 20 // 2 - sum(zeta(w).letters)
        assert anderson(anderson_inverse(w), 13) == w
        assert pak_stanley(pak_stanley_inverse(w), 13) == w
        d = filter_from_dyck_word(Word(13, 21, tuple(sorted(w.letters))))
        assert sweep_inverse(sweep(d)) == d


def _walking_class_minima(starts, step, modulus):
    """The O(len(starts) * modulus) scan of each start's first ``modulus``
    levels, the reference for the boundary walk of ``_class_minima``."""
    best = [None] * modulus
    for v in starts:
        for lvl in range(v, v + modulus * step, step):
            r = lvl % modulus
            if best[r] is None or lvl < best[r]:
                best[r] = lvl
    return tuple(sorted(best))


def _check_boundary_walk(f):
    cols = column_minima(f)
    assert cols == _walking_class_minima(f.row_minima, f.m, f.n)
    # the m<->n mirror recovers the row minima from the column minima
    assert _class_minima(_residue_table(cols, f.n), f.n, f.m) == f.row_minima
    assert _walking_class_minima(cols, f.n, f.m) == f.row_minima


def _check_boundary_walk_on_balanced_filters(most_m, most_n, translates):
    seen = 0
    for m in range(1, most_m + 1):
        for n in range(1, most_n + 1):
            if gcd(m, n) != 1:
                continue
            for b in enumerate_balanced(m, n):
                _check_boundary_walk(b)
                if translates:
                    low = Filter(m, n, [v - m - n for v in b.row_minima])
                    _check_boundary_walk(to_dyck(b))
                    _check_boundary_walk(low)
                seen += 1
    return seen


def test_boundary_walk_matches_the_class_scan():
    # every balanced filter, its Dyck translate and one with negative levels
    assert _check_boundary_walk_on_balanced_filters(9, 11, translates=True) == 27_731
    # 200 seeded filters at (50,77): a balanced Dyck filter and a tuple stage
    rng = random.Random(8)
    for _ in range(100):
        w = _random_parking_word(rng, 50, 77)
        dyck = filter_from_dyck_word(Word(50, 77, tuple(sorted(w.letters))))
        _check_boundary_walk(to_balanced(dyck))
        _check_boundary_walk(rng.choice(list(tuple_from_area_word(w).stages())))


@pytest.mark.slow
def test_boundary_walk_matches_the_class_scan_at_larger_sizes():
    assert _check_boundary_walk_on_balanced_filters(12, 12, translates=False) == 206_227


def test_boundary_walk_closes_only_on_a_filter():
    # a table that is not up-closed sends the walk down one class for good
    with pytest.raises(InternalInconsistency, match="does not close"):
        _class_minima((0, 7, 2), 3, 4)  # 0 + 4 lies below row minimum 7
    # every residue table in a box: the walk closes exactly on the tables
    # that Filter accepts, in both directions, and exactly there the table,
    # read as column minima, builds the filter with those column minima
    for step, modulus in ((3, 4), (4, 3), (2, 5), (5, 2), (4, 5)):
        closed = 0
        for shifts in product(range(-2, 3), repeat=step):
            table = tuple(r + step * k for r, k in enumerate(shifts))
            try:
                want = column_minima(Filter(step, modulus, table))
            except InternalInconsistency:
                with pytest.raises(InternalInconsistency):
                    _class_minima(table, step, modulus)
                with pytest.raises(InternalInconsistency):
                    filter_from_column_minima(modulus, step, table)
            else:
                assert _class_minima(table, step, modulus) == want
                f = filter_from_column_minima(modulus, step, table)
                assert f.row_minima == want
                assert column_minima(f) == tuple(sorted(table))
                closed += 1
        assert 0 < closed < 5**step


def test_far_off_levels_cost_little():
    # counting trusts its residue table; one far-off level must not make it
    # enumerate the spread between the levels
    far = 4 * 10**12
    window = AffinePermutation((1 + far, 2 - far, 3, 4))
    calls = (
        (InternalInconsistency, filter_from_column_minima, 3, 4, (0, 1, 2, 7 + far)),
        (NotInSommers, window_to_tuple, window, 3),
    )
    with pytest.raises(InternalInconsistency):
        _class_minima((-far, 1, 2, 3), 4, 3)
    for error, fn, *args in calls:
        tracemalloc.start()
        start = time.perf_counter()
        with pytest.raises(error):
            fn(*args)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert elapsed < 0.5
        assert peak < 64 * 1024
