from math import comb, gcd

import pytest

from ratpark import (
    Filter,
    InternalInconsistency,
    LevelNotRemovable,
    NotCoprime,
    NotDyck,
    Word,
    column_minima,
    contains_level,
    dyck_filter_to_path,
    dyck_word,
    enumerate_balanced,
    enumerate_words,
    equivalent,
    filter_from_dyck_word,
    filter_from_path,
    generator_filter,
    level,
    mn_swap,
    removable_levels,
    remove,
    to_balanced,
    to_dyck,
    tuple_from_area_word,
    tuple_to_balanced,
)
from ratpark.reference import BALANCED_MINIMA_3_4, REMOVE_CHAIN_3_5


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


def test_contains_level():
    f = Filter(3, 4, (-1, 1, 3))
    for v in (-1, 1, 2, 3, 4):
        assert contains_level(f, v)
    for v in (-2, 0):
        assert not contains_level(f, v)
    assert contains_level(f, 1000)


def test_generator_filter_membership():
    b = generator_filter(3, 5)
    assert b.row_minima == (-3, 2, 7)
    l = -3
    closure = {
        l + a * 3 + c * 5 for a in range(0, 40) for c in range(0, 40)
    }
    for v in range(-10, 30):
        assert contains_level(b, v) == (v in closure)


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
    assert equivalent(f, Filter(3, 4, (4, 6, 8)))
    assert not equivalent(f, Filter(3, 4, (1, 2, 3)))


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
        for u in enumerate_words(m, n, "parking"):
            t = tuple_from_area_word(u)
            for stage in t.stages():
                check(stage)
            check(tuple_to_balanced(t).initial)
