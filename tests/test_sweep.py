import random
import sys
from math import gcd

import pytest

from ratpark import (
    Filter,
    InternalInconsistency,
    NotDyck,
    Word,
    column_minima,
    dyck_embedding,
    dyck_filter_to_path,
    dyck_word,
    enumerate_words,
    filter_from_dyck_word,
    filter_from_path,
    level,
    sweep,
    sweep_column_word,
    sweep_inverse,
)
from ratpark.filters import _class_minima, _residue_table
from ratpark.reference import SWEEP_4_7, ZETA_4_3, ZETA_4_3_DYCK_ROWS
from test_action import _random_parking_word


def dyck_filters(m, n):
    return [filter_from_dyck_word(w) for w in enumerate_words(m, n, "dyck")]


def test_sweep_four_seven_fixture():
    before = Filter(4, 7, SWEEP_4_7["before"])
    after = sweep(before)
    assert after.row_minima == SWEEP_4_7["after"]
    assert column_minima(before) == SWEEP_4_7["horizontal_levels"]
    t = dyck_embedding(before)
    final = list(t.stages())[-1]
    assert final.row_minima == SWEEP_4_7["vertical_levels"]
    assert sweep_inverse(after) == before


def test_sweep_requires_dyck():
    with pytest.raises(NotDyck):
        sweep(Filter(4, 7, (1, 6, 7, 8)))
    with pytest.raises(NotDyck):
        sweep_inverse(Filter(4, 7, (1, 6, 7, 8)))


def test_sweep_singleton():
    only = Filter(2, 1, (0, 1))
    assert sweep(only) == only
    assert sweep_inverse(only) == only


def test_dyck_embedding():
    d = Filter(3, 4, (0, 2, 4))
    t = dyck_embedding(d)
    assert t.removals == (0, 2, 3, 5)
    assert t.initial == d
    with pytest.raises(NotDyck):
        dyck_embedding(Filter(3, 4, (1, 2, 3)))


def test_sweep_column_word_matches_swept_path():
    for m, n in ((4, 3), (5, 3), (3, 5), (4, 7)):
        for d in dyck_filters(m, n):
            word_ = sweep_column_word(d)
            assert word_.letters == tuple(sorted(word_.letters))
            assert word_ == dyck_word(sweep(d))


def test_sweep_column_words_published():
    got = {str(sweep_column_word(d)) for d in dyck_filters(4, 3)}
    assert got == {ZETA_4_3[row] for row in ZETA_4_3_DYCK_ROWS}


def test_sweep_bijective_and_invertible():
    pairs = [
        (m, n) for m in range(2, 8) for n in range(2, 8) if gcd(m, n) == 1
    ] + [(4, 7)]
    for m, n in pairs:
        filters = dyck_filters(m, n)
        images = set()
        for d in filters:
            swept = sweep(d)
            images.add(swept.row_minima)
            # sweep_inverse starts its orbit at ``swept`` itself, the
            # filter tuple_from_rank_word rebuilds from the sorted word
            assert filter_from_dyck_word(dyck_word(swept)) == swept
            assert sweep_inverse(swept) == d
        assert len(images) == len(filters)


def test_sweep_preserves_step_multiset():
    for d in dyck_filters(4, 7):
        steps, _ = dyck_filter_to_path(d)
        swept_steps, _ = dyck_filter_to_path(sweep(d))
        assert sorted(steps) == sorted(swept_steps)


def _heights_path(f):
    """The boundary walk the level walk replaced: column heights, then steps."""
    m, n = f.m, f.n
    heights = sorted(m - c for c in dyck_word(f).letters)
    steps = []
    levels = []
    x = y = 0
    for h in heights:
        while y < h:
            y += 1
            steps.append("N")
            levels.append(level(x, y, m, n))
        x -= 1
        steps.append("W")
        levels.append(level(x, y, m, n))
    while y < m:
        y += 1
        steps.append("N")
        levels.append(level(x, y, m, n))
    return "".join(steps), tuple(levels)


def _column_path_filter(m, n, steps):
    """The path parse the row walk replaced: the west steps' column minima,
    mirrored to row minima."""
    lvl = 0
    cols = []
    for s in steps:
        if s == "N":
            lvl += n
        else:
            lvl -= m
            cols.append(lvl)
        assert lvl >= 0
    return Filter(m, n, _class_minima(_residue_table(cols, n), n, m))


def _path_sorting_sweep(d):
    """The string route the tag walk replaced: render the path, sort its
    steps by level, join them and parse the string."""
    steps, levels = _heights_path(d)
    pairs = sorted(zip(levels, steps))
    assert len({lvl for lvl, _ in pairs}) == len(pairs)
    return _column_path_filter(d.m, d.n, "".join(s for _, s in reversed(pairs)))


def test_level_walks_match_the_rendered_path():
    small = [
        d
        for m in range(1, 9)
        for n in range(1, 10)
        if gcd(m, n) == 1
        for d in dyck_filters(m, n)
    ]
    assert len(small) == 4084
    rng = random.Random(9)
    large = [
        filter_from_dyck_word(Word(50, 77, tuple(sorted(w.letters))))
        for w in (_random_parking_word(rng, 50, 77) for _ in range(300))
    ]
    for d in small + large:
        steps, levels = dyck_filter_to_path(d)
        assert (steps, levels) == _heights_path(d)
        assert filter_from_path(d.m, d.n, steps) == _column_path_filter(d.m, d.n, steps)
        assert sweep(d) == _path_sorting_sweep(d)


@pytest.mark.parametrize(
    "m, n, seed",
    [(149, 200, 37), pytest.param(300, 401, 38, marks=pytest.mark.slow)],
)
def test_level_walks_match_the_rendered_path_at_larger_sizes(m, n, seed):
    # twenty seeded Dyck filters at sizes beyond the 300 (50,77) filters above
    rng = random.Random(seed)
    for _ in range(20):
        letters = sorted(_random_parking_word(rng, m, n).letters)
        d = filter_from_dyck_word(Word(m, n, tuple(letters)))
        steps, levels = dyck_filter_to_path(d)
        assert (steps, levels) == _heights_path(d)
        assert filter_from_path(m, n, steps) == _column_path_filter(m, n, steps)
        assert sweep(d) == _path_sorting_sweep(d)


def test_broken_level_sets_are_inconsistencies(monkeypatch):
    d = Filter(3, 4, (0, 2, 4))  # north levels 4, 6, 8; west 0, 2, 3, 5
    # a row set that is no filter leaves the walk short of north levels
    with pytest.raises(InternalInconsistency):
        dyck_filter_to_path(Filter._of(3, 4, (0, 5, 7)))
    module = sys.modules["ratpark.sweep"]
    # a west level equal to a north level collides
    monkeypatch.setattr(module, "column_minima", lambda f: (0, 2, 4, 5))
    with pytest.raises(InternalInconsistency):
        sweep(d)
    # west levels above every north level make the swept walk dip
    monkeypatch.setattr(module, "column_minima", lambda f: (9, 10, 11, 12))
    with pytest.raises(InternalInconsistency):
        sweep(d)
