"""Direct checks for the small helper surfaces."""

import pytest

from ratpark import (
    Filter,
    InternalInconsistency,
    Word,
    dyck_filter_to_path,
    filter_from_column_minima,
    filter_from_dyck_word,
    is_balanced,
    is_dyck,
    is_dyck_word,
    tuple_from_area_word,
    tuple_to_balanced,
    tuple_to_parking,
)
from ratpark.tuples import is_balanced_tuple, is_parking_tuple, translate


def test_is_dyck_word():
    assert is_dyck_word(Word(4, 3, (0, 1, 2)))
    assert not is_dyck_word(Word(4, 3, (1, 0, 2)))  # parking but unsorted
    assert not is_dyck_word(Word(4, 3, (0, 2, 2)))  # sorted but not parking


def test_filter_predicates():
    f = Filter(3, 4, (0, 2, 4))
    assert is_dyck(f) and is_balanced(f)
    g = Filter(3, 4, (1, 3, 5))
    assert not is_dyck(g) and not is_balanced(g)


def test_filter_from_column_minima():
    f = filter_from_column_minima(3, 4, (-1, 1, 2, 4))
    assert f.row_minima == (-1, 1, 3)
    with pytest.raises(InternalInconsistency):
        filter_from_column_minima(3, 4, (0, 1, 2))  # wrong count
    with pytest.raises(InternalInconsistency):
        filter_from_column_minima(3, 4, (0, 1, 2, 100))  # repeated residue
    with pytest.raises(InternalInconsistency):
        # full residue system, but 7 is not column-minimal in the closure
        filter_from_column_minima(3, 4, (0, 1, 2, 7))


def test_tuple_representative_predicates():
    t = tuple_from_area_word(Word(3, 5, (1, 0, 0, 0, 1)))
    assert is_parking_tuple(t)
    balanced = tuple_to_balanced(t)
    assert is_balanced_tuple(balanced)
    assert tuple_to_parking(balanced) == t
    shifted = translate(t, 7)
    assert shifted.removals == tuple(v + 7 for v in t.removals)
    assert tuple_to_parking(shifted) == t


def test_labeled_path():
    d = Filter(4, 7, (0, 6, 7, 9))
    steps, levels = dyck_filter_to_path(d)
    assert steps.count("N") == 4 and steps.count("W") == 7
    west = sorted(l for s, l in zip(steps, levels) if s == "W")
    assert west == [0, 4, 6, 8, 9, 10, 12]
    north = sorted(l for s, l in zip(steps, levels) if s == "N")
    assert north == [v + 7 for v in d.row_minima]


def test_word_to_text_forms():
    assert str(Word(6, 9, (0, 2, 0, 1, 0, 1, 1, 5, 1))) == "020101151"
    wide = Word(12, 2, (0, 11))
    assert str(wide) == "0,11"


def test_default_budget_env(monkeypatch):
    from ratpark.action import default_budget

    assert default_budget(4, 3) == 490
    monkeypatch.setenv("RATPARK_MAX_ITER", "77")
    assert default_budget(4, 3) == 77


def test_degenerate_dimensions():
    from ratpark import (
        anderson,
        classify,
        Classification,
        enumerate_sommers,
        find_fixed_point,
        pak_stanley,
        sweep,
        sweep_inverse,
        zeta,
        zeta_inverse,
    )

    one_row = Word(1, 4, (0, 0, 0, 0))
    assert classify(one_row) is Classification.UNIQUE_FIXED_POINT
    assert find_fixed_point(one_row).outcome.point.coords == (1,)
    assert zeta(one_row) == one_row and zeta_inverse(one_row) == one_row
    d = filter_from_dyck_word(one_row)
    assert sweep(d) == d and sweep_inverse(d) == d
    windows = list(enumerate_sommers(1, 4))
    assert [w.window for w in windows] == [(1, 2, 3, 4)]
    assert str(pak_stanley(windows[0], 1)) == "0000"

    one_col = Word(5, 1, (0,))
    assert find_fixed_point(one_col).outcome.point.coords == (1, 2, 3, 4, 5)
    assert zeta(one_col) == one_col
    windows = list(enumerate_sommers(5, 1))
    assert [w.window for w in windows] == [(1,)]
    assert str(anderson(windows[0], 5)) == "0"


def test_dyck_word_of_unbalanced_representative():
    from ratpark import dyck_word

    # any translate reports the class's column-length word
    assert str(dyck_word(Filter(3, 4, (-1, 1, 3)))) == "0011"
    assert dyck_word(filter_from_dyck_word(Word(3, 4, (0, 0, 1, 1)))) == Word(
        3, 4, (0, 0, 1, 1)
    )
