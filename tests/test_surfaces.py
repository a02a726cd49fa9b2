"""Direct checks for the small helper surfaces."""

import copy
import pickle

import pytest

from ratpark import (
    Cycle,
    Diverged,
    Filter,
    InternalInconsistency,
    Point,
    Word,
    anderson_inverse,
    dyck_filter_to_path,
    filter_from_column_minima,
    filter_from_dyck_word,
    find_fixed_point,
    is_balanced,
    is_dyck,
    qt_table,
    tuple_from_area_word,
    tuple_to_balanced,
)
from ratpark.tuples import translate


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
    assert is_dyck(t.initial)
    balanced = tuple_to_balanced(t)
    assert is_balanced(balanced.initial)
    assert translate(balanced, -min(balanced.initial.row_minima)) == t
    shifted = translate(t, 7)
    assert shifted.removals == tuple(v + 7 for v in t.removals)
    assert translate(shifted, -7) == t


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


def _one_value_of_each_type():
    word_ = Word(3, 5, (1, 0, 0, 1, 1))
    report = find_fixed_point(word_)
    return [
        word_,
        Point((-1, 3, 4)),
        report.outcome,
        Cycle(2, Point((0, 1))),
        Diverged(3, 40),
        report,
        Filter(3, 5, (4, -1, 3)),
        tuple_from_area_word(word_),
        qt_table(3, 5),
        anderson_inverse(word_),
    ]


def test_value_types_are_frozen_records():
    # equality, hash, repr, pickling and copies see the fields and nothing
    # else; a record equals no other type, its own field tuple included
    values = _one_value_of_each_type()
    assert len({type(v) for v in values}) == 10
    for v in values:
        fields = tuple(getattr(v, name) for name in type(v)._fields)
        assert hash(v) == hash(fields) and v != fields, v
        for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert type(twin) is type(v) and twin == v and repr(twin) == repr(v)
            if isinstance(v, Filter):
                assert twin.by_residue == v.by_residue
        for name in type(v)._fields + ("extra",):
            with pytest.raises(AttributeError, match=f"assign to field '{name}'"):
                setattr(v, name, None)
            with pytest.raises(AttributeError, match=f"delete field '{name}'"):
                delattr(v, name)
        assert tuple(getattr(v, name) for name in type(v)._fields) == fields
    assert repr(values[5]) == (
        "OrbitReport(outcome=Fixed(point=Point(coords=(-1, 3, 4))), "
        f"iterations={values[5].iterations}, applications={values[5].applications})"
    )
    assert repr(values[6]) == "Filter(m=3, n=5, row_minima=(-1, 3, 4))"


def test_value_types_take_each_field_once():
    # by position, by name or both, as a dataclass signature would; the five
    # validating types write theirs, the others get _Record's
    for v in _one_value_of_each_type():
        cls, names = type(v), type(v)._fields
        fields = tuple(getattr(v, name) for name in names)
        by_name = dict(zip(names, fields))
        assert cls(**by_name) == cls(*fields) == v, cls
        assert cls(fields[0], **dict(zip(names[1:], fields[1:]))) == v, cls
        for args, kwargs in (
            (fields[:-1], {}),
            ((), dict(zip(names[:-1], fields[:-1]))),
            (fields + (None,), {}),
            (fields, {"extra": None}),
            (fields, {names[0]: fields[0]}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
