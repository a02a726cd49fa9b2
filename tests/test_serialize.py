import json

import pytest

from ratpark import (
    AffinePermutation,
    Filter,
    FilterTuple,
    Point,
    SchemaViolation,
    Word,
    qt_table,
)
from ratpark import serialize as ser


def test_word_round_trip():
    w = Word(6, 9, (0, 2, 0, 1, 0, 1, 1, 5, 1))
    assert ser.word_from_json(json.loads(json.dumps(ser.word_to_json(w)))) == w
    assert ser.word_from_text("020101151", 6) == w
    assert ser.word_from_text("0,2,0,1,0,1,1,5,1", 6) == w


def test_word_schema_violations():
    with pytest.raises(SchemaViolation) as err:
        ser.word_from_json({"m": 4, "n": 3, "letters": [0, 1, 7]})
    assert "letters[2]" in err.value.path
    with pytest.raises(SchemaViolation):
        ser.word_from_json({"m": 4, "letters": [0, 1, 2]})
    with pytest.raises(SchemaViolation):
        ser.word_from_json({"m": 4, "n": 3, "letters": [0, 1]})
    with pytest.raises(SchemaViolation):
        ser.word_from_text("012", 11)
    with pytest.raises(SchemaViolation):
        ser.word_from_text("0x2", 4)
    for m, n in ((0, 0), (3, 0), (0, 1)):
        with pytest.raises(SchemaViolation):
            ser.word_from_json({"m": m, "n": n, "letters": [0] * n})


def test_point_round_trip():
    p = Point((-3, 1, 2, 4, 6, 11))
    assert ser.point_from_json(ser.point_to_json(p)) == p
    with pytest.raises(SchemaViolation):
        ser.point_from_json({"m": 3, "coords": [3, 2, 1]})
    with pytest.raises(SchemaViolation):
        ser.point_from_json({"m": 2, "coords": [1, 2, 3]})


def test_filter_round_trip():
    f = Filter(3, 5, (-1, 3, 4))
    assert ser.filter_from_json(ser.filter_to_json(f)) == f
    with pytest.raises(SchemaViolation):
        ser.filter_from_json({"m": 3, "n": 5, "row_minima": [0, 3, 5]})


def test_tuple_round_trip():
    t = FilterTuple(Filter(3, 5, (-1, 3, 4)), (3, -1, 2, 5, 6))
    assert ser.tuple_from_json(ser.tuple_to_json(t)) == t
    bad = ser.tuple_to_json(t)
    bad["removals"] = [4, -1, 2, 5, 6]
    with pytest.raises(SchemaViolation):
        ser.tuple_from_json(bad)


def test_window_round_trip():
    w = AffinePermutation((3, -1, 2, 5, 6))
    assert ser.window_from_json(ser.window_to_json(w)) == w
    assert ser.window_from_text("3,-1,2,5,6") == w
    with pytest.raises(SchemaViolation):
        ser.window_from_json({"n": 3, "window": [1, 4, 1]})
    with pytest.raises(SchemaViolation):
        ser.window_from_text("1,3")
    with pytest.raises(SchemaViolation):
        ser.window_from_text("1;3")


def test_qt_table_round_trip():
    t = qt_table(4, 3)
    assert ser.qt_table_from_json(ser.qt_table_to_json(t)) == t
    with pytest.raises(SchemaViolation):
        ser.qt_table_from_json({"m": 4, "n": 3, "over": "nope", "counts": []})
    good = ser.qt_table_to_json(t)
    rows = good["counts"]
    bad = (
        ("qt_table.m", {"m": 0}),
        ("qt_table.m", {"m": -1, "n": 0}),
        ("qt_table.n", {"n": 0}),
        ("qt_table", {"m": 4, "n": 6}),  # not coprime
        ("qt_table.counts", {"counts": rows[:-1]}),
        ("qt_table.counts[1]", {"counts": [rows[0], [1, 2], *rows[2:]]}),
        ("qt_table.counts[0][2]", {"counts": [[0, 0, -1, 0], *rows[1:]]}),
        ("qt_table.counts[2][0]", {"counts": [*rows[:2], [True, 0, 0, 0], rows[3]]}),
    )
    for path, fields in bad:
        with pytest.raises(SchemaViolation) as err:
            ser.qt_table_from_json(good | fields)
        assert err.value.path == path
    ragged = {"m": 4, "n": 6, "over": "parking", "counts": [[1, 2], [3]]}
    with pytest.raises(SchemaViolation):
        ser.qt_table_from_json(ragged)
