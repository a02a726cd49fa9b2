import json

import pytest

from ratpark import AffinePermutation, Point, SchemaViolation, Word, qt_table
from ratpark import serialize as ser


def _through_json(obj):
    return json.loads(json.dumps(obj))


def test_word_round_trip():
    # the JSON schema is pinned literally; words come back only as text
    w = Word(6, 9, (0, 2, 0, 1, 0, 1, 1, 5, 1))
    obj = {"m": 6, "n": 9, "letters": [0, 2, 0, 1, 0, 1, 1, 5, 1]}
    assert ser.word_to_json(w) == obj
    assert _through_json(ser.word_to_json(w)) == obj
    assert ser.word_from_text("020101151", 6) == w
    assert ser.word_from_text("0,2,0,1,0,1,1,5,1", 6) == w


def test_word_schema_violations():
    with pytest.raises(SchemaViolation):
        ser.word_from_text("012", 11)
    with pytest.raises(SchemaViolation):
        ser.word_from_text("0x2", 4)
    # a comma-separated letter is an optional '-' and ASCII digits: int()
    # also reads Arabic-Indic digits, underscores and a '+', and past its
    # digit limit an ASCII entry is refused too
    for text in ("١,٢", "1_0,0", "+1, 0", "1,-", "1,,0", "9" * 5000 + ",0"):
        with pytest.raises(SchemaViolation) as err:
            ser.word_from_text(text, 12, 2)
        assert err.value.path == "word", text
    assert ser.word_from_text(" 1 , 0 ", 12, 2) == Word(12, 2, (1, 0))


def test_word_digit_strings_are_ascii_only():
    # '²' passes str.isdigit but not int(), and Arabic-Indic digits pass
    # both: neither is a digit-string letter
    for text in ("²", "1²", "١٢"):
        with pytest.raises(SchemaViolation) as err:
            ser.word_from_text(text, 3, 2)
        assert err.value.path == "word"


def test_point_round_trip():
    p = Point((-3, 1, 2, 4, 6, 11))
    obj = {"m": 6, "coords": [-3, 1, 2, 4, 6, 11]}
    assert ser.point_to_json(p) == obj
    assert _through_json(ser.point_to_json(p)) == obj


def test_window_round_trip():
    w = AffinePermutation((3, -1, 2, 5, 6))
    obj = {"n": 5, "window": [3, -1, 2, 5, 6]}
    assert ser.window_to_json(w) == obj
    assert _through_json(ser.window_to_json(w)) == obj
    assert ser.window_from_text("3,-1,2,5,6") == w
    with pytest.raises(SchemaViolation):
        ser.window_from_text("1,3")
    with pytest.raises(SchemaViolation):
        ser.window_from_text("1;3")
    for text in ("٣,-1,2,5,6", "3,-1,2,5,+6", "3,-1,2,5,6_0"):
        with pytest.raises(SchemaViolation) as err:
            ser.window_from_text(text)
        assert err.value.path == "affine.window", text
    assert ser.window_from_text("3, -1 ,2,5,6") == w


def test_qt_table_round_trip():
    # a row per area value and a column per dinv value, 0 to (m-1)(n-1)/2
    obj = {
        "m": 4,
        "n": 3,
        "over": "parking",
        "counts": [[1, 2, 2, 1], [2, 3, 1, 0], [2, 1, 0, 0], [1, 0, 0, 0]],
    }
    assert ser.qt_table_to_json(qt_table(4, 3)) == obj
    assert _through_json(ser.qt_table_to_json(qt_table(4, 3))) == obj
