import inspect
import itertools
from math import gcd

import pytest

from ratpark import (
    Classification,
    LetterOutOfRange,
    NotAParkingWord,
    NotCoprime,
    Word,
    classify,
    enumerate_words,
    is_parking_word,
    letter_histogram,
    touch_decomposition,
    touch_points,
)
from ratpark.reference import PARKING_WORDS_4_3, PARKING_WORDS_5_3
from ratpark.words import _require_parking


def w(m, n, text):
    return Word(m, n, tuple(int(ch) for ch in text))


def test_word_validation():
    with pytest.raises(LetterOutOfRange):
        Word(3, 2, (0, 3))
    with pytest.raises(LetterOutOfRange):
        Word(3, 2, (0,))
    with pytest.raises(LetterOutOfRange):
        Word(0, 1, (0,))
    # floats and bools are refused as letters and as sizes, as Point does
    for m, n, letters in (
        (3, 2, (1.0, 0)),
        (3, 2, (True, 0)),
        (3.0, 2, (1, 0)),
        (3, 2.0, (1, 0)),
        (True, 1, (0,)),
        (3, True, (0,)),
    ):
        with pytest.raises(LetterOutOfRange):
            Word(m, n, letters)


def test_is_parking_word_examples():
    assert is_parking_word(w(4, 3, "012"))
    assert not is_parking_word(w(4, 3, "022"))
    assert is_parking_word(w(5, 3, "000"))


def test_letter_histogram():
    assert letter_histogram(w(3, 5, "10011")) == (2, 3, 0)
    assert letter_histogram(w(4, 3, "000")) == (3, 0, 0, 0)
    assert letter_histogram(w(5, 3, "010")) == (2, 1, 0, 0, 0)


def test_touch_points():
    assert touch_points(w(9, 12, "531030678631")) == (3, 6)
    assert touch_points(w(6, 9, "020101151")) == ()
    assert touch_points(w(5, 3, "013")) == ()
    with pytest.raises(NotAParkingWord):
        touch_points(w(4, 3, "022"))


def test_touch_points_empty_when_coprime():
    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3)):
        for word_ in enumerate_words(m, n, "parking"):
            assert touch_points(word_) == ()


def test_touch_decomposition():
    blocks = touch_decomposition(w(9, 12, "531030678631"))
    assert [(lo, str(q)) for lo, q in blocks] == [
        (0, "1001"),
        (3, "2000"),
        (6, "0120"),
    ]
    # coprime words decompose into themselves
    blocks = touch_decomposition(w(3, 5, "10011"))
    assert len(blocks) == 1 and str(blocks[0][1]) == "10011"


def test_classify():
    assert classify(w(4, 3, "012")) is Classification.UNIQUE_FIXED_POINT
    assert classify(w(3, 3, "000")) is Classification.INFINITELY_MANY_FIXED_POINTS
    assert classify(w(4, 3, "022")) is Classification.NO_FIXED_POINT


def test_enumerate_matches_published_tables():
    assert {str(x) for x in enumerate_words(4, 3, "parking")} == set(
        PARKING_WORDS_4_3
    )
    assert {str(x) for x in enumerate_words(5, 3, "parking")} == set(
        PARKING_WORDS_5_3
    )
    # same letter constraints for (3,3) as for (4,3)
    assert {str(x) for x in enumerate_words(3, 3, "parking")} == set(
        PARKING_WORDS_4_3
    )


def test_enumerate_counts_and_order():
    for m, n in ((2, 3), (3, 4), (4, 3), (3, 5), (5, 4), (5, 6), (6, 5)):
        words = list(enumerate_words(m, n, "parking"))
        assert len(words) == m ** (n - 1)
        letter_lists = [x.letters for x in words]
        assert letter_lists == sorted(letter_lists)
    assert sum(1 for _ in enumerate_words(3, 2, "all")) == 9
    only = list(enumerate_words(1, 4, "all"))
    assert len(only) == 1 and only[0].letters == (0, 0, 0, 0)


def test_enumeration_reaches_words_longer_than_the_recursion_limit():
    # the DFS keeps its path in lists, so no word is too long for it
    only = list(enumerate_words(1, 1200, "parking"))
    assert len(only) == 1 and only[0].letters == (0,) * 1200
    dyck = list(enumerate_words(2, 1001, "dyck"))
    assert len(dyck) == 501
    assert [x.letters.count(1) for x in dyck] == list(range(501))


def test_dyck_words_are_sorted_parking_words():
    for m, n in ((4, 3), (3, 5), (4, 5)):
        dyck = {x.letters for x in enumerate_words(m, n, "dyck")}
        sorted_parking = {
            tuple(sorted(x.letters)) for x in enumerate_words(m, n, "parking")
        }
        assert dyck == sorted_parking


def test_enumeration_equals_the_filtered_product():
    # the pruned search yields the product stream's parking (and, for
    # dyck, weakly increasing parking) words in the same order
    pairs = [(m, n) for m in range(1, 6) for n in range(1, 6) if gcd(m, n) == 1]
    for m, n in pairs + [(3, 3), (2, 4), (4, 6)]:
        every = [Word(m, n, x) for x in itertools.product(range(m), repeat=n)]
        parking = [x.letters for x in every if is_parking_word(x)]
        dyck = [letters for letters in parking if list(letters) == sorted(letters)]
        assert [x.letters for x in enumerate_words(m, n, "all")] == [
            x.letters for x in every
        ]
        assert [x.letters for x in enumerate_words(m, n, "parking")] == parking
        assert [x.letters for x in enumerate_words(m, n, "dyck")] == dyck
    # sizes below 1, and float or bool sizes, are refused on every kind,
    # when the first word is drawn
    assert inspect.isgeneratorfunction(enumerate_words)
    for kind in ("all", "parking", "dyck"):
        for m, n in ((0, 3), (-2, 3), (3, 0), (3, -1), (2.0, 3), (3, True)):
            with pytest.raises(LetterOutOfRange):
                list(enumerate_words(m, n, kind))


def test_enumerated_words_equal_checked_words():
    # the enumerator builds its words unchecked; each must equal the word
    # the validating constructor builds from the same letters
    for m in range(1, 14):
        for n in range(1, 14):
            if m**n > 10**4:
                continue
            for kind in ("all", "parking", "dyck"):
                for x in enumerate_words(m, n, kind):
                    assert x == Word(m, n, x.letters), (kind, x)


def test_one_parking_inequality_on_every_small_word():
    # is_parking_word, touch_points and the precondition's starts all read
    # the cross-multiplied definition m * #{w_j < i} >= i * n, on every word
    # at every m, n <= 6, coprime or not
    seen = 0
    for m in range(1, 7):
        for n in range(1, 7):
            for letters in itertools.product(range(m), repeat=n):
                word_ = Word(m, n, letters)
                slack = [m * sum(c < i for c in letters) - i * n for i in range(m + 1)]
                parking = min(slack) >= 0
                assert is_parking_word(word_) is parking, word_
                if parking:
                    touches = tuple(i for i in range(1, m) if slack[i] == 0)
                    assert touch_points(word_) == touches, word_
                else:
                    with pytest.raises(NotAParkingWord) as info:
                        touch_points(word_)
                    message = f"touch points undefined for non-parking word {word_}"
                    assert str(info.value) == message
                if gcd(m, n) != 1:
                    with pytest.raises(NotCoprime) as info:
                        _require_parking(word_, "tests")
                    message = f"tests: (m, n) must be coprime, got ({m}, {n})"
                    assert str(info.value) == message
                elif parking:
                    assert _require_parking(word_, "tests") == slack, word_
                else:
                    with pytest.raises(NotAParkingWord) as info:
                        _require_parking(word_, "tests")
                    assert str(info.value) == f"{word_} is not a parking word"
                seen += 1
    assert seen == sum(m**n for m in range(1, 7) for n in range(1, 7))
