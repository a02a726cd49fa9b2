import random
from itertools import product
from math import comb, gcd

import pytest

from ratpark import (
    AffinePermutation,
    DimensionMismatch,
    LetterOutOfRange,
    NotCoprime,
    NotDominant,
    NotInSommers,
    anderson,
    anderson_inverse,
    dominant_to_filter,
    enumerate_balanced,
    enumerate_sommers,
    enumerate_words,
    filter_to_dominant,
    in_sommers,
    is_dominant,
    mn_swap_dominant,
    pak_stanley,
    pak_stanley_inverse,
    rank_word,
    staircase_window,
    tuple_from_area_word,
    tuple_from_rank_word,
    tuple_to_balanced,
    tuple_to_window,
    value_position,
    window_to_tuple,
)
from ratpark import affine
from ratpark.reference import (
    ANDERSON_EXAMPLES,
    DOMINANT_WINDOWS,
    PAK_STANLEY_EXAMPLES,
    REMOVALS_4_3,
    REMOVALS_5_3,
    STAIRCASE_WINDOWS,
    SWAP_PAIRS,
)
from ratpark.filters import area_letters
from ratpark.tuples import translate
from ratpark.verify import DEFAULT_PAIRS
from test_action import _random_parking_word


def test_window_validation():
    with pytest.raises(DimensionMismatch):
        AffinePermutation((1, 4))  # repeated residue mod 2
    with pytest.raises(DimensionMismatch):
        AffinePermutation((0, 1, 2))  # wrong sum
    # no floats or bools, though these pass the residue and sum checks
    for window in ((2.0, 1.0), (True, 2), (3, -1, 2, 5, 6.0)):
        with pytest.raises(DimensionMismatch):
            AffinePermutation(window)
    w = AffinePermutation((3, -1, 2, 5, 6))
    assert w.n == 5


def test_value_position():
    ident = AffinePermutation((1, 2, 3, 4, 5))
    assert value_position(ident, 5) == 5
    assert value_position(ident, 105) == 105
    w = AffinePermutation((3, -1, 2, 5, 6))
    assert value_position(w, 0) == -1
    for v in range(-20, 20):
        assert w(value_position(w, v)) == v


def test_in_sommers():
    assert in_sommers(AffinePermutation((3, -1, 2, 5, 6)), 3)
    assert in_sommers(AffinePermutation((1, 2, 3)), 4)
    assert not in_sommers(AffinePermutation((4, 0, 2)), 4)
    with pytest.raises(NotCoprime):
        in_sommers(AffinePermutation((1, 2, 3)), 3)
    # gcd(0, 1) = gcd(-3, 1) = 1, yet sizes below 1 are refused
    for m in (0, -3):
        with pytest.raises(LetterOutOfRange, match="need m,n >= 1"):
            in_sommers(AffinePermutation((1,)), m)
    for m in (2.0, True):
        with pytest.raises(LetterOutOfRange, match="not all integers"):
            in_sommers(AffinePermutation((1, 2, 3)), m)


def _scanning_in_sommers(w, m):
    """The membership test the position table replaced: one window scan per
    entry, for the position of ``w(i) - m``."""
    return all(
        value_position(w, w.window[i - 1] - m) < i for i in range(1, w.n + 1)
    )


def _boxed_windows(n, half):
    """Every window whose first n - 1 entries lie in ``[-half, half]``."""
    for head in product(range(-half, half + 1), repeat=n - 1):
        window = (*head, n * (n + 1) // 2 - sum(head))
        if len({v % n for v in window}) == n:
            yield AffinePermutation(window)


def test_in_sommers_matches_the_window_scan():
    for n, half, ms in (
        (3, 10, (1, 2, 4, 5)),
        (4, 7, (1, 3, 5, 7)),
        (5, 5, (2, 3, 4, 6)),
        (6, 5, (1, 5, 7)),
    ):
        windows = list(_boxed_windows(n, half))
        for m in ms:
            verdicts = [(in_sommers(w, m), _scanning_in_sommers(w, m)) for w in windows]
            assert all(new == old for new, old in verdicts), (m, n)
            # members and non-members both
            assert {new for new, _ in verdicts} == {True, False}, (m, n)
    # 200 seeded (50,77) windows: 100 Sommers windows, and each again with
    # two entries swapped, which leaves the region for some of them
    rng = random.Random(24)
    swapped = []
    for _ in range(100):
        window = list(anderson_inverse(_random_parking_word(rng, 50, 77)).window)
        assert in_sommers(AffinePermutation(tuple(window)), 50)
        i, j = rng.sample(range(77), 2)
        window[i], window[j] = window[j], window[i]
        w = AffinePermutation(tuple(window))
        swapped.append(in_sommers(w, 50))
        assert swapped[-1] == _scanning_in_sommers(w, 50)
    assert set(swapped) == {True, False}


def test_is_dominant():
    assert is_dominant(AffinePermutation((-2, 2, 6)))
    assert not is_dominant(AffinePermutation((3, -1, 2, 5, 6)))
    assert is_dominant(AffinePermutation((1, 2, 3, 4)))


def test_staircase_windows():
    for (m, n), window in STAIRCASE_WINDOWS.items():
        w = staircase_window(m, n)
        assert w.window == window
        assert is_dominant(w)
        assert in_sommers(w, m)


def test_dominant_filter_bijection():
    for m, n in ((3, 5), (5, 3), (3, 4), (4, 5)):
        for b in enumerate_balanced(m, n):
            w = filter_to_dominant(b)
            assert is_dominant(w) and in_sommers(w, m)
            assert dominant_to_filter(w, m) == b
    with pytest.raises(NotDominant):
        dominant_to_filter(AffinePermutation((2, 1, 3)), 4)
    with pytest.raises(NotInSommers):
        dominant_to_filter(AffinePermutation((-2, 2, 6)), 2)


def test_dominant_windows_published():
    for (m, n), windows in DOMINANT_WINDOWS.items():
        got = {filter_to_dominant(b).window for b in enumerate_balanced(m, n)}
        assert got == set(windows)
        assert len(windows) == comb(m + n, n) // (m + n)


def test_mn_swap_dominant():
    for window, m, expected in SWAP_PAIRS:
        assert mn_swap_dominant(AffinePermutation(window), m).window == expected
    for b in enumerate_balanced(3, 5):
        w = filter_to_dominant(b)
        assert mn_swap_dominant(mn_swap_dominant(w, 3), 5) == w


def test_window_tuple_round_trip(monkeypatch):
    w = AffinePermutation((3, -1, 2, 5, 6))
    t = window_to_tuple(w, 3)
    assert t.initial.row_minima == (-1, 3, 4)
    assert tuple_to_window(t) == w
    with pytest.raises(NotInSommers):
        window_to_tuple(AffinePermutation((4, 0, 2)), 4)
    # the window is the balanced translate's removals, from any translate
    for m, n in ((3, 5), (4, 5), (5, 4)):
        for u in enumerate_words(m, n, "parking"):
            parking = tuple_from_area_word(u)
            balanced = tuple_to_balanced(parking)
            for x in (parking, balanced, translate(parking, 7)):
                assert tuple_to_window(x) == AffinePermutation(balanced.removals)

    # only library errors mean "not in the Sommers region"; a programming
    # error surfaces as itself
    def broken(initial, removals):
        raise TypeError("broken")

    monkeypatch.setattr(affine, "FilterTuple", broken)
    with pytest.raises(TypeError):
        window_to_tuple(w, 3)


def test_anderson_examples():
    for window, m, expected in ANDERSON_EXAMPLES:
        assert str(anderson(AffinePermutation(window), m)) == expected
    with pytest.raises(NotInSommers):
        anderson(AffinePermutation((4, 0, 2)), 4)


def test_pak_stanley_examples():
    for window, m, expected in PAK_STANLEY_EXAMPLES:
        assert str(pak_stanley(AffinePermutation(window), m)) == expected
    ident = AffinePermutation((1, 2, 3, 4))
    assert pak_stanley(ident, 3).letters == (0, 0, 0, 0)


def test_enumerate_sommers_counts_and_membership():
    for m, n in ((4, 3), (5, 3), (3, 4), (4, 5)):
        windows = list(enumerate_sommers(m, n))
        assert len({w.window for w in windows}) == m ** (n - 1)
        for w in windows:
            assert in_sommers(w, m)
        dominant = [w for w in windows if is_dominant(w)]
        assert len(dominant) == comb(m + n, n) // (m + n)


def test_enumerate_sommers_equals_the_public_route():
    # the per-class memo must yield each parking word's window, in order
    pairs = [
        (m, n)
        for m in range(1, 11)
        for n in range(1, 11)
        if gcd(m, n) == 1 and m ** (n - 1) <= 20_000
    ]
    for m, n in pairs:
        expected = [
            tuple_to_window(tuple_from_area_word(u))
            for u in enumerate_words(m, n, "parking")
        ]
        assert list(enumerate_sommers(m, n)) == expected, (m, n)
    for m, n, error in (
        (2, 4, NotCoprime),
        (0, 3, LetterOutOfRange),
        (3.0, 4, LetterOutOfRange),
        (3, True, LetterOutOfRange),
    ):
        with pytest.raises(error):
            list(enumerate_sommers(m, n))


def test_trusted_windows_equal_validated_windows():
    # a window read off a checked balanced tuple is built unchecked, since
    # its removals are distinct mod n and sum to n(n+1)/2 by a theorem; each
    # must be the window the validating constructor makes of it
    for m, n in DEFAULT_PAIRS:
        for w in enumerate_sommers(m, n):
            assert w == AffinePermutation(w.window), (m, n, w)
        for u in enumerate_words(m, n, "parking"):
            for t in (tuple_from_area_word(u), tuple_from_rank_word(u)):
                w = tuple_to_window(t)
                assert w == AffinePermutation(w.window), (u, w)


def test_enumerate_sommers_published_windows():
    got = {w.window for w in enumerate_sommers(4, 3)}
    assert got == set(REMOVALS_4_3.values())
    got = {w.window for w in enumerate_sommers(5, 3)}
    assert got == set(REMOVALS_5_3.values())


def _counting_pak_stanley(w, m):
    """Pak-Stanley letters by the inversion count over all integers j > i."""
    return tuple(
        sum(1 for v in range(wi - m + 1, wi) if value_position(w, v) > i)
        for i, wi in enumerate(w.window, start=1)
    )


def test_labelings_unchanged_on_the_verify_sets():
    for m, n in DEFAULT_PAIRS:
        for w in enumerate_sommers(m, n):
            assert _scanning_in_sommers(w, m)
            assert anderson(w, m).letters == area_letters(w.window, m, n)
            assert pak_stanley(w, m).letters == _counting_pak_stanley(w, m)


def test_labelings_agree_with_tuple_maps():
    from ratpark import area_word

    for m, n in ((3, 4), (4, 3), (3, 5), (5, 3), (4, 5), (5, 4)):
        if gcd(m, n) != 1:
            continue
        for w in enumerate_sommers(m, n):
            t = window_to_tuple(w, m)
            assert pak_stanley(w, m) == rank_word(t)
            assert anderson(w, m) == area_word(t)


def test_labelings_are_bijections():
    for m, n in ((4, 3), (3, 5)):
        expected = {w.letters for w in enumerate_words(m, n, "parking")}
        windows = list(enumerate_sommers(m, n))
        assert {anderson(w, m).letters for w in windows} == expected
        assert {pak_stanley(w, m).letters for w in windows} == expected


def test_label_inverses():
    for w in enumerate_sommers(5, 3):
        assert anderson_inverse(anderson(w, 5)) == w
        assert pak_stanley_inverse(pak_stanley(w, 5)) == w


def test_dominant_pak_stanley_increasing():
    for m, n in ((4, 3), (3, 5)):
        for w in enumerate_sommers(m, n):
            if is_dominant(w):
                ps = pak_stanley(w, m).letters
                assert all(a <= b for a, b in zip(ps, ps[1:]))
