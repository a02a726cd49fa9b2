"""Hypothesis property suites for the invariants that hold at any size."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from ratpark import (
    Point,
    Word,
    apply_letter,
    apply_word,
    contraction_certificate,
    is_parking_word,
    zeta,
    zeta_inverse,
)
from ratpark import serialize as ser


@st.composite
def words(draw, max_m=6, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    letters = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return Word(m, n, tuple(letters))


@st.composite
def coprime_parking_words(draw, max_m=5, max_n=5):
    pairs = [
        (m, n)
        for m in range(2, max_m + 1)
        for n in range(2, max_n + 1)
        if gcd(m, n) == 1
    ]
    m, n = draw(st.sampled_from(pairs))
    letters = [0] * n
    # letters below each threshold stay plentiful: force letter j of the
    # sorted word to at most floor(j*m/n), then shuffle
    positions = list(range(n))
    draw(st.randoms(use_true_random=False)).shuffle(positions)
    for rank, pos in enumerate(positions):
        cap = rank * m // n
        letters[pos] = draw(st.integers(0, cap))
    w = Word(m, n, tuple(letters))
    assert is_parking_word(w)
    return w


@st.composite
def points(draw, m):
    coords = draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m))
    return Point(tuple(sorted(coords)))


@given(words())
def test_letter_action_preserves_sum_and_order(w):
    p = Point(tuple(sorted(range(-w.m + 1, 1))))
    for letter in w.letters:
        q = apply_letter(p, letter)
        assert q.total == p.total
        assert q.coords == tuple(sorted(q.coords))
        p = q


@given(st.data(), words(max_m=5, max_n=5))
def test_action_is_one_lipschitz(data, w):
    x = data.draw(points(w.m))
    y = data.draw(points(w.m))
    assert contraction_certificate(w, x, y)


@given(st.data(), words(max_m=5, max_n=5))
def test_word_action_is_letter_composition(data, w):
    x = data.draw(points(w.m))
    stepped = x
    for letter in w.letters:
        stepped = apply_letter(stepped, letter)
    assert apply_word(x, w) == stepped


@given(words(), st.randoms(use_true_random=False))
def test_parking_closed_under_letter_permutation(w, rng):
    shuffled = list(w.letters)
    rng.shuffle(shuffled)
    assert is_parking_word(Word(w.m, w.n, tuple(shuffled))) == is_parking_word(w)


@given(words())
def test_sorting_a_parking_word_gives_a_dyck_word(w):
    if is_parking_word(w):
        sorted_word = Word(w.m, w.n, tuple(sorted(w.letters)))
        assert is_parking_word(sorted_word)


@settings(max_examples=60)
@given(coprime_parking_words())
def test_zeta_round_trip_on_random_parking_words(w):
    image = zeta(w)
    assert is_parking_word(image)
    assert zeta_inverse(image) == w


@given(words())
def test_word_serialization_round_trip(w):
    if w.m <= 10:
        assert ser.word_from_text(str(w), w.m, w.n) == w


@given(st.data(), st.integers(1, 6))
def test_point_serialization_round_trip(data, m):
    p = data.draw(points(m))
    assert ser.point_to_json(p) == {"m": m, "coords": list(p.coords)}
