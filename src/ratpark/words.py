"""Words over {0,...,m-1}: parking recognition, touch points, enumeration.

A word ``w`` of length ``n`` over the alphabet ``{0,...,m-1}`` is a parking
word when, for every ``i`` in ``1..m``, at least ``i*n/m`` of its letters are
strictly below ``i``.  All comparisons are done with cross-multiplied
integers; nothing in this package ever touches floating point.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Iterator, Sequence
from math import gcd

from .errors import (
    InternalInconsistency,
    LetterOutOfRange,
    NotAParkingWord,
    _Record,
    _require_ints,
    _require_sizes,
    require_coprime,
)


class Word(_Record):
    """A length-``n`` word with letters drawn from ``{0,...,m-1}``."""

    __slots__ = _fields = ("m", "n", "letters")

    def __init__(self, m: int, n: int, letters: tuple[int, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self):
        letters = tuple(self.letters)
        _require_sizes(self.m, self.n)
        _require_ints(letters, LetterOutOfRange, "letters")
        if len(letters) != self.n:
            raise LetterOutOfRange(f"expected {self.n} letters, got {len(letters)}")
        for j, letter in enumerate(letters):
            if not 0 <= letter < self.m:
                raise LetterOutOfRange(
                    f"letter {letter} at position {j} outside [0, {self.m})"
                )
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _of(cls, m: int, n: int, letters: tuple[int, ...]) -> Word:
        """Trusted constructor: ``letters`` is a tuple of n letters below m.
        Only :func:`enumerate_words` and :func:`_derived_word` call it."""
        w = object.__new__(cls)
        object.__setattr__(w, "m", m)
        object.__setattr__(w, "n", n)
        object.__setattr__(w, "letters", letters)
        return w

    def __str__(self):
        if self.m <= 10:
            return "".join(str(letter) for letter in self.letters)
        return ",".join(str(letter) for letter in self.letters)


class Classification(enum.Enum):
    """How the piecewise-linear action of a word behaves on sorted tuples."""

    UNIQUE_FIXED_POINT = "unique-fixed-point"
    INFINITELY_MANY_FIXED_POINTS = "infinitely-many-fixed-points"
    NO_FIXED_POINT = "no-fixed-point"


def word(m: int, n: int, letters: Sequence[int]) -> Word:
    return Word(m, n, tuple(letters))


def _require_parking(w: Word, what: str) -> list[int]:
    """Coprime sizes (else :class:`NotCoprime` naming ``what``) and a parking
    word; returns its :func:`_letter_starts`."""
    require_coprime(w.m, w.n, what)
    starts = _letter_starts(w.letters, w.m, w.n)
    if min(starts) < 0:
        raise NotAParkingWord(f"{w} is not a parking word")
    return starts


def _derived_word(m: int, n: int, letters: tuple[int, ...], what: str) -> Word:
    """A word the library computed, with n letters below m by construction
    and parking by a theorem: the area and rank readings of a tuple, the
    Anderson and Pak-Stanley labels of a Sommers window, a Dyck path's sorted
    column lengths, a touch block.  Only the theorem is checked, once."""
    w = Word._of(m, n, letters)
    if not is_parking_word(w):
        raise InternalInconsistency(f"{what} {w} is not parking")
    return w


def letter_histogram(w: Word) -> tuple[int, ...]:
    """Count of each letter value; entries sum to ``w.n``."""
    counts = [0] * w.m
    for letter in w.letters:
        counts[letter] += 1
    return tuple(counts)


def _letter_starts(letters: Iterable[int], m: int, n: int) -> list[int]:
    """``m * #{k : c_k < c} - n * c`` for ``c`` in ``0..m``: the parking
    inequality of the letters, cross-multiplied, from one histogram in any
    letter order.  Read as a Dyck path's column lengths, start c is the
    least column minimum of area letter c, the others rising by m, and
    starts 1 to m are the row minima: the north step at height ``m - c``
    starts west of the ``#{k : c_k >= c}`` west steps below it."""
    steps = [-n] * m
    for c in letters:
        steps[c] += m
    return list(itertools.accumulate(steps, initial=0))


def is_parking_word(w: Word) -> bool:
    """Check ``m * #{j : w_j < i} >= i * n`` for every ``i`` in ``1..m``."""
    return min(_letter_starts(w.letters, w.m, w.n)) >= 0


def touch_points(w: Word) -> tuple[int, ...]:
    """Indices ``0 < i < m`` where the parking inequality is an equality.

    Defined only for parking words; always empty when gcd(m, n) = 1.
    """
    starts = _letter_starts(w.letters, w.m, w.n)
    if min(starts) < 0:
        raise NotAParkingWord(f"touch points undefined for non-parking word {w}")
    return tuple(i for i in range(1, w.m) if starts[i] == 0)


def touch_decomposition(w: Word) -> list[tuple[int, Word]]:
    """Split a parking word at its touch points into smaller parking words.

    Returns ``[(m_j, q_j), ...]`` where block ``j`` holds the letters of
    ``w`` in ``[m_j, m_{j+1})`` shifted down by ``m_j``; each ``q_j`` is an
    ``(m_{j+1}-m_j, n_j)``-parking word with no touch points of its own.
    """
    cuts = (0,) + touch_points(w) + (w.m,)
    blocks = []
    for j in range(len(cuts) - 1):
        lo, hi = cuts[j], cuts[j + 1]
        letters = tuple(l - lo for l in w.letters if lo <= l < hi)
        block = _derived_word(hi - lo, len(letters), letters, "touch block")
        blocks.append((lo, block))
    return blocks


def classify(w: Word) -> Classification:
    """Fixed-point trichotomy, decided arithmetically (no dynamics run)."""
    if not is_parking_word(w):
        return Classification.NO_FIXED_POINT
    if gcd(w.m, w.n) == 1:
        return Classification.UNIQUE_FIXED_POINT
    return Classification.INFINITELY_MANY_FIXED_POINTS


def enumerate_words(m: int, n: int, kind: str = "all") -> Iterator[Word]:
    """Stream words in lexicographic letter order.

    ``kind`` is ``"all"``, ``"parking"`` or ``"dyck"``.  Parking yields
    exactly ``m**(n-1)`` words when gcd(m, n) = 1; dyck yields the weakly
    increasing ones.  Sizes pass the size gate of :class:`Word` (else
    :class:`LetterOutOfRange`) when the first word is requested; with them
    checked, both letter streams yield n letters below m by construction,
    so the words are built by the trusted ``Word._of``.
    """
    if kind not in ("all", "parking", "dyck"):
        raise ValueError(f"unknown enumeration kind {kind!r}")
    _require_sizes(m, n)
    if kind == "all":
        letter_tuples = itertools.product(range(m), repeat=n)
    else:
        letter_tuples = _parking_letters(m, n, increasing=kind == "dyck")
    for letters in letter_tuples:
        yield Word._of(m, n, letters)


def _parking_letters(m: int, n: int, increasing: bool) -> Iterator[tuple[int, ...]]:
    """Letters of the parking words, lexicographically, by a pruned DFS.

    A prefix extends to a parking word iff it is one when padded with
    zeros, since a zero counts below every ``i``; so no branch dead-ends.
    ``slack[i]`` is ``m * #{letters < i} - i*n`` for the padded prefix.
    Appending letter ``a`` replaces a padding zero, taking ``m`` from
    ``slack[1..a]``, so the letters that keep the prefix parking are
    those below the first ``i`` with ``slack[i] < m``.  With
    ``increasing`` each letter is at least the one before (Dyck words).
    The DFS keeps its path in lists, not in the call stack, so no length
    of word is too deep for it.
    """
    slack = [(m - i) * n for i in range(m)]
    prefix: list[int] = []  # the letters placed, each paid for in slack[1..letter]
    tops: list[int] = []  # per placed letter, one past the largest its position allows
    lo = 0  # the least letter of the open position; always 0 unless increasing
    while True:
        top = 1
        while top < m and slack[top] >= m:
            top += 1
        if len(prefix) == n - 1:
            for a in range(lo, top):
                yield (*prefix, a)
        elif lo < top:
            for i in range(1, lo + 1):
                slack[i] -= m
            prefix.append(lo)
            tops.append(top)
            continue
        # the open position is done: advance the deepest letter that can grow
        while prefix:
            a = prefix[-1] + 1
            if a < tops[-1]:
                slack[a] -= m
                prefix[-1] = a
                lo = a if increasing else 0
                break
            prefix.pop()
            tops.pop()
            for i in range(1, a):
                slack[i] += m
        else:
            return
