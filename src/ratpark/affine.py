"""Affine permutations, the Sommers region, and its two parking labelings.

An affine permutation is stored by its window ``[w(1), ..., w(n)]`` and
extended by ``w(i+n) = w(i) + n``; the inverse permutation is never
materialized: :func:`in_sommers` reads positions off one table per call,
and :func:`pak_stanley` finds each by a window scan, :func:`value_position`.

Windows whose inverses lie in the Sommers region (no descent of size
exactly m, see :func:`in_sommers`) correspond to balanced filter tuples:
the window is literally the removal sequence.  Pushing that tuple through
the two labelings of :mod:`ratpark.tuples` yields the Anderson and
Pak-Stanley parking words.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import (
    DimensionMismatch,
    NotDominant,
    NotInSommers,
    RatparkError,
    _Record,
    _require_ints,
    require_coprime,
)
from .filters import (
    Filter,
    _balancing_shift,
    _dyck_classes,
    _next_levels,
    area_letters,
    column_minima,
    filter_from_column_minima,
    generator_filter,
    to_balanced,
)
from .tuples import FilterTuple, tuple_from_area_word, tuple_from_rank_word
from .words import Word, _derived_word, enumerate_words


class AffinePermutation(_Record):
    """Window of n integers, distinct mod n, summing to n(n+1)/2."""

    __slots__ = _fields = ("window",)

    def __init__(self, window: tuple[int, ...]):
        object.__setattr__(self, "window", window)
        self.__post_init__()

    def __post_init__(self):
        window = tuple(self.window)
        n = len(window)
        if n < 1:
            raise DimensionMismatch("empty window")
        _require_ints(window, DimensionMismatch, "window")
        if len({v % n for v in window}) != n:
            raise DimensionMismatch(f"window {window} repeats a residue mod {n}")
        if sum(window) != n * (n + 1) // 2:
            raise DimensionMismatch(
                f"window {window} sums to {sum(window)}, expected {n * (n + 1) // 2}"
            )
        object.__setattr__(self, "window", window)

    @classmethod
    def _of(cls, window: tuple[int, ...]) -> AffinePermutation:
        """Trusted constructor: ``window`` is a checked balanced tuple's removals,
        which are distinct mod n and sum to n(n+1)/2."""
        w = object.__new__(cls)
        object.__setattr__(w, "window", window)
        return w

    @property
    def n(self) -> int:
        return len(self.window)

    def __call__(self, i: int) -> int:
        """Evaluate at any integer via ``w(i+n) = w(i) + n``."""
        q, r = divmod(i - 1, self.n)
        return self.window[r] + q * self.n


def value_position(w: AffinePermutation, v: int) -> int:
    """The unique ``j`` with ``w(j) = v`` (inverse evaluation)."""
    n = w.n
    for k, wk in enumerate(w.window, start=1):
        if (wk - v) % n == 0:
            return k + (v - wk)
    raise DimensionMismatch(f"no window residue matches {v}")  # unreachable


def is_dominant(w: AffinePermutation) -> bool:
    return all(a < b for a, b in zip(w.window, w.window[1:]))


def in_sommers(w: AffinePermutation, m: int) -> bool:
    """Whether the inverse of ``w`` labels an alcove of the Sommers region.

    The defining condition is w(i) - w(j) != m for all integers i < j.
    Shifting both indices by n leaves it unchanged, so i ranges over the
    window only; for fixed i the only candidate j is the position of the
    value w(i) - m, which must therefore sit at or before i.  The value u
    sits at ``u + at[u % n]``, where window entry k sets ``at[w(k) % n]``
    to ``k - w(k)``: one table, read once per entry.
    """
    require_coprime(m, w.n, "the Sommers region")
    n, at = w.n, [0] * w.n
    for k, v in enumerate(w.window, 1):
        at[v % n] = k - v
    return all(v - m + at[(v - m) % n] < k for k, v in enumerate(w.window, 1))


def staircase_window(m: int, n: int) -> AffinePermutation:
    """The window ``l, l+m, ..., l+(n-1)m`` with ``2l = 1+m+n-mn``.

    This is the dominant Sommers element matching the generator filter:
    the row minima of its n<->m mirror, read as a window.  Its alcove
    realizes the m-fold dilation of the fundamental one.
    """
    return AffinePermutation(generator_filter(n, m).row_minima)


def dominant_to_filter(w: AffinePermutation, m: int) -> Filter:
    """The balanced filter whose column minima form the window."""
    if not is_dominant(w):
        raise NotDominant(f"window {w.window} is not increasing")
    if not in_sommers(w, m):
        raise NotInSommers(f"inverse of {w.window} outside the Sommers region")
    return filter_from_column_minima(m, w.n, w.window)


def filter_to_dominant(b: Filter) -> AffinePermutation:
    """Sorted column minima of a balanced filter, read as a window."""
    return AffinePermutation(column_minima(b))


def mn_swap_dominant(w: AffinePermutation, m: int) -> AffinePermutation:
    """Swap window lengths n and m by recording the m-minimal values.

    The m-minimal values of ``w`` — minima of {w(i) : i >= 1} within each
    residue class mod m — are the row minima of the associated balanced
    filter, i.e. the column minima of the swapped filter.
    """
    return AffinePermutation(dominant_to_filter(w, m).row_minima)


def tuple_to_window(t: FilterTuple) -> AffinePermutation:
    """Removal levels of the tuple's balanced translate, read as a window:
    the tuple's checked removals, shifted once."""
    shift = _balancing_shift(t.initial)
    return AffinePermutation._of(tuple([v + shift for v in t.removals]))


def window_to_tuple(w: AffinePermutation, m: int) -> FilterTuple:
    """Replay the window as removals from the balanced filter it sorts to."""
    require_coprime(m, w.n, "window tuples")
    try:
        initial = filter_from_column_minima(m, w.n, w.window)
        return FilterTuple(initial, w.window)
    except RatparkError as exc:
        raise NotInSommers(
            f"window {w.window} does not replay as a balanced tuple: {exc}"
        ) from exc


def anderson(w: AffinePermutation, m: int) -> Word:
    """Anderson labeling: shift the window to minimum 0, multiply by ``a``.

    ``a`` satisfies ``a*n = -1 (mod m)``; the result equals the area word
    of the window's tuple.
    """
    if not in_sommers(w, m):
        raise NotInSommers(f"inverse of {w.window} outside the Sommers region")
    return _derived_word(m, w.n, area_letters(w.window, m, w.n), "Anderson word")


def pak_stanley(w: AffinePermutation, m: int) -> Word:
    """Pak-Stanley labeling: inversions of height below m.

    Letter i counts the j > i (over all integers) with w(j) < w(i) and
    w(i) - w(j) < m.  Only the m - 1 values strictly between w(i) - m and
    w(i) can qualify, and each occurs at exactly one position, so the
    count checks those candidates' positions.
    """
    if not in_sommers(w, m):
        raise NotInSommers(f"inverse of {w.window} outside the Sommers region")
    letters = []
    for i in range(1, w.n + 1):
        wi = w.window[i - 1]
        letters.append(
            sum(1 for v in range(wi - m + 1, wi) if value_position(w, v) > i)
        )
    return _derived_word(m, w.n, tuple(letters), "Pak-Stanley word")


def enumerate_sommers(m: int, n: int) -> Iterator[AffinePermutation]:
    """All windows whose inverses lie in the Sommers region.

    Generated through the balanced tuples of the parking words, so the
    stream has ``m**(n-1)`` entries, in lexicographic area-word order: the
    window of ``u`` is ``tuple_to_window(tuple_from_area_word(u))``.  The
    balanced filter and shifted letter starts of each Dyck class are built
    once, from :func:`ratpark.filters._dyck_classes`, into a dict keyed by
    the class's sorted letters; a parking word takes its levels from them.
    Each window is the removals of one checked balanced ``FilterTuple``;
    removability is invariant under translation, so no parking tuple is built.
    """
    classes: dict[tuple[int, ...], tuple[Filter, list[int]]] = {}
    for letters, d, starts in _dyck_classes(m, n):
        b, shift = to_balanced(d), _balancing_shift(d)
        classes[letters] = b, [v + shift for v in starts]
    for u in enumerate_words(m, n, "parking"):
        b, starts = classes[tuple(sorted(u.letters))]
        removals = tuple(_next_levels(u.letters, starts.copy(), m))
        yield AffinePermutation._of(FilterTuple(b, removals).removals)


def anderson_inverse(w: Word) -> AffinePermutation:
    """The Sommers window whose Anderson labeling is ``w``."""
    return tuple_to_window(tuple_from_area_word(w))


def pak_stanley_inverse(w: Word) -> AffinePermutation:
    """The Sommers window whose Pak-Stanley labeling is ``w``."""
    return tuple_to_window(tuple_from_rank_word(w))
