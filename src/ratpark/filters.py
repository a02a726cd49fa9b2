"""Periodic order filters of the grid, stored by their m row-minimum levels.

The lattice point ``(i, j)`` carries the level ``i*m + j*n``.  Rows are
residue classes mod m (steps of m), columns are residue classes mod n
(steps of n).  An invariant up-closed set of points is determined by the
minimal level it contains in each row, so a filter is stored as those m
integers — one per residue class mod m — and the infinite point set is
never materialized.

Only coprime (m, n) are supported.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Iterable, Iterator, Sequence
from math import comb

from .action import staircase_point
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    LevelNotRemovable,
    NotDyck,
    _Record,
    _require_ints,
    require_coprime,
)
from .words import (
    Word,
    _derived_word,
    _letter_starts,
    _require_parking,
    enumerate_words,
)


def level(i: int, j: int, m: int, n: int) -> int:
    """Level of the lattice point ``(i, j)``: the dot product with (m, n)."""
    return i * m + j * n


def _residue_table(levels: Iterable[int], modulus: int) -> tuple[int | None, ...]:
    """``levels`` by residue mod ``modulus``; a class none reaches holds None."""
    table = [None] * modulus
    for v in levels:
        table[v % modulus] = v
    return tuple(table)


class Filter(_Record):
    """An (m,n)-invariant order filter, canonically its sorted row minima.

    ``Filter(m, n, minima)`` validates: coprime sizes, one integer minimum
    per residue class mod m, up-closed under ``+n``.  Every filter built
    from outside data goes through it, the solver's fixed point included
    (:func:`ratpark.tuples._fixed_filter`).  The trusted :meth:`_of` builds
    what the theory makes a filter: translates (:func:`to_dyck`,
    :func:`to_balanced`, :func:`ratpark.tuples.translate`), a filter less a
    level checked to be removable (:func:`remove`, ``FilterTuple.stages``),
    the m<->n mirror, whose row minima are the column minima (:func:`mn_swap`),
    and Dyck paths: a parking word's (:func:`_dyck_filter`), and a walk's
    (:func:`_walk_filter`) or a sweep's (:func:`ratpark.sweep.sweep`)
    that never dips below level 0.
    Both constructors store ``by_residue``, the row minima by residue mod
    m, in a slot outside ``_fields``, so equality, hash and ``repr`` never
    see it.
    """

    _fields = ("m", "n", "row_minima")
    __slots__ = _fields + ("by_residue",)

    def __init__(self, m: int, n: int, row_minima: tuple[int, ...]):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "row_minima", row_minima)
        self.__post_init__()

    def __post_init__(self):
        require_coprime(self.m, self.n, "filters")
        minima = tuple(self.row_minima)
        if len(minima) != self.m:
            raise InternalInconsistency(
                f"expected {self.m} row minima, got {len(minima)}"
            )
        _require_ints(minima, DimensionMismatch, "row minima")
        minima = tuple(sorted(minima))
        object.__setattr__(self, "row_minima", minima)
        table = _residue_table(minima, self.m)
        object.__setattr__(self, "by_residue", table)
        if None in table:
            raise InternalInconsistency(
                f"row minima {minima} do not cover all residues mod {self.m}"
            )
        for v in minima:
            up = v + self.n
            if up < table[up % self.m]:
                raise InternalInconsistency(
                    f"row minima {minima} not up-closed: {v}+{self.n} missing"
                )

    @classmethod
    def _of(cls, m: int, n: int, sorted_minima: Sequence[int]) -> Filter:
        """Trusted constructor: ``sorted_minima`` are a filter's sorted row minima."""
        f = object.__new__(cls)
        object.__setattr__(f, "m", m)
        object.__setattr__(f, "n", n)
        object.__setattr__(f, "row_minima", tuple(sorted_minima))
        object.__setattr__(f, "by_residue", _residue_table(f.row_minima, m))
        return f

    def minimum_by_residue(self, r: int) -> int:
        return self.by_residue[r % self.m]


def _class_minima(table: Sequence[int], step: int, modulus: int) -> tuple[int, ...]:
    """Least level in each class mod ``modulus``, sorted, by one boundary walk.

    ``table`` holds a filter's class minima mod ``step`` by residue, and
    ``step`` is coprime to ``modulus``.  From the least level the walk goes
    up by ``modulus`` from a level the table holds, else down by ``step``,
    recording each level it reaches going down: rows to columns, m steps up
    and n down (:func:`dyck_filter_to_path`); columns to rows, n up and m
    down.  Closure: back at its start after ``step + modulus`` steps, it
    went up ``step`` times, from every level of the table (coprime sizes
    allow no shorter period), each time to or above its class minimum, else
    it would go down in that class for good.  So only an up-closed table, a
    filter's, closes the walk; any other raises InternalInconsistency.
    """
    lvl = start = min(table)
    out = []
    for _ in range(step + modulus):
        if table[lvl % step] == lvl:
            lvl += modulus
        else:
            lvl -= step
            out.append(lvl)
    if lvl != start:
        raise InternalInconsistency(f"{table}: the boundary walk does not close")
    return tuple(sorted(out))


def column_minima(f: Filter) -> tuple[int, ...]:
    """Least filter level in each residue class mod n, sorted."""
    return _class_minima(f.by_residue, f.m, f.n)


def to_dyck(f: Filter) -> Filter:
    """Translate so the minimum level becomes 0."""
    shift = min(f.row_minima)
    return Filter._of(f.m, f.n, [v - shift for v in f.row_minima])


def is_dyck(f: Filter) -> bool:
    return min(f.row_minima) == 0


def is_balanced(f: Filter) -> bool:
    return _balancing_shift(f) == 0


def _balancing_shift(f: Filter) -> int:
    """The level shift that makes the row minima sum to ``m(m+1)/2``.

    Translation moves the sum in steps of m, and the residue of the sum
    mod m is a class invariant, so the shift is always integral for a
    genuine filter.
    """
    total = sum(f.row_minima)
    target = comb(f.m + 1, 2)
    shift, rem = divmod(target - total, f.m)
    if rem:
        raise InternalInconsistency(
            f"row-minima sum {total} not congruent to {target} mod {f.m}"
        )
    return shift


def to_balanced(f: Filter) -> Filter:
    """Translate by :func:`_balancing_shift`."""
    shift = _balancing_shift(f)
    return Filter._of(f.m, f.n, [v + shift for v in f.row_minima])


def _removable(table: Sequence[int], v: int, m: int, n: int) -> bool:
    """Whether ``v`` is a poset-minimal level of the filter ``table`` describes.

    ``table[r]`` is the row minimum of residue class r mod m.  ``v`` must be
    a row minimum, and column-minimal: the filter misses ``v - n``.
    """
    return table[v % m] == v and v - n < table[(v - n) % m]


def removable_levels(f: Filter) -> tuple[int, ...]:
    """Row minima that are also column-minimal: the poset-minimal levels.

    Removing any other level would leave the point below it stranded, so
    these are exactly the levels whose removal yields another filter.
    """
    table = f.by_residue
    return tuple(v for v in f.row_minima if _removable(table, v, f.m, f.n))


def _lift_minimum(minima: list[int], i: int, m: int) -> None:
    """Lift the minimal level ``minima[i]`` of sorted row minima by m, in place."""
    insort(minima, minima.pop(i) + m, i)


def after_removal(minima: Sequence[int], v: int, m: int) -> list[int]:
    """Sorted row minima once the minimal level ``v`` is removed.

    ``minima`` is sorted and holds ``v``; its row now starts at ``v + m``.
    """
    out = list(minima)
    _lift_minimum(out, bisect_left(out, v), m)
    return out


def remove(f: Filter, v: int) -> Filter:
    """Drop the minimal level ``v``; its row now starts at ``v + m``.

    The result is not rebalanced; graph traversals compose this with
    :func:`to_balanced`.
    """
    if not _removable(f.by_residue, v, f.m, f.n):
        raise LevelNotRemovable(f"level {v} is not removable from {f.row_minima}")
    return Filter._of(f.m, f.n, after_removal(f.row_minima, v, f.m))


def mn_swap(f: Filter) -> Filter:
    """The same filter with the roles of rows and columns exchanged."""
    return Filter._of(f.n, f.m, column_minima(f))


def filter_from_column_minima(m: int, n: int, cols: Sequence[int]) -> Filter:
    """Build the filter generated upward by one level per column.

    Every filter level sits above its column minimum, so the up-closure of
    the column minima recovers the whole filter, and its row minima are
    their class minima mod m (the m<->n mirror of :func:`column_minima`).

    ``cols`` are raw levels, so the result is validated and its column
    minima rechecked.
    """
    require_coprime(m, n, "filters")
    cols = tuple(cols)
    table = _residue_table(cols, n)
    if len(cols) != n or None in table:
        raise InternalInconsistency(
            f"expected one column minimum per residue class mod {n}, got {cols}"
        )
    f = Filter(m, n, _class_minima(table, n, m))
    if column_minima(f) != tuple(sorted(cols)):
        raise InternalInconsistency(
            f"levels {sorted(cols)} are not the column minima of a filter"
        )
    return f


def generator_filter(m: int, n: int) -> Filter:
    """The filter generated by the single level ``(1+m+n-mn)/2``.

    Its row minima form the balanced staircase ``l, l+n, ..., l+(m-1)n``.
    """
    return Filter(m, n, staircase_point(m, n).coords)


def area_letters(levels: Sequence[int], m: int, n: int) -> tuple[int, ...]:
    """Column length ``a*(v - min) mod m`` of each level, ``a*n = -1 (mod m)``.

    Taken relative to the least level, a west endpoint at level q sits
    ``a*q mod m`` cells below the top of the fundamental rectangle; the
    letters do not change when every level is translated.
    """
    a = -pow(n, -1, m) % m
    low = min(levels)
    return tuple(a * (v - low) % m for v in levels)


def dyck_word(f: Filter) -> Word:
    """Sorted column lengths of the filter's boundary path."""
    letters = area_letters(column_minima(f), f.m, f.n)
    return _derived_word(f.m, f.n, tuple(sorted(letters)), "dyck word")


def _next_levels(letters: Iterable[int], starts: list[int], m: int) -> list[int]:
    """Each letter ``c`` in turn takes ``starts[c]``, which then rises by m in place."""
    out = []
    for c in letters:
        out.append(starts[c])
        starts[c] += m
    return out


def _dyck_filter(starts: list[int], m: int, n: int) -> Filter:
    """The Dyck filter of a parking word whose :func:`ratpark.words._letter_starts`
    are ``starts``: starts 1 to m are its row minima.  One starts pass serves
    the parking check, the rows and the removals of the word's tuple.
    Unchecked: every caller checked or enumerated the word."""
    return Filter._of(m, n, sorted(starts[1:]))


def _column_groups(
    letters: Sequence[int], starts: list[int], m: int
) -> dict[int, list[int]]:
    """Column minima of the Dyck filter of sorted ``letters`` by area letter,
    taken from their ``starts``, which it uses up."""
    groups: dict[int, list[int]] = {}
    for c, v in zip(letters, _next_levels(letters, starts, m)):
        groups.setdefault(c, []).append(v)
    return groups


def filter_from_dyck_word(w: Word) -> Filter:
    """The Dyck filter whose boundary path has the given column lengths."""
    starts = _require_parking(w, "filters")
    if any(a > b for a, b in zip(w.letters, w.letters[1:])):
        raise NotDyck(f"{w} is not weakly increasing")
    return _dyck_filter(starts, w.m, w.n)


def dyck_filter_to_path(f: Filter) -> tuple[str, tuple[int, ...]]:
    """Boundary path of a Dyck filter from (0,0) to (-n, m).

    Returns the step string over {N, W} together with one level per step:
    a north step is labeled by its north endpoint, a west step by its
    west endpoint.  The north endpoints are the row minima plus n, so the
    walk starts at level 0 and steps north (+n) from a row minimum, else
    west (-m).
    """
    if not is_dyck(f):
        raise NotDyck(f"row minima {f.row_minima} have nonzero minimum")
    m, n, table = f.m, f.n, f.by_residue
    steps = []
    levels = []
    lvl = 0
    for _ in range(m + n):
        if table[lvl % m] == lvl:
            lvl += n
            steps.append("N")
        else:
            lvl -= m
            steps.append("W")
        levels.append(lvl)
    if steps.count("N") != m:
        raise InternalInconsistency(
            f"walk on {f.row_minima} took {steps.count('N')} of {m} north levels"
        )
    return "".join(steps), tuple(levels)


def _walk_filter(m: int, n: int, steps: Iterable[bool]) -> Filter:
    """The Dyck filter whose boundary walk from level 0 goes north (+n) on
    each true entry of ``steps``, west (-m) on each false one; a north step
    starts at a row minimum.  A dip below level 0 raises :class:`NotDyck`.
    Trusted: ``steps`` has m true and n false entries; callers check (m, n)."""
    lvl = 0
    rows = []
    for north in steps:
        if north:
            rows.append(lvl)
            lvl += n
        else:
            lvl -= m
            if lvl < 0:
                raise NotDyck(f"walk of {m} N and {n} W steps dips below level 0")
    return Filter._of(m, n, sorted(rows))


def filter_from_path(m: int, n: int, steps: str) -> Filter:
    """Rebuild a Dyck filter from its boundary-path step string."""
    if m < 1 or n < 1 or sorted(steps) != sorted("N" * m + "W" * n):
        raise NotDyck(f"path needs {m} N steps and {n} W steps, got {steps!r}")
    d = _walk_filter(m, n, [s == "N" for s in steps])
    # after the walk, so a path that dips reports NotDyck at any sizes
    require_coprime(m, n, "filters")
    return d


def _dyck_classes(
    m: int, n: int
) -> Iterator[tuple[tuple[int, ...], Filter, list[int]]]:
    """Each Dyck class's sorted letters, Dyck filter and letter starts (one
    list per class, the caller's to use up), in Dyck-word order.

    The one builder of the classes behind every whole-space path.
    Coprimality is checked once; the enumerated words are sorted parking
    words, all that :func:`filter_from_dyck_word` checks.
    """
    require_coprime(m, n, "filters")
    for w in enumerate_words(m, n, "dyck"):
        starts = _letter_starts(w.letters, m, n)
        yield w.letters, _dyck_filter(starts, m, n), starts


def enumerate_balanced(m: int, n: int) -> Iterator[Filter]:
    """All balanced filters, one per equivalence class, in Dyck-word order:
    the balanced forms of :func:`_dyck_classes`."""
    for _, d, _ in _dyck_classes(m, n):
        yield to_balanced(d)
