"""Filter tuples and the two labelings whose composition is the zeta map.

A filter tuple removes n minimal levels one at a time, ending at the
initial filter shifted by n.  Reading the removals two ways gives two
parking words:

* the area word — each removed level, shifted to the Dyck representative
  and multiplied by ``a`` with ``a*n = -1 (mod m)``, is a column length of
  the underlying lattice path;
* the rank word — the 0-indexed position of each removed level among the
  current row minima.

Both readings are bijections onto the parking words; ``zeta`` converts
the first labeling into the second.  Inverting the rank word is where the
orbit solver earns its keep: the balanced initial row minima are exactly
the fixed point of the word being inverted.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import product
from operator import lt

from . import action
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    LevelNotRemovable,
    NotDyck,
    _Record,
    _require_ints,
    require_coprime,
)
from .filters import (
    Filter,
    _dyck_classes,
    _balancing_shift,
    _column_groups,
    _dyck_filter,
    _lift_minimum,
    _next_levels,
    _removable,
    after_removal,
    area_letters,
    column_minima,
    enumerate_balanced,
    is_dyck,
)
from .words import Word, _derived_word, _require_parking


class FilterTuple(_Record):
    """An initial filter plus the ordered sequence of n removed levels.

    The constructor always validates the n integer removals, in one
    O(m + n) pass over a copy of the initial filter's residue table: each
    must be removable by the rule of :func:`ratpark.filters.remove` (else
    :class:`LevelNotRemovable`), its row's minimum then moves up by m, and
    the last stage must be the initial filter shifted by n (else
    :class:`InternalInconsistency`), without building the n intermediate
    filters.  So :meth:`stages` builds each by the trusted ``Filter._of``.
    The trusted :meth:`_of` builds the tuple whose removals a replay has
    checked the same way (:func:`tuple_from_rank_word`), and the translate
    of a tuple (:func:`translate`): removability and the final stage do
    not change when every level is shifted alike.
    """

    __slots__ = _fields = ("initial", "removals")

    def __init__(self, initial: Filter, removals: tuple[int, ...]):
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "removals", removals)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "removals", tuple(self.removals))
        m, n = self.initial.m, self.initial.n
        if len(self.removals) != n:
            raise LevelNotRemovable(
                f"expected {n} removals, got {len(self.removals)}"
            )
        _require_ints(self.removals, DimensionMismatch, "removals")
        table = list(self.initial.by_residue)
        for v in self.removals:
            if not _removable(table, v, m, n):
                raise LevelNotRemovable(
                    f"level {v} is not removable from {tuple(sorted(table))}"
                )
            table[v % m] = v + m
        final = tuple(sorted(table))
        if final != tuple(v + n for v in self.initial.row_minima):
            raise InternalInconsistency(
                f"final stage {final} is not initial + {n}"
            )

    @classmethod
    def _of(cls, initial: Filter, removals: tuple[int, ...]) -> FilterTuple:
        """Trusted constructor: ``removals`` were checked by a replay."""
        t = object.__new__(cls)
        object.__setattr__(t, "initial", initial)
        object.__setattr__(t, "removals", removals)
        return t

    @property
    def m(self) -> int:
        return self.initial.m

    @property
    def n(self) -> int:
        return self.initial.n

    def stages(self) -> Iterator[Filter]:
        """The n+1 filters visited, initial first."""
        stage = self.initial
        yield stage
        for v in self.removals:
            minima = after_removal(stage.row_minima, v, self.m)
            stage = Filter._of(self.m, self.n, minima)
            yield stage


def translate(t: FilterTuple, shift: int) -> FilterTuple:
    """Shift every level of the checked tuple ``t`` by ``shift``, unchecked."""
    return FilterTuple._of(
        Filter._of(t.m, t.n, [v + shift for v in t.initial.row_minima]),
        tuple([v + shift for v in t.removals]),
    )


def tuple_to_balanced(t: FilterTuple) -> FilterTuple:
    """Translate so the initial filter is balanced."""
    return translate(t, _balancing_shift(t.initial))


def area_word(t: FilterTuple) -> Word:
    """Column lengths of the tuple's path, in removal order."""
    return _derived_word(t.m, t.n, area_letters(t.removals, t.m, t.n), "area word")


def tuple_from_area_word(w: Word) -> FilterTuple:
    """The unique parking tuple whose area word is ``w``.

    One starts pass (:func:`ratpark.words._letter_starts`) serves the
    parking check, the rows and the removals: starts 1 to m are the row
    minima of the underlying Dyck filter, and the j-th letter c removes
    the j-th column minimum of area letter c, which rises from start c.
    """
    starts = _require_parking(w, "area-word tuples")
    initial = _dyck_filter(starts, w.m, w.n)
    return FilterTuple(initial, tuple(_next_levels(w.letters, starts, w.m)))


def dyck_embedding(d: Filter) -> FilterTuple:
    """The canonical tuple of a Dyck filter: remove its column minima in order."""
    if not is_dyck(d):
        raise NotDyck(f"row minima {d.row_minima} have nonzero minimum")
    return FilterTuple(d, column_minima(d))


def rank_word(t: FilterTuple) -> Word:
    """Rank (0-indexed) of each removed level among the current row minima,
    found by bisection in the one sorted list the replay lifts in place."""
    letters, minima = [], list(t.initial.row_minima)
    for v in t.removals:
        i = bisect_left(minima, v)
        letters.append(i)
        _lift_minimum(minima, i, t.m)
    return _derived_word(t.m, t.n, tuple(letters), "rank word")


def tuple_from_rank_word(w: Word) -> FilterTuple:
    """The balanced tuple whose rank word is ``w``.

    The balanced initial row minima are the unique fixed point of ``w``;
    replaying the word then removes the letter-ranked minimum at each
    step.  :func:`fixed_point_oracle` reaches the same point by an
    independent route over the balanced filters.

    The orbit starts at the Dyck filter of the sorted word, balanced,
    which usually lies far closer to the fixed point than the staircase; a
    balanced start can only shorten the orbit (see
    :func:`ratpark.action.find_fixed_point`).  The replay walks the
    removals once and checks them as ``FilterTuple`` does
    (:func:`_rank_removals`), so the tuple is built unchecked.
    """
    starts = _require_parking(w, "rank-word inversion")
    initial = _fixed_filter(w, _dyck_filter(starts, w.m, w.n))
    removals = _rank_removals(initial, w.letters)
    if removals is None:
        raise InternalInconsistency(
            f"rank word {w} does not replay from its fixed point {initial.row_minima}"
        )
    return FilterTuple._of(initial, removals)


def _fixed_filter(w: Word, start: Filter) -> Filter:
    """The balanced filter whose row minima are the fixed point of the
    coprime parking word ``w``, solved from ``start`` balanced.

    ``start`` is a filter of any translate: :func:`tuple_from_rank_word`
    hands over the Dyck filter of the sorted word, and
    :func:`ratpark.sweep.sweep_inverse` the Dyck filter it inverts.  The
    solver's point is validated as a filter.
    """
    shift = _balancing_shift(start)
    coords = tuple([v + shift for v in start.row_minima])
    report = action.find_fixed_point(w, start=action.Point._of(coords))
    if not isinstance(report.outcome, action.Fixed):
        raise InternalInconsistency(
            f"solver did not fix a point for parking word {w}: {report}"
        )
    return Filter(w.m, w.n, report.outcome.point.coords)


def _rank_removals(
    initial: Filter, letters: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The levels removed by replaying the n ``letters`` as ranks from
    ``initial`` (each is the current row minimum of the letter's rank), if
    the replay lands, else None.

    It lands when :func:`ratpark.filters._removable` accepts every level
    and the last stage is the initial filter shifted by n: all that
    ``FilterTuple`` checks of these removals.
    """
    m, n = initial.m, initial.n
    table, minima, removals = list(initial.by_residue), list(initial.row_minima), []
    for letter in letters:
        v = minima[letter]
        if not _removable(table, v, m, n):
            return None
        table[v % m] = v + m
        removals.append(v)
        _lift_minimum(minima, letter, m)
    if minima != [v + n for v in initial.row_minima]:
        return None
    return tuple(removals)


def fixed_point_oracle(w: Word) -> action.Point:
    """Brute-force fixed point, independent of the orbit solver.

    Replays ``w`` as ranks from every balanced filter ``b``
    (:func:`_rank_removals`, the replay of :func:`tuple_from_rank_word`)
    and keeps ``b`` when the replay lands.  The rank word is a bijection
    from balanced tuples to parking words, so exactly one ``b`` lands; its
    row minima are the fixed point.  None or two landing raise
    :class:`InternalInconsistency`.  The cost is at most O(n·m) per class
    over the ``binomial(m+n, n)/(m+n)`` balanced filters; neither the word
    action nor the solver is used.
    """
    _require_parking(w, "the fixed-point oracle")
    replayed = [
        b
        for b in enumerate_balanced(w.m, w.n)
        if _rank_removals(b, w.letters) is not None
    ]
    if len(replayed) != 1:
        raise InternalInconsistency(
            f"{len(replayed)} balanced tuples have rank word {w}"
        )
    return action.Point._of(replayed[0].row_minima)


def zeta(w: Word) -> Word:
    """Relabel the tuple carrying area word ``w`` by its rank word."""
    return rank_word(tuple_from_area_word(w))


def zeta_inverse(w: Word) -> Word:
    """Inverse of :func:`zeta`, via the fixed point of ``w``."""
    return area_word(tuple_from_rank_word(w))


def _statistic_ceiling(m: int, n: int) -> int:  # of sizes checked coprime
    return (m - 1) * (n - 1) // 2


def area(x: Word | FilterTuple) -> int:
    """``(m-1)(n-1)/2`` minus the letter sum of the area word."""
    if isinstance(x, FilterTuple):
        x = area_word(x)
    else:
        _require_parking(x, "area and dinv")
    return _statistic_ceiling(x.m, x.n) - sum(x.letters)


def dinv(x: Word | FilterTuple) -> int:
    """``(m-1)(n-1)/2`` minus the letter sum of the rank word.

    A bare word is read as the area label of its tuple, so its dinv is
    the rank-word statistic of that same tuple.
    """
    if isinstance(x, Word):
        x = tuple_from_area_word(x)
    return _statistic_ceiling(x.m, x.n) - sum(rank_word(x).letters)


class QTTable(_Record):
    """Joint (area, dinv) counts; rows are area values, columns dinv."""

    __slots__ = _fields = ("m", "n", "over", "counts")

    @property
    def size(self) -> int:
        return len(self.counts)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def area_marginal(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.counts)

    def dinv_marginal(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.counts))

    def to_csv(self) -> str:
        header = "area\\dinv," + ",".join(str(j) for j in range(self.size))
        rows = [
            f"{i}," + ",".join(str(c) for c in row)
            for i, row in enumerate(self.counts)
        ]
        return "\n".join([header] + rows) + "\n"


def qt_table(m: int, n: int, over: str = "parking") -> QTTable:
    """Tabulate (area, dinv) over all tuples, or only the Dyck-embedded ones.

    Both domains walk :func:`ratpark.filters._dyck_classes` once.  The Dyck
    restriction counts the canonical tuples that remove a Dyck filter's
    column minima in increasing order (:func:`dyck_embedding`, one tuple per
    class); their area words are permutations of the column-length words,
    so their area is that of the sorted word.

    Over all parking words no tuple is built: the words are grouped by
    their Dyck filter (:func:`_class_rank_sums`), so the cost is a DP per
    class of ``prod(k_i + 1)`` states, where the class holds
    ``n!/prod(k_i!)`` words and ``k_i`` counts the column minima with area
    letter i.  Sizes with billions of parking words stay in reach.
    """
    if over not in ("parking", "dyck"):
        raise ValueError(f"unknown table domain {over!r}")
    require_coprime(m, n, "qt_table")
    ceiling = _statistic_ceiling(m, n)
    counts = [[0] * (ceiling + 1) for _ in range(ceiling + 1)]
    for letters, d, starts in _dyck_classes(m, n):
        row = counts[ceiling - sum(letters)]
        if over == "dyck":
            row[ceiling - sum(rank_word(dyck_embedding(d)).letters)] += 1
        else:
            groups = _column_groups(letters, starts, m)
            for rank_sum, k in _class_rank_sums(d, groups).items():
                row[ceiling - rank_sum] += k
    return QTTable(m, n, over, tuple(tuple(row) for row in counts))


def _class_rank_sums(d: Filter, by_letter: dict[int, list[int]]) -> dict[int, int]:
    """Rank-word letter sums of the parking tuples over the Dyck filter ``d``.

    Each such tuple removes the column minima of ``d``; its area word picks,
    at each step, the group of column minima with that area letter, and a
    group is used in increasing order (:func:`tuple_from_area_word`).
    ``by_letter`` holds those groups, as :func:`ratpark.filters._column_groups`
    builds them.  An
    area letter fixes the row (``a`` is a unit mod m), and a row's column
    minima are its lowest levels, from its minimum up in steps of m: a used
    level ``v`` moves the row's minimum to ``v + m``, which may be the
    group's next level.  So the counts ``used`` of levels taken from each
    group fix every row minimum, and a DP over those counts carries the
    rank sums of the words that reach each state.  Every count vector in
    the box is a state; they are visited in ``itertools.product`` order,
    where a step, which adds 1 to one count, always moves forward.

    Everything a step needs is fixed once per (group, count) pair: the
    level ``v`` it removes, the pieces of its rank and both halves of the
    :func:`ratpark.filters._removable` guard.  The rank counts the rows
    without a group whose minimum lies below ``v``, plus the groups j whose
    count ``used[j]`` is still under the one that lifts row j's minimum
    past ``v``.  The first half, ``v`` is its row's current minimum, holds
    when the group rises from that minimum in steps of m, as it must.  The
    second, ``v - n`` is outside the filter, holds once the group of its
    row has used some fixed count of levels, or always or never for a row
    without a group; so the guard is one test ``used[j] >= need``, with
    ``need`` out of reach when either half can never hold.

    A state's histogram is one packed polynomial: rank sum s has the
    coefficient at bit ``s * width``, with ``width`` the bit length of
    ``m**(n-1)``, so a step is one shift and one add.  A coefficient counts
    words of the class that share a prefix state, and the class holds at
    most ``m**(n-1)`` words, so no coefficient reaches ``2**width`` and
    spills into the next.
    """
    m, n = d.m, d.n
    groups = list(by_letter.values())
    table = d.by_residue
    row_group = {group[0] % m: j for j, group in enumerate(groups)}
    lows = [table[group[0] % m] for group in groups]
    free = [x for r, x in enumerate(table) if r not in row_group]
    never = n + 1  # above every count a group reaches
    steps = []  # steps[i][k]: removing the k-th level of group i, else None
    for i, group in enumerate(groups):
        steps.append([])
        for k, v in enumerate(group):
            below = tuple([-((low - v) // m) for low in lows])
            under, r = v - n, (v - n) % m
            if lows[i] + k * m != v:
                guard = (i, never)
            elif r in row_group:
                j = row_group[r]
                guard = (j, (under - lows[j]) // m + 1)
            else:
                guard = (i, 0 if under < table[r] else never)
            fixed = sum(x < v for x in free)
            steps[i].append((v, fixed, below, *guard))
        steps[i].append(None)
    strides, states = [], 1  # state index of a count vector, last count fastest
    for group in reversed(groups):
        strides.insert(0, states)
        states *= len(group) + 1
    width = (m ** (n - 1)).bit_length()
    polys = [1] + [0] * (states - 1)
    counts = product(*(range(len(group) + 1) for group in groups))
    for state, used in enumerate(counts):
        poly = polys[state]
        for i, k in enumerate(used):
            step = steps[i][k]
            if step is None:
                continue
            v, fixed, below, j, need = step
            if used[j] < need:
                raise InternalInconsistency(f"level {v} of {d} is not removable")
            rank = fixed + sum(map(lt, used, below))
            polys[state + strides[i]] += poly << rank * width
    poly, mask = polys[-1], (1 << width) - 1
    sums = {}
    for s in range(n * m):
        if poly & mask:
            sums[s] = poly & mask
        poly >>= width
    return sums
