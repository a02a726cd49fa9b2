"""The piecewise-linear action of words on sorted integer tuples.

A letter ``i`` acts on a weakly increasing m-tuple by adding ``m`` to the
i-th smallest coordinate, subtracting 1 from every coordinate, and
resorting.  Coordinate sums are preserved, so all solver work happens on
the slice of tuples summing to ``m(m+1)/2``: there the fixed point of a
coprime parking word is literally the row-minima vector of a balanced
filter (see :mod:`ratpark.filters`).

Everything here is exact integer arithmetic.
"""

from __future__ import annotations

import os
from bisect import bisect_left, insort_left
from collections.abc import Sequence
from math import gcd, isqrt, lcm
from itertools import repeat
from operator import add, eq, gt, mul

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    InvalidBudget,
    IterationBudgetExhausted,
    LetterOutOfRange,
    _Record,
    _ascii_integer,
    _require_ints,
    _require_sizes,
)
from .words import Word, is_parking_word, touch_decomposition

MAX_ITER_ENV = "RATPARK_MAX_ITER"


class Point(_Record):
    """A weakly increasing tuple of exact integers."""

    __slots__ = _fields = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)
        self.__post_init__()

    def __post_init__(self):
        coords = tuple(self.coords)
        if not coords:
            raise DimensionMismatch("a point needs at least one coordinate")
        _require_ints(coords, DimensionMismatch, "coordinates")
        if any(map(gt, coords, coords[1:])):
            raise DimensionMismatch(f"coordinates not weakly increasing: {coords}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _of(cls, coords: tuple[int, ...]) -> Point:
        """Trusted constructor: ``coords`` is a nonempty sorted tuple of integers."""
        x = object.__new__(cls)
        object.__setattr__(x, "coords", coords)
        return x

    @property
    def m(self) -> int:
        return len(self.coords)

    @property
    def total(self) -> int:
        return sum(self.coords)


class Fixed(_Record):
    __slots__ = _fields = ("point",)


class Cycle(_Record):
    __slots__ = _fields = ("period", "witness")


class Diverged(_Record):
    __slots__ = _fields = ("step", "norm")


class OrbitReport(_Record):
    """``iterations`` counts the applications of the plain orbit from its
    start to the outcome; ``applications`` those the solver computed."""

    __slots__ = _fields = ("outcome", "iterations", "applications")


def _act(xs: list[int], letters: Sequence[int], add: int) -> None:
    # The action in place, without its uniform subtractions: they never
    # change coordinate comparisons.  insort_left puts the moved value back
    # before any coordinate equal to it, searching from its old slot: where
    # a compare-exchange pass would stop, in one C call per letter.
    pop = xs.pop
    for letter in letters:
        insort_left(xs, pop(letter) + add, letter)


def _act_traced(xs: list[int], letters: Sequence[int], add: int) -> list[int]:
    """:func:`_act` that also returns each letter's final slot.

    The slots name the affine piece that ``xs`` lay in.
    """
    pop, insert = xs.pop, xs.insert
    slots = []
    for letter in letters:
        v = pop(letter) + add
        j = bisect_left(xs, v, letter)
        insert(j, v)
        slots.append(j)
    return slots


def _apply_raw(
    coords: tuple[int, ...], letters: Sequence[int], add: int, total_sub: int
) -> tuple[int, ...]:
    xs = list(coords)
    _act(xs, letters, add)
    return tuple([x - total_sub for x in xs])


def apply_letter(x: Point, i: int) -> Point:
    """Add ``m`` to the i-th smallest coordinate, subtract 1 everywhere, sort."""
    m = x.m
    _require_ints((i,), LetterOutOfRange, "letter")
    if not 0 <= i < m:
        raise LetterOutOfRange(f"letter {i} outside [0, {m})")
    return Point._of(_apply_raw(x.coords, (i,), m, 1))


def apply_word(x: Point, w: Word) -> Point:
    """Act by the letters of ``w`` from left to right."""
    if x.m != w.m:
        raise DimensionMismatch(f"point has {x.m} coordinates, word expects {w.m}")
    return Point._of(_apply_raw(x.coords, w.letters, w.m, w.n))


def _norm(coords: Sequence[int]) -> int:
    # sum over i<j of (x_j - x_i)^2, via m*sum(x^2) - (sum x)^2
    s = sum(coords)
    return len(coords) * sum(map(mul, coords, coords)) - s * s


def norm(x: Point) -> int:
    """Sum of squared pairwise coordinate differences; 0 iff all equal."""
    return _norm(x.coords)


def distance(x: Point, y: Point) -> int:
    """Same quadratic form applied to the coordinatewise difference."""
    if x.m != y.m:
        raise DimensionMismatch(f"dimension mismatch: {x.m} vs {y.m}")
    return _norm(tuple(a - b for a, b in zip(x.coords, y.coords)))


def contraction_certificate(w: Word, x: Point, y: Point) -> bool:
    """Whether acting by ``w`` did not increase the distance from x to y.

    The action is 1-Lipschitz, so this must always return True.
    """
    return distance(x, y) >= distance(apply_word(x, w), apply_word(y, w))


def staircase_point(m: int, n: int) -> Point:
    """The balanced staircase: canonical start point for orbit iteration.

    Coordinates ``l, l+n, ..., l+(m-1)n`` with ``2l = 1+m+n-mn`` sum to
    ``m(m+1)/2``.  When ``1+m+n-mn`` is odd (possible only for gcd > 1)
    the identity staircase ``(1,...,m)`` is used instead; it has the same
    sum.  The sizes pass the size gate of :class:`Word`.
    """
    _require_sizes(m, n)
    return Point(_staircase(m, n))


def _staircase(m: int, n: int) -> tuple[int, ...]:
    two_l = 1 + m + n - m * n
    if two_l % 2 == 0:
        l = two_l // 2
        return tuple(l + k * n for k in range(m))
    return tuple(range(1, m + 1))


def _require_count(value, source: str, least: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        kind = "a positive" if least else "a non-negative"
        raise InvalidBudget(f"{source} must be {kind} integer, got {value!r}")
    return value


def default_budget(m: int, n: int) -> int:
    """``10*(m+n)**2`` word applications, or ``$RATPARK_MAX_ITER`` when set:
    an optional ``-`` and ASCII digits, else :class:`InvalidBudget`."""
    env = os.environ.get(MAX_ITER_ENV)
    if env is None:
        return 10 * (m + n) ** 2
    value = _ascii_integer(env)
    return _require_count(env if value is None else value, MAX_ITER_ENV)


class _Piece:
    """The affine map of a word on one piece, and its drift per period.

    On the sorted points whose letters all land in ``slots`` the word acts
    as ``x -> (x[origin[p]] + shift[p])_p``: a permutation plus a constant.
    After ``period`` applications (the permutation's order) every
    coordinate has gone round its cycle, so the point has moved by
    ``drift``, which is constant on each cycle and sums to 0.

    On sorted input the piece is cut out by two comparisons per letter:
    the moved value lies strictly above the last element it passed and
    not above the element it stopped under.  Each is kept as
    ``(hi, lo, c, slope)``, meaning ``x[hi] - x[lo] + c >= 0``, where
    ``slope < 0`` is the change of the left side per period of drift; a
    comparison the drift does not work against holds for good.
    """

    def __init__(
        self, slots: Sequence[int], letters: Sequence[int], m: int, add: int, sub: int
    ):
        origin = list(range(m))
        bumps = [0] * m
        walls = []
        for letter, j in zip(letters, slots):
            o, k = origin[letter], bumps[letter] + 1
            if j > letter:
                walls.append((o, origin[j], add * (k - bumps[j]) - 1))
            if j < m - 1:
                walls.append((origin[j + 1], o, add * (bumps[j + 1] - k)))
            origin[letter:j] = origin[letter + 1 : j + 1]
            bumps[letter:j] = bumps[letter + 1 : j + 1]
            origin[j], bumps[j] = o, k
        cycles = []
        todo = set(range(m))
        while todo:
            cycle = [todo.pop()]
            while origin[cycle[-1]] != cycle[0]:
                cycle.append(origin[cycle[-1]])
                todo.discard(cycle[-1])
            cycles.append(cycle)
        self.origin = origin
        self.period = lcm(*(len(c) for c in cycles))
        self.shift = shift = [add * b - sub for b in bumps]
        drift = [0] * m
        for cycle in cycles:
            d = self.period // len(cycle) * sum(shift[p] for p in cycle)
            for p in cycle:
                drift[p] = d
        self.drift = drift
        self.walls = [
            (hi, lo, c, drift[hi] - drift[lo])
            for hi, lo, c in walls
            if drift[hi] < drift[lo]
        ]

    def periods_to_skip(self, cur: Sequence[int], bound: int | None, limit: int) -> int:
        """How many whole periods the orbit can skip from ``cur``.

        Requires the last ``period`` inputs of the orbit to lie in this
        piece, so that they are ``y_r = A^r(cur - drift)`` and
        ``cur = y_0 + drift``.  The walls and the norm read only coordinate
        differences (the drift sums to 0), so ``cur`` may be translated by
        any constant.  Skipping ``k`` periods applies the word to
        ``y_r + s*drift`` for ``1 <= s <= k`` and yields outputs between
        ``y_r + drift`` and ``y_r + (k+1)*drift``.  Returns the largest
        ``k <= limit`` for which every skipped input stays in the piece
        (each wall is linear in ``s`` and holds at ``s = 0``) and, unless
        ``bound`` is None, the norm stays within it at ``s = k + 1`` for
        every ``r``; the norm is convex in ``s`` and within bound at
        ``s = 0`` (``r >= 1``) or ``s = 1`` (``r = 0``), so it stays within
        bound in between.
        """
        drift, m = self.drift, len(cur)
        if not any(drift):
            return 0
        quad = m * sum(d * d for d in drift)
        k = limit
        y = tuple(c - d for c, d in zip(cur, drift))
        for _ in range(self.period):
            for hi, lo, c, slope in self.walls:
                k = min(k, (y[hi] - y[lo] + c) // -slope)
            if bound is not None:
                # norm(y + s*drift) = quad*s^2 + lin*s + _norm(y): drift sums to 0
                lin = 2 * m * sum(a * d for a, d in zip(y, drift))
                rest = _norm(y) - bound
                s = (isqrt(lin * lin - 4 * quad * rest) - lin) // (2 * quad)
                while quad * (s + 1) ** 2 + lin * (s + 1) + rest <= 0:
                    s += 1
                k = min(k, s - 1)
            if k <= 0:
                return 0
            y = tuple(y[o] + a for o, a in zip(self.origin, self.shift))
        return k


def _raised_by(xs: list[int], ys: list[int], gap: int) -> bool:
    """Whether ``xs`` is ``ys`` with ``gap`` added to every coordinate,
    compared up to the first coordinate that differs."""
    return all(map(eq, xs, map(add, ys, repeat(gap))))


def _orbit(
    start: tuple[int, ...],
    letters: Sequence[int],
    add: int,
    sub: int,
    budget: int,
    bound: int | None,
) -> tuple[tuple[int, ...], int, int, int] | None:
    """The orbit of ``x -> _apply_raw(x, letters, add, sub)`` from ``start``.

    Finds the plain orbit's first fixed point, escape (a norm above
    ``bound``, if any) or repeat within ``budget`` applications, else
    returns None.  Returns ``(x, period, it, applications)``: ``x`` is
    the first point beyond the bound when ``period`` is 0, the fixed
    point when ``period`` is 1, and else the first repeat of a cycle of
    that period; ``it`` counts the plain orbit's applications to the
    outcome.  The norm is at most ``floor(m*m/4)`` times the squared
    spread (``k`` coordinates at the low end and ``m - k`` at the high
    end give the most, ``k*(m - k)`` squared spreads), so the exact norm
    is computed only when that product exceeds the bound: under the
    default coprime bound of :func:`find_fixed_point`, once the spread
    passes ``2*S + S0``.

    One loop in one frame.  Every application acts in place on one list
    and leaves out the ``-sub`` of each application: after ``it``
    applications the list holds the orbit point plus ``it*sub``.  The
    action commutes with adding a constant, so the tests read that frame
    directly.  The point is fixed when the last application raised the
    list by exactly ``sub``, and it equals Brent's tortoise, a copy taken
    ``lam`` applications ago, when it lies ``lam*sub`` above that copy;
    both compare the first coordinate before the rest.  The spread and
    the norm ignore a uniform shift.  A point in the orbit's own frame
    is built only at an exit, the exhausted budget's included.

    Drift jumps.  The letters' final slots during one application name an
    affine piece, on which the word acts as ``x -> Px + c`` with ``P`` a
    permutation.  If the orbit stays in one piece for ``L = ord(P)``
    applications, then ``x_{k+L} = x_k + D`` with
    ``D = (1 + P + ... + P^(L-1)) c`` and ``PD = D``, and as long as the
    inputs stay in the piece the orbit is ``x_{k+tL+r} = x_{k+r} + tD``.
    The loop then skips as many whole periods as keep every skipped input
    in the piece, every skipped output within the bound and the count
    within the budget (:meth:`_Piece.periods_to_skip`); a jump of ``k``
    periods adds ``k*(D + L*sub)`` to the list.  A piece with ``D != 0``
    holds no fixed point (``x = Px + c`` forces ``D = 0``), a jump lands
    on the plain orbit, and the first repeat is found by re-walking the
    plain orbit, so outcome and ``iterations`` are those of plain
    iteration.  A piece is built at the second application in it, in one
    walk of the letters.  The first ``m + n`` applications
    (``n = len(letters)``) run plain, by :func:`_act`: no slots, no runs,
    no pieces.  Later ones run by :func:`_act_traced`, which costs about
    1.2 times :func:`_act` at (50,77), each after the same list copy.
    Tracing pays only on long drifts, which run for thousands of
    applications, while a start near the fixed point (the warm start of
    rank-word inversion) mostly resolves within ``m + n``.  A drift is
    then jumped at most about ``m + n`` applications later,
    ``1/(10*(m+n))`` of the default budget; the budget, the escape test
    and Brent's tortoise see every application.

    Cycles are found by Brent's method in O(m) memory: the hare is
    compared with a tortoise moved to the hare at each power of two, which
    yields the period and a point on the cycle.  The adds keep the
    residues mod ``add`` and each application shifts them all by
    ``-sub``, so with ``gcd(add, sub) = 1`` a start with distinct residues
    has those of a coprime word's fixed point, and its orbit reaches it or
    escapes.  Only elsewhere is an exhausted orbit searched for a repeat
    that closed within the budget.  Both routes end at one exit: from a
    period, found by the tortoise or by that search, :func:`_first_repeat`
    walks from ``start`` to the first repeat, and a first repeat beyond
    the budget counts as exhaustion.
    """
    m = len(start)
    spread_norm = m * m // 4
    plain = m + len(letters)
    xs, tortoise = list(start), list(start)
    it = applications = period = lam = 0
    power = 1
    run_slots, piece = None, None
    run = 0  # consecutive inputs in the piece since it was entered or skipped
    while it < budget:
        before = xs[:]
        # _act returns None: a plain application traces no slots
        slots = _act(xs, letters, add) if it < plain else _act_traced(xs, letters, add)
        it += 1
        applications += 1
        low = xs[0]
        if low == before[0] + sub and _raised_by(xs, before, sub):
            return tuple([x - it * sub for x in xs]), 1, it, applications
        if bound is not None and spread_norm * (xs[-1] - low) ** 2 > bound:
            if _norm(xs) > bound:
                return tuple([x - it * sub for x in xs]), 0, it, applications
        lam += 1
        gap = lam * sub
        if low == tortoise[0] + gap and _raised_by(xs, tortoise, gap):
            period = lam
            break
        if lam == power:
            tortoise, power, lam = xs[:], 2 * power, 0
        if slots is None or slots != run_slots:
            run_slots, piece, run = slots, None, 1
            continue
        run += 1
        if piece is None:
            piece = _Piece(slots, letters, m, add, sub)
        if run >= piece.period:
            run = 0
            k = piece.periods_to_skip(xs, bound, (budget - it) // piece.period)
            if k:
                lift = piece.period * sub
                xs = [x + k * (d + lift) for x, d in zip(xs, piece.drift)]
                it += k * piece.period
                tortoise, power, lam = xs[:], 1, 0
    else:  # the budget ran out
        if gcd(add, sub) == 1 and len({c % add for c in start}) == m:
            return None
        # a repeat that closed within the budget puts ``cur`` on its cycle
        cur = tuple([x - it * sub for x in xs])
        ahead = _apply_raw(cur, letters, add, sub)
        period = 1
        while ahead != cur:
            if period == budget:
                return None
            ahead = _apply_raw(ahead, letters, add, sub)
            period += 1
        applications += period
    first, x = _first_repeat(start, letters, add, sub, period)
    if first + period > budget:
        return None
    return x, period, first + period, applications + period + 2 * first


def _first_repeat(
    start: tuple[int, ...], letters: Sequence[int], add: int, sub: int, period: int
) -> tuple[int, tuple[int, ...]]:
    """Brent's second phase: the applications before the orbit's first
    repeat, and that point.

    A walker ``period`` applications ahead of another meets it first
    there, after ``period + 2*first`` applications in all.
    """
    ahead = start
    for _ in range(period):
        ahead = _apply_raw(ahead, letters, add, sub)
    behind, first = start, 0
    while behind != ahead:
        behind = _apply_raw(behind, letters, add, sub)
        ahead = _apply_raw(ahead, letters, add, sub)
        first += 1
    return first, behind


def find_fixed_point(
    w: Word,
    max_iterations: int | None = None,
    escape_bound: int | None = None,
    start: Point | None = None,
) -> OrbitReport:
    """Iterate ``x <- w(x)`` from ``start`` until resolution.

    ``start`` defaults to the balanced staircase; any other start must be
    a :class:`Point` with ``w.m`` coordinates (else
    :class:`DimensionMismatch`), and may lie off the balanced slice.  The
    action preserves coordinate sums, so a start on that slice can only
    reach the slice's fixed point, close a cycle or exhaust the budget:
    a start close to the fixed point shortens the orbit, never changes
    where it ends.

    Returns ``Fixed`` when an application leaves the point unchanged,
    ``Diverged`` once the norm exceeds the escape bound, and ``Cycle`` on a
    repeat of period > 1.  A non-parking word provably never fixes a point
    or closes a cycle (the descent argument below), but it reaches
    ``Diverged`` only if the budget lasts until its norm passes the bound.
    ``iterations`` counts word applications of the plain orbit from
    ``start``, and ``applications`` those actually computed: one loop acts
    on the point in place, and after the first ``m + n`` applications,
    which record no slots, it skips whole periods of the orbit's drift
    inside one affine piece.
    ``escape_bound`` must be an integer of at least 0, else
    :class:`InvalidBudget`.

    The default escape bound is proven when gcd(m, n) = 1: no orbit of a
    parking word, from any start, has a norm above
    ``B = floor(m*m/4) * (2*S + S0)**2``, with ``S = (m-1)*n`` and ``S0``
    the spread (largest minus smallest coordinate) of the start used.

    * ``sqrt(norm)`` is a seminorm, ``distance`` its square on the
      coordinatewise difference, and the action is 1-Lipschitz in it and
      commutes with adding a constant to every coordinate.
    * The word has a fixed point ``p``, a translate of the row minima of
      a filter.  Shifted so that its least element is 0, the filter holds
      ``k*n`` for every ``k >= 0``, and for ``k < m`` these meet every
      residue mod m; so every row minimum lies in ``[0, (m-1)*n]``, and
      ``spread(p) <= S``.
    * A vector of spread ``s`` has norm at most ``floor(m*m/4) * s**2``.
    * So ``sqrt(norm(x_k)) <= sqrt(norm(p)) + sqrt(distance(x_k, p))
      <= sqrt(norm(p)) + sqrt(distance(x_0, p))``, and the two terms are
      at most ``sqrt(floor(m*m/4))`` times ``S`` and ``S + S0``; so
      ``norm(x_k) <= B``.

    So an orbit whose norm passes ``B`` is that of a word with no fixed
    point, which does not park.  When gcd(m, n) > 1 the default bound is
    ``norm(start) + (m*n)**4``, an engineering constant, not derived from
    any sharper estimate.  An explicit ``escape_bound`` wins at any gcd.

    A coprime parking word has one fixed point up to translation, the row
    minima of a filter, whose residues mod m are distinct.  Each letter
    shifts every residue mod m by -1, so a start whose residues repeat
    can never reach it, and its cycle is a ``Cycle``; a cycle from a start
    with distinct residues, such as the staircase or a filter's row
    minima, is surfaced as :class:`InternalInconsistency` with the
    witness.  So an orbit that exhausts the budget is searched for a
    repeat that closed within it where a cycle can exist: when
    gcd(m, n) > 1, or when the start repeats a residue mod m.

    A non-parking word closes no cycle from any start, so its cycle is an
    :class:`InternalInconsistency` too.  Take ``i`` with ``m*c_i < i*n``,
    where ``c_i`` counts the letters below ``i``.  A letter below ``i``
    raises the sum of the ``i`` smallest coordinates by at most ``m``, any
    other letter does not raise it, and every letter lowers it by ``i``.
    So one word application changes that sum by at most
    ``m*c_i - i*n <= -1``, and no point repeats.
    """
    m, n = w.m, w.n
    if max_iterations is None:
        budget = default_budget(m, n)
    else:
        budget = _require_count(max_iterations, "max_iterations")
    if start is not None and not (isinstance(start, Point) and start.m == m):
        raise DimensionMismatch(f"start {start!r} is not a point with {m} coordinates")
    start = _staircase(m, n) if start is None else start.coords
    if escape_bound is not None:
        bound = _require_count(escape_bound, "escape_bound", 0)
    elif gcd(m, n) == 1:
        bound = m * m // 4 * (2 * (m - 1) * n + start[-1] - start[0]) ** 2
    else:
        bound = _norm(start) + (m * n) ** 4
    orbit = _orbit(start, w.letters, m, n, budget, bound)
    if orbit is None:
        raise IterationBudgetExhausted(
            f"no resolution for {w} within {budget} word applications"
        )
    x, period, it, applications = orbit
    if period == 0:
        return OrbitReport(Diverged(it, _norm(x)), it, applications)
    if period == 1:
        return OrbitReport(Fixed(Point._of(x)), it, applications)
    witness = Point._of(x)
    if not is_parking_word(w):
        raise InternalInconsistency(
            f"non-parking word {w} entered a {period}-cycle", witness=witness
        )
    if gcd(m, n) == 1 and len({c % m for c in start}) == m:
        raise InternalInconsistency(
            f"coprime parking word {w} entered a {period}-cycle", witness=witness
        )
    return OrbitReport(Cycle(period, witness), it, applications)


def _scaled_block_fixed_point(
    q: Word, add: int, cycle_sub: int, budget: int
) -> tuple[int, ...]:
    """Integer fixed point of the block dynamics used by the gap witness.

    Each letter of ``q`` adds ``add`` to a coordinate; ``cycle_sub`` is
    subtracted from all coordinates once per word application.  This is
    the original action scaled by ``add/q.m``, so its fixed points are the
    scaled fixed points of ``q`` — kept integral without ever forming the
    rational scale factor.  Requires ``add * q.n == q.m * cycle_sub``: the
    dynamics then keeps coordinate sums.  Every block that
    :func:`ratpark.words.touch_decomposition` cuts from an (m, n) parking
    word, passed with ``add = m`` and ``cycle_sub = n``, meets it.

    When ``q`` has gcd > 1 the orbit may close a cycle of period ``p``
    instead of fixing a point; then the floored centroid
    ``(s // p for s in sums)`` of the cycle, ``sums`` the coordinatewise
    sum of its points, is returned, and it is fixed:

    * The exact centroid ``c`` is fixed.  On the cycle's sum slice
      ``s(y) = sum_i distance(x_i, y)`` is strictly convex with ``c`` its
      only minimiser.  The action is 1-Lipschitz, keeps sums and permutes
      the cycle, so ``s(A c) <= s(c)`` and ``A c = c``, also for a cycle
      that crosses pieces.
    * Floor commutes with each letter on sorted vectors.  Floor is
      monotone, so it keeps the sort order and the i-th smallest
      coordinate, and it commutes with adding ``add`` and subtracting
      ``cycle_sub``.  So ``A(floor c) = floor(A c) = floor c``.
    """
    mu, n_j = q.m, q.n
    ratio, rem = divmod(add, mu)
    if rem == 0:
        start = tuple(c * ratio for c in _staircase(mu, n_j))
    else:
        start = (0,) * mu
    letters = q.letters
    orbit = _orbit(start, letters, add, cycle_sub, budget, None)
    if orbit is None:
        raise IterationBudgetExhausted(f"block word {q} unresolved within {budget}")
    x, period = orbit[:2]
    # the points of a cycle are sorted, so their sum and its floor are too
    sums = x
    for _ in range(period - 1):
        x = _apply_raw(x, letters, add, cycle_sub)
        sums = [s + c for s, c in zip(sums, x)]
    return tuple(s // period for s in sums)


def construct_fixed_point_general(w: Word) -> Point:
    """Explicit fixed point for any parking word, touch points included.

    The word is cut at its touch points into blocks with no touch points;
    each block's fixed point is computed for the dynamics rescaled to add
    ``m`` per letter, offset by ``j*(m*n + 1)`` for the j-th block (from
    0), concatenated, and rebalanced by an integer shift.  Consecutive
    offsets differ by more than ``m*n``, so the blocks never interact
    while the word acts.  :func:`ratpark.words.touch_decomposition` raises
    :class:`NotAParkingWord` for a word that is not parking.
    """
    m, n = w.m, w.n
    budget = default_budget(m, n)
    coords: list[int] = []
    for j, (_, q) in enumerate(touch_decomposition(w)):
        # touch-point structure gives q.n * m == q.m * n, so each block
        # sheds exactly n per coordinate over one pass of the full word
        block = _scaled_block_fixed_point(q, m, n, budget)
        coords.extend(c + j * (m * n + 1) for c in block)

    target = m * (m + 1) // 2
    shift = (target - sum(coords)) // m
    point = Point(tuple(c + shift for c in coords))
    if _apply_raw(point.coords, w.letters, m, n) != point.coords:
        raise InternalInconsistency(
            f"assembled point is not fixed by {w}", witness=point
        )
    return point
