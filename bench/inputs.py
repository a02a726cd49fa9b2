"""Seeded input generators and independently computed expected outputs.

Everything here is plain Python over tuples and never calls ratpark: the
benchmark builds each expected output first and derives the input from it
in the forward direction, so a check never depends on the code path being
timed.

* Parking words come from the cycle lemma: for coprime (m, n), exactly one
  of the m letter shifts ``w + c mod m`` of any word is parking.
* Dyck paths come from the cycle lemma for lattice paths: exactly one of
  the m + n rotations of a path with m north and n west steps stays on or
  above the line through its endpoints.
* Near-miss words are parking words with one letter raised until the word
  stops being parking.  The parking inequality ``i`` that the raise breaks
  is the word's threshold.
"""

from __future__ import annotations

import random
from math import comb, gcd


def slacks(m: int, n: int, letters) -> list[int]:
    """``m * #{j : w_j < i} - i * n`` for ``i`` in ``1..m``.

    The word is parking when none is negative.  The last is always 0; for
    coprime (m, n) the others are never 0, and the smallest of them largely
    sets how many iterations the orbit solver needs on a parking word.
    """
    counts = [0] * m
    for letter in letters:
        counts[letter] += 1
    out = []
    below = 0
    for i in range(1, m + 1):
        below += counts[i - 1]
        out.append(m * below - i * n)
    return out


def min_slack(m: int, n: int, letters) -> int:
    """The smallest slack of a parking word, the last one left out."""
    return min(slacks(m, n, letters)[:-1])


def broken_threshold(m: int, n: int, letters) -> int | None:
    """The least ``i`` whose parking inequality fails, or None if parking."""
    for i, slack in enumerate(slacks(m, n, letters), start=1):
        if slack < 0:
            return i
    return None


def is_parking(m: int, n: int, letters: tuple[int, ...]) -> bool:
    """``m * #{j : w_j < i} >= i * n`` for every ``i`` in ``1..m``."""
    return broken_threshold(m, n, letters) is None


def parking_shifts(m: int, n: int, letters: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The letter shifts of ``letters`` that are parking (one when coprime)."""
    shifted = (tuple((x + c) % m for x in letters) for c in range(m))
    return [w for w in shifted if is_parking(m, n, w)]


def parking_word(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """A uniformly random parking word, by the cycle lemma."""
    if gcd(m, n) != 1:
        raise ValueError(f"the cycle lemma needs coprime (m, n), got ({m}, {n})")
    (w,) = parking_shifts(m, n, tuple(rng.randrange(m) for _ in range(n)))
    return w


def near_miss_word(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    """A parking word with one letter raised until it is no longer parking.

    Draws whose raised letter reaches ``m - 1`` without breaking parking
    are drawn again.
    """
    while True:
        letters = list(parking_word(rng, m, n))
        j = rng.randrange(n)
        while letters[j] < m - 1:
            letters[j] += 1
            if broken_threshold(m, n, letters) is not None:
                return tuple(letters)


def stratified(rng: random.Random, draw, stratum, shares: dict, count: int) -> list:
    """``count`` pairs ``(k, x)`` of draws ``x`` and their strata ``k``.

    ``draw(rng)`` makes one draw and ``stratum(x)`` names its stratum.  The
    strata get whole counts of the ``count`` slots in the proportions
    ``shares`` (largest remainders).  Each slot takes the next draw of its
    stratum, in the order drawn; draws beyond a stratum's count are
    dropped, so within a stratum the draws keep their own distribution and
    only the mix across strata is fixed.  Every stratum comes once at the
    start; after that each prefix holds each stratum in nearly its share.
    """
    total = sum(shares.values())
    exact = {k: count * w / total for k, w in shares.items()}
    quota = {k: int(x) for k, x in exact.items()}
    short = count - sum(quota.values())
    for k in sorted(exact, key=lambda k: quota[k] - exact[k])[:short]:
        quota[k] += 1
    drawn = {k: [] for k in shares}
    while any(len(drawn[k]) < quota[k] for k in shares):
        x = draw(rng)
        drawn[stratum(x)].append(x)
    first = [k for k in shares if quota[k]]
    taken = dict.fromkeys(shares, 0)
    out = []
    for i in range(1, count + 1):
        if i <= len(first):
            k = first[i - 1]
        else:
            # the stratum furthest behind its share; the deficits sum to 1,
            # so it is never one whose slots are all taken
            k = max(shares, key=lambda k: i * quota[k] / count - taken[k])
        out.append((k, drawn[k][taken[k]]))
        taken[k] += 1
    return out


def path_rotations(m: int, n: int, steps: str) -> list[str]:
    """The rotations of ``steps`` whose levels never drop below 0.

    A north step adds n to the level and a west step subtracts m.
    """
    good = []
    for k in range(len(steps)):
        rotated = steps[k:] + steps[:k]
        lvl = 0
        for s in rotated:
            lvl += n if s == "N" else -m
            if lvl < 0:
                break
        else:
            good.append(rotated)
    return good


def dyck_path(rng: random.Random, m: int, n: int) -> str:
    """A uniformly random (m, n)-Dyck path as a string over {N, W}."""
    steps = ["N"] * m + ["W"] * n
    rng.shuffle(steps)
    # the rotation starting just after the lowest point is the Dyck one;
    # coprimality makes that point unique
    lvl, low, at = 0, 0, 0
    for k, s in enumerate(steps):
        lvl += n if s == "N" else -m
        if lvl < low:
            low, at = lvl, k + 1
    return "".join(steps[at:] + steps[:at])


# ------------------------------------------------ expected outputs (reference)

def _area_multiplier(m: int, n: int) -> int:
    return (-pow(n, -1, m)) % m if m > 1 else 0


def row_minima_from_columns(m: int, n: int, cols) -> tuple[int, ...]:
    """Sorted row minima of the filter generated upward by ``cols``."""
    best = {}
    for v in cols:
        for k in range(m):
            lvl = v + k * n
            r = lvl % m
            if r not in best or lvl < best[r]:
                best[r] = lvl
    return tuple(sorted(best.values()))


def dyck_columns(m: int, n: int, increasing: tuple[int, ...]) -> list[int]:
    """West-step levels of the Dyck path whose sorted column lengths are given."""
    desc = sorted(increasing, reverse=True)
    return [-(j + 1) * m + (m - c) * n for j, c in enumerate(desc)]


def path_columns(m: int, n: int, steps: str) -> list[int]:
    """West-endpoint levels of the west steps of a path from (0, 0)."""
    x = y = 0
    cols = []
    for s in steps:
        if s == "N":
            y += 1
        else:
            x -= 1
            cols.append(x * m + y * n)
    return cols


def rank_letters(m: int, minima, removals) -> tuple[int, ...]:
    """0-indexed rank of each removed level among the current row minima."""
    cur = sorted(minima)
    letters = []
    for v in removals:
        r = cur.index(v)
        letters.append(r)
        cur[r] = v + m
        cur.sort()
    return tuple(letters)


def area_tuple(m: int, n: int, u: tuple[int, ...]):
    """Row minima and removals of the Dyck-based tuple with area word ``u``."""
    cols = dyck_columns(m, n, tuple(sorted(u)))
    a = _area_multiplier(m, n)
    groups: dict[int, list[int]] = {}
    for q in sorted(cols, reverse=True):
        groups.setdefault((a * q) % m, []).append(q)
    removals = tuple(groups[letter].pop() for letter in u)
    return row_minima_from_columns(m, n, cols), removals


def zeta_letters(m: int, n: int, u: tuple[int, ...]) -> tuple[int, ...]:
    """The rank word of the tuple whose area word is ``u``."""
    minima, removals = area_tuple(m, n, u)
    return rank_letters(m, minima, removals)


def sommers_window(m: int, n: int, u: tuple[int, ...]) -> tuple[int, ...]:
    """The Sommers window whose Anderson labeling is ``u``.

    It is the removal sequence of the balanced translate of ``u``'s tuple;
    its Pak-Stanley labeling is ``zeta_letters(m, n, u)``.
    """
    minima, removals = area_tuple(m, n, u)
    shift = (m * (m + 1) // 2 - sum(minima)) // m
    return tuple(v + shift for v in removals)


def swept_minima(m: int, n: int, steps: str) -> tuple[int, ...]:
    """Row minima of the sweep image of the Dyck path ``steps``.

    The column lengths of the swept path are the rank word of the path's
    canonical tuple, which removes the column minima in increasing order.
    """
    return row_minima_from_columns(m, n, dyck_columns(m, n, sweep_letters(m, n, steps)))


def sweep_letters(m: int, n: int, steps: str) -> tuple[int, ...]:
    """Column lengths of the sweep image of the Dyck path ``steps``.

    This is the rank word that ``sweep_inverse`` hands to the orbit solver.
    """
    cols = path_columns(m, n, steps)
    return rank_letters(m, row_minima_from_columns(m, n, cols), sorted(cols))


def in_sommers(m: int, window: tuple[int, ...]) -> bool:
    """No integers i < j with w(i) - w(j) = m, read off the window."""
    n = len(window)
    for i, wi in enumerate(window, start=1):
        target = wi - m
        for k, wk in enumerate(window, start=1):
            if (wk - target) % n == 0:
                if k + (target - wk) > i:
                    return False
                break
    return True


def statistic_ceiling(m: int, n: int) -> int:
    return (m - 1) * (n - 1) // 2


def all_parking(m: int, n: int) -> list[tuple[int, ...]]:
    """Every parking word, one per letter-shift class, sorted."""
    out = []
    for k in range(m ** (n - 1)):
        letters = []
        for _ in range(n - 1):
            k, r = divmod(k, m)
            letters.append(r)
        # each letter-shift class has exactly one member ending in 0
        (w,) = parking_shifts(m, n, tuple(letters) + (0,))
        out.append(w)
    return sorted(out)


def rational_catalan(m: int, n: int) -> int:
    return comb(m + n, n) // (m + n)
