"""The sweep map on Dyck filters and its inversion through fixed points.

Each step of a Dyck filter's boundary path carries a level (west steps
the level of their west endpoint, north steps of their north endpoint).
Sweeping reorders the steps by level: read from the far corner (-n, m)
toward (0, 0), the swept path lists the steps of the original in
increasing level order.  Levels of distinct steps never collide when
gcd(m, n) = 1, so the reordering is unambiguous.

Inversion rides on the rank-word machinery: the column-length word of a
swept path is the rank word of the original path's canonical tuple, so
the fixed point of that word is the original filter, balanced.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import InternalInconsistency, NotDyck
from .filters import (
    Filter,
    column_minima,
    dyck_word,
    is_dyck,
    to_dyck,
)
from .tuples import _fixed_filter, dyck_embedding, rank_word
from .words import Word


def sweep(d: Filter) -> Filter:
    """Reorder the boundary steps of ``d`` by their levels.

    North steps end at the row minima plus n, west steps at the column
    minima ``cols``.  Read from (0, 0), the swept path takes the steps in
    decreasing level order, so with row minima ``v_0 < ... < v_{m-1}`` the
    north step ending at ``v_a + n`` follows the ``m-1-a`` north steps and
    the west steps above it: it starts at the swept row minimum
    ``(m-1-a)*n - m*(n - bisect_right(cols, v_a + n))``.  The swept walk
    starts and ends at level 0, so if it dips below 0 it climbs back by a
    north step that starts below 0: it is Dyck exactly when its least row
    minimum is at least 0.
    """
    if not is_dyck(d):
        raise NotDyck(f"row minima {d.row_minima} have nonzero minimum")
    m, n = d.m, d.n
    cols, ends = column_minima(d), [v + n for v in d.row_minima]
    if not set(ends).isdisjoint(cols):
        raise InternalInconsistency(f"step levels collide on {d.row_minima}")
    rows = sorted([m * bisect_right(cols, e) - n * a for a, e in enumerate(ends, 1)])
    if rows[0] < 0:
        raise InternalInconsistency(f"sweep of {d.row_minima} left the Dyck cone")
    return Filter._of(m, n, rows)


def sweep_column_word(d: Filter) -> Word:
    """Column-length word of ``sweep(d)``, read off as a rank word."""
    w = rank_word(dyck_embedding(d))
    if any(a > b for a, b in zip(w.letters, w.letters[1:])):
        raise InternalInconsistency(f"rank word {w} of a Dyck tuple not increasing")
    return w


def sweep_inverse(d: Filter) -> Filter:
    """The unique Dyck filter mapped to ``d`` by :func:`sweep`.

    The column-length word of ``d`` is the rank word of the preimage's
    canonical tuple, so its fixed point is the preimage, balanced.  That
    word is the Dyck word of ``d``, so the orbit starts at ``d`` itself,
    balanced.
    """
    if not is_dyck(d):
        raise NotDyck(f"row minima {d.row_minima} have nonzero minimum")
    preimage = to_dyck(_fixed_filter(dyck_word(d), d))
    check = sweep(preimage)
    if check != d:
        raise InternalInconsistency(
            f"reconstructed preimage {preimage.row_minima} sweeps to "
            f"{check.row_minima}, expected {d.row_minima}"
        )
    return preimage
