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

from .errors import InternalInconsistency, NotDyck
from .filters import (
    Filter,
    _walk_filter,
    column_minima,
    dyck_word,
    is_dyck,
    to_dyck,
)
from .tuples import _fixed_filter, dyck_embedding, rank_word
from .words import Word


def sweep(d: Filter) -> Filter:
    """Reorder the boundary steps of ``d`` by their levels.

    The north steps end at the row minima plus n and the west steps at the
    column minima, so the levels are sorted without rendering the path:
    each step is tagged ``2*level + 1`` if north, ``2*level`` if west, and
    the tags are walked from level 0 in decreasing order, the order of the
    swept path read from (0, 0).  Its north steps start at its row minima.
    """
    if not is_dyck(d):
        raise NotDyck(f"row minima {d.row_minima} have nonzero minimum")
    cols = column_minima(d)
    if not {v + d.n for v in d.row_minima}.isdisjoint(cols):
        raise InternalInconsistency(f"step levels collide on {d.row_minima}")
    tags = [2 * (v + d.n) + 1 for v in d.row_minima] + [2 * c for c in cols]
    tags.sort(reverse=True)
    # a walk at or above level 0 ends on a west step at level 0: it is Dyck
    try:
        return _walk_filter(d.m, d.n, tags)
    except NotDyck as exc:
        raise InternalInconsistency(
            f"sweep of {d.row_minima} left the Dyck cone"
        ) from exc


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
