"""JSON schemas and compact text forms for every domain type.

Schemas:
    Word              {"m": int, "n": int, "letters": [int, ...]}
    Point             {"m": int, "coords": [int, ...]}
    Filter            {"m": int, "n": int, "row_minima": [int, ...]}
    FilterTuple       {"m": int, "n": int, "row_minima": [...], "removals": [...]}
    AffinePermutation {"n": int, "window": [int, ...]}
    QTTable           {"m": int, "n": int, "over": str, "counts": [[int, ...], ...]}

Words also travel as compact digit strings ("020101151") when m <= 10,
or comma-separated letters otherwise.  Malformed input raises
:class:`SchemaViolation` carrying the path of the offending field.
"""

from __future__ import annotations

from math import gcd

from .action import Point
from .affine import AffinePermutation
from .errors import RatparkError, SchemaViolation
from .filters import Filter
from .tuples import FilterTuple, QTTable
from .words import Word


def _require_int(obj: object, path: str, low: int | None = None) -> int:
    if not isinstance(obj, int) or isinstance(obj, bool):
        raise SchemaViolation(path, f"expected an integer, got {obj!r}")
    if low is not None and obj < low:
        raise SchemaViolation(path, f"expected at least {low}, got {obj}")
    return obj


def _require_list(obj: object, path: str, length: int | None = None) -> list:
    if not isinstance(obj, list):
        raise SchemaViolation(path, f"expected a list, got {obj!r}")
    if length is not None and len(obj) != length:
        raise SchemaViolation(path, f"expected {length} entries, got {len(obj)}")
    return obj


def _require_int_list(obj: object, path: str, length=None, low=None) -> list[int]:
    obj = _require_list(obj, path, length)
    return [_require_int(v, f"{path}[{i}]", low) for i, v in enumerate(obj)]


def _require_keys(obj: object, path: str, keys: tuple[str, ...]) -> None:
    if not isinstance(obj, dict):
        raise SchemaViolation(path, f"expected an object, got {obj!r}")
    for key in keys:
        if key not in obj:
            raise SchemaViolation(f"{path}.{key}", "missing field")


def word_to_json(w: Word) -> dict:
    return {"m": w.m, "n": w.n, "letters": list(w.letters)}


def word_from_json(obj: object, path: str = "word") -> Word:
    _require_keys(obj, path, ("m", "n", "letters"))
    m = _require_int(obj["m"], f"{path}.m")
    n = _require_int(obj["n"], f"{path}.n")
    letters = _require_int_list(obj["letters"], f"{path}.letters", n)
    for i, letter in enumerate(letters):
        if not 0 <= letter < m:
            raise SchemaViolation(
                f"{path}.letters[{i}]", f"letter {letter} outside [0, {m})"
            )
    try:
        return Word(m, n, tuple(letters))
    except RatparkError as exc:
        raise SchemaViolation(path, str(exc)) from exc


def word_from_text(text: str, m: int, n: int | None = None) -> Word:
    """Parse a compact digit string (m <= 10 only) or comma-joined letters."""
    text = text.strip()
    if "," in text or "-" in text:
        try:
            letters = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise SchemaViolation("word", f"bad letter list {text!r}") from exc
    else:
        if m > 10:
            raise SchemaViolation(
                "word", f"digit-string words need m <= 10, got m={m}"
            )
        if not text.isdigit():
            raise SchemaViolation("word", f"bad digit string {text!r}")
        letters = tuple(int(ch) for ch in text)
    try:
        return Word(m, n if n is not None else len(letters), letters)
    except RatparkError as exc:
        raise SchemaViolation("word", str(exc)) from exc


def point_to_json(p: Point) -> dict:
    return {"m": p.m, "coords": list(p.coords)}


def point_from_json(obj: object, path: str = "point") -> Point:
    _require_keys(obj, path, ("m", "coords"))
    m = _require_int(obj["m"], f"{path}.m")
    coords = _require_int_list(obj["coords"], f"{path}.coords", m)
    try:
        return Point(tuple(coords))
    except RatparkError as exc:
        raise SchemaViolation(f"{path}.coords", str(exc)) from exc


def filter_to_json(f: Filter) -> dict:
    return {"m": f.m, "n": f.n, "row_minima": list(f.row_minima)}


def filter_from_json(obj: object, path: str = "filter") -> Filter:
    _require_keys(obj, path, ("m", "n", "row_minima"))
    m = _require_int(obj["m"], f"{path}.m")
    n = _require_int(obj["n"], f"{path}.n")
    minima = _require_int_list(obj["row_minima"], f"{path}.row_minima")
    try:
        return Filter(m, n, tuple(minima))
    except RatparkError as exc:
        raise SchemaViolation(f"{path}.row_minima", str(exc)) from exc


def tuple_to_json(t: FilterTuple) -> dict:
    return {
        "m": t.m,
        "n": t.n,
        "row_minima": list(t.initial.row_minima),
        "removals": list(t.removals),
    }


def tuple_from_json(obj: object, path: str = "tuple") -> FilterTuple:
    _require_keys(obj, path, ("m", "n", "row_minima", "removals"))
    initial = filter_from_json(
        {"m": obj["m"], "n": obj["n"], "row_minima": obj["row_minima"]}, path
    )
    removals = _require_int_list(obj["removals"], f"{path}.removals")
    try:
        return FilterTuple(initial, tuple(removals))
    except RatparkError as exc:
        raise SchemaViolation(f"{path}.removals", str(exc)) from exc


def window_to_json(w: AffinePermutation) -> dict:
    return {"n": w.n, "window": list(w.window)}


def window_from_json(obj: object, path: str = "affine") -> AffinePermutation:
    _require_keys(obj, path, ("n", "window"))
    n = _require_int(obj["n"], f"{path}.n")
    window = _require_int_list(obj["window"], f"{path}.window", n)
    try:
        return AffinePermutation(tuple(window))
    except RatparkError as exc:
        raise SchemaViolation(f"{path}.window", str(exc)) from exc


def window_from_text(text: str) -> AffinePermutation:
    try:
        window = tuple(int(part) for part in text.strip().split(","))
        return AffinePermutation(window)
    except RatparkError as exc:
        raise SchemaViolation("affine.window", str(exc)) from exc
    except ValueError as exc:
        raise SchemaViolation("affine.window", f"bad window {text!r}") from exc


def qt_table_to_json(t: QTTable) -> dict:
    return {
        "m": t.m,
        "n": t.n,
        "over": t.over,
        "counts": [list(row) for row in t.counts],
    }


def qt_table_from_json(obj: object, path: str = "qt_table") -> QTTable:
    _require_keys(obj, path, ("m", "n", "over", "counts"))
    m = _require_int(obj["m"], f"{path}.m", low=1)
    n = _require_int(obj["n"], f"{path}.n", low=1)
    if gcd(m, n) != 1:
        raise SchemaViolation(path, f"(m, n) must be coprime, got ({m}, {n})")
    over = obj["over"]
    if over not in ("parking", "dyck"):
        raise SchemaViolation(f"{path}.over", f"expected parking or dyck, got {over!r}")
    # a row per area value and a column per dinv value, 0 to (m-1)(n-1)/2
    side = (m - 1) * (n - 1) // 2 + 1
    rows = _require_list(obj["counts"], f"{path}.counts", side)
    counts = tuple(
        tuple(_require_int_list(row, f"{path}.counts[{i}]", side, low=0))
        for i, row in enumerate(rows)
    )
    return QTTable(m, n, over, counts)
