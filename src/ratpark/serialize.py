"""JSON output schemas and compact text input forms for the domain types.

Schemas written:
    Word              {"m": int, "n": int, "letters": [int, ...]}
    Point             {"m": int, "coords": [int, ...]}
    AffinePermutation {"n": int, "window": [int, ...]}
    QTTable           {"m": int, "n": int, "over": str, "counts": [[int, ...], ...]}

Text read:
    Word              a compact ASCII digit string ("020101151") when m <= 10,
                      or comma-separated letters otherwise
    AffinePermutation comma-separated window entries ("3,-1,2,5,6")

A comma-separated entry is an optional "-" and ASCII digits, with ASCII
spaces around it.

Malformed text raises :class:`SchemaViolation` carrying the path of the
offending field.
"""

from __future__ import annotations

from .action import Point
from .affine import AffinePermutation
from .errors import RatparkError, SchemaViolation, _ascii_integer
from .tuples import QTTable
from .words import Word


def word_to_json(w: Word) -> dict:
    return {"m": w.m, "n": w.n, "letters": list(w.letters)}


def word_from_text(text: str, m: int, n: int) -> Word:
    """Parse a compact ASCII digit string (m <= 10 only) or comma-joined letters."""
    text = text.strip()
    if "," in text or "-" in text:
        letters = _ascii_integers(text, "word", "letter list")
    else:
        if m > 10:
            raise SchemaViolation(
                "word", f"digit-string words need m <= 10, got m={m}"
            )
        if not (text.isascii() and text.isdigit()):
            raise SchemaViolation("word", f"bad digit string {text!r}")
        letters = tuple(int(ch) for ch in text)
    try:
        return Word(m, n, letters)
    except RatparkError as exc:
        raise SchemaViolation("word", str(exc)) from exc


def point_to_json(p: Point) -> dict:
    return {"m": p.m, "coords": list(p.coords)}


def window_to_json(w: AffinePermutation) -> dict:
    return {"n": w.n, "window": list(w.window)}


def window_from_text(text: str) -> AffinePermutation:
    window = _ascii_integers(text.strip(), "affine.window", "window")
    try:
        return AffinePermutation(window)
    except RatparkError as exc:
        raise SchemaViolation("affine.window", str(exc)) from exc


def _ascii_integers(text: str, path: str, what: str) -> tuple[int, ...]:
    """The comma-separated integers of ``text``, each read by the rule of
    :func:`ratpark.errors._ascii_integer` once ASCII spaces are stripped."""
    values = [_ascii_integer(part.strip(" ")) for part in text.split(",")]
    if None in values:
        raise SchemaViolation(path, f"bad {what} {text!r}")
    return tuple(values)


def qt_table_to_json(t: QTTable) -> dict:
    return {
        "m": t.m,
        "n": t.n,
        "over": t.over,
        "counts": [list(row) for row in t.counts],
    }
