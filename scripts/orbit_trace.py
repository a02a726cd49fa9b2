#!/usr/bin/env python3
"""Trace the orbit of a word from the balanced staircase.

Usage: python scripts/orbit_trace.py --m 3 --n 5 --word 10011 [--steps 12]

Parking words with gcd(m, n) = 1 settle onto their unique fixed point;
non-parking words blow up, which shows in the norm column.  Exits 0 after
the trace, and 2 on a usage error or on input the library refuses.
"""

import argparse
import sys

from ratpark import RatparkError, apply_word, norm, staircase_point
from ratpark.cli import _integer
from ratpark.serialize import word_from_text


def _steps(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=_integer, required=True)
    parser.add_argument("--n", type=_integer, required=True)
    parser.add_argument("--word", required=True)
    parser.add_argument("--steps", type=_steps, default=12)
    args = parser.parse_args()

    try:
        w = word_from_text(args.word, args.m, args.n)
        x = staircase_point(args.m, args.n)
    except RatparkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"word {w}  start {x.coords}  norm {norm(x)}")
    for step in range(1, args.steps + 1):
        nxt = apply_word(x, w)
        marker = "  <- fixed" if nxt == x else ""
        print(f"{step:4d}  {nxt.coords}  norm {norm(nxt)}{marker}")
        if nxt == x:
            break
        x = nxt
    return 0


if __name__ == "__main__":
    sys.exit(main())
