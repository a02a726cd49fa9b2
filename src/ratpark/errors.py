"""Exception hierarchy shared by all ratpark modules."""

from math import gcd


class RatparkError(Exception):
    """Base class for all library errors."""


class NotAParkingWord(RatparkError):
    pass


class LetterOutOfRange(RatparkError):
    pass


class DimensionMismatch(RatparkError):
    pass


class NotCoprime(RatparkError):
    pass


def _require_ints(values: tuple, error: type[RatparkError], what: str) -> None:
    """The integer rule of every value type: no floats, no bools, else ``error``."""
    if set(map(type, values)) != {int}:
        raise error(f"{what} not all integers: {values}")


def _require_sizes(m: int, n: int) -> None:
    """The one size gate: integers of at least 1, else :class:`LetterOutOfRange`."""
    _require_ints((m, n), LetterOutOfRange, "sizes")
    if m < 1 or n < 1:
        raise LetterOutOfRange(f"need m,n >= 1, got m={m} n={n}")


def require_coprime(m: int, n: int, what: str) -> None:
    """Raise :class:`NotCoprime` naming ``what`` unless gcd(m, n) = 1, after
    the size gate that ``Word`` passes too (gcd(0, 1) = 1 is no pass)."""
    _require_sizes(m, n)
    if gcd(m, n) != 1:
        raise NotCoprime(f"{what}: (m, n) must be coprime, got ({m}, {n})")


class NotDyck(RatparkError):
    pass


class NotDominant(RatparkError):
    pass


class NotInSommers(RatparkError):
    pass


class LevelNotRemovable(RatparkError):
    pass


class InvalidBudget(RatparkError):
    """An iteration budget that is not a positive integer."""


class IterationBudgetExhausted(RatparkError):
    """The orbit solver ran out of word applications before resolving."""


class InternalInconsistency(RatparkError):
    """A guaranteed invariant failed; carries a witness when available.

    Raised, for example, when the orbit of a coprime parking word from the
    staircase closes into a cycle of period greater than one, which the
    theory rules out.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SchemaViolation(RatparkError):
    """JSON input rejected; ``path`` locates the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
