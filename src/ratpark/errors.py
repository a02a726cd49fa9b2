"""Exception hierarchy, value-type rules and record base shared by all
ratpark modules."""

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


class _Record:
    """Base of the frozen value types, a frozen dataclass without the
    ``dataclasses`` import.

    A subclass names its fields in ``_fields``, in constructor order, and
    keeps them in ``__slots__``.  It writes its ``__init__``, which sets the
    fields with ``object.__setattr__`` and then, if the type validates, calls
    ``self.__post_init__()`` through the class; and its ``__eq__`` (same class,
    equal field tuples) and ``__hash__`` (the hash of the field tuple) over
    exactly ``_fields``, as ``@dataclass(frozen=True)`` would generate them.
    The base adds the dataclass ``repr``, refuses assignment and deletion,
    and pickles and copies a record by calling its class on its fields,
    which validates them again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


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
