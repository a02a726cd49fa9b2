"""Exception hierarchy, value-type rules and record base shared by all
ratpark modules."""

from math import gcd
from operator import attrgetter


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
    keeps them in ``__slots__``.  From ``_fields`` the base derives, once per
    subclass, ``_values``, the getter of the field tuple (a 1-tuple for one
    field), and over it what ``@dataclass(frozen=True)`` would generate:
    equality only with the same class, the hash of the field tuple, the
    ``repr``, an ``__init__`` that takes each field once, by position or by
    name (else ``TypeError``), and pickling and copying by calling the class
    on the field tuple, which validates it again.  Assignment and deletion
    are refused.

    The five types that validate write an ``__init__`` that calls
    ``self.__post_init__()`` through the instance, where the benchmark's
    tracer and the tests that count validations patch it, and each keeps its
    trusted ``_of``: a generic loop over ``_fields`` cost the ``exhaustive``
    workload about 7 % of its words per second.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        # keywords fill the fields after the positional values, in order; a
        # keyword left over (repeated or unknown) or a wrong count is refused
        if kwargs:
            args += tuple(kwargs.pop(f) for f in fields[len(args) :] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__qualname__}() takes each of {fields} once")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


def _require_ints(values: tuple, error: type[RatparkError], what: str) -> None:
    """The integer rule of every value type: no floats, no bools, else ``error``."""
    if set(map(type, values)) != {int}:
        raise error(f"{what} not all integers: {values}")


def _require_sizes(m: int, n: int) -> None:
    """The one size gate: integers of at least 1, else :class:`LetterOutOfRange`."""
    _require_ints((m, n), LetterOutOfRange, "sizes")
    if m < 1 or n < 1:
        raise LetterOutOfRange(f"need m,n >= 1, got m={m} n={n}")


def _ascii_integer(text: str) -> int | None:
    """The integer rule of text input: an optional ``-`` and ASCII ``0-9``,
    else None.  ``int()`` alone would also read other scripts' digits,
    underscores, a ``+`` and padding."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


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
    """Text input rejected; ``path`` locates the offending field."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
