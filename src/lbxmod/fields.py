"""Exact scalar fields: the rationals and prime fields.

Every linear-algebra and algebra routine in this package is generic over a
*field object* that knows how to build, combine and serialize its scalars.
Rationals are plain ``fractions.Fraction`` values; prime-field scalars are
``FpElement`` instances that refuse to mix with anything else.  The module
also holds ``record``, which every module's value classes are built with,
and the one rule they all hash by (``_frozen``).
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Any, Union

#: prime fields are supported for p < 2^31; trial division stays cheap below it
MAX_PRIME = 2**31
# the scalar forms the input format documents, in ASCII digits: residues "[-]a",
# rationals "[-]a" and "[-]a/b"; int() and Fraction() alone would also read
# "1_0", " 5", "+5" and other scripts' digits, and Fraction() "1e5000" and "1.5".
# Only the JSON readers parse scalars, so ``re.fullmatch`` compiles these
# patterns on first use and keeps them in its own cache
_INTEGER = r"-?[0-9]+"
_RATIONAL = rf"{_INTEGER}(?:/[0-9]+)?"


class InputDataError(ValueError):
    """Malformed external data (bad JSON shapes, unknown tags, bad scalars)."""


class FrozenRecordError(AttributeError):
    """An assignment to, or deletion of, an attribute of a ``record``."""


def _refuse(obj, name: str, *value) -> None:
    raise FrozenRecordError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


_EMPTY = frozenset()  # one key for every empty vector: most vectors of a sparse tensor are empty


def _frozen(value):
    """A hashable key of a field value: a dict becomes the frozenset of its
    items, a tuple the tuple of its parts' keys.  Equal values give equal keys."""
    if isinstance(value, dict):
        return frozenset(value.items()) if value else _EMPTY
    if isinstance(value, tuple):
        return tuple(map(_frozen, value))
    return value


def record(cls: type) -> type:
    """Give cls the methods ``dataclass(frozen=True)`` would give it on the
    fields it annotates, but for those cls defines itself.  They are closures,
    not compiled source, which keeps a module of records cheap to import.
    A record hashes the ``_frozen`` key of its fields once, as the memos keyed
    on records hash them on every lookup, and caches it in ``__dict__["_hash"]``,
    which it pickles without: ``str`` hashes (as in ``names``) differ between processes."""
    names = tuple(cls.__annotations__)
    n, numbered, post, put = len(names), tuple(enumerate(names)), hasattr(cls, "__post_init__"), object.__setattr__
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    tail = tuple(defaults.values())  # the defaults of the last fields, as in a dataclass
    key = attrgetter(*names) if n > 1 else lambda obj, get=attrgetter(*names): (get(obj),)

    def bind(args: tuple, kwargs: dict) -> tuple:
        """The field values of a call, bound as a signature (names, defaults) would bind them."""
        if not kwargs and n - len(tail) <= len(args) < n:  # the rest from the trailing defaults
            return args + tail[len(args) - n:]
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > n or len(values) < n or kwargs and not kwargs.keys() <= set(names[len(args):]):
            raise TypeError(f"{cls.__qualname__}() takes each of {', '.join(names)} once; got "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword")
        return tuple(map(values.__getitem__, names))

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for i, name in numbered:  # cheaper than zipping names with args
            put(self, name, args[i])
        if post:
            self.__post_init__()

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(tuple(map(_frozen, key(self))))
        return cached

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in zip(names, key(self)))})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__getstate__": lambda self: {k: v for k, v in vars(self).items() if k != "_hash"},
               "__setattr__": _refuse, "__delattr__": _refuse, "__match_args__": names}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def replace(obj, **changes):
    """A copy of a record with the given fields changed, built by its class
    as ``dataclasses.replace`` does, so any ``__post_init__`` runs again."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj.__match_args__}, **changes})


@record
class FpElement:
    """A residue in Z/p for a prime p."""

    value: int
    p: int

    def __init__(self, value: int, p: int) -> None:  # by hand: every F_p operation builds one
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "p", p)

    def _check(self, other: "FpElement") -> None:
        if not isinstance(other, FpElement) or other.p != self.p:
            raise TypeError(f"cannot mix F{self.p} scalars with {other!r}")

    def __add__(self, other: Any) -> "FpElement":
        if not isinstance(other, FpElement):
            return NotImplemented
        self._check(other)
        return FpElement((self.value + other.value) % self.p, self.p)

    def __sub__(self, other: Any) -> "FpElement":
        if not isinstance(other, FpElement):
            return NotImplemented
        self._check(other)
        return FpElement((self.value - other.value) % self.p, self.p)

    def __mul__(self, other: Any) -> "FpElement":
        if not isinstance(other, FpElement):
            return NotImplemented
        self._check(other)
        return FpElement((self.value * other.value) % self.p, self.p)

    def __truediv__(self, other: Any) -> "FpElement":
        if not isinstance(other, FpElement):
            return NotImplemented
        self._check(other)
        if other.value % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F{self.p}")
        inv = pow(other.value, -1, self.p)
        return FpElement((self.value * inv) % self.p, self.p)

    def __neg__(self) -> "FpElement":
        return FpElement((-self.value) % self.p, self.p)

    def __bool__(self) -> bool:
        return self.value % self.p != 0

    def __repr__(self) -> str:
        return f"{self.value}:F{self.p}"


Scalar = Union[Fraction, FpElement]


class Rationals:
    """The field Q.  Scalars are ``fractions.Fraction``."""

    tag = "q"
    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, v: Any) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into Q")

    def parse_scalar(self, v: Any) -> Fraction:
        # accept "a/b" / "a" strings and plain JSON ints
        if isinstance(v, bool):
            raise InputDataError(f"bad rational scalar {v!r}")
        if isinstance(v, int):
            return Fraction(v)
        if isinstance(v, str) and re.fullmatch(_RATIONAL, v):
            num, _, den = v.partition("/")  # int() is cheaper than Fraction's own parser
            try:
                return Fraction(int(num), int(den)) if den else Fraction(int(num))
            except (ValueError, ZeroDivisionError) as exc:
                raise InputDataError(f"bad rational scalar {v!r}") from exc
        raise InputDataError(f"bad rational scalar {v!r}")

    def scalar_to_json(self, x: Fraction) -> str:
        return str(x)

    def __repr__(self) -> str:
        return "Q"

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Rationals)

    def __hash__(self) -> int:
        return hash("rationals")


@record
class PrimeField:
    """The field Z/p for a prime p < 2^31.  Scalars are ``FpElement``."""

    p: int

    def __post_init__(self) -> None:
        if self.p >= MAX_PRIME:
            raise InputDataError(f"F{self.p} is not supported: p must be below 2^31")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):
            raise InputDataError(f"{self.p} is not prime")

    @property
    def tag(self) -> str:
        return f"f{self.p}"

    @property
    def characteristic(self) -> int:
        return self.p

    @cached_property
    def zero(self) -> FpElement:
        return FpElement(0, self.p)

    @cached_property
    def one(self) -> FpElement:
        return FpElement(1, self.p)

    def coerce(self, v: Any) -> FpElement:
        if isinstance(v, FpElement):
            if v.p != self.p:
                raise TypeError(f"cannot coerce {v!r} into F{self.p}")
            return v
        if isinstance(v, int):
            return FpElement(v % self.p, self.p)
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise InputDataError(f"{v} has no image in F{self.p}")
            num = FpElement(v.numerator % self.p, self.p)
            den = FpElement(v.denominator % self.p, self.p)
            return num / den
        raise TypeError(f"cannot coerce {v!r} into F{self.p}")

    def parse_scalar(self, v: Any) -> FpElement:
        if isinstance(v, bool):
            raise InputDataError(f"bad F{self.p} scalar {v!r}")
        if isinstance(v, int):
            return FpElement(v % self.p, self.p)
        if isinstance(v, str) and re.fullmatch(_INTEGER, v):
            try:
                return FpElement(int(v) % self.p, self.p)
            except ValueError as exc:  # more digits than int() converts
                raise InputDataError(f"bad F{self.p} scalar {v!r}") from exc
        raise InputDataError(f"bad F{self.p} scalar {v!r}")

    def scalar_to_json(self, x: FpElement) -> int:
        return x.value % self.p

    def __repr__(self) -> str:
        return f"F{self.p}"


QQ = Rationals()
GF2 = PrimeField(2)
GF3 = PrimeField(3)

Field = Union[Rationals, PrimeField]

_BUILTIN = {"q": QQ, "f2": GF2, "f3": GF3}


def get_field(tag: str) -> Field:
    """Look up a field by tag: "q" or "f<p>" for a prime p < 2^31."""
    t = tag.strip().lower()
    if t in _BUILTIN:
        return _BUILTIN[t]
    digits = t[1:]
    if t.startswith("f") and digits.isascii() and digits.isdigit():
        if len(digits.lstrip("0")) > len(str(MAX_PRIME)):
            raise InputDataError(f"field tag {tag!r}: p must be below 2^31")
        return PrimeField(int(digits))
    raise InputDataError(f"unknown field tag {tag!r}")
