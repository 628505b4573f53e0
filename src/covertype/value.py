"""The base class of the package's immutable value types, and the memo
that keeps a value's derived results on it."""

from __future__ import annotations

from functools import wraps


class Value:
    """An immutable record whose fields are its class's annotations.

    It keeps what a frozen dataclass gave: equality, hashing and repr
    over the fields in declaration order, ``==`` against an instance of
    any other class returns NotImplemented, the repr reads
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises AttributeError.  A subclass states each field once, as an
    annotation line, and a field's default is the value on that line
    (``bits: int = 0``).  The one __init__ binds positional and keyword
    arguments to the fields as a function call binds its parameters
    (a missing, unknown, duplicated or extra argument is a TypeError),
    stores them, and then calls ``_check``, where a subclass checks its
    fields.  There are no __slots__: per_complex keeps each derived
    result in the instance __dict__, beside the fields and outside
    equality and hashing.

    The package does not use the standard dataclass decorator because
    every CLI call is a fresh process: importing its module loads
    inspect, ast, dis and tokenize, and generating and compiling the
    methods of each class costs more again.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass's fields follow those it inherits
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        body = vars(cls)
        cls._defaults = {**cls._defaults, **{name: body[name] for name in own if name in body}}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{self._name()} takes {len(fields)} arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{self._name()} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{self._name()} got multiple values for argument {name!r}")
        values = {**self._defaults, **values, **kwargs}
        if len(values) < len(fields):
            missing = ", ".join(repr(name) for name in fields if name not in values)
            raise TypeError(f"{self._name()} missing required arguments: {missing}")
        vars(self).update(values)
        self._check()

    def _check(self) -> None:
        """Raise if the fields break the class's invariants."""

    def _name(self) -> str:
        return f"{self.__class__.__qualname__}()"

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable
    from typing import TypeVar

    V = TypeVar("V", bound=Value)
    T = TypeVar("T")


class CacheInfo(Value):
    """What per_complex's cache_info() reports of one memoized function."""

    hits: int
    misses: int


def per_complex(fn: Callable[[V], T]) -> Callable[[V], T]:
    """Run fn once per value object: the result is kept in the immutable
    value's own __dict__, so it is freed with the value, and an equal
    but distinct value computes its own.  This is the package's one
    memo: the invariants and incidence tables of each complex, its chain
    data, and the transpose and the reduction of each GF(2) matrix are
    kept this way.  The wrapper's ``key`` names the result in the
    value's __dict__, so a result known when the value is made can be
    stored there in advance.  Its ``cache_info()`` counts the calls
    that computed a result (``misses``) and those that found one kept
    (``hits``), over the process."""
    key = f"{fn.__module__}.{fn.__qualname__}"
    counts = [0, 0]  # hits, misses

    @wraps(fn)
    def once(value: V) -> T:
        memo = value.__dict__
        if key in memo:
            counts[0] += 1
            return memo[key]
        counts[1] += 1
        result = memo[key] = fn(value)
        return result

    once.key = key
    once.cache_info = lambda: CacheInfo(*counts)
    return once
