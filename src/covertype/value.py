"""The base class of the package's immutable value types."""

from __future__ import annotations


class Value:
    """An immutable record whose fields are its class's annotations.

    It keeps what a frozen dataclass gave: equality, hashing and repr
    over the fields in declaration order, ``==`` against an instance of
    any other class returns NotImplemented, the repr reads
    ``Name(field=value, ...)``, and assigning or deleting an attribute
    raises AttributeError.  Each subclass writes a plain __init__ that
    stores its fields with ``vars(self).update(...)`` and then checks
    them.  There are no __slots__: cached_property and per_complex keep
    their values in the instance __dict__, beside the fields and
    outside equality and hashing.

    The package does not use the standard dataclass decorator because
    every CLI call is a fresh process: importing its module loads
    inspect, ast, dis and tokenize, and generating and compiling the
    methods of each class costs more again.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a subclass's fields follow those it inherits
        cls._fields = cls._fields + tuple(cls.__annotations__)

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
