"""Base of the package's immutable value classes.

A subclass lists its fields in ``__slots__``, in the order of its
``__init__`` parameters, and sets them with ``setfield`` in its own
``__init__``.  The base then gives what ``@dataclass(frozen=True)`` gave:
equality with instances of the same class alone, a matching hash,
``AttributeError`` on assignment and deletion, the repr
``Name(field=value, ...)``, and pickling and copying through
``__init__``.  ``Mat``, ``LinearCode``, ``WeightEnumerator`` and
``CheckResult``, which ``check`` and ``verify`` build and compare, define
their own ``__eq__`` and ``__hash__`` over a tuple of their fields, as
the dataclass did: about twice as fast as the generic lookup here.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
