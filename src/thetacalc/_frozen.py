"""Immutable value records over ``__slots__``, without ``dataclasses``.

The modules of the Verlinde path (``cyclotomic`` and ``verlinde``) build
their value types on this base rather than on ``dataclass(frozen=True)``:
importing ``dataclasses`` loads ``inspect`` and costs more than the rest of
that path's imports together.  A subclass lists its fields in
``__slots__`` and sets them in ``__init__`` with ``object.__setattr__``.
The base supplies field-wise ``==`` and ``hash``, a keyword ``repr`` and
pickling, and refuses assignment and deletion as a frozen dataclass does.
"""


class Frozen:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields()
