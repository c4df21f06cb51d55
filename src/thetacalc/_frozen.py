"""Immutable value records over ``__slots__``, the base of every record in the package.

A subclass lists its fields in ``__slots__``; a subclass of a record
inherits the record's fields and adds its own, often none.  The base
binds positional and keyword arguments to them, raising TypeError on a
missing, unknown or repeated field, then calls the subclass's
``_validate`` hook.  It supplies field-wise ``==`` and ``hash``, a
keyword ``repr`` and pickling, and refuses assignment and deletion.
Generating these methods per class at import time, as the standard
library's frozen record decorator does, loads ``inspect`` and costs more
than the rest of a query's imports together.  A record built in a hot
loop may define its own ``__init__`` that sets the fields with
``object.__setattr__``.
"""


class Frozen:
    __slots__ = ()
    _names: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._names = cls._names + tuple(vars(cls).get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        names = self._names
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values]
        if missing:
            raise TypeError(f"{cls}() missing arguments: {', '.join(missing)}")
        for name in names:
            object.__setattr__(self, name, values[name])
        self._validate()

    def _validate(self) -> None:
        """Check the bound fields; a subclass raises DomainError here."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._names)

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
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._names)
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._fields()
