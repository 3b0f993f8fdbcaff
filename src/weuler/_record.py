"""Records: plain data classes whose annotated fields are their constructor's parameters.

A subclass of Record lists its fields as class annotations, in constructor
order; a field assigned in the class body has that value as its default.
A record equals another record of exactly its class whose compared fields
are equal: every field but those named by the class keyword `uncompared`.
Its repr names every field.  A FrozenRecord also hashes by its compared
fields and refuses assignment.  Every record class shares these methods,
so defining one runs no code made for it (dataclasses writes each class's
methods as source text and compiles them, and importing it loads inspect
and ast: together about 30 % of `import weuler.cli`).
"""

from __future__ import annotations


class Record:
    """A mutable record: compared, never hashed (see the module docstring)."""

    _fields = _compared = ()
    _defaults = {}

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        # since Python 3.10 a class's __annotations__ are its own, never a base's
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(name for name in cls._fields if name not in uncompared)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args), **kwargs)
        values = {**self._defaults, **given}
        # a positional argument too many or given again by keyword, an
        # unknown keyword, or a field left without a value
        if (len(given) != len(args) + len(kwargs) or given.keys() - set(fields)
                or len(values) != len(fields)):
            raise TypeError(f"{type(self).__name__}({', '.join(fields)}) cannot take"
                            f" {len(args)} positional arguments and keywords {sorted(kwargs)}")
        self.__dict__.update(values)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record that hashes by its compared fields and refuses assignment."""

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


def replace(record: Record, **changes) -> Record:
    """A record of the same class with the fields named in `changes` set to their values."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})
