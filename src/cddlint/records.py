"""Records: immutable tuples with named fields, for syntax nodes and results.

A record class names its fields in ``_fields``; its metaclass gives it empty
``__slots__`` and one read-only accessor per field, the one
``collections.namedtuple`` uses: a C descriptor, or a property where the C
one is missing. No code is generated, evaluated or read from
annotations per class, so defining one is cheap at import.

A record inherits ``tuple.__new__``: it is built from one tuple of all its
fields, in order, with no Python frame and no defaults, as
``Span((start, end, line, line))``. ``==`` is tuple equality, ``repr`` names
the fields, and ``_replace`` returns a copy with some fields changed.

A record class may also name, in ``_children``, the fields that hold other
records (or tuples of them); the metaclass turns the names into indices, so
a walk over a tree of records reads no field by name.
"""

from __future__ import annotations

from collections import _tuplegetter as _field


class RecordType(type):
    """Metaclass of records: adds ``__slots__ = ()``, the accessors, and
    ``_child_indices``, the positions of the fields ``_children`` names, in
    field order; naming a field the record lacks is a ValueError."""

    def __new__(mcls, name, bases, namespace):
        namespace["__slots__"] = ()
        fields = namespace.get("_fields", ())
        for index, field in enumerate(fields):
            namespace[field] = _field(index, f"Alias for field number {index}")
        namespace["_child_indices"] = tuple(sorted(map(fields.index,
                                                       namespace.get("_children", ()))))
        return super().__new__(mcls, name, bases, namespace)


class Record(tuple, metaclass=RecordType):
    _fields: tuple[str, ...] = ()
    _children: tuple[str, ...] = ()  # the fields that hold records, or tuples of them

    def __repr__(self) -> str:
        pairs = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({pairs})"

    def _replace(self, **changes) -> Record:
        record = type(self)(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return record
