"""Events and operations (Definition 1 of the paper).

The paper models a transaction as a finite set of *events*, each labelled by
an operation ``read(x, n)`` or ``write(x, n)`` over an object ``x`` (drawn
from a set Obj) and an integer value ``n``.  We follow that model literally:

* :class:`Op` is the operation label — kind, object and value;
* :class:`Event` is an occurrence of an operation inside a transaction,
  distinguished from other occurrences by an event identifier.

Objects are arbitrary strings (the paper uses names such as ``acct1``) and
values are arbitrary hashable Python objects, with integers used throughout
the examples to match the paper.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

Obj = str
"""Type alias for object (key) names; the paper's set Obj."""

Value = Hashable
"""Type alias for the values stored in objects; the paper uses integers."""


class OpKind(enum.Enum):
    """The two kinds of primitive operations a transaction performs."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Op:
    """An operation label ``read(x, n)`` or ``write(x, n)``.

    Immutable by contract, not enforced: an op is hashed, shared between
    records and logged, so nothing assigns to its fields after
    construction.  It is a plain slotted class rather than a frozen
    dataclass because one is built for every read, write and decoded
    log entry; equality, hashing and ``repr`` are the dataclass ones.

    Attributes:
        kind: whether the operation is a read or a write.
        obj: the object (key) the operation touches.
        value: the value read or written.
    """

    __slots__ = ("kind", "obj", "value")

    kind: OpKind
    obj: Obj
    value: Value

    def __init__(self, kind: OpKind, obj: Obj, value: Value):
        self.kind = kind
        self.obj = obj
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.kind, self.obj, self.value) == (
                other.kind, other.obj, other.value
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.obj, self.value))

    def __repr__(self) -> str:
        return (
            f"{self.__class__.__qualname__}(kind={self.kind!r}, "
            f"obj={self.obj!r}, value={self.value!r})"
        )

    @property
    def is_read(self) -> bool:
        """True iff this is a ``read(x, n)`` operation."""
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        """True iff this is a ``write(x, n)`` operation."""
        return self.kind is OpKind.WRITE

    def __str__(self) -> str:
        return f"{self.kind}({self.obj}, {self.value!r})"


def read(obj: Obj, value: Value) -> Op:
    """Construct a ``read(x, n)`` operation label."""
    return Op(OpKind.READ, obj, value)


def write(obj: Obj, value: Value) -> Op:
    """Construct a ``write(x, n)`` operation label."""
    return Op(OpKind.WRITE, obj, value)


@dataclass(frozen=True)
class Event:
    """An event: a single occurrence of an operation inside a transaction.

    Two events with the same operation are distinct occurrences if their
    identifiers differ, mirroring the paper's treatment of ``E`` as a set of
    events with an operation labelling function ``op``.

    Attributes:
        eid: event identifier, unique within the enclosing transaction.
        op: the operation label of this event (compare-excluded so that
            identity is determined by ``eid`` alone within a transaction;
            equality across transactions is never needed because events are
            always considered relative to their transaction).
    """

    eid: int
    op: Op = field(compare=True)

    @property
    def is_read(self) -> bool:
        """True iff the event's operation is a read."""
        return self.op.is_read

    @property
    def is_write(self) -> bool:
        """True iff the event's operation is a write."""
        return self.op.is_write

    @property
    def obj(self) -> Obj:
        """The object the event operates on."""
        return self.op.obj

    @property
    def value(self) -> Value:
        """The value read or written by the event."""
        return self.op.value

    def __str__(self) -> str:
        return f"e{self.eid}:{self.op}"
