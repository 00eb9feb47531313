"""Transactions (Definition 1) and the derived read/write judgements of §2.

A transaction is a pair ``(E, po)`` of a finite, non-empty set of events and
a total *program order* over them.  We represent the pair as a tuple of
events, whose positional order *is* the program order; event identifiers are
their indices.  Transactions are identified by a ``tid`` string — two
transaction objects are equal iff their tids are equal, matching the paper's
convention that a history is a *set* of transactions (occurrences are
distinguished even when they perform the same operations).

The module also implements the judgements used by the axioms:

* ``T ⊢ write(x, n)`` — ``T`` writes to ``x`` and the *last* value written
  is ``n`` (:meth:`Transaction.final_write`);
* ``T ⊢ read(x, n)``  — ``T`` reads ``x`` *before* writing to it, and ``n``
  is the value returned by the first such read
  (:meth:`Transaction.external_read`);
* the internal consistency axiom INT (:func:`check_internal_consistency`).

The first two are a function of the operation sequence alone, its
*footprint*, computed in one pass by :func:`footprint`.  Transactions,
the engines' commit records and the online monitor all take them from
there; :func:`final_writes` is its write half, for callers (log replay)
that need nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import InternalConsistencyError
from .events import Event, Obj, Op, OpKind, Value, read, write

_WRITE = OpKind.WRITE

Footprint = Tuple[Dict[Obj, Value], Dict[Obj, Value]]
"""``(external_reads, final_writes)``: object → value maps of the
``T ⊢ read(x, n)`` and ``T ⊢ write(x, n)`` judgements."""


def footprint(ops: Iterable[Op]) -> Footprint:
    """The external reads and final writes of an operation sequence.

    ``external_reads[x] == n`` iff the first operation on ``x`` is
    ``read(x, n)``; ``final_writes[x] == n`` iff the last write to ``x``
    writes ``n``.  Each map keeps its objects in the order of their first
    read or first write.
    """
    reads: Dict[Obj, Value] = {}
    writes: Dict[Obj, Value] = {}
    for op in ops:
        obj = op.obj
        if op.kind is _WRITE:
            writes[obj] = op.value
        elif obj not in writes and obj not in reads:
            reads[obj] = op.value
    return reads, writes


def final_writes(ops: Iterable[Op]) -> Dict[Obj, Value]:
    """The write half of :func:`footprint`, without the reads."""
    writes: Dict[Obj, Value] = {}
    for op in ops:
        if op.kind is _WRITE:
            writes[op.obj] = op.value
    return writes


@dataclass(frozen=True)
class Transaction:
    """A transaction: an identifier plus a program-ordered event sequence.

    Attributes:
        tid: the transaction identifier; determines equality and hashing.
        events: the events in program order.  Event ``eid``s are expected to
            equal their index (use :func:`transaction` to guarantee this).
    """

    tid: str
    events: Tuple[Event, ...] = field(compare=False)

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError(f"transaction {self.tid!r} must be non-empty")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        ops = "; ".join(str(e.op) for e in self.events)
        return f"Transaction({self.tid!r}: {ops})"

    @property
    def objects(self) -> FrozenSet[Obj]:
        """All objects accessed (read or written) by the transaction."""
        return frozenset(e.obj for e in self.events)

    @property
    def read_objects(self) -> FrozenSet[Obj]:
        """Objects with at least one read event."""
        return frozenset(e.obj for e in self.events if e.is_read)

    @property
    def written_objects(self) -> FrozenSet[Obj]:
        """Objects with at least one write event.

        This is the paper's ``{x | T ∈ WriteTx_x}``.
        """
        return frozenset(self._footprint[1])

    def events_on(self, obj: Obj) -> List[Event]:
        """The events on ``obj`` in program order."""
        return [e for e in self.events if e.obj == obj]

    # ------------------------------------------------------------------
    # Judgements of §2
    # ------------------------------------------------------------------

    @cached_property
    def _footprint(self) -> Footprint:
        return footprint(e.op for e in self.events)

    def writes(self, obj: Obj) -> bool:
        """True iff the transaction writes to ``obj`` (``T ∈ WriteTx_obj``)."""
        return obj in self._footprint[1]

    def final_write(self, obj: Obj) -> Optional[Value]:
        """The value ``n`` with ``T ⊢ write(obj, n)``: the last value the
        transaction writes to ``obj``; ``None`` if it never writes ``obj``."""
        return self._footprint[1].get(obj)

    def external_read(self, obj: Obj) -> Optional[Value]:
        """The value ``n`` with ``T ⊢ read(obj, n)``.

        Defined iff the *first* event of the transaction on ``obj`` is a
        read; the value of that read is returned.  Such reads are the ones
        whose values are constrained externally (axiom EXT); later reads are
        governed by INT.  Returns ``None`` when undefined.
        """
        return self._footprint[0].get(obj)

    def reads_externally(self, obj: Obj) -> bool:
        """True iff ``T ⊢ read(obj, _)`` is defined."""
        return obj in self._footprint[0]

    @property
    def external_read_objects(self) -> FrozenSet[Obj]:
        """Objects ``x`` with ``T ⊢ read(x, _)`` defined."""
        return frozenset(self._footprint[0])

    # ------------------------------------------------------------------
    # Internal consistency (axiom INT)
    # ------------------------------------------------------------------

    def internal_violations(self) -> List[str]:
        """Describe all violations of the INT axiom within this transaction.

        INT: a read event on ``x`` that is preceded in program order by
        another event on ``x`` must return the value of the *last* such
        preceding event (the value written, for a write; the value read,
        for a read).
        """
        violations: List[str] = []
        last_value: Dict[Obj, Value] = {}
        for e in self.events:
            if e.is_read and e.obj in last_value:
                expected = last_value[e.obj]
                if e.value != expected:
                    violations.append(
                        f"{self.tid}: event {e} should return "
                        f"{expected!r} (last preceding access to {e.obj})"
                    )
            last_value[e.obj] = e.value
        return violations

    def is_internally_consistent(self) -> bool:
        """True iff the transaction satisfies INT."""
        return not self.internal_violations()


def transaction(tid: str, *ops: Op) -> Transaction:
    """Build a transaction from operation labels, assigning event ids.

    Example::

        t1 = transaction("t1", read("acct", 0), write("acct", 50))
    """
    events = tuple(Event(i, op) for i, op in enumerate(ops))
    return Transaction(tid, events)


def read_only(tid: str, reads: Iterable[Tuple[Obj, Value]]) -> Transaction:
    """Build a transaction consisting only of reads."""
    return transaction(tid, *(read(x, n) for x, n in reads))


def write_only(tid: str, writes: Iterable[Tuple[Obj, Value]]) -> Transaction:
    """Build a transaction consisting only of writes."""
    return transaction(tid, *(write(x, n) for x, n in writes))


def initialisation_transaction(
    objects: Iterable[Obj], value: Value = 0, tid: str = "t_init"
) -> Transaction:
    """The special transaction writing initial versions of all objects.

    The paper's figures omit it; Definition 4's discussion introduces it so
    that the set of visible writers in EXT is never empty.  We make it an
    explicit, ordinary transaction.
    """
    objs = sorted(set(objects))
    if not objs:
        raise ValueError("initialisation transaction needs at least one object")
    return transaction(tid, *(write(x, value) for x in objs))


def check_internal_consistency(transactions: Iterable[Transaction]) -> None:
    """Raise :class:`InternalConsistencyError` if any transaction in the
    collection violates INT (the paper's ``T ⊨ INT``)."""
    violations: List[str] = []
    for t in transactions:
        violations.extend(t.internal_violations())
    if violations:
        raise InternalConsistencyError("; ".join(violations))


def all_internally_consistent(transactions: Iterable[Transaction]) -> bool:
    """True iff every transaction satisfies INT (``T ⊨ INT``)."""
    return all(t.is_internally_consistent() for t in transactions)
