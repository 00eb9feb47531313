"""JSON serialisation of histories, programs and analysis verdicts.

The on-disk formats used by the command-line front-end
(:mod:`repro.io.cli`), chosen to be easy to emit from database logs or
schema descriptions:

History document::

    {
      "init": {"x": 0, "y": 0},            // optional initial values
      "sessions": [
        [ {"tid": "t1", "ops": [["read", "x", 0], ["write", "x", 1]]} ],
        [ {"tid": "t2", "ops": [["read", "x", 1]]} ]
      ]
    }

Programs document (for chopping / robustness)::

    {
      "programs": [
        {"name": "transfer",
         "pieces": [{"reads": ["acct1"], "writes": ["acct1"]},
                    {"reads": ["acct2"], "writes": ["acct2"]}]}
      ]
    }

Values are arbitrary JSON scalars; op kinds are ``"read"``/``"write"``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from ..chopping.programs import Piece, Program, piece
from ..core.errors import ReproError
from ..core.events import Op, OpKind, read as read_op, write as write_op
from ..core.histories import History, with_initialisation
from ..core.transactions import Transaction, transaction


class FormatError(ReproError):
    """The document does not match the expected JSON shape."""


INIT_TID = "t_init"


# ----------------------------------------------------------------------
# Histories
# ----------------------------------------------------------------------


def op_to_json(op: Op) -> List[Any]:
    """``read(x, 1)`` → ``["read", "x", 1]``."""
    return [op.kind.value, op.obj, op.value]


def op_from_json(data: Any) -> Op:
    """Inverse of :func:`op_to_json`."""
    try:
        kind, obj, value = data
    except (TypeError, ValueError):
        raise FormatError(f"operation must be [kind, obj, value]: {data!r}")
    if kind == OpKind.READ.value:
        return read_op(obj, value)
    if kind == OpKind.WRITE.value:
        return write_op(obj, value)
    raise FormatError(f"unknown operation kind {kind!r}")


def transaction_to_json(txn: Transaction) -> Dict[str, Any]:
    """Serialise one transaction."""
    return {"tid": txn.tid, "ops": [op_to_json(e.op) for e in txn.events]}


def transaction_from_json(data: Dict[str, Any]) -> Transaction:
    """Deserialise one transaction."""
    try:
        tid = data["tid"]
        ops = data["ops"]
    except (TypeError, KeyError):
        raise FormatError(
            f"transaction must have 'tid' and 'ops': {data!r}"
        )
    return transaction(tid, *(op_from_json(op) for op in ops))


def history_to_json(history: History) -> Dict[str, Any]:
    """Serialise a history (initialisation transaction included inline)."""
    return {
        "sessions": [
            [transaction_to_json(t) for t in session]
            for session in history.sessions
        ]
    }


def history_from_json(data: Dict[str, Any]) -> Tuple[History, Optional[str]]:
    """Deserialise a history document.

    Returns ``(history, init_tid)``.  When the document carries an
    ``"init"`` object map, an initialisation transaction with tid
    ``t_init`` is synthesised as its own first session and its tid
    returned; when a transaction named ``t_init`` already exists, that
    one is used; otherwise ``init_tid`` is ``None``.
    """
    if not isinstance(data, dict) or "sessions" not in data:
        raise FormatError("history document must have a 'sessions' list")
    sessions = [
        tuple(transaction_from_json(t) for t in session)
        for session in data["sessions"]
    ]
    h = History(tuple(sessions))
    init_values = data.get("init")
    if init_values:
        init = transaction(
            INIT_TID,
            *(write_op(obj, value) for obj, value in sorted(init_values.items())),
        )
        return with_initialisation(h, init), INIT_TID
    try:
        h.by_tid(INIT_TID)
        return h, INIT_TID
    except KeyError:
        return h, None


# ----------------------------------------------------------------------
# Dependency graphs
# ----------------------------------------------------------------------


def graph_to_json(graph) -> Dict[str, Any]:
    """Serialise a dependency graph: its history plus WR/WW edge lists
    per object (RW is derived, so not stored)."""
    def edges(per_obj):
        return {
            obj: sorted((a.tid, b.tid) for a, b in rel)
            for obj, rel in per_obj.items()
            if len(rel) > 0
        }

    return {
        "history": history_to_json(graph.history),
        "wr": edges(graph.wr),
        "ww": edges(graph.ww),
    }


def graph_from_json(data: Dict[str, Any]):
    """Deserialise a dependency graph (validated per Definition 6)."""
    from ..graphs.dependency import dependency_graph

    try:
        history_data = data["history"]
        wr_data = data["wr"]
        ww_data = data["ww"]
    except (TypeError, KeyError):
        raise FormatError(
            "graph document must have 'history', 'wr' and 'ww'"
        )
    h, _ = history_from_json(history_data)

    def resolve(edge_map):
        return {
            obj: [(h.by_tid(a), h.by_tid(b)) for a, b in pairs]
            for obj, pairs in edge_map.items()
        }

    try:
        return dependency_graph(
            h, resolve(wr_data), resolve(ww_data),
            transitively_close_ww=False,
        )
    except KeyError as exc:
        raise FormatError(f"edge mentions unknown transaction: {exc}")


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


def program_to_json(program: Program) -> Dict[str, Any]:
    """Serialise one program (read/write sets only)."""
    return {
        "name": program.name,
        "pieces": [
            {
                "reads": sorted(p.reads),
                "writes": sorted(p.writes),
                **({"label": p.label} if p.label else {}),
            }
            for p in program.pieces
        ],
    }


def program_from_json(data: Dict[str, Any]) -> Program:
    """Deserialise one program."""
    try:
        name = data["name"]
        pieces_data = data["pieces"]
    except (TypeError, KeyError):
        raise FormatError(f"program must have 'name' and 'pieces': {data!r}")
    pieces = [
        piece(
            p.get("reads", ()),
            p.get("writes", ()),
            label=p.get("label", ""),
        )
        for p in pieces_data
    ]
    return Program(name, tuple(pieces))


def programs_to_json(programs: List[Program]) -> Dict[str, Any]:
    """Serialise a programs document."""
    return {"programs": [program_to_json(p) for p in programs]}


def programs_from_json(data: Dict[str, Any]) -> List[Program]:
    """Deserialise a programs document."""
    if not isinstance(data, dict) or "programs" not in data:
        raise FormatError("programs document must have a 'programs' list")
    return [program_from_json(p) for p in data["programs"]]


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------


def load_history(path: str) -> Tuple[History, Optional[str]]:
    """Load a history document from a JSON file."""
    with open(path) as f:
        return history_from_json(json.load(f))


def load_programs(path: str) -> List[Program]:
    """Load a programs document from a JSON file."""
    with open(path) as f:
        return programs_from_json(json.load(f))


def dump_history(history: History, path: str) -> None:
    """Write a history document to a JSON file."""
    with open(path, "w") as f:
        json.dump(history_to_json(history), f, indent=2)


def dump_programs(programs: List[Program], path: str) -> None:
    """Write a programs document to a JSON file."""
    with open(path, "w") as f:
        json.dump(programs_to_json(programs), f, indent=2)
