"""Hand-built commit and state payloads for the codec and recovery
tests.

:func:`forge_commit_payload` and :func:`forge_state_payload` write the
binary layouts of ``docs/WAL.md`` from explicit tables, always with the
widest formats, so a test can put into a frame what the encoder
refuses to write: a bad descriptor, a missing table entry, an unknown
tag, a name given twice.  They share no code with
:mod:`repro.wal.format`, so they also check that the decoder reads the
documented layout.
"""

import struct

WIDE_LAYOUT = 3 | 2 << 2 | 1 << 4
"""Layout byte: 8-byte ints, 4-byte string lengths, 4-byte counts."""


def forge_commit_payload(ints, strs, shape, floats=()):
    """A commit payload holding exactly these tables.

    ``ints`` starts with ``commit_ts``, ``snapshot`` and the number of
    extra tids and ends with the sources; ``strs`` starts with the tid,
    the session and the extra tids;
    ``shape`` is the tag bytes of the ops and their values.
    """
    lengths = [len(s) for s in strs]
    return b"".join((
        b"C",
        bytes([WIDE_LAYOUT]),
        struct.pack("<4I", len(ints), len(strs), len(floats), len(shape)),
        struct.pack(f"<{len(ints)}q{len(strs)}I{len(floats)}d",
                    *ints, *lengths, *floats),
        shape,
        "".join(strs).encode("utf-8", "surrogatepass"),
    ))


STATE_WIDE_LAYOUT = 3 | 2 << 2
"""State layout byte: 8-byte ints, 4-byte string lengths, NUL-joined
names, values tagged by a shape."""

STATE_ALL_INTS = 1 << 5
"""State layout bit: every value is an int, and there is no shape."""


def forge_state_payload(names, ints, strs=(), shape=b"", floats=(),
                        objects=None):
    """A state payload holding exactly these columns: the NUL-joined
    ``names`` (``objects`` of them unless given), then the value tables.
    With no ``shape`` the layout is the int-only one, where the i-th int
    is the i-th value.
    """
    layout = STATE_WIDE_LAYOUT | (0 if shape else STATE_ALL_INTS)
    name_bytes = "\0".join(names).encode("utf-8", "surrogatepass")
    lengths = [len(s) for s in strs]
    return b"".join((
        b"S",
        bytes([layout]),
        struct.pack("<6I", len(names) if objects is None else objects,
                    len(name_bytes), len(ints), len(strs), len(floats),
                    len(shape)),
        name_bytes,
        struct.pack(f"<{len(ints)}q{len(strs)}I{len(floats)}d",
                    *ints, *lengths, *floats),
        shape,
        "".join(strs).encode("utf-8", "surrogatepass"),
    ))
