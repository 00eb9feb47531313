"""Hand-built commit payloads for the codec and recovery tests.

:func:`forge_commit_payload` writes the binary commit layout of
``docs/WAL.md`` from explicit tables, always with the widest formats,
so a test can put into a frame what the encoder refuses to write: a
bad descriptor, a missing table entry, an unknown tag.  It shares no
code with :mod:`repro.wal.format`, so it also checks that the decoder
reads the documented layout.
"""

import struct

WIDE_LAYOUT = 3 | 2 << 2 | 1 << 4
"""Layout byte: 8-byte ints, 4-byte string lengths, 4-byte counts."""


def forge_commit_payload(ints, strs, shape, floats=()):
    """A commit payload holding exactly these tables.

    ``ints`` starts with ``commit_ts``, ``snapshot`` and the number of
    extra tids; ``strs`` with the tid, the session and the extra tids;
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
