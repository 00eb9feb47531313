"""Hand-written black-box commits for the monitor tests.

A test writes a commit as ``(tid, session, events)``, the values read
and written and nothing else, as a black-box history has it.
:func:`observe` gives its reads their sources by value
(:func:`~repro.monitor.sourced_commits`, one attribution per monitor,
fed one commit at a time) and hands the sourced commit to the monitor.
"""

import weakref
from collections import deque

from repro.monitor import sourced_commits

_FEEDS = weakref.WeakKeyDictionary()


def observe(monitor, tid, session, events):
    """``monitor.observe_commit`` of the commit ``(tid, session,
    events)``, its sources attributed by value over every commit fed to
    ``monitor`` through here so far."""
    feed = _FEEDS.get(monitor)
    if feed is None:
        pending = deque()
        feed = _FEEDS[monitor] = (pending, sourced_commits(
            _drain(pending), monitor._initial
        ))
    pending, commits = feed
    pending.append((tid, session, events))
    return monitor.observe_commit(next(commits))


def _drain(pending):
    while True:
        yield pending.popleft()
