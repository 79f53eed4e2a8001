"""Which rows writes changed: the database's change log.

A certified trace fact says "a row like this exists". Only a write that
removes such a row can make it false: a DELETE, or an UPDATE that gives
the row different values. So the backend's write path records the *old
image* of every row whose values it changes, and nothing else — an
INSERT falsifies no fact and a write that leaves every value as it was
(``UPDATE t SET c = c``) changes nothing. A session retires the facts
those images match (``repro.enforce.proxy``).

Reads take no lock, so the images are logged *before* the mutation can
be seen: a read that sees any of it finds ``seq`` moved. ``settled``
stays below a write's images until its mutation is complete, so a read
that overlapped the write — and may have certified a fact from a row the
write was about to change — re-checks that fact against them.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterator, Sequence
from contextlib import contextmanager

#: Row images the log retains. A session that has not swept since the
#: oldest retained one cannot tell which of its facts died, so it drops
#: them all (fail closed).
CHANGE_LOG_CAP = 4096


def changed(old: Sequence[object], new: Sequence[object]) -> bool:
    """Does ``new`` differ from ``old`` in some value — type included, so
    a ``1`` becoming ``True`` counts as a change?"""
    return old != new or any(type(a) is not type(b) for a, b in zip(old, new))


class ChangeLog:
    """One write sequence number and a bounded tail of changed row images.

    Every image gets the next sequence number; ``None`` for the relation
    is "anything may have changed" (a restore, or a commit by another
    connection to a shared file). ``seq`` and ``settled`` are read
    without the lock; every write whose images are numbered at most
    ``settled`` has finished mutating.
    """

    def __init__(self, cap: int = CHANGE_LOG_CAP):
        self.seq = 0
        self.settled = 0
        self._tail: deque[tuple[int, str | None, tuple | None]] = deque(maxlen=cap)
        #: ``seq`` just before the images of each write still mutating.
        self._open: list[int] = []
        self._lock = threading.Lock()

    @contextmanager
    def writing(
        self, relation: str | None, old_rows: Sequence[tuple] = ()
    ) -> Iterator[None]:
        """Log the old images of the rows of ``relation`` the write in the
        ``with`` body is about to change (``relation=None``: any row of
        any relation), and hold ``settled`` below them until it is done.
        """
        if relation is not None and not old_rows:
            yield
            return
        with self._lock:
            start = seq = self.seq
            if relation is None:
                seq += 1
                self._tail.append((seq, None, None))
            for row in old_rows:
                seq += 1
                self._tail.append((seq, relation, row))
            self._open.append(start)
            self.settled = min(self._open)
            self.seq = seq
        try:
            yield
        finally:
            with self._lock:
                self._open.remove(start)
                self.settled = min(self._open, default=self.seq)

    def record(self, relation: str | None, old_rows: Sequence[tuple] = ()) -> None:
        """Log rows a write changed where no reader could see the change
        before this call returns (SQLite: inside the backend's lock)."""
        with self.writing(relation, old_rows):
            pass

    def since(self, seq: int) -> tuple[int, list[tuple[str, tuple]] | None]:
        """``(current seq, the images logged after seq)``; ``None`` for
        the images when some are no longer retained or one is "anything"."""
        with self._lock:
            current = self.seq
            tail = self._tail
            if current == seq:
                return current, []
            if not tail or tail[0][0] > seq + 1:
                return current, None
            images = []
            for entry_seq, relation, row in reversed(tail):
                if entry_seq <= seq:
                    break
                if relation is None:
                    return current, None
                images.append((relation, row))
            return current, images
