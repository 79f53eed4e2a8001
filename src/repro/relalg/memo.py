"""Memoization for the containment core.

The compliance checker's miss path validates each rewriting candidate
by equivalence, i.e. two containment tests. This module provides the
memo of those tests, and the canonical form policies are compared by:

* **A bounded LRU memo** — :class:`LRUMemo` is a thread-safe
  least-recently-used map with hit/miss/eviction counters, sized so a
  long-lived gateway cannot grow without bound. The one shared instance,
  :data:`CONTAINMENT_MEMO`, is process-global and keyed on the
  ``(q1, q2)`` pair itself (``repro.relalg.containment``): ``CQ`` is a
  frozen dataclass with value equality, so a hit replays a computation
  on identical inputs. It is not keyed on canonical forms: on the miss
  stream it hit 0 of 2 808 lookups, and canonicalizing both sides of
  each lookup cost about a tenth of a miss (docs/performance.md,
  Mechanism 2). It stays only while the benchmark reads its counters,
  and leaves with ROADMAP item 2.

* **Canonicalization** — :func:`canonical_form` renames a CQ's variables
  to position-stable names (``~0``, ``~1``, ...) in order of first
  occurrence and strips the semantically-inert ``name``/``head_names``
  fields, so alpha-equivalent queries share one canonical form.
  Constants are *not* abstracted. ``Policy.canonical_views`` renders
  views through it, so that a reload can tell which views it kept.

Memoization is soundness-neutral by construction: the key is every
input ``cq_contained_in`` reads, so a hit replays a value the
unmemoized code would have recomputed identically.
``set_memoization(False)`` restores that computation path exactly —
``tests/relalg/test_memo.py`` uses this for its memoized-vs-unmemoized
agreement checks, and the benchmark's reference for its judgements.

The rewriting search itself (per-view descriptors, the per-query
constraint closure) is not memoized: a query checked in full is one no
decision template answered, and such a query rarely recurs, so memos of
the search recorded no hits on any in-process benchmark stream
(EXPERIMENTS.md E39). Within one check the search reuses what it built:
one closure per query (docs/performance.md, "One check, one closure").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace

from repro.relalg.cq import CQ, Var

#: Prefix for canonical variable names. The SQL translator produces
#: ``Table.Column``-style names and the rewriting engine ``rw...`` names;
#: neither starts with ``~``, so canonical names never collide with real
#: query variables.
_CANON_PREFIX = "~"

#: Sentinel returned by :meth:`LRUMemo.get` on a miss. A sentinel (rather
#: than ``None``) lets memos store falsy values like ``False`` — the common
#: case for containment results.
MISSING = object()


class LRUMemo:
    """A bounded, thread-safe LRU cache with observability counters."""

    def __init__(self, name: str, maxsize: int):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.name = name
        self.maxsize = maxsize
        self._data: OrderedDict[object, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: object) -> object:
        """The cached value for ``key``, or :data:`MISSING`."""
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is MISSING:
                self.misses += 1
                return MISSING
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: object, value: object) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
            }


#: ``cq_contained_in`` results keyed by the pair ``(q1, q2)``.
CONTAINMENT_MEMO = LRUMemo("containment", maxsize=8192)

_enabled = True


def memoization_enabled() -> bool:
    return _enabled


def set_memoization(enabled: bool) -> bool:
    """Enable/disable the memoized path; returns the previous setting.

    With memoization off, ``cq_contained_in`` runs unmemoized — the
    reference behavior ``tests/relalg/test_memo.py`` compares against.
    """
    global _enabled
    previous = _enabled
    _enabled = enabled
    return previous


def clear_memos() -> None:
    CONTAINMENT_MEMO.clear()


def reset_memo_stats() -> None:
    CONTAINMENT_MEMO.reset_stats()


def memo_stats() -> dict[str, int]:
    """Flat counter dict suitable for merging into gateway metrics."""
    memo = CONTAINMENT_MEMO
    return {f"{memo.name}_{key}": value for key, value in memo.stats().items()}


# --------------------------------------------------------------------------
# Canonicalization
# --------------------------------------------------------------------------


def canonical_form(cq: CQ) -> tuple[CQ, dict[Var, Var]]:
    """``(canonical CQ, inverse renaming)`` for ``cq``.

    Variables are renamed to ``~0``, ``~1``, ... in order of first
    occurrence (head, then body atoms, then comparisons); ``name`` and
    ``head_names`` are stripped, since a view's identity does not read
    them. The inverse map sends canonical variables back to the
    originals.
    """
    mapping: dict[Var, Var] = {}

    def visit(term: object) -> None:
        if isinstance(term, Var) and term not in mapping:
            mapping[term] = Var(f"{_CANON_PREFIX}{len(mapping)}")

    for term in cq.head:
        visit(term)
    for atom in cq.body:
        for arg in atom.args:
            visit(arg)
    for comp in cq.comps:
        visit(comp.left)
        visit(comp.right)
    canonical = replace(cq.substitute(mapping), head_names=(), name=None)
    inverse = {canon: original for original, canon in mapping.items()}
    return canonical, inverse
