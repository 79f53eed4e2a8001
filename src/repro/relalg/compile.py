"""Epoch-time policy compilation (the relalg layer of the compiled checker).

A :class:`CompiledPolicy` is built **once per policy epoch** (see
``repro.serve.gateway.PolicyEpoch``) and consumed by every checker that
serves that epoch. It front-loads the per-check work the seed checker
redid on every miss:

* each conjunctive view becomes a :class:`CompiledView` — its relation
  set, parameter names, and symbolic body pre-extracted, so check-time
  code never walks the view AST again;
* a flattened ``relation -> view indexes`` dispatch table replaces the
  "scan every view" loops (`relevant_relations` walks precomputed
  frozensets instead of recomputing ``view.cq.relations()`` per check);
* instantiated ``ViewDef`` lists are memoized per bindings tuple — the
  common serving shape is a handful of distinct principals issuing many
  statements each, so instantiation (a full substitution walk over every
  view body, and the one renaming of each view into its own variable
  namespace, :class:`~repro.relalg.rewrite.ViewDef`) collapses to one
  dict probe;
* the policy's structural constants and content fingerprint are computed
  once and shared.

Everything here is *immutable after construction*: a compiled policy can
be shared across gateway session threads and swapped atomically on hot
reload without locking beyond the small LRU guarding the bindings memo.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass

from repro.policy.policy import Policy
from repro.relalg.cq import CQ
from repro.relalg.rewrite import ViewDef
from repro.relalg.translate import SchemaInfo

#: Distinct bindings tuples memoized per compiled policy. Serving traffic
#: concentrates on few principals; 512 is far above any workload in repo.
_VIEW_DEF_MEMO_SIZE = 512


@dataclass(frozen=True)
class CompiledView:
    """One conjunctive policy view, pre-analyzed at compile time."""

    name: str
    #: The symbolic (parameterized) definition — still needed for
    #: instantiation on a never-seen bindings tuple.
    cq: CQ
    #: Base relations the view body touches (precomputed frozenset; the
    #: seed checker recomputed ``view.cq.relations()`` on every check).
    relations: frozenset[str]
    #: Parameters the view consumes, for diagnostics.
    param_names: tuple[str, ...] = ()


class CompiledPolicy:
    """A policy compiled for one epoch: dispatch tables + memoized views.

    The public surface mirrors what ``ComplianceChecker`` needs so the
    checker can route through it without behavior change:

    * :meth:`view_defs` — drop-in for ``Policy.view_defs`` (same views,
      same order), memoized per bindings;
    * :meth:`relevant_relations` — the checker's trace-fact relation
      closure, over precomputed frozensets;
    * :attr:`view_constants` — ``Policy.constants()`` computed once.
    """

    def __init__(self, schema: SchemaInfo, policy: Policy):
        started = time.perf_counter()
        self.schema = schema
        self.policy = policy
        self.view_constants: frozenset[object] = frozenset(policy.constants())
        self.fingerprint: str = policy.fingerprint()
        views: list[CompiledView] = []
        for view in policy:
            if not view.is_conjunctive:
                continue
            cq = view.ucq.disjuncts[0]
            views.append(
                CompiledView(
                    name=view.name,
                    cq=cq,
                    relations=frozenset(cq.relations()),
                    param_names=tuple(view.param_names),
                )
            )
        #: Conjunctive views in policy order — the order ``view_defs``
        #: must preserve for decision-for-decision agreement with the
        #: seed checker (rewriting enumeration is order-sensitive).
        self.views: tuple[CompiledView, ...] = tuple(views)
        dispatch: dict[str, list[int]] = {}
        for index, compiled in enumerate(self.views):
            for rel in compiled.relations:
                dispatch.setdefault(rel, []).append(index)
        #: Flattened ``relation -> view indexes`` dispatch table.
        self.dispatch: dict[str, tuple[int, ...]] = {
            rel: tuple(indexes) for rel, indexes in dispatch.items()
        }
        self._view_def_memo: OrderedDict[tuple, list[ViewDef]] = OrderedDict()
        self._memo_lock = threading.Lock()
        self.view_def_hits = 0
        self.view_def_misses = 0
        #: Wall-clock cost of this compile (``ReloadReport.compile_s``).
        self.build_seconds = time.perf_counter() - started

    # -- checker-facing surface ---------------------------------------------

    def view_defs(self, bindings: Mapping[str, object]) -> list[ViewDef]:
        """Instantiated view definitions, memoized per bindings tuple.

        Falls back to uncached instantiation when a binding value is
        unhashable (never the case for wire traffic, which is JSON).
        Returns a fresh list each call; the ``ViewDef`` objects inside
        are immutable and safely shared.
        """
        try:
            key = tuple(sorted(bindings.items()))
            hash(key)
        except TypeError:
            self.view_def_misses += 1
            return self.policy.view_defs(bindings)
        with self._memo_lock:
            cached = self._view_def_memo.get(key)
            if cached is not None:
                self._view_def_memo.move_to_end(key)
                self.view_def_hits += 1
                return list(cached)
        defs = self.policy.view_defs(bindings)
        with self._memo_lock:
            self.view_def_misses += 1
            self._view_def_memo[key] = defs
            self._view_def_memo.move_to_end(key)
            while len(self._view_def_memo) > _VIEW_DEF_MEMO_SIZE:
                self._view_def_memo.popitem(last=False)
        return list(defs)

    def relevant_relations(self, query_relations: set[str]) -> set[str]:
        """The checker's relation closure, over precomputed frozensets.

        Replicates ``ComplianceChecker._relevant_relations`` exactly —
        a single in-order pass where each connected view widens the
        reachable set for the views after it — so trace-fact selection
        (and therefore every decision) is unchanged.
        """
        relations = set(query_relations)
        for compiled in self.views:
            if compiled.relations & relations:
                relations |= compiled.relations
        return relations

    def touching(self, relation: str) -> tuple[CompiledView, ...]:
        """Views whose body mentions ``relation`` (flattened dispatch)."""
        return tuple(
            self.views[index] for index in self.dispatch.get(relation, ())
        )

    def continue_counts_of(self, retired: "CompiledPolicy") -> None:
        """Start the view-def memo counters where ``retired``'s stand, so
        they stay cumulative across a policy reload."""
        self.view_def_hits += retired.view_def_hits
        self.view_def_misses += retired.view_def_misses

    def stats(self) -> dict[str, object]:
        return {
            "views": len(self.views),
            "relations": len(self.dispatch),
            "view_def_hits": self.view_def_hits,
            "view_def_misses": self.view_def_misses,
            "build_seconds": self.build_seconds,
            "fingerprint": self.fingerprint,
        }


def compile_policy(schema: SchemaInfo, policy: Policy) -> CompiledPolicy:
    """Compile ``policy`` for an epoch (timed; see ``build_seconds``)."""
    return CompiledPolicy(schema, policy)
