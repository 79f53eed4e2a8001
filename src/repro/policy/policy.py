"""The Policy object: an allow-list of views."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.policy.view import View
from repro.relalg.rewrite import ViewDef
from repro.util.errors import PolicyError


class Policy:
    """A set of named views; everything not derivable from them is denied.

    The paper (§5.1, footnote 2) argues for allow-lists: they implement
    least privilege naturally, because the policy states exactly the
    minimum information the application needs.
    """

    def __init__(
        self,
        views: Iterable[View] = (),
        name: str = "policy",
        meta: Mapping[str, str] | None = None,
    ):
        self.name = name
        #: Provenance annotations (string key/value pairs) carried through
        #: the text format as ``# @key value`` directives: the lifecycle
        #: tooling stamps mined candidates with their source window,
        #: example decision ids, and miner-config fingerprint here.
        #: Annotations are presentation metadata: they do not participate
        #: in :meth:`fingerprint`, equivalence, or enforcement.
        self.meta: dict[str, str] = dict(meta) if meta else {}
        self._views: dict[str, View] = {}
        for view in views:
            self.add(view)

    def add(self, view: View) -> None:
        if view.name in self._views:
            raise PolicyError(f"duplicate view name {view.name!r}")
        self._views[view.name] = view

    def remove(self, name: str) -> None:
        if name not in self._views:
            raise PolicyError(f"no view named {name!r}")
        del self._views[name]

    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: str) -> bool:
        return name in self._views

    def view(self, name: str) -> View:
        if name not in self._views:
            raise PolicyError(f"no view named {name!r}")
        return self._views[name]

    @property
    def views(self) -> list[View]:
        return list(self._views.values())

    def param_names(self) -> list[str]:
        names: set[str] = set()
        for view in self:
            names.update(view.param_names)
        return sorted(names)

    def view_defs(self, bindings: Mapping[str, object]) -> list[ViewDef]:
        """Instantiated definitions for the rewriting engine.

        Non-conjunctive views are skipped (they cannot justify allowance;
        skipping is the conservative direction).
        """
        defs = []
        for view in self:
            if view.is_conjunctive:
                defs.append(view.view_def(bindings))
        return defs

    def constants(self) -> set[object]:
        """Every constant appearing in a view definition.

        These are *structural* values ("public", a status code, an age
        bound) rather than data identifiers: the decision cache pins
        template slots that collide with them, and the checker's
        fact-selection heuristic ignores them when tracing which facts
        are connected to a query (a shared structural constant links
        everything to everything and carries no information).
        """
        from repro.relalg.cq import Const

        found: set[object] = set()
        for view in self:
            for disjunct in view.ucq.disjuncts:
                for comp in disjunct.comps:
                    for term in (comp.left, comp.right):
                        if isinstance(term, Const):
                            found.add(term.value)
                for atom in disjunct.body:
                    for arg in atom.args:
                        if isinstance(arg, Const):
                            found.add(arg.value)
        return found

    def canonical_views(self) -> dict[str, str]:
        """Each view's canonical definition, by view name.

        Views that differ only in name, description, SQL spelling or
        whitespace render identically: each UCQ disjunct is
        alpha-canonicalized (:func:`repro.relalg.memo.canonical_form`
        renames variables by first occurrence and strips presentation
        metadata), rendered deterministically, and the disjuncts sorted
        within the view. The decision-template store compares views across
        policy versions by this rendering
        (:meth:`repro.enforce.cache.DecisionCache.carry_from`).
        """
        from repro.relalg.memo import canonical_form

        rendered: dict[str, str] = {}
        for view in self:
            disjuncts = []
            for disjunct in view.ucq.disjuncts:
                canonical, _ = canonical_form(disjunct)
                body = ",".join(repr(atom) for atom in canonical.body)
                comps = ",".join(repr(comp) for comp in canonical.comps)
                head = ",".join(repr(term) for term in canonical.head)
                disjuncts.append(f"({head})<-{body}|{comps}")
            rendered[view.name] = ";".join(sorted(disjuncts))
        return rendered

    def fingerprint(self) -> str:
        """A stable content hash over the normalized view set.

        Two policies that define the same queries fingerprint
        identically, regardless of view names, descriptions, definition
        order, SQL spelling, or whitespace: the :meth:`canonical_views`
        renderings, sorted across the policy, are hashed. Used by the
        lifecycle registry to deduplicate versions and by benchmark TSVs
        for provenance; 16 hex chars of SHA-256.
        """
        import hashlib

        rendered_views = sorted(self.canonical_views().values())
        digest = hashlib.sha256("\n".join(rendered_views).encode()).hexdigest()
        return digest[:16]

    def with_view(self, view: View) -> "Policy":
        """A copy of this policy with one more view (for patch candidates)."""
        copy = Policy(self.views, name=self.name, meta=self.meta)
        copy.add(view)
        return copy

    def describe(self) -> str:
        lines = [f"policy {self.name} ({len(self)} views)"]
        for view in self:
            suffix = f"  -- {view.description}" if view.description else ""
            lines.append(f"  {view.name}: {view.sql}{suffix}")
        return "\n".join(lines)
