"""Closure over comparison constraints: consistency and implication.

:class:`ConstraintSet` takes a collection of :class:`~repro.relalg.cq.Comp`
constraints over terms and answers two questions:

* ``consistent()`` — is there *some* assignment of values to variables and
  params satisfying all constraints?
* ``implies(comp)`` — does every satisfying assignment also satisfy
  ``comp``?

Design notes
------------

* Equalities feed a union-find; each equivalence class may contain at most
  one distinct constant.
* Order constraints (``<``, ``<=``) form a directed graph over class
  representatives. ``a < b`` is implied iff a path from ``a`` to ``b``
  exists that contains at least one strict edge; ``a <= b`` iff any path
  exists. Constant pairs of comparable type contribute implicit edges so
  that e.g. ``x <= 3`` and ``5 <= y`` imply ``x < y``.
* Params are rigid but unknown: two distinct params are treated as
  possibly-equal for consistency and never provably-equal for implication.
  This is the conservative direction for an enforcement checker (it can
  only cause extra blocking, never extra allowing).
* SQL NULL (``Const(None)``) participates in ``=``/``!=`` only; an order
  constraint touching NULL makes the set inconsistent, matching SQL
  semantics where such a predicate can never hold.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.relalg.cq import Comp, Const, Param, Term

_NUMERIC = (int, float)


def _comparable(a: object, b: object) -> bool:
    """Can two constant values be ordered against each other?"""
    if a is None or b is None:
        return False
    if isinstance(a, _NUMERIC) and isinstance(b, _NUMERIC):
        return True
    return isinstance(a, str) and isinstance(b, str)


def const_cmp(op: str, a: object, b: object) -> bool:
    """Evaluate a comparison between two constant values."""
    if op == "=":
        return a == b and (a is None) == (b is None)
    if op == "!=":
        return not const_cmp("=", a, b)
    if not _comparable(a, b):
        return False
    if op == "<":
        return a < b  # type: ignore[operator]
    if op == "<=":
        return a <= b  # type: ignore[operator]
    raise AssertionError(op)


class ConstraintSet:
    """An immutable view over a set of comparison constraints.

    Build once, then query ``consistent()``/``implies()``/``equal()``.
    """

    def __init__(self, comps: Iterable[Comp] = ()):
        self._parent: dict[Term, Term] = {}
        self._neq: set[tuple[Term, Term]] = set()
        # Order edges between class reps: (u, v, strict) meaning u < v or u <= v.
        self._edges: list[tuple[Term, Term, bool]] = []
        self._inconsistent = False
        self._terms: set[Term] = set()
        pending_order: list[tuple[Term, Term, bool]] = []
        pending_neq: list[tuple[Term, Term]] = []
        for comp in comps:
            self._terms.add(comp.left)
            self._terms.add(comp.right)
            if comp.op == "=":
                self._union(comp.left, comp.right)
            elif comp.op == "!=":
                pending_neq.append((comp.left, comp.right))
            elif comp.op == "<":
                pending_order.append((comp.left, comp.right, True))
            elif comp.op == "<=":
                pending_order.append((comp.left, comp.right, False))
            else:
                raise AssertionError(comp.op)
        if self._inconsistent:
            return
        # Resolve class constants and record non-equalities / order edges
        # against representatives.
        for left, right in pending_neq:
            a, b = self._find(left), self._find(right)
            if a == b:
                self._inconsistent = True
                return
            self._neq.add((a, b))
            self._neq.add((b, a))
        for left, right, strict in pending_order:
            value_left = self._class_const(left)
            value_right = self._class_const(right)
            if value_left is not _NO_CONST and value_right is not _NO_CONST:
                op = "<" if strict else "<="
                if not const_cmp(op, value_left, value_right):
                    self._inconsistent = True
                    return
                continue
            if value_left is None or value_right is None:
                # An order constraint touching NULL can never hold.
                self._inconsistent = True
                return
            self._edges.append((self._find(left), self._find(right), strict))
        self._add_constant_edges()
        if not self._inconsistent:
            self._check_order_consistency()

    # -- union-find ----------------------------------------------------------

    def _find(self, term: Term) -> Term:
        parent = self._parent
        root = term
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(term, term) != term:
            parent[term], term = root, parent[term]
        return root

    def _union(self, a: Term, b: Term) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return
        # Prefer constants as representatives so class constants are easy to
        # read off; two distinct constants in one class is a contradiction.
        if isinstance(ra, Const) and isinstance(rb, Const):
            if ra.value != rb.value or (ra.value is None) != (rb.value is None):
                self._inconsistent = True
            self._parent[rb] = ra
            return
        if isinstance(rb, Const):
            ra, rb = rb, ra
        # Keep params as representatives over plain vars (rigid symbols are
        # more informative), but constants always win.
        if isinstance(rb, Param) and not isinstance(ra, Const | Param):
            ra, rb = rb, ra
        self._parent[rb] = ra

    def _class_const(self, term: Term):
        """The constant value of ``term``'s class, or the _NO_CONST marker."""
        rep = self._find(term)
        if isinstance(rep, Const):
            return rep.value
        return _NO_CONST

    # -- closure construction --------------------------------------------------

    def _add_constant_edges(self) -> None:
        """Add implicit order edges between constant class representatives."""
        const_reps = sorted(
            {
                self._find(t)
                for t in self._terms
                if isinstance(self._find(t), Const)
            },
            key=lambda c: repr(c),
        )
        for i, a in enumerate(const_reps):
            for b in const_reps[i + 1 :]:
                assert isinstance(a, Const) and isinstance(b, Const)
                if not _comparable(a.value, b.value):
                    continue
                if a.value < b.value:  # type: ignore[operator]
                    self._edges.append((a, b, True))
                elif b.value < a.value:  # type: ignore[operator]
                    self._edges.append((b, a, True))

    def _check_order_consistency(self) -> None:
        """Inconsistent iff some strict edge lies on a cycle of order edges."""
        for u, v, strict in self._edges:
            if not strict:
                continue
            if self._reachable(v, u, require_strict=False):
                self._inconsistent = True
                return
        # Derived equalities from x <= y and y <= x do not merge classes here;
        # they only matter for implies("=") which checks them explicitly.

    def _reachable(self, start: Term, goal: Term, require_strict: bool) -> bool:
        """Is there an order path start → goal (strict somewhere if required)?"""
        start = self._find(start)
        goal = self._find(goal)
        # State: (node, have_strict). BFS.
        seen: set[tuple[Term, bool]] = set()
        stack: list[tuple[Term, bool]] = [(start, False)]
        while stack:
            node, have_strict = stack.pop()
            if node == goal and (have_strict or not require_strict):
                if not require_strict or have_strict:
                    return True
            if (node, have_strict) in seen:
                continue
            seen.add((node, have_strict))
            for u, v, strict in self._edges:
                if u == node:
                    state = (v, have_strict or strict)
                    if state not in seen:
                        stack.append(state)
        return False

    # -- public API ---------------------------------------------------------

    def consistent(self) -> bool:
        """Whether some assignment satisfies all constraints."""
        return not self._inconsistent

    def canon(self, term: Term) -> Term:
        """The representative of ``term``'s equivalence class."""
        return self._find(term)

    def equal(self, a: Term, b: Term) -> bool:
        """Is ``a = b`` implied?"""
        if self._inconsistent:
            return True
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return True
        if isinstance(ra, Const) and isinstance(rb, Const):
            return const_cmp("=", ra.value, rb.value)
        # Sandwich: a <= b and b <= a (no strict edge possible if consistent).
        if self._reachable(ra, rb, require_strict=False) and self._reachable(
            rb, ra, require_strict=False
        ):
            return True
        return False

    def pinned(self, term: Term) -> Const | None:
        """The constant ``term`` is provably equal to, or None: on a
        consistent set, ``equal(term, c)`` iff ``c`` equals it, for every
        constant ``c``. Through its class, or between two order
        constraints (``3 <= x <= 3``)."""
        rep = self._find(term)
        if isinstance(rep, Const):
            return rep
        if self._edges:
            for node in self._const_nodes():
                if self.equal(rep, node):
                    return node
        return None

    def not_equal(self, a: Term, b: Term) -> bool:
        """Is ``a != b`` implied?"""
        if self._inconsistent:
            return True
        ra, rb = self._find(a), self._find(b)
        if (ra, rb) in self._neq:
            return True
        if isinstance(ra, Const) and isinstance(rb, Const):
            return not const_cmp("=", ra.value, rb.value)
        if ra == rb:
            return False
        return self._strictly_less(ra, rb) or self._strictly_less(rb, ra)

    def _strictly_less(self, a: Term, b: Term) -> bool:
        ra, rb = self._find(a), self._find(b)
        if isinstance(ra, Const) and isinstance(rb, Const):
            return const_cmp("<", ra.value, rb.value)
        if self._reachable(ra, rb, require_strict=True):
            return True
        # Route through constant nodes of the graph: e.g. 18 < x follows
        # from 60 <= x even when 18 never appears in the constraint set.
        for node in self._const_nodes():
            if isinstance(ra, Const) and const_cmp("<", ra.value, node.value):
                if node == rb or self._reachable(node, rb, require_strict=False):
                    return True
            if isinstance(ra, Const) and const_cmp("<=", ra.value, node.value):
                if self._reachable(node, rb, require_strict=True):
                    return True
            if isinstance(rb, Const) and const_cmp("<", node.value, rb.value):
                if node == ra or self._reachable(ra, node, require_strict=False):
                    return True
            if isinstance(rb, Const) and const_cmp("<=", node.value, rb.value):
                if self._reachable(ra, node, require_strict=True):
                    return True
        return False

    def _less_or_equal(self, a: Term, b: Term) -> bool:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return True
        if isinstance(ra, Const) and isinstance(rb, Const):
            return const_cmp("<=", ra.value, rb.value)
        if self._reachable(ra, rb, require_strict=False):
            return True
        for node in self._const_nodes():
            if isinstance(ra, Const) and const_cmp("<=", ra.value, node.value):
                if node == rb or self._reachable(node, rb, require_strict=False):
                    return True
            if isinstance(rb, Const) and const_cmp("<=", node.value, rb.value):
                if node == ra or self._reachable(ra, node, require_strict=False):
                    return True
        return False

    def _const_nodes(self) -> list[Const]:
        nodes: list[Const] = []
        seen: set[Term] = set()
        for term in self._terms:
            rep = self._find(term)
            if isinstance(rep, Const) and rep not in seen:
                seen.add(rep)
                nodes.append(rep)
        return nodes

    def implies(self, comp: Comp) -> bool:
        """Is ``comp`` satisfied by every assignment satisfying this set?

        Sound but not complete: a ``False`` answer means "not provable",
        which callers must treat as "possibly false".
        """
        if self._inconsistent:
            return True
        if comp.op == "=":
            return self.equal(comp.left, comp.right)
        if comp.op == "!=":
            return self.not_equal(comp.left, comp.right)
        if comp.op == "<":
            return self._strictly_less(comp.left, comp.right)
        if comp.op == "<=":
            return self._less_or_equal(comp.left, comp.right) or self.equal(
                comp.left, comp.right
            )
        raise AssertionError(comp.op)


class _NoConst:
    """Sentinel distinct from any value, including None."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<no-const>"


_NO_CONST = _NoConst()
