"""Conjunctive queries with arithmetic comparisons.

A conjunctive query (CQ) is the datalog-style form

    Q(head...) :- R1(args...), R2(args...), comp, comp, ...

where atom arguments and comparison operands are *terms*:

* :class:`Var` — an existential or distinguished variable,
* :class:`Const` — a concrete value (int, float, str, bool, or None),
* :class:`Param` — a rigid symbolic constant such as the policy parameter
  ``?MyUId``. Two distinct params *may* denote the same value, so the
  reasoning layer treats them as possibly-equal for consistency but never
  provably-equal for implication — the conservative direction for
  enforcement.

Unions of conjunctive queries (:class:`UCQ`) represent SELECTs whose WHERE
clause contains OR / IN.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple

from repro.util.errors import DbacError
from repro.util.text import sql_quote

# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


# Terms are tagged tuples: they key every dict and set of the reasoning
# core, and a tuple hashes and compares in C. The tag keeps the kinds
# apart (Var("x") != Param("x")); values compare as Python values do, so
# Const(1) == Const(True) == Const(1.0). Do not give a term a Python
# __hash__/__eq__ (docs/performance.md, "Term representation").


class Var(NamedTuple):
    """A query variable, identified by name."""

    name: str
    tag: str = "var"

    def __repr__(self) -> str:
        return self.name


class Const(NamedTuple):
    """A constant value."""

    value: int | float | str | bool | None
    tag: str = "const"

    def __repr__(self) -> str:
        return sql_quote(self.value)


class Param(NamedTuple):
    """A rigid symbolic constant (named policy/query parameter)."""

    name: str
    tag: str = "param"

    def __repr__(self) -> str:
        return f"?{self.name}"


Term = Var | Const | Param

COMPARISON_OPS = ("=", "!=", "<", "<=")

_FLIP = {"<": "<", "<=": "<=", ">": "<", ">=": "<="}


# --------------------------------------------------------------------------
# Atoms and comparisons
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A relational atom ``rel(args...)`` over the full column list of rel."""

    rel: str
    args: tuple[Term, ...]

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.rel}({inner})"

    def substitute(self, mapping: Mapping[Var, Term]) -> "Atom":
        return Atom(self.rel, tuple(_subst_term(a, mapping) for a in self.args))

    def variables(self) -> Iterable[Var]:
        for arg in self.args:
            if isinstance(arg, Var):
                yield arg


@dataclass(frozen=True)
class Comp:
    """A comparison constraint; ``op`` is one of ``= != < <=``.

    ``>`` and ``>=`` are normalized away at construction via
    :meth:`normalized`.
    """

    op: str
    left: Term
    right: Term

    @staticmethod
    def normalized(op: str, left: Term, right: Term) -> "Comp":
        """Build a comparison, normalizing ``<>``, ``>``, ``>=``."""
        if op == "<>":
            op = "!="
        if op in (">", ">="):
            return Comp(_FLIP[op], right, left)
        if op not in COMPARISON_OPS:
            raise DbacError(f"unknown comparison operator {op!r}")
        return Comp(op, left, right)

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"

    def substitute(self, mapping: Mapping[Var, Term]) -> "Comp":
        return Comp(self.op, _subst_term(self.left, mapping), _subst_term(self.right, mapping))

    def variables(self) -> Iterable[Var]:
        for term in (self.left, self.right):
            if isinstance(term, Var):
                yield term


def _subst_term(term: Term, mapping: Mapping[Var, Term]) -> Term:
    if isinstance(term, Var):
        return mapping.get(term, term)
    return term


# --------------------------------------------------------------------------
# CQ / UCQ
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CQ:
    """A conjunctive query with comparisons.

    ``head`` holds the output terms; ``head_names`` the output column
    names (parallel to ``head``, used when mapping results back to rows).
    """

    head: tuple[Term, ...]
    body: tuple[Atom, ...]
    comps: tuple[Comp, ...] = ()
    head_names: tuple[str, ...] = ()
    name: str | None = None

    def __post_init__(self) -> None:
        if self.head_names and len(self.head_names) != len(self.head):
            raise DbacError("head_names must parallel head")

    # -- inspection --------------------------------------------------------

    def variables(self) -> set[Var]:
        """All variables appearing anywhere in the query."""
        found: set[Var] = set()
        for term in self.head:
            if isinstance(term, Var):
                found.add(term)
        for atom in self.body:
            found.update(atom.variables())
        for comp in self.comps:
            found.update(comp.variables())
        return found

    def body_variables(self) -> set[Var]:
        found: set[Var] = set()
        for atom in self.body:
            found.update(atom.variables())
        return found

    def distinguished(self) -> set[Var]:
        """Head variables."""
        return {t for t in self.head if isinstance(t, Var)}

    def params(self) -> set[Param]:
        found: set[Param] = set()
        for term in self.head:
            if isinstance(term, Param):
                found.add(term)
        for atom in self.body:
            for arg in atom.args:
                if isinstance(arg, Param):
                    found.add(arg)
        for comp in self.comps:
            for term in (comp.left, comp.right):
                if isinstance(term, Param):
                    found.add(term)
        return found

    def relations(self) -> set[str]:
        # Computed once per (immutable) CQ: the checker asks for a view's
        # relations on every decision, so the walk is cached on the frozen
        # instance (idempotent under racing writers — both store the same
        # frozenset). Callers get a fresh mutable set, as before.
        cached = getattr(self, "_relations_cache", None)
        if cached is None:
            cached = frozenset(atom.rel for atom in self.body)
            object.__setattr__(self, "_relations_cache", cached)
        return set(cached)

    def __hash__(self) -> int:
        # Cached like relations(): the containment memo keys on CQ pairs,
        # and a lookup and its store would otherwise each walk every atom.
        cached = getattr(self, "_hash_cache", None)
        if cached is None:
            cached = hash((self.head, self.body, self.comps, self.head_names, self.name))
            object.__setattr__(self, "_hash_cache", cached)
        return cached

    def __getstate__(self) -> dict:
        # A str hash differs between processes: never carry the cached one.
        state = dict(self.__dict__)
        state.pop("_hash_cache", None)
        return state

    @property
    def arity(self) -> int:
        return len(self.head)

    # -- transformation ------------------------------------------------------

    def substitute(self, mapping: Mapping[Var, Term]) -> "CQ":
        """Apply a variable substitution throughout the query."""
        return CQ(
            head=tuple(_subst_term(t, mapping) for t in self.head),
            body=tuple(atom.substitute(mapping) for atom in self.body),
            comps=tuple(comp.substitute(mapping) for comp in self.comps),
            head_names=self.head_names,
            name=self.name,
        )

    def instantiate(self, bindings: Mapping[str, object]) -> "CQ":
        """Replace named params with constants (missing names stay symbolic)."""

        def conv(term: Term) -> Term:
            if isinstance(term, Param) and term.name in bindings:
                return Const(bindings[term.name])  # type: ignore[arg-type]
            return term

        return CQ(
            head=tuple(conv(t) for t in self.head),
            body=tuple(Atom(a.rel, tuple(conv(x) for x in a.args)) for a in self.body),
            comps=tuple(Comp(c.op, conv(c.left), conv(c.right)) for c in self.comps),
            head_names=self.head_names,
            name=self.name,
        )

    def rename_apart(self, taken: set[str]) -> "CQ":
        """Rename variables so none collides with names in ``taken``."""
        mapping: dict[Var, Term] = {}
        for var in sorted(self.variables(), key=lambda v: v.name):
            if var.name in taken:
                base = var.name
                counter = 1
                candidate = f"{base}_{counter}"
                while candidate in taken:
                    counter += 1
                    candidate = f"{base}_{counter}"
                mapping[var] = Var(candidate)
                taken.add(candidate)
            else:
                taken.add(var.name)
        if not mapping:
            return self
        return self.substitute(mapping)

    def __repr__(self) -> str:
        head = ", ".join(repr(t) for t in self.head)
        parts = [repr(a) for a in self.body] + [repr(c) for c in self.comps]
        name = self.name or "Q"
        return f"{name}({head}) :- {', '.join(parts)}"


@dataclass(frozen=True)
class UCQ:
    """A union of conjunctive queries of equal arity."""

    disjuncts: tuple[CQ, ...]
    name: str | None = None

    def __post_init__(self) -> None:
        if not self.disjuncts:
            raise DbacError("UCQ needs at least one disjunct")
        arity = self.disjuncts[0].arity
        if any(d.arity != arity for d in self.disjuncts):
            raise DbacError("UCQ disjuncts must agree on arity")

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    @property
    def head_names(self) -> tuple[str, ...]:
        return self.disjuncts[0].head_names

    def instantiate(self, bindings: Mapping[str, object]) -> "UCQ":
        return UCQ(tuple(d.instantiate(bindings) for d in self.disjuncts), self.name)

    def params(self) -> set[Param]:
        found: set[Param] = set()
        for disjunct in self.disjuncts:
            found.update(disjunct.params())
        return found

    def relations(self) -> set[str]:
        found: set[str] = set()
        for disjunct in self.disjuncts:
            found.update(disjunct.relations())
        return found

    @staticmethod
    def of(query: "CQ | UCQ") -> "UCQ":
        """Coerce a CQ into a single-disjunct UCQ."""
        if isinstance(query, UCQ):
            return query
        return UCQ((query,), query.name)

    def __repr__(self) -> str:
        return " UNION ".join(repr(d) for d in self.disjuncts)


def fresh_var_factory(prefix: str = "v"):
    """Return a callable producing globally-unique :class:`Var` objects."""
    counter = 0

    def fresh(hint: str = "") -> Var:
        nonlocal counter
        name = f"{prefix}{counter}" + (f"_{hint}" if hint else "")
        counter += 1
        return Var(name)

    return fresh
