"""Parameterized view definitions."""

from __future__ import annotations

from collections.abc import Mapping

from repro.relalg.cq import CQ, UCQ
from repro.relalg.rewrite import ViewDef
from repro.relalg.translate import SchemaInfo, translate_select
from repro.sqlir import ast
from repro.sqlir.parser import parse_select
from repro.util.errors import PolicyError


class View:
    """One policy view: a named, parameterized SELECT.

    The view is stored in three forms: original SQL text (for humans and
    serialization), the parsed AST, and the translated UCQ (for the
    reasoning layer). Views used by the rewriting-based compliance check
    must translate to a single conjunctive query; views with OR / IN are
    representable but cannot currently justify query allowance (they are
    reported via :attr:`is_conjunctive`).
    """

    def __init__(
        self,
        name: str,
        sql: str | ast.Select,
        schema: SchemaInfo,
        description: str = "",
    ):
        self.name = name
        if isinstance(sql, str):
            self.sql = sql
            self.ast = parse_select(sql)
        else:
            from repro.sqlir.printer import to_sql

            self.ast = sql
            self.sql = to_sql(sql)
        self.description = description
        try:
            self.ucq: UCQ = translate_select(self.ast, schema, name)
        except Exception as exc:
            raise PolicyError(f"view {name!r} cannot be translated: {exc}") from exc
        self.param_names = sorted({p.name for p in self.ucq.params()})

    @property
    def is_conjunctive(self) -> bool:
        return len(self.ucq.disjuncts) == 1

    @property
    def cq(self) -> CQ:
        if not self.is_conjunctive:
            raise PolicyError(f"view {self.name!r} is a union of CQs")
        return self.ucq.disjuncts[0]

    def instantiate(self, bindings: Mapping[str, object]) -> UCQ:
        """Bind the view's parameters (e.g. ``{"MyUId": 1}``)."""
        return self.ucq.instantiate(dict(bindings))

    def view_def(self, bindings: Mapping[str, object]) -> ViewDef:
        """An instantiated :class:`ViewDef` for the rewriting engine,
        its variables renamed into the view's namespace."""
        instantiated = self.instantiate(bindings)
        if len(instantiated.disjuncts) != 1:
            raise PolicyError(
                f"view {self.name!r} is not conjunctive; cannot feed rewriting"
            )
        return ViewDef(self.name, instantiated.disjuncts[0])

    def __repr__(self) -> str:
        return f"View({self.name}: {self.sql})"
