"""Access-check synthesis via abductive inference (§5.2.2).

The task: find a statement ``H`` about database content such that

1. once known (with the existing trace), ``H`` makes the blocked query
   compliant, and
2. ``H`` is consistent with the trace.

This is abduction — "an explanatory hypothesis for a desired outcome"
(Dillig et al.), the desired outcome being policy compliance. Hypotheses
are generated from *failed view matches*: the guard patterns of
:func:`repro.relalg.rewrite.guard_patterns` — for each partial
homomorphism from a view body onto the query body, the view atoms left
unmapped, instantiated through the mapping — are exactly what is missing
for that view to justify the query. (The enforcement checker reads the
same patterns to prune a session's facts and to name, in a Block's
reason, the fact that would have allowed it.) Each hypothesis is
validated by re-running the compliance check with the hypothesis atoms
taken as certified facts.

For Example 2.1 with ``Q2`` issued alone, the synthesized check is
``SELECT 1 FROM Attendance WHERE UId = 1 AND EId = 2`` — the paper's
"the Attendance table contains row (UId=1, EId=2)".
"""

from __future__ import annotations

from repro.diagnose.patches import AccessCheckPatch
from repro.relalg.cq import CQ, Atom, Const, Param
from repro.relalg.rewrite import ViewDef, find_equivalent_rewriting, guard_patterns
from repro.relalg.render import cq_to_select
from repro.relalg.translate import SchemaInfo
from repro.sqlir.printer import to_sql
from repro.util.errors import DbacError


def access_check_patches(
    query: CQ,
    views: list[ViewDef],
    schema: SchemaInfo,
    existing_facts: list[Atom] | None = None,
    max_patches: int = 3,
) -> list[AccessCheckPatch]:
    """Synthesize validated access-check patches for a blocked query."""
    existing_facts = existing_facts or []
    patches: list[AccessCheckPatch] = []
    seen_sql: set[str] = set()
    # Smallest hypotheses first: the least the developer has to check.
    hypotheses = dict.fromkeys(pattern.atoms for pattern in guard_patterns(query, views))
    for hypothesis in hypotheses:
        patch = _validate(query, views, schema, existing_facts, hypothesis)
        if patch is None or patch.check_sql in seen_sql:
            continue
        seen_sql.add(patch.check_sql)
        patches.append(patch)
        if len(patches) >= max_patches:
            break
    return patches


def _validate(
    query: CQ,
    views: list[ViewDef],
    schema: SchemaInfo,
    existing_facts: list[Atom],
    hypothesis: tuple[Atom, ...],
) -> AccessCheckPatch | None:
    """Does knowing the hypothesis make the query compliant?"""
    facts = list(existing_facts) + list(hypothesis)
    augmented = CQ(
        head=query.head,
        body=query.body + tuple(hypothesis),
        comps=query.comps,
        head_names=query.head_names,
        name=(query.name or "Q") + "_hyp",
    )
    rewriting = find_equivalent_rewriting(augmented, views, facts=facts)
    if rewriting is None:
        return None
    # Variables the hypothesis shares with the query body stand for "the
    # same value the query uses"; in the rendered check they become named
    # parameters the application binds alongside the original query.
    query_vars = query.body_variables()
    render_map = {
        var: Param(f"Bind_{var.name.replace('.', '_').lstrip('$')}")
        for atom in hypothesis
        for var in atom.variables()
        if var in query_vars
    }
    rendered_atoms = tuple(atom.substitute(render_map) for atom in hypothesis)
    check_cq = CQ(
        head=(Const(1),),
        body=rendered_atoms,
        comps=(),
        head_names=("present",),
        name="check",
    )
    try:
        stmt = cq_to_select(check_cq, schema)
    except DbacError:
        return None
    statement = " and ".join(f"a row {a!r} exists" for a in rendered_atoms)
    return AccessCheckPatch(
        check_sql=to_sql(stmt),
        check_stmt=stmt,
        statement=statement,
        hypothesis_facts=list(hypothesis),
    )
