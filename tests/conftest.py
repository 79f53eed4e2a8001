"""Shared fixtures: schemas, databases, and policies used across tests."""

from __future__ import annotations

import pytest

from repro.enforce.checker import ComplianceChecker
from repro.enforce.trace import Trace, fact_from_wire, is_labeled_null
from repro.engine import Column, ColumnType, Database, ForeignKey, Schema, TableSchema
from repro.relalg.translate import DictSchema
from repro.workloads import calendar_app, employees, hospital, social


def reverify_audit(records, policy_by_version, db) -> list:
    """Re-decide audited decisions from scratch; returns those that differ.

    Each record — a :class:`~repro.serve.gateway.DecisionAuditRecord`, or
    the JSONL line an :class:`~repro.mining.AuditStream` sink wrote for
    one — is checked by a fresh, template-free checker for
    ``policy_by_version[record.policy_version]`` over the trace facts as
    of decision time. ``db`` must hold the schema the decisions were made
    on. An empty result means no decision was torn across a reload (map
    each version to the policy it served) or, with every version mapped
    to one candidate policy, that the candidate flips none of them.
    """
    checkers: dict[int, ComplianceChecker] = {}
    differing = []
    for record in records:
        if isinstance(record, dict):
            sql, bindings, allowed = record["sql"], record["bindings"], record["allowed"]
            version = record["policy_version"]
            facts = [fact_from_wire(fact) for fact in record["facts"]]
        else:
            sql, bindings, allowed = record.sql, record.bindings, record.allowed
            version, facts = record.policy_version, record.facts
        if version not in checkers:
            checkers[version] = ComplianceChecker(db.schema, policy_by_version[version])
        fresh = checkers[version].check(
            db.parse(sql), bindings, Trace.from_facts(facts)
        )
        if fresh.allowed != allowed:
            differing.append(record)
    return differing


def contradicted_facts(facts, db) -> list:
    """The certified facts no current row of ``db`` stands for: a fact
    holds when some row of its relation equals it at every constant (a
    labeled null matches any value)."""
    contents = db.relation_contents()

    def holds(fact) -> bool:
        return any(
            all(
                is_labeled_null(arg) or arg.value == value
                for arg, value in zip(fact.args, row)
            )
            for row in contents.get(fact.rel, ())
        )

    return [fact for fact in facts if not holds(fact)]


def key_violations(facts, schema) -> list:
    """Pairs of facts that agree on a relation's primary key (all of it
    constant) and disagree on a constant elsewhere: no database holds both."""
    seen: dict[tuple, object] = {}
    pairs = []
    for fact in facts:
        table = schema.table(fact.rel)
        positions = [table.index_of(column) for column in table.primary_key]
        key_args = [fact.args[i] for i in positions]
        if not positions or any(is_labeled_null(arg) for arg in key_args):
            continue
        key = (fact.rel, tuple(arg.value for arg in key_args))
        other = seen.setdefault(key, fact)
        if any(
            not is_labeled_null(a) and not is_labeled_null(b) and a.value != b.value
            for a, b in zip(fact.args, other.args)
        ):
            pairs.append((other, fact))
    return pairs


@pytest.fixture
def calendar_schema() -> Schema:
    return calendar_app.make_schema()


@pytest.fixture
def calendar_db() -> Database:
    return calendar_app.make_database(size=10, seed=3)


@pytest.fixture
def calendar_policy():
    return calendar_app.ground_truth_policy()


@pytest.fixture
def hospital_db() -> Database:
    return hospital.make_database(size=16, seed=11)


@pytest.fixture
def employees_db() -> Database:
    return employees.make_database(size=30, seed=13)


@pytest.fixture
def social_db() -> Database:
    return social.make_database(size=12, seed=17)


@pytest.fixture
def dict_schema() -> DictSchema:
    """A plain two-table schema for relalg unit tests."""
    return DictSchema(
        {
            "R": ["a", "b"],
            "S": ["b", "c"],
            "T": ["x"],
            "Events": ["EId", "Title", "Time", "Loc"],
            "Attendance": ["UId", "EId"],
            "Employees": ["EId", "Name", "Age", "Dept", "ZIP", "Salary"],
        }
    )


@pytest.fixture
def tiny_db() -> Database:
    """A small generic database for engine tests."""
    schema = Schema.of(
        TableSchema(
            "Users",
            (
                Column("UId", ColumnType.INT, nullable=False),
                Column("Name", ColumnType.TEXT, nullable=False),
                Column("Age", ColumnType.INT),
            ),
            primary_key=("UId",),
        ),
        TableSchema(
            "Orders",
            (
                Column("OId", ColumnType.INT, nullable=False),
                Column("UId", ColumnType.INT, nullable=False),
                Column("Total", ColumnType.REAL),
                Column("Note", ColumnType.TEXT),
            ),
            primary_key=("OId",),
            foreign_keys=(ForeignKey("UId", "Users", "UId"),),
        ),
    )
    db = Database(schema)
    db.insert_rows(
        "Users",
        [(1, "alice", 34), (2, "bob", 28), (3, "carol", None)],
    )
    db.insert_rows(
        "Orders",
        [
            (10, 1, 99.5, "gift"),
            (11, 1, 10.0, None),
            (12, 2, 55.25, "rush"),
        ],
    )
    return db
