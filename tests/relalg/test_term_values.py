"""Terms keep the value semantics of the frozen dataclasses they replaced.

``Var``, ``Const`` and ``Param`` are tagged tuples so that hashing and
equality run in C. The reference classes below are the dataclasses they
used to be; every observable the reasoning core relies on (``==``,
``!=``, hash consistency, ``repr``) must agree with them, across kinds.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from repro.relalg.cq import Const, Param, Var
from repro.util.text import sql_quote


@dataclass(frozen=True)
class RefVar:
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class RefConst:
    value: int | float | str | bool | None

    def __repr__(self) -> str:
        return sql_quote(self.value)


@dataclass(frozen=True)
class RefParam:
    name: str

    def __repr__(self) -> str:
        return f"?{self.name}"


KINDS = {"var": (Var, RefVar), "const": (Const, RefConst), "param": (Param, RefParam)}

PAYLOADS = [0, 1, 2, -3000, True, False, 1.0, "a", "", None]

terms = st.tuples(st.sampled_from(sorted(KINDS)), st.sampled_from(PAYLOADS))


def build(kind: str, payload: object) -> tuple[object, object]:
    new, ref = KINDS[kind]
    return new(payload), ref(payload)


def outcome(fn):
    """``("ok", value)`` or ``("raises", type)``: the reference's repr of
    a non-string name raises, and the new term must raise alike."""
    try:
        return ("ok", fn())
    except Exception as exc:
        return ("raises", type(exc))


@given(terms, terms)
def test_equality_and_hash_agree_with_the_dataclass_reference(left, right):
    new_a, ref_a = build(*left)
    new_b, ref_b = build(*right)
    assert (new_a == new_b) == (ref_a == ref_b)
    assert (new_a != new_b) == (ref_a != ref_b)
    if new_a == new_b:
        assert hash(new_a) == hash(new_b)
    assert outcome(lambda: repr(new_a)) == outcome(lambda: repr(ref_a))


@given(terms)
def test_pickle_and_deepcopy_round_trip(term):
    new, _ = build(*term)
    for clone in (pickle.loads(pickle.dumps(new)), copy.deepcopy(new), copy.copy(new)):
        assert type(clone) is type(new)
        assert clone == new and hash(clone) == hash(new)
        assert outcome(lambda c=clone: repr(c)) == outcome(lambda: repr(new))


def test_bool_int_float_constants_are_one_key():
    assert Const(1) == Const(True) == Const(1.0)
    assert len({Const(1), Const(True), Const(1.0)}) == 1
    assert Const(0) == Const(False) and Const(None) != Const(0)


def test_kinds_with_one_payload_stay_distinct():
    keys = {Var("x"): 1, Param("x"): 2, Const("x"): 3}
    assert len(keys) == 3
    assert Var("x") != Param("x") != Const("x")


def test_attributes_and_repr():
    assert Var("x").name == "x" and Param("u").name == "u" and Const(7).value == 7
    assert repr(Var("x")) == "x" and repr(Param("u")) == "?u"
    assert repr(Const("a")) == "'a'" and repr(Const(None)) == "NULL"
    assert str(Var("x")) == "x"


def test_hash_and_eq_are_the_tuples_own():
    """A Python-level ``__hash__``/``__eq__`` would put the interpreter
    back on every dict and set operation of the reasoning core."""
    for cls in (Var, Const, Param):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
        assert cls.__ne__ is tuple.__ne__
