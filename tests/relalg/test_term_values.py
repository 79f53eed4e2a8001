"""Terms keep the value semantics of the frozen dataclasses they replaced.

``Var``, ``Const``, ``Param`` and ``Atom`` are tagged tuples so that
hashing and equality run in C. The reference classes below are the dataclasses they
used to be; every observable the reasoning core relies on (``==``,
``!=``, hash consistency, ``repr``) must agree with them, across kinds.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass

from hypothesis import given
from hypothesis import strategies as st

from repro.enforce.trace import fact_to_wire
from repro.relalg.cq import Atom, Comp, Const, Param, Var
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
    for cls in (Var, Const, Param, Atom):
        assert cls.__hash__ is tuple.__hash__
        assert cls.__eq__ is tuple.__eq__
        assert cls.__ne__ is tuple.__ne__


class TestAtomIsATaggedTuple:
    """``Atom`` joined the terms: trace facts and the atom sets of a check
    hash and compare in C, and keep the dataclass's value semantics."""

    def test_constants_compare_as_values(self):
        one, true = Atom("R", (Const(1),)), Atom("R", (Const(True),))
        assert one == true and hash(one) == hash(true)
        assert len({one, true, Atom("R", (Const(1.0),))}) == 1
        assert Atom("R", (Const(1),)) != Atom("S", (Const(1),))
        assert Atom("R", (Const(1),)) != Atom("R", (Const("1"),))

    @given(terms)
    def test_an_atom_never_equals_a_term_or_a_comparison(self, term):
        new, _ = build(*term)
        for atom in (Atom("R", (new,)), Atom("x", ()), Atom("var", (new,))):
            assert atom != new and new != atom
            assert atom != Comp("=", new, new) and Comp("=", new, new) != atom

    def test_attributes_repr_and_substitution(self):
        atom = Atom("R", (Var("x"), Const(2), Param("u")))
        assert (atom.rel, atom.args) == ("R", (Var("x"), Const(2), Param("u")))
        assert repr(atom) == "R(x, 2, ?u)"
        substituted = atom.substitute({Var("x"): Const(1)})
        assert substituted == Atom("R", (Const(1), Const(2), Param("u")))
        assert list(atom.variables()) == [Var("x")]
        for clone in (pickle.loads(pickle.dumps(atom)), copy.deepcopy(atom)):
            assert type(clone) is Atom and clone == atom and hash(clone) == hash(atom)

    def test_fact_to_wire_is_unchanged(self):
        null = Var("\x00ln7")
        fact = Atom("Attendance", (Const(1), null, Const("a"), Const(None), Const(True)))
        assert fact_to_wire(fact) == [
            "Attendance",
            [["const", 1], ["null", "7"], ["const", "a"], ["const", None], ["const", True]],
        ]
