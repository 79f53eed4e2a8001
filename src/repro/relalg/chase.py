"""A bounded chase with tuple-generating dependencies.

The paper's Example 4.1 inference ("John's disease is one of the two his
doctor treats") relies on *background knowledge*: the integrity
constraint that a patient's condition is always treated by their
assigned doctor. Benedikt et al. — the source of the PQI/NQI
definitions — study exactly "inference from visible information and
background knowledge", so the checkers accept such constraints as
tuple-generating dependencies (TGDs) and chase the sensitive query with
them before reasoning.

A TGD ``body → head`` states: whenever the body atoms match, the head
atoms also hold (head-only variables are existential). Chasing a CQ adds
the implied head atoms (with fresh variables for existentials) until a
fixpoint or the step bound — a bound is needed because TGD chase
termination is undecidable in general.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.relalg.cq import CQ, Atom, Term, Var, fresh_var_factory


@dataclass(frozen=True)
class TGD:
    """A tuple-generating dependency ``body ⇒ head``."""

    body: tuple[Atom, ...]
    head: tuple[Atom, ...]
    name: str = ""

    def existential_vars(self) -> set[Var]:
        body_vars = {v for atom in self.body for v in atom.variables()}
        head_vars = {v for atom in self.head for v in atom.variables()}
        return head_vars - body_vars


def chase(query: CQ, dependencies: list[TGD], max_steps: int = 20) -> CQ:
    """Saturate ``query`` with the dependencies (bounded standard chase).

    Each step finds a homomorphism from some TGD body into the query body
    whose head image is not yet present, and adds the head atoms with
    fresh existential variables. The result is equivalent to the input on
    every database satisfying the dependencies.
    """
    fresh = fresh_var_factory("ch")
    body = list(query.body)
    steps = 0
    changed = True
    while changed and steps < max_steps:
        changed = False
        for tgd in dependencies:
            for mapping in _homomorphisms(tgd.body, tuple(body)):
                if _head_satisfied(tgd, mapping, body):
                    continue
                extension = dict(mapping)
                for var in sorted(tgd.existential_vars(), key=lambda v: v.name):
                    extension[var] = fresh()
                for atom in tgd.head:
                    new_atom = atom.substitute(extension)
                    if new_atom not in body:
                        body.append(new_atom)
                        changed = True
                steps += 1
                if steps >= max_steps:
                    break
            if steps >= max_steps:
                break
    return CQ(
        head=query.head,
        body=tuple(body),
        comps=query.comps,
        head_names=query.head_names,
        name=(query.name or "Q") + "_chased",
    )


def _homomorphisms(pattern: tuple[Atom, ...], target: tuple[Atom, ...]):
    """All homomorphisms from the pattern atoms into the target atoms."""

    def extend(index: int, mapping: dict[Var, Term]):
        if index == len(pattern):
            yield dict(mapping)
            return
        atom = pattern[index]
        for candidate in target:
            if candidate.rel != atom.rel or len(candidate.args) != len(atom.args):
                continue
            extension: dict[Var, Term] = {}
            ok = True
            for pattern_arg, target_arg in zip(atom.args, candidate.args):
                if isinstance(pattern_arg, Var):
                    bound = mapping.get(pattern_arg, extension.get(pattern_arg))
                    if bound is None:
                        extension[pattern_arg] = target_arg
                    elif bound != target_arg:
                        ok = False
                        break
                elif pattern_arg != target_arg:
                    ok = False
                    break
            if not ok:
                continue
            mapping.update(extension)
            yield from extend(index + 1, mapping)
            for key in extension:
                del mapping[key]

    yield from extend(0, {})


def _head_satisfied(tgd: TGD, mapping: dict[Var, Term], body: list[Atom]) -> bool:
    """Is some extension of the mapping already witnessed in the body?

    Standard-chase applicability: the step fires only if the head cannot
    be matched into the existing body with the frontier fixed.
    """
    frontier_mapped = {
        var: term
        for var, term in mapping.items()
        if var not in tgd.existential_vars()
    }

    def extend(index: int, current: dict[Var, Term]) -> bool:
        if index == len(tgd.head):
            return True
        atom = tgd.head[index]
        for candidate in body:
            if candidate.rel != atom.rel or len(candidate.args) != len(atom.args):
                continue
            extension: dict[Var, Term] = {}
            ok = True
            for pattern_arg, target_arg in zip(atom.args, candidate.args):
                if isinstance(pattern_arg, Var):
                    bound = current.get(pattern_arg, extension.get(pattern_arg))
                    if bound is None:
                        extension[pattern_arg] = target_arg
                    elif bound != target_arg:
                        ok = False
                        break
                elif pattern_arg != target_arg:
                    ok = False
                    break
            if not ok:
                continue
            current.update(extension)
            if extend(index + 1, current):
                for key in extension:
                    del current[key]
                return True
            for key in extension:
                del current[key]
        return False

    return extend(0, dict(frontier_mapped))
