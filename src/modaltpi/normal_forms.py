"""Outer-level CNF/DNF and the distribution routine.

Distribution happens only at the outermost boolean level; bodies under
[] and <> are opaque literals here and are never rewritten.  `distribute`
picks one member of each group in every way; the normal forms use it on
the clauses or terms of subformulas, and `pi.candidates` on the
candidates of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .formula import (
    And, Formula, Or, FALSE, TRUE, contradictory, land, lor, nnf,
    sort_formulas,
)

__all__ = ["Cnf", "Dnf", "to_cnf", "to_dnf", "distribute", "DEFAULT_SIZE_CAP"]

DEFAULT_SIZE_CAP = 10_000


@dataclass(frozen=True)
class Cnf:
    """Conjunction of clauses; an empty tuple is the constant true."""

    clauses: tuple

    def formula(self) -> Formula:
        return land(self.clauses)


@dataclass(frozen=True)
class Dnf:
    """Disjunction of terms; an empty tuple is the constant false."""

    terms: tuple

    def formula(self) -> Formula:
        return lor(self.terms)


def distribute(groups, combine, cap) -> list:
    """Pick one member from each group in every way and combine each pick;
    raises CapacityError when more than `cap` picks are distinct."""
    acc = {frozenset()}
    for group in groups:
        nxt = set()
        for chosen in acc:
            for g in group:
                nxt.add(chosen | {g})
                if len(nxt) > cap:
                    raise CapacityError(f"size cap {cap} exceeded")
        acc = nxt
    return [combine(parts) for parts in acc]


# (outer node, inner node, unit of the outer node, combine for the inner)
_CNF = (And, Or, TRUE, lor)
_DNF = (Or, And, FALSE, land)


def _outer(g: Formula, form, cap) -> set:
    """The clauses (form `_CNF`) or terms (form `_DNF`) of an NNF formula."""
    outer, inner, unit, combine = form
    if g == unit:
        out = set()
    elif isinstance(g, outer):
        out = set().union(*[_outer(c, form, cap) for c in g.children])
    elif isinstance(g, inner):
        out = set(distribute([_outer(c, form, cap) for c in g.children],
                             combine, cap))
    else:  # a literal, a modal literal or the other constant
        out = {g}
    if len(out) > cap:
        raise CapacityError(f"size cap {cap} exceeded")
    return out


def to_cnf(f: Formula, max_clauses: int = DEFAULT_SIZE_CAP) -> Cnf:
    """Clausal form of the outer boolean level, preserving equivalence."""
    return Cnf(sort_formulas(_outer(nnf(f), _CNF, max_clauses)))


def to_dnf(f: Formula, max_terms: int = DEFAULT_SIZE_CAP) -> Dnf:
    """Term form of the outer boolean level; contradictory terms dropped.

    A term is dropped when its propositional literals contain false or a
    complementary pair (a cheap syntactic test; deeper pruning is the
    business of the minimization stage).
    """
    terms = _outer(nnf(f), _DNF, max_terms)
    return Dnf(sort_formulas(
        t for t in terms
        if not contradictory(t.children if isinstance(t, And) else (t,))))
