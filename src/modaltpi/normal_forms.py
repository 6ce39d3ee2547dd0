"""Outer-level CNF/DNF and the distribution routine.

Distribution happens only at the outermost boolean level; bodies under
[] and <> are opaque literals here and are never rewritten.  `distribute`
picks one member of each group in every way.  It has two callers: the
normal forms use it on the clauses or terms of subformulas, and
`pi._picks` on the printed forms of the candidates of the terms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .formula import (
    And, Formula, Or, FALSE, TRUE, contradictory, land, lor, sort_formulas,
)

__all__ = ["Cnf", "Dnf", "to_cnf", "to_dnf", "distribute", "DEFAULT_SIZE_CAP"]

DEFAULT_SIZE_CAP = 10_000


@dataclass(frozen=True)
class Cnf:
    """Conjunction of clauses; an empty tuple is the constant true."""

    clauses: tuple


@dataclass(frozen=True)
class Dnf:
    """Disjunction of terms; an empty tuple is the constant false."""

    terms: tuple


def distribute(groups, cap, layer) -> set:
    """Every distinct pick of one member from each group, each a
    frozenset of members; raises CapacityError, naming `layer`, when more
    than `cap` picks are distinct.  `_outer` joins each pick into a
    clause or term, and `pi._picks` keeps the picks as they are."""
    acc = {frozenset()}
    for group in groups:
        nxt = set()
        for chosen in acc:
            for g in group:
                nxt.add(chosen | {g})
                if len(nxt) > cap:
                    raise CapacityError(cap, layer)
        acc = nxt
    return acc


# (outer node, inner node, unit of the outer node, combine for the inner,
# the layer a CapacityError names)
_CNF = (And, Or, TRUE, lor, "outer CNF")
_DNF = (Or, And, FALSE, land, "outer DNF")


def _outer(g: Formula, form, cap) -> set:
    """The clauses (form `_CNF`) or terms (form `_DNF`) of a formula.

    An inner node none of whose children is an outer node has literals
    for children, so it is its own one clause or term and nothing is
    distributed; every other inner node distributes over the clauses or
    terms of its children."""
    outer, inner, unit, combine, layer = form
    if g == unit:
        out = set()
    elif isinstance(g, outer):
        out = set().union(*[_outer(c, form, cap) for c in g.children])
    elif isinstance(g, inner) and any(type(c) is outer for c in g.children):
        out = set(map(combine, distribute(
            [_outer(c, form, cap) for c in g.children], cap, layer)))
    else:  # a literal, the other constant or an inner node of literals
        out = {g}
    if len(out) > cap:
        raise CapacityError(cap, layer)
    return out


def to_cnf(f: Formula, max_clauses: int = DEFAULT_SIZE_CAP) -> Cnf:
    """Clausal form of the outer boolean level, preserving equivalence;
    a disjunction of literals is its own one clause."""
    return Cnf(sort_formulas(_outer(f, _CNF, max_clauses)))


def to_dnf(f: Formula, max_terms: int = DEFAULT_SIZE_CAP) -> Dnf:
    """Term form of the outer boolean level; contradictory terms dropped.

    A conjunction of literals is its own one term, returned with no
    distribution.  A term is dropped when its propositional literals
    contain false or a complementary pair (a cheap syntactic test;
    deeper pruning is the business of the minimization stage).
    """
    terms = _outer(f, _DNF, max_terms)
    return Dnf(sort_formulas(
        t for t in terms
        if not contradictory(t.children if isinstance(t, And) else (t,))))
