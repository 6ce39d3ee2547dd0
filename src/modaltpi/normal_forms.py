"""Outer-level CNF/DNF and the distribution routine.

Distribution happens only at the outermost boolean level; bodies under
[] and <> are opaque literals here and are never rewritten.  `distribute`
picks one member of each group in every way.  It has two callers: the
normal forms use it on the terms of subformulas, and `pi._picks` on the
printed forms of the candidates of the terms.  The clauses of f are the
negations of the terms of ~f.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError
from .formula import (
    And, Formula, Or, FALSE, contradictory, land, lnot, sort_formulas,
)

__all__ = ["Dnf", "to_cnf", "to_dnf", "distribute", "DEFAULT_SIZE_CAP"]

DEFAULT_SIZE_CAP = 10_000


@dataclass(frozen=True)
class Dnf:
    """Disjunction of terms; an empty tuple is the constant false."""

    terms: tuple


def distribute(groups, cap, layer) -> set:
    """Every distinct pick of one member from each group, each a
    frozenset of members; raises CapacityError, naming `layer`, when more
    than `cap` picks are distinct.  `_terms` joins each pick into a term,
    and `pi._picks` keeps the picks as they are."""
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


def _terms(g: Formula, cap, layer) -> set:
    """The terms of a formula's outer DNF; raises CapacityError, naming
    `layer`, when a subformula has more than `cap` terms.

    A conjunction none of whose children is a disjunction has literals
    for children, so it is its own one term and nothing is distributed;
    every other conjunction distributes over the terms of its
    children."""
    if g == FALSE:
        out = set()
    elif isinstance(g, Or):
        out = set().union(*[_terms(c, cap, layer) for c in g.children])
    elif isinstance(g, And) and any(type(c) is Or for c in g.children):
        out = set(map(land, distribute(
            [_terms(c, cap, layer) for c in g.children], cap, layer)))
    else:  # a literal, true or a conjunction of literals
        out = {g}
    if len(out) > cap:
        raise CapacityError(cap, layer)
    return out


def to_cnf(f: Formula, max_clauses: int = DEFAULT_SIZE_CAP) -> tuple:
    """The sorted clauses of the outer boolean level, whose conjunction
    is equivalent to f (none for the constant true): the dual of
    `to_dnf` under `lnot`, the negations of the terms of ~f, with no
    term dropped.  A disjunction of literals is its own one clause."""
    return sort_formulas(
        map(lnot, _terms(lnot(f), max_clauses, "outer CNF")))


def to_dnf(f: Formula, max_terms: int = DEFAULT_SIZE_CAP) -> Dnf:
    """Term form of the outer boolean level; contradictory terms dropped.

    A conjunction of literals is its own one term, returned with no
    distribution.  A term is dropped when its propositional literals
    contain false or a complementary pair (a cheap syntactic test;
    deeper pruning is the business of the minimization stage).
    """
    terms = _terms(f, max_terms, "outer DNF")
    return Dnf(sort_formulas(
        t for t in terms
        if not contradictory(t.children if isinstance(t, And) else (t,))))
