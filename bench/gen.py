"""Seeded generators for benchmark inputs, as formula text.

The shapes follow the test suite's `rand_instance` (a CNF-shaped KB whose
propositional clauses form the theory) and the oracle's clause vocabulary
(every clause with at most two disjuncts, modal depth at most one and
bodies of at most two literals).  The generators make their own draws
from a `random.Random` and emit plain text, so the program under test
only ever sees what `parse` would read from a user.
"""

from __future__ import annotations

import itertools
import random


def _literal(rng: random.Random, names) -> str:
    name = rng.choice(names)
    return name if rng.random() < 0.5 else "~" + name


def _body(rng: random.Random, names) -> str:
    k = rng.randrange(5)
    if k == 0:
        return _literal(rng, names)
    if k == 1:
        return f"({_literal(rng, names)} | {_literal(rng, names)})"
    if k == 2:
        return f"({_literal(rng, names)} & {_literal(rng, names)})"
    if k == 3:
        return "[]" + _literal(rng, names)
    return "<>" + _literal(rng, names)


def _clause(rng: random.Random, names, allow_modal: bool) -> list:
    """Disjuncts of one random clause, one or two of them."""
    lits = []
    for _ in range(rng.randrange(1, 3)):
        k = rng.randrange(4 if allow_modal else 2)
        if k <= 1:
            lits.append(_literal(rng, names))
        elif k == 2:
            lits.append("[]" + _body(rng, names))
        else:
            lits.append("<>" + _body(rng, names))
    return lits


def kb_clauses(rng: random.Random, names, max_clauses: int) -> tuple:
    """(props, modal): the clauses of a random KB as lists of disjunct
    text.  The theory is the propositional clauses, so the KB entails it.

    Makes the same draws, in the same order, as the test suite's
    `rand_instance`, so one seed gives the same formulas in both.
    """
    n_prop = rng.randrange(0, 3)
    props = [_clause(rng, names, allow_modal=False) for _ in range(n_prop)]
    n_modal = rng.randrange(1, max(2, max_clauses + 1 - n_prop))
    modal = [_clause(rng, names, allow_modal=True) for _ in range(n_modal)]
    return props, modal


def kb_text(props, modal) -> tuple:
    """(x, y) formula text of the clauses from `kb_clauses`."""
    def conj(clauses):
        return " & ".join("(" + " | ".join(c) + ")" for c in clauses)

    return conj(props + modal), (conj(props) if props else "true")


def candidate_bound(props, modal) -> int:
    """Upper bound on the candidate clauses of a KB, from its text alone.

    Each outer DNF term picks one disjunct per clause and adds the boxed
    theory; it yields at most one candidate per distinct propositional
    literal, one per distinct <>-literal and one for all []-literals.
    Picking one candidate per term bounds the distribution by the
    product over terms.
    """
    bound = 1
    for term in itertools.product(*(props + modal)):
        lits = set(term)
        boxed = bool(props) or any(l.startswith("[]") for l in lits)
        bound *= sum(not l.startswith("[]") for l in lits) + boxed
    return bound


def clause_vocabulary(names) -> list:
    """Text of every clause of at most two disjuncts over the names:
    literals, and []/<> over a literal or a disjunction of two literals."""
    lits = []
    for n in sorted(names):
        lits += [n, "~" + n]
    bodies = lits + [f"({a} | {b})" for a, b in itertools.combinations(lits, 2)]
    pool = lits + ["[]" + b for b in bodies] + ["<>" + b for b in bodies]
    return pool + [f"{a} | {b}" for a, b in itertools.combinations(pool, 2)]


def zipf_ranking(rng: random.Random, items, s: float):
    """A seeded shuffle of the items and the cumulative weights that give
    rank r the probability 1 / r**s, for `random.choices`."""
    ranked = list(items)
    rng.shuffle(ranked)
    return ranked, list(itertools.accumulate(
        1.0 / (r ** s) for r in range(1, len(ranked) + 1)))
