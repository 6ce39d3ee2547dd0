"""Shared generators, checkers and fixtures for the test suite.

Besides the random generators this holds the query vocabulary
(`clause_vocabulary`), the implicate enumeration (`enumerate_implicates`)
and the seven-way unsat split checker (`check_decomposition`).  The last
two decide entailment with the tableau, so they live here and not in
`modaltpi.oracle`, which checks the tableau.
"""

import itertools
import random

import pytest

from modaltpi.formula import (
    FALSE, MAX_NESTING, TRUE, And, Box, Dia, FalseF, Formula, Not, Or,
    TrueF, Var, box, dia, land, lnot, lor, modal_depth, sort_formulas, var,
)
from modaltpi.semantics import System, entails_mod


NAMES = ("a", "b", "c")

# formula text nested exactly as deep as the parser allows
AT_NESTING_LIMIT = (
    "(" * MAX_NESTING + "p" + ")" * MAX_NESTING,
    "~" * MAX_NESTING + "p",
    "~[]" * (MAX_NESTING // 2) + "p",
    "[]<>" * (MAX_NESTING // 2) + "p",
    "<>" * (MAX_NESTING % 3)
    + "~(p | <>" * (MAX_NESTING // 3) + "q" + ")" * (MAX_NESTING // 3),
)
# formula text far past it
TOO_DEEP = ("(" * 500 + "p" + ")" * 500, "~" * 5000 + "p")
# a chain of `<->` whose expansion is far too long to build
IFF_CHAIN = " <-> ".join(f"a{i}" for i in range(25))
# 100 conjoined 12-atom chains with distinct atoms, 12,077 characters
# whose expansions would print about 6.5 million
IFF_CHAINS = " & ".join(
    "(" + " <-> ".join(f"a{c}_{i}" for i in range(12)) + ")"
    for c in range(100))


def rand_literal(rng, names=NAMES):
    v = var(rng.choice(names))
    return v if rng.random() < 0.5 else lnot(v)


def rand_formula(rng, depth=2, size=10, names=NAMES):
    """Random formula with bounded modal depth and node count."""
    budget = [size]

    def go(d):
        if budget[0] <= 0:
            return rand_literal(rng, names)
        budget[0] -= 1
        k = rng.randrange(6 if d > 0 else 4)
        if k == 0:
            return var(rng.choice(names))
        if k == 1:
            return lnot(var(rng.choice(names)))
        if k == 2:
            return land(go(d), go(d))
        if k == 3:
            return lor(go(d), go(d))
        if k == 4:
            return box(go(d - 1))
        return dia(go(d - 1))

    return go(depth)


def rand_prop(rng, size=5, names=NAMES):
    return rand_formula(rng, depth=0, size=size, names=names)


def rand_body(rng, names=NAMES, nested=True):
    k = rng.randrange(5 if nested else 3)
    if k == 0:
        return rand_literal(rng, names)
    if k == 1:
        return lor(rand_literal(rng, names), rand_literal(rng, names))
    if k == 2:
        return land(rand_literal(rng, names), rand_literal(rng, names))
    if k == 3:
        return box(rand_literal(rng, names))
    return dia(rand_literal(rng, names))


def rand_clause(rng, names=NAMES, allow_modal=True):
    lits = []
    for _ in range(rng.randrange(1, 3)):
        k = rng.randrange(4 if allow_modal else 2)
        if k <= 1:
            lits.append(rand_literal(rng, names))
        elif k == 2:
            lits.append(box(rand_body(rng, names)))
        else:
            lits.append(dia(rand_body(rng, names)))
    return lor(lits)


def rand_instance(rng, names=NAMES, max_clauses=4):
    """(x, y) with x in CNF shape and y the propositional clauses of x.

    x entails y by construction; y may be the constant true.
    """
    n_prop = rng.randrange(0, 3)
    props = [rand_clause(rng, names, allow_modal=False) for _ in range(n_prop)]
    n_modal = rng.randrange(1, max(2, max_clauses + 1 - n_prop))
    modal = [rand_clause(rng, names) for _ in range(n_modal)]
    x = land(props + modal)
    y = land(props) if props else TRUE
    return x, y


def spelled_outside_nnf(rng, f):
    """Text that parses to the formula f, written at random with `~(...)`,
    `->`, `<->`, `~[]`, `~<>` and `~~`, so that most of it is outside
    negation normal form."""
    def go(g):
        k = rng.randrange(4)
        if k == 0:
            return f"~~{go(g)}"
        if k == 1:
            return f"({go(g)} <-> true)"
        if isinstance(g, Not):
            return f"~{go(g.child)}"
        if isinstance(g, (And, Or)):
            if k == 2:  # De Morgan
                op = " | " if isinstance(g, And) else " & "
                return "~(" + op.join(go(lnot(c)) for c in g.children) + ")"
            if isinstance(g, And):
                return "(" + " & ".join(map(go, g.children)) + ")"
            head, *rest = g.children
            return f"({go(lnot(head))} -> ({' | '.join(map(go, rest))}))"
        if isinstance(g, (Box, Dia)):
            if k == 2:  # duality
                return ("~<>" if isinstance(g, Box) else "~[]") + go(
                    lnot(g.child))
            return ("[]" if isinstance(g, Box) else "<>") + go(g.child)
        return str(g)  # an atom or a constant

    return go(f)


def variables(f: Formula) -> frozenset:
    """All variable names occurring in the formula."""
    if isinstance(f, Var):
        return frozenset((f.name,))
    if isinstance(f, (TrueF, FalseF)):
        return frozenset()
    if isinstance(f, (And, Or)):
        out = set()
        for c in f.children:
            out |= variables(c)
        return frozenset(out)
    return variables(f.child)


def clause_vocabulary(names, max_disjuncts: int = 2,
                      max_modal_depth: int = 1):
    """All clauses over the variables within the shape bounds, canonical."""
    lits = []
    for n in sorted(names):
        lits.append(var(n))
        lits.append(lnot(var(n)))
    bodies = lits + [lor(a, b) for a, b in itertools.combinations(lits, 2)]
    pool = list(lits)
    if max_modal_depth >= 1:
        for b in bodies:
            pool.append(box(b))
            pool.append(dia(b))
    pool = sort_formulas(set(pool))
    clauses = set(pool)
    for k in range(2, max_disjuncts + 1):
        for combo in itertools.combinations(pool, k):
            clauses.add(lor(combo))
    return sort_formulas(clauses)


def enumerate_implicates(x: Formula, theory: Formula, system: System,
                         names=None, max_disjuncts: int = 2,
                         max_modal_depth: int = 1) -> tuple:
    """Clauses within the vocabulary bounds entailed by x modulo the theory."""
    if names is None:
        names = sorted(variables(x) | variables(theory))
    vocab = clause_vocabulary(names, max_disjuncts, max_modal_depth)
    return tuple(c for c in vocab if entails_mod(x, theory, c, system))


def check_decomposition(alpha, beta, gamma, psi, phi, xi, y: Formula,
                        system: System = System.K) -> bool:
    """Check the unsat split for shaped conjunctions against a []-theory.

    The left side conjoins the three literal groups (propositional alphas,
    <>betas, []gammas), their pairwise and triple disjunctions, and the
    psi / []phi / <>xi extras; it is unsat modulo []y iff one of seven
    ground conditions holds modulo y.  Returns True when both sides agree;
    empty groups read as empty disjunctions (false).
    """
    for name, group in (("alpha", alpha), ("psi", psi)):
        for g in group:
            if modal_depth(g) != 0:
                raise ValueError(f"{name} formulas must be propositional")
    if modal_depth(y) != 0:
        raise ValueError("y must be propositional")

    a = lor(alpha)
    bd = lor([dia(b) for b in beta])
    gb = lor([box(g) for g in gamma])
    lhs = land([a, bd, gb, lor([a, bd]), lor([a, gb]), lor([bd, gb]),
                lor([a, bd, gb])]
               + list(psi)
               + [box(p) for p in phi]
               + [dia(q) for q in xi])
    lhs_unsat = entails_mod(lhs, box(y), FALSE, system)

    phis = list(phi)

    def unsat(parts) -> bool:
        return entails_mod(land(parts), y, FALSE, system)

    conds = [
        unsat([a] + list(psi)),
        unsat([lor(beta)] + phis),
        any(unsat([lor(gamma), u] + phis) for u in xi),
        unsat([lor(list(alpha) + list(beta))] + phis),
        any(unsat([lor(list(alpha) + list(gamma)), u] + phis) for u in xi),
        unsat([lor(list(beta) + list(gamma))] + phis),
        unsat([lor(list(alpha) + list(beta) + list(gamma))] + phis),
    ]
    return lhs_unsat == any(conds)


@pytest.fixture
def report(capsys):
    """Print a line even under pytest's output capture."""

    def _report(line):
        with capsys.disabled():
            print(line)

    return _report


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
