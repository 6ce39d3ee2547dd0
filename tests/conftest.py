"""Shared generators and fixtures for the test suite."""

import random

import pytest

from modaltpi.formula import (
    MAX_NESTING, TRUE, And, Box, Dia, Not, Or, Var, box, dia, land, lnot,
    lor, var,
)


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
