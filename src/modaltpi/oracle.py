"""Brute-force validation back end, independent of the tableau.

Satisfiability is decided by exhaustively enumerating rooted tree models
up to a depth and branching bound (for T every world carries a self-loop),
organised as a bottom-up sweep over realizable world types: level d
collects every truth assignment to the subformula closure that some tree
of depth <= d can give its root.  A found witness is rebuilt as an
explicit Kripke model and re-checked with `evaluate` before it is
reported.  Only tests and the `oracle` CLI subcommand use this module;
the compilation pipeline never does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError
from .formula import (
    And, Box, Dia, FalseF, Formula, Not, Or, TrueF, Var, FALSE,
    box, dia, lnot, lor, land, nnf, modal_depth, sort_formulas, var, variables,
)
from .semantics import KripkeModel, System, entails_mod, evaluate, tree_model

__all__ = [
    "OracleBounds", "EnumerationOutcome", "sufficient_bounds",
    "sat_by_enumeration", "enumerate_implicates", "check_decomposition",
    "DEFAULT_ENUM_BUDGET",
]

DEFAULT_ENUM_BUDGET = 200_000


@dataclass(frozen=True)
class OracleBounds:
    """Search space: tree depth, per-world branching, variable universe."""

    max_depth: int
    max_branching: int
    variables: tuple

    def __post_init__(self):
        if self.max_depth < 0 or self.max_branching < 0:
            raise ValueError("bounds must be nonnegative")


@dataclass(frozen=True)
class EnumerationOutcome:
    """`satisfiable` is definitive; unsat is definitive only within bounds."""

    satisfiable: bool
    definitive: bool
    model: KripkeModel | None
    world: int | None

    @property
    def verdict(self) -> str:
        return "sat" if self.satisfiable else "unsat-within-bounds"


def _dia_count(f: Formula) -> int:
    seen = set()

    def walk(g):
        if isinstance(g, Dia):
            seen.add(g.key)
        if isinstance(g, (And, Or)):
            for c in g.children:
                walk(c)
        elif isinstance(g, (Box, Dia, Not)):
            walk(g.child)

    walk(f)
    return len(seen)


def sufficient_bounds(f: Formula) -> OracleBounds:
    """Bounds that make an unsat verdict definitive for f."""
    g = nnf(f)
    return OracleBounds(modal_depth(g), _dia_count(g),
                        tuple(sorted(variables(g))))


def _closure(g: Formula):
    """Distinct subformulas in dependency order (children first)."""
    order = []
    index = {}

    def walk(f):
        if f.key in index:
            return
        if isinstance(f, (And, Or)):
            for c in f.children:
                walk(c)
        elif isinstance(f, (Not, Box, Dia)):
            walk(f.child)
        index[f.key] = len(order)
        order.append(f)

    walk(g)
    return order, index


class _Tree:
    """Witness subtree: a valuation and child subtrees."""

    __slots__ = ("atoms", "children", "size")

    def __init__(self, atoms, children):
        self.atoms = atoms
        self.children = children
        self.size = 1 + sum(c.size for c in children)


def _eval_world(order, index, val, orv, andv, reflexive):
    """Truth vector over the closure for one world.

    `orv`/`andv` aggregate body truth over the chosen children (None for a
    leaf); with `reflexive` the world itself also counts as a successor.
    """
    vec = []
    for f in order:
        if isinstance(f, Var):
            b = f.name in val
        elif isinstance(f, TrueF):
            b = True
        elif isinstance(f, FalseF):
            b = False
        elif isinstance(f, Not):
            b = not vec[index[f.child.key]]
        elif isinstance(f, And):
            b = all(vec[index[c.key]] for c in f.children)
        elif isinstance(f, Or):
            b = any(vec[index[c.key]] for c in f.children)
        elif isinstance(f, Box):
            i = index[f.child.key]
            b = True if andv is None else andv[i]
            if reflexive:
                b = b and vec[i]
        elif isinstance(f, Dia):
            i = index[f.child.key]
            b = False if orv is None else orv[i]
            if reflexive:
                b = b or vec[i]
        else:
            raise TypeError(f"unknown node {f!r}")
        vec.append(b)
    return tuple(vec)


def _child_combos(profiles, max_branching):
    """Aggregated (or, and) successor profiles for 1..max_branching children.

    `profiles` maps a child truth vector to its minimal witness; returns a
    dict (orv, andv) -> list of child witnesses, keeping the smallest
    realization of every aggregate.
    """
    singles = sorted(((vec, tree) for vec, tree in profiles.items()),
                     key=lambda p: (p[1].size, p[0]))
    states = {}
    frontier = {}
    for vec, tree in singles:
        key = (vec, vec)
        if key not in frontier or frontier[key][0] > tree.size:
            frontier[key] = (tree.size, [tree])
    states.update(frontier)
    for _ in range(1, max_branching):
        new_frontier = {}
        for (orv, andv), (size, trees) in frontier.items():
            for vec, tree in singles:
                key = (tuple(a or b for a, b in zip(orv, vec)),
                       tuple(a and b for a, b in zip(andv, vec)))
                cand = (size + tree.size, trees + [tree])
                if key not in states or states[key][0] > cand[0]:
                    new_frontier[key] = cand
        if not new_frontier:
            break
        for key, cand in new_frontier.items():
            if key not in states or states[key][0] > cand[0]:
                states[key] = cand
        frontier = new_frontier
    return states


def sat_by_enumeration(f: Formula, system: System, bounds: OracleBounds,
                       budget: int = DEFAULT_ENUM_BUDGET) -> EnumerationOutcome:
    """Exhaustive search for a satisfying tree model within bounds."""
    g = nnf(f)
    missing = variables(g) - set(bounds.variables)
    if missing:
        raise ValueError(f"bounds do not cover variables {sorted(missing)}")
    order, index = _closure(g)
    root_i = index[g.key]
    reflexive = system is System.T
    suff = sufficient_bounds(g)
    definitive = (bounds.max_depth >= suff.max_depth
                  and bounds.max_branching >= suff.max_branching)

    names = tuple(sorted(bounds.variables))
    valuations = [frozenset(n for n, used in zip(names, mask) if used)
                  for mask in itertools.product((False, True), repeat=len(names))]

    ticks = 0

    def spend(n=1):
        nonlocal ticks
        ticks += n
        if ticks > budget:
            raise BudgetExceededError("oracle enumeration budget exhausted")

    def found(vec, tree):
        model, root = tree_model(tree, system)
        if not evaluate(model, root, g):
            raise AssertionError("oracle witness failed evaluation")
        return EnumerationOutcome(True, True, model, root)

    # level 0: leaves (with a self-loop under T)
    types = {}
    for val in valuations:
        spend()
        vec = _eval_world(order, index, val, None, None, reflexive)
        if vec not in types:
            types[vec] = _Tree(val, ())
            if vec[root_i]:
                return found(vec, types[vec])

    for _depth in range(1, bounds.max_depth + 1):
        if bounds.max_branching == 0:
            break
        combos = _child_combos(types, bounds.max_branching)
        new_types = []
        for (orv, andv), (size, trees) in sorted(
                combos.items(), key=lambda kv: (kv[1][0], kv[0])):
            for val in valuations:
                spend()
                vec = _eval_world(order, index, val, orv, andv, reflexive)
                if vec not in types:
                    node = _Tree(val, tuple(trees))
                    new_types.append((vec, node))
                    types[vec] = node
                    if vec[root_i]:
                        return found(vec, node)
        if not new_types:
            break  # fixpoint: deeper trees add no new root types
    return EnumerationOutcome(False, definitive, None, None)


# ---------------------------------------------------------------------------
# Clause-vocabulary enumeration
# ---------------------------------------------------------------------------

def clause_vocabulary(names, max_disjuncts: int = 2,
                      max_modal_depth: int = 1,
                      max_body_disjuncts: int = 2):
    """All clauses over the variables within the shape bounds, canonical."""
    lits = []
    for n in sorted(names):
        lits.append(var(n))
        lits.append(lnot(var(n)))
    bodies = [l for l in lits]
    if max_body_disjuncts >= 2:
        bodies += [lor(a, b) for a, b in itertools.combinations(lits, 2)]
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


# ---------------------------------------------------------------------------
# Seven-way unsatisfiability split
# ---------------------------------------------------------------------------

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
