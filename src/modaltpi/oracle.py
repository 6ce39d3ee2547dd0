"""Brute-force validation back end, independent of the tableau.

Satisfiability is decided by exhaustively enumerating rooted tree models
(for T every world carries a self-loop) within the depth and branching
the formula itself implies, organised as a bottom-up sweep over
realizable world types: level d collects every truth assignment to the
subformula closure that some tree of depth <= d can give its root.  A
found witness is rebuilt as an explicit Kripke model and re-checked with
`evaluate` before it is reported.  Only tests and the `oracle` CLI
subcommand use this module; the compilation pipeline never does.
"""

from __future__ import annotations

import itertools

from .formula import (
    And, Box, Dia, FalseF, Formula, Not, Or, TrueF, Var, FALSE,
    box, dia, lnot, lor, land, modal_depth, sort_formulas, var, variables,
)
from .semantics import (
    System, _Budget, _Witness, entails_mod, evaluate, tree_model,
)

__all__ = [
    "sat_by_enumeration", "enumerate_implicates", "check_decomposition",
    "DEFAULT_ENUM_BUDGET",
]

DEFAULT_ENUM_BUDGET = 200_000


def _closure(g: Formula):
    """(order, index, bounds) for a formula: its distinct subformulas
    in dependency order (children first, g last), the position of each
    key, and the (modal depth, distinct diamonds, variables) within which
    a satisfiable g has a tree model (the bounded tree-model property of
    K and T; Blackburn, de Rijke & Venema 2001), all from one walk."""
    order, index, depth = [], {}, []

    def walk(f):
        if f.key in index:
            return
        kids = (f.children if isinstance(f, (And, Or))
                else (f.child,) if isinstance(f, (Not, Box, Dia)) else ())
        for c in kids:
            walk(c)
        index[f.key] = len(order)
        order.append(f)
        depth.append(max((depth[index[c.key]] for c in kids), default=0)
                     + isinstance(f, (Box, Dia)))

    walk(g)
    bounds = (depth[-1], sum(isinstance(f, Dia) for f in order),
              tuple(sorted(f.name for f in order if isinstance(f, Var))))
    return order, index, bounds


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


def _child_combos(types, max_branching, tick):
    """Aggregated (or, and) successor profiles for 1..max_branching children.

    `types` maps a child truth vector to (size, witness) of its smallest
    known tree; returns a dict (orv, andv) -> (total size, list of child
    witnesses), keeping the smallest realization of every aggregate.
    `tick()` is called once for each candidate aggregate built.
    """
    singles = sorted(types.items(), key=lambda p: (p[1][0], p[0]))
    frontier = {}
    for vec, (size, tree) in singles:
        tick()
        frontier[vec, vec] = (size, [tree])
    states = dict(frontier)
    for _ in range(1, max_branching):
        new_frontier = {}
        for (orv, andv), (size, trees) in frontier.items():
            for vec, (tsize, tree) in singles:
                tick()
                key = (tuple(a or b for a, b in zip(orv, vec)),
                       tuple(a and b for a, b in zip(andv, vec)))
                best = new_frontier.get(key) or states.get(key)
                if best is None or best[0] > size + tsize:
                    new_frontier[key] = (size + tsize, trees + [tree])
        if not new_frontier:
            break
        states.update(new_frontier)
        frontier = new_frontier
    return states


def sat_by_enumeration(f: Formula, system: System,
                       budget: int = DEFAULT_ENUM_BUDGET):
    """(model, world) satisfying f, or None when f is unsatisfiable, as
    `semantics.find_model` returns; the search covers every tree within
    the bounds `_closure` reads off f, where a satisfiable f always has a
    model.

    Every world evaluated, under each valuation of f's variables and each
    aggregate of children, costs one tick of `budget`, and so does every
    candidate aggregate `_child_combos` builds; depth 0 draws the
    valuations one tick at a time and the deeper passes reuse them.
    """
    order, index, (max_depth, max_branching, names) = _closure(f)
    reflexive = system.reflexive
    drawn = (frozenset(itertools.compress(names, mask)) for mask
             in itertools.product((False, True), repeat=len(names)))
    valuations = []
    types = {}  # truth vector -> (size, witness) of its smallest tree
    tick = _Budget(budget, "oracle enumeration budget exhausted").tick
    for depth in range(max_depth + 1):
        # depth 0 is the one aggregate of no children
        combos = (_child_combos(types, max_branching, tick) if depth
                  else {(None, None): (0, [])})
        known = len(types)
        for (orv, andv), (size, trees) in sorted(
                combos.items(), key=lambda kv: (kv[1][0], kv[0])):
            for val in valuations if depth else drawn:
                tick()
                if not depth:
                    valuations.append(val)
                vec = _eval_world(order, index, val, orv, andv, reflexive)
                if vec not in types:
                    node = _Witness(val, trees)
                    types[vec] = (size + 1, node)
                    if vec[-1]:  # f is last in its closure
                        model, root = tree_model(node, system)
                        if not evaluate(model, root, f):
                            raise AssertionError(
                                "oracle witness failed evaluation")
                        return model, root
        if len(types) == known or not max_branching:
            break  # fixpoint, or no children: deeper trees add no types
    return None


# ---------------------------------------------------------------------------
# Clause-vocabulary enumeration
# ---------------------------------------------------------------------------

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
