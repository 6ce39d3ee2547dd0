"""Kripke semantics and tableau decision procedures for systems K and T.

Entailment is local consequence: `premise |= conclusion` holds iff
`premise & ~conclusion` has no pointed model.  Satisfiability is decided
by a prefixed tableau working on negation normal form; system T adds the
reflexivity rule ([]f at a world also asserts f there) and the witness
models it produces carry a self-loop at every world.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import BudgetExceededError
from .formula import (
    And, Box, Dia, FALSE, FalseF, Formula, Not, Or, TrueF, Var,
    Parts, box, clear_tables, conjuncts, contradictory, decompose_clause,
    disjuncts, is_literal, lnot, lor, nnf, sort_formulas,
)

__all__ = [
    "System", "KripkeModel", "evaluate",
    "is_satisfiable", "find_model",
    "entails", "entails_mod", "equivalent", "equivalent_mod", "clause_test",
    "DEFAULT_NODE_BUDGET", "clear_cache", "tree_model",
]

DEFAULT_NODE_BUDGET = 10 ** 6


class System(enum.Enum):
    """Frame condition: K imposes none, T requires a reflexive relation."""

    K = "K"
    T = "T"

    @classmethod
    def from_name(cls, name: str) -> "System":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown system {name!r}, expected K or T") from None


@dataclass(frozen=True)
class KripkeModel:
    """Finite pointed-model backbone: worlds, relation, per-world valuation."""

    worlds: tuple
    relation: frozenset
    valuation: dict

    def __post_init__(self):
        ws = set(self.worlds)
        for a, b in self.relation:
            if a not in ws or b not in ws:
                raise ValueError(f"relation references unknown world ({a}, {b})")

    def reflexive_closure(self) -> "KripkeModel":
        rel = set(self.relation) | {(w, w) for w in self.worlds}
        return KripkeModel(self.worlds, frozenset(rel), self.valuation)

    def to_dict(self) -> dict:
        return {
            "worlds": list(self.worlds),
            "relation": sorted([list(p) for p in self.relation]),
            "valuation": {str(w): sorted(self.valuation.get(w, ())) for w in self.worlds},
        }


def evaluate(model: KripkeModel, world, f: Formula) -> bool:
    """Truth of f at a world, by structural recursion on the six cases.

    Each (world, subformula) pair is evaluated once per call, so the time
    is bounded by subformulas times (worlds + edges), even where many
    paths of the relation reach the same world."""
    if world not in model.valuation and world not in model.worlds:
        raise ValueError(f"unknown world {world!r}")
    successors = {}
    for a, b in model.relation:
        successors.setdefault(a, []).append(b)
    valuation = model.valuation
    memo = {}

    def ev(w, g):
        k = (w, g.key)
        v = memo.get(k)
        if v is not None:
            return v
        if isinstance(g, Var):
            v = g.name in valuation.get(w, ())
        elif isinstance(g, TrueF):
            v = True
        elif isinstance(g, FalseF):
            v = False
        elif isinstance(g, Not):
            v = not ev(w, g.child)
        elif isinstance(g, And):
            v = all(ev(w, c) for c in g.children)
        elif isinstance(g, Or):
            v = any(ev(w, c) for c in g.children)
        elif isinstance(g, Box):
            v = all(ev(w2, g.child) for w2 in successors.get(w, ()))
        elif isinstance(g, Dia):
            v = any(ev(w2, g.child) for w2 in successors.get(w, ()))
        else:
            raise TypeError(f"unknown node {g!r}")
        memo[k] = v
        return v

    return ev(world, f)


# ---------------------------------------------------------------------------
# Tableau
# ---------------------------------------------------------------------------

class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes):
        self.left = nodes

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("tableau node budget exhausted")


class _Witness:
    """Open-branch skeleton: positive atoms plus successor subtrees."""

    __slots__ = ("atoms", "children")

    def __init__(self, atoms, children):
        self.atoms = atoms
        self.children = children


# cache: (formula keys of a world, system) -> _Witness | None
_sat_cache: dict = {}
_CACHE_LIMIT = 400_000
_MISS = object()  # a cached None is an unsatisfiable world


def clear_cache():
    """Empty the sat cache, the intern table and the NNF memo."""
    _sat_cache.clear()
    clear_tables()


def _branches(pending, seen, pos, neg, dias, boxes, system, budget):
    """Clash-free saturated branches of one world, produced lazily.

    Each branch is (positive atoms, dia bodies, box bodies) with the
    propositional connectives and, for T, the reflexivity rule fully
    applied.
    """
    idx = len(pending) - 1
    while idx >= 0:
        f = pending[idx]
        idx -= 1
        if f.key in seen:
            continue
        budget.tick()
        seen = seen | {f.key}
        if isinstance(f, FalseF):
            return
        if isinstance(f, TrueF):
            continue
        if isinstance(f, Var):
            if f.name in neg:
                return
            pos = pos | {f.name}
            continue
        if isinstance(f, Not):
            if f.child.name in pos:
                return
            neg = neg | {f.child.name}
            continue
        if isinstance(f, And):
            pending = pending[:idx + 1] + list(f.children)
            idx = len(pending) - 1
            continue
        if isinstance(f, Or):
            rest = pending[:idx + 1]
            for c in f.children:
                yield from _branches(rest + [c], seen, pos, neg, dias, boxes,
                                     system, budget)
            return
        if isinstance(f, Box):
            boxes = boxes | {f.child}
            if system is System.T:
                pending = pending[:idx + 1] + [f.child]
                idx = len(pending) - 1
            continue
        if isinstance(f, Dia):
            dias = dias | {f.child}
            continue
        raise TypeError(f"unknown node {f!r}")
    yield (frozenset(pos), dias, boxes)


def _solve(formulas, system: System, budget: _Budget):
    """Witness for a world satisfying all formulas, or None.

    `formulas` is the canonically ordered tuple of a root world (see
    `_root`) or the frozenset of a successor world; the tableau expands
    them last to first.  A root world is cached under the tuple of its
    keys, which is canonical and smaller than a frozenset of five or more.
    """
    keys = [f.key for f in formulas]
    key = (tuple(keys) if isinstance(formulas, tuple) else frozenset(keys),
           system)
    cached = _sat_cache.get(key, _MISS)
    if cached is not _MISS:
        return cached
    result = None
    start = list(formulas)
    empty = frozenset()
    for pos, dias, boxes in _branches(start, empty, empty, empty,
                                      empty, empty, system, budget):
        children = []
        ok = True
        for d in sort_formulas(dias):
            sub = _solve(frozenset({d} | boxes), system, budget)
            if sub is None:
                ok = False
                break
            children.append(sub)
        if ok:
            result = _Witness(pos, children)
            break
    if len(_sat_cache) >= _CACHE_LIMIT:
        _sat_cache.clear()
    _sat_cache[key] = result
    return result


def tree_model(tree, system: System):
    """(model, root) for a witness tree: a node with `atoms` (its true
    variables) and `children` (its successor subtrees).  A node shared by
    several parents, as the tableau's cached subwitnesses are, is one
    world.  Worlds are numbered in preorder from the root 0; under T every
    world also sees itself."""
    built = {}  # id(node) -> world
    relation = set()
    valuation = {}

    def build(node):
        if id(node) not in built:
            wid = built[id(node)] = len(built)
            valuation[wid] = frozenset(node.atoms)
            for child in node.children:
                relation.add((wid, build(child)))
        return built[id(node)]

    root = build(tree)
    model = KripkeModel(tuple(range(len(built))), frozenset(relation),
                        valuation)
    if system is System.T:
        model = model.reflexive_closure()
    return model, root


def _root(f):
    """The NNF conjuncts the root world starts from, in the order `land`
    gives them; None when one is false.  `f` is a formula or an iterable
    of formulas read conjunctively."""
    return conjuncts(nnf(g) for g in ((f,) if isinstance(f, Formula) else f))


def is_satisfiable(f, system: System,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Decide satisfiability of a formula, or of an iterable of formulas
    read conjunctively; raises BudgetExceededError when out of nodes."""
    start = _root(f)
    if start is None:
        return False
    if not start:
        return True
    return _solve(start, system, _Budget(node_budget)) is not None


def find_model(f, system: System,
               node_budget: int = DEFAULT_NODE_BUDGET):
    """(model, world) satisfying f, or None when f is unsatisfiable; f is
    a formula or an iterable of formulas read conjunctively."""
    start = _root(f)
    if start is None:
        return None
    witness = _solve(start, system, _Budget(node_budget))
    if witness is None:
        return None
    return tree_model(witness, system)


def entails(premise: Formula, conclusion: Formula, system: System,
            node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return not is_satisfiable((premise, lnot(conclusion)), system, node_budget)


def entails_mod(premise: Formula, theory: Formula, conclusion: Formula,
                system: System, node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Consequence modulo a theory: premise & theory |= conclusion."""
    return not is_satisfiable((premise, theory, lnot(conclusion)), system,
                              node_budget)


def equivalent(f: Formula, g: Formula, system: System,
               node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return (entails(f, g, system, node_budget)
            and entails(g, f, system, node_budget))


def equivalent_mod(f: Formula, g: Formula, theory: Formula, system: System,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    return (entails_mod(f, theory, g, system, node_budget)
            and entails_mod(g, theory, f, system, node_budget))


def clause_test(q: Formula, y: Formula, system: System,
                node_budget: int = DEFAULT_NODE_BUDGET):
    """Predicate `pi -> pi & []y |= q` for a clausal query q (false is
    the empty clause), prepared once for testing many clauses pi
    against it.

    In T each clause takes one tableau call.  In K a clause entails q iff
    each of its literals does (Bienvenu, JAIR 36, 2009), and each literal
    is decided one modal level down, on bodies; with P, <>chi and []zeta
    the parts of q and ~chi the conjunction of the negated chi:
    - q is valid modulo []y iff P holds a complementary pair or some
      y & ~chi & ~zeta is unsatisfiable, and then every clause entails it;
    - otherwise false and the disjuncts of q entail it, <>phi does iff
      phi & y & ~chi is unsatisfiable, []psi does iff psi & y & ~chi &
      ~zeta is for some zeta, and no other literal (true included) does.
    A literal's verdict is kept for the later clauses.
    """
    if system is System.T:
        by, not_q = box(y), nnf(lnot(q))
        return lambda pi: not is_satisfiable((pi, by, not_q), system,
                                             node_budget)
    q = nnf(q)
    # false is the empty clause: no literals, and not valid
    parts = (Parts(lor, (), (), ()) if isinstance(q, FalseF)
             else decompose_clause(q))
    body = (nnf(y),) + tuple(nnf(lnot(c)) for c in parts.dia)
    not_zetas = [nnf(lnot(z)) for z in parts.box]

    def unsat(*fs):
        return not is_satisfiable(body + fs, system, node_budget)

    if contradictory(parts.prop) or any(unsat(z) for z in not_zetas):
        return lambda pi: True
    known = {l.key: True for l in disjuncts(q) + (FALSE,)}

    def literal(l):
        v = known.get(l.key)
        if v is None:
            if isinstance(l, Dia):
                v = unsat(l.child)
            elif isinstance(l, Box):
                v = any(unsat(l.child, z) for z in not_zetas)
            elif is_literal(l) or isinstance(l, TrueF):
                v = False
            else:  # not a literal, so pi is not a clause
                v = not is_satisfiable((l, box(y), lnot(q)), system,
                                       node_budget)
            known[l.key] = v
        return v

    return lambda pi: all(literal(l) for l in disjuncts(nnf(pi)))
