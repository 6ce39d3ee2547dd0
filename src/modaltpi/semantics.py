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
    And, Box, Dia, FalseF, Formula, Not, Or, TrueF, Var,
    conjuncts, lnot, nnf, sort_formulas,
)

__all__ = [
    "System", "KripkeModel", "evaluate",
    "is_satisfiable", "find_model",
    "entails", "entails_mod", "equivalent", "equivalent_mod",
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

    def successors(self, w):
        return [b for a, b in self.relation if a == w]

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
    """Truth of f at a world, by structural recursion on the six cases."""
    if world not in model.valuation and world not in model.worlds:
        raise ValueError(f"unknown world {world!r}")
    if isinstance(f, Var):
        return f.name in model.valuation.get(world, ())
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, Not):
        return not evaluate(model, world, f.child)
    if isinstance(f, And):
        return all(evaluate(model, world, c) for c in f.children)
    if isinstance(f, Or):
        return any(evaluate(model, world, c) for c in f.children)
    if isinstance(f, Box):
        return all(evaluate(model, w2, f.child) for w2 in model.successors(world))
    if isinstance(f, Dia):
        return any(evaluate(model, w2, f.child) for w2 in model.successors(world))
    raise TypeError(f"unknown node {f!r}")


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


def clear_cache():
    _sat_cache.clear()


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
            for c in sort_formulas(f.children):
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
    if key in _sat_cache:
        return _sat_cache[key]
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
