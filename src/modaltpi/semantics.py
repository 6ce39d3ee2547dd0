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

from .errors import BudgetExceededError, NonClausalQueryError
from .formula import (
    And, Box, Dia, FalseF, Formula, Not, Or, TrueF, Var, FALSE, TRUE,
    _memo, _ordered, _table, box, conjuncts, disjuncts, is_clause, lnot,
    clear_cache,  # not called here; re-exported
)

__all__ = [
    "System", "KripkeModel", "evaluate",
    "is_satisfiable", "find_model",
    "entails", "entails_mod", "equivalent", "equivalent_mod",
    "query_test", "DEFAULT_NODE_BUDGET", "clear_cache", "tree_model",
]

DEFAULT_NODE_BUDGET = 10 ** 6


class System(enum.Enum):
    """Frame condition: K imposes none, T requires a reflexive relation."""

    K = "K"
    T = "T"

    # members are singletons, and Enum's own hash is a Python-level call
    # on every sat-cache and query-test key
    __hash__ = object.__hash__

    def __init__(self, value):
        # a plain attribute reads several times faster than `System.T`
        self.reflexive = value == "T"

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
        if len(ws) < len(self.worlds):
            raise ValueError(f"worlds {self.worlds!r} repeat a world")
        for a, b in self.relation:
            if a not in ws or b not in ws:
                raise ValueError(f"relation references unknown world ({a}, {b})")
        for w in self.valuation:
            if w not in ws:
                raise ValueError(f"valuation references unknown world {w!r}")

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
    if world not in model.worlds:
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
    """Steps left: the tableau's nodes, or the oracle's ticks; `tick`
    spends one and raises BudgetExceededError with `message` when none
    is left."""

    __slots__ = ("left", "message")

    def __init__(self, steps, message="tableau node budget exhausted"):
        self.left = steps
        self.message = message

    def tick(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError(self.message)


class _Witness:
    """Witness tree node: true atoms plus successor subtrees, built from
    a tableau's open branch or by the oracle's enumeration."""

    __slots__ = ("atoms", "children")

    def __init__(self, atoms, children):
        self.atoms = atoms
        self.children = children


# cache: (formula keys of a world in canonical order, system) ->
# _Witness | None, kept by `formula._memo`
_sat_cache = _table()
# query tests: (query key, theory key, system, node budget) -> the
# predicate `_prepare` makes, kept by `formula._memo` for
# `answer_query` and `pi._minimize`
_query_tests = _table()
# query halves: query key -> what `_half` makes, the part of a query
# test that no theory, system or budget changes
_query_halves = _table()
# kept open root branches past which a clause test decides each literal
# by one tableau call
_BRANCH_CAP = 64


def _branches(todo, system, budget, state=None):
    """Open branches of one world, produced lazily.

    `todo` is a list of formulas, expanded from its end.  A branch is
    the state (todo, seen keys, atoms, dia bodies, box bodies, waiting
    disjunctions), kept on an explicit stack.  Each branch first expands
    every formula but `Or`, spending one node per formula it has not
    seen and, for T, applying the reflexivity rule; it sets each `Or`
    aside as the tuple of its disjuncts.  A propositional literal
    clashes when its complement's key, `~p` for `p` and `p` for `~p`, is
    seen.  Then one pass over the waiting tuples drops those with a
    disjunct already seen, closes the branch when every disjunct clashes,
    and expands a lone open disjunct as a unit; the two steps repeat
    until no unit is left.  Only then does the branch split, on its
    first waiting tuple, one branch per open disjunct in canonical
    order, and only there is its state copied.  A saturated branch then
    takes the modal step: one successor world per dia body, holding that
    body and the box bodies, decided by `_solve` in canonical order; the
    branch closes at the first world with no witness.  Each branch
    yielded is open: its seen keys and atoms, its dia and box bodies by
    printed form, none shared, and its successor worlds' witnesses.
    Given `state`, a branch's (seen keys, dia bodies, box bodies), the
    root starts from a copy of it with no atoms, which only a witness
    reads: so a kept branch resumes with `todo` and stays as it is.
    """
    reflexive = system.reflexive
    tick = budget.tick
    if state:
        seen, dias, boxes = state
        stack = [(todo, set(seen), set(), _by_key(dias), _by_key(boxes), [])]
    else:
        stack = [(todo, set(), set(), {}, {}, [])]
    while stack:
        todo, seen, pos, dias, boxes, ors = stack.pop()
        closed = False
        while todo:
            while todo:  # expand everything but Or
                f = todo.pop()
                key = f.key
                if key in seen:
                    continue
                tick()
                seen.add(key)
                cls = type(f)  # node classes have no subclasses
                if cls is Var:
                    if "~" + key in seen:
                        closed = True
                        break
                    pos.add(f.name)
                elif cls is Not:
                    if f.child.key in seen:
                        closed = True
                        break
                elif cls is And:
                    todo.extend(f.children)
                elif cls is Or:
                    ors.append(f.children)
                elif cls is Box:
                    f = f.child
                    boxes[f.key] = f
                    if reflexive:
                        todo.append(f)
                elif cls is Dia:
                    f = f.child
                    dias[f.key] = f
                elif cls is FalseF:
                    closed = True
                    break
                elif cls is not TrueF:
                    raise TypeError(f"unknown node {f!r}")
            if closed or not ors:
                break
            waiting = []  # one propagation pass
            for alts in ors:
                left = []
                for c in alts:
                    if c.key in seen:
                        break
                    cls = type(c)
                    if not ((cls is Var and "~" + c.key in seen)
                            or (cls is Not and c.child.key in seen)):
                        left.append(c)
                else:
                    if not left:
                        closed = True
                        break
                    if len(left) == 1:
                        todo.append(left[0])
                    else:
                        waiting.append(alts if len(left) == len(alts)
                                       else tuple(left))
            if closed:
                break
            ors = waiting
        if closed:
            continue
        if not ors:
            # the modal step, inline: a helper would add a frame per
            # modal level, and cut the <> chains the tableau can decide
            children = []
            for key in _ordered(dias):
                sub = _solve({**boxes, key: dias[key]}, system, budget)
                if sub is None:
                    break
                children.append(sub)
            else:
                yield seen, pos, dias, boxes, children
            continue
        first, rest = ors[0], ors[1:]
        # the last disjunct, explored last, takes the branch's own sets
        stack.append(([first[-1]], seen, pos, dias, boxes, rest))
        for c in reversed(first[:-1]):
            stack.append(([c], set(seen), set(pos), dict(dias), dict(boxes),
                          list(rest)))


def _by_key(bodies) -> dict:
    """Formulas by printed form."""
    return {b.key: b for b in bodies}


def _solve(world, system: System, budget: _Budget):
    """Witness for a world satisfying all its formulas, or None.

    A world is a dict from printed form to formula, a root's from
    `conjuncts` and a successor's from the modal step of `_branches`;
    the tableau expands it in canonical order, last to first, and caches
    it under the tuple of its keys in that order.  So verdicts, witnesses
    and the nodes a cold cache spends do not depend on the hash seed.
    """
    keys = tuple(_ordered(world))
    return _memo(_sat_cache, (keys, system),
                 _expand, keys, world, system, budget)


def _expand(keys, world, system: System, budget: _Budget):
    """`_solve` of a world missing from the cache, its keys in canonical
    order: the atoms and successor witnesses of its first open branch."""
    for _, pos, _, _, children in _branches(
            list(map(world.__getitem__, keys)), system, budget):
        return _Witness(frozenset(pos), children)
    return None


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
            if system.reflexive:
                relation.add((wid, wid))
            for child in node.children:
                relation.add((wid, build(child)))
        return built[id(node)]

    root = build(tree)
    return KripkeModel(tuple(range(len(built))), frozenset(relation),
                       valuation), root


def _solve_root(f, system: System, node_budget: int):
    """Witness for f, a formula or an iterable of formulas read
    conjunctively, or None when f is unsatisfiable.  The root world is
    the conjuncts `land` would join, by printed form, or `false` alone
    when one of them is false, which spends its one node as `_prepare`'s
    expansion of `false` does: so the direct and compiled answers to
    `true` need the same budget."""
    root = conjuncts((f,) if isinstance(f, Formula) else f)
    return _solve({FALSE.key: FALSE} if root is None else root, system,
                  _Budget(node_budget))


def is_satisfiable(f, system: System,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> bool:
    """Decide satisfiability of a formula, or of an iterable of formulas
    read conjunctively; raises BudgetExceededError when out of nodes."""
    return _solve_root(f, system, node_budget) is not None


def find_model(f, system: System,
               node_budget: int = DEFAULT_NODE_BUDGET):
    """(model, world) satisfying f, or None when f is unsatisfiable; f is
    a formula or an iterable of formulas read conjunctively."""
    witness = _solve_root(f, system, node_budget)
    return None if witness is None else tree_model(witness, system)


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


def _half(q: Formula):
    """The query's own half of its tests: its negated literals, and its
    literals' keys.  A query that is no clause raises
    `NonClausalQueryError`."""
    if not is_clause(q):
        raise NonClausalQueryError(f"not a clausal query: {q}")
    lits = disjuncts(q)  # false is the empty clause, and its own disjunct
    return tuple(map(lnot, lits)), tuple(l.key for l in lits)


def _prepare(q: Formula, y: Formula, system: System, node_budget: int):
    """The test `query_test` keeps for q, y, system and node_budget: the
    query's half, kept in `_query_halves` for every theory, system and
    budget, joined with every open root branch of []y & ~q that
    `_branches` yields, up to `_BRANCH_CAP` of them, each kept as its
    seen keys, dia bodies and box bodies."""
    negs, keys = _memo(_query_halves, q.key, _half, q)
    by = box(y)
    budget = _Budget(node_budget)
    branches = []
    # a fresh list, since _branches pops from it
    for seen, _, dias, boxes, _ in _branches(
            [by, *negs], system, budget):
        if len(branches) == _BRANCH_CAP:
            # in T each clause of y can double the branches, so a wide
            # theory is tested one tableau call per literal instead
            return _WholeClauseTest(system, node_budget, (by, *negs),
                                    by, keys).clause
        # tuples, which hold a kept branch in less memory than sets and
        # dicts; a literal check keys the bodies again
        branches.append((tuple(seen), tuple(dias.values()),
                         tuple(boxes.values())))
    if not branches:
        # kept apart from _ClauseTest, whose seeded verdicts need q not
        # valid: about half the tests a stream of distinct queries
        # prepares are valid ones, and sending them through _ClauseTest
        # made compiled answers 7-14% slower
        return _valid
    return _ClauseTest(system, node_budget, tuple(branches), by, keys).clause


def _valid(pi):
    """The test of a query valid modulo the theory."""
    return True


class _ClauseTest:
    """A prepared `query_test`: `branches` are the open root branches of
    []y & ~q, each its seen keys, dia bodies and box bodies held in
    tuples, which a check resumes as `state`; `known` keeps each
    verdict reached, under a clause's or a disjunct's key, and starts
    from those the preparation proved, for `by`, []y, and `keys`, q's
    disjuncts.  One object with slots, so that a kept test holds few
    objects."""

    __slots__ = ("system", "node_budget", "branches", "known")

    def __init__(self, system, node_budget, branches, by, keys):
        self.system, self.node_budget, self.branches = (
            system, node_budget, branches)
        # q is not valid modulo []y, so neither true nor []y entails it
        self.known = {FALSE.key: True, TRUE.key: False, by.key: False,
                      **dict.fromkeys(keys, True)}

    def clause(self, pi):
        """pi & []y |= q, for any pi: each of its disjuncts entails q."""
        known = self.known
        v = known.get(pi.key)
        if v is None:
            v = True
            for l in disjuncts(pi):
                w = known.get(l.key)
                if w is None:
                    w = known[l.key] = self.literal(l)
                if not w:
                    v = False
                    break
            known[pi.key] = v
        return v

    def literal(self, l):
        """l & []y |= q: the disjunct l closes every kept branch."""
        branches, system = self.branches, self.system
        cls = type(l)
        if cls is Var or cls is Not:
            k = lnot(l).key
            return all(k in seen for seen, _, _ in branches)
        budget = _Budget(self.node_budget)
        if cls is Dia:  # one more successor world, with the []-bodies
            body = {l.child.key: l.child}
            return all(_solve({**_by_key(boxes), **body}, system, budget)
                       is None for _, _, boxes in branches)
        # any other disjunct joins each branch, where []psi joins the
        # []-bodies, and in T asserts psi at the root too; it entails q
        # iff no branch resumed with it has an open branch left
        return all(next(_branches([l], system, budget, b), None) is None
                   for b in branches)


class _WholeClauseTest(_ClauseTest):
    """A prepared `query_test` past `_BRANCH_CAP` open root branches:
    `branches` holds the conjuncts of []y & ~q instead of kept branches,
    and a disjunct entails q iff it is unsatisfiable with them."""

    __slots__ = ()

    def literal(self, l):
        """l & []y |= q: one tableau call under a budget of its own."""
        return _solve_root((l, *self.branches), self.system,
                           self.node_budget) is None


def query_test(q: Formula, y: Formula, system: System,
               node_budget: int = DEFAULT_NODE_BUDGET):
    """Predicate `pi -> pi & []y |= q` for a clausal query q, prepared
    once per query, theory, system and budget and kept in `_query_tests`
    until `clear_cache()`.  Its verdicts depend on nothing else, so the
    queries and the minimizations of every compilation with the same
    theory share it.  The query's own half, its clausality check and
    its negated literals, is made once per query and kept in
    `_query_halves` for every theory, system and budget.  A query that
    is no clause (`is_clause`) raises `NonClausalQueryError` on every
    ask; a preparation that runs out of budget, or of a non-clausal
    query, keeps nothing.

    One design serves K and T.  The preparation expands []y & ~q once,
    under one budget, and keeps its open root branches: those
    whose every <>-body has a successor world with the branch's
    []-bodies.  With none left q is valid modulo []y, and every clause
    entails it.  Otherwise the test starts from the verdicts this
    proved: false and each disjunct of q entail q, true and []y do not.
    A clause entails q iff each of its disjuncts does (Bienvenu, JAIR
    36, 2009).  Past `_BRANCH_CAP` kept branches (in T each clause of y
    can double them) the preparation stops, and each disjunct l is
    decided by one tableau call under a budget of its own: it entails q
    iff l & []y & ~q is unsatisfiable.  Otherwise a disjunct entails q
    iff it closes every kept branch, checked under a budget of its own
    that all the worlds it tries share:
    - a propositional literal iff its complement's key is on every branch;
    - <>phi iff on every branch phi has no successor world with the
      []-bodies;
    - any other disjunct iff each branch resumed with it closes, so a
      premise that is no clause is decided on both sides of the cap;
      []psi so in K and T alike: psi joins the []-bodies, and in T is
      asserted at the root too.
    Each clause's and each disjunct's verdict is kept, so a clause
    already judged costs one lookup; a check that raises keeps neither.
    """
    return _memo(_query_tests, (q.key, y.key, system, node_budget),
                 _prepare, q, y, system, node_budget)
