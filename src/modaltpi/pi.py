"""Candidate implicates, minimization, prime implicates and compilation.

The pipeline: put the knowledge base (conjoined with the boxed theory)
into outer-level DNF, generate per-term candidate clauses, distribute one
candidate per term, by printed form, into picks, drop every pick that
strictly contains another (its clause is entailed outright), then
minimize the clauses of the rest modulo the theory in one pass in
canonical order, keeping the first clause of each equivalence class
unless another clause strictly entails it.  This front, up to the
minimization, depends on the formula and the size cap alone: `_front`
makes it once per pair, kept in `_candidate_sets`, and the K and T
compiles of one knowledge base and every `candidates` read share it.
Each check `a & []y |= b` is made by `semantics.query_test(b, ...)`, the
test compiled answers use, kept in the same table: in K and in T it goes
literal by literal, against the first 64 open branches of `[]y & ~b`,
and past them a literal that closes all 64 is confirmed by one tableau
call; the verdicts it reaches are shared with every later compile and
query with the same theory, system and budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

from .errors import CapacityError, PreconditionError
from .formula import (
    And, Box, Dia, Formula, TrueF, Var, FALSE, TRUE,
    _memo, _ordered, _table, box, conjuncts, dia, disjuncts, is_clause,
    land, lor, modal_depth, sort_formulas,
)
from .normal_forms import DEFAULT_SIZE_CAP, distribute, to_cnf, to_dnf
from .semantics import (
    DEFAULT_NODE_BUDGET, System, entails, query_test,
    # not called here; bench/layers.py wraps them by name
    entails_mod, equivalent_mod,
)

__all__ = [
    "CompilationResult", "term_candidates", "candidates",
    "prime_implicates", "compile_kb", "default_theory",
]


@dataclass(frozen=True)
class CompilationResult:
    """Everything the query answerer needs, plus bookkeeping counters.
    The theory y must be propositional and theta a non-empty tuple of
    clauses (`is_clause`), or construction raises
    `ValueError`.  Omega is built on the first `omega()` call, not
    here."""

    x: Formula
    y: Formula
    system: System
    theta: tuple
    stats: dict

    def __post_init__(self):
        if modal_depth(self.y) != 0:
            raise ValueError(f"theory {self.y} is not propositional")
        if not self.theta:
            raise ValueError("theta holds no clause")
        for c in self.theta:
            if not is_clause(c):
                raise ValueError(f"theta member {c} is not a clause")

    @property
    def box_y(self) -> Formula:
        """The boxed theory []y."""
        return box(self.y)

    @property
    def candidates(self) -> tuple:
        """The paper's candidate set of x & []y under the default size
        cap, which `candidates` builds on each read from the per-term
        groups that a default-cap compile kept."""
        return candidates(land(self.x, self.box_y))

    def omega(self) -> tuple:
        """The compiled clause set: theta together with the boxed theory,
        in canonical order, built on the first call and the same tuple
        on every later one.  A trivial (true) theory contributes no
        clause."""
        return self._omega

    @cached_property
    def _omega(self) -> tuple:
        clauses = {c.key: c for c in self.theta}
        box_y = self.box_y
        if not isinstance(box_y, TrueF):
            clauses[box_y.key] = box_y
        return tuple(map(clauses.__getitem__, _ordered(clauses)))


def term_candidates(t: Formula) -> tuple:
    """Candidate implicate clauses of a single term t, a literal or a
    conjunction of literals.

    Propositional literals pass through; each <>-body is bundled with the
    conjunction of all []-bodies under <>; the []-bodies are bundled under
    a single [].  The construction is syntactic, the same in K and T.
    One pass splits the literals into dicts keyed by printed form, and
    the candidates come out in canonical order, without duplicates.
    """
    out, dias, boxes = {}, {}, {}
    for lit in (t.children if isinstance(t, And) else (t,)):
        if isinstance(lit, Dia):
            dias[lit.child.key] = lit.child
        elif isinstance(lit, Box):
            boxes[lit.child.key] = lit.child
        else:
            out[lit.key] = lit
    boxed = land(boxes.values())
    for b in dias.values():
        c = dia(land(b, boxed))
        out[c.key] = c
    if boxes:
        c = box(boxed)
        out[c.key] = c
    return tuple(map(out.__getitem__, _ordered(out)))


# the printed forms of the pick that makes the clause false
_FALSE_PICK = frozenset((FALSE.key,))


def _picks(groups, max_clauses: int) -> set:
    """Every distinct pick of one candidate per group, each the printed
    forms of its clause's disjuncts; raises `CapacityError` when more
    than `max_clauses` picks of candidates are distinct."""
    keyed = [[c.key for c in g] for g in groups]
    picks = distribute(keyed, max_clauses, "candidate distribution")
    if any(FALSE.key in k for k in keyed):
        # a <>-body bundled with []false is false, which lor drops beside
        # any other disjunct
        picks = {p - _FALSE_PICK or p for p in picks}
    return picks


def _clauses(groups, picks) -> tuple:
    """The clauses of picks, in canonical order."""
    literals = {c.key: c for g in groups for c in g}
    return sort_formulas(lor(map(literals.__getitem__, p)) for p in picks)


# candidate fronts: (formula key, size cap) -> what `_front` makes, the
# same in K and T
_candidate_sets = _table()


def _front(f: Formula, max_clauses: int) -> tuple:
    """(groups, count, minimal) for f and the cap: the candidates of each
    term of f's outer DNF; the number of distinct picks of one candidate
    per term, which is the size of the paper's candidate set; and the
    clauses of the picks that strictly contain no other pick, in
    canonical order.  Kept per pair in `_candidate_sets` by `_memo`."""
    groups = tuple(term_candidates(t) for t in to_dnf(f, max_clauses).terms)
    picks = _picks(groups, max_clauses)
    # a clause whose disjuncts strictly contain another's is entailed by
    # it outright; a pick that contains another contains a minimal one,
    # which is shorter and so already kept
    minimal = []
    for p in sorted(picks, key=len):
        if not any(q < p for q in minimal):
            minimal.append(p)
    return groups, len(picks), _clauses(groups, minimal)


def candidates(f: Formula, max_clauses: int = DEFAULT_SIZE_CAP) -> tuple:
    """Candidate implicates of a formula: every disjunction of one
    candidate per term of its outer DNF, in canonical order.

    Returns (false,) when the formula has no satisfiable terms at the
    propositional level, and (true,) when it is the constant true.  The
    set depends on nothing but f and the cap, so it is built on each read
    from the per-term groups of the pair's `_front`, which the K and T
    compiles of one formula and every read share.  A formula whose terms
    or picks pass the cap raises `CapacityError` and keeps nothing.
    """
    groups = _memo(_candidate_sets, (f.key, max_clauses),
                   _front, f, max_clauses)[0]
    return _clauses(groups, _picks(groups, max_clauses))


def _minimize(clauses, y: Formula, system: System,
              node_budget: int = DEFAULT_NODE_BUDGET):
    """The strongest clauses modulo []y, for y the propositional theory,
    one per equivalence class; returns (surviving clauses, number of
    clause-pair entailment checks).

    One pass in canonical order, by printed form: a clause that some
    survivor entails is dropped (it is equivalent to an earlier clause,
    or weaker); otherwise it removes every survivor it entails, each now
    strictly entailed, and joins them.  Each ordered pair is checked at
    most once, with the conclusion's `semantics.query_test`, fetched
    once per call when the clause is first a conclusion, so a verdict
    kept by an earlier compile or query with the same theory costs no
    tableau call.
    `compile_kb` passes only the clauses of subset-minimal picks, the
    last member of `_front`; the whole candidate set gives the same
    theta, at more checks."""
    calls = 0
    tests = {}

    def implies(a, b):
        nonlocal calls
        calls += 1
        test = tests.get(b.key)
        if test is None:
            test = tests[b.key] = query_test(b, y, system, node_budget)
        return test(a)

    by_key = {c.key: c for c in clauses}
    kept = []
    for c in map(by_key.__getitem__, _ordered(by_key)):
        if not any(implies(s, c) for s in kept):
            kept = [s for s in kept if not implies(c, s)] + [c]
    return tuple(kept), calls


def prime_implicates(x: Formula, system: System = System.T,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """Entailment-minimal implicates of x: its theory prime implicates
    modulo the trivial theory, `compile_kb(x, true).theta`."""
    return compile_kb(x, TRUE, system, node_budget=node_budget).theta


# not called in the package; bench/layers.py wraps it by name
def is_horn(y: Formula) -> bool:
    """At most one positive literal per clause of the propositional CNF;
    False when that CNF passes the size cap."""
    if modal_depth(y) != 0:
        raise ValueError("horn check expects a propositional formula")
    try:
        clauses = to_cnf(y)
    except CapacityError:
        return False
    return all(sum(isinstance(l, Var) for l in disjuncts(c)) <= 1
               for c in clauses)


def default_theory(x: Formula) -> Formula:
    """The propositional clauses of the outer CNF of x, conjoined; the
    CNF is equivalent to x, so x entails each of them."""
    return land(c for c in to_cnf(x) if modal_depth(c) == 0)


def compile_kb(x: Formula, y: Formula, system: System = System.T,
               max_clauses: int = DEFAULT_SIZE_CAP,
               node_budget: int = DEFAULT_NODE_BUDGET) -> CompilationResult:
    """Compile x against the boxed propositional theory y: the theory
    prime implicates of x, ready for queries together with []y.

    Requires y propositional and x |= y, proved by tableau unless x is
    false or states each conjunct of y itself, which is read off the
    printed forms of their conjuncts with no node built.  The clauses
    of the subset-minimal picks of candidates of x & []y, read from
    `_candidate_sets` when an earlier compile in either system made the
    `_front`, are minimized modulo []y; `stats["nb_cl_candidates"]` is
    the size of the paper's whole candidate set, which the compile never
    builds.
    """
    if modal_depth(y) != 0:
        raise PreconditionError("theory must be propositional")
    # x states each conjunct of y, or x is false; a false y is proved
    stated, wanted = conjuncts((x,)), conjuncts((y,))
    shown = stated is None or (wanted is not None
                               and wanted.keys() <= stated.keys())
    if not shown and not entails(x, y, system, node_budget):
        raise PreconditionError("knowledge base does not entail the theory")
    started = time.perf_counter()
    f = land(x, box(y))
    _, count, minimal = _memo(_candidate_sets, (f.key, max_clauses),
                              _front, f, max_clauses)
    theta, calls = _minimize(minimal, y, system, node_budget)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return CompilationResult(
        x=x, y=y, system=system, theta=theta,
        stats={
            "nb_cl_candidates": count,
            "entailment_calls": calls,
            "elapsed_ms": elapsed_ms,
        },
    )

