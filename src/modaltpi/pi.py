"""Candidate implicates, minimization, prime implicates and compilation.

The pipeline: put the knowledge base (conjoined with the boxed theory)
into outer-level DNF, generate per-term candidate clauses, distribute one
candidate per term into disjunctions, then minimize modulo the theory in
one pass over the clauses in canonical order, keeping the first clause of
each equivalence class unless another clause strictly entails it.
Each check `a & []y |= b` is made by `semantics.clause_test(b, ...)`,
prepared once per conclusion, so in K it goes literal by literal, with
the verdicts of the literals kept, as compiled answers do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InconsistentTermError, PreconditionError
from .formula import (
    Box, Formula, TrueF, Var, FALSE, TRUE,
    box, contradictory, decompose_term, dia, disjuncts, land, lor,
    modal_depth, nnf, sort_formulas,
)
from .normal_forms import DEFAULT_SIZE_CAP, distribute, to_cnf, to_dnf
from .semantics import (
    DEFAULT_NODE_BUDGET, System, clause_test, entails,
    # not called here; bench/layers.py wraps them by name
    entails_mod, equivalent_mod,
)

__all__ = [
    "CompilationResult", "term_candidates", "candidates",
    "prime_implicates", "compile_kb",
    "is_horn", "default_theory",
]


@dataclass(frozen=True)
class CompilationResult:
    """Everything the query answerer needs, plus bookkeeping counters."""

    x: Formula
    y: Formula
    system: System
    candidates: tuple
    theta: tuple
    box_y: Formula
    horn_advisory: bool
    stats: dict

    def __post_init__(self):
        extra = set() if isinstance(self.box_y, TrueF) else {self.box_y}
        object.__setattr__(self, "_omega",
                           sort_formulas(set(self.theta) | extra))

    def omega(self) -> tuple:
        """The compiled clause set: theta together with the boxed theory,
        built once.  A trivial (true) theory contributes no clause."""
        return self._omega


def term_candidates(parts) -> tuple:
    """Candidate implicate clauses of a single term, given as a formula or
    as its `Parts`.

    Propositional literals pass through; each <>-body is bundled with the
    conjunction of all []-bodies under <>; the []-bodies are bundled under
    a single [].  The construction is syntactic, the same in K and T.
    """
    if isinstance(parts, Formula):
        parts = decompose_term(parts)
    if contradictory(parts.prop):
        raise InconsistentTermError(f"term {parts.formula()} is contradictory")
    out = list(parts.prop)
    boxed = land(parts.box)
    for b in parts.dia:
        out.append(dia(land(b, boxed)))
    if parts.box:
        out.append(box(boxed))
    return sort_formulas(set(out))


def candidates(f: Formula, max_clauses: int = DEFAULT_SIZE_CAP) -> tuple:
    """Candidate implicates of a formula: distribute per-term candidates.

    Returns (false,) when the formula has no satisfiable terms at the
    propositional level, and () when it is the constant true.
    """
    g = nnf(f)
    terms = to_dnf(g, max_clauses).terms
    if not terms:
        return (FALSE,)
    if len(terms) == 1 and isinstance(terms[0], TrueF):
        return ()
    per_term = [term_candidates(t) for t in terms]
    return sort_formulas(set(distribute(per_term, lor, max_clauses)))


def _minimize(clauses, theory: Formula, system: System,
              node_budget: int = DEFAULT_NODE_BUDGET):
    """The strongest clauses modulo the theory, one per equivalence class;
    returns (surviving clauses, number of clause-pair entailment checks).

    One pass in canonical order: a clause that some survivor entails is
    dropped (it is equivalent to an earlier clause, or weaker); otherwise
    it removes every survivor it entails, each now strictly entailed, and
    joins them.  Each ordered pair is checked at most once, with the
    test `semantics.clause_test` prepared once per conclusion."""
    y = theory.child if isinstance(theory, Box) else theory
    tests = {}
    calls = 0

    def implies(a, b):
        nonlocal calls
        calls += 1
        test = tests.get(b.key)
        if test is None:
            test = tests[b.key] = clause_test(b, y, system, node_budget)
        return test(a)

    cs = sort_formulas(set(clauses))
    # cheap sweep first: a clause whose disjuncts strictly contain another
    # clause's is entailed by it outright
    dsets = {c.key: frozenset(d.key for d in disjuncts(c)) for c in cs}
    kept = []
    for c in cs:
        if any(dsets[o.key] < dsets[c.key] for o in cs):
            continue
        if not any(implies(s, c) for s in kept):
            kept = [s for s in kept if not implies(c, s)] + [c]
    return tuple(kept), calls


def prime_implicates(x: Formula, system: System = System.T,
                     max_clauses: int = DEFAULT_SIZE_CAP,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> tuple:
    """Entailment-minimal implicates of x (theory-free minimization)."""
    return _minimize(candidates(x, max_clauses), TRUE, system,
                     node_budget)[0]


def is_horn(y: Formula) -> bool:
    """At most one positive literal per clause of the propositional CNF."""
    if modal_depth(y) != 0:
        raise ValueError("horn check expects a propositional formula")
    for clause in to_cnf(y).clauses:
        if sum(1 for l in disjuncts(clause) if isinstance(l, Var)) > 1:
            return False
    return True


def default_theory(x: Formula, system: System = System.T) -> Formula:
    """Propositional clauses of the CNF of x, re-verified as entailed."""
    props = [c for c in to_cnf(nnf(x)).clauses if modal_depth(c) == 0]
    y = land(props)
    if not entails(x, y, system):
        raise PreconditionError("extracted theory is not entailed")
    return y


def compile_kb(x: Formula, y: Formula, system: System = System.T,
               max_clauses: int = DEFAULT_SIZE_CAP,
               node_budget: int = DEFAULT_NODE_BUDGET) -> CompilationResult:
    """Compile x against the boxed propositional theory y: the theory
    prime implicates of x, ready for queries together with []y.

    Requires y propositional and x |= y; candidates are computed for
    x & []y and minimized modulo []y.
    """
    if modal_depth(y) != 0:
        raise PreconditionError("theory must be propositional")
    if not entails(x, y, system, node_budget):
        raise PreconditionError("knowledge base does not entail the theory")
    started = time.perf_counter()
    by = box(y)
    cands = candidates(land(x, by), max_clauses)
    theta, calls = _minimize(cands, by, system, node_budget)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return CompilationResult(
        x=x, y=y, system=system,
        candidates=cands, theta=theta, box_y=by,
        horn_advisory=is_horn(y),
        stats={
            "nb_cl_candidates": len(cands),
            "nb_cl_theta": len(theta),
            "entailment_calls": calls,
            "elapsed_ms": elapsed_ms,
        },
    )

