"""Query answering over a compilation, KB files and JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import FormulaSyntaxError, NonClausalQueryError, SchemaError
from .formula import (
    Formula, TRUE, box, classify, land, lnot, nnf, parse, sort_formulas,
)
from .pi import CompilationResult
from .semantics import (
    DEFAULT_NODE_BUDGET, System, clause_test, find_model,
    entails_mod,  # not called here; bench/layers.py wraps it by name
)

__all__ = [
    "QueryVerdict", "KnowledgeBaseFile", "answer_query",
    "answer_query_direct", "load_kb", "save_compilation", "load_compilation",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class QueryVerdict:
    """Answer plus the evidence: an entailing compiled clause for a true
    compiled answer, a countermodel (model, world) for a false direct one."""

    query: Formula
    answer: bool
    witness: object
    method: str


def answer_query(comp: CompilationResult, q: Formula, strict: bool = False,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> QueryVerdict:
    """Answer a clausal query from the compiled clause set.

    Default reading: true iff some compiled clause entails the query
    modulo the boxed theory.  `strict` switches to requiring every
    compiled clause to entail it, kept for comparison.  The entailment
    test is `semantics.clause_test`, prepared once per query.
    """
    if classify(nnf(q)) not in ("literal", "clause"):
        raise NonClausalQueryError(f"not a clausal query: {q}")
    entails = clause_test(q, comp.y, comp.system, node_budget)
    # an empty omega compiles the knowledge base true; read it as the one
    # clause true so that neither reading answers vacuously
    pool = comp.omega() or (TRUE,)
    for pi in pool:
        if entails(pi):
            if not strict:
                return QueryVerdict(q, True, pi, "compiled")
        elif strict:
            return QueryVerdict(q, False, None, "compiled")
    if strict:
        return QueryVerdict(q, True, pool[0], "compiled")
    return QueryVerdict(q, False, None, "compiled")


def answer_query_direct(x: Formula, y: Formula, q: Formula, system: System,
                        node_budget: int = DEFAULT_NODE_BUDGET) -> QueryVerdict:
    """Baseline: decide x |= q modulo []y with the tableau directly; a
    false answer carries a countermodel (model, world)."""
    found = find_model((x, box(y), lnot(q)), system, node_budget)
    return QueryVerdict(q, found is None, found, "direct")


# ---------------------------------------------------------------------------
# KB files: one formula per line, '#' comments, optional [theory] section
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KnowledgeBaseFile:
    formulas: tuple
    theory: tuple
    path: str

    def kb_formula(self) -> Formula:
        return land(self.formulas)

    def theory_formula(self) -> Formula:
        return land(self.theory) if self.theory else TRUE


def load_kb(path: str) -> KnowledgeBaseFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    formulas, theory = [], []
    section = formulas
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower() == "[theory]":
            section = theory
            continue
        try:
            section.append(parse(raw))
        except FormulaSyntaxError as err:
            raise FormulaSyntaxError(err.message, line=line_no,
                                     column=err.column,
                                     source=path) from None
    if not formulas:
        raise FormulaSyntaxError("knowledge base has no formulas",
                                 line=1, column=1, source=path)
    return KnowledgeBaseFile(tuple(formulas), tuple(theory), path)


def save_compilation(comp: CompilationResult, path: str) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "system": comp.system.value,
        "x": comp.x.key,
        "y": comp.y.key,
        "box_y": comp.box_y.key,
        "candidates": [c.key for c in comp.candidates],
        "theta": [c.key for c in comp.theta],
        "stats": {
            "nb_cl_candidates": comp.stats["nb_cl_candidates"],
            "nb_cl_theta": comp.stats["nb_cl_theta"],
            "entailment_calls": comp.stats["entailment_calls"],
            "elapsed_ms": comp.stats["elapsed_ms"],
        },
        "horn_advisory": comp.horn_advisory,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_compilation(path: str) -> CompilationResult:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as err:
            raise SchemaError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level is a JSON "
                          f"{type(payload).__name__}, expected an object")
    if payload.get("schema") != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: unsupported schema {payload.get('schema')!r}, "
            f"expected {SCHEMA_VERSION}")

    def field(name, kind=object):
        if name not in payload:
            raise SchemaError(f"{path}: missing field {name!r}")
        value = payload[name]
        if not isinstance(value, kind):
            raise SchemaError(f"{path}: field {name!r} holds {value!r}, "
                              f"expected a {kind.__name__}")
        return value

    def formula(text, name):
        if not isinstance(text, str):
            raise SchemaError(f"{path}: field {name!r} holds {text!r}, "
                              "expected formula text")
        return parse(text, source=f"{path}, field {name!r}")

    def clauses(name):
        return sort_formulas(formula(t, name) for t in field(name, list))

    try:
        system = System.from_name(field("system", str))
    except ValueError as err:
        raise SchemaError(f"{path}: {err}") from None
    y, box_y = formula(field("y"), "y"), formula(field("box_y"), "box_y")
    # queries read the theory from y, so box_y must be the same theory
    if box_y != box(y):
        raise SchemaError(f"{path}: field 'box_y' holds {box_y.key!r}, "
                          f"expected {box(y).key!r}")
    return CompilationResult(
        x=formula(field("x"), "x"),
        y=y,
        system=system,
        candidates=clauses("candidates"),
        theta=clauses("theta"),
        box_y=box_y,
        horn_advisory=bool(field("horn_advisory")),
        stats=dict(field("stats", dict)),
    )
