"""Query answering over a compilation, KB files and JSON persistence."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple

from .errors import FormulaSyntaxError, SchemaError
from .formula import (
    Formula, box, land, lnot, parse, sort_formulas,
)
from .pi import CompilationResult
from .semantics import (
    DEFAULT_NODE_BUDGET, System, find_model, query_test,
    entails_mod,  # not called here; bench/layers.py wraps it by name
)

__all__ = [
    "QueryVerdict", "KnowledgeBaseFile", "answer_query",
    "answer_query_direct", "load_kb", "load_theory", "save_compilation",
    "load_compilation", "SCHEMA_VERSION",
]

SCHEMA_VERSION = 2


class QueryVerdict(NamedTuple):
    """Answer plus the evidence: an entailing compiled clause for a true
    compiled answer, a countermodel (model, world) for a false direct one."""

    query: Formula
    answer: bool
    witness: object
    method: str


def answer_query(comp: CompilationResult, q: Formula,
                 node_budget: int = DEFAULT_NODE_BUDGET) -> QueryVerdict:
    """Answer a clausal query from the compiled clause set: true iff some
    compiled clause entails the query modulo the boxed theory (Marquis
    1995; Bienvenu, JAIR 36, 2009), with the first such clause as witness.

    The query is a literal, a clause, `false` (the empty clause) or
    `true` (the valid clause); any other raises `NonClausalQueryError`.
    The entailment test is `semantics.query_test` of the query, which
    checks the query's clausality once per query, until `clear_cache()`
    (`~(a & b)` and `~a | ~b` parse to one query, and share it), and
    keeps each clause's verdict for the later queries and compiles: a
    repeated query costs one lookup per compiled clause.
    """
    entails = query_test(q, comp.y, comp.system, node_budget)
    for pi in comp.omega():
        if entails(pi):
            return QueryVerdict(q, True, pi, "compiled")
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


def _read_sections(path: str):
    """(formulas, theory) of a KB file: the lines before and after its
    `[theory]` header, each read up to its first `#`."""
    # utf-8-sig drops the byte-order mark some editors write first
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as err:
        # the error holds the file's bytes after any byte-order mark
        data, start = err.object, err.start
        line_start = data.rfind(b"\n", 0, start) + 1
        raise FormulaSyntaxError(
            f"byte 0x{data[start]:02x} is no UTF-8 text ({err.reason})",
            line=data.count(b"\n", 0, start) + 1,
            column=len(data[line_start:start].decode("utf-8")) + 1,
            source=path) from None
    formulas, theory = [], []
    section = formulas
    for line_no, raw in enumerate(text.split("\n"), start=1):
        # `#` is no token of the grammar, so a comment runs from the
        # first one to the end of the line, and columns before it stay
        raw = raw.partition("#")[0]
        line = raw.strip()
        if not line:
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
    return tuple(formulas), tuple(theory)


def load_kb(path: str) -> KnowledgeBaseFile:
    formulas, theory = _read_sections(path)
    if not formulas:
        raise FormulaSyntaxError("knowledge base has no formulas",
                                 line=1, column=1, source=path)
    return KnowledgeBaseFile(formulas, theory)


def load_theory(path: str) -> Formula:
    """The theory of a file read like a KB file: its formulas and its
    `[theory]` section together, either of which may be empty."""
    formulas, theory = _read_sections(path)
    if not formulas and not theory:
        raise FormulaSyntaxError("theory file has no formulas",
                                 line=1, column=1, source=path)
    return land(formulas + theory)


def save_compilation(comp: CompilationResult, path: str) -> None:
    payload = {
        "schema": SCHEMA_VERSION,
        "system": comp.system.value,
        "x": comp.x.key,
        "y": comp.y.key,
        "theta": [c.key for c in comp.theta],
        "stats": comp.stats,
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
        except UnicodeDecodeError as err:
            raise SchemaError(f"{path}: not UTF-8 text ({err})") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise SchemaError(f"{path}: top level is a JSON "
                          f"{type(payload).__name__}, expected an object")
    schema = payload.get("schema")
    # an exact int: true and 1.0 compare equal to 1 but are not schema 1
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise SchemaError(f"{path}: unsupported schema {schema!r}, "
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

    try:
        return CompilationResult(
            system=System.from_name(field("system", str)),
            x=formula(field("x"), "x"),
            y=formula(field("y"), "y"),
            theta=sort_formulas(formula(t, "theta")
                                for t in field("theta", list)),
            stats=dict(field("stats", dict)),
        )
    except ValueError as err:  # an unknown system, a modal y, a bad theta
        raise SchemaError(f"{path}: {err}") from None
