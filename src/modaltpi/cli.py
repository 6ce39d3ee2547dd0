"""Command line surface: tpi compile / query / pi / check / oracle.

Exit codes: 0 success or true answer, 1 false answer or failed check,
2 input error, 3 resource or size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    BudgetExceededError, CapacityError, ModalTpiError, NonClausalQueryError,
)
from .formula import land, nnf, parse
from .normal_forms import DEFAULT_SIZE_CAP
from .oracle import OracleBounds, sat_by_enumeration, sufficient_bounds
from .pi import compile_kb, default_theory, prime_implicates
from .qa import (
    answer_query, answer_query_direct, load_compilation, load_kb,
    save_compilation,
)
from .semantics import (
    DEFAULT_NODE_BUDGET, System, entails_mod, equivalent_mod, evaluate,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _nonnegative(text: str) -> int:
    """argparse type of a budget or size cap: an integer of at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _resolve_theory(args, kb, system):
    if getattr(args, "theory", None):
        tf = load_kb(args.theory)
        return land(tf.formulas + tf.theory)
    if kb.theory:
        return kb.theory_formula()
    if getattr(args, "auto_theory", False):
        return default_theory(kb.kb_formula(), system)
    return kb.theory_formula()  # true: plain prime implicate mode


def _cmd_compile(args) -> int:
    kb = load_kb(args.kb)
    system = System.from_name(args.system)
    x = kb.kb_formula()
    y = _resolve_theory(args, kb, system)
    comp = compile_kb(x, y, system,
                      max_clauses=args.max_terms,
                      node_budget=args.node_budget)
    save_compilation(comp, args.out)
    print(f"compiled {args.kb} -> {args.out}")
    print(f"  system              {system.value}")
    print(f"  theory              {y}")
    print(f"  candidates          {comp.stats['nb_cl_candidates']}")
    print(f"  theory prime impl.  {comp.stats['nb_cl_theta']}")
    print(f"  entailment checks   {comp.stats['entailment_calls']}")
    print(f"  elapsed ms          {comp.stats['elapsed_ms']:.1f}")
    print(f"  horn theory         {'yes' if comp.horn_advisory else 'no'}")
    return EXIT_OK


def _cmd_query(args) -> int:
    comp = load_compilation(args.compilation)
    q = parse(args.query)
    try:
        verdict = answer_query(comp, q, strict=args.strict_paper_qa)
    except NonClausalQueryError:
        print("note: query is not clausal, answering directly", file=sys.stderr)
        verdict = answer_query_direct(comp.x, comp.y, q, comp.system)
    print("true" if verdict.answer else "false")
    if verdict.answer and verdict.method == "compiled" and verdict.witness is not None:
        print(f"witness: {verdict.witness}")
    return EXIT_OK if verdict.answer else EXIT_FALSE


def _cmd_pi(args) -> int:
    kb = load_kb(args.kb)
    system = System.from_name(args.system)
    for clause in prime_implicates(kb.kb_formula(), system,
                                   max_clauses=args.max_terms,
                                   node_budget=args.node_budget):
        print(clause)
    return EXIT_OK


def _cmd_check(args) -> int:
    kb = load_kb(args.kb)
    system = System.from_name(args.system)
    x = kb.kb_formula()
    y = _resolve_theory(args, kb, system)
    comp = compile_kb(x, y, system, node_budget=args.node_budget)
    by = comp.box_y
    xby = land(x, by)

    checks = []
    checks.append(("candidates entailed by the base",
                   all(entails_mod(x, by, c, system) for c in comp.candidates)))
    checks.append(("compiled clauses entailed by the base",
                   all(entails_mod(x, by, t, system) for t in comp.theta)))
    checks.append(("compiled clauses pairwise incomparable",
                   not any(a.key != b.key and entails_mod(a, by, b, system)
                           for a in comp.theta for b in comp.theta)))
    checks.append(("base equivalent to compilation modulo theory",
                   equivalent_mod(x, land(comp.theta), by, system)))
    plain = prime_implicates(xby, system)
    checks.append(("compilation no larger than plain prime implicates",
                   len(comp.theta) <= len(plain)))

    failures = 0
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_FALSE


def _cmd_oracle(args) -> int:
    f = parse(args.formula)
    system = System.from_name(args.system)
    suff = sufficient_bounds(f)
    depth = args.max_depth if args.max_depth is not None else suff.max_depth
    branching = (args.max_branching if args.max_branching is not None
                 else suff.max_branching)
    bounds = OracleBounds(depth, branching, suff.variables)
    outcome = sat_by_enumeration(f, system, bounds, budget=args.budget)
    print(outcome.verdict)
    if outcome.satisfiable:
        assert evaluate(outcome.model, outcome.world, nnf(f))
        print(json.dumps({"world": outcome.world,
                          "model": outcome.model.to_dict()}, indent=2))
    elif not outcome.definitive:
        print("note: bounds below the sufficient depth/branching for this "
              "formula; unsat verdict is not definitive", file=sys.stderr)
    return EXIT_OK if outcome.satisfiable else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpi",
        description="Compile modal knowledge bases into theory prime "
                    "implicates and answer clausal queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a KB against a theory")
    p.add_argument("--kb", required=True)
    p.add_argument("--theory", help="file with the propositional theory")
    p.add_argument("--auto-theory", action="store_true",
                   help="use the propositional CNF clauses of the KB")
    p.add_argument("--system", default="T", choices=["K", "T", "k", "t"])
    p.add_argument("--out", required=True)
    p.add_argument("--max-terms", type=_nonnegative, default=DEFAULT_SIZE_CAP)
    p.add_argument("--node-budget", type=_nonnegative,
                   default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("query", help="answer a clausal query")
    p.add_argument("--compilation", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--strict-paper-qa", action="store_true",
                   help="require every compiled clause to entail the query")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("pi", help="print the prime implicates of a KB")
    p.add_argument("--kb", required=True)
    p.add_argument("--system", default="T", choices=["K", "T", "k", "t"])
    p.add_argument("--max-terms", type=_nonnegative, default=DEFAULT_SIZE_CAP)
    p.add_argument("--node-budget", type=_nonnegative,
                   default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_pi)

    p = sub.add_parser("check", help="run the invariant suite on one instance")
    p.add_argument("--kb", required=True)
    p.add_argument("--theory")
    p.add_argument("--auto-theory", action="store_true")
    p.add_argument("--system", default="T", choices=["K", "T", "k", "t"])
    p.add_argument("--node-budget", type=_nonnegative,
                   default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="bounded tree-model satisfiability")
    p.add_argument("--formula", required=True)
    p.add_argument("--system", default="T", choices=["K", "T", "k", "t"])
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-branching", type=int, default=None)
    p.add_argument("--budget", type=_nonnegative, default=200_000)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ModalTpiError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
