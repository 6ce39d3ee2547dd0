"""Command line surface: tpi compile / query / check / oracle.

Exit codes: 0 success or true answer, 1 false answer, failed check or
a standard output closed by its reader (nothing is printed then), 2 input
error, 3 resource or size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (
    BudgetExceededError, CapacityError, ModalTpiError, NonClausalQueryError,
)
from .formula import land, parse
from .normal_forms import DEFAULT_SIZE_CAP
from .oracle import DEFAULT_ENUM_BUDGET, sat_by_enumeration
from .pi import compile_kb, default_theory, prime_implicates
from .qa import (
    answer_query, answer_query_direct, load_compilation, load_kb,
    load_theory, save_compilation,
)
from .semantics import (
    DEFAULT_NODE_BUDGET, System, entails_mod, equivalent_mod,
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


def _read_kb(args):
    """(x, y): the --kb formula and the theory, which is the --theory file
    (formulas and [theory] section), else the KB's [theory] section, else
    with --auto-theory the KB's propositional clauses, else true."""
    kb = load_kb(args.kb)
    x = land(kb.formulas)
    if args.theory:
        return x, load_theory(args.theory)
    if kb.theory or not args.auto_theory:
        return x, land(kb.theory)
    return x, default_theory(x)


def _cmd_compile(args) -> int:
    system = System.from_name(args.system)
    x, y = _read_kb(args)
    comp = compile_kb(x, y, system,
                      max_clauses=args.max_terms,
                      node_budget=args.node_budget)
    save_compilation(comp, args.out)
    print(f"compiled {args.kb} -> {args.out}")
    print(f"  system              {system.value}")
    print(f"  theory              {y}")
    print(f"  candidates          {comp.stats['nb_cl_candidates']}")
    print(f"  theory prime impl.  {len(comp.theta)}")
    print(f"  entailment checks   {comp.stats['entailment_calls']}")
    print(f"  elapsed ms          {comp.stats['elapsed_ms']:.1f}")
    return EXIT_OK


def _cmd_query(args) -> int:
    comp = load_compilation(args.compilation)
    q = parse(args.query)
    try:
        verdict = answer_query(comp, q, args.node_budget)
    except NonClausalQueryError:
        print("note: query is not clausal, answering directly", file=sys.stderr)
        verdict = answer_query_direct(comp.x, comp.y, q, comp.system,
                                      args.node_budget)
    print("true" if verdict.answer else "false")
    if verdict.answer and verdict.method == "compiled":
        print(f"witness: {verdict.witness}")
    return EXIT_OK if verdict.answer else EXIT_FALSE


def _cmd_check(args) -> int:
    system = System.from_name(args.system)
    x, y = _read_kb(args)
    budget = args.node_budget
    comp = compile_kb(x, y, system, node_budget=budget)
    by = comp.box_y

    def entailed(premise, conclusion):
        return entails_mod(premise, by, conclusion, system, budget)

    checks = []
    checks.append(("candidates entailed by the base",
                   all(entailed(x, c) for c in comp.candidates)))
    checks.append(("compiled clauses entailed by the base",
                   all(entailed(x, t) for t in comp.theta)))
    checks.append(("compiled clauses pairwise incomparable",
                   not any(a.key != b.key and entailed(a, b)
                           for a in comp.theta for b in comp.theta)))
    checks.append(("base equivalent to compilation modulo theory",
                   equivalent_mod(x, land(comp.theta), by, system, budget)))
    plain = prime_implicates(land(x, by), system, node_budget=budget)
    checks.append(("compilation no larger than plain prime implicates",
                   len(comp.theta) <= len(plain)))

    failures = 0
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {label}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_FALSE


def _cmd_oracle(args) -> int:
    found = sat_by_enumeration(parse(args.formula),
                               System.from_name(args.system), args.budget)
    if found is None:
        print("unsat")
        return EXIT_FALSE
    model, world = found
    print("sat")
    print(json.dumps({"world": world, "model": model.to_dict()}, indent=2))
    return EXIT_OK


# Flags that several subcommands take, each declared once.
_SHARED_FLAGS = {
    "--kb": dict(required=True),
    "--theory": dict(help="file with the propositional theory"),
    "--auto-theory": dict(action="store_true",
                          help="use the propositional CNF clauses of the KB"),
    "--system": dict(default="T", choices=["K", "T", "k", "t"]),
    "--node-budget": dict(type=_nonnegative, default=DEFAULT_NODE_BUDGET),
}


def _shared_flags(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpi",
        description="Compile modal knowledge bases into theory prime "
                    "implicates and answer clausal queries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a KB against a theory")
    _shared_flags(p, "--kb", "--theory", "--auto-theory", "--system")
    p.add_argument("--out", required=True)
    p.add_argument("--max-terms", type=_nonnegative, default=DEFAULT_SIZE_CAP)
    _shared_flags(p, "--node-budget")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("query", help="answer a clausal query")
    p.add_argument("--compilation", required=True)
    p.add_argument("--query", required=True)
    _shared_flags(p, "--node-budget")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("check", help="run the invariant suite on one instance")
    _shared_flags(p, "--kb", "--theory", "--auto-theory", "--system",
                  "--node-budget")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle", help="bounded tree-model satisfiability")
    p.add_argument("--formula", required=True)
    _shared_flags(p, "--system")
    p.add_argument("--budget", type=_nonnegative, default=DEFAULT_ENUM_BUDGET)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone, as in `tpi oracle ... | true`; stdout
        # points at devnull so that the flush at exit cannot fail again
        # (Python's "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FALSE
    except (BudgetExceededError, CapacityError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ModalTpiError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
