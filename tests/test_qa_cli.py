import collections
import dataclasses
import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import modaltpi
import modaltpi.formula as formula_module
import modaltpi.pi as pi_module
import modaltpi.semantics as semantics_module
from modaltpi.cli import main
from modaltpi.errors import (
    BudgetExceededError, CapacityError, FormulaSyntaxError,
    NonClausalQueryError, SchemaError,
)
from modaltpi.formula import (
    FALSE, TRUE, box, disjuncts, is_clause, land, lnot, parse, var,
)
from modaltpi.pi import compile_kb, default_theory, prime_implicates
from modaltpi.qa import (
    KnowledgeBaseFile, QueryVerdict, answer_query, answer_query_direct,
    load_compilation, load_kb, save_compilation,
)
from modaltpi.semantics import (
    System, clear_cache, entails_mod, evaluate, is_satisfiable, query_test,
)

from conftest import (
    AT_NESTING_LIMIT, IFF_CHAIN, IFF_CHAINS, TOO_DEEP, clause_vocabulary,
    rand_clause, rand_formula, rand_instance, rand_prop, spelled_outside_nnf,
)


X_GOLDEN = "(p1 | p2) & <>[]~p3 & []<>p2"
Y_GOLDEN = "p1 | p2"


@pytest.fixture(scope="module")
def golden_k():
    return compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.K)


@pytest.fixture(scope="module")
def golden_t():
    return compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.T)


class TestAnswerQuery:
    def test_member_entails_itself(self, golden_k):
        verdict = answer_query(golden_k, parse("p1 | p2"))
        assert verdict.answer is True
        assert verdict.witness == parse("p1 | p2")
        assert verdict.method == "compiled"

    def test_nested_diamond_via_reflexivity(self, golden_t):
        verdict = answer_query(golden_t, parse("<><>p2"))
        assert verdict.answer is True
        assert entails_mod(verdict.witness, golden_t.box_y,
                           parse("<><>p2"), System.T)

    def test_unsupported_atom(self, golden_t):
        assert answer_query(golden_t, parse("p3")).answer is False

    def test_witnesses_reverify(self, golden_k):
        for q in (parse("p1 | p2 | p3"), parse("<>~p3"), parse("[](p1 | p2) | p1")):
            verdict = answer_query(golden_k, q)
            if verdict.answer:
                assert entails_mod(verdict.witness, golden_k.box_y, q,
                                   System.K)

    def test_strict_reading_rejects_member_query(self, golden_k):
        # with several incomparable survivors the universal reading (every
        # clause entails the query) fails even on a clause the base
        # clearly entails; answer_query reads it existentially
        q = parse("p1 | p2")
        universal = all(entails_mod(pi, golden_k.box_y, q, System.K)
                        for pi in golden_k.omega())
        assert universal is False
        assert answer_query(golden_k, q).answer is True
        assert answer_query_direct(golden_k.x, golden_k.y, q,
                                   System.K).answer is True

    def test_non_clausal_query_rejected(self, golden_k, golden_t):
        # on every ask, and a rejected query keeps no test
        clear_cache()
        for comp in (golden_k, golden_t, golden_k):
            with pytest.raises(NonClausalQueryError):
                answer_query(comp, parse("p1 & p2"))
        assert not semantics_module._query_tests

    def test_verdict_is_a_tuple(self, golden_k):
        verdict = QueryVerdict(parse("p1"), True, parse("p1 | p2"),
                               "compiled")
        assert (verdict.query, verdict.answer, verdict.witness,
                verdict.method) == tuple(verdict)
        assert tuple(verdict) == (parse("p1"), True, parse("p1 | p2"),
                                  "compiled")
        assert answer_query(golden_k, parse("p1 | p2")) == (
            parse("p1 | p2"), True, parse("p1 | p2"), "compiled")

    @pytest.mark.parametrize("system", [System.K, System.T])
    @pytest.mark.parametrize("x, y", [
        (X_GOLDEN, Y_GOLDEN),
        ("p & <>q & []~q", "true"),  # inconsistent
        ("<>false | []a", "true"),
        ("false", "true"),
    ])
    def test_false_is_the_empty_clause(self, system, x, y):
        x, y = parse(x), parse(y)
        comp = compile_kb(x, y, system)
        direct = answer_query_direct(x, y, FALSE, system).answer
        for q in (FALSE, parse("~true"), parse("false | false")):
            verdict = answer_query(comp, q)
            assert verdict.answer == direct, q
            if verdict.answer:
                assert not is_satisfiable((verdict.witness, comp.box_y),
                                          system)

    @pytest.mark.parametrize("system", [System.K, System.T])
    @pytest.mark.parametrize("x, y", [(X_GOLDEN, Y_GOLDEN), ("true", "true")])
    def test_true_is_the_valid_clause(self, system, x, y):
        x, y = parse(x), parse(y)
        comp = compile_kb(x, y, system)
        witness = comp.omega()[0]
        for text in ("true", "p1 | true", "[]true", "~false"):
            q = parse(text)
            assert answer_query_direct(x, y, q, system).answer is True
            verdict = answer_query(comp, q)
            assert verdict.answer is True, text
            assert verdict.witness == witness, text

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_true_costs_one_node_on_both_paths(self, system):
        # the direct root x & []y & false, which `conjuncts` closes,
        # spends its one node as the compiled expansion of false does
        x, y = parse("a & <>b"), parse("a")
        comp = compile_kb(x, y, system)
        for answer in (
                lambda budget: answer_query(comp, TRUE, budget),
                lambda budget: answer_query_direct(x, y, TRUE, system,
                                                   budget)):
            clear_cache()
            with pytest.raises(BudgetExceededError):
                answer(0)
            clear_cache()
            assert answer(1).answer is True

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_empty_compilation_is_the_clause_true(self, system):
        comp = compile_kb(TRUE, TRUE, system)
        assert comp.omega() == (TRUE,)
        for text in ("p | ~p", "p", "<>p | []~p", "[](p | ~p)", "<>p"):
            q = parse(text)
            direct = answer_query_direct(TRUE, TRUE, q, system).answer
            assert answer_query(comp, q).answer == direct, text


class TestClauseTest:
    """Compiled answers equal one tableau entailment check per clause."""

    # at a cap of 0 every test with an open root branch is past the cap,
    # and confirms each literal by one tableau call; at a cap of 1 some T
    # tests keep a branch that refutes literals and are past the cap too
    @pytest.mark.parametrize("cap", [64, 1, 0])
    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_matches_per_clause_entailment(self, system, cap, monkeypatch):
        monkeypatch.setattr(semantics_module, "_BRANCH_CAP", cap)
        clear_cache()
        rng = random.Random(5)
        names = ("a", "b")
        kbs = [rand_instance(rng, names=names) for _ in range(6)]
        kbs += [(x, TRUE) for x, _ in kbs[:2]]
        # the KB true (omega the clause true), the KB false, and a theory
        # modulo which queries such as []a are valid
        kbs += [(TRUE, TRUE), (FALSE, TRUE), (FALSE, var("a")),
                (parse("a & <>b"), var("a"))]
        for x, y in kbs:
            comp = compile_kb(x, y, system)
            pool = comp.omega()
            for clause in clause_vocabulary(names):
                for q in (clause, parse(f"~({lnot(clause)})")):
                    holds = [entails_mod(pi, comp.box_y, q, system)
                             for pi in pool]
                    found = answer_query(comp, q)
                    assert found.answer == any(holds), (x, y, q)
                    assert found.witness == (pool[holds.index(True)]
                                             if any(holds) else None)
        kept = [getattr(test, "__self__", None)
                for test in semantics_module._query_tests.values()]
        past = [t.branches for t in kept
                if t is not None and t.root is not None]
        # in K, []y & ~q has one open root branch at most, so no test
        # passes a cap of 1
        mixed = cap == 1 and system is System.T
        assert bool(past) == (cap == 0 or mixed)
        assert any(past) == mixed
        clear_cache()

    def test_t_branches_match_per_clause_entailment(self):
        # the disjunctive theory leaves []y & ~q two open root branches in
        # T, and a []-literal there asserts its body at the root too, so
        # that []y itself, a compiled clause, entails a | b in T, not in K
        x, y = parse("(a | b) & ([]~a | []c) & <>(b | c)"), parse("a | b")
        comp = compile_kb(x, y, System.T)
        pool = comp.omega()
        queries = (FALSE,) + clause_vocabulary(("a", "b", "c"))
        clear_cache()
        split = reflexive = 0
        for q in queries:
            holds = [entails_mod(pi, comp.box_y, q, System.T) for pi in pool]
            found = answer_query(comp, q)
            assert found.answer == any(holds), q
            assert found.witness == (pool[holds.index(True)]
                                     if any(holds) else None)
            kept = getattr(query_test(q, y, System.T), "__self__", None)
            split += kept is not None and len(kept.branches) >= 2
            reflexive += any(
                h and not entails_mod(pi, comp.box_y, q, System.K)
                for pi, h in zip(pool, holds))
        assert split and reflexive
        assert answer_query(comp, FALSE).answer is False
        # each literal of the vocabulary against a sample of queries
        literals = [c for c in clause_vocabulary(("a", "b", "c"))
                    if len(disjuncts(c)) == 1]
        for q in random.Random(3).sample(queries, 40) + [FALSE]:
            test = query_test(q, y, System.T)
            for l in literals:
                assert test(l) == entails_mod(l, comp.box_y, q, System.T), (
                    l, q)

    def test_wide_theory_past_the_branch_cap(self, monkeypatch):
        # in T each clause of y doubles the open root branches of
        # []y & ~q: 4,096 here, so past the cap a literal that closes
        # the 64 kept ones is confirmed by one tableau call
        y = land(parse(f"a{i} | b{i}") for i in range(12))
        x = land(box(y), parse("<>c & [](c -> d)"))
        comp = compile_kb(x, y, System.T)
        pool = comp.omega()
        queries = [parse(t) for t in (
            "a0 | e", "<>e", "<>d | e", "a0 | b0", "[](a0 | b0) | e",
            "<>c", "[]e | ~a1", "false", "true")]
        clear_cache()
        past = 0
        for q in queries:
            holds = [entails_mod(pi, comp.box_y, q, System.T) for pi in pool]
            found = answer_query(comp, q)
            assert found.answer == any(holds), q
            assert found.witness == (pool[holds.index(True)]
                                     if any(holds) else None)
            test = getattr(query_test(q, y, System.T), "__self__", None)
            past += test is not None and test.root is not None
        assert past >= 4
        # verdicts are kept per literal, the query's own seeded: neither
        # the query itself nor a clause of two decided literals calls,
        # and a kept branch refutes b1 with no call
        test = query_test(queries[0], y, System.T)
        assert len(test.__self__.branches) == 64
        assert test.__self__.root is not None
        calls = []
        real_solve = semantics_module._solve_root

        def solve(*args):
            calls.append(args)
            return real_solve(*args)

        monkeypatch.setattr(semantics_module, "_solve_root", solve)
        assert test(queries[0]) is True
        assert calls == []
        assert test(parse("b1")) is False
        assert calls == []
        assert test(parse("e | b1")) is False
        assert calls == []
        # []a0 asserts a0 at the reflexive root, so it closes every kept
        # branch, and one tableau call confirms it
        assert test(parse("[]a0")) is True
        assert len(calls) == 1
        # past the cap the literal checks spend the node budget a query is
        # given
        budgets = []
        real = semantics_module._Budget

        class Spy(real):
            def __init__(self, steps, *args):
                budgets.append(steps)
                super().__init__(steps, *args)

        monkeypatch.setattr(semantics_module, "_Budget", Spy)
        clear_cache()
        assert [answer_query(comp, q, node_budget=654_321).answer
                for q in queries[:2]] == [False, False]
        assert budgets and set(budgets) == {654_321}
        # the kept branches and the confirming call share one budget
        test = query_test(queries[0], y, System.T, 654_321)
        budgets.clear()
        assert test(parse("[]a0")) is True
        assert budgets == [654_321]
        clear_cache()

    @pytest.mark.parametrize("system", [System.K, System.T])
    @pytest.mark.parametrize("theory", ["(a & b) -> c", "~(a & b)"])
    def test_theory_outside_nnf(self, system, theory, tmp_path, capsys):
        # parse puts a theory in NNF, whether it comes from Python, a
        # KB's [theory] section or a saved compilation
        y = parse(theory)
        x = land(y, parse("<>(a | c) & [](a | b)"))
        comp = compile_kb(x, y, system)
        pool = comp.omega()
        queries = random.Random(7).sample(
            clause_vocabulary(("a", "b", "c")), 60) + [FALSE]
        clear_cache()
        answers = []
        for q in queries:
            holds = [entails_mod(pi, comp.box_y, q, system) for pi in pool]
            found = answer_query(comp, q)
            assert found.answer == any(holds), q
            assert found.witness == (pool[holds.index(True)]
                                     if any(holds) else None)
            answers.append(found.answer)
        assert any(answers) and not all(answers)
        kb, out = tmp_path / "kb.txt", tmp_path / "comp.json"
        kb.write_text(f"{x}\n[theory]\n{theory}\n")
        assert main(["compile", "--kb", str(kb), "--system", system.value,
                     "--out", str(out)]) == 0
        clear_cache()
        for q, answer in zip(queries, answers):
            assert main(["query", "--compilation", str(out),
                         "--query", str(q)]) == (0 if answer else 1), q
        capsys.readouterr()
        clear_cache()

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_non_clause_in_theta_rejected(self, system, tmp_path, capsys):
        # theta holds clauses only, whether built in Python or loaded
        comp = compile_kb(parse("a & <>b"), var("a"), system)
        bad = parse("(a & <>b) | []c")
        with pytest.raises(ValueError, match="not a clause"):
            dataclasses.replace(comp, theta=(bad,))
        path = tmp_path / "comp.json"
        save_compilation(comp, str(path))
        payload = json.loads(path.read_text())
        payload["theta"].append(bad.key)
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="not a clause"):
            load_compilation(str(path))
        assert main(["query", "--compilation", str(path),
                     "--query", "a"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


class TestQueryTests:
    """`semantics._query_tests`: one prepared clause test per query,
    theory, system and node budget, shared by every compilation."""

    @pytest.fixture(scope="class")
    def comps(self, golden_k, golden_t):
        # the last two compile different bases against one theory
        y = parse(Y_GOLDEN)
        return [golden_k, golden_t,
                compile_kb(parse("p1 & <>p2"), y, System.K),
                compile_kb(parse("p2 & [](p1 | ~p3)"), y, System.K)]

    def test_cold_and_warm_agree(self, comps):
        queries = clause_vocabulary(("p1", "p2", "p3"))
        cold = []
        for comp in comps:
            for q in queries:
                semantics_module._query_tests.clear()
                v = answer_query(comp, q)
                cold.append((v.answer, v.witness))
        clear_cache()
        for _ in range(2):  # filling the table, then reading it
            warm = [answer_query(comp, q) for comp in comps for q in queries]
            assert [(v.answer, v.witness) for v in warm] == cold
        assert len(semantics_module._query_tests) == 2 * len(queries)
        clear_cache()
        assert not semantics_module._query_tests

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_one_test_per_nnf(self, system):
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), system)
        clear_cache()
        verdicts = [answer_query(comp, parse(text))
                    for text in ("~(p1 & p3)", "~p1 | ~p3")]
        assert len({(v.answer, v.witness) for v in verdicts}) == 1
        assert list(semantics_module._query_tests) == [
            (parse("~p1 | ~p3").key, comp.y.key, system,
             semantics_module.DEFAULT_NODE_BUDGET)]
        clear_cache()

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_warm_ask_only_reads_kept_verdicts(self, system, monkeypatch):
        # a repeated query neither checks its clausality again nor
        # decides a literal: each compiled clause's verdict is kept, and
        # a cold one decides literals in K and T alike
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), system)
        queries = [parse(t) for t in ("p1 | p2", "<>p2 | []p3", "[]p1",
                                      "<><>p2 | ~p1", "p3", "false")]
        calls = collections.Counter()

        def counted(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        # the clausal checks, wherever a module imported them
        for name in ("is_clause", "is_literal"):
            real = getattr(formula_module, name)
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("modaltpi")
                        and getattr(module, name, None) is real):
                    monkeypatch.setattr(module, name, counted(name, real))
        monkeypatch.setattr(semantics_module._ClauseTest, "literal",
                            counted("literal",
                                    semantics_module._ClauseTest.literal))
        clear_cache()
        cold = [answer_query(comp, q) for q in queries]
        assert calls["is_clause"] > 0
        assert calls["literal"] > 0
        calls.clear()
        assert [answer_query(comp, q) for q in queries] == cold
        assert calls == {}
        clear_cache()

    @pytest.mark.parametrize("cap", [64, 1, 0])
    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_any_premise_decided_at_both_caps(self, system, cap,
                                              monkeypatch):
        # a disjunct that is no literal is resumed like any other, and
        # past the cap confirmed by its tableau call: the same verdict as
        # entails_mod on both sides of the cap, kept for a second ask
        monkeypatch.setattr(semantics_module, "_BRANCH_CAP", cap)
        clear_cache()
        assert query_test(parse("a"), TRUE, system)(parse("a & b")) is True
        assert query_test(parse("a"), TRUE, system)(
            parse("a | (b & c)")) is False
        rng = random.Random(17)
        asked = []
        while len(asked) < 150:
            premise = rand_formula(rng)
            if is_clause(premise):
                continue
            y, q = rand_prop(rng), rand_clause(rng)
            test = query_test(q, y, system)
            verdict = test(premise)
            assert verdict == entails_mod(premise, box(y), q, system), (
                premise, y, q)
            asked.append((test, premise, verdict))
        assert 0 < sum(v for _, _, v in asked) < len(asked)
        kept = [t.__self__ for t, _, _ in asked
                if t is not semantics_module._valid]
        past = [t.branches for t in kept if t.root is not None]
        mixed = cap == 1 and system is System.T
        assert any(t.root is None for t in kept) == (cap != 0)
        assert bool(past) == (cap == 0 or mixed)
        assert any(past) == mixed
        calls = []
        for name in ("_branches", "_solve", "_solve_root"):
            real = getattr(semantics_module, name)

            def spy(*args, real=real, name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(semantics_module, name, spy)
        assert [t(p) for t, p, _ in asked] == [v for _, _, v in asked]
        assert calls == []
        clear_cache()

    def test_budgets_never_share(self, golden_k):
        clear_cache()
        q = parse("[]p1 | <>p2")
        for budget in (10 ** 5, 10 ** 6, 10 ** 5):
            answer_query(golden_k, q, node_budget=budget)
        keys = sorted(semantics_module._query_tests, key=lambda k: k[3])
        assert keys == [(q.key, golden_k.y.key, System.K, budget)
                        for budget in (10 ** 5, 10 ** 6)]

    def test_exhausted_preparation_keeps_nothing(self, golden_k):
        # in K a query with a []-literal is prepared with tableau calls
        q = parse("[]p1 | p3")
        clear_cache()
        with pytest.raises(BudgetExceededError):
            answer_query(golden_k, q, node_budget=2)
        assert not semantics_module._query_tests
        direct = answer_query_direct(golden_k.x, golden_k.y, q, System.K)
        assert answer_query(golden_k, q).answer == direct.answer

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_propositional_literal_takes_no_tableau_step(self, system,
                                                         monkeypatch):
        # a kept branch holds its atoms, so an atom lookup decides a
        # propositional literal; in T the theory a | c holds at the root,
        # where ~q's ~a leaves c, so ~c entails q there and not in K
        clear_cache()
        y = parse("a | c")
        test = query_test(parse("a | <>b | []~c"), y, system)
        ticks = []
        real = semantics_module._Budget.tick

        def counted(budget):
            ticks.append(budget)
            return real(budget)

        monkeypatch.setattr(semantics_module._Budget, "tick", counted)
        verdicts = {text: test(parse(text)) for text in
                    ("~a", "c", "~c", "b", "~a | c", "false", "true")}
        assert ticks == []
        monkeypatch.undo()
        for text, verdict in verdicts.items():
            assert verdict == entails_mod(parse(text), box(y),
                                          parse("a | <>b | []~c"), system)
        assert verdicts["~c"] is (system is System.T)
        # the test starts from the verdicts its preparation proved: a
        # cold false answer resumes no branch with omega's own []y ...
        comp = compile_kb(parse("(a | c) & <>b"), y, system)
        assert box(y) in comp.omega()
        todos = []
        real_branches = semantics_module._branches

        def branches(todo, *args):
            todos.append(list(todo))
            return real_branches(todo, *args)

        monkeypatch.setattr(semantics_module, "_branches", branches)
        clear_cache()
        assert answer_query(comp, parse("<>~b | []a")).answer is False
        assert todos and [box(y)] not in todos
        # ... and past the cap true, false and []y cost no tableau call
        monkeypatch.setattr(semantics_module, "_BRANCH_CAP", 0)
        clear_cache()
        test = query_test(parse("a | <>b | []~c"), y, system)
        assert test.__self__.root is not None
        calls = []
        real_solve = semantics_module._solve_root

        def solve(*args):
            calls.append(args)
            return real_solve(*args)

        monkeypatch.setattr(semantics_module, "_solve_root", solve)
        assert [test(f) for f in (TRUE, FALSE, box(y))] == [
            False, True, False]
        assert calls == []
        clear_cache()

    @pytest.mark.parametrize("system, query, literal, budget", [
        (System.K, "p", "<>(a & b & c)", 3),
        (System.T, "p", "<>(a & b & c)", 3),
        (System.T, "p", "[](a & b & c)", 3),
        # the branch holds two <>-bodies: the preparation takes 6 nodes,
        # the check 1 on [](a & b & c) itself and 5 on each successor
        # world, and both worlds share its budget
        (System.K, "p | []~d | []~e", "[](a & b & c)", 6)])
    def test_exhausted_literal_keeps_nothing(self, system, query, literal,
                                             budget):
        # the preparation of the query fits the budget, the literal check
        # does not: it raises, keeps no verdict, and raises again, while
        # a larger budget decides it
        clear_cache()
        q, clause = parse(query), parse(f"p | {literal}")
        test = query_test(q, TRUE, system, node_budget=budget)
        kept = dict(test.__self__.known)
        for _ in range(2):
            # cold worlds each time, as a sat cache kept from the first
            # attempt would spare the second its first world
            semantics_module._sat_cache.clear()
            with pytest.raises(BudgetExceededError):
                test(clause)
            assert test.__self__.known == kept
        assert query_test(q, TRUE, system)(clause) is False
        # 4 nodes fit the preparation and each check alone: none shares
        # another's budget
        clear_cache()
        assert query_test(parse("p | <>d"), TRUE, system, node_budget=4)(
            parse("<>(d & e) | <>(d & f)")) is True
        clear_cache()

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    # distribution passes its size cap on this KB
    @example(rng=random.Random(177))
    def test_compiled_equals_direct_in_k(self, rng):
        x, y = rand_instance(rng)
        queries = [rand_clause(rng) for _ in range(6)] + [FALSE]
        clear_cache()
        try:
            comp = compile_kb(x, y, System.K)
        except CapacityError:
            reject()  # as the seeded loops skip such a KB
        for q in queries:
            direct = answer_query_direct(x, y, q, System.K).answer
            for _ in range(2):  # cold, then warm
                assert answer_query(comp, q).answer == direct, (x, y, q)

    def test_compiled_equals_direct_outside_nnf_in_k(self):
        # KBs, theories and queries read from text outside NNF
        rng = random.Random(29)
        asked = 0
        for _ in range(40):
            x, y = rand_instance(rng)
            texts = [spelled_outside_nnf(rng, f) for f in (x, y)]
            queries = [spelled_outside_nnf(rng, q) for q in
                       [rand_clause(rng) for _ in range(8)] + [FALSE, TRUE]]
            clear_cache()
            x, y = map(parse, texts)
            try:
                comp = compile_kb(x, y, System.K)
            except CapacityError:
                continue
            for text in queries:
                q = parse(text)
                direct = answer_query_direct(x, y, q, System.K).answer
                assert answer_query(comp, q).answer == direct, (*texts, text)
                asked += 1
        assert asked >= 300

    @settings(max_examples=40, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    # distribution passes its size cap on this KB
    @example(rng=random.Random(177))
    def test_compiled_answers_sound_in_t(self, rng):
        # in T compiled answers may miss a true direct answer, never
        # contradict a false one
        x, y = rand_instance(rng)
        queries = [rand_clause(rng) for _ in range(6)] + [FALSE]
        clear_cache()
        try:
            comp = compile_kb(x, y, System.T)
        except CapacityError:
            reject()  # as the seeded loops skip such a KB
        for q in queries:
            direct = answer_query_direct(x, y, q, System.T).answer
            if answer_query(comp, q).answer:
                assert direct, (x, y, q)


class TestQueryHalves:
    """`semantics._query_halves`: the query's own half of its clause
    tests, made once per query and shared by every theory, system and
    budget that tests it."""

    @pytest.fixture(scope="class")
    def comps(self, golden_k, golden_t):
        return [golden_k, golden_t,
                compile_kb(parse("p1 & <>p2"), parse("p1"), System.T)]

    def test_one_half_per_query(self, monkeypatch):
        made = []
        real = semantics_module._half

        def half(q):
            made.append(q)
            return real(q)

        monkeypatch.setattr(semantics_module, "_half", half)
        clear_cache()
        q = parse("~(p1 & <>p3)")
        for y in (parse(Y_GOLDEN), parse("p1 | p3")):
            for system in (System.K, System.T):
                for budget in (10 ** 5, 10 ** 6):
                    query_test(q, y, system, budget)
        assert made == [q]
        assert list(semantics_module._query_halves) == [q.key]
        assert len(semantics_module._query_tests) == 8
        clear_cache()
        assert not semantics_module._query_halves

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_non_clausal_query_keeps_nothing(self, system, golden_k):
        clear_cache()
        comp = dataclasses.replace(golden_k, system=system)
        for _ in range(2):
            with pytest.raises(NonClausalQueryError):
                answer_query(comp, parse("p1 & <>p2"))
        assert not semantics_module._query_tests
        assert not semantics_module._query_halves

    def test_table_limit_holds(self, comps, monkeypatch):
        queries = clause_vocabulary(("p1", "p2", "p3"))
        clear_cache()
        unpatched = [answer_query(comp, q) for comp in comps for q in queries]
        assert len(semantics_module._query_halves) > 1000
        clear_cache()
        monkeypatch.setattr(formula_module, "_TABLE_LIMIT", 40)
        patched = []
        for comp in comps:
            for q in queries:
                patched.append(answer_query(comp, q))
                assert len(semantics_module._query_halves) <= 40
        assert patched == unpatched
        clear_cache()

    def test_kept_halves_change_no_outcome(self, monkeypatch):
        # answers, witnesses and tableau steps, cold each time, with the
        # halves kept and with them dropped before every preparation
        rng = random.Random(29)
        corpus = [(rand_instance(rng), [rand_clause(rng) for _ in range(8)]
                   + [FALSE, TRUE]) for _ in range(8)]
        ticks = collections.Counter()
        real_tick = semantics_module._Budget.tick
        real_prepare = semantics_module._prepare

        def tick(budget):
            ticks[mode] += 1
            return real_tick(budget)

        def cleared_prepare(*args):
            semantics_module._query_halves.clear()
            return real_prepare(*args)

        monkeypatch.setattr(semantics_module._Budget, "tick", tick)
        runs = {}
        for mode in ("kept", "cleared"):
            if mode == "cleared":
                monkeypatch.setattr(semantics_module, "_prepare",
                                    cleared_prepare)
            clear_cache()
            out = runs[mode] = []
            for (x, y), queries in corpus:
                for system in (System.K, System.T):
                    try:
                        comp = compile_kb(x, y, system)
                    except CapacityError:
                        out.append(None)
                        continue
                    out.append(comp.theta)
                    out += [answer_query(comp, q) for q in queries * 2]
        assert runs["kept"] == runs["cleared"]
        assert ticks["kept"] == ticks["cleared"] > 0
        assert sum(v is not None for v in runs["kept"]) > 100
        clear_cache()


class TestAnswerQueryDirect:
    def test_trivial(self):
        assert answer_query_direct(parse("p & q"), TRUE, var("p"),
                                   System.K).answer is True

    def test_golden_nested_diamond(self):
        assert answer_query_direct(parse(X_GOLDEN), parse(Y_GOLDEN),
                                   parse("<><>p2"), System.T).answer is True

    def test_golden_box_refuted_with_countermodel(self):
        verdict = answer_query_direct(parse(X_GOLDEN), parse(Y_GOLDEN),
                                      parse("[]p1"), System.T)
        assert verdict.answer is False
        model, world = verdict.witness
        assert evaluate(model, world, parse(f"({X_GOLDEN}) & [](p1 | p2)"))
        assert not evaluate(model, world, parse("[]p1"))

    def test_answers_match_built_conjunction(self, rng):
        queries = list(clause_vocabulary(("a", "b")))[::7]
        for _ in range(8):
            x, y = rand_instance(rng, names=("a", "b"))
            for system in (System.K, System.T):
                for q in queries:
                    verdict = answer_query_direct(x, y, q, system)
                    built = land(x, box(y), lnot(q))
                    assert verdict.answer == (not is_satisfiable(built, system))
                    if verdict.answer:
                        assert verdict.witness is None
                    else:
                        model, world = verdict.witness
                        assert evaluate(model, world, built)


class TestKbFiles:
    def test_conjunctive_reading(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("p1 | p2\n<>[]~p3\n")
        kb = load_kb(str(path))
        assert land(kb.formulas) == land(parse("p1 | p2"), parse("<>[]~p3"))
        assert land(kb.theory) is TRUE

    def test_comments_blanks_and_theory_section(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text(
            "# a knowledge base\n\np1 | p2  # note\n<>[]~p3#x\n[]<>p2\n"
            "[theory]  # y\np1 | p2\n")
        kb = load_kb(str(path))
        assert len(kb.formulas) == 3
        assert land(kb.theory) == parse("p1 | p2")

    def test_malformed_line_cites_location(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("p1 |\n")
        with pytest.raises(FormulaSyntaxError) as err:
            load_kb(str(path))
        assert err.value.line == 1
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("text,line,column", [
        # the column counts the line's leading whitespace
        ("p1 | p2\n    p3 & )\n", 2, 10),
        # a form feed is whitespace, not a line break
        ("p1\x0c\n  p & )\n", 2, 7),
        # a comment after the error moves no column
        ("p1\np & )  # x\n", 2, 5),
    ])
    def test_malformed_line_position(self, tmp_path, text, line, column):
        path = tmp_path / "kb.txt"
        path.write_text(text)
        with pytest.raises(FormulaSyntaxError) as err:
            load_kb(str(path))
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == (f"{path}, line {line}, column {column}: "
                                  "unexpected ')'")

    def test_empty_kb_rejected(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(FormulaSyntaxError):
            load_kb(str(path))


class TestPersistence:
    def test_round_trip(self, tmp_path, golden_t):
        path = tmp_path / "comp.json"
        save_compilation(golden_t, str(path))
        loaded = load_compilation(str(path))
        assert loaded.theta == golden_t.theta
        assert loaded.x == golden_t.x
        assert loaded.y == golden_t.y
        assert loaded.system is System.T
        assert loaded.stats == golden_t.stats

    def test_schema_fields(self, tmp_path, golden_t):
        path = tmp_path / "comp.json"
        save_compilation(golden_t, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == 2
        assert set(payload) == {"schema", "system", "x", "y", "theta",
                                "stats"}
        assert set(payload["stats"]) == {"nb_cl_candidates",
                                         "entailment_calls", "elapsed_ms"}

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "comp.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(SchemaError):
            load_compilation(str(path))

    def test_schema_1_file_exit_2(self, tmp_path, golden_t, capsys):
        # a file in the earlier format, which also kept box_y, the
        # candidate set and the Horn hint
        path = tmp_path / "comp.json"
        save_compilation(golden_t, str(path))
        payload = {**json.loads(path.read_text()), "schema": 1,
                   "box_y": golden_t.box_y.key,
                   "candidates": [c.key for c in golden_t.candidates],
                   "horn_advisory": False}
        path.write_text(json.dumps(payload))
        assert main(["query", "--compilation", str(path),
                     "--query", "p1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: unsupported schema 1, expected 2\n")

    @pytest.mark.parametrize("change", [
        "[1, 2]", '"text"', {"x": 5}, {"theta": [1]}, {"theta": "p"},
        {"system": 5}, {"system": "S5"}, {"stats": 3}, {"y": "[]("},
        {"y": 5}, {"y": "[]p3"}, {"theta": ["p1", 2]}, {"theta": []},
        pytest.param("[" * 100_000, id="deep-list"),
        pytest.param('{"a":' * 50_000, id="deep-object"),
        # equal to 1 in Python, but not the integer 1
        pytest.param({"schema": True}, id="schema-true"),
        pytest.param({"schema": 1.0}, id="schema-float"),
    ])
    def test_malformed_fields_exit_2(self, tmp_path, golden_t, capsys,
                                     change):
        path = tmp_path / "comp.json"
        if isinstance(change, str):
            path.write_text(change)
        else:
            save_compilation(golden_t, str(path))
            path.write_text(json.dumps({**json.loads(path.read_text()),
                                        **change}))
        with pytest.raises(SchemaError if change != {"y": "[]("}
                           else FormulaSyntaxError):
            load_compilation(str(path))
        assert main(["query", "--compilation", str(path),
                     "--query", "p1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", [
        "system", "x", "y", "theta", "stats",
    ])
    def test_missing_field_exit_2(self, tmp_path, golden_t, capsys, name):
        path = tmp_path / "comp.json"
        save_compilation(golden_t, str(path))
        payload = json.loads(path.read_text())
        del payload[name]
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=f"missing field '{name}'"):
            load_compilation(str(path))
        assert main(["query", "--compilation", str(path),
                     "--query", "p1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: missing field '{name}'\n")

    @pytest.mark.parametrize("extra", [False, True],
                             ids=["empty", "extra-key"])
    def test_loaded_stats_saved_as_held(self, tmp_path, golden_t, extra):
        stats = {**golden_t.stats, "note": "kept"} if extra else {}
        path, again = tmp_path / "comp.json", tmp_path / "again.json"
        save_compilation(golden_t, str(path))
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "stats": stats}))
        save_compilation(load_compilation(str(path)), str(again))
        assert load_compilation(str(again)).stats == stats

    def test_not_json(self, tmp_path):
        path = tmp_path / "comp.json"
        path.write_text("not json at all")
        with pytest.raises(SchemaError):
            load_compilation(str(path))


@pytest.fixture
def golden_kb(tmp_path):
    kb = tmp_path / "golden.kb"
    kb.write_text("p1 | p2\n<>[]~p3\n[]<>p2\n[theory]\np1 | p2\n")
    return str(kb)


class TestCli:
    def test_compile_then_query(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", golden_kb, "--system", "T",
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["query", "--compilation", out,
                     "--query", "<><>p2"]) == 0
        assert capsys.readouterr().out.startswith("true")
        assert main(["query", "--compilation", out, "--query", "p3"]) == 1
        assert capsys.readouterr().out.startswith("false")

    def test_clausal_query_outside_nnf(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", "T", "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out,
                     "--query", "~[]p3"]) in (0, 1)
        assert "answering directly" not in capsys.readouterr().err

    @pytest.mark.parametrize("system", ["K", "T"])
    def test_false_query_answered_from_compilation(self, golden_kb, tmp_path,
                                                   capsys, system):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", system, "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out, "--query", "false"]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("false")
        assert "answering directly" not in captured.err

    @pytest.mark.parametrize("system", ["K", "T"])
    def test_true_query_answered_from_compilation(self, golden_kb, tmp_path,
                                                  capsys, system):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", system, "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out, "--query", "true"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("true\nwitness: ")
        assert captured.err == ""

    def test_non_clausal_query_routed_directly(self, golden_kb, tmp_path,
                                               capsys):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", "T", "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out,
                     "--query", "(p1 | p2) & []<>p2"]) == 0
        captured = capsys.readouterr()
        assert "answering directly" in captured.err

    def test_check_passes_on_golden(self, golden_kb, capsys):
        assert main(["check", "--kb", golden_kb, "--system", "T"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("system", ["K", "T"])
    def test_check_builds_candidates_once(self, golden_kb, monkeypatch,
                                          capsys, system):
        # the compile, `.candidates` and the plain prime implicates of
        # x & []y all read the candidate set of one formula
        calls = []
        real = pi_module.to_dnf

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(pi_module, "to_dnf", counted)
        clear_cache()
        assert main(["check", "--kb", golden_kb, "--system", system]) == 0
        assert "FAIL" not in capsys.readouterr().out
        assert len(calls) == 1

    def test_node_budget_reaches_every_tableau_call(self, golden_kb, tmp_path,
                                                    monkeypatch, capsys):
        # check's own tests included; every tableau step, whether of a
        # satisfiability call, a model, a clause test's preparation or
        # one of its literal checks, ticks a _Budget made with the budget
        budget = 654_321
        budgets = []
        real = semantics_module._Budget
        real_branches = semantics_module._branches

        class Spy(real):
            def __init__(self, steps, *args):
                budgets.append(steps)
                super().__init__(steps, *args)

        def branches(todo, system, node_budget, *state):
            assert type(node_budget) is Spy
            return real_branches(todo, system, node_budget, *state)

        monkeypatch.setattr(semantics_module, "_Budget", Spy)
        monkeypatch.setattr(semantics_module, "_branches", branches)
        bare = tmp_path / "bare.kb"
        bare.write_text("p1 | p2\n<>[]~p3\n[]<>p2\n")
        # not a conjunct of the KB, so the precondition takes a proof
        theory = tmp_path / "theory.txt"
        theory.write_text("p1 | p2 | p3\n")
        out = str(tmp_path / "comp.json")
        for argv in (["check", "--kb", golden_kb],
                     ["check", "--kb", str(bare), "--auto-theory"],
                     ["compile", "--kb", str(bare), "--theory", str(theory),
                      "--out", out]):
            for system in ("K", "T"):
                budgets.clear()
                assert main(argv + ["--system", system,
                                    "--node-budget", str(budget)]) == 0
                assert budgets and set(budgets) == {budget}, argv
                if argv[0] != "compile":
                    continue
                # the compiled answer of a query not asked before, and
                # the direct answer of a non-clausal one
                for query, code in (("p3", 1), ("(p1 | p2) & []<>p2", 0)):
                    budgets.clear()
                    assert main(["query", "--compilation", out,
                                 "--query", query,
                                 "--node-budget", str(budget)]) == code
                    assert budgets and set(budgets) == {budget}, query
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("system", ["K", "T"])
    @pytest.mark.parametrize("command", ["compile", "check"])
    def test_auto_theory_proved_once(self, tmp_path, monkeypatch, capsys,
                                     command, system):
        # the theory is the KB's own outer CNF clause p1 | p2, and check's
        # plain prime implicates compile against true: the KB states both
        # outright, so no compile proves x |= y by tableau
        calls = []
        real = pi_module.entails

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(pi_module, "entails", spy)
        bare = tmp_path / "bare.kb"
        bare.write_text("p1 | p2\n<>[]~p3\n[]<>p2\n")
        argv = [command, "--kb", str(bare), "--auto-theory",
                "--system", system]
        if command == "compile":
            argv += ["--out", str(tmp_path / "comp.json")]
        assert main(argv) == 0
        assert default_theory(land(load_kb(str(bare)).formulas)) == parse(
            "p1 | p2")
        assert calls == []
        assert "FAIL" not in capsys.readouterr().out

    def test_oracle_subcommand(self, capsys):
        assert main(["oracle", "--formula", "<>p", "--system", "K"]) == 0
        assert capsys.readouterr().out.startswith("sat")
        assert main(["oracle", "--formula", "p & ~p", "--system", "K"]) == 1

    def test_deep_nesting_exit_2(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", golden_kb, "--out", out]) == 0
        capsys.readouterr()
        for text in TOO_DEEP:
            assert main(["oracle", "--formula", text]) == 2
            assert "nested deeper than" in capsys.readouterr().err
            assert main(["query", "--compilation", out, "--query", text]) == 2
            assert "nested deeper than" in capsys.readouterr().err

    def test_iff_chain_exit_2(self, capsys):
        for text in (IFF_CHAIN, IFF_CHAINS):
            assert main(["oracle", "--formula", text]) == 2
            assert "expands past" in capsys.readouterr().err

    def test_oracle_at_nesting_limit(self, capsys):
        for text in AT_NESTING_LIMIT:
            for system in ("K", "T"):
                sat = is_satisfiable(parse(text), System.from_name(system))
                assert main(["oracle", "--formula", text,
                             "--system", system]) == (0 if sat else 1)

    def test_auto_theory(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("p1 | p2\n<>[]~p3\n[]<>p2\n")
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", kb.as_posix(), "--auto-theory",
                     "--system", "K", "--out", out]) == 0
        assert load_compilation(out).y == parse("p1 | p2")

    def test_theory_precedence(self, tmp_path, capsys):
        # the --theory file, then the KB's [theory], then --auto-theory,
        # then true, and with true theta is the KB's prime implicates
        kb = tmp_path / "kb.txt"
        kb.write_text("p1 | p2\np3\n<>p4\n[theory]\np3\n")
        bare = tmp_path / "bare.txt"
        bare.write_text("p1 | p2\np3\n<>p4\n")
        plain = tmp_path / "plain.txt"
        plain.write_text("p1 | p2\n<>[]~p3\n")
        theory = tmp_path / "theory.txt"
        theory.write_text("p1 | p2 | p3\n[theory]\np3\n")
        out = str(tmp_path / "comp.json")
        for kb_path, flags, want, system in [
            (kb, ["--theory", str(theory), "--auto-theory"],
             "(p1 | p2 | p3) & p3", "K"),
            (kb, ["--auto-theory"], "p3", "K"),
            (bare, ["--auto-theory"], "(p1 | p2) & p3", "K"),
            (bare, [], "true", "K"),
            (plain, [], "true", "K"),
            (plain, [], "true", "T"),
        ]:
            assert main(["compile", "--kb", str(kb_path), "--system", system,
                         "--out", out] + flags) == 0
            assert load_compilation(out).y == parse(want)
            if want == "true":
                x = land(load_kb(str(kb_path)).formulas)
                pis = prime_implicates(x, System.from_name(system))
                theta = json.loads(Path(out).read_text())["theta"]
                assert theta == [c.key for c in pis]
            assert main(["check", "--kb", str(kb_path), "--system", system]
                        + flags) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_inline_comments(self, tmp_path, capsys):
        kb = tmp_path / "note.txt"
        kb.write_text("p1 | p2  # note\n[theory]  # y\np1 | p2\n")
        out = str(tmp_path / "note.json")
        assert main(["compile", "--kb", str(kb), "--system", "K",
                     "--out", out]) == 0
        assert "  theory              (p1 | p2)\n" in capsys.readouterr().out
        comp = load_compilation(out)
        assert (comp.x, comp.y) == (parse("p1 | p2"), parse("p1 | p2"))
        kb.write_text("p & )  # x\n")
        assert main(["compile", "--kb", str(kb), "--system", "K",
                     "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"error: {kb}, line 1, column 5: unexpected ')'\n")

    def test_byte_order_mark_ignored(self, tmp_path):
        kb = tmp_path / "bom.txt"
        kb.write_bytes(b"\xef\xbb\xbfp1 | p2\n<>[]~p3\n[theory]\np1 | p2\n")
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", str(kb), "--system", "K",
                     "--out", out]) == 0
        comp = load_compilation(out)
        assert comp.x == parse("(p1 | p2) & <>[]~p3")
        assert comp.y == parse("p1 | p2")

    @pytest.mark.parametrize("argv", [
        ["compile", "--kb", "{bad}", "--out", "{out}"],
        ["compile", "--kb", "{kb}", "--theory", "{bad}", "--out", "{out}"],
        ["query", "--compilation", "{bad}", "--query", "p1"]])
    def test_non_utf8_input_names_its_file(self, argv, golden_kb, tmp_path,
                                           capsys):
        bad = tmp_path / "bin.txt"
        bad.write_bytes(b"p1\n\xc3\xa9 \xff\n")
        names = dict(bad=str(bad), kb=golden_kb, out=str(tmp_path / "c.json"))
        assert main([a.format(**names) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}")
        if argv[0] == "compile":  # a KB file's position is in characters
            assert err == (f"error: {bad}, line 2, column 3: byte 0xff is "
                           "no UTF-8 text (invalid start byte)\n")

    def test_theory_file_with_only_a_theory_section(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("p1 | p2\n<>[]~p3\n[]<>p2\n")
        theory = tmp_path / "th.txt"
        theory.write_text("[theory]\np1 | p2\n")
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", str(kb), "--theory", str(theory),
                     "--system", "K", "--out", out]) == 0
        assert load_compilation(out).y == parse("p1 | p2")
        assert main(["check", "--kb", str(kb), "--theory", str(theory),
                     "--system", "K"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        # a file with no formulas at all is still bad input, named as
        # the kind of file it was given as
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n[theory]\n")
        for argv, what in [
            (["--kb", str(kb), "--theory", str(empty)], "theory file"),
            (["--kb", str(empty), "--theory", str(theory)],
             "knowledge base"),
        ]:
            assert main(["compile", "--system", "K", "--out", out]
                        + argv) == 2
            err = capsys.readouterr().err
            assert err == (f"error: {empty}, line 1, column 1: "
                           f"{what} has no formulas\n")

    def test_input_error_exit_code(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("p1 |\n")
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", str(kb), "--out", out]) == 2
        assert main(["compile", "--kb", str(tmp_path / "missing.kb"),
                     "--out", out]) == 2

    def _rejected(self, argv, flag, capsys):
        # a negative budget or cap is bad input, not an exhausted resource
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "must be at least 0" in err

    def test_negative_node_budget_exit_2(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        for argv in (["compile", "--kb", golden_kb, "--out", out],
                     ["check", "--kb", golden_kb]):
            self._rejected(argv, "--node-budget", capsys)

    def test_negative_max_terms_exit_2(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        self._rejected(["compile", "--kb", golden_kb, "--out", out],
                       "--max-terms", capsys)

    def test_negative_oracle_budget_exit_2(self, capsys):
        self._rejected(["oracle", "--formula", "p"], "--budget", capsys)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--formula", "p", "--budget", "1.5"])
        assert exc.value.code == 2
        assert "not an integer: '1.5'" in capsys.readouterr().err

    def test_oracle_search_bounds_are_not_flags(self, capsys):
        # the oracle reads its depth and branching off the formula
        for flag in ("--max-depth", "--max-branching"):
            with pytest.raises(SystemExit) as exc:
                main(["oracle", "--formula", "<>p", flag, "0"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("formula, system",
                             [("<>p & []~p", "K"), ("[]p & ~p", "T")])
    def test_oracle_unsat(self, formula, system, capsys):
        assert main(["oracle", "--formula", formula,
                     "--system", system]) == 1
        captured = capsys.readouterr()
        assert captured.out == "unsat\n"
        assert captured.err == ""

    @staticmethod
    def _oracle_subprocess(formula, budget, stdout=subprocess.PIPE,
                           env=(), **kwargs):
        """`python -m modaltpi.cli oracle` on formula in K, in a fresh
        interpreter that imports this checkout's package, with `env`
        added to its environment."""
        src = str(Path(modaltpi.__file__).resolve().parent.parent)
        env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "modaltpi.cli", "oracle",
             "--formula", formula, "--system", "K", "--budget", budget],
            env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
            timeout=120, **kwargs)

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_oracle_into_a_closed_pipe(self, unbuffered):
        # as in `tpi oracle ... | true`: a reader that has gone is no
        # input error, whether the write or the flush at exit meets it
        read, write = os.pipe()
        os.close(read)
        try:
            done = self._oracle_subprocess(
                "[]p & ~p", "5000", stdout=write,
                env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (1, "")

    def test_oracle_budget_bounds_valuations(self):
        # 2^24 valuations would not fit in the address space allowed;
        # drawing them one budget tick at a time stops after 5,001
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        formula = " & ".join(f"a{i}" for i in range(1, 25))
        done = self._oracle_subprocess(formula, "5000",
                                       preexec_fn=limit_memory)
        assert done.returncode == 3, done.stderr
        assert "budget exhausted" in done.stderr

    def test_oracle_budget_bounds_child_aggregates(self):
        # 2^10 depth-0 types crossed up to 10 times before the depth-1
        # pass: each candidate aggregate costs a tick, so the budget ends it
        formula = " & ".join(f"<>a{i}" for i in range(10))
        done = self._oracle_subprocess(formula, "20000")
        assert done.returncode == 3, done.stderr
        assert "budget exhausted" in done.stderr

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("(a1 | b1) & (a2 | b2) & (a3 | b3) & (a4 | b4)"
                      " & (a5 | b5) & (a6 | b6)\n")
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", str(kb), "--out", out,
                     "--max-terms", "5"]) == 3

    @pytest.mark.parametrize("cap, layer", [
        # the golden KB has 4 terms and 8 candidates
        ("0", "outer DNF"), ("3", "candidate distribution")])
    def test_resource_cap_names_its_layer(self, golden_kb, tmp_path, capsys,
                                          cap, layer):
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", golden_kb, "--out", out,
                     "--max-terms", cap]) == 3
        assert capsys.readouterr().err == (
            f"error: size cap {cap} exceeded in the {layer}\n")


# formula text: well formed, or drawn token by token from the grammar;
# KB text: lines of formula text, comments and section headers
_ATOMS = ("a", "b", "p1", "true", "false")
_UNARY = ("~", "[]", "<>")
_BINARY = ("&", "|", "->", "<->")
_FORMULA_TEXT = st.recursive(
    st.sampled_from(_ATOMS),
    lambda inner: (
        st.tuples(st.sampled_from(_UNARY), inner).map("".join)
        | st.tuples(inner, st.sampled_from(_BINARY), inner).map(
            lambda t: "({} {} {})".format(*t))),
    max_leaves=6) | st.lists(
        st.sampled_from(_ATOMS + _UNARY + _BINARY + ("(", ")", " ")),
        max_size=24).map("".join)
_KB_TEXT = st.lists(
    _FORMULA_TEXT | st.sampled_from(("", "#", "[theory]"))
    | _FORMULA_TEXT.map("# {}".format),
    max_size=6).map("\n".join)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=6)


def _exit_code(argv):
    """`main(argv)`, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestCliFuzz:
    """Drawn KB text and damaged compilation files through `cli.main`:
    every run exits with 0, 1, 2 or 3 and raises nothing else."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory, golden_k, golden_t):
        path = tmp_path_factory.mktemp("fuzz")
        for comp in (golden_k, golden_t):
            save_compilation(comp, str(path / f"{comp.system.value}.json"))
        return path

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_compilation(self, workdir, data):
        system = data.draw(st.sampled_from("KT"))
        payload = json.loads((workdir / f"{system}.json").read_text())
        name = data.draw(st.sampled_from(sorted(payload)))
        deleted = object()
        value = data.draw(st.just(deleted) | _JSON | _FORMULA_TEXT
                          | st.lists(_FORMULA_TEXT, max_size=3))
        if value is deleted:
            del payload[name]
        else:
            payload[name] = value
        path = workdir / "damaged.json"
        path.write_text(json.dumps(payload))
        query = data.draw(_FORMULA_TEXT)
        assert _exit_code(["query", "--compilation", str(path),
                           "--query", query]) in range(4)

    @pytest.mark.parametrize("command", ["compile", "check"])
    @settings(max_examples=60, deadline=None)
    @given(text=_KB_TEXT, system=st.sampled_from("KT"), auto=st.booleans())
    def test_drawn_kb_text(self, workdir, command, text, system, auto):
        kb = workdir / "drawn.kb"
        kb.write_text(text)
        argv = [command, "--kb", str(kb), "--system", system]
        if auto:
            argv.append("--auto-theory")
        if command == "compile":
            argv += ["--out", str(workdir / "drawn.json")]
        assert _exit_code(argv) in range(4)
