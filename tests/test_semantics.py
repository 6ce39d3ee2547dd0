import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import modaltpi
import modaltpi.formula as formula_module
import modaltpi.semantics as semantics_module
from modaltpi.errors import BudgetExceededError
from modaltpi.formula import (
    FALSE, TRUE, box, dia, land, lnot, lor, parse, var,
)
from modaltpi.semantics import (
    KripkeModel, System, clear_cache, entails, entails_mod, equivalent,
    equivalent_mod, evaluate, find_model, is_satisfiable, query_test,
)
from modaltpi.oracle import sat_by_enumeration
from modaltpi.pi import compile_kb
from modaltpi.qa import answer_query

from conftest import rand_clause, rand_formula, rand_instance


def model(worlds, relation, valuation):
    return KripkeModel(tuple(worlds), frozenset(relation),
                       {w: frozenset(v) for w, v in valuation.items()})


class TestKripkeModel:
    def test_rejects_dangling_relation(self):
        with pytest.raises(ValueError):
            model([0], {(0, 1)}, {0: set()})

    def test_rejects_valuation_of_an_unlisted_world(self):
        # world 1 would be true of q for `evaluate` and dropped by `to_dict`
        with pytest.raises(ValueError, match="unknown world 1"):
            model([0], set(), {0: {"p"}, 1: {"q"}})

    def test_rejects_a_repeated_world(self):
        # `to_dict` would list world 0 twice
        with pytest.raises(ValueError, match="repeat a world"):
            KripkeModel((0, 0), frozenset(), {0: frozenset("p")})

    def test_rejects_a_valuation_that_is_not_a_frozenset(self):
        # `evaluate` would read p, q and pq as true of "pq", by substring
        for atoms in ("pq", {"p"}, ["p"]):
            with pytest.raises(ValueError, match="world 0 is not a frozenset"):
                KripkeModel((0,), frozenset(), {0: atoms})

    def test_rejects_worlds_that_are_not_a_tuple(self):
        # a list of worlds would make the model unhashable
        with pytest.raises(ValueError, match="worlds is not a tuple"):
            KripkeModel([0], frozenset(), {0: frozenset()})

    def test_rejects_a_relation_that_is_not_a_frozenset(self):
        # a set relation would make the model unhashable
        with pytest.raises(ValueError, match="relation is not a frozenset"):
            KripkeModel((0,), {(0, 0)}, {0: frozenset()})

    def test_hashable(self):
        # a countermodel can be a set member or a dict key
        found, _ = find_model(parse("<>p & []q"), System.K)
        assert hash(found) == hash(find_model(parse("<>p & []q"),
                                              System.K)[0])
        same = {model([0, 1], {(0, 1)}, {0: set(), 1: {"p"}}),
                model([0, 1], {(0, 1)}, {0: set(), 1: {"p"}})}
        assert len(same) == 1
        # the hash skips valuations, equality does not
        assert model([0, 1], {(0, 1)}, {0: set(), 1: {"q"}}) not in same


class TestEvaluate:
    def test_atom(self):
        m = model([0], set(), {0: {"p"}})
        assert evaluate(m, 0, var("p"))

    def test_single_successor(self):
        m = model([0, 1], {(0, 1)}, {0: set(), 1: {"p"}})
        assert evaluate(m, 0, dia(var("p")))
        assert evaluate(m, 0, box(var("p")))

    def test_vacuous_box(self):
        m = model([0], set(), {0: set()})
        assert evaluate(m, 0, box(FALSE))

    def test_box_false_with_a_successor(self):
        m = model([0, 1], {(0, 1)}, {0: set(), 1: set()})
        assert not evaluate(m, 0, box(FALSE))

    def test_unknown_world(self):
        m = model([0], set(), {0: set()})
        with pytest.raises(ValueError):
            evaluate(m, 7, var("p"))


class TestSatisfiability:
    def test_propositional_contradiction(self):
        assert not is_satisfiable(parse("p & ~p"), System.K)

    def test_reflexivity_separates_systems(self):
        f = parse("[]p & ~p")
        assert is_satisfiable(f, System.K)
        assert not is_satisfiable(f, System.T)

    def test_golden_witness_body(self):
        f = parse("<>([]~p3 & <>p2 & (p1 | p2))")
        assert is_satisfiable(f, System.T)
        assert sat_by_enumeration(f, System.T) is not None

    def test_budget_is_distinct_outcome(self):
        from modaltpi.semantics import clear_cache
        clear_cache()
        f = parse("(a | b) & (b | c) & <>(a & c) & [](a | c)")
        with pytest.raises(BudgetExceededError):
            is_satisfiable(f, System.K, node_budget=2)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 8: budget outcomes depend on the sat cache, so a "
        "verdict kept by an earlier call is read back at no node cost"))
    def test_budget_outcome_is_free_of_history(self):
        clear_cache()
        f = parse("(a | b) & (b | c) & <>(a & c) & [](a | c)")
        with pytest.raises(BudgetExceededError):
            is_satisfiable(f, System.K, node_budget=8)
        is_satisfiable(f, System.K)
        with pytest.raises(BudgetExceededError):
            is_satisfiable(f, System.K, node_budget=8)


    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_deep_diamond_chain_at_default_recursion_limit(self, system):
        # the README's depth: each modal level costs the tableau four
        # frames, so one more per level would fail well below 200
        assert sys.getrecursionlimit() == 1000
        f = var("p")
        for _ in range(200):
            f = dia(f)
        clear_cache()
        assert is_satisfiable(f, system)
        clear_cache()
        m, w = find_model(f, system)
        assert len(m.worlds) == 201
        clear_cache()


class TestBranches:
    """`_branches` yields only open branches: clash-free, saturated, and
    with a witness for the successor world of each <>-body."""

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_modal_clash_closes_every_branch(self, system):
        clear_cache()
        todo = [parse("(a | b) & <>c & []~c")]
        budget = semantics_module._Budget(10 ** 6)
        assert list(semantics_module._branches(todo, system, budget)) == []

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_each_branch_carries_its_successor_witnesses(self, system):
        clear_cache()
        todo = [parse("(a | b) & <>c")]
        budget = semantics_module._Budget(10 ** 6)
        found = list(semantics_module._branches(todo, system, budget))
        assert [sorted(pos) for _, pos, _, _, _ in found] == [["a"], ["b"]]
        for _, _, dias, boxes, children in found:
            assert list(dias) == ["c"] and boxes == {}
            assert len(children) == 1 and "c" in children[0].atoms


class TestPropagation:
    def test_units_close_the_branch_before_any_split(self):
        # each ~xi makes xi | yi a unit; a tableau that splits first
        # tries 2 ** 20 choices before the only one left meets <>c & []~c
        n = 20
        f = land([lor(var(f"x{i}"), var(f"y{i}")) for i in range(n)]
                 + [lnot(var(f"x{i}")) for i in range(n)]
                 + [dia(var("c")), box(lnot(var("c")))])
        for system in (System.K, System.T):
            clear_cache()
            assert not is_satisfiable(f, system, node_budget=1000)

    # acceptance 6 already checks 1,000 fixed-seed formulas of this shape;
    # this adds the find_model check and, outside CI, fresh draws each run
    @settings(max_examples=50, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_agrees_with_enumeration(self, rng):
        f = rand_formula(rng, depth=2, size=12)
        for system in (System.K, System.T):
            clear_cache()
            sat = is_satisfiable(f, system)
            assert sat == (sat_by_enumeration(f, system) is not None), \
                (f, system)
            if sat:
                m, w = find_model(f, system)
                assert evaluate(m, w, f), (f, system)


class TestFindModel:
    def test_minimal_diamond_witness(self):
        m, w = find_model(parse("<>p"), System.K)
        assert evaluate(m, w, parse("<>p"))

    def test_none_for_false(self):
        assert find_model(FALSE, System.K) is None
        assert find_model(parse("p & ~p"), System.T) is None

    def test_golden_model_checks_out(self):
        f = parse("(p1 | p2) & <>[]~p3 & []<>p2 & [](p1 | p2)")
        m, w = find_model(f, System.T)
        assert evaluate(m, w, f)
        assert all((u, u) in m.relation for u in m.worlds)

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_every_world_sees_itself_only_under_t(self, system):
        f = parse("<>(p & <>q) & <>~p & [](q | ~q)")
        m, w = find_model(f, system)
        assert evaluate(m, w, f)
        assert len(m.worlds) >= 3
        loops = {(u, u) for u in m.worlds}
        assert m.relation & loops == (loops if system is System.T else set())
        assert any(a != b for a, b in m.relation)

    def test_shared_witness_is_one_world(self):
        # the tableau shares the witness of each `<>~` level between the
        # branches above it; unfolded into a tree it has 2 ** (n / 2) nodes
        m, _ = find_model(parse("~[]" * 30 + "p"), System.T)
        assert len(m.worlds) <= 31
        f = parse("~[]" * 12 + "p")
        m, w = find_model(f, System.T)
        assert evaluate(m, w, f)

    def test_evaluate_visits_each_world_once_per_subformula(self):
        # every world of a T model sees itself, so a walk that re-evaluates
        # subformulas takes time exponential in the modal depth
        f = parse("~[]" * 30 + "p")
        m, w = find_model(f, System.T)
        started = time.perf_counter()
        assert evaluate(m, w, f)
        assert not evaluate(m, w, parse("[]" * 30 + "p"))
        assert time.perf_counter() - started < 1.0

    def test_witnesses_evaluate_random(self, rng):
        for _ in range(150):
            f = rand_formula(rng, depth=2, size=10)
            for system in (System.K, System.T):
                got = find_model(f, system)
                if got is not None:
                    m, w = got
                    assert evaluate(m, w, f)


class TestFormulaSets:
    """An iterable of formulas reads as their conjunction."""

    def test_agrees_with_built_conjunction(self, rng):
        for _ in range(150):
            fs = [rand_formula(rng, depth=2, size=6)
                  for _ in range(rng.randrange(0, 4))]
            fs += rng.sample([TRUE, FALSE, TRUE], rng.randrange(0, 2))
            fs.append(lnot(rand_formula(rng, depth=2, size=5)))
            rng.shuffle(fs)
            for system in (System.K, System.T):
                sat = is_satisfiable(fs, system)
                assert sat == is_satisfiable(land(fs), system)
                got = find_model(iter(fs), system)
                assert (got is not None) == sat
                if got is not None:
                    m, w = got
                    assert all(evaluate(m, w, f) for f in fs)

    def test_constants(self):
        assert is_satisfiable([], System.K)
        assert is_satisfiable((TRUE, TRUE), System.T)
        assert not is_satisfiable((var("p"), FALSE), System.K)
        assert find_model((TRUE, FALSE), System.T) is None
        m, w = find_model((), System.K)
        assert evaluate(m, w, TRUE)
        # constants under a modality; ~<>true is []false in NNF
        for text in ("<>true", "[]false", "~<>true", "<>true & []false"):
            f = parse(text)
            for system in (System.K, System.T):
                sat = is_satisfiable(f, system)
                assert sat == (sat_by_enumeration(f, system)
                               is not None), text
                got = find_model(f, system)
                assert (got is not None) == sat, text
                if got is not None:
                    assert evaluate(got[0], got[1], f), text

    def test_entailment_unchanged(self, rng):
        for _ in range(100):
            p, t, c = (rand_formula(rng, depth=2, size=5) for _ in range(3))
            for system in (System.K, System.T):
                built = not is_satisfiable(land(land(p, t), lnot(c)),
                                           system)
                assert entails_mod(p, t, c, system) == built


class TestEntailment:
    def test_conjunct(self):
        assert entails(parse("p & q"), parse("p"), System.K)

    def test_diamond_monotone(self):
        assert entails(parse("<>(a & b)"), parse("<>a"), System.K)

    def test_axiom_t_only_in_t(self):
        assert not entails(parse("[]p"), parse("p"), System.K)
        assert entails(parse("[]p"), parse("p"), System.T)

    def test_modulo_trivial_theory(self):
        assert entails_mod(parse("p"), parse("true"), parse("p | q"), System.K)

    def test_minimization_direction_that_fires(self):
        # deleting (D | p2) during minimization uses the weakening direction
        d = parse("<>([]~p3 & <>p2 & (p1 | p2))")
        by = parse("[](p1 | p2)")
        assert entails_mod(d, by, lor(d, var("p2")), System.T)

    def test_disjunction_not_collapsed_by_theory(self):
        # the reverse direction does not hold: p2 alone gives no <>-witness
        d = parse("<>([]~p3 & <>p2 & (p1 | p2))")
        by = parse("[](p1 | p2)")
        assert not entails_mod(lor(d, var("p2")), by, d, System.T)
        counter = land(lor(d, var("p2")), by, lnot(d))
        assert sat_by_enumeration(counter, System.T) is not None

    def test_theory_does_not_decide_disjunct(self):
        assert not entails_mod(parse("p1 | p2"), parse("[](p1 | p2)"),
                               parse("p1"), System.T)


class TestEquivalence:
    def test_nnf_equivalent(self):
        assert equivalent(parse("~<>(p | []q)"), parse("[](~p & <>~q)"),
                          System.K)

    def test_box_distributes_over_and(self):
        assert equivalent(parse("[](a & b)"), parse("[]a & []b"), System.K)

    def test_duplicate_disjuncts_collapse(self):
        d = "<>([]~p3 & <>p2 & (p1 | p2))"
        assert equivalent(parse(d), parse(f"{d} | {d}"), System.T)

    def test_equivalent_mod(self):
        # under [](p & q) every world reachable satisfies both atoms
        assert equivalent_mod(parse("[]p"), parse("[]q"),
                              parse("[](p & q)"), System.K)


class TestSystemRelationship:
    def test_t_sat_implies_k_sat(self, rng):
        for _ in range(200):
            f = rand_formula(rng, depth=2, size=10)
            if is_satisfiable(f, System.T):
                assert is_satisfiable(f, System.K)


def _answers(fs, instances):
    """Keys of the negations, K and T verdicts of the formulas, and
    each instance's literal-wise clause test over the clauses and its
    compiled K answers to them."""
    out = []
    for f in fs:
        out.append(lnot(f).key)
        out += [is_satisfiable(lnot(f), system) for system in System]
    for x, y, clauses in instances:
        for q in clauses:
            test = query_test(q, y, System.K)
            out.append([test(pi) for pi in clauses])
        comp = compile_kb(x, y, System.K)
        for q in clauses:
            v = answer_query(comp, q)
            out.append((v.answer, v.witness))
    return out


class TestSharedTables:
    """The intern table and the NNF memo of `formula`, which `clear_cache`
    empties along with the sat cache."""

    def test_limit_empties_tables(self, rng, monkeypatch):
        fs = [rand_formula(rng, depth=3, size=12) for _ in range(120)]
        instances = []
        for _ in range(6):
            x, y = rand_instance(rng)
            instances.append((x, y, [rand_clause(rng) for _ in range(8)]))
        clear_cache()
        want = _answers(fs, instances)
        clear_cache()
        monkeypatch.setattr(formula_module, "_TABLE_LIMIT", 40)
        sizes = []
        real = formula_module._shared

        def shared(cls, key, arg):
            sizes.append(len(formula_module._interned))
            return real(cls, key, arg)

        monkeypatch.setattr(formula_module, "_shared", shared)
        tests = []
        prepare = semantics_module._prepare

        def prepared(*args):
            tests.append(len(semantics_module._query_tests))
            return prepare(*args)

        monkeypatch.setattr(semantics_module, "_prepare", prepared)
        assert _answers(fs, instances) == want
        assert max(sizes) <= 40
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied
        assert 0 < len(formula_module._negations) <= 40
        tests.append(len(semantics_module._query_tests))
        assert max(tests) <= 40
        assert any(b < a for a, b in zip(tests, tests[1:]))  # emptied
        clear_cache()
        assert not formula_module._interned and not formula_module._negations
        assert not semantics_module._query_tests

    def test_limit_empties_sat_cache(self, rng, monkeypatch):
        fs = [rand_formula(rng, depth=3, size=12) for _ in range(120)]
        instances = []
        for _ in range(6):
            x, y = rand_instance(rng)
            instances.append((x, y, [rand_clause(rng) for _ in range(8)]))
        clear_cache()
        want = _answers(fs, instances)
        clear_cache()
        monkeypatch.setattr(formula_module, "_TABLE_LIMIT", 40)
        sizes = []
        real = semantics_module._solve

        def solve(world, system, budget):
            sizes.append(len(semantics_module._sat_cache))
            return real(world, system, budget)

        monkeypatch.setattr(semantics_module, "_solve", solve)
        assert _answers(fs, instances) == want
        sizes.append(len(semantics_module._sat_cache))
        assert max(sizes) <= 40
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied

    def test_limit_empties_parse_memo(self, rng, monkeypatch):
        texts = [str(rand_formula(rng, depth=3, size=12)) for _ in range(150)]
        texts += ["p -> q -> <>r", "(a <-> b) & []~c", " a | b ", "a|b"]
        clear_cache()
        keys = [parse(t).key for t in texts]
        want = _answers([parse(t) for t in texts], [])
        clear_cache()
        monkeypatch.setattr(formula_module, "_TABLE_LIMIT", 40)
        parsed, sizes = [], []
        for t in texts + texts[::-1]:
            parsed.append(parse(t))
            sizes.append(len(formula_module._parsed))
        assert max(sizes) <= 40
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied
        assert [f.key for f in parsed] == keys + keys[::-1]
        assert _answers(parsed[:len(texts)], []) == want
        clear_cache()
        assert not formula_module._parsed

    def test_threads_race_a_reset(self):
        rng = random.Random(7)
        texts = [str(rand_formula(rng, depth=3, size=12)) for _ in range(40)]
        texts += ["p -> q -> <>r", "(a <-> b) & []~c", "~[](p | <>~q)"]

        def work(text):
            f = parse(text)
            g = lnot(f)
            return (f, g, land(f, box(g)), is_satisfiable(g, System.K))

        want = [work(t) for t in texts]
        errors, results = [], [None] * 4
        stop = threading.Event()

        def builder(n):
            try:
                results[n] = [work(t) for _ in range(25) for t in texts]
            except Exception as err:  # reported by the assertion below
                errors.append(err)

        def resetter():
            while not stop.is_set():
                clear_cache()

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=builder, args=(n,))
                       for n in range(4)]
            reset = threading.Thread(target=resetter)
            reset.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            stop.set()
            reset.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads + [reset])
        assert errors == []
        for got in results:
            assert got == want * 25


# Run in a fresh interpreter: for each formula set read from stdin, the
# smallest node budget that decides it in K on a cold cache, and the
# models find_model gives in K and in T; for each (x, y) read, its T
# compilation's answers and witnesses, and the smallest cold budgets of
# T clause tests.
_SEED_PROBE = """
import json, sys
from modaltpi.errors import BudgetExceededError
from modaltpi.formula import parse
from conftest import clause_vocabulary
from modaltpi.pi import compile_kb
from modaltpi.qa import answer_query
from modaltpi.semantics import (
    System, clear_cache, find_model, is_satisfiable, query_test,
)

def cold_budget(decide):
    budget = 0
    while True:
        clear_cache()
        try:
            decide(budget)
            return budget
        except BudgetExceededError:
            budget += 1

cases = json.load(sys.stdin)
for texts in cases["sets"]:
    fs = [parse(t) for t in texts]
    found = [find_model(fs, s) for s in (System.K, System.T)]
    print(json.dumps([cold_budget(
        lambda b: is_satisfiable(fs, System.K, node_budget=b))]
                     + [f and f[0].to_dict() for f in found]))
for x, y in cases["kbs"]:
    x, y = parse(x), parse(y)
    comps = [compile_kb(x, y, s) for s in (System.K, System.T)]
    comp = comps[1]
    answers = [answer_query(comp, v)[1:3]
               for v in clause_vocabulary(("a", "b"))]
    print(json.dumps([[a, w and w.key] for a, w in answers] + [cold_budget(
        lambda b: query_test(parse("[]a | <>~b | c"), y, System.T,
                             node_budget=b)(pi)) for pi in comp.omega()]
                     + [[[c.key for c in r.theta], r.stats["nb_cl_candidates"],
                         r.stats["entailment_calls"],
                         [c.key for c in r.candidates]] for r in comps]))
# a branch with two <>-bodies, one of them closed by the []-literal
for q, pi in cases["tests"]:
    q, pi = parse(q), parse(pi)
    print(cold_budget(
        lambda b: query_test(q, parse("true"), System.T, node_budget=b)(pi)))
"""


class TestHashSeed:
    """Worlds are canonical tuples, so nothing the tableau does depends on
    the order in which Python iterates a set of formulas."""

    def test_budgets_and_models_equal_across_seeds(self):
        # and so do compiled T answers, built on branch states that
        # iterate sets of formulas, and the K and T compiles, whose
        # candidate picks `distribute` returns as a set
        rng = random.Random(5)
        sets = [["<>((a | b) & (c | d)) & [](~a | ~c) & [](e | f)"]]
        for _ in range(12):
            x, y = rand_instance(rng, names=("a", "b", "c", "d"),
                                 max_clauses=6)
            sets.append([str(x), str(box(y))])
        kbs = [["(a | b) & ([]~a | []c) & <>(b | c)", "a | b"]]
        for _ in range(8):
            kbs.append(list(map(str, rand_instance(rng, names=("a", "b")))))
        tests = [[f"[]{u} | []{v} | <>{w}", f"[]({u} | {w})"]
                 for u, v, w in itertools.permutations("abcde", 3)]
        cases = {"sets": sets, "kbs": kbs, "tests": tests}
        src = str(Path(modaltpi.__file__).resolve().parent.parent)
        here = str(Path(__file__).resolve().parent)
        path = os.pathsep.join(
            filter(None, [src, here, os.environ.get("PYTHONPATH")]))
        outputs = []
        for seed in range(4):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", _SEED_PROBE], input=json.dumps(cases),
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout.splitlines())
        assert len(outputs[0]) == len(sets) + len(kbs) + len(tests)
        for seed, got in enumerate(outputs[1:], start=1):
            assert got == outputs[0], f"hash seed {seed} differs from 0"
