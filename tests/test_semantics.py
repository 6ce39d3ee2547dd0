import random
import sys
import threading
import time

import pytest

import modaltpi.formula as formula_module
from modaltpi.errors import BudgetExceededError
from modaltpi.formula import (
    FALSE, TRUE, box, dia, land, lnot, lor, nnf, parse, var,
)
from modaltpi.semantics import (
    KripkeModel, System, clear_cache, clause_test, entails, entails_mod,
    equivalent, equivalent_mod, evaluate, find_model, is_satisfiable,
)
from modaltpi.oracle import sat_by_enumeration, sufficient_bounds

from conftest import rand_clause, rand_formula, rand_instance


def model(worlds, relation, valuation):
    return KripkeModel(tuple(worlds), frozenset(relation),
                       {w: frozenset(v) for w, v in valuation.items()})


class TestKripkeModel:
    def test_rejects_dangling_relation(self):
        with pytest.raises(ValueError):
            model([0], {(0, 1)}, {0: set()})

    def test_reflexive_closure(self):
        m = model([0, 1], {(0, 1)}, {0: set(), 1: set()})
        closed = m.reflexive_closure()
        assert (0, 0) in closed.relation and (1, 1) in closed.relation


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
        outcome = sat_by_enumeration(f, System.T, sufficient_bounds(f))
        assert outcome.satisfiable

    def test_budget_is_distinct_outcome(self):
        from modaltpi.semantics import clear_cache
        clear_cache()
        f = parse("(a | b) & (b | c) & <>(a & c) & [](a | c)")
        with pytest.raises(BudgetExceededError):
            is_satisfiable(f, System.K, node_budget=2)


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
                    assert evaluate(m, w, nnf(f))


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

    def test_entailment_unchanged(self, rng):
        for _ in range(100):
            p, t, c = (rand_formula(rng, depth=2, size=5) for _ in range(3))
            for system in (System.K, System.T):
                built = not is_satisfiable(land(land(p, t), nnf(lnot(c))),
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
        counter = land(lor(d, var("p2")), by, nnf(lnot(d)))
        assert sat_by_enumeration(counter, System.T,
                                  sufficient_bounds(counter)).satisfiable

    def test_theory_does_not_decide_disjunct(self):
        assert not entails_mod(parse("p1 | p2"), parse("[](p1 | p2)"),
                               parse("p1"), System.T)


class TestEquivalence:
    def test_nnf_equivalent(self):
        f = parse("~<>(p | []q)")
        assert equivalent(f, nnf(f), System.K)

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
    """NNF keys of the negations, K and T verdicts of the formulas, and
    each instance's literal-wise clause test over the clauses."""
    out = []
    for f in fs:
        out.append(nnf(lnot(f)).key)
        out += [is_satisfiable(lnot(f), system) for system in System]
    for x, y, clauses in instances:
        for q in clauses:
            test = clause_test(q, y, System.K)
            out.append([test(pi) for pi in clauses + [x]])
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

        def shared(cls, arg):
            sizes.append(len(formula_module._interned))
            return real(cls, arg)

        monkeypatch.setattr(formula_module, "_shared", shared)
        assert _answers(fs, instances) == want
        assert max(sizes) <= 40
        assert any(b < a for a, b in zip(sizes, sizes[1:]))  # emptied
        assert 0 < len(formula_module._nnf_of) <= 40
        clear_cache()
        assert not formula_module._interned and not formula_module._nnf_of

    def test_threads_race_a_reset(self):
        rng = random.Random(7)
        texts = [str(rand_formula(rng, depth=3, size=12)) for _ in range(40)]
        texts += ["p -> q -> <>r", "(a <-> b) & []~c", "~[](p | <>~q)"]

        def work(text):
            f = parse(text)
            g = nnf(lnot(f))
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
