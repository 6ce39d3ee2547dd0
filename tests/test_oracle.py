import itertools

import pytest

from modaltpi import oracle
from modaltpi.errors import BudgetExceededError
from modaltpi.formula import (
    TRUE, box, dia, land, lnot, lor, parse, var,
)
from modaltpi.oracle import _child_combos, _closure, sat_by_enumeration
from modaltpi.pi import prime_implicates
from modaltpi.semantics import System, entails, evaluate, is_satisfiable

from conftest import (
    check_decomposition, clause_vocabulary, enumerate_implicates,
    rand_formula, rand_prop,
)


class TestSatByEnumeration:
    def test_propositional_contradiction(self):
        assert sat_by_enumeration(parse("p & ~p"), System.K) is None

    def test_two_world_witness(self):
        model, world = sat_by_enumeration(parse("<>p"), System.K)
        assert evaluate(model, world, parse("<>p"))
        assert len(model.worlds) == 2

    def test_reflexive_root_refutes_at_depth_zero(self):
        assert sat_by_enumeration(parse("[]p & ~p"), System.T) is None

    def test_independent_of_the_tableau(self):
        # the oracle validates the tableau, so it binds none of its
        # decision procedures
        procedures = {"is_satisfiable", "find_model", "entails",
                      "entails_mod", "equivalent", "equivalent_mod",
                      "query_test"}
        assert procedures.isdisjoint(vars(oracle))

    def test_bounds_cover_formula(self):
        _, _, (depth, branching, names) = _closure(
            parse("<>a | <>(b & <>c) | []a"))
        assert depth == 2
        assert branching == 3  # distinct diamonds
        assert names == ("a", "b", "c")

    def test_deterministic_witness(self):
        f = parse("<>(a | b) & <>~a")
        one_model, one_world = sat_by_enumeration(f, System.K)
        two_model, two_world = sat_by_enumeration(f, System.K)
        assert one_model.to_dict() == two_model.to_dict()
        assert one_world == two_world

    def test_budget(self):
        f = parse("(a | b) & (~a | c) & <>(a & ~c) & [](b | c)")
        with pytest.raises(BudgetExceededError):
            sat_by_enumeration(f, System.K, budget=2)
        # the smallest budget that decides f; the oracle ticks the
        # tableau's budget counter, with its own message
        f = parse("<>a & <>~a & [](b | c) & <>(~b & ~c | d)")
        with pytest.raises(BudgetExceededError, match="oracle"):
            sat_by_enumeration(f, System.K, budget=2752)
        assert sat_by_enumeration(f, System.K, budget=2753) is not None

    def test_agreement_with_tableau(self, rng):
        for _ in range(150):
            f = rand_formula(rng, depth=2, size=10)
            for system in (System.K, System.T):
                assert (is_satisfiable(f, system)
                        == (sat_by_enumeration(f, system) is not None))

    def test_child_combos_keep_smallest_realization(self, monkeypatch):
        # formula 598 of acceptance 6's corpus, unsatisfiable in T: its
        # depth-2 pass reaches some aggregates first through larger
        # sets of children
        calls = []

        def recording(types, max_branching, tick):
            combos = _child_combos(types, max_branching, tick)
            calls.append((dict(types), max_branching, combos))
            return combos

        monkeypatch.setattr(oracle, "_child_combos", recording)
        f = parse("<>(b & ~c & <>b & []c & <>~c)")
        sat_by_enumeration(f, System.T)
        assert len(calls) == 2
        for types, max_branching, combos in calls:
            best = {}
            for k in range(1, max_branching + 1):
                for kids in itertools.combinations_with_replacement(
                        types.items(), k):
                    vecs = [vec for vec, _ in kids]
                    key = (tuple(map(any, zip(*vecs))),
                           tuple(map(all, zip(*vecs))))
                    size = sum(size for _, (size, _) in kids)
                    best[key] = min(best.get(key, size), size)
            assert {key: size for key, (size, _) in combos.items()} == best
            # each realization is made of known child witnesses
            sizes = {id(tree): size for size, tree in types.values()}
            for size, trees in combos.values():
                assert size == sum(sizes[id(t)] for t in trees)


class TestEnumerateImplicates:
    def test_propositional_units(self):
        got = enumerate_implicates(parse("p & q"), TRUE, System.K,
                                   names=["p", "q"], max_disjuncts=1,
                                   max_modal_depth=0)
        assert set(got) == {var("p"), var("q")}

    def test_golden_includes_theory_clause(self):
        got = enumerate_implicates(parse("(p1 | p2) & <>[]~p3 & []<>p2"),
                                   parse("[](p1 | p2)"), System.K,
                                   names=["p1", "p2"], max_disjuncts=2,
                                   max_modal_depth=0)
        assert parse("p1 | p2") in got

    def test_diamond_kept_box_excluded(self):
        got = enumerate_implicates(parse("<>a"), TRUE, System.K,
                                   names=["a"], max_disjuncts=1)
        assert parse("<>a") in got
        assert parse("[]a") not in got

    def test_prime_implicate_upward_closure(self):
        x = parse("p & (q | <>r)")
        pi = prime_implicates(x, System.K)
        enum = enumerate_implicates(x, TRUE, System.K)
        for c in enum:
            assert any(entails(p, c, System.K) for p in pi)
        for p in pi:
            if p in set(clause_vocabulary(["p", "q", "r"])):
                assert p in enum


class TestCheckDecomposition:
    def test_propositional_clash(self):
        assert check_decomposition(
            alpha=[lnot(var("p"))], beta=[], gamma=[], psi=[var("p")],
            phi=[], xi=[], y=TRUE, system=System.K)

    def test_negated_propositional_member_tail(self):
        # tail = negation of the worked example's propositional survivor
        assert check_decomposition(
            alpha=[var("p1"), var("p2")], beta=[parse("[]~p3")],
            gamma=[parse("<>p2")], psi=[lnot(var("p1")), lnot(var("p2"))],
            phi=[], xi=[], y=parse("p1 | p2"), system=System.K)

    def test_negated_modal_member_tail_exposes_gap(self):
        # tail = negation of the <>-shaped survivor: the left side is
        # unsatisfiable through a beta/gamma interaction at the successor,
        # which none of the seven split conditions examines
        assert not check_decomposition(
            alpha=[var("p1"), var("p2")], beta=[parse("[]~p3")],
            gamma=[parse("<>p2")], psi=[],
            phi=[parse("<>p3 | []~p2 | (~p1 & ~p2)")],
            xi=[], y=parse("p1 | p2"), system=System.K)

    def test_minimal_beta_gamma_gap(self):
        # successor of a <>-literal must also satisfy every []-body; the
        # split never conjoins the two groups, so both sides disagree
        assert not check_decomposition(
            alpha=[var("c")], beta=[lnot(var("b"))], gamma=[var("b")],
            psi=[], phi=[], xi=[], y=TRUE, system=System.K)

    def test_root_is_not_constrained_by_the_theory_in_k(self):
        # the first split condition conjoins the theory at the root world,
        # but without reflexivity the boxed theory only binds successors
        assert not check_decomposition(
            alpha=[var("c")], beta=[lnot(var("a"))], gamma=[box(var("c"))],
            psi=[], phi=[], xi=[], y=lnot(var("c")), system=System.K)

    def test_rejects_modal_alpha(self):
        with pytest.raises(ValueError):
            check_decomposition(alpha=[parse("[]p")], beta=[], gamma=[],
                                psi=[], phi=[], xi=[], y=TRUE,
                                system=System.K)

    def test_rejects_modal_theory(self):
        with pytest.raises(ValueError):
            check_decomposition(alpha=[var("p")], beta=[], gamma=[],
                                psi=[], phi=[], xi=[], y=parse("[]p"),
                                system=System.K)

    def test_transcribes_both_sides_faithfully(self):
        # rebuild both sides with raw tableau calls and compare verdicts
        import random
        r = random.Random(77)
        for _ in range(60):
            alpha = [rand_prop(r, size=3)]
            beta = [rand_formula(r, depth=1, size=3)
                    for _ in range(r.randrange(1, 3))]
            gamma = [rand_formula(r, depth=1, size=3)]
            psi = [rand_prop(r, size=3)] if r.random() < 0.5 else []
            phi = [rand_formula(r, depth=1, size=3)] if r.random() < 0.5 else []
            xi = [rand_formula(r, depth=1, size=3)] if r.random() < 0.5 else []
            y = rand_prop(r, size=3)

            a, bd, gb = lor(alpha), lor([dia(b) for b in beta]), \
                lor([box(g) for g in gamma])
            lhs = land([a, bd, gb, lor([a, bd]), lor([a, gb]),
                        lor([bd, gb]), lor([a, bd, gb])] + psi
                       + [box(p) for p in phi] + [dia(q) for q in xi])
            lhs_unsat = not is_satisfiable(land(lhs, box(y)), System.K)
            conds = [
                not is_satisfiable(land([a] + psi + [y]), System.K),
                not is_satisfiable(land([lor(beta)] + phi + [y]), System.K),
                any(not is_satisfiable(land([lor(gamma), u] + phi + [y]),
                                       System.K) for u in xi),
                not is_satisfiable(land([lor(alpha + beta)] + phi + [y]),
                                   System.K),
                any(not is_satisfiable(land([lor(alpha + gamma), u] + phi
                                            + [y]), System.K) for u in xi),
                not is_satisfiable(land([lor(beta + gamma)] + phi + [y]),
                                   System.K),
                not is_satisfiable(land([lor(alpha + beta + gamma)] + phi
                                        + [y]), System.K),
            ]
            assert check_decomposition(alpha, beta, gamma, psi, phi, xi, y,
                                       System.K) == (lhs_unsat == any(conds))
