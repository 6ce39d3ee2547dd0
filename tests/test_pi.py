import random

import pytest
from hypothesis import given, settings, strategies as st

import modaltpi.pi as pi_module
from modaltpi.errors import (
    CapacityError, InconsistentTermError, PreconditionError,
)
from modaltpi.formula import (
    FALSE, TRUE, box, decompose_term, dia, land, lnot, lor, modal_depth,
    parse, sort_formulas, var,
)
from modaltpi.oracle import clause_vocabulary, enumerate_implicates
from modaltpi.pi import (
    _minimize, candidates, compile_kb, default_theory, is_horn,
    prime_implicates, term_candidates,
)
from modaltpi.semantics import (
    System, clause_test, entails, entails_mod, equivalent, equivalent_mod,
    is_satisfiable,
)

from conftest import rand_instance


X_GOLDEN = "(p1 | p2) & <>[]~p3 & []<>p2"
Y_GOLDEN = "p1 | p2"

# the candidate list of the worked example, written out both ways the
# commuted pair appears; canonicalization folds it to 8 distinct clauses
PAPER_CANDIDATES = [
    "p1 | p2",
    "p1 | [](<>p2 & (p1 | p2))",
    "p1 | <>([]~p3 & <>p2 & (p1 | p2))",
    "[](<>p2 & (p1 | p2)) | p2",
    "[](<>p2 & (p1 | p2))",
    "[](<>p2 & (p1 | p2)) | <>([]~p3 & <>p2 & (p1 | p2))",
    "<>([]~p3 & <>p2 & (p1 | p2)) | p2",
    "<>([]~p3 & <>p2 & (p1 | p2)) | [](<>p2 & (p1 | p2))",
    "<>([]~p3 & <>p2 & (p1 | p2))",
]

PAPER_THETA = [
    "p1 | p2",
    "[](<>p2 & (p1 | p2))",
    "<>([]~p3 & <>p2 & (p1 | p2))",
]

VOCABULARY = clause_vocabulary(("a", "b"))
PROP_CLAUSES = [c for c in VOCABULARY if modal_depth(c) == 0]


class TestTermCandidates:
    def test_golden_term(self):
        t = parse("p1 & <>[]~p3 & []<>p2 & [](p1 | p2)")
        got = set(term_candidates(decompose_term(t)))
        assert got == {
            parse("p1"),
            parse("<>([]~p3 & <>p2 & (p1 | p2))"),
            parse("[](<>p2 & (p1 | p2))"),
        }

    def test_propositional_term(self):
        got = set(term_candidates(decompose_term(parse("p & q"))))
        assert got == {var("p"), var("q")}

    def test_dia_box_bundling(self):
        got = set(term_candidates(decompose_term(parse("<>a & []b"))))
        assert got == {parse("<>(a & b)"), parse("[]b")}
        # every candidate is entailed by the term
        for c in got:
            assert entails(parse("<>a & []b"), c, System.K)
        # nothing strictly stronger within the bounded clause vocabulary
        # is missed: each bounded implicate follows from some candidate
        for imp in enumerate_implicates(parse("<>a & []b"), TRUE, System.K,
                                        names=["a", "b"]):
            assert any(entails(c, imp, System.K) for c in got)

    def test_inconsistent_term_rejected(self):
        with pytest.raises(InconsistentTermError):
            term_candidates(decompose_term(parse("p & ~p & <>q")))


class TestCandidates:
    def test_golden_matches_worked_example(self):
        got = candidates(parse(f"({X_GOLDEN}) & [](p1 | p2)"))
        assert set(got) == {parse(s) for s in PAPER_CANDIDATES}
        assert len(got) == 8  # the commuted pair collapses

    def test_single_term_passthrough(self):
        assert set(candidates(parse("p & q"))) == {var("p"), var("q")}

    def test_cross_disjunction(self):
        assert candidates(parse("p | q")) == (parse("p | q"),)

    def test_inconsistent_base_yields_bottom(self):
        assert candidates(parse("p & ~p & <>q")) == (FALSE,)

    def test_soundness_random(self, rng):
        checked = 0
        while checked < 25:
            x, y = rand_instance(rng)
            f = land(x, box(y))
            try:
                cs = candidates(f)
            except CapacityError:
                continue
            checked += 1
            for c in cs:
                assert entails(f, c, System.K)

    def test_cap(self):
        f = land(lor(var(f"a{i}"), var(f"b{i}")) for i in range(10))
        with pytest.raises(CapacityError):
            candidates(f, max_clauses=50)


class TestResidue:
    def test_subsumption(self):
        got = _minimize([var("p"), parse("p | q")], TRUE, System.K)[0]
        assert got == (var("p"),)

    def test_golden_minimization_reproduces_example_in_k(self):
        cands = [parse(s) for s in PAPER_CANDIDATES]
        got = _minimize(cands, parse("[](p1 | p2)"), System.K)[0]
        assert set(got) == {parse(s) for s in PAPER_THETA}

    def test_reflexivity_also_removes_theory_entailed_clause(self):
        # in T the boxed theory forces its body at the root, so the
        # propositional clause is strictly entailed and drops out
        cands = [parse(s) for s in PAPER_CANDIDATES]
        got = _minimize(cands, parse("[](p1 | p2)"), System.T)[0]
        assert set(got) == {parse("[](<>p2 & (p1 | p2))"),
                            parse("<>([]~p3 & <>p2 & (p1 | p2))")}

    def test_commuted_duplicates_collapse_before_residue(self):
        a = parse("p | q")
        b = parse("q | p")
        assert a == b
        assert _minimize([a, b], TRUE, System.K)[0] == (a,)

    def test_result_pairwise_incomparable(self, rng):
        for _ in range(10):
            x, y = rand_instance(rng)
            by = box(y)
            theta = _minimize(candidates(land(x, by)), by, System.T)[0]
            for s in theta:
                for t in theta:
                    if s.key != t.key:
                        assert not entails_mod(s, by, t, System.T)

    @settings(max_examples=300, deadline=None)
    @given(clauses=st.lists(st.sampled_from(VOCABULARY), max_size=7),
           theory=st.one_of(
               st.just(TRUE),
               st.lists(st.sampled_from(PROP_CLAUSES), min_size=1,
                        max_size=2).map(lambda cs: box(land(cs)))),
           system=st.sampled_from(list(System)))
    def test_matches_entailment_matrix(self, clauses, theory, system):
        # keep c unless some other clause entails it and either c does not
        # entail it back or it comes first in canonical order
        cs = sort_formulas(set(clauses))
        implies = [[entails_mod(a, theory, b, system) for b in cs] for a in cs]
        want = tuple(
            c for j, c in enumerate(cs)
            if not any(implies[i][j] and (not implies[j][i] or i < j)
                       for i in range(len(cs)) if i != j))
        assert _minimize(clauses, theory, system)[0] == want

    def test_counts_the_checks_it_runs(self, monkeypatch, rng):
        # every check is a call of a predicate that clause_test returned
        real = pi_module.clause_test
        runs = []

        def prepared(*args, **kwargs):
            test = real(*args, **kwargs)

            def counted(a):
                runs.append(a)
                return test(a)

            return counted

        monkeypatch.setattr(pi_module, "clause_test", prepared)
        instances = [(parse(X_GOLDEN), parse(Y_GOLDEN))]
        instances += [rand_instance(rng) for _ in range(5)]
        for x, y in instances:
            for system in (System.K, System.T):
                runs.clear()
                try:
                    comp = compile_kb(x, y, system)
                except CapacityError:
                    continue
                assert comp.stats["entailment_calls"] == len(runs)

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_prepared_test_matches_entails_mod(self, system):
        # the check _minimize runs on every ordered pair of candidates;
        # their bodies are conjunctions with nested modalities, and a
        # <>-body bundled with []false makes the candidate false
        rng = random.Random(0)
        kbs = [(parse(X_GOLDEN), parse(Y_GOLDEN))]
        kbs += [rand_instance(rng) for _ in range(8)]
        kbs += [(parse("p & []false & <>q"), var("p"))]
        for x, y in kbs:
            for theory in (y, TRUE):
                cands = candidates(land(x, box(theory)))
                for b in cands:
                    test = clause_test(b, theory, system)
                    for a in cands:
                        assert test(a) == entails_mod(a, box(theory), b,
                                                      system), (a, b)

    @pytest.mark.parametrize("system", [System.K, System.T])
    @pytest.mark.parametrize("text", ["p & []false & <>q", "[]false & <>q"])
    def test_false_candidate(self, text, system):
        x = parse(text)
        for y in (TRUE, default_theory(x, system)):
            comp = compile_kb(x, y, system)
            assert FALSE in comp.candidates
            assert comp.theta == (FALSE,)


class TestPrimeImplicates:
    def test_conjunction(self):
        assert set(prime_implicates(parse("p & q"))) == {var("p"), var("q")}

    def test_disjunction(self):
        assert prime_implicates(parse("p | q")) == (parse("p | q"),)

    def test_golden_base_equivalent_to_its_prime_implicates(self):
        x = parse(X_GOLDEN)
        for system in (System.K, System.T):
            pi = prime_implicates(x, system)
            assert equivalent(x, land(pi), system)


class TestTheoryPrimeImplicates:
    def test_golden_in_k_reproduces_example(self):
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.K)
        assert set(comp.theta) == {parse(s) for s in PAPER_THETA}
        assert set(comp.theta) <= set(comp.candidates)
        assert comp.stats["nb_cl_candidates"] == 8
        assert comp.stats["nb_cl_theta"] == 3

    def test_golden_in_t(self):
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.T)
        assert set(comp.theta) == {parse("[](<>p2 & (p1 | p2))"),
                                   parse("<>([]~p3 & <>p2 & (p1 | p2))")}
        # still the same knowledge modulo the boxed theory
        assert equivalent_mod(land(comp.theta),
                              land(parse(s) for s in PAPER_THETA),
                              comp.box_y, System.T)

    def test_empty_theory_degenerates_to_prime_implicates(self):
        x = parse(X_GOLDEN)
        comp = compile_kb(x, TRUE, System.T)
        assert set(comp.theta) == set(prime_implicates(x, System.T))
        assert comp.box_y is TRUE

    def test_reflexive_theory_absorbs_its_own_clauses(self):
        comp = compile_kb(parse("p & q"), var("p"), System.T)
        assert comp.theta == (var("q"),)
        assert equivalent_mod(parse("p & q"), land(comp.theta),
                              comp.box_y, System.T)

    def test_requires_entailed_theory(self):
        with pytest.raises(PreconditionError):
            compile_kb(var("p"), var("q"), System.T)

    def test_requires_propositional_theory(self):
        with pytest.raises(PreconditionError):
            compile_kb(parse("[]p"), parse("[]p"), System.T)

    def test_theta_stable_under_equivalent_reformulation(self):
        # same knowledge, different syntax: add an entailed clause to x and
        # an absorbed disjunct to y; members correspond modulo the theory
        x = parse(X_GOLDEN)
        x2 = land(x, parse("p1 | p2 | p3"))
        y = parse(Y_GOLDEN)
        y2 = land(y, lor(y, var("q")))
        for system in (System.K, System.T):
            assert equivalent(x, x2, system)
            assert equivalent(y, y2, system)
            a = compile_kb(x, y, system)
            b = compile_kb(x2, y2, system)
            by = a.box_y
            assert all(any(equivalent_mod(t, p, by, system) for p in b.theta)
                       for t in a.theta)
            assert all(any(equivalent_mod(t, p, by, system) for t in a.theta)
                       for p in b.theta)

    def test_modally_inconsistent_base_compiles_to_bottom(self):
        x = parse("p & <>a & []~a")
        assert not is_satisfiable(x, System.K)
        comp = compile_kb(x, TRUE, System.K)
        assert len(comp.theta) == 1
        assert not is_satisfiable(land(comp.theta[0], TRUE), System.K)
        assert equivalent_mod(x, land(comp.theta), TRUE, System.K)

    def test_theta_sound_and_within_candidates(self, rng):
        for _ in range(10):
            x, y = rand_instance(rng)
            try:
                comp = compile_kb(x, y, System.T)
            except CapacityError:
                continue
            assert set(comp.theta) <= set(comp.candidates)
            for t in comp.theta:
                assert entails_mod(x, comp.box_y, t, System.T)


class TestCompileKb:
    def test_golden_omega_in_k(self):
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.K)
        omega = set(comp.omega())
        assert omega == {parse(s) for s in PAPER_THETA} | {parse("[](p1 | p2)")}

    def test_omega_built_once(self):
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.T)
        assert comp.omega() is comp.omega()

    def test_trivial_theory(self):
        comp = compile_kb(var("p"), TRUE, System.T)
        assert set(comp.omega()) == {var("p")}
        assert equivalent(land(comp.omega()), var("p"), System.T)

    def test_precondition_violation(self):
        with pytest.raises(PreconditionError):
            compile_kb(var("p"), var("q"), System.T)


class TestIsHorn:
    def test_two_positive_literals(self):
        assert not is_horn(parse("p1 | p2"))

    def test_implication_clause(self):
        assert is_horn(parse("~p | q"))

    def test_unit_positive(self):
        assert is_horn(var("p"))

    def test_recorded_on_compilation(self):
        comp = compile_kb(parse(X_GOLDEN), parse(Y_GOLDEN), System.K)
        assert comp.horn_advisory is False


class TestDefaultTheory:
    def test_extracts_propositional_clauses(self):
        y = default_theory(parse(X_GOLDEN), System.T)
        assert y == parse("p1 | p2")

    def test_no_propositional_part_gives_true(self):
        assert default_theory(parse("<>a & []b"), System.K) is TRUE
