import random

import pytest
from hypothesis import given, settings, strategies as st

import modaltpi.pi as pi_module
import modaltpi.semantics as semantics_module
from modaltpi.errors import (
    BudgetExceededError, CapacityError, PreconditionError,
)
from modaltpi.formula import (
    And, Box, Dia, FALSE, TRUE, box, conjuncts, dia, disjuncts, land, lnot,
    lor, modal_depth, parse, sort_formulas, var,
)
from modaltpi.normal_forms import to_dnf
from modaltpi.pi import (
    _minimize, candidates, compile_kb, default_theory, is_horn,
    prime_implicates, term_candidates,
)
from modaltpi.qa import load_compilation, save_compilation
from modaltpi.semantics import (
    System, clear_cache, entails, entails_mod, equivalent, equivalent_mod,
    is_satisfiable, query_test,
)

from conftest import (
    clause_vocabulary, enumerate_implicates, rand_clause, rand_formula,
    rand_instance, rand_prop,
)


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
        got = set(term_candidates(t))
        assert got == {
            parse("p1"),
            parse("<>([]~p3 & <>p2 & (p1 | p2))"),
            parse("[](<>p2 & (p1 | p2))"),
        }

    def test_propositional_term(self):
        got = set(term_candidates(parse("p & q")))
        assert got == {var("p"), var("q")}

    def test_dia_box_bundling(self):
        got = set(term_candidates(parse("<>a & []b")))
        assert got == {parse("<>(a & b)"), parse("[]b")}
        # every candidate is entailed by the term
        for c in got:
            assert entails(parse("<>a & []b"), c, System.K)
        # nothing strictly stronger within the bounded clause vocabulary
        # is missed: each bounded implicate follows from some candidate
        for imp in enumerate_implicates(parse("<>a & []b"), TRUE, System.K,
                                        names=["a", "b"]):
            assert any(entails(c, imp, System.K) for c in got)


class _ReferenceParts:
    """A term, given as its literals, split into propositional literals,
    <>-bodies and []-bodies: the parts type `term_candidates` split its
    terms with before it split them by printed form."""

    def __init__(self, literals):
        prop, dias, boxes = [], [], []
        for lit in literals:
            if isinstance(lit, Dia):
                dias.append(lit.child)
            elif isinstance(lit, Box):
                boxes.append(lit.child)
            else:
                prop.append(lit)
        self.prop = frozenset(prop)
        self.dia = sort_formulas(dias)
        self.box = sort_formulas(boxes)


def _reference_term_candidates(t) -> tuple:
    """`term_candidates` as it was, through `_ReferenceParts`."""
    parts = _ReferenceParts(t.children if isinstance(t, And) else (t,))
    out = list(parts.prop)
    boxed = land(parts.box)
    for b in parts.dia:
        out.append(dia(land(b, boxed)))
    if parts.box:
        out.append(box(boxed))
    return sort_formulas(set(out))


class TestTermCandidatesAgainstReference:
    def check(self, t):
        got = term_candidates(t)
        assert [c.key for c in got] == [
            c.key for c in _reference_term_candidates(t)], t

    def test_golden_term(self):
        self.check(parse("p1 & <>[]~p3 & []<>p2 & [](p1 | p2)"))

    def test_special_terms(self):
        for text in ("p", "true", "<>p & []false", "<>p & <>(p & q) & []q",
                     "[]a & []b & ~c", "<>a & <>b & p & ~q"):
            self.check(parse(text))

    def test_every_dnf_term_of_random_formulas(self):
        rng = random.Random(3003)
        terms = 0
        for _ in range(300):
            for t in to_dnf(rand_formula(rng, depth=2, size=10)).terms:
                self.check(t)
                terms += 1
        assert terms > 300


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
        with pytest.raises(CapacityError) as info:
            candidates(f, max_clauses=50)
        assert info.value.layer == "outer DNF"
        # 2^5 terms fit the cap, their picks of candidates do not
        f = land(lor(var(f"a{i}"), var(f"b{i}")) for i in range(5))
        with pytest.raises(CapacityError) as info:
            candidates(f, max_clauses=50)
        assert info.value.layer == "candidate distribution"
        assert str(info.value) == (
            "size cap 50 exceeded in the candidate distribution")


class TestKeptCandidates:
    """`candidates` builds each (formula, cap) once until `clear_cache()`."""

    def golden(self):
        return parse(X_GOLDEN), parse(Y_GOLDEN)

    def test_k_and_t_compiles_share_one_set(self):
        clear_cache()
        x, y = self.golden()
        k = compile_kb(x, y, System.K)
        t = compile_kb(x, y, System.T)
        kept = candidates(land(x, box(y)))
        assert k.candidates == t.candidates == kept
        assert len(pi_module._candidate_sets) == 1
        assert k.stats["nb_cl_candidates"] == len(kept) == 8

    def test_plain_prime_implicates_build_no_new_set(self, monkeypatch):
        clear_cache()
        x, y = self.golden()
        compile_kb(x, y, System.T)
        before = dict(pi_module._candidate_sets)

        def unexpected(*args):
            raise AssertionError("candidate set built again")

        monkeypatch.setattr(pi_module, "to_dnf", unexpected)
        prime_implicates(land(x, box(y)), System.T)
        assert pi_module._candidate_sets == before

    def test_capped_build_keeps_nothing(self):
        clear_cache()
        x, y = self.golden()
        f = land(x, box(y))
        for _ in range(2):
            with pytest.raises(CapacityError) as info:
                candidates(f, max_clauses=4)
            assert info.value.layer == "candidate distribution"
            assert not pi_module._candidate_sets

    def test_cap_is_part_of_the_key(self):
        clear_cache()
        x, y = self.golden()
        compile_kb(x, y, System.K)
        with pytest.raises(CapacityError) as info:
            candidates(land(x, box(y)), max_clauses=4)
        assert info.value.layer == "candidate distribution"
        with pytest.raises(CapacityError):
            compile_kb(x, y, System.T, max_clauses=4)


def _swept(clauses) -> tuple:
    """The reference subset sweep, as `_minimize` ran it on whole
    candidate sets: in canonical order, drop each clause whose disjuncts
    strictly contain another clause's."""
    cs = sort_formulas(set(clauses))
    dsets = {c.key: frozenset(d.key for d in disjuncts(c)) for c in cs}
    return tuple(c for c in cs
                 if not any(dsets[o.key] < dsets[c.key] for o in cs))


class TestPickSweep:
    """`compile_kb` sweeps the picks of one candidate per term and hands
    `_minimize` the clauses of the subset-minimal ones; sweeping the
    paper's whole candidate set clause by clause gives the same."""

    def kbs(self):
        rng = random.Random(29)
        kbs = [(parse(X_GOLDEN), parse(Y_GOLDEN)),
               # a <>-body bundled with []false makes a false candidate,
               # which drops out of every clause with another disjunct
               (parse("(p | <>q) & []false"), TRUE),
               (parse("(p | <>q | r) & ([]false | s) & <>t"), TRUE)]
        kbs += [rand_instance(rng, names=("a", "b", "c", "d"),
                              max_clauses=6) for _ in range(40)]
        return kbs

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_minimize_gets_the_clause_sweep(self, system, monkeypatch):
        real = pi_module._minimize
        received = []

        def spy(clauses, *args):
            received.append(tuple(clauses))
            return real(clauses, *args)

        monkeypatch.setattr(pi_module, "_minimize", spy)
        compiled = 0
        for x, y in self.kbs():
            clear_cache()
            received.clear()
            try:
                comp = compile_kb(x, y, system)
            except CapacityError:
                continue
            compiled += 1
            full = candidates(land(x, box(y)))
            assert comp.stats["nb_cl_candidates"] == len(full)
            swept = _swept(full)
            assert received == [swept]
            theta, calls = real(list(swept), y, system)
            assert comp.theta == theta
            assert comp.stats["entailment_calls"] == calls
        assert compiled > 30


class TestResidue:
    def test_subsumption(self):
        got = _minimize([var("p"), parse("p | q")], TRUE, System.K)[0]
        assert got == (var("p"),)

    def test_golden_minimization_reproduces_example_in_k(self):
        cands = [parse(s) for s in PAPER_CANDIDATES]
        got = _minimize(cands, parse("p1 | p2"), System.K)[0]
        assert set(got) == {parse(s) for s in PAPER_THETA}

    def test_reflexivity_also_removes_theory_entailed_clause(self):
        # in T the boxed theory forces its body at the root, so the
        # propositional clause is strictly entailed and drops out
        cands = [parse(s) for s in PAPER_CANDIDATES]
        got = _minimize(cands, parse("p1 | p2"), System.T)[0]
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
            theta = _minimize(candidates(land(x, by)), y, System.T)[0]
            for s in theta:
                for t in theta:
                    if s.key != t.key:
                        assert not entails_mod(s, by, t, System.T)

    @settings(max_examples=300, deadline=None)
    @given(clauses=st.lists(st.sampled_from(VOCABULARY), max_size=7),
           y=st.one_of(
               st.just(TRUE),
               st.lists(st.sampled_from(PROP_CLAUSES), min_size=1,
                        max_size=2).map(land)),
           system=st.sampled_from(list(System)))
    def test_matches_entailment_matrix(self, clauses, y, system):
        # keep c unless some other clause entails it and either c does not
        # entail it back or it comes first in canonical order
        cs = sort_formulas(set(clauses))
        implies = [[entails_mod(a, box(y), b, system) for b in cs] for a in cs]
        want = tuple(
            c for j, c in enumerate(cs)
            if not any(implies[i][j] and (not implies[j][i] or i < j)
                       for i in range(len(cs)) if i != j))
        assert _minimize(clauses, y, system)[0] == want

    def test_counts_the_checks_it_runs(self, monkeypatch, rng):
        # every check is a call of a predicate that query_test returned
        real = pi_module.query_test
        runs = []

        def prepared(*args, **kwargs):
            test = real(*args, **kwargs)

            def counted(a):
                runs.append(a)
                return test(a)

            return counted

        monkeypatch.setattr(pi_module, "query_test", prepared)
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
                    test = query_test(b, theory, system)
                    for a in cands:
                        assert test(a) == entails_mod(a, box(theory), b,
                                                      system), (a, b)

    @pytest.mark.parametrize("system", [System.K, System.T])
    @pytest.mark.parametrize("text", ["p & []false & <>q", "[]false & <>q"])
    def test_false_candidate(self, text, system):
        x = parse(text)
        for y in (TRUE, default_theory(x)):
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
        assert len(comp.theta) == 3

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

    @staticmethod
    def expected_omega(comp):
        extra = set() if comp.y == TRUE else {comp.box_y}
        return sort_formulas(set(comp.theta) | extra)

    def test_omega_built_on_first_call(self, tmp_path):
        rng = random.Random(3005)
        instances = [(parse(X_GOLDEN), parse(Y_GOLDEN)), (var("p"), TRUE)]
        instances += [rand_instance(rng) for _ in range(20)]
        checked = 0
        for n, (x, y) in enumerate(instances):
            try:
                comp = compile_kb(x, y, System.K)
            except CapacityError:
                continue
            path = str(tmp_path / f"comp{n}.json")
            save_compilation(comp, path)
            for c in (comp, load_compilation(path)):
                assert "_omega" not in vars(c)
                omega = c.omega()
                assert vars(c)["_omega"] is omega
                assert omega == self.expected_omega(c)
                assert c.omega() is omega
            checked += 1
        assert checked > 15

    def test_true_theory_adds_no_clause(self):
        comp = compile_kb(parse("p & <>q"), TRUE, System.T)
        assert comp.omega() == comp.theta == (var("p"), parse("<>q"))

    def test_trivial_theory(self):
        comp = compile_kb(var("p"), TRUE, System.T)
        assert set(comp.omega()) == {var("p")}
        assert equivalent(land(comp.omega()), var("p"), System.T)

    def test_precondition_violation(self):
        with pytest.raises(PreconditionError):
            compile_kb(var("p"), var("q"), System.T)

    @pytest.fixture
    def proofs(self, monkeypatch):
        """The (x, y) of each precondition the compile proves by tableau."""
        calls = []
        real = pi_module.entails

        def spy(x, y, system, node_budget):
            calls.append((x, y))
            return real(x, y, system, node_budget)

        monkeypatch.setattr(pi_module, "entails", spy)
        return calls

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_stated_theory_is_entailed(self, proofs, system):
        # rand_instance's theory is x's propositional conjuncts, so every
        # draw is accepted without a proof, and each must be entailed
        rng = random.Random(2111)
        accepted = 0
        for _ in range(60):
            x, y = rand_instance(rng)
            proofs.clear()
            try:
                compile_kb(x, y, system)
            except CapacityError:
                continue
            if not proofs:
                accepted += 1
                assert entails(x, y, system), (x, y)
        assert accepted >= 50

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_unstated_theory_is_proved(self, proofs, system):
        x, y = parse("p & q"), parse("p | r")
        assert compile_kb(x, y, system).theta == (var("p"), var("q"))
        assert proofs == [(x, y)]
        # one conjunct stated is not enough
        with pytest.raises(PreconditionError):
            compile_kb(x, parse("p & r"), system)
        assert proofs[1:] == [(x, parse("p & r"))]

    @staticmethod
    def precondition_pairs():
        """(x, y) pairs whose theory x states, whose theory it may not,
        and with true or false on either side."""
        rng = random.Random(3007)
        pairs = []
        for _ in range(60):
            x, y = rand_instance(rng)
            pairs.append((x, y))
            pairs.append((x, rand_prop(rng, size=3)))
            props = [c for c in conjuncts((x,)).values()
                     if modal_depth(c) == 0]
            if props:
                pairs.append((x, rng.choice(props)))
                pairs.append((x, land(rng.choice(props),
                                      rand_prop(rng, size=2))))
            pairs.append((land(x, y), y))
        for _ in range(30):
            pairs.append((rand_formula(rng, depth=1, size=6),
                          rand_prop(rng, size=3)))
        sides = [TRUE, FALSE, var("p"), parse("p & q"), parse("p | q"),
                 parse("p & <>q"), parse("(p | q) & ~r")]
        pairs += [(x, y) for x in sides for y in sides
                  if modal_depth(y) == 0]
        return pairs

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_precondition_shortcut_matches_land(self, proofs, system):
        # the tableau runs exactly when x & y is not x itself, and the
        # error is raised exactly when that tableau finds x |= y false
        shortcut = proved = 0
        for x, y in self.precondition_pairs():
            stated = land(x, y) == x
            proofs.clear()
            try:
                compile_kb(x, y, system)
                raised = False
            except PreconditionError:
                raised = True
            except (CapacityError, BudgetExceededError):
                raised = False
            assert proofs == ([] if stated else [(x, y)]), (x, y)
            assert raised == (not stated and not entails(x, y, system))
            shortcut += stated
            proved += not stated
        assert shortcut > 100 and proved > 100

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_false_kb_or_theory(self, system):
        for x, y in [("false", "true"), ("false", "p"), ("false", "false"),
                     ("p & ~p", "false")]:
            assert compile_kb(parse(x), parse(y), system).theta == (FALSE,)
        with pytest.raises(PreconditionError):
            compile_kb(var("p"), FALSE, system)

    def test_warm_compiles_equal_cold_ones(self, monkeypatch):
        # minimization keeps its tests in the query-test table, so later
        # compiles with the same theory reuse them; pairs of bases share
        # a theory, and the golden instance is compiled twice
        rng = random.Random(1407)
        instances = [(parse(X_GOLDEN), parse(Y_GOLDEN))] * 2
        for _ in range(8):
            x, y = rand_instance(rng)
            instances += [(x, y), (land(x, rand_clause(rng)), y)]
        jobs = [(x, y, system) for x, y in instances
                for system in (System.K, System.T)]
        prepared = []
        real = semantics_module._prepare

        def counted(*args):
            prepared.append(args)
            return real(*args)

        monkeypatch.setattr(semantics_module, "_prepare", counted)

        def compile_all(cold):
            out = []
            clear_cache()
            for x, y, system in jobs:
                if cold:
                    clear_cache()
                try:
                    comp = compile_kb(x, y, system)
                except CapacityError:
                    out.append(None)
                    continue
                out.append((comp.candidates, comp.theta,
                            comp.stats["entailment_calls"]))
            return out

        cold = compile_all(True)
        cold_prepared = len(prepared)
        prepared.clear()
        assert compile_all(False) == cold
        assert len(prepared) < cold_prepared  # the warm run did share
        clear_cache()


class TestIsHorn:
    def test_two_positive_literals(self):
        assert not is_horn(parse("p1 | p2"))

    def test_implication_clause(self):
        assert is_horn(parse("~p | q"))

    def test_unit_positive(self):
        assert is_horn(var("p"))

    def test_cnf_past_size_cap_is_not_horn(self):
        # the theory's CNF has 2**14 clauses, past the 10,000 cap, while
        # the compile itself is small
        y = lor(land(var(f"a{i}"), var(f"b{i}")) for i in range(14))
        assert is_horn(y) is False
        comp = compile_kb(parse("a0 & b0 & <>c"), y, System.K)
        assert len(comp.theta) == 3


class TestDefaultTheory:
    def test_extracts_propositional_clauses(self):
        y = default_theory(parse(X_GOLDEN))
        assert y == parse("p1 | p2")

    def test_no_propositional_part_gives_true(self):
        assert default_theory(parse("<>a & []b")) is TRUE
