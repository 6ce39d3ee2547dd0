import pytest

from modaltpi.errors import CapacityError
from modaltpi.formula import classify, land, lor, nnf, parse
from modaltpi.normal_forms import Cnf, Dnf, to_cnf, to_dnf
from modaltpi.semantics import System, entails, equivalent

from conftest import rand_formula


GOLDEN = "(p1 | p2) & <>[]~p3 & []<>p2 & [](p1 | p2)"


class TestToCnf:
    def test_distributes_or_over_and(self):
        cnf = to_cnf(parse("p | (q & r)"))
        assert set(cnf.clauses) == {parse("p | q"), parse("p | r")}

    def test_already_clausal(self):
        cnf = to_cnf(parse("<>a & (p | []b)"))
        assert set(cnf.clauses) == {parse("<>a"), parse("p | []b")}

    def test_golden_four_clauses_untouched(self):
        cnf = to_cnf(parse(GOLDEN))
        assert len(cnf.clauses) == 4
        assert set(cnf.clauses) == {
            parse("p1 | p2"), parse("<>[]~p3"), parse("[]<>p2"),
            parse("[](p1 | p2)"),
        }

    def test_modal_bodies_left_intact(self):
        cnf = to_cnf(parse("[](p | (q & r))"))
        assert cnf.clauses == (parse("[](p | (q & r))"),)

    def test_cap(self):
        f = land(lor(parse(f"a{i}"), parse(f"b{i}")) for i in range(8))
        with pytest.raises(CapacityError):
            to_dnf(f, max_terms=10)


class TestToDnf:
    def test_distributes_and_over_or(self):
        dnf = to_dnf(parse("p & (q | r)"))
        assert set(dnf.terms) == {parse("p & q"), parse("p & r")}

    def test_golden_two_terms(self):
        dnf = to_dnf(parse(GOLDEN))
        assert set(dnf.terms) == {
            parse("p1 & <>[]~p3 & []<>p2 & [](p1 | p2)"),
            parse("p2 & <>[]~p3 & []<>p2 & [](p1 | p2)"),
        }
        for term in dnf.terms:
            assert entails(term, parse(GOLDEN), System.K)

    def test_contradictory_term_dropped(self):
        assert to_dnf(parse("p & ~p & <>q")).terms == ()

    def test_every_term_passes_classify(self, rng):
        for _ in range(80):
            f = rand_formula(rng, depth=2, size=8)
            for t in to_dnf(f).terms:
                assert classify(t) in ("literal", "term")
            for c in to_cnf(f).clauses:
                assert classify(c) in ("literal", "clause")

    def test_equivalence_random(self, rng):
        for _ in range(50):
            f = rand_formula(rng, depth=2, size=8)
            for system in (System.K, System.T):
                assert equivalent(f, to_cnf(f).formula(), system)
                assert equivalent(f, to_dnf(f).formula(), system)

    def test_fixpoint_on_term_sets(self, rng):
        for _ in range(60):
            f = rand_formula(rng, depth=2, size=8)
            d1 = to_dnf(f)
            d2 = to_dnf(d1.formula())
            assert set(d1.terms) == set(d2.terms)


class TestNbCl:
    def test_two_clauses(self):
        assert len(to_cnf(parse("(p | q) & (p | r)")).clauses) == 2

    def test_golden_theta_size(self):
        theta = [parse("p1 | p2"), parse("[](<>p2 & (p1 | p2))"),
                 parse("<>([]~p3 & <>p2 & (p1 | p2))")]
        assert len(theta) == 3

    def test_empty_cnf_is_zero(self):
        assert len(to_cnf(parse("true")).clauses) == 0
        assert len(Cnf(()).clauses) == 0
