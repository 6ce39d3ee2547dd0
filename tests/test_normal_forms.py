import pytest

import modaltpi.normal_forms as normal_forms_module
from modaltpi.errors import CapacityError
from modaltpi.formula import (
    And, Formula, Or, FALSE, TRUE, box, contradictory, dia, is_clause,
    is_literal, land, lnot, lor, parse, sort_formulas, var,
)
from modaltpi.normal_forms import Dnf, distribute, to_cnf, to_dnf
from modaltpi.semantics import System, entails, equivalent

from conftest import rand_formula


GOLDEN = "(p1 | p2) & <>[]~p3 & []<>p2 & [](p1 | p2)"


class TestToCnf:
    def test_distributes_or_over_and(self):
        cnf = to_cnf(parse("p | (q & r)"))
        assert set(cnf) == {parse("p | q"), parse("p | r")}

    def test_already_clausal(self):
        cnf = to_cnf(parse("<>a & (p | []b)"))
        assert set(cnf) == {parse("<>a"), parse("p | []b")}

    def test_golden_four_clauses_untouched(self):
        cnf = to_cnf(parse(GOLDEN))
        assert len(cnf) == 4
        assert set(cnf) == {
            parse("p1 | p2"), parse("<>[]~p3"), parse("[]<>p2"),
            parse("[](p1 | p2)"),
        }

    def test_modal_bodies_left_intact(self):
        cnf = to_cnf(parse("[](p | (q & r))"))
        assert cnf == (parse("[](p | (q & r))"),)

    def test_cap(self):
        f = land(lor(parse(f"a{i}"), parse(f"b{i}")) for i in range(8))
        with pytest.raises(CapacityError):
            to_dnf(f, max_terms=10)
        # the cap also holds where the children's clauses or terms are
        # only joined, with nothing to distribute
        atoms = [parse(f"a{i}") for i in range(20)]
        with pytest.raises(CapacityError):
            to_cnf(land(atoms), max_clauses=10)
        with pytest.raises(CapacityError):
            to_dnf(lor(atoms), max_terms=10)

    def test_cap_names_its_layer(self):
        # whether the cap is passed in distributing or in joining
        pairs = land(lor(parse(f"a{i}"), parse(f"b{i}")) for i in range(8))
        atoms = [parse(f"a{i}") for i in range(20)]
        for build, f, layer in ((to_dnf, pairs, "outer DNF"),
                                (to_dnf, lor(atoms), "outer DNF"),
                                (to_cnf, lnot(pairs), "outer CNF"),
                                (to_cnf, land(atoms), "outer CNF")):
            with pytest.raises(CapacityError) as info:
                build(f, 10)
            assert info.value.layer == layer
            assert str(info.value) == f"size cap 10 exceeded in the {layer}"


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
                assert all(map(is_literal,
                               t.children if isinstance(t, And) else (t,)))
            for c in to_cnf(f):
                assert is_clause(c)

    def test_equivalence_random(self, rng):
        for _ in range(50):
            f = rand_formula(rng, depth=2, size=8)
            for system in (System.K, System.T):
                assert equivalent(f, land(to_cnf(f)), system)
                assert equivalent(f, lor(to_dnf(f).terms), system)

    def test_fixpoint_on_term_sets(self, rng):
        for _ in range(60):
            f = rand_formula(rng, depth=2, size=8)
            d1 = to_dnf(f)
            d2 = to_dnf(lor(d1.terms))
            assert set(d1.terms) == set(d2.terms)


class TestNbCl:
    def test_two_clauses(self):
        assert len(to_cnf(parse("(p | q) & (p | r)"))) == 2

    def test_golden_theta_size(self):
        theta = [parse("p1 | p2"), parse("[](<>p2 & (p1 | p2))"),
                 parse("<>([]~p3 & <>p2 & (p1 | p2))")]
        # the golden theta is its own three CNF clauses
        assert len(to_cnf(land(theta))) == 3

    def test_empty_cnf_is_zero(self):
        assert len(to_cnf(parse("true"))) == 0


# (outer node, inner node, unit of the outer node, combine for the inner,
# the layer a CapacityError names): the reference builds clauses and
# terms each directly, not one as the other's dual
_CNF = (And, Or, TRUE, lor, "outer CNF")
_DNF = (Or, And, FALSE, land, "outer DNF")


def _reference_outer(g: Formula, form, cap) -> set:
    """The clauses (form `_CNF`) or terms (form `_DNF`) of a formula, as
    they were built before inner nodes of literals were returned whole:
    every inner node distributes over its children's clauses or
    terms."""
    outer, inner, unit, combine, layer = form
    if g == unit:
        out = set()
    elif isinstance(g, outer):
        out = set().union(*[_reference_outer(c, form, cap)
                            for c in g.children])
    elif isinstance(g, inner):
        out = {combine(p) for p in distribute(
            [_reference_outer(c, form, cap) for c in g.children], cap, layer)}
    else:
        out = {g}
    if len(out) > cap:
        raise CapacityError(cap, layer)
    return out


def _reference_cnf(f, cap):
    return sort_formulas(_reference_outer(f, _CNF, cap))


def _reference_dnf(f, cap):
    return sort_formulas(
        t for t in _reference_outer(f, _DNF, cap)
        if not contradictory(t.children if isinstance(t, And) else (t,)))


def _outcome(build, f, cap):
    """The tuple build(f, cap) returns, or the layer its CapacityError
    names."""
    try:
        return build(f, cap)
    except CapacityError as err:
        return ("capacity", err.layer)


class TestAgainstReference:
    """The normal forms agree with the distribute-everything reference,
    term for term and cap for cap."""

    CAPS = (1, 2, 3, 5, 8, 10_000)

    def test_random_formulas_at_every_cap(self, rng):
        capped = single = 0
        for _ in range(3000):
            f = rand_formula(rng, depth=2, size=10)
            for cap in self.CAPS:
                want = _outcome(_reference_dnf, f, cap)
                assert _outcome(lambda g, n: to_dnf(g, n).terms,
                                f, cap) == want, (f, cap)
                capped += want[:1] == ("capacity",)
                want = _outcome(_reference_cnf, f, cap)
                assert _outcome(to_cnf, f, cap) == want, (f, cap)
            single += len(to_dnf(f).terms) == 1
        # both the capped and the one-term cases are exercised
        assert capped > 100 and single > 100

    def test_literal_children_are_not_distributed(self, monkeypatch):
        def unexpected(*args):
            raise AssertionError("distribute called")

        monkeypatch.setattr(normal_forms_module, "distribute", unexpected)
        literals = [var("p"), lnot(var("q")), box(parse("a | b")),
                    dia(parse("c & d"))]
        term, clause = land(literals), lor(literals)
        assert to_dnf(term).terms == (term,)
        assert to_cnf(clause) == (clause,)
        for cap in (1, 2):
            assert to_dnf(term, cap).terms == (term,)
            assert to_cnf(clause, cap) == (clause,)
        # a contradictory term of literals is still dropped
        contradictory_term = land(var("p"), lnot(var("p")), box(var("q")))
        assert to_dnf(contradictory_term).terms == ()
