import time

import pytest
from hypothesis import given, settings, strategies as st

import modaltpi
import modaltpi.formula as formula_module
import modaltpi.semantics as semantics_module
from modaltpi.errors import FormulaSyntaxError
from modaltpi.formula import (
    MAX_EXPANSION, MAX_NESTING, And, Box, Dia, Not, Or, Var, TRUE,
    FALSE, box, contradictory, dia, is_clause, is_literal,
    land, lnot, lor, modal_depth, parse, sort_formulas, var, variables,
)
from modaltpi.errors import CapacityError
from modaltpi.pi import compile_kb
from modaltpi.qa import answer_query, answer_query_direct
from modaltpi.semantics import (
    System, clear_cache, evaluate, find_model, is_satisfiable,
)

from conftest import (
    AT_NESTING_LIMIT, IFF_CHAIN, IFF_CHAINS, TOO_DEEP, rand_formula,
    rand_instance, spelled_outside_nnf,
)

# (text, message, line, column): lines are counted at "\n" only, every
# other character, a tab or a no-break space included, is one column
SYNTAX_ERRORS = [
    pytest.param("p1 |\n  q &\n  )", "unexpected ')'", 3, 3,
                 id="three-lines"),
    pytest.param("p &\n\t?", "unexpected character '?'", 2, 2, id="tab"),
    pytest.param("p\u00a0&\u00a0", "unexpected end of input", 1, 5,
                 id="no-break-space"),
    pytest.param("p &\n", "unexpected end of input", 2, 1,
                 id="end-after-newline"),
    pytest.param("p\nq\n", "unexpected 'q'", 2, 1, id="trailing-token"),
    pytest.param("p &\nq |\n  r $ s", "unexpected character '$'", 3, 5,
                 id="bad-character-line-3"),
    pytest.param("p |\n\n(q", "expected ')'", 3, 3, id="unclosed"),
    pytest.param("p\r\n& )", "unexpected ')'", 2, 3, id="carriage-return"),
    pytest.param("\t-> p", "unexpected '->'", 1, 2, id="leading-operator"),
    pytest.param("p\n& " + "(" * 101 + "q", "nested deeper than 100 levels",
                 2, 103, id="nesting-parentheses"),
    pytest.param("q &\n  " + "~" * 101 + "p",
                 "nested deeper than 100 levels", 2, 103,
                 id="nesting-unary"),
    pytest.param("p &\n  " + " <-> ".join(f"a{i}" for i in range(25)),
                 "'<->' expands past 100000 characters", 2, 77,
                 id="iff-expansion"),
]

# the tokens of the grammar, the whitespace that separates them, and
# characters that start none.  Printing a formula nests it deeper than its
# text, by up to three levels for each `<->`, so texts stay at 60 tokens or
# characters: their prints stay within MAX_NESTING and parse again.
TOKEN_TEXT = st.lists(st.sampled_from(
    ["p", "q1", "true", "false", "(", ")", "&", "|", "~", "->", "<->", "[]",
     "<>", " ", "\n", "\t", "-", "<", "[", "?"]), max_size=60).map("".join)


class TestParse:
    def test_disjunction(self):
        f = parse("p1 | p2")
        assert isinstance(f, Or)
        assert f == lor(var("p1"), var("p2"))

    def test_modal_prefix_chain(self):
        assert parse("<>[]~p3") == dia(box(lnot(var("p3"))))

    def test_implication_expands(self):
        assert parse("p -> q") == lor(lnot(var("p")), var("q"))

    def test_iff_expands(self):
        f = parse("p <-> q")
        assert f == land(lor(lnot(var("p")), var("q")),
                         lor(lnot(var("q")), var("p")))

    def test_implication_right_associative(self):
        assert parse("a -> b -> c") == parse("a -> (b -> c)")

    def test_precedence_and_over_or(self):
        assert parse("a & b | c") == lor(land(var("a"), var("b")), var("c"))

    def test_unary_binds_tightest(self):
        assert parse("[]p & q") == land(box(var("p")), var("q"))

    def test_constants(self):
        assert parse("true") is TRUE
        assert parse("false") is FALSE

    def test_empty_input(self):
        with pytest.raises(FormulaSyntaxError):
            parse("   ")

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p1 |")
        assert err.value.line == 1
        assert err.value.column >= 4

    def test_unknown_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse("p ? q")

    def test_atoms_are_ascii(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse("é | p")
        assert (err.value.line, err.value.column) == (1, 1)
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p\u00b2")
        assert err.value.column == 2
        assert parse("a_1 | Zz9") == lor(var("a_1"), var("Zz9"))

    def test_nesting_limit(self):
        over = MAX_NESTING + 1
        for text in TOO_DEEP + ("~[]" * 500 + "p", "[]" * over + "p",
                                "(" * over + "p" + ")" * over):
            with pytest.raises(FormulaSyntaxError, match="nested deeper"):
                parse(text)

    def test_at_nesting_limit(self):
        for text in AT_NESTING_LIMIT:
            f = parse(text)
            assert variables(f) <= {"p", "q"}
            # `evaluate` on the T model of `~[]` * 50 + `p`, reflexive at
            # every world, takes time exponential in its modal depth
            found = find_model(f, System.K)
            assert is_satisfiable(f, System.K) == (found is not None)
            assert found is not None or not is_satisfiable(f, System.T)
            if found is not None:
                assert evaluate(found[0], found[1], f)

    def test_iff_expansion_limit(self):
        # each `<->` doubles what it joins; a chain of 25 atoms would
        # expand past memory, and the limit holds for the sum of all
        # expansions, so enough shorter chains are rejected too
        for text in (IFF_CHAIN, IFF_CHAINS):
            started = time.perf_counter()
            with pytest.raises(FormulaSyntaxError, match="expands past"):
                parse(text)
            assert time.perf_counter() - started < 1.0
        f = parse(" <-> ".join(f"a{i}" for i in range(8)))
        assert len(str(f)) <= MAX_EXPANSION
        assert variables(f) == {f"a{i}" for i in range(8)}

    @pytest.mark.parametrize("text,message,line,column", SYNTAX_ERRORS)
    def test_error_positions(self, text, message, line, column):
        with pytest.raises(FormulaSyntaxError) as err:
            parse(text)
        assert (err.value.message, err.value.line, err.value.column) == (
            message, line, column)
        assert str(err.value) == f"line {line}, column {column}: {message}"

    @settings(max_examples=500, deadline=None)
    @given(text=st.text(max_size=60) | TOKEN_TEXT)
    def test_any_text_parses_or_raises_syntax_error(self, text):
        try:
            f = parse(text)
        except FormulaSyntaxError:
            return
        assert parse(str(f)) == f

    def test_trailing_whitespace_time(self):
        # a run of trailing whitespace is scanned once, not once from
        # each of its positions
        started = time.perf_counter()
        assert parse("p" + " " * 200_000) == var("p")
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p &" + "\n" * 200_000)
        assert (err.value.line, err.value.column) == (200_001, 1)
        assert time.perf_counter() - started < 1.0

    def test_long_implication_chain(self):
        # `->` folds without recursion, so chain length has no limit
        assert parse("p -> " * 5000 + "q") == lor(lnot(var("p")), var("q"))


class TestPrint:
    def test_modal_chain(self):
        assert str(dia(box(lnot(var("p3"))))) == "<>[]~p3"

    def test_disjunction_parenthesized(self):
        assert str(lor(var("p1"), var("p2"))) == "(p1 | p2)"

    def test_boxed_conjunction(self):
        f = box(land(dia(var("p2")), lor(var("p1"), var("p2"))))
        assert str(f) == "[](<>p2 & (p1 | p2))"

    def test_roundtrip_random(self, rng):
        for _ in range(300):
            f = rand_formula(rng, depth=3, size=14)
            assert parse(str(f)) == f


class TestCanonicalization:
    def test_flatten_and_dedupe(self):
        assert land(var("a"), land(var("b"), var("a"))) == land(var("a"), var("b"))
        assert lor(var("a"), lor(var("a"), var("b"))) == lor(var("a"), var("b"))

    def test_commutativity_by_sorting(self):
        assert parse("p | q") == parse("q | p")
        assert parse("p & q & r") == parse("r & q & p")

    def test_constant_rules(self):
        p = var("p")
        assert land(p, TRUE) == p
        assert land(p, FALSE) is FALSE
        assert lor(p, FALSE) == p
        assert lor(p, TRUE) is TRUE
        assert dia(FALSE) is FALSE
        assert box(TRUE) is TRUE

    def test_single_child_collapse(self):
        assert land([var("a")]) == var("a")
        assert lor([var("a")]) == var("a")

    def test_children_in_canonical_order(self, rng):
        def check(f):
            if isinstance(f, (And, Or)):
                assert sort_formulas(f.children) == f.children
                for c in f.children:
                    check(c)
            elif isinstance(f, (Not, Box, Dia)):
                check(f.child)

        for _ in range(200):
            f = parse(str(rand_formula(rng, depth=3, size=14)))
            for g in (f, lnot(f), parse(
                    f"{f} <-> ~{rand_formula(rng, depth=2, size=6)}")):
                check(g)


class TestSharing:
    """Constructors return the node already built for a formula; equality
    stays by key, so a twin built after `clear_cache` acts the same."""

    def test_same_formula_same_object(self, rng):
        assert var("p") is var("p")
        assert land(var("a"), box(var("b"))) is land(box(var("b")), var("a"))
        assert lnot(dia(var("p"))) is lnot(dia(var("p")))
        for _ in range(200):
            f = rand_formula(rng, depth=3, size=14)
            assert parse(str(f)) is f
            assert parse(str(f)) is parse(str(f))
            assert lnot(f) is lnot(f)

    def test_twin_after_reset(self, rng):
        before = [rand_formula(rng, depth=3, size=14) for _ in range(100)]
        others = [rand_formula(rng, depth=2, size=6) for _ in range(100)]
        clear_cache()
        after = [parse(str(f)) for f in before]
        assert all(f is not g for f, g in zip(before, after)
                   if f not in (TRUE, FALSE))
        index = {f: n for n, f in enumerate(before)}
        for n, (f, g) in enumerate(zip(before, after)):
            assert f == g and not f != g
            assert hash(f) == hash(g)
            assert index[g] == index[f] and {f, g} == {f} == {g}
            for h in others:
                assert (f < h) == (g < h) and (h < f) == (h < g)
            assert land(f, others[n]) == land(g, others[n])
            assert land(f, others[n]) is land(g, others[n])
        assert sort_formulas(before + others) == sort_formulas(after + others)

    def test_negation_memo_matches_cold(self, rng):
        fs = [rand_formula(rng, depth=3, size=12) for _ in range(200)]
        clear_cache()
        cold = [lnot(f).key for f in fs]
        warm = [lnot(f).key for f in fs]
        clear_cache()
        assert warm == cold == [lnot(f).key for f in fs]


class TestInternTable:
    """`formula._interned` is keyed by each node's printed form, the
    node's own `key` string, and `_join` orders children by their keys
    alone."""

    def test_every_key_is_its_nodes_own(self, rng):
        clear_cache()
        for _ in range(150):
            f = parse(str(rand_formula(rng, depth=3, size=14)))
            lnot(f)
        for _ in range(20):
            x, y = rand_instance(rng, names=("a", "b", "c", "d"),
                                 max_clauses=6)
            for system in System:
                try:
                    compile_kb(x, y, system).candidates
                except CapacityError:
                    pass
        assert len(formula_module._interned) > 500
        for k, node in formula_module._interned.items():
            assert k is node.key

    def test_join_order_is_sort_formulas_order(self, rng):
        for _ in range(300):
            fs = [rand_formula(rng, depth=2, size=6)
                  for _ in range(rng.randrange(2, 9))]
            for join, cls, unit in ((land, And, TRUE), (lor, Or, FALSE)):
                flat = {c for f in fs
                        for c in (f.children if isinstance(f, cls) else (f,))
                        if c != unit}
                g = join(fs)
                if isinstance(g, cls):
                    assert g.children == sort_formulas(flat)

    def test_twins_intern_to_one_node_across_reset(self, rng):
        before = [rand_formula(rng, depth=3, size=14) for _ in range(100)]
        clear_cache()
        after = [parse(str(f)) for f in before]
        for f, g in zip(before, after):
            assert g == f
            # each builds a node (or a constant) rather than return a
            # part of its argument, as lnot(~p) does
            for make in (box, dia, lambda h: lnot(box(h)),
                         lambda h: land(h, var("z")),
                         lambda h: lor(var("z"), h)):
                built = make(f)
                assert built == make(g)
                assert built is make(g)
                if built not in (TRUE, FALSE):
                    assert formula_module._interned[built.key] is built


class TestVar:
    """`var` makes only atoms the grammar spells, so no atom shares its
    printed form, its identity, with another node."""

    def test_valid_names(self):
        for name in ("p", "P1", "x_2", "a_", "trueish", "False_"):
            f = var(name)
            assert type(f) is Var and f.name == f.key == name
            assert parse(name) is f

    @pytest.mark.parametrize("name", [
        "", "1p", "_p", "p q", "p\n", "p-q", "~p", "(a & b)", "[]p", "<>p",
        "true", "false",
    ])
    def test_rejects_what_is_no_atom(self, name):
        with pytest.raises(ValueError, match="not an atom name"):
            var(name)

    def test_interned_negation_is_not_returned(self):
        assert type(lnot(var("p"))) is Not
        with pytest.raises(ValueError):
            var("~p")

    def test_no_atom_poses_as_a_negation_after_reset(self):
        clear_cache()
        with pytest.raises(ValueError):
            var("~q")
        q = var("q")
        assert type(lnot(q)) is Not and lnot(q).child is q
        assert not is_satisfiable(land(q, lnot(q)), System.K)

    def test_no_atom_poses_as_a_conjunction_or_constant(self):
        clear_cache()
        with pytest.raises(ValueError):
            var("(a & b)")
        assert type(parse("a & b")) is And
        with pytest.raises(ValueError):
            var("true")
        assert parse("true") is TRUE


class TestContradictory:
    @pytest.mark.parametrize("text", ["p & ~p & []q", "false"])
    def test_contradictory(self, text):
        f = parse(text)
        assert contradictory(f.children if isinstance(f, And) else (f,))

    @pytest.mark.parametrize("text", [
        "p & []~p", "<>p & ~p", "p & ~q", "[]p & <>~p", "true",
    ])
    def test_not_contradictory(self, text):
        f = parse(text)
        assert not contradictory(f.children if isinstance(f, And) else (f,))


class TestParseMemo:
    """`parse` keeps each text it read without error in `_parsed`."""

    def test_same_text_same_node(self, rng):
        clear_cache()
        texts = [str(rand_formula(rng, depth=3, size=14)) for _ in range(50)]
        texts += ["p -> q -> <>r", "(a <-> b) & []~c"]
        first = [parse(t) for t in texts]
        assert all(formula_module._parsed[t] is f
                   for t, f in zip(texts, first))
        # a node built anew would be a twin, not the same object
        formula_module._interned.clear()
        assert all(parse(t) is f for t, f in zip(texts, first))

    def test_whitespace_variant_equal(self):
        clear_cache()
        tight, loose = parse("a|b"), parse(" a | b ")
        assert tight == loose == lor(var("a"), var("b"))
        assert {"a|b", " a | b "} <= formula_module._parsed.keys()

    def test_errors_not_memoized(self):
        for text in ("p &\n  )", "", "p ? q"):
            for source in ("first.txt", "second.txt"):
                with pytest.raises(FormulaSyntaxError) as err:
                    parse(text, source=source)
                assert err.value.source == source
                assert source in str(err.value)
            assert text not in formula_module._parsed
        with pytest.raises(FormulaSyntaxError) as err:
            parse("p &\n  )", source="third.txt")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_nesting_limit_on_every_call(self):
        text = "~" * (MAX_NESTING + 1) + "p"
        for _ in range(2):
            with pytest.raises(FormulaSyntaxError, match="nested deeper"):
                parse(text)
        assert text not in formula_module._parsed

    def test_clear_cache_empties_memo(self):
        clear_cache()
        x, y = parse("p & q & <>r"), parse("p | q")
        parse("~(p & []q)")
        for system in (System.K, System.T):
            comp = compile_kb(x, y, system)
        answer_query(comp, parse("p | s"))
        answer_query_direct(x, y, parse("q | s"), System.K)
        assert len(formula_module._TABLES) == 7
        assert all(formula_module._TABLES)
        clear_cache()
        assert not any(formula_module._TABLES)
        assert (semantics_module.clear_cache is formula_module.clear_cache
                is modaltpi.clear_cache)


class TestNnf:
    """`lnot` pushes a negation down to the atoms, so every node built,
    from text outside negation normal form too, is in it."""

    def test_box_duality(self):
        assert lnot(box(var("p"))) == dia(lnot(var("p")))
        assert parse("~[]p") is parse("<>~p")

    def test_de_morgan(self):
        assert lnot(land(var("p"), var("q"))) == \
            lor(lnot(var("p")), lnot(var("q")))
        assert parse("~(p & q)") is parse("~p | ~q")

    def test_nested_push(self):
        f = lnot(dia(lor(var("p"), box(var("q")))))
        assert f == box(land(lnot(var("p")), dia(lnot(var("q")))))
        assert str(parse("~<>(p | []q)")) == "[](~p & <>~q)"

    def test_negation_only_on_atoms(self, rng):
        def negation_on_atoms_only(f):
            if isinstance(f, Not):
                return isinstance(f.child, Var)
            if isinstance(f, (And, Or)):
                return all(negation_on_atoms_only(c) for c in f.children)
            if isinstance(f, (Box, Dia)):
                return negation_on_atoms_only(f.child)
            return True

        for _ in range(200):
            f = rand_formula(rng, depth=3, size=12)
            text = spelled_outside_nnf(rng, f)
            g = parse(text)
            assert g is f, text
            for h in (g, lnot(g), box(lnot(g)), lor(g, lnot(dia(g)))):
                assert negation_on_atoms_only(h), text

    def test_double_negation_is_identity(self, rng):
        for _ in range(200):
            f = parse(spelled_outside_nnf(
                rng, rand_formula(rng, depth=3, size=12)))
            assert lnot(lnot(f)) is f
            assert lnot(f) != f

    def test_negation_flips_truth(self, rng):
        for _ in range(60):
            f = parse(spelled_outside_nnf(
                rng, rand_formula(rng, depth=2, size=8)))
            for system in (System.K, System.T):
                for g in (f, lnot(f)):
                    found = find_model(g, system)
                    if found is not None:
                        m, w = found
                        assert evaluate(m, w, lnot(f)) != evaluate(m, w, f)


def _grammar_class(f):
    """Independent recursive-descent acceptor for the literal/clause/term
    grammar; negation may only face a variable."""
    def in_f(g):
        if isinstance(g, Var):
            return True
        if isinstance(g, Not):
            return isinstance(g.child, Var)
        if isinstance(g, (And, Or)):
            return all(in_f(c) for c in g.children)
        if isinstance(g, (Box, Dia)):
            return in_f(g.child)
        return False

    def lit(g):
        if isinstance(g, Var):
            return True
        if isinstance(g, Not):
            return isinstance(g.child, Var)
        if isinstance(g, (Box, Dia)):
            return in_f(g.child)
        return False

    if lit(f):
        return "literal"
    if isinstance(f, Or) and all(lit(c) for c in f.children):
        return "clause"
    if isinstance(f, And) and all(lit(c) for c in f.children):
        return "term"
    return "general"


class TestClassify:
    def test_boxed_clause_is_literal(self):
        assert is_literal(parse("[](p | q)"))

    def test_clause(self):
        f = parse("p | <>q")
        assert is_clause(f) and not is_literal(f)

    def test_not_a_term(self):
        assert not is_clause(parse("p & (q | r)"))

    def test_term(self):
        # a conjunction of literals is no clause
        assert not is_clause(parse("p & <>q & []r"))

    def test_constants_are_clauses(self):
        assert is_clause(TRUE) and is_clause(FALSE)

    def test_agrees_with_independent_acceptor(self, rng):
        for _ in range(300):
            f = rand_formula(rng, depth=2, size=8)
            assert is_clause(f) == (_grammar_class(f) in ("literal", "clause")
                                    or f in (TRUE, FALSE))

    def test_rejects_non_clause(self):
        assert not is_clause(parse("p & q"))
        assert not is_clause(parse("p | (q & r)"))


class TestMeasures:
    def test_vars_and_depth(self):
        f = parse("<>[]~p3")
        assert variables(f) == {"p3"}
        assert modal_depth(f) == 2

    def test_prop_depth_zero(self):
        assert modal_depth(parse("p1 | p2")) == 0

    def test_golden_formula(self):
        x = parse("(p1 | p2) & <>[]~p3 & []<>p2")
        assert variables(x) == {"p1", "p2", "p3"}
        assert modal_depth(x) == 2
