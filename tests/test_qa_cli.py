import dataclasses
import json
import random

import pytest

from modaltpi.cli import main
from modaltpi.errors import (
    FormulaSyntaxError, NonClausalQueryError, SchemaError,
)
from modaltpi.formula import FALSE, TRUE, box, land, lnot, nnf, parse, var
from modaltpi.pi import compile_kb
from modaltpi.qa import (
    KnowledgeBaseFile, answer_query, answer_query_direct, load_compilation,
    load_kb, save_compilation,
)
from modaltpi.oracle import clause_vocabulary
from modaltpi.semantics import System, entails_mod, evaluate, is_satisfiable

from conftest import (
    AT_NESTING_LIMIT, IFF_CHAIN, IFF_CHAINS, TOO_DEEP, rand_instance,
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
        # with several incomparable survivors the universal reading fails
        # even on a clause the base clearly entails
        existential = answer_query(golden_k, parse("p1 | p2"))
        strict = answer_query(golden_k, parse("p1 | p2"), strict=True)
        assert existential.answer is True
        assert strict.answer is False

    def test_non_clausal_query_rejected(self, golden_k):
        with pytest.raises(NonClausalQueryError):
            answer_query(golden_k, parse("p1 & p2"))

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_empty_compilation_is_the_clause_true(self, system):
        comp = compile_kb(TRUE, TRUE, system)
        assert comp.omega() == ()
        for text in ("p | ~p", "p", "<>p | []~p", "[](p | ~p)", "<>p"):
            q = parse(text)
            direct = answer_query_direct(TRUE, TRUE, q, system).answer
            assert answer_query(comp, q).answer == direct, text
            assert answer_query(comp, q, strict=True).answer == direct, text


class TestClauseTest:
    """Compiled answers equal one tableau entailment check per clause."""

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_matches_per_clause_entailment(self, system):
        rng = random.Random(5)
        names = ("a", "b")
        kbs = [rand_instance(rng, names=names) for _ in range(6)]
        kbs += [(x, TRUE) for x, _ in kbs[:2]]
        # the KB true (omega empty), the KB false, and a theory modulo
        # which queries such as []a are valid
        kbs += [(TRUE, TRUE), (FALSE, TRUE), (FALSE, var("a")),
                (parse("a & <>b"), var("a"))]
        for x, y in kbs:
            comp = compile_kb(x, y, system)
            pool = comp.omega() or (TRUE,)
            for clause in clause_vocabulary(names):
                for q in (clause, lnot(nnf(lnot(clause)))):
                    holds = [entails_mod(pi, comp.box_y, q, system)
                             for pi in pool]
                    found = answer_query(comp, q)
                    assert found.answer == any(holds), (x, y, q)
                    assert found.witness == (pool[holds.index(True)]
                                             if any(holds) else None)
                    strict = answer_query(comp, q, strict=True)
                    assert strict.answer == all(holds), (x, y, q)
                    assert strict.witness == (pool[0] if all(holds) else None)

    @pytest.mark.parametrize("system", [System.K, System.T])
    def test_non_clause_in_theta(self, system):
        # a compilation file may hold any formula in theta; a disjunct that
        # is no literal takes a tableau call of its own
        comp = dataclasses.replace(
            compile_kb(parse("a & <>b"), var("a"), system),
            theta=(parse("(a & <>b) | []c"), parse("<>(b & c) | (a & []~b)")))
        for q in clause_vocabulary(("a", "b", "c"))[::5]:
            holds = [entails_mod(pi, comp.box_y, q, system)
                     for pi in comp.omega()]
            assert answer_query(comp, q).answer == any(holds), q
            assert answer_query(comp, q, strict=True).answer == all(holds), q


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
                    built = land(x, box(y), nnf(lnot(q)))
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
        assert kb.kb_formula() == land(parse("p1 | p2"), parse("<>[]~p3"))
        assert kb.theory_formula() is TRUE

    def test_comments_blanks_and_theory_section(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text(
            "# a knowledge base\n\np1 | p2\n<>[]~p3\n[]<>p2\n"
            "[theory]\np1 | p2\n")
        kb = load_kb(str(path))
        assert len(kb.formulas) == 3
        assert kb.theory_formula() == parse("p1 | p2")

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
        assert loaded.candidates == golden_t.candidates
        assert loaded.x == golden_t.x
        assert loaded.y == golden_t.y
        assert loaded.box_y == golden_t.box_y
        assert loaded.system is System.T
        assert loaded.horn_advisory == golden_t.horn_advisory

    def test_schema_fields(self, tmp_path, golden_t):
        path = tmp_path / "comp.json"
        save_compilation(golden_t, str(path))
        payload = json.loads(path.read_text())
        assert payload["schema"] == 1
        assert set(payload) == {"schema", "system", "x", "y", "box_y",
                                "candidates", "theta", "stats",
                                "horn_advisory"}
        assert set(payload["stats"]) == {"nb_cl_candidates", "nb_cl_theta",
                                         "entailment_calls", "elapsed_ms"}

    def test_schema_mismatch(self, tmp_path):
        path = tmp_path / "comp.json"
        path.write_text('{"schema": 99}')
        with pytest.raises(SchemaError):
            load_compilation(str(path))

    @pytest.mark.parametrize("change", [
        "[1, 2]", '"text"', {"x": 5}, {"candidates": [1]}, {"theta": "p"},
        {"system": 5}, {"system": "S5"}, {"stats": 3}, {"box_y": "[]("},
        {"box_y": "[]p3"},
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
        with pytest.raises(SchemaError if change != {"box_y": "[]("}
                           else FormulaSyntaxError):
            load_compilation(str(path))
        assert main(["query", "--compilation", str(path),
                     "--query", "p1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}")
        assert "Traceback" not in err

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

    def test_query_strict_flag(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", "K", "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out, "--query", "p1 | p2",
                     "--strict-paper-qa"]) == 1

    def test_clausal_query_outside_nnf(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", "T", "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out,
                     "--query", "~[]p3"]) in (0, 1)
        assert "answering directly" not in capsys.readouterr().err

    def test_non_clausal_query_routed_directly(self, golden_kb, tmp_path,
                                               capsys):
        out = str(tmp_path / "comp.json")
        main(["compile", "--kb", golden_kb, "--system", "T", "--out", out])
        capsys.readouterr()
        assert main(["query", "--compilation", out,
                     "--query", "(p1 | p2) & []<>p2"]) == 0
        captured = capsys.readouterr()
        assert "answering directly" in captured.err

    def test_pi_lists_clauses(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("p & q\n")
        assert main(["pi", "--kb", str(kb), "--system", "K"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["p", "q"]

    def test_check_passes_on_golden(self, golden_kb, capsys):
        assert main(["check", "--kb", golden_kb, "--system", "T"]) == 0
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
                     ["pi", "--kb", golden_kb],
                     ["check", "--kb", golden_kb]):
            self._rejected(argv, "--node-budget", capsys)

    def test_negative_max_terms_exit_2(self, golden_kb, tmp_path, capsys):
        out = str(tmp_path / "comp.json")
        for argv in (["compile", "--kb", golden_kb, "--out", out],
                     ["pi", "--kb", golden_kb]):
            self._rejected(argv, "--max-terms", capsys)

    def test_negative_oracle_budget_exit_2(self, capsys):
        self._rejected(["oracle", "--formula", "p"], "--budget", capsys)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--formula", "p", "--budget", "1.5"])
        assert exc.value.code == 2
        assert "not an integer: '1.5'" in capsys.readouterr().err

    def test_resource_cap_exit_code(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_text("(a1 | b1) & (a2 | b2) & (a3 | b3) & (a4 | b4)"
                      " & (a5 | b5) & (a6 | b6)\n")
        out = str(tmp_path / "comp.json")
        assert main(["compile", "--kb", str(kb), "--out", out,
                     "--max-terms", "5"]) == 3
