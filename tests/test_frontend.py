"""Parsing, PBE detection, validation errors, and solution printing."""

from __future__ import annotations

import functools
import hashlib
import inspect
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bvsynth.errors import (
    InconsistentExamples,
    MissingIf0Rule,
    NotPBE,
    ProblemFormatError,
    SygusSyntaxError,
    UnboundVariable,
    UnsupportedArity,
)
from bvsynth import frontend
from bvsynth.frontend import (
    Example,
    Problem,
    detect_pbe,
    emit_solution,
    parse_literal,
    parse_problem,
    position,
    read_sexprs,
)
from bvsynth.semantics import BitVecValue, Const, Var, eval_expr
from bvsynth.solver import solve_problem

import reference_reader
from helpers import app, const, grammar_of, problem_of
from solution_reader import parse_solution

W64_GRAMMAR = """((Start (BitVec 64) (x #x0000000000000000 #x0000000000000001
    (bvnot Start) (bvand Start Start) (bvadd Start Start) (if0 Start Start Start))))"""


def w64_file(constraints: str, grammar: str = W64_GRAMMAR) -> str:
    return (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{grammar})\n"
        f"{constraints}\n"
        "(check-synth)\n"
    )


def lit64(bits: int) -> str:
    return str(BitVecValue(64, bits))


def test_direct_example_both_argument_orders():
    text = w64_file(
        f"(constraint (= (f {lit64(3)}) {lit64(6)}))\n"
        f"(constraint (= {lit64(10)} (f {lit64(5)})))"
    )
    p = parse_problem(text)
    assert [(e.inputs, e.output) for e in p.examples] == [((3,), 6), ((5,), 10)]
    assert p.name == "f" and p.params == ("x",) and p.width == 64


def test_implication_form_is_canonicalized():
    text = (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})\n"
        "(declare-var v0 (BitVec 64))\n"
        "(declare-var vt (BitVec 64))\n"
        f"(constraint (=> (and (= v0 {lit64(1)}) (= vt (f v0))) (= vt {lit64(2)})))\n"
        f"(constraint (=> (and (= {lit64(7)} v0) (= (f v0) vt)) (= {lit64(9)} vt)))\n"
        "(check-synth)\n"
    )
    p = parse_problem(text)
    assert [(e.inputs[0], e.output) for e in p.examples] == [(1, 2), (7, 9)]


def test_implication_with_literal_argument():
    text = (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})\n"
        "(declare-var vt (BitVec 64))\n"
        f"(constraint (=> (= vt (f {lit64(4)})) (= vt {lit64(8)})))\n"
        "(check-synth)\n"
    )
    p = parse_problem(text)
    assert [(e.inputs[0], e.output) for e in p.examples] == [(4, 8)]


def test_crlf_and_lf_parse_to_equal_problems():
    text = w64_file(f"(constraint (= (f {lit64(3)}) {lit64(6)}))")
    assert parse_problem(text) == parse_problem(text.replace("\n", "\r\n"))


def test_comments_and_blank_lines_ignored():
    text = (
        "; a leading comment\r\n"
        "(set-logic BV) ; trailing comment\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})\n"
        "\n"
        f"(constraint (= (f {lit64(3)}) {lit64(6)})) ; example\n"
        "(check-synth)\n"
    )
    p = parse_problem(text)
    assert len(p.examples) == 1


def test_two_parameter_synth_fun_rejected():
    text = (
        "(set-logic BV)\n"
        "(synth-fun f ((x (BitVec 64)) (y (BitVec 64))) (BitVec 64)\n"
        f"{W64_GRAMMAR})\n"
        f"(constraint (= (f {lit64(1)}) {lit64(1)}))\n"
        "(check-synth)\n"
    )
    with pytest.raises(UnsupportedArity):
        parse_problem(text)


def test_missing_if0_rule_rejected():
    grammar = "((Start (BitVec 64) (x #x0000000000000000 (bvand Start Start))))"
    with pytest.raises(MissingIf0Rule):
        parse_problem(w64_file(f"(constraint (= (f {lit64(1)}) {lit64(1)}))", grammar))


def test_inconsistent_examples_rejected():
    text = w64_file(
        f"(constraint (= (f {lit64(3)}) {lit64(6)}))\n"
        f"(constraint (= (f {lit64(3)}) {lit64(7)}))"
    )
    with pytest.raises(InconsistentExamples):
        parse_problem(text)


def test_duplicate_identical_examples_allowed():
    text = w64_file(
        f"(constraint (= (f {lit64(3)}) {lit64(6)}))\n"
        f"(constraint (= (f {lit64(3)}) {lit64(6)}))"
    )
    assert len(parse_problem(text).examples) == 2


def test_non_ground_constraint_is_not_pbe():
    text = (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})\n"
        "(declare-var v (BitVec 64))\n"
        "(constraint (bvult (f v) v))\n"
        "(check-synth)\n"
    )
    with pytest.raises(NotPBE):
        parse_problem(text)


def test_declared_var_outside_implication_is_not_pbe():
    text = (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})\n"
        "(declare-var v (BitVec 64))\n"
        f"(constraint (= (f v) {lit64(3)}))\n"
        "(check-synth)\n"
    )
    with pytest.raises(NotPBE):
        parse_problem(text)


def test_no_constraints_is_not_pbe():
    with pytest.raises(NotPBE):
        parse_problem(w64_file(""))


def test_v2_grammar_syntax_rejected():
    text = (
        "(set-logic BV)\n"
        "(synth-fun f ((x (BitVec 64))) (BitVec 64)\n"
        "  ((Start (BitVec 64)))\n"
        "  ((Start (BitVec 64) (x (if0 Start Start Start)))))\n"
        f"(constraint (= (f {lit64(1)}) {lit64(1)}))\n"
        "(check-synth)\n"
    )
    with pytest.raises(SygusSyntaxError, match="v2"):
        parse_problem(text)


def test_smtlib_underscore_sort_rejected():
    text = (
        "(set-logic BV)\n"
        "(synth-fun f ((x (_ BitVec 64))) (BitVec 64)\n"
        f"{W64_GRAMMAR})\n"
        f"(constraint (= (f {lit64(1)}) {lit64(1)}))\n"
        "(check-synth)\n"
    )
    with pytest.raises(SygusSyntaxError):
        parse_problem(text)


def test_unknown_operator_in_grammar_rejected():
    grammar = "((Start (BitVec 64) (x (bvmul Start Start) (if0 Start Start Start))))"
    with pytest.raises(SygusSyntaxError, match="bvmul"):
        parse_problem(w64_file(f"(constraint (= (f {lit64(1)}) {lit64(1)}))", grammar))


def test_unit_production_rejected():
    grammar = (
        "((Start (BitVec 64) (Inner (if0 Start Start Start)))"
        " (Inner (BitVec 64) (x)))"
    )
    with pytest.raises(SygusSyntaxError, match="unit production"):
        parse_problem(w64_file(f"(constraint (= (f {lit64(1)}) {lit64(1)}))", grammar))


def test_vacuous_nonterminal_rejected():
    grammar = "((Start (BitVec 64) ((bvnot Start) (if0 Start Start Start))))"
    with pytest.raises(SygusSyntaxError, match="derives no finite"):
        parse_problem(w64_file(f"(constraint (= (f {lit64(1)}) {lit64(1)}))", grammar))


def w8_file(productions: str, constraints: str) -> str:
    return (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec 8))) (BitVec 8)\n  ((Start (BitVec 8) ({productions}))))\n"
        f"{constraints}\n"
        "(check-synth)\n"
    )


@pytest.mark.parametrize(
    "productions, constraints, error, message",
    [
        (
            "(bvnot Start)", "(constraint (= (f #x01) #x01))",
            MissingIf0Rule, "grammar of 'f' has no production named if0",
        ),
        (
            "(bvnot Start) (if0 Start Start Start)", "(constraint (bvult (f #x01) #x01))",
            NotPBE, "not a PBE task: constraint 0 is not an input/output example",
        ),
        (
            "(bvnot Start) (if0 Start Start Start)",
            "(constraint (= (f #x01) #x01))\n(constraint (= (f #x01) #x02))",
            SygusSyntaxError, "nonterminal 'Start' derives no finite expression",
        ),
    ],
    ids=["and no if0", "and a non-example constraint", "and inconsistent examples"],
)
def test_a_vacuous_start_with_a_second_fault(productions, constraints, error, message):
    # The parser's own errors come first, then check_grammar's, then
    # check_examples', which both run only when the parsed Problem is built.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        parse_problem(w8_file(productions, constraints))


def test_literal_width_mismatch_rejected():
    with pytest.raises(SygusSyntaxError, match="width"):
        parse_problem(w64_file("(constraint (= (f #x01) #x02))"))


def test_define_fun_spelling_of_helpers_accepted():
    text = (
        "(set-logic BV)\n"
        "(define-fun shr4 ((x (BitVec 64))) (BitVec 64) (bvlshr x #x0000000000000004))\n"
        "(define-fun if0 ((x (BitVec 64)) (y (BitVec 64)) (z (BitVec 64))) (BitVec 64)"
        " (ite (= x #x0000000000000001) y z))\n"
        "(synth-fun f ((x (BitVec 64))) (BitVec 64)\n"
        "  ((Start (BitVec 64) (x #x0000000000000000 (shr4 Start) (if0 Start Start Start)))))\n"
        f"(constraint (= (f {lit64(0xF0)}) {lit64(0x0F)}))\n"
        "(check-synth)\n"
    )
    p = parse_problem(text)
    assert p.grammar.first_if0() is not None


def test_define_fun_with_unknown_name_rejected():
    text = (
        "(set-logic BV)\n"
        "(define-fun double ((x (BitVec 64))) (BitVec 64) (bvadd x x))\n"
        f"(synth-fun f ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})\n"
        f"(constraint (= (f {lit64(1)}) {lit64(1)}))\n"
        "(check-synth)\n"
    )
    with pytest.raises(SygusSyntaxError, match="double"):
        parse_problem(text)


def test_unbalanced_parens_reported_with_position():
    with pytest.raises(SygusSyntaxError):
        parse_problem("(set-logic BV\n")
    with pytest.raises(SygusSyntaxError):
        parse_problem("(set-logic BV))\n")


def test_the_node_walk_stops_at_the_first_close_that_closes_nothing():
    # The ')' at offset 0 closes no list: the walk ends there, before the atom
    # after it, and never pops the list of top-level forms.
    assert list(frontend._nodes(")a", [])) == [(None, None, 0)]


def test_out_of_range_width_rejected():
    text = (
        "(set-logic BV)\n"
        "(synth-fun f ((x (BitVec 128))) (BitVec 128)\n"
        "  ((Start (BitVec 128) (x (if0 Start Start Start)))))\n"
        "(constraint (= (f #x01) #x01))\n"
        "(check-synth)\n"
    )
    with pytest.raises(SygusSyntaxError, match="width 128"):
        parse_problem(text)


def test_binary_literals_accepted():
    text = (
        "(set-logic BV)\n"
        "(synth-fun f ((x (BitVec 8))) (BitVec 8)\n"
        "  ((Start (BitVec 8) (x #b00000001 (if0 Start Start Start)))))\n"
        "(constraint (= (f #b00000011) #b00000011))\n"
        "(check-synth)\n"
    )
    p = parse_problem(text)
    assert p.width == 8
    assert p.examples[0].inputs[0] == 3


@pytest.mark.parametrize("digits", ["\u00b2", "\u0663"])
def test_sort_width_must_be_ascii_digits(digits):
    text = (
        "(set-logic BV)\n"
        f"(synth-fun f ((x (BitVec {digits}))) (BitVec 8)\n"
        "  ((Start (BitVec 8) (x (if0 Start Start Start)))))\n"
        "(constraint (= (f #x01) #x01))\n"
        "(check-synth)\n"
    )
    with pytest.raises(SygusSyntaxError, match="expected sort"):
        parse_problem(text)


@pytest.mark.parametrize(
    "text, width",
    [
        ("#b-1", 2),
        ("#x+1", 8),
        ("#x0_1", 12),
        ("#x\u0661", 4),
        ("#b\u0661", 1),
        ("#b2", 1),
        ("#x", 0),
        ("#x0x1", 12),
        ("#x0X1", 12),
        ("#b0b1", 3),
        ("#b0B1", 3),
        ("#x 1", 8),
    ],
)
def test_literal_digits_must_match_the_radix(text, width):
    with pytest.raises(SygusSyntaxError, match="malformed literal"):
        parse_literal([text], 0, width)


@pytest.mark.parametrize(
    "text, width, bits",
    [("#x0b1", 12, 0x0B1), ("#XaBf", 12, 0xABF), ("#b0110", 4, 6), ("#B1", 1, 1)],
)
def test_literal_digits_of_the_radix_accepted(text, width, bits):
    assert parse_literal([text], 0, width) == bits


def test_zero_literals_parse_to_zero():
    # #x00 is a falsy int: a matcher that tests a parsed value for truth
    # rather than for None would drop it.
    text = (
        "(set-logic BV)\n"
        "(synth-fun f ((x (BitVec 8))) (BitVec 8)\n"
        "  ((Start (BitVec 8) (x #x00 (bvnot Start) (if0 Start Start Start)))))\n"
        "(declare-var v (BitVec 8))\n"
        "(declare-var o (BitVec 8))\n"
        "(constraint (= (f #x00) #x00))\n"
        "(constraint (=> (and (= v #x00) (= o (f v))) (= o #x00)))\n"
        "(check-synth)\n"
    )
    p = parse_problem(text)
    assert [(e.inputs[0], e.output) for e in p.examples] == [(0, 0), (0, 0)]
    assert Const(BitVecValue(8, 0)) in p.grammar.productions["Start"]


def test_signed_literal_in_constraint_rejected():
    with pytest.raises(SygusSyntaxError, match="malformed literal"):
        parse_problem(w64_file(f"(constraint (= (f {lit64(1)}) #x+000000000000001))"))


# -- emit / re-parse ----------------------------------------------------------


def identity_problem(width=64):
    return problem_of(grammar_of(["bvnot", "bvand"], width=width), [(1, 1)], width=width)


def test_emit_solution_exact_text():
    p = identity_problem()
    assert emit_solution(p, Var("x")) == "(define-fun f ((x (BitVec 64))) (BitVec 64) x)"


def test_emit_solution_width8():
    p = identity_problem(width=8)
    out = emit_solution(p, app("bvnot", Var("x")))
    assert out == "(define-fun f ((x (BitVec 8))) (BitVec 8) (bvnot x))"
    assert out.count("(BitVec 8)") == 2


def test_emit_solution_nested_if0():
    p = identity_problem()
    body = app("if0", app("bvand", Var("x"), const(64, 1)), app("bvnot", Var("x")), Var("x"))
    out = emit_solution(p, body)
    assert out == (
        "(define-fun f ((x (BitVec 64))) (BitVec 64) "
        "(if0 (bvand x #x0000000000000001) (bvnot x) x))"
    )


def test_emit_then_parse_round_trip():
    p = identity_problem()
    body = app("if0", app("bvand", Var("x"), const(64, 1)), app("bvnot", Var("x")), Var("x"))
    parsed = parse_solution(emit_solution(p, body))
    assert parsed.name == "f"
    assert parsed.params == ("x",)
    assert parsed.width == 64
    assert parsed.body == body


def test_deeply_nested_solution_parses():
    depth = 3000
    body = "(bvnot " * depth + "x" + ")" * depth
    parsed = parse_solution(f"(define-fun f ((x (BitVec 64))) (BitVec 64) {body})")
    assert parsed.body.size == depth + 1


def test_deeply_nested_solution_evaluates_and_emits():
    depth = 3000
    text = "(define-fun f ((x (BitVec 64))) (BitVec 64) {})".format(
        "(bvnot " * depth + "x" + ")" * depth
    )
    body = parse_solution(text).body
    # an even number of bvnots is the identity
    assert eval_expr(body, {"x": BitVecValue(64, 0x1234)}, 64) == BitVecValue(64, 0x1234)
    assert emit_solution(identity_problem(), body) == text


@pytest.mark.parametrize(
    "body, message",
    [
        # The first bad node in preorder, left to right, is the one reported.
        ("(bvand y (bvfoo x))", "unknown symbol 'y' at 1:52"),
        ("(bvand (bvfoo x) y)", "unknown operator 'bvfoo' at 1:52"),
        ("(bvand x (bvnot x x))", "bvnot expects 1 operands, got 2 at 1:54"),
        ("(bvnot (bvand x #x01))", "literal '#x01' has width 8, expected 64 at 1:61"),
        ("(x)", "unknown operator 'x' at 1:45"),
        ("()", "unknown operator None at 1:45"),
    ],
)
def test_solution_term_errors_keep_message_and_position(body, message):
    with pytest.raises(SygusSyntaxError) as err:
        parse_solution(f"(define-fun f ((x (BitVec 64))) (BitVec 64) {body})")
    assert str(err.value) == message


@pytest.mark.parametrize(
    "synth_fun, message",
    [
        ("(synth-fun f ((x (BitVec 64))) (BitVec 64))", "malformed synth-fun at 2:1"),
        (
            f"(synth-fun (f) ((x (BitVec 64))) (BitVec 64)\n{W64_GRAMMAR})",
            "malformed synth-fun at 2:1",
        ),
        (
            f"(synth-fun f ((x (BitVec 8))) (BitVec 64)\n{W64_GRAMMAR})",
            "parameter 'x' has width 8, return sort has width 64 at 2:15",
        ),
    ],
)
def test_synth_fun_header_errors_keep_message_and_position(synth_fun, message):
    text = f"(set-logic BV)\n{synth_fun}\n(constraint (= (f {lit64(1)}) {lit64(1)}))\n"
    with pytest.raises(SygusSyntaxError) as err:
        parse_problem(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text, message",
    [
        ("(define-fun f ((x (BitVec 64))) (BitVec 64))", "malformed define-fun at 1:1"),
        (
            "(define-fun f ((x (BitVec 8))) (BitVec 64) x)",
            "parameter 'x' has width 8, return sort has width 64 at 1:16",
        ),
    ],
)
def test_solution_header_errors_keep_message_and_position(text, message):
    with pytest.raises(SygusSyntaxError) as err:
        parse_solution(text)
    assert str(err.value) == message


ONE = f"(constraint (= (f {lit64(1)}) {lit64(1)}))"
ARITY_TWO = "(constraint (= (f #x01 #x02) #x03))"
TWO_IDENTITIES = "(define-fun f ((x (BitVec 64))) (BitVec 64) x)\n" * 2


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: parse_problem(w64_file(ONE, "()")), SygusSyntaxError,
         "expected a non-empty grammar block at 3:1"),
        (lambda: parse_problem(w64_file(ONE, "Start")), SygusSyntaxError,
         "expected a non-empty grammar block at 3:1"),
        (lambda: parse_problem(w64_file(ONE, "((Start (BitVec 8) (x (if0 Start Start Start))))")),
         SygusSyntaxError, "nonterminal sort must be (BitVec 64) at 3:9"),
        (lambda: parse_problem(w64_file(
            ONE, "((Start (BitVec 64) (x (if0 Start Start Start)))\n (Start (BitVec 64) (x)))"
        )), SygusSyntaxError, "duplicate nonterminal 'Start' at 4:3"),
        (lambda: parse_problem(w64_file(ONE, "((Start (BitVec 64) (x ((bvnot) Start))))")),
         SygusSyntaxError, "expected '(op Nonterminal...)' at 3:24"),
        (lambda: parse_problem(w64_file(ONE, "((Start (BitVec 64) (x () (bvnot Start))))")),
         SygusSyntaxError, "expected '(op Nonterminal...)' at 3:24"),
        (lambda: parse_problem(w64_file(
            ONE, "((Start (BitVec 64) (x (if0 Start Start Other)))\n (Other (BitVec 64) ()))"
        )), SygusSyntaxError, "nonterminal 'Other' has no productions"),
        (lambda: parse_problem(f"(synth-fun f x (BitVec 64)\n{W64_GRAMMAR})\n{ONE}\n"),
         SygusSyntaxError, "expected parameter list at 1:14"),
        (lambda: parse_problem("(define-fun shl1)\n" + w64_file(ONE)), SygusSyntaxError,
         "malformed define-fun at 1:1"),
        (lambda: parse_problem(
            "(define-fun shl1 ((a (BitVec 64)) (b (BitVec 64))) (BitVec 64) a)\n" + w64_file(ONE)
        ), SygusSyntaxError, "define-fun 'shl1' must take 1 parameters at 1:18"),
        (lambda: parse_problem(w64_file("(declare-var v)\n" + ONE)), SygusSyntaxError,
         "expected '(declare-var name sort)' at 5:1"),
        (lambda: parse_problem(w64_file("(declare-var v (BitVec 8))\n" + ONE)), SygusSyntaxError,
         "declared variable 'v' has width 8, expected 64"),
        (lambda: parse_solution(""), SygusSyntaxError, "expected a single define-fun"),
        (lambda: parse_solution(TWO_IDENTITIES), SygusSyntaxError, "expected a single define-fun"),
        (lambda: parse_solution("(check-synth)"), SygusSyntaxError, "expected a single define-fun"),
        (lambda: emit_solution(identity_problem(), Var("y")), UnboundVariable,
         "unbound variable: y"),
        # The Problem checks the number of inputs, after every constraint is matched.
        (lambda: parse_problem(w8_file("x (if0 Start Start Start)", ARITY_TWO)), NotPBE,
         "not a PBE task: example 0 has 2 inputs, not 1"),
        (lambda: parse_problem(w8_file("x (if0 Start Start Start)", f"{ARITY_TWO}\n(constraint x)")),
         NotPBE, "not a PBE task: constraint 1 is not an input/output example"),
    ],
    ids=[
        "empty-grammar", "atom-grammar", "nonterminal-sort", "duplicate-nonterminal",
        "production-head-is-a-list", "empty-production", "no-productions", "parameter-list",
        "malformed-define-fun", "define-fun-arity", "declare-var-shape", "declare-var-width",
        "no-solution", "two-solutions", "solution-not-a-define-fun", "emit-unbound-variable",
        "example-arity", "example-arity-then-non-example",
    ],
)
def test_every_rejection_keeps_its_message_and_position(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# -- hypothesis properties ----------------------------------------------------


@functools.cache
def canary_texts(name: str) -> list[str]:
    """The benchmark's instances of workload ``name`` for its canary seed."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    return workloads.generate(workloads.WORKLOADS[name], workloads.CANARY_SEED)


# Characters the s-expression reader and the literal parser act on, mixed
# with arbitrary ones.
SPLICE_CHARS = st.sampled_from("()#xb019af \n;|\"-") | st.characters()


@st.composite
def spliced_enum32(draw) -> str:
    """An ``enum32`` instance with up to 8 characters replaced by up to 8 others."""
    texts = canary_texts("enum32")
    text = texts[draw(st.integers(0, len(texts) - 1))]
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 8)))
    return text[:start] + draw(st.text(SPLICE_CHARS, max_size=8)) + text[end:]


def parses_or_reports(text: str) -> None:
    try:
        problem = parse_problem(text)
    except ProblemFormatError:
        return
    assert isinstance(problem, Problem)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_parse_problem_on_arbitrary_text_raises_only_format_errors(text):
    parses_or_reports(text)


@settings(max_examples=100, deadline=None)
@given(spliced_enum32())
def test_parse_problem_on_spliced_instance_raises_only_format_errors(text):
    parses_or_reports(text)


# What a one-character edit puts in: the reader's delimiters, a line ending
# and the whitespace that is not a delimiter, a malformed and a short literal,
# a comment, a non-ASCII letter, an unknown operator, a nonterminal and a
# variable.
EDIT_PIECES = ["(", ")", "#xZZ", "#x0", "\r\n", "\t", "é", "\f", ";(", "bvfoo", "Start", "x", " "]
# The outcome of every edit below, "ok" or "Type: message", hashed together.
# Pinned before the reader kept offsets instead of positions: any change to
# a message or a position changes it.
ERRORS_SHA256 = "76d466840053e8e8795554a13081ddc9c7c485deac81938e1b42a7fd5a2ccddf"


def test_format_errors_match_pinned_digest():
    rng = random.Random(8)
    texts = canary_texts("enum32")[:40] + canary_texts("wide200")[:10]
    digest = hashlib.sha256()
    for _ in range(1000):
        text = rng.choice(texts)
        at = rng.randrange(len(text))
        kind = rng.choice(("delete", "insert", "replace"))
        piece = "" if kind == "delete" else rng.choice(EDIT_PIECES)
        text = text[:at] + piece + text[at + (kind != "insert") :]
        try:
            parse_problem(text)
            outcome = "ok"
        except ProblemFormatError as err:
            outcome = f"{type(err).__name__}: {err}"
        digest.update(f"{outcome}\n".encode("utf-8"))
    assert digest.hexdigest() == ERRORS_SHA256


def test_a_parsed_solve_checks_its_problem_once(monkeypatch):
    # Problem's constructor is the one caller of the two checks: parse, solve
    # and emit run each once, and a solve of a Problem already built runs
    # neither.  Every binding of a check in a bvsynth module is counted.
    text = canary_texts("enum32")[0]
    built = Problem(*parse_problem(text))
    calls = {"check_grammar": 0, "check_examples": 0}
    modules = [m for key, m in sys.modules.items() if key == "bvsynth" or key.startswith("bvsynth.")]
    for name in calls:
        check = getattr(frontend, name)

        def counted(*args, _check=check, _name=name, **kwargs):
            calls[_name] += 1
            return _check(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is check:
                monkeypatch.setattr(module, name, counted)
    problem = parse_problem(text)
    emit_solution(problem, solve_problem(problem).solution)
    assert calls == {"check_grammar": 1, "check_examples": 1}
    calls.update(dict.fromkeys(calls, 0))
    solve_problem(built)
    assert calls == {"check_grammar": 0, "check_examples": 0}


def shape(forms: list, pos) -> list:
    """A reader's tree as plain data, with the (line, col) ``pos(parent, i)``
    gives each node ``parent[i]``."""
    out: list = []
    todo = [(forms, out)]
    while todo:
        nodes, into = todo.pop()
        for i, node in enumerate(nodes):
            if isinstance(node, list):
                children: list = []
                into.append(("list", *pos(nodes, i), children))
                todo.append((node, children))
            else:
                into.append(("atom", node if type(node) is str else node.text, *pos(nodes, i)))
    return out


def frontend_pos(text: str, forms: list):
    """``pos`` for the frontend's tree ``forms`` of ``text``, through the view its
    errors use: every node's offset from one reading of ``text`` in step with
    ``forms``, where a list's own offset must be its offset in its parent."""
    offsets = {}
    for parent, i, offset in frontend._nodes(text, forms):
        if parent is not None and i is None:
            assert offsets[id(parent)] == offset  # the list itself, just after its place
        elif parent is not None:
            assert type(parent[i]) in (str, list), parent[i]  # plain strings and lists
            offsets[id(parent), i] = offset
            offsets[id(parent[i])] = offset
    return lambda parent, i: position(text, offsets[id(parent), i])


def reference_pos(text: str, forms: list):
    return lambda parent, i: (parent[i].line, parent[i].col)


def read_outcome(read, text: str, pos):
    """The tree ``read`` makes of ``text`` with ``pos(text, tree)`` giving its
    positions, or its error with line and column."""
    try:
        forms = read(text)
        return shape(forms, pos(text, forms))
    except SygusSyntaxError as err:
        return ("error", str(err), err.line, err.col)


def test_reader_matches_reference_reader_on_canary_documents():
    # the documents the error digest edits, read whole: every node's position
    for text in canary_texts("enum32")[:40] + canary_texts("wide200")[:10]:
        got = read_outcome(read_sexprs, text, frontend_pos)
        assert got == read_outcome(reference_reader.read_sexprs, text, reference_pos)


# The reader's delimiters, CRLF, the whitespace it does not treat as a
# delimiter (form feed, vertical tab, the Unicode line separator), a literal,
# a word and a non-ASCII letter.
READER_PIECES = st.sampled_from(
    ["(", ")", ";", " ", "\t", "\r", "\n", "\r\n", "\f", "\v", "\u2028", "#x01", "bvnot", "é"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(READER_PIECES, max_size=60).map("".join))
def test_reader_matches_reference_reader(text):
    assert read_outcome(read_sexprs, text, frontend_pos) == (
        read_outcome(reference_reader.read_sexprs, text, reference_pos)
    )


HEADER8 = (
    "(set-logic BV)\r\n(declare-var v (BitVec 8))\r\n(declare-var o (BitVec 8))\r\n"
    "(synth-fun f ((x (BitVec 8))) (BitVec 8)\r\n"
    "  ((Start (BitVec 8) (x (bvnot Start) (if0 Start Start Start)))))\r\n"
)


@pytest.mark.parametrize(
    "parse, text, message, atom",
    [
        # after a comment, a CRLF line end and a nested list in its parent
        (
            parse_problem,
            HEADER8 + "(constraint (= ; c\r\n (f #x01) #xZZ))",
            "malformed literal '#xZZ'",
            "#xZZ",
        ),
        (
            parse_problem,
            HEADER8 + "(constraint (= (f ; c (\r\n (bvnot #x00) #xYY) #x01))",
            "malformed literal '#xYY'",
            "#xYY",
        ),
        (
            parse_problem,
            HEADER8 + "(constraint (=> (and (= o (f v)) ; )\n\t(= v #x001)) (= o #x01)))",
            "literal '#x001' has width 12, expected 8",
            "#x001",
        ),
        (
            parse_problem,
            "(synth-fun f ((x (BitVec 8))) (BitVec 8)\r\n"
            "  ((Start (BitVec 8) ((bvnot Start) ; (\r\n  (if0 Start Start Start) y))))",
            "unknown grammar symbol 'y'",
            "y",
        ),
        (
            parse_problem,
            "(set-logic BV)\n(declare-var v\r\n Bv8)",
            "expected sort '(BitVec N)'",
            "Bv8",
        ),
        (
            parse_solution,
            "(define-fun f ((x (BitVec 64))) (BitVec 64) ; (\r\n  y)",
            "unknown symbol 'y'",
            "y",
        ),
        # a bare atom at top level, after lists and a comment
        (
            parse_problem,
            "(set-logic BV) ; x\r\n (check-synth)\n  \t bvnot (x)",
            "expected a command",
            "bvnot",
        ),
    ],
)
def test_atom_error_positions_match_reference_reader(parse, text, message, atom):
    # Each atom named is the only one with its text, and the reference reader
    # counts its line and column by hand.
    [(line, col)] = [(a.line, a.col) for a in reference_atoms(text) if a.text == atom]
    with pytest.raises(SygusSyntaxError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def reference_atoms(text: str) -> list:
    """Every atom of the reference reader's tree of ``text``."""
    atoms, todo = [], list(reference_reader.read_sexprs(text))
    while todo:
        node = todo.pop()
        if isinstance(node, list):
            todo += node
        else:
            atoms.append(node)
    return atoms


def reference_lists(text: str) -> list:
    """Every list of the reference reader's tree of ``text``, in document order."""
    lists, todo = [], list(reversed(reference_reader.read_sexprs(text)))
    while todo:
        node = todo.pop()
        if isinstance(node, list):
            lists.append(node)
            todo += reversed(node)
    return lists


SYNTH8 = "(synth-fun f ((x (BitVec 8))) (BitVec 8) ((Start (BitVec 8) (x (if0 Start Start Start)))))"


@pytest.mark.parametrize(
    "parse, text, message, head",
    [
        # each after a comment that holds a bracket, and a CRLF line end
        (
            parse_problem,
            "(set-logic BV) ; (\r\n(synth-fun f ((x (BitVec 8))) (BitVec 8)\r\n"
            "  ((Start (BitVec 8) (x (bvfoo Start) (if0 Start Start Start)))))",
            "unknown operator 'bvfoo'",
            ("bvfoo", 0),
        ),
        (
            parse_problem,
            "(synth-fun f ((x (BitVec 8))) (BitVec 8) ; )\r\n"
            "  ((Start (BitVec 8) (x (bvnot Start Start) (if0 Start Start Start)))))",
            "bvnot expects 1 operands, got 2",
            ("bvnot", 0),
        ),
        (
            parse_solution,
            "(define-fun f ((x (BitVec 64))) (BitVec 64) ; (\r\n  (bvnot (bvfoo x)))",
            "unknown operator 'bvfoo'",
            ("bvfoo", 0),
        ),
        (
            parse_solution,
            "(define-fun f ((x (BitVec 64))) (BitVec 64) ; )\r\n  (bvnot (bvadd x)))",
            "bvadd expects 2 operands, got 1",
            ("bvadd", 0),
        ),
        (
            parse_problem,
            "(set-logic BV) ; (\r\n(declare-var v (_ BitVec 8))",
            "SMT-LIB '(_ BitVec N)' sort is v2 syntax; use '(BitVec N)'",
            ("_", 0),
        ),
        (
            parse_problem,
            f"{SYNTH8} ; )\r\n{SYNTH8}",
            "multiple synth-fun forms",
            ("synth-fun", 1),
        ),
        # the reader's own errors, placed where the reference reader places them
        (parse_problem, "(set-logic BV) ; )\r\n (check-synth))\n", "unbalanced ')'", None),
        (
            parse_problem,
            "(set-logic BV) ; (\r\n(check-synth (x (y)) (z (w)\r\n",
            "unclosed '('",
            None,
        ),
    ],
)
def test_list_error_positions_match_reference_reader(parse, text, message, head):
    # ``head`` names the list by its first atom and how many lists with that
    # head come before it; the reference reader counts lines and columns by
    # hand, and raises the bracket errors itself.
    if head is None:
        with pytest.raises(SygusSyntaxError) as want:
            reference_reader.read_sexprs(text)
        assert want.value.message == message
        line, col = want.value.line, want.value.col
    else:
        name, n = head
        found = [sx for sx in reference_lists(text) if sx and getattr(sx[0], "text", None) == name]
        line, col = found[n].line, found[n].col
    with pytest.raises(SygusSyntaxError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


# Every character ``str.isspace`` accepts but the reader keeps inside atoms.
OTHER_SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in " \t\r\n"]


@pytest.mark.parametrize("c", OTHER_SPACES, ids=lambda c: f"U+{ord(c):04X}")
def test_only_space_tab_cr_and_lf_separate_tokens(c):
    # A reader that splits on all whitespace reads ``a`` and ``b`` apart; one
    # that ends a line where ``str.splitlines`` does ends the comment early.
    text = f"(a{c}b ;{c})\n)"
    assert read_sexprs(text) == [[f"a{c}b"]]
    for text in (text, text + ")", "(" + text):
        assert read_outcome(read_sexprs, text, frontend_pos) == (
            read_outcome(reference_reader.read_sexprs, text, reference_pos)
        )


@pytest.mark.parametrize("parse", [parse_problem, parse_solution, read_sexprs])
def test_public_parsers_take_only_the_text(parse):
    assert list(inspect.signature(parse).parameters) == ["text"]


# -- the example matcher against the reference ----------------------------------

MATCH_DECLARED = {"v": 8, "w": 8, "o": 8}  # u and x are not declared


def pbe_outcome(terms: list) -> list | ProblemFormatError:
    """The examples ``detect_pbe`` finds for unary ``f`` at width 8, or its error."""
    try:
        return detect_pbe(terms, fname="f", width=8, declared=MATCH_DECLARED)
    except ProblemFormatError as err:
        return err


def reference_pbe_outcome(terms: list) -> list | ProblemFormatError:
    with mock.patch.object(frontend, "_example_of", reference_reader.example_of):
        return pbe_outcome(terms)


def outcome_key(outcome: list | ProblemFormatError) -> list | tuple[str, str]:
    if isinstance(outcome, list):
        return outcome
    return (type(outcome).__name__, str(outcome))


@pytest.mark.parametrize(
    "term",
    [
        "(=> (and (= o (f #x01)) (= o (f #x02))) (= o #x03))",  # a second call
        "(=> (= v #x01) (= o #x02))",  # no call
        "(=> (and (= v #x01) (= o (f v))) (= (f v) #x02))",  # a direct call in the consequent
        "(=> (= v #x01) (= (f v) #x02))",
        "(= (f v) #x01)",  # a variable argument in the direct form
        "(=> (= o (f u)) (= o #x01))",  # an undeclared variable argument
        "(=> (= o (f w)) (= o #x01))",  # an unpinned variable argument
        "(=> (= o (f #x01)) (= w #x01))",  # the consequent is not about o
    ],
)
def test_matcher_rejects_what_is_not_an_example(term):
    want = ("NotPBE", "not a PBE task: constraint 0 is not an input/output example")
    assert outcome_key(pbe_outcome(read_sexprs(term))) == want
    assert outcome_key(reference_pbe_outcome(read_sexprs(term))) == want


def test_matcher_parses_every_call_argument_before_rejecting_one():
    # The reference stops at the unpinned w; every argument is parsed now.
    term = "(=> (= o (f w #xZZ)) (= o #x01))"
    # detect_pbe's error names the atom's parent and index; parse_problem
    # would derive its offset and report it as 1:15.
    terms = read_sexprs(term)
    err = pbe_outcome(terms)
    assert outcome_key(err) == ("SygusSyntaxError", "malformed literal '#xZZ'")
    assert err.at == (terms[0][1][2], 2) and err.at[0] is terms[0][1][2] and err.offset is None
    [offset] = [o for p, i, o in frontend._nodes(term, terms) if p is err.at[0] and i == 2]
    assert position(term, offset) == (1, 15)
    assert isinstance(reference_pbe_outcome(read_sexprs(term)), NotPBE)


@pytest.mark.parametrize(
    "term",
    [
        "(= (f #x00) #x00)",
        "(= #x00 (f #x00))",
        "(=> (and (= v #x00) (= o (f v))) (= o #x00))",
        "(=> (and (= o (f v)) (= #x00 v)) (= #x00 o))",
        "(=> (= o (f #x00)) (= o #x00))",
    ],
)
def test_matcher_keeps_zero_values(term):
    # A parsed 0 is a falsy int: a matcher that tests an input, a pinned
    # value or the output for truth rather than for None rejects these.
    assert pbe_outcome(read_sexprs(term)) == [Example((0,), 0)]
    assert reference_pbe_outcome(read_sexprs(term)) == [Example((0,), 0)]


GOOD_LITERALS = ["#x00", "#x01", "#x02", "#xfe", "#b00000011"]
BAD_LITERALS = ["#x001", "#b01", "#xZZ", "#x"]  # of the wrong width, or malformed


@st.composite
def match_terms(draw) -> str:
    """A direct example, an implication, or neither, over unary ``f`` at
    width 8.  A third of the terms are clean, a third noisy at every choice
    and a third at about one in six, so that a single defect often stands
    alone: any literal may be malformed or of the wrong width, any call
    argument unpinned or undeclared, any head other than ``=`` or ``f``, any
    equality short of an operand or one over."""
    noise = draw(st.sampled_from([0, 1, 6]))  # in sixths

    def pick(good: list, bad: list):
        return draw(st.sampled_from(good + bad if draw(st.integers(0, 5)) < noise else good))

    def literal() -> str:
        return pick(GOOD_LITERALS, BAD_LITERALS)

    def call() -> str:
        n = pick([1], [0, 2, 3])
        args = [pick(GOOD_LITERALS + ["v"], ["w", "u", "x"] + BAD_LITERALS) for _ in range(n)]
        return "(" + " ".join([pick(["f"], ["g"]), *args]) + ")"

    def equality(a: str, b: str) -> str:
        sides = [a, b] if draw(st.booleans()) else [b, a]
        sides = pick([sides], [sides[:1], sides + ["#x01"]])
        return "(" + " ".join([pick(["="], ["distinct", "=>", "and"]), *sides]) + ")"

    shape = draw(st.sampled_from(["direct", "implication", "implication", "other"]))
    if shape == "direct":
        return equality(call(), literal())
    if shape == "other":
        return draw(st.sampled_from(["v", literal(), call(), equality(call(), call())]))
    # up to two pinned variables and two calls, in any order
    pins = draw(st.integers(0, 2))
    calls = draw(st.sampled_from([1, 1, 0, 2]))
    pieces = [equality(pick(["v", "v", "w"], ["o", "u"]), literal()) for _ in range(pins)]
    pieces += [equality(pick(["o"], ["w", "u"]), call()) for _ in range(calls)]
    pieces = draw(st.permutations(pieces))
    if len(pieces) == 1 and draw(st.booleans()):
        antecedent = pieces[0]
    else:
        antecedent = "(and " + " ".join(pieces) + ")"
    about_output = draw(st.booleans())
    consequent = equality(pick(["o"], ["w", "u"]) if about_output else call(), literal())
    return f"(=> {antecedent} {consequent})"


def parent_chain(forms: list, parent: list) -> list:
    """The lists from a top-level form down to ``parent``, which is one of them."""
    todo = [(form, [form]) for form in forms if isinstance(form, list)]
    while todo:
        node, chain = todo.pop()
        if node is parent:
            return chain
        todo += [(child, chain + [child]) for child in node if isinstance(child, list)]
    raise AssertionError(f"{parent} is not in the tree")


# The generator seldom builds the one allowed difference, so these run it:
# once, and twice in one call.
@example("(=> (= o (f w #xZZ)) (= o #x01))")
@example("(= (f #x01) #x02)\n(=> (and (= v #x03) (= o (f v u #xZZ #x001))) (= o #x04))")
@settings(max_examples=1000, deadline=None)
@given(st.lists(match_terms(), min_size=1, max_size=3).map("\n".join))
def test_matcher_agrees_with_reference_matcher(text):
    terms = read_sexprs(text)
    while True:
        new, old = pbe_outcome(terms), reference_pbe_outcome(terms)
        if outcome_key(new) == outcome_key(old):
            return
        # The one allowed difference: an argument of the antecedent's call
        # that the reference never parsed, because it stopped at an earlier
        # argument it could not resolve, is malformed or of the wrong width.
        # Each such literal is mended in place and the two compared again,
        # until they agree.
        assert isinstance(new, SygusSyntaxError) and isinstance(old, NotPBE), (new, old)
        call, index = new.at
        chain = parent_chain(terms, call)
        term = chain[0]
        assert term[0] == "=>" and len(chain) >= 3 and chain[1] is term[1], new
        assert call[0] == "f" and index > 1 and repr(call[index]) in new.message, new
        call[index] = "#x00"
