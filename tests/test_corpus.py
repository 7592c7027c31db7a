"""Corpus generation: determinism, well-formedness, and solvability."""

from __future__ import annotations

import random

import pytest

from bvsynth.corpus import (
    CorpusSpec,
    derivable_size_table,
    generate_corpus,
    sample_expr,
    template_grammar,
)
from bvsynth.frontend import parse_problem
from bvsynth.semantics import eval_expr
from bvsynth.solver import solve_problem

from helpers import env_of, grammar_of


def read(path):
    return path.read_bytes()


def test_same_spec_same_bytes(tmp_path):
    spec = CorpusSpec(count=3, size_min=3, size_max=7, examples=8, width=64, seed=7)
    first = generate_corpus(spec, tmp_path / "a")
    second = generate_corpus(spec, tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert read(a) == read(b)


def test_generated_files_reparse_with_expected_example_count(tmp_path):
    spec = CorpusSpec(count=4, size_min=2, size_max=5, examples=6, width=64, seed=11)
    for path in generate_corpus(spec, tmp_path):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        assert len(problem.examples) == 6
        assert problem.width == 64
        inputs = [e.inputs[0] for e in problem.examples]
        assert len(set(inputs)) == len(inputs)


def test_sample_expr_has_exact_size():
    rng = random.Random(3)
    grammar = template_grammar("icfp", 64)
    for size in range(1, 10):
        for _ in range(20):
            assert sample_expr(grammar, rng, size).size == size


@pytest.mark.parametrize(
    "grammar, size",
    [
        (template_grammar("icfp", 64), 0),
        (grammar_of(["bvand"], with_if0=False), 2),  # binary rules over leaves: odd sizes only
        (grammar_of(["bvand", "bvadd"], with_if0=False), 6),
    ],
)
def test_sample_expr_rejects_an_underivable_size(grammar, size):
    with pytest.raises(ValueError) as info:
        sample_expr(grammar, random.Random(3), size)
    assert str(info.value) == f"grammar derives nothing of size {size}"


def test_derivable_size_table_icfp():
    table = derivable_size_table(template_grammar("icfp", 64), 9)
    assert all(table["Start"][s] for s in range(1, 10))


def test_core_template_and_width8(tmp_path):
    spec = CorpusSpec(count=3, size_min=2, size_max=5, examples=4, width=8, seed=5, grammar="core")
    for path in generate_corpus(spec, tmp_path):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        result = solve_problem(problem)
        for ex in problem.examples:
            env = env_of(problem.params, problem.width, ex.inputs)
            assert eval_expr(result.solution, env, problem.width).bits == ex.output


def test_width_not_divisible_by_four_uses_binary_literals(tmp_path):
    spec = CorpusSpec(count=2, size_min=2, size_max=4, examples=3, width=7, seed=13)
    for path in generate_corpus(spec, tmp_path):
        text = path.read_text(encoding="utf-8")
        assert "#b" in text and "#x" not in text.split("\n", 2)[2]
        problem = parse_problem(text)
        assert problem.width == 7
        result = solve_problem(problem)
        for ex in problem.examples:
            env = env_of(problem.params, problem.width, ex.inputs)
            assert eval_expr(result.solution, env, problem.width).bits == ex.output


def test_generated_instances_solve_and_verify(tmp_path):
    spec = CorpusSpec(count=10, size_min=3, size_max=7, examples=8, width=64, seed=23)
    for path in generate_corpus(spec, tmp_path):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        result = solve_problem(problem)
        for ex in problem.examples:
            env = env_of(problem.params, problem.width, ex.inputs)
            assert eval_expr(result.solution, env, problem.width).bits == ex.output


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(count=-1, size_min=1, size_max=2, examples=1, width=8, seed=0),
        dict(count=1, size_min=0, size_max=2, examples=1, width=8, seed=0),
        dict(count=1, size_min=3, size_max=2, examples=1, width=8, seed=0),
        dict(count=1, size_min=1, size_max=2, examples=0, width=8, seed=0),
        dict(count=1, size_min=1, size_max=2, examples=1, width=99, seed=0),
        dict(count=1, size_min=1, size_max=2, examples=9, width=2, seed=0),
    ],
)
def test_invalid_specs_rejected(kwargs, tmp_path):
    with pytest.raises(ValueError):
        generate_corpus(CorpusSpec(**kwargs), tmp_path)


def test_unknown_template_rejected():
    with pytest.raises(ValueError):
        template_grammar("nosuch", 64)
