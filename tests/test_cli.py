"""Exit codes, output contracts, and the bench table/CSV."""

from __future__ import annotations

import contextlib
import csv
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bvsynth import cli
from bvsynth.cli import _limits, build_parser, main
from bvsynth.corpus import CorpusSpec, generate_corpus
from bvsynth.enumeration import SearchLimits
from bvsynth.errors import MissingIf0Rule
from bvsynth.frontend import parse_problem
from bvsynth.semantics import eval_expr

from helpers import env_of
from solution_reader import parse_solution

IDENTITY = """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x #x0000000000000000 #x0000000000000001
    (bvnot Start) (bvand Start Start) (bvadd Start Start) (if0 Start Start Start)))))
(constraint (= (f #x0000000000000001) #x0000000000000001))
(constraint (= (f #x0000000000000009) #x0000000000000009))
(constraint (= (f #x000000000000002a) #x000000000000002a))
(constraint (= (f #x0000000000000007) #x0000000000000007))
(check-synth)
"""

NOT_PBE = """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x (if0 Start Start Start)))))
(declare-var v (BitVec 64))
(constraint (bvult (f v) v))
(check-synth)
"""

HARD = """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x #x0000000000000000 #x0000000000000001
    (bvnot Start) (bvand Start Start) (bvadd Start Start) (if0 Start Start Start)))))
(constraint (= (f #x0000000000001234) #x00000000deadbeef))
(check-synth)
"""

# Unrelated outputs over a wide grammar: the store grows without a hit for
# far longer than the 0.05 s timeouts below.
SLOW = """(set-logic BV)
(synth-fun f ((x (BitVec 64))) (BitVec 64)
  ((Start (BitVec 64) (x #x0000000000000000 #x0000000000000001 (bvnot Start) (shl1 Start)
    (shr1 Start) (shr4 Start) (shr16 Start) (bvand Start Start) (bvor Start Start)
    (bvxor Start Start) (bvadd Start Start) (if0 Start Start Start)))))
""" + "".join(
    f"(constraint (= (f #x{i:016x}) #x{(i * 0x9E3779B97F4A7C15 + 7) % 2**64:016x}))\n"
    for i in (3, 5, 11, 0x1234, 0xBEEF, 0xDEADBEEF, 0x0F0F0F0F, 0x123456789A)
) + "(check-synth)\n"


def test_solve_identity_prints_define_fun(tmp_path, capsys):
    path = tmp_path / "identity.sl"
    path.write_text(IDENTITY, encoding="utf-8")
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == "(define-fun f ((x (BitVec 64))) (BitVec 64) x)\n"


def test_solve_stats_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "identity.sl"
    path.write_text(IDENTITY, encoding="utf-8")
    assert main(["solve", str(path), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "(define-fun f ((x (BitVec 64))) (BitVec 64) x)\n"
    assert "candidates:" in captured.err


def test_solve_not_pbe_exits_2(tmp_path, capsys):
    path = tmp_path / "notpbe.sl"
    path.write_text(NOT_PBE, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a PBE task" in captured.err


def test_solve_missing_file_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.sl")]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_invalid_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "utf16.sl"
    path.write_bytes(b"\xff\xfe" + IDENTITY.encode("utf-16-le"))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


# Bytes of the problem syntax, a byte that is never UTF-8, and a BOM, so that
# random input also reaches the reader and the command checks.
SYNTAX_BYTES = st.sampled_from(
    [b"(", b")", b" ", b"\n", b"\r", b";", b"#x01", b"#b1", b"\xff", b"\xef\xbb\xbf"]
    + [w.encode() for w in ("set-logic", "synth-fun", "constraint", "BitVec", "f", "x", "=")]
)


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.binary(max_size=300) | st.lists(SYNTAX_BYTES, max_size=40).map(b"".join))
def test_solve_on_arbitrary_bytes_exits_with_one_line(tmp_path, data):
    path = tmp_path / "bytes.sl"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["solve", str(path)])
    assert code in (0, 1, 2)
    if code == 0:
        assert err.getvalue() == "" and out.getvalue().count("\n") == 1
    else:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1


def test_solve_budget_exhausted_exits_1(tmp_path, capsys):
    path = tmp_path / "hard.sl"
    path.write_text(HARD, encoding="utf-8")
    assert main(["solve", str(path), "--max-size", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unsolved" in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-size", "-1"),
        ("--max-candidates", "-5"),
        ("--timeout", "-1"),
        ("--timeout", "0"),
        ("--timeout", "nan"),
        ("--timeout", "inf"),
        ("--timeout", "-inf"),
    ],
)
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_invalid_budget_flags_exit_2_at_the_parser(tmp_path, capsys, command, flag, value):
    path = tmp_path / "identity.sl"
    path.write_text(IDENTITY, encoding="utf-8")
    target = str(path) if command == "solve" else str(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main([command, target, f"{flag}={value}"])  # "=" keeps "-inf" from reading as a flag
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: invalid budget value: '{value}'" in captured.err


@pytest.mark.parametrize(
    "flags", [["--max-size", "0"], ["--max-candidates", "0"], ["--timeout", "1e-9"]]
)
def test_boundary_budget_flags_are_accepted(tmp_path, capsys, flags):
    path = tmp_path / "hard.sl"
    path.write_text(HARD, encoding="utf-8")
    assert main(["solve", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unsolved" in captured.err


def test_solve_crlf_file(tmp_path, capsys):
    path = tmp_path / "crlf.sl"
    path.write_bytes(IDENTITY.replace("\n", "\r\n").encode())
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("(define-fun f ")


def test_solve_file_with_bom(tmp_path, capsys):
    path = tmp_path / "bom.sl"
    path.write_bytes(b"\xef\xbb\xbf" + IDENTITY.replace("\n", "\r\n").encode())
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("(define-fun f ")


def test_gen_writes_count_files(tmp_path, capsys):
    out = tmp_path / "corpus"
    code = main(
        [
            "gen", "--count", "4", "--seed", "3", "--size-min", "2", "--size-max", "4",
            "--examples", "5", "--width", "64", "--out", str(out),
        ]
    )
    assert code == 0
    assert len(list(out.glob("*.sl"))) == 4
    assert "wrote 4 instances" in capsys.readouterr().out


def test_gen_invalid_spec_exits_2(tmp_path, capsys):
    code = main(
        [
            "gen", "--count", "1", "--seed", "3", "--size-min", "5", "--size-max", "4",
            "--examples", "5", "--width", "64", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["0", "65"])
def test_gen_out_of_range_width_exits_2_and_names_it(tmp_path, capsys, width):
    code = main(
        [
            "gen", "--count", "1", "--seed", "3", "--size-min", "2", "--size-max", "4",
            "--examples", "5", "--width", width, "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: width must be within [1, 64]: {width}\n"
    assert not (tmp_path / "x").exists()


def test_only_bench_has_a_default_timeout():
    parser = build_parser()
    assert parser.parse_args(["solve", "problem.sl"]).timeout is None
    assert parser.parse_args(["bench", "corpus"]).timeout == 60.0
    assert parser.parse_args(["bench", "corpus", "--timeout", "2.5"]).timeout == 2.5
    # Every other default is the library's own.
    assert _limits(parser.parse_args(["solve", "problem.sl"])) == SearchLimits()
    assert _limits(parser.parse_args(["bench", "corpus"])) == SearchLimits(timeout=60.0)


def test_bench_timeout_makes_a_budget_row_and_the_run_goes_on(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a_slow.sl").write_text(SLOW, encoding="utf-8")
    (corpus / "b_identity.sl").write_text(IDENTITY, encoding="utf-8")
    # the first file runs until the timeout stops it
    assert main(["solve", str(corpus / "a_slow.sl"), "--timeout", "0.05"]) == 1
    assert "wall clock expired" in capsys.readouterr().err
    csv_path = tmp_path / "results.csv"
    assert main(["bench", str(corpus), "--timeout", "0.05", "--csv", str(csv_path)]) == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["file"], r["status"]) for r in rows] == [
        ("a_slow.sl", "budget"),
        ("b_identity.sl", "solved"),
    ]


def test_a_solve_that_raises_a_format_error_is_an_error_line(tmp_path, capsys, monkeypatch):
    # No parsed Problem makes a solve raise anything but a SynthesisFailure, but
    # if one did (a broken invariant), it would end in one line, not a traceback:
    # ``solve`` exits 1 and ``bench`` makes an error row and goes on.
    solve_problem, calls = cli.solve_problem, []

    def fails_first(problem, limits=None):
        calls.append(problem)
        if len(calls) == 1:
            raise MissingIf0Rule("a broken invariant")
        return solve_problem(problem, limits)

    monkeypatch.setattr(cli, "solve_problem", fails_first)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name in ("a.sl", "b.sl"):
        (corpus / name).write_text(IDENTITY, encoding="utf-8")
    assert main(["solve", str(corpus / "a.sl")]) == 1
    assert capsys.readouterr() == ("", "error: a broken invariant\n")
    calls.clear()
    csv_path = tmp_path / "results.csv"
    assert main(["bench", str(corpus), "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().err == "a.sl: a broken invariant\n"
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["file"], r["status"]) for r in rows] == [("a.sl", "error"), ("b.sl", "solved")]
    assert len(calls) == 2


def test_bench_empty_directory(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", str(empty)]) == 0
    out = capsys.readouterr().out
    assert "solved 0/0" in out


def test_bench_missing_directory(tmp_path, capsys):
    assert main(["bench", str(tmp_path / "gone")]) == 2


def test_bench_directory_with_mixed_outcomes(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    generate_corpus(CorpusSpec(count=3, size_min=2, size_max=4, examples=5, width=64, seed=9), corpus)
    (corpus / "hard.sl").write_text(HARD, encoding="utf-8")
    (corpus / "broken.sl").write_text("(set-logic", encoding="utf-8")
    (corpus / "utf16.sl").write_bytes(b"\xff\xfe" + HARD.encode("utf-16-le"))
    csv_path = tmp_path / "results.csv"
    sols = tmp_path / "solutions"
    code = main(
        [
            "bench", str(corpus), "--max-size", "4", "--max-candidates", "100000",
            "--csv", str(csv_path), "--solutions", str(sols),
        ]
    )
    assert code == 0
    with open(csv_path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["file"] for r in rows] == sorted(r["file"] for r in rows)
    by_name = {r["file"]: r for r in rows}
    assert by_name["hard.sl"]["status"] == "budget"
    assert by_name["broken.sl"]["status"] == "error"
    assert by_name["utf16.sl"]["status"] == "error"
    solved = [r for r in rows if r["status"] == "solved"]
    assert len(solved) == 3  # the generated instances are unaffected
    assert list(rows[0].keys()) == [
        "file", "status", "millis", "solution_size", "internal_nodes", "candidates",
    ]
    # every solved instance produced a verifiable solution file
    for row in solved:
        sol_path = sols / (row["file"].removesuffix(".sl") + ".sol")
        parsed = parse_solution(sol_path.read_text(encoding="utf-8"))
        problem = parse_problem((corpus / row["file"]).read_text(encoding="utf-8"))
        for ex in problem.examples:
            env = env_of(parsed.params, problem.width, ex.inputs)
            assert eval_expr(parsed.body, env, problem.width).bits == ex.output


def test_bench_unwritable_solution_file_is_an_error_row(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    spec = CorpusSpec(count=3, size_min=2, size_max=3, examples=4, width=64, seed=9)
    generate_corpus(spec, corpus)
    sols = tmp_path / "sols"
    (sols / "instance_0000.sol").mkdir(parents=True)  # this solution cannot be written
    csv_path = tmp_path / "results.csv"
    argv = ["bench", str(corpus), "--solutions", str(sols), "--csv", str(csv_path)]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err.startswith("instance_0000.sl: ") and err.count("\n") == 1
    assert "solved 2/3" in out
    with open(csv_path, newline="") as handle:
        status = {r["file"]: r["status"] for r in csv.DictReader(handle)}
    assert status == {"instance_0000.sl": "error", "instance_0001.sl": "solved",
                      "instance_0002.sl": "solved"}
    assert sorted(p.name for p in sols.iterdir() if p.is_file()) == [
        "instance_0001.sol", "instance_0002.sol",
    ]


GEN_ONE = [
    "gen", "--count", "1", "--seed", "3", "--size-min", "2", "--size-max", "3",
    "--examples", "3", "--width", "8",
]


@pytest.mark.parametrize(
    "argv",
    [
        lambda corpus, taken: ["bench", str(corpus), "--solutions", str(taken)],
        lambda corpus, taken: ["bench", str(corpus), "--csv", str(corpus)],
        lambda corpus, taken: GEN_ONE + ["--out", str(taken)],
    ],
    ids=["bench-solutions-is-a-file", "bench-csv-is-a-directory", "gen-out-is-a-file"],
)
def test_unwritable_output_path_exits_2_with_one_line(tmp_path, capsys, argv):
    corpus = tmp_path / "corpus"
    assert main(GEN_ONE + ["--out", str(corpus)]) == 0
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert main(argv(corpus, taken)) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""  # nothing is solved before the failure


def test_console_entry_via_python_m(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bvsynth

    path = tmp_path / "identity.sl"
    path.write_text(IDENTITY, encoding="utf-8")
    # the child imports the package from where this process found it
    src = str(Path(bvsynth.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-m", "bvsynth", "solve", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(define-fun f ((x (BitVec 64))) (BitVec 64) x)\n"


def test_import_loads_no_dataclass_or_bench_machinery():
    """``import bvsynth`` and its CLI load neither ``dataclasses`` (nor the
    ``inspect`` it pulls in) nor the ``statistics`` and ``csv`` that only
    ``bench`` uses: each costs milliseconds of every run's start-up."""
    import subprocess
    import sys
    from pathlib import Path

    import bvsynth

    src = str(Path(bvsynth.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import bvsynth, bvsynth.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'statistics', 'csv'} & set(sys.modules)))"
    )
    # -S: no site-packages, whose start-up hooks may import any module
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
