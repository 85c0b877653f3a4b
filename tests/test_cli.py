import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from efgc.cli import (
    ParseError,
    ValidationError,
    emit_assignment,
    emit_instance,
    parse_assignment,
    parse_instance,
    run,
    select_solver,
)
from efgc.component_lp import solve_cycle, solve_tree_gc_bounded_degree, solve_tree_vdgc
from efgc.few_edges import solve_few_edges
from efgc.generators import solve_explicit_oracle
from efgc.model import Assignment, EdgePiece, Piece, Variant, build_instance

F = Fraction

P3_TEXT = """\
efgc-instance v1
variant gc
vertices v1 v2 v3
edge e1 v1 v2
edge e2 v2 v3
agent a1 e1=1 e2=0
agent a2 e1=0 e2=1
"""

STAR3_TEXT = """\
efgc-instance v1
variant gc
vertices c l1 l2 l3
edge e1 c l1
edge e2 c l2
edge e3 c l3
agent a1 e1=1 e2=1 e3=1
agent a2 e1=1 e2=1 e3=1
"""


SPIDER_TEXT = """\
efgc-instance v1
variant gc
vertices v1 v2 v3 v4 v5
edge e1 v1 v2
edge e2 v2 v3
edge e3 v3 v4
edge e4 v3 v5
agent a1 e1=1 e2=2 e3=1 e4=1
agent a2 e1=1 e2=2 e3=1 e4=1
agent a3 e1=2 e2=0 e3=1 e4=2
"""

CYCLE4_TEXT = """\
efgc-instance v1
variant vdgc
vertices v1 v2 v3 v4
edge e1 v1 v2
edge e2 v2 v3
edge e3 v3 v4
edge e4 v4 v1
agent a1 e1=1 e2=1 e3=1 e4=1
agent a2 e1=2 e2=1 e3=0 e4=1
agent a3 e1=2 e2=1 e3=0 e4=1
"""


def test_parse_instance_roundtrip():
    inst = parse_instance(P3_TEXT)
    assert len(inst.graph.vertices) == 3
    assert len(inst.graph.edges) == 2
    assert inst.agents == ("a1", "a2")
    assert inst.util("a1", "e1") == 1  # normalized
    again = parse_instance(emit_instance(inst))
    assert again == inst
    assert again.graph == inst.graph


def test_parse_instance_errors():
    with pytest.raises(ParseError):
        parse_instance(P3_TEXT.replace("edge e2 v2 v3", "edge e1 v2 v3"))
    with pytest.raises(ParseError):
        parse_instance(P3_TEXT.replace("agent a1 e1=1 e2=0", "agent a1 e1=1/0"))
    with pytest.raises(ParseError):
        parse_instance("not a header\n")
    disconnected = """\
efgc-instance v1
variant gc
vertices v1 v2 v3 v4
edge e1 v1 v2
edge e2 v3 v4
agent a1 e1=1 e2=1
"""
    with pytest.raises(ValidationError, match="connected"):
        parse_instance(disconnected)
    with pytest.raises(ValidationError):
        parse_instance(P3_TEXT.replace("agent a2 e1=0 e2=1", "agent a2 e1=0 e2=0"))


def test_all_zero_agent_is_a_validation_error_naming_it():
    text = P3_TEXT.replace("agent a2 e1=0 e2=1", "agent a2 e1=0/3")
    with pytest.raises(ValidationError, match="^agent a2 values every edge at zero$"):
        parse_instance(text)


def _token_text(token: str) -> str:
    return P3_TEXT.replace("agent a1 e1=1 e2=0", f"agent a1 e1={token} e2=1")


@pytest.mark.parametrize(
    "token, value", [("2/4", F(1, 2)), ("0.5", F(1, 2)), ("1e3", F(1000)), ("+2", F(2)), ("-0", F(0))]
)
def test_utility_tokens_fraction_reads_are_accepted(token, value):
    raw = build_instance(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3")],
        {"a1": {"e1": value, "e2": 1}, "a2": {"e2": 1}},
    )
    assert parse_instance(_token_text(token)) == raw


@pytest.mark.parametrize(
    "token, message",
    [
        ("1/0", "bad rational '1/0'"),
        ("3/-4", "bad rational '3/-4'"),
        ("nan", "bad rational 'nan'"),
        ("0x10", "bad rational '0x10'"),
        ("-1", "negative utility for e1"),
    ],
)
def test_utility_tokens_fraction_rejects_are_parse_errors(token, message):
    with pytest.raises(ParseError, match=f"^line 6: {message}$"):
        parse_instance(_token_text(token))


@pytest.mark.parametrize(
    "token",
    ["3", "2/4", "1_000", "\u0663", "\u00b2", "007", "00/5", "3/04", "1/0", "0/0", "3/-4",
     "+2", "-0", "0.5", "1e3", "nan", "0x10", "", "1/", "/2", "\u0661/\u0662", "-1/2"],
)
def test_utility_token_reads_as_fraction_does(token):
    # the int fast path takes ASCII digits only: '\u00b2'.isdigit() holds, int() rejects it
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ParseError, match=f"^line 6: {re.escape(f'bad rational {token!r}')}$"):
            parse_instance(_token_text(token))
        return
    if value < 0:
        with pytest.raises(ParseError, match="^line 6: negative utility for e1$"):
            parse_instance(_token_text(token))
        return
    raw = build_instance(
        ["v1", "v2", "v3"],
        [("e1", "v1", "v2"), ("e2", "v2", "v3")],
        {"a1": {"e1": value, "e2": 1}, "a2": {"e2": 1}},
    )
    assert parse_instance(_token_text(token)) == raw


def test_repeated_utility_term_is_rejected_in_either_order():
    # keeping the last term would make the verdict depend on their order
    for terms in ("e1=1 e1=0", "e1=0 e1=1"):
        text = f"efgc-instance v1\nvariant gc\nvertices v1 v2\nedge e1 v1 v2\nagent a1 {terms}\n"
        with pytest.raises(ParseError, match="line 5: duplicate utility for e1"):
            parse_instance(text)


def test_assignment_roundtrip():
    asg = Assignment(
        {
            "a1": Piece([EdgePiece("e1", 0, F(1, 2))]),
            "a2": Piece([EdgePiece("e1", F(1, 2), 1, False, True)]),
        }
    )
    text = emit_assignment(asg)
    assert "piece a1 e1 0 1/2 closed closed" in text
    assert parse_assignment(text) == asg


def test_assignment_zero_length_piece():
    asg = Assignment({"a": Piece([EdgePiece("e1", 1, 1)])})
    text = emit_assignment(asg)
    assert "piece a e1 1 1 closed closed" in text
    assert parse_assignment(text) == asg


def test_assignment_parse_errors():
    with pytest.raises(ParseError):
        parse_assignment("efgc-assignment v1\npiece a e1 1/0 1 closed closed\n")
    with pytest.raises(ParseError):
        parse_assignment("efgc-assignment v1\npiece a e1 0 1 closed\n")


def test_select_solver_auto():
    tree_vdgc = parse_instance(P3_TEXT.replace("variant gc", "variant vdgc"))
    assert select_solver(tree_vdgc, "auto") is solve_tree_vdgc
    tree_gc = parse_instance(P3_TEXT)
    assert select_solver(tree_gc, "auto") is solve_tree_gc_bounded_degree
    triangle = """\
efgc-instance v1
variant gc
vertices v1 v2 v3
edge e1 v1 v2
edge e2 v2 v3
edge e3 v3 v1
agent a1 e1=1 e2=1 e3=1
"""
    assert select_solver(parse_instance(triangle), "auto") is solve_cycle
    paw = """\
efgc-instance v1
variant gc
vertices v1 v2 v3 v4
edge e1 v1 v2
edge e2 v2 v3
edge e3 v3 v1
edge e4 v3 v4
agent a1 e1=1 e2=1 e3=1 e4=1
"""
    assert select_solver(parse_instance(paw), "auto") is solve_few_edges
    assert select_solver(tree_gc, "few-edges") is solve_few_edges
    assert select_solver(tree_gc, "oracle") is solve_explicit_oracle
    with pytest.raises(ValueError, match="unknown mode 'tree-gc'"):
        select_solver(tree_gc, "tree-gc")


def test_solve_star_exits_one_and_prints_no(tmp_path, capsys):
    target = tmp_path / "star.efgc"
    target.write_text(STAR3_TEXT)
    code = run(["solve", "--in", str(target)])
    assert code == 1
    assert capsys.readouterr().out == "No\n"


def test_gen_solve_verify_pipeline(tmp_path, capsys):
    inst_file = tmp_path / "gen.efgc"
    code = run(["gen", "star", "--values", "1,2,3", "--out", str(inst_file)])
    assert code == 0
    out_file = tmp_path / "witness.efgc"
    code = run(["solve", "--in", str(inst_file), "--out", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == "Yes\n"
    code = run(["verify", "--in", str(inst_file), "--assignment", str(out_file)])
    assert code == 0
    assert capsys.readouterr().out == "valid\n"


def test_verify_rejects_bad_assignment(tmp_path, capsys):
    inst_file = tmp_path / "p3.efgc"
    inst_file.write_text(P3_TEXT)
    bad = tmp_path / "bad.efgc"
    bad.write_text(
        "efgc-assignment v1\n"
        "piece a1 e1 0 1 closed closed\n"
        "piece a2 e2 0 1/2 closed closed\n"
    )
    code = run(["verify", "--in", str(inst_file), "--assignment", str(bad)])
    assert code == 1
    assert "invalid [tiling]" in capsys.readouterr().out


def test_verify_reports_piece_on_unknown_edge(tmp_path, capsys):
    inst_file = tmp_path / "p3.efgc"
    inst_file.write_text(P3_TEXT)
    bad = tmp_path / "bad.efgc"
    bad.write_text(
        "efgc-assignment v1\n"
        "piece a1 e1 0 1 closed closed\n"
        "piece a2 e2 0 1 closed closed\n"
        "piece a2 e9 0 1 closed closed\n"
    )
    code = run(["verify", "--in", str(inst_file), "--assignment", str(bad)])
    assert code == 1
    assert capsys.readouterr().out == "invalid [tiling]: piece of a2 lies on unknown edge e9\n"


def test_oracle_command(tmp_path, capsys):
    inst_file = tmp_path / "p3.efgc"
    inst_file.write_text(P3_TEXT)
    assert run(["solve", "--in", str(inst_file), "--mode", "oracle"]) == 0
    assert capsys.readouterr().out.startswith("Yes\n")


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run(["solve"]) == 2
    assert run(["solve", "--in", str(tmp_path / "missing.efgc")]) == 2
    assert run(["gen", "star", "--values", "1,2", "--variant", "vdgc"]) == 2
    bad_gen = run(["gen", "matching2", "--values", "0,1"])
    assert bad_gen == 2
    capsys.readouterr()


SELF_CHECK_SCRIPT = """\
import sys

import efgc.component_lp
import efgc.few_edges
import efgc.generators
from efgc.cli import parse_instance, run, select_solver
from efgc.model import Failure, InternalError, VerificationReport

if __debug__:
    sys.exit("expected to run under python -O")
path = sys.argv[1]
with open(path, encoding="utf-8") as handle:
    instance = parse_instance(handle.read())


def invalid(instance, assignment):
    return VerificationReport((Failure("envy", "planted failure"),))


for module, mode in (
    (efgc.few_edges, "few-edges"),
    (efgc.component_lp, "auto"),
    (efgc.generators, "oracle"),
):
    original = module.verify_assignment
    module.verify_assignment = invalid
    try:
        select_solver(instance, mode)(instance)
    except InternalError:
        pass
    else:
        sys.exit(f"{module.__name__}: invalid witness returned")
    code = run(["solve", "--in", path, "--mode", mode])
    if code != 2:
        sys.exit(f"{module.__name__}: exit code {code}, expected 2")
    module.verify_assignment = original
print("self-checks held")
"""


def _child_env(**extra) -> dict:
    """The environment of a child interpreter that imports efgc from this
    working tree, ahead of anything already on PYTHONPATH."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_self_checks_survive_optimize(tmp_path):
    # a solver whose own witness fails verification must raise
    # InternalError (exit code 2), also when asserts are compiled away
    inst_file = tmp_path / "p3.efgc"
    inst_file.write_text(P3_TEXT)
    result = subprocess.run(
        [sys.executable, "-O", "-c", SELF_CHECK_SCRIPT, str(inst_file)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "self-checks held\n"
    assert result.stderr.count("error: witness failed verification") == 3


def test_gen_pipes_into_solve(tmp_path):
    gen = subprocess.run(
        [sys.executable, "-m", "efgc", "gen", "star", "--values", "1,2,3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert gen.returncode == 0
    solve = subprocess.run(
        [sys.executable, "-m", "efgc", "solve", "--in", "-"],
        input=gen.stdout,
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert solve.returncode == 0
    assert solve.stdout.startswith("Yes\n")


def test_fresh_process_roundtrip(tmp_path):
    inst_file = tmp_path / "p3.efgc"
    inst_file.write_text(P3_TEXT)
    out_file = tmp_path / "w.efgc"
    solve = subprocess.run(
        [sys.executable, "-m", "efgc", "solve", "--in", str(inst_file), "--out", str(out_file)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert solve.returncode == 0
    assert solve.stdout == "Yes\n"
    verify = subprocess.run(
        [
            sys.executable,
            "-m",
            "efgc",
            "verify",
            "--in",
            str(inst_file),
            "--assignment",
            str(out_file),
        ],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert verify.returncode == 0
    assert verify.stdout == "valid\n"


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the cut sets are tried in first-seen order, never in set order
    for name, text in (("spider", SPIDER_TEXT), ("cycle4", CYCLE4_TEXT)):
        inst_file = tmp_path / f"{name}.efgc"
        inst_file.write_text(text)
        outputs = []
        for hash_seed in ("0", "1"):
            solve = subprocess.run(
                [sys.executable, "-m", "efgc", "solve", "--in", str(inst_file)],
                env=_child_env(PYTHONHASHSEED=hash_seed),
                capture_output=True,
            )
            assert solve.returncode == 0, solve.stderr
            outputs.append(solve.stdout)
        assert outputs[0] == outputs[1], name
        assert outputs[0].startswith(b"Yes\nefgc-assignment v1\n")


@pytest.mark.parametrize(
    "argv, code, usage",
    [
        ([], 2, "usage: efgc "),
        (["bogus"], 2, "usage: efgc "),
        (["--help"], 0, "usage: efgc "),
        (["solve", "--help"], 0, "usage: efgc solve "),
        (["solve", "--bogus"], 2, "usage: efgc solve "),
        (["cells"], 2, "usage: efgc "),
        (["oracle", "--in", "-"], 2, "usage: efgc "),
        (["solve", "--in", "-", "--mode", "tree-gc"], 2, "usage: efgc solve "),
    ],
)
def test_dispatch_exit_codes_and_streams(argv, code, usage, capsys):
    # help goes to stdout with exit code 0, a usage error to stderr with 2
    assert run(argv) == code
    captured = capsys.readouterr()
    shown, silent = (captured.out, captured.err) if code == 0 else (captured.err, captured.out)
    assert shown.startswith(usage)
    assert silent == ""


def test_help_names_every_command(capsys):
    assert run(["--help"]) == 0
    text = capsys.readouterr().out
    listed = re.search(r"\{([a-z,]+)\}", text).group(1).split(",")
    assert listed == ["solve", "verify", "gen"]
    # the README's "Command line" block shows the same commands
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    shown = {line.split()[1] for line in block.splitlines() if line.startswith("efgc ")}
    assert shown == set(listed)
