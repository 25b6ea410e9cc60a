"""The command line driver: statuses, exit codes, output formats."""

import hashlib
import json
import random

import pytest

from refkit.cli import RunConfig, UsageError, execute, main
from refkit.state import Bot, Subgoals

BREADTH = "id; all(num_eval | plus_eval | add)*"
DEPTH = "(num_eval | plus_eval | add)*"
TWO_PLUS_THREE = "eval num 2 + num 3"


def test_execute_complete():
    out = execute(RunConfig("arith", TWO_PLUS_THREE, BREADTH))
    assert out.status == "complete"
    assert out.exit_code == 0
    assert out.steps == 4
    assert isinstance(out.state, Subgoals)


def test_execute_incomplete():
    out = execute(RunConfig("arith", TWO_PLUS_THREE, DEPTH))
    assert out.status == "incomplete"
    assert out.exit_code == 1


def test_execute_failed():
    out = execute(RunConfig("arith", "add 2 3", "num_eval"))
    assert out.status == "failed"
    assert out.exit_code == 2


def test_execute_unsuccess():
    out = execute(
        RunConfig("dep", "true sig(x. eq(x, tt), top)", "sig_i; [id, eq_refl]")
    )
    assert out.status == "unsuccess"
    assert out.exit_code == 3
    assert isinstance(out.state, Bot)


def test_execute_out_of_fuel():
    out = execute(RunConfig("arith", TWO_PLUS_THREE, BREADTH, fuel=2))
    assert out.status == "out_of_fuel"
    assert out.exit_code == 4
    assert out.steps == 2
    assert out.state is None


def test_execute_rejects_unknown_logic_and_rule():
    with pytest.raises(UsageError):
        execute(RunConfig("modal", "eval num 1", "id"))
    with pytest.raises(UsageError):
        execute(RunConfig("arith", "eval num 1", "frobnicate"))


def test_main_pretty_output_for_a_complete_run(capsys):
    code = main(
        ["--logic", "arith", "--goal", TWO_PLUS_THREE, "--script", BREADTH]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == "status: complete\nsteps_used: 4\nextract: [1, 5]\n"


def test_main_pretty_output_for_a_residual_state(capsys):
    code = main(
        ["--logic", "arith", "--goal", TWO_PLUS_THREE, "--script", DEPTH]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert out == (
        "status: incomplete\n"
        "steps_used: 3\n"
        "residual:\n"
        "n : add 0 0.\n"
        "n'1 : add 1 n.\n"
        "n'2 : add 2 3.\n"
        "▹ [n'1, n'2]\n"
    )


def test_main_single_extract_prints_bare(capsys):
    code = main(
        ["--logic", "dep", "--goal", "true top", "--script", "top_i"]
    )
    assert code == 0
    assert capsys.readouterr().out == (
        "status: complete\nsteps_used: 0\nextract: tt\n"
    )


def test_main_json_output(capsys):
    code = main(
        [
            "--logic", "dep",
            "--goal", "true sig(x. eq(x, tt), top)",
            "--script", "sig_i; [top_i, eq_refl]",
            "--json",
        ]
    )
    assert code == 0
    raw = capsys.readouterr().out
    assert raw == (
        '{"status": "complete", "steps_used": 0, '
        '"residual_goals": [], "extract": ["pair(tt, refl)"]}\n'
    )
    parsed = json.loads(raw)
    assert list(parsed) == ["status", "steps_used", "residual_goals", "extract"]


def test_main_json_residual_lists_goals(capsys):
    code = main(
        ["--logic", "arith", "--goal", TWO_PLUS_THREE, "--script", DEPTH, "--json"]
    )
    assert code == 1
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["status"] == "incomplete"
    assert parsed["residual_goals"] == ["add 0 0", "add 1 n", "add 2 3"]
    assert parsed["extract"] is None


def test_main_trace_goes_to_stderr(capsys):
    code = main(
        [
            "--logic", "arith", "--goal", TWO_PLUS_THREE,
            "--script", BREADTH, "--trace",
        ]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert "[1] eval num 2 + num 3 => state (5 goals)" in err
    assert "=> state (complete)" in err


def test_main_script_file(tmp_path, capsys):
    path = tmp_path / "auto.tac"
    path.write_text(BREADTH + "\n")
    code = main(
        ["--logic", "arith", "--goal", TWO_PLUS_THREE, "--script-file", str(path)]
    )
    assert code == 0
    assert "complete" in capsys.readouterr().out


# a numeral as long as Python prints (sys.get_int_max_str_digits)
NINES = "9" * 4300


def test_main_usage_errors_exit_five(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.tac"
    not_utf8.write_bytes(b"\xff\xfe bad")
    cases = [
        ["--logic", "arith", "--goal", "eval num 1"],
        ["--logic", "arith", "--goal", "eval num 1", "--script", "id",
         "--script-file", "nope.tac"],
        ["--logic", "arith", "--goal", "eval bogus", "--script", "id"],
        ["--logic", "arith", "--goal", "eval num 1", "--script", "id;"],
        ["--logic", "arith", "--goal", "eval num 1", "--script-file",
         "no/such/file.tac"],
        ["--logic", "nope", "--goal", "eval num 1", "--script", "id"],
        ["--logic", "arith", "--goal", "eval num 4", "--script", "num_eval",
         "--fuel", "-5"],
        ["--logic", "arith", "--goal", "eval num 1", "--script",
         "(" * 300 + "num_eval" + ")" * 300],
        ["--logic", "arith", "--goal", "eval num 1", "--script-file",
         str(not_utf8)],
        # sums that Python could not print
        ["--logic", "arith", "--goal", f"add {NINES} {NINES}", "--script",
         BREADTH],
        ["--logic", "arith", "--goal", f"eval num {NINES} + num 1",
         "--script", BREADTH],
        ["--logic", "arith", "--goal", f"eval num 1{NINES}", "--script",
         BREADTH],
    ]
    for argv in cases:
        assert main(argv) == 5, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err.lower()
        assert "internal" not in captured.err, argv


def test_the_longest_printable_numeral_still_runs(capsys):
    argv = ["--logic", "arith", "--goal", f"add {NINES} 0", "--script", BREADTH]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        f"status: complete\nsteps_used: 1\nextract: {NINES}\n"
    )


def test_too_deep_nesting_is_a_usage_error(capsys):
    deep_goal = "eval " + "(" * 1000 + "num 1" + ")" * 1000
    deep_script = "(" * 300 + "num_eval" + ")" * 300
    for goal, script in [(deep_goal, "num_eval"), ("eval num 1", deep_script)]:
        code = main(["--logic", "arith", "--goal", goal, "--script", script])
        assert code == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "nesting too deep" in captured.err


def test_a_residual_past_the_recursion_limit_prints(capsys):
    # the first residual goal is a left comb 1199 `+` nodes deep
    leaves = ["num 1"] * 1201
    goal = "eval " + " + ".join(leaves)
    assert main(["--logic", "arith", "--goal", goal, "--script", "plus_eval"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert lines[3] == "[xc, xv] : eval " + " + ".join(leaves[:-1]) + "."


def run_dep_chain(levels, capsys):
    """The JSON report of dep's auto script on a chain of sig levels."""
    from refkit.logics import dep

    prop = "top"
    for _ in range(levels):
        prop = f"sig(x. eq(x, x), {prop})"
    argv = ["--logic", "dep", "--goal", "true " + prop, "--script",
            dep.AUTO_SCRIPT, "--json"]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_a_400_level_dep_chain_completes(capsys):
    # comparing two unequal props this deep used to raise RecursionError
    report = run_dep_chain(400, capsys)
    assert report["status"] == "complete"
    assert report["steps_used"] == 401


def test_a_600_level_dep_chain_completes(capsys):
    # substituting into the evidence of a chain this deep, and printing
    # it, used to raise RecursionError
    report = run_dep_chain(600, capsys)
    assert report["status"] == "complete"
    assert report["steps_used"] == 601


def test_internal_errors_exit_six_with_one_line(monkeypatch, capsys):
    from refkit.logics import arith
    from refkit.rule import Rule

    def broken(ctx, goal):
        raise RuntimeError("rule exploded")

    monkeypatch.setattr(arith, "RULES", {"num_eval": Rule("num_eval", broken)})
    code = main(["--logic", "arith", "--goal", "eval num 1", "--script", "num_eval"])
    assert code == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: RuntimeError: rule exploded\n"


def test_module_entry_point_matches_main():
    import subprocess
    import sys

    proc = subprocess.run(
        [
            sys.executable, "-m", "refkit.cli",
            "--logic", "arith", "--goal", "eval num 4", "--script", "num_eval",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "status: complete\nsteps_used: 0\nextract: [0, 4]\n"


# ------------------------------------------------- the byte-exact contract
# One sha256 over the exit code, stdout and stderr of every run below,
# pinned from a run of the code before an `m*` round's stop test became
# `state_alpha_eq` alone: any change to the printed output of these runs
# shows here.

CONTRACT_DIGEST = (
    "75eeba3f46c3b252cea461e4b7cbe1da7a3dc6e7891f4dc82c06ba05efbef8a5"
)


def contract_runs():
    """Seeded closed goals of both logics, each under its auto script and
    under scripts that leave goals open, in the three output modes; each
    logic has an `m*` script whose last round stops with goals left."""
    from refkit.logics import arith, dep

    from strategies import rand_closed_expr, rand_dep_closed_prop

    for seed in range(24):
        rng = random.Random(seed)
        goals = [
            ("arith", "eval " + arith.render_expr(rand_closed_expr(rng, 4)),
             (arith.AUTO_SCRIPT, "plus_eval", "id; all(plus_eval)*")),
            ("dep", "true " + dep.render_prop(rand_dep_closed_prop(rng, 4)),
             (dep.AUTO_SCRIPT, "id; all(sig_i | or_i1)*")),
        ]
        for logic, goal, scripts in goals:
            for script in scripts:
                for mode in ((), ("--json",), ("--trace",)):
                    yield ["--logic", logic, "--goal", goal, "--script", script, *mode]


def test_cli_output_matches_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    codes = set()
    for argv in contract_runs():
        code = main(argv)
        captured = capsys.readouterr()
        codes.add(code)
        for part in (str(code), captured.out, captured.err):
            digest.update(part.encode() + b"\0")
    # complete, residual and failed runs are all among them
    assert {0, 1, 2} <= codes
    assert digest.hexdigest() == CONTRACT_DIGEST
