"""The command line driver: statuses, exit codes, output formats."""

import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit import cli, tactic
from refkit.cli import (
    LOGICS,
    RunConfig,
    RunOutcome,
    UsageError,
    _trace_tag,
    execute,
    main,
    render_json,
    render_pretty,
)
from refkit.logics import arith, dep
from refkit.script import (
    AllM,
    EachM,
    IdTac,
    MStar,
    OrElse,
    RuleName,
    SeqTac,
    Star,
    print_script,
)
from refkit.rule import Rule
from refkit.state import Bot, Subgoals, tele_goals
from refkit.tactic import set_trace_hook

from reference import ref_execute, ref_open, ref_prove_oracle, ref_state_alpha_eq
from strategies import rand_closed_expr, rand_dep_closed_prop, rand_script_tactic
from test_tactic import counted_rules, wide_each

BREADTH = "id; all(num_eval | plus_eval | add)*"
DEPTH = "(num_eval | plus_eval | add)*"
TWO_PLUS_THREE = "eval num 2 + num 3"
RUN_FUEL = 100


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


def test_execute_restores_the_callers_trace_hook(capsys):
    fired = []

    def hook(goal, kind, goals):
        fired.append(goal)

    set_trace_hook(hook)
    try:
        for trace in (False, True):
            config = RunConfig("arith", "eval num 1 + num 2", arith.AUTO_NAIVE_SCRIPT,
                               trace=trace)
            execute(config)
            assert set_trace_hook(hook) is hook
    finally:
        set_trace_hook(None)
    # the run showed its own hook or none, never the caller's
    assert fired == []
    assert capsys.readouterr().err.startswith("[1] ")


def recorded_rules(monkeypatch, module):
    """The (rule name, rendered goal) of every rule call made from now
    on under module's logic, in order."""
    calls = []

    def recorded(rule):
        def run(ctx, goal):
            calls.append((rule.name, module.STRUCTURE.render(goal)))
            return rule.run(ctx, goal)

        return Rule(rule.name, run)

    table = {name: recorded(rule) for name, rule in module.RULES.items()}
    monkeypatch.setattr(module, "RULES", table)
    return calls


@pytest.mark.parametrize(
    "logic, script",
    [
        ("arith", arith.AUTO_SCRIPT),
        ("arith", arith.AUTO_NAIVE_SCRIPT),
        ("dep", dep.AUTO_SCRIPT),
        ("dep", "(top_i | or_i1 | eq_refl | sig_i)*"),
    ],
    ids=["arith rounds", "arith star", "dep rounds", "dep star"],
)
def test_watching_a_run_does_not_change_its_rule_calls(monkeypatch, capsys, logic, script):
    module = LOGICS[logic]
    calls = recorded_rules(monkeypatch, module)
    for seed in range(12):
        rng = random.Random(seed)
        if logic == "arith":
            goal = "eval " + arith.render_expr(rand_closed_expr(rng, 5))
        else:
            goal = "true " + dep.render_prop(rand_dep_closed_prop(rng, 4))
        runs = []
        for trace in (False, True):
            calls.clear()
            out = execute(RunConfig(logic, goal, script, trace=trace))
            runs.append((out, list(calls)))
        (plain, plain_calls), (traced, traced_calls) = runs
        assert traced == plain
        assert traced_calls == plain_calls
    assert "=> " in capsys.readouterr().err


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


def test_main_builds_its_parser_once_and_answers_alike_each_call(monkeypatch, capsys):
    built, build = [0], cli.build_parser

    def counted():
        built[0] += 1
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        runs = []
        for argv in (["--help"], ["--logic", "arith"], ["--logic", "arith", "--goal",
                     "eval num 1", "--script", "num_eval"]):
            for _ in range(2):
                try:
                    code = main(argv)
                except SystemExit as stop:
                    code = ("exit", stop.code)
                captured = capsys.readouterr()
                runs.append((code, captured.out, captured.err))
    finally:
        cli._parser.cache_clear()
    assert built[0] == 1
    assert runs[0] == runs[1] == (("exit", 0), build().format_help(), "")
    assert runs[2] == runs[3] and runs[2][0] == 5
    assert runs[2][2].startswith("error: the following arguments are required: --goal")
    assert runs[4] == runs[5] == (0, "status: complete\nsteps_used: 0\nextract: [0, 1]\n", "")


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


def test_a_breadth_first_comb_of_1000_additions_completes(capsys):
    # a round costs the goals that answered, not the goals left standing,
    # so the work grows linearly with the comb
    goal = "eval " + " + ".join(["num 1"] * 1001)
    argv = ["--logic", "arith", "--goal", goal, "--script", arith.AUTO_SCRIPT,
            "--json"]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "complete"
    assert report["steps_used"] == 3001
    assert report["extract"] == ["1000", "1001"]


def test_a_depth_first_comb_of_1000_additions_flattens_once(monkeypatch, capsys):
    # the pass keeps each level's answer nested and flattens it once, at
    # its end, refuses each goal shape once, and runs no rule on a goal
    # its head excludes, so the comb takes 2n + 3 rule calls, as for 64
    # and 128; without the index by goal head it took 3n + 7, 3,007 here,
    # and without the table of refused shapes too 12n + 1, 12,001
    calls = counted_rules(monkeypatch)
    goal = "eval " + " + ".join(["num 1"] * 1001)
    argv = ["--logic", "arith", "--goal", goal, "--script",
            arith.AUTO_NAIVE_SCRIPT, "--json"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "incomplete"
    assert report["steps_used"] == 1002
    assert calls[0] == 2_003


@pytest.mark.parametrize("levels", [20, 50])
def test_the_sig_rounds_call_sig_i_once_per_level(monkeypatch, capsys, levels):
    # each round opens one sig, and the eq goals left standing have a head
    # sig_i's entry excludes, so they cost it no call; without the index
    # by goal head every round re-ran sig_i on each of them, (n+1)(n+2)/2
    # calls in all, 1,326 at 50 levels, with the same output
    calls = recorded_rules(monkeypatch, dep)
    prop = "top"
    for _ in range(levels):
        prop = f"sig(x. eq(x, x), {prop})"
    argv = ["--logic", "dep", "--goal", "true " + prop, "--script",
            "id; all(sig_i)*"]
    runs = []
    for heads in (dep.HEADS, {}):
        monkeypatch.setattr(dep, "HEADS", heads)
        calls.clear()
        assert main(argv) == 1
        runs.append((capsys.readouterr(), [name for name, _ in calls]))
    (indexed, indexed_calls), (plain, plain_calls) = runs
    assert indexed_calls == ["sig_i"] * levels
    assert plain_calls == ["sig_i"] * ((levels + 1) * (levels + 2) // 2)
    assert indexed == plain


def test_a_dep_chain_too_deep_to_parse_is_a_usage_error(capsys):
    # the goal parser recurses once per level, and stops a chain this
    # deep with a usage error rather than a crash
    prop = "top"
    for _ in range(1100):
        prop = f"sig(x. eq(x, x), {prop})"
    from refkit.logics import dep

    argv = ["--logic", "dep", "--goal", "true " + prop, "--script",
            dep.AUTO_SCRIPT, "--json"]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: nesting too deep in the goal or the script\n"
    )


def or_chain(levels):
    """or(or(…or(top, top)…, top), top), levels deep."""
    return "or(" * levels + "top" + ", top)" * levels


def test_a_deep_or_chain_prints_its_residual(capsys):
    # printing a proposition is one loop, so a chain the parser reads
    # prints, where a printer taking a frame per level ran out of them
    prop = or_chain(450)
    argv = ["--logic", "dep", "--goal", "true " + prop, "--script", "id"]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "status: incomplete\nsteps_used: 0\nresidual:\n"
        f"e : true {prop}.\n▹ [e]\n"
    )
    assert main(argv + ["--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "status": "incomplete",
        "steps_used": 0,
        "residual_goals": [f"true {prop}"],
        "extract": None,
    }


def test_a_deep_or_chain_traces_its_depth_first_proof(capsys):
    levels = 450
    argv = ["--logic", "dep", "--goal", "true " + or_chain(levels), "--script",
            "(or_i1 | top_i)*", "--trace"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "status: complete"
    assert captured.out.splitlines()[2] == (
        "extract: " + "inl(" * levels + "tt" + ")" * levels
    )
    # each level is shown as its pass finishes it, innermost first
    assert captured.err.splitlines() == [
        f"[{k}] true {or_chain(k - 1)} => state (complete)"
        for k in range(1, levels + 1)
    ]


@pytest.mark.parametrize("levels, code", [(900, 0), (1100, 5)])
def test_an_or_chain_parses_as_deep_as_a_sig_chain(levels, code, capsys):
    # the goal reader takes one frame per level of every form
    argv = ["--logic", "dep", "--goal", "true " + or_chain(levels), "--script",
            dep.AUTO_SCRIPT]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.startswith("status: complete\n")
    else:
        assert captured.out == ""
        assert captured.err == (
            "error: nesting too deep in the goal or the script\n"
        )


def test_a_flat_chain_compiles_without_a_frame_per_link(capsys):
    # the reader reads `a | b | …` and `t; m; m; …` in loops, and the
    # compiler folds their left spines in a loop: a chain whose text
    # nests nothing is never too deep
    goal = "eval " + " + ".join(["num 1"] * 51)
    wide = "id; all(" + "num_eval | " * 5000 + "plus_eval | add)*"
    for mode in ((), ("--json",), ("--trace",)):
        runs = []
        for script in (wide, BREADTH):
            code = main(["--logic", "arith", "--goal", goal, "--script", script, *mode])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1]
    long = "id" + "; all(id)" * 1999
    assert main(["--logic", "arith", "--goal", goal, "--script", long]) in (0, 1)
    assert "nesting too deep" not in capsys.readouterr().err


TOWER_GOALS = [
    "eval " + " + ".join(f"num {k}" for k in range(1, 7)),
    "eval ((num 1 + num 2) + (num 3 + num 4)) + ((num 5 + num 6) + (num 7 + num 8))",
    "add 1 2",
]


def tower_runs(capsys):
    """Every output of arith's towers in every order, with and without a
    trailing `| id`, under three scripts, on TOWER_GOALS, in each mode."""
    runs = []
    for order in itertools.permutations(("num_eval", "plus_eval", "add")):
        for tail in ((), ("id",)):
            tower = " | ".join(order + tail)
            scripts = (
                f"id; all({tower})*",
                f"({tower})*",
                f"plus_eval; [{', '.join([tower] * 5)}]",
            )
            for script in scripts:
                for goal in TOWER_GOALS:
                    for mode in ((), ("--json",), ("--trace",)):
                        argv = ["--logic", "arith", "--goal", goal, "--script", script,
                                "--fuel", "8", *mode]
                        runs.append((argv, main(argv), capsys.readouterr()))
    return runs


def test_the_index_changes_no_answer_in_any_tower_order(monkeypatch, capsys):
    # a tower answers with the first subgoals its leaves give, else with
    # its last leaf's refusal, whether that leaf ran or the index skipped it
    indexed = tower_runs(capsys)
    monkeypatch.setattr(arith, "HEADS", {})
    assert tower_runs(capsys) == indexed
    # add refuses its blocked goals with bot, but plus_eval's fail is the
    # tower's answer
    for heads in (arith.HEADS, {}):
        monkeypatch.setattr(arith, "HEADS", heads)
        argv = ["--logic", "arith", "--goal", TWO_PLUS_THREE, "--script",
                "id; all(add | num_eval | plus_eval)*", "--trace"]
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert "] add xc yc => fail\n" in err
        assert "] add 1 n => fail\n" in err
        assert "=> bot" not in err


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


@pytest.mark.parametrize(
    "goal, args",
    [
        pytest.param("eval num 1", ["--script", script], id=script)
        for script in ["num_eval", "id; all(num_eval)*", "num_eval | id", "num_eval*"]
    ] + [
        pytest.param("eval num 1 + num 2", ["--script", script, "--trace"], id=script)
        for script in ["plus_eval; all(num_eval)", "plus_eval; [num_eval, num_eval, add]"]
    ],
)
def test_a_tactic_answering_a_non_state_is_an_internal_error(monkeypatch, capsys, goal, args):
    # the answer is caught where the rule answers it: before a trace line
    # shows it, and before any other goal is attacked
    calls = [0]

    def faulty(ctx, judgment):
        calls[0] += 1
        return 42

    table = {**arith.RULES, "num_eval": Rule("num_eval", faulty)}
    monkeypatch.setattr(arith, "RULES", table)
    code = main(["--logic", "arith", "--goal", goal, *args])
    assert code == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: internal: TheoryError: subgoal is not a proof state: 42"
    ]
    assert calls[0] == 1


def test_a_script_file_that_is_not_utf8_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "bom.tac"
    path.write_bytes(b"\xff\xfe")
    argv = ["--logic", "arith", "--goal", "eval num 1", "--script-file", str(path)]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    ]


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


# A second pin, on large residuals: the flattening names every binder of
# these runs, and past the hundredth round they run to n'190 and beyond.

RESIDUAL_DIGEST = (
    "c7f62952c881adb4327463d570eeae09c707a5b7bddb23b86c848f8473544340"
)


def residual_runs():
    """Left combs of 64 and 96 `+` under scripts that leave goals open,
    pretty and traced."""
    for size in (64, 96):
        goal = "eval " + " + ".join(["num 1"] * (size + 1))
        for script in ("id; all(plus_eval)*", "id; all(num_eval | plus_eval)*",
                       "plus_eval"):
            for mode in ((), ("--trace",)):
                yield ["--logic", "arith", "--goal", goal, "--script", script, *mode]


def test_large_residuals_match_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    for argv in residual_runs():
        code = main(argv)
        captured = capsys.readouterr()
        for part in (str(code), captured.out, captured.err):
            digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == RESIDUAL_DIGEST


# A third pin, on the tactic star `t*`: the runs above star only
# multitactics.  Pinned from a run of the code whose star raced every
# approximant from scratch.

STAR_DIGEST = (
    "c1d93a1b944f3d86e8367291f5936fef58374962c6c172d01aefe59e53feaa31"
)


def star_runs():
    """Seeded closed goals under each logic's depth-first star, trees
    whose left side is shallower than their right, so that a traced run
    prints an earlier approximant's lines again, stars inside other
    tacticals, and `id*` at small fuels, in the three output modes."""
    dep_star = "(top_i | or_i1 | eq_refl | sig_i)*"
    runs = []
    for seed in range(12):
        rng = random.Random(seed)
        runs.append(("arith", "eval " + arith.render_expr(rand_closed_expr(rng, 4)),
                     arith.AUTO_NAIVE_SCRIPT, None))
        runs.append(("dep", "true " + dep.render_prop(rand_dep_closed_prop(rng, 4)),
                     dep_star, None))
    for goal in ("eval num 1 + (num 2 + (num 3 + num 4))",
                 "eval num 5 + (num 6 + num 7) + (num 1 + (num 2 + (num 3 + num 4)))"):
        for script in (arith.AUTO_NAIVE_SCRIPT, "(plus_eval | add)*",
                       "id; all((num_eval | plus_eval)*)", "plus_eval*; all(add)"):
            runs.append(("arith", goal, script, None))
        # the outer star is not over a natural tactic, and never answers
        runs.append(("arith", goal, "((plus_eval | num_eval)*)*", 30))
    for fuel in (0, 1, 2, 7):
        runs.append(("arith", "add 1 2", "id*", fuel))
    for logic, goal, script, fuel in runs:
        budget = () if fuel is None else ("--fuel", str(fuel))
        for mode in ((), ("--json",), ("--trace",)):
            yield ["--logic", logic, "--goal", goal, "--script", script, *budget, *mode]


def test_star_output_matches_the_pinned_digest(capsys):
    digest = hashlib.sha256()
    codes = set()
    for argv in star_runs():
        code = main(argv)
        captured = capsys.readouterr()
        codes.add(code)
        for part in (str(code), captured.out, captured.err):
            digest.update(part.encode() + b"\0")
    assert {0, 1, 4} <= codes
    assert digest.hexdigest() == STAR_DIGEST


# whole runs against the naive interpreter in tests/reference.py


def star_depth(ast):
    """How deep stars nest in a script's AST."""
    match ast:
        case Star(body):
            return 1 + star_depth(body)
        case OrElse(a, b) | SeqTac(a, b):
            return max(star_depth(a), star_depth(b))
        case AllM(body) | MStar(body):
            return star_depth(body)
        case EachM(bodies):
            return max(map(star_depth, bodies), default=0)
    return 0


def positional_script(rng, names):
    """`t; [s, ..., s]` or `t; [s, ..., s]*`, s the logic's rules in some
    order joined by `|`: each goal is attacked only after the evidence
    of the goals before it has been put in."""
    first, *rest = rng.sample(names, len(names))
    step = RuleName(first)
    for name in rest:
        step = OrElse(step, RuleName(name))
    each = EachM((step,) * rng.randrange(6))
    multi = MStar(each) if rng.random() < 0.3 else each
    return SeqTac(rand_script_tactic(rng, 1, names), multi)


def rand_run(rng, fuel):
    """A goal of either logic, a script over that logic's rule names, and
    a fuel of at most fuel, small fuels as likely as large ones in scale.
    A star over a star never answers at once, so it re-runs every
    approximant and costs more than the square of its fuel, and each
    star nested in it multiplies that again: such a script gets an
    eighth of the fuel per nesting."""
    if rng.random() < 0.5:
        logic, module = "arith", arith
        goal = f"eval {arith.render_expr(rand_closed_expr(rng, rng.randrange(4)))}"
    else:
        logic, module = "dep", dep
        goal = f"true {dep.render_prop(rand_dep_closed_prop(rng, rng.randrange(4)))}"
    names = tuple(module.RULES)
    if rng.random() < 0.25:
        ast = positional_script(rng, names)
    else:
        ast = rand_script_tactic(rng, rng.randrange(4), names)
    fuel //= 8 ** max(star_depth(ast) - 1, 0)
    return RunConfig(logic, goal, print_script(ast), round((fuel + 1) ** rng.random()) - 1)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_runs_agree_with_the_reference_interpreter(seed):
    config = rand_run(random.Random(seed), RUN_FUEL)
    got = execute(config)
    want = RunOutcome(
        *ref_execute(config.logic, config.goal, config.script, config.fuel)
    )
    assert (got.status, got.exit_code, got.steps) == (
        want.status, want.exit_code, want.steps
    )
    if want.state is not None:
        assert ref_state_alpha_eq(got.state, want.state)
    structure = LOGICS[config.logic].STRUCTURE
    assert render_pretty(structure, got) == render_pretty(structure, want)
    assert render_json(structure, got) == render_json(structure, want)


@pytest.mark.parametrize("pluses", [1, 2, 4])
def test_a_wide_positional_sweep_agrees_with_the_reference_interpreter(pluses):
    config = RunConfig("arith", *wide_each(pluses))
    got = execute(config)
    want = RunOutcome(*ref_execute(config.logic, config.goal, config.script, config.fuel))
    assert (got.status, got.steps) == (want.status, want.steps) == ("complete", pluses + 1)
    assert ref_state_alpha_eq(got.state, want.state)
    assert render_json(arith.STRUCTURE, got) == render_json(arith.STRUCTURE, want)


def proof_script(rng, logic, term, stray):
    """A positional script for the goal on the closed term term, each
    entry drawn alike for the goal it meets.  Left alone it discharges
    every goal it can; with chance stray an entry stands (`id`), is a rule
    drawn at random, which may refuse, or falls back to its own script
    after such a rule, and a list loses tactics at its end, whose goals
    then stand, or gains tactics past its last goal, which do not run;
    with chance stray, too, the head's subgoals are swept not by `[...]`
    but by `all(t)`, t one of the list's tactics, or by `[...]*`."""
    names = tuple(LOGICS[logic].RULES)

    def entry(t):
        script, roll = proof_script(rng, logic, t, stray), rng.random() / stray
        if roll < 1 / 3:
            return IdTac()
        if roll < 2 / 3:
            return RuleName(rng.choice(names))
        return OrElse(RuleName(rng.choice(names)), script) if roll < 1 else script

    if logic == "arith":
        if term.op is not arith.PLUS_OP:
            return RuleName("num_eval")
        head, goals = "plus_eval", [*map(entry, term.args), *[RuleName("add")] * 3]
    elif term.op is dep.OR_OP:
        head, goals = "or_i1", [entry(term.args[0])]
    elif term.op is dep.SIG_OP:
        base, body = term.args
        witness = ref_prove_oracle(base) or dep.tt()
        head, goals = "sig_i", [entry(base), entry(ref_open(body, dep.SLOT, witness))]
    else:
        return RuleName("top_i" if term.op is dep.TOP_OP else "eq_refl")
    roll = rng.random() / stray
    if roll < 1 / 2:
        goals = goals[: rng.randrange(len(goals))]
    elif roll < 1:
        goals += [RuleName(rng.choice(names)) for _ in range(rng.randrange(1, 3))]
    roll = rng.random() / stray
    if roll < 1 / 2:
        return SeqTac(RuleName(head), AllM(rng.choice(goals) if goals else IdTac()))
    if roll < 1:
        return SeqTac(RuleName(head), MStar(EachM(tuple(goals))))
    return SeqTac(RuleName(head), EachM(tuple(goals)))


def trace_line(structure, n, goal, answer):
    """The n-th line of a `--trace` run, for goal answered with answer."""
    goals = len(tele_goals(answer.telescope)) if isinstance(answer, Subgoals) else 0
    return f"[{n}] {structure.render(goal)} => {_trace_tag(type(answer), goals)}"


# `[...]` entries that sweep their own subgoals by another multitactic,
# run while the enclosing sweep has discharged every entry before them
NESTED_SWEEPS = [
    ("dep", "true or(or(top, top), top)", "or_i1; [or_i1; all(top_i)]"),
    ("dep", "true or(or(top, top), top)", "or_i1; [or_i1; all(id)]"),
    ("dep", "true or(sig(x. eq(x, tt), top), top)", "or_i1; [sig_i; all(id)]"),
    ("dep", "true or(or(top, top), top)", "or_i1; [or_i1; [top_i]*]"),
    ("dep", "true or(or(top, top), top)", "or_i1; [or_i1; [id]*]"),
    ("dep", "true sig(x. eq(x, inl(tt)), or(top, top))", "sig_i; [or_i1; all(top_i), eq_refl]"),
    ("arith", "eval num 1 + num 2", "plus_eval; [num_eval; all(id), num_eval, add]"),
]


def test_positional_runs_agree_with_the_reference_interpreter(monkeypatch, capsys):
    # the reference shows its sweeps' answers as a trace does, and counts
    # its flattenings, the `[...]` sweeps under `;` over goals that
    # discharge every entry, which the kernel does not flatten again, and
    # the `all(t)` and `m*` run by an entry while its sweep under `;` has
    # discharged every entry so far
    import reference

    shown, discharged, flattenings, nested = [], [], [0], [0]
    ref_sweep, ref_run_multi = reference._sweep, reference._run_multi
    # per multitactic run, whether `;` flattens it and its round body;
    # per entry attacked, whether its sweep is under `;` and clean so far
    multis, clean = [], []

    def traced_sweep(state, fuel, attack, pending):
        answers, under_seq = [], pending is not None and multis[-1][0]

        def traced(i, goal, fuel):
            clean.append(under_seq and all(
                isinstance(a, Subgoals) and not tele_goals(a.telescope) for a in answers
            ))
            try:
                got = attack(i, goal, fuel)
            finally:
                clean.pop()
            answers.append(got[0])
            shown.append((goal, got[0]))
            return got

        got = ref_sweep(state, fuel, traced, pending)
        if under_seq and isinstance(state, Subgoals):
            discharged.append(all(
                isinstance(a, Subgoals) and not tele_goals(a.telescope) for a in answers
            ))
        return got

    def traced_run_multi(rules, ast, state, fuel):
        if not isinstance(ast, EachM) and clean and clean[-1]:
            nested[0] += 1
        under_seq = not multis or multis[-1][1] is not ast
        multis.append((under_seq, ast.body if isinstance(ast, MStar) else None))
        try:
            return ref_run_multi(rules, ast, state, fuel)
        finally:
            multis.pop()

    def counted(mul):
        def run(*args):
            flattenings[0] += 1
            return mul(*args)

        return run

    def cases():
        yield from NESTED_SWEEPS
        for seed in range(200):
            rng = random.Random(seed)
            if rng.random() < 0.5:
                logic, term = "arith", rand_closed_expr(rng, rng.randrange(2, 5))
                goal = f"eval {arith.render_expr(term)}"
            else:
                logic, term = "dep", rand_dep_closed_prop(rng, rng.randrange(2, 5))
                goal = f"true {dep.render_prop(term)}"
            yield logic, goal, print_script(proof_script(rng, logic, term, 0.15))

    monkeypatch.setattr(reference, "_sweep", traced_sweep)
    monkeypatch.setattr(reference, "_run_multi", traced_run_multi)
    monkeypatch.setattr(reference, "ref_state_mul", counted(reference.ref_state_mul))
    monkeypatch.setattr(tactic, "state_mul", counted(tactic.state_mul))
    drawn = set()
    for n, (logic, goal, script) in enumerate(cases()):
        structure = LOGICS[logic].STRUCTURE
        shown.clear()
        discharged.clear()
        flattenings[0] = 0
        want = RunOutcome(*ref_execute(logic, goal, script, RUN_FUEL))
        expected = flattenings[0] - sum(discharged)
        flattenings[0] = 0
        got = execute(RunConfig(logic, goal, script, RUN_FUEL, trace=True))
        lines = [trace_line(structure, n, *event) for n, event in enumerate(shown, 1)]
        assert capsys.readouterr().err.splitlines() == lines, script
        assert (got.status, got.exit_code, got.steps) == (
            want.status, want.exit_code, want.steps
        ), script
        assert ref_state_alpha_eq(got.state, want.state), script
        assert render_pretty(structure, got) == render_pretty(structure, want), script
        assert flattenings[0] == expected, script
        drawn.update(discharged)
        if n < len(NESTED_SWEEPS):
            assert nested[0] == n + 1, script
    # both sweeps that discharge every entry and sweeps that do not ran,
    # and drawn entries, not only the fixed ones, ran `all(t)` or `m*`
    # inside a sweep under `;` that was clean so far
    assert drawn == {False, True}
    assert nested[0] > len(NESTED_SWEEPS)


@pytest.mark.parametrize(
    "argv, code, steps",
    [
        (["--goal", "eval " + " + ".join(["num 1"] * 129),
          "--script", arith.AUTO_NAIVE_SCRIPT], 1, 130),
        (["--goal", "add 1 2", "--script", "id*", "--fuel", "300"], 4, 300),
        # each step resumes one pass a level deeper; raced from scratch,
        # the approximants would take about 1,000 s here
        (["--goal", "add 1 2", "--script", "id*", "--fuel", "10000"], 4, 10000),
    ],
    ids=["depth-first comb of 128", "id* at fuel 300", "id* at fuel 10000"],
)
def test_deep_approximants_take_no_python_frame_per_level(capsys, argv, code, steps):
    assert main(["--logic", "arith", *argv]) == code
    out = capsys.readouterr()
    assert f"\nsteps_used: {steps}\n" in out.out
    assert out.err == ""
