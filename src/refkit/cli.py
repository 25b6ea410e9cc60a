"""Command line driver: run a tactic script against a goal.

Exit codes: 0 the goal was fully discharged, 1 subgoals remain, 2 the
script failed, 3 the script answered with the undetermined state, 4 the
fuel ran out, 5 the goal or script did not parse, nested too deeply, or
usage was wrong, 6 an internal error stopped the run (one line on stderr,
`error: internal: <type>: <message>`).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from .logics import arith, dep
from .refiner import UnknownRuleName
from .script import compile_text
from .state import (
    Bot,
    Fail,
    ProofState,
    Subgoals,
    TeleNil,
    pretty_state,
    tele_goals,
)
from .tactic import OutOfFuel, run_delayed, set_trace_hook
from .theory import render_term

LOGICS = {"arith": arith, "dep": dep}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    logic: str
    goal: str
    script: str
    fuel: int = 100000
    trace: bool = False


@dataclass(frozen=True)
class RunOutcome:
    status: str
    exit_code: int
    steps: int
    state: ProofState | None


def execute(config: RunConfig) -> RunOutcome:
    """Parse, compile, and drive one script run; never raises for
    ordinary failures, they are folded into the outcome."""
    module = LOGICS.get(config.logic)
    if module is None:
        raise UsageError(f"unknown logic {config.logic!r}")
    if config.fuel < 0:
        raise UsageError(f"fuel must be at least 0, not {config.fuel}")
    structure = module.STRUCTURE
    try:
        goal = module.parse_goal(config.goal)
        tactic = compile_text(structure, module.RULES, config.script, module.HEADS)
    except (ValueError, UnknownRuleName) as err:
        raise UsageError(str(err)) from err
    except RecursionError as err:
        raise UsageError("nesting too deep in the goal or the script") from err

    hook = None
    if config.trace:
        counter = [0]

        def hook(traced_goal, kind, goals):
            counter[0] += 1
            print(
                f"[{counter[0]}] {structure.render(traced_goal)} "
                f"=> {_trace_tag(kind, goals)}",
                file=sys.stderr,
            )

    # the run shows its own hook or none, and the caller's comes back after
    previous = set_trace_hook(hook)
    try:
        result = run_delayed(tactic(goal.context, goal), config.fuel)
    finally:
        set_trace_hook(previous)

    if isinstance(result, OutOfFuel):
        return RunOutcome("out_of_fuel", 4, result.steps, None)
    state = result.value
    match state:
        case Fail(_, _):
            return RunOutcome("failed", 2, result.steps, state)
        case Bot(_, _):
            return RunOutcome("unsuccess", 3, result.steps, state)
    if isinstance(state.telescope, TeleNil):
        return RunOutcome("complete", 0, result.steps, state)
    return RunOutcome("incomplete", 1, result.steps, state)


def _trace_tag(kind: type, goals: int) -> str:
    """A trace line's account of an answer of the kind given, with goals
    goals."""
    if kind is Fail:
        return "fail"
    if kind is Bot:
        return "bot"
    if goals == 0:
        return "state (complete)"
    return f"state ({goals} goal{'s' if goals != 1 else ''})"


def render_pretty(structure, outcome: RunOutcome) -> str:
    lines = [f"status: {outcome.status}", f"steps_used: {outcome.steps}"]
    match outcome.state:
        case Subgoals(tele, validation):
            if isinstance(tele, TeleNil):
                terms = [render_term(t) for t in validation.terms]
                if len(terms) == 1:
                    lines.append(f"extract: {terms[0]}")
                else:
                    lines.append(f"extract: [{', '.join(terms)}]")
            else:
                lines.append("residual:")
                lines.append(pretty_state(structure, outcome.state))
        case Fail(_, _):
            lines.append("state: FAIL")
        case Bot(_, _):
            lines.append("state: BOT")
        case None:
            pass
    return "\n".join(lines)


def render_json(structure, outcome: RunOutcome) -> str:
    residual: list[str] = []
    extract = None
    match outcome.state:
        case Subgoals(tele, validation):
            if isinstance(tele, TeleNil):
                extract = [render_term(t) for t in validation.terms]
            else:
                residual = [
                    structure.render(goal) for _, goal in tele_goals(tele)
                ]
        case _:
            pass
    return json.dumps(
        {
            "status": outcome.status,
            "steps_used": outcome.steps,
            "residual_goals": residual,
            "extract": extract,
        }
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="refkit",
        description="Run a tactic script against a goal and report the state.",
    )
    parser.add_argument("--logic", choices=sorted(LOGICS), required=True)
    parser.add_argument("--goal", required=True, help="goal to refine")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="tactic script text")
    group.add_argument("--script-file", help="file containing the script")
    parser.add_argument("--fuel", type=int, default=100000)
    parser.add_argument(
        "--trace", action="store_true", help="log each subgoal answer to stderr"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit a json report instead of text"
    )
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser()'s parser, built once per process: parsing keeps no
    state in it, and help is laid out anew each time it is printed."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        script = args.script
        if script is None:
            try:
                with open(args.script_file, encoding="utf-8") as handle:
                    script = handle.read()
            except OSError as err:
                raise UsageError(str(err)) from err
            except UnicodeDecodeError as err:
                raise UsageError(f"{args.script_file}: {err}") from err
        config = RunConfig(
            logic=args.logic,
            goal=args.goal,
            script=script,
            fuel=args.fuel,
            trace=args.trace,
        )
        outcome = execute(config)
        structure = LOGICS[config.logic].STRUCTURE
        if args.json:
            report = render_json(structure, outcome)
        else:
            report = render_pretty(structure, outcome)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5
    except Exception as err:
        # a fault of refkit itself: exit 1 would read as "subgoals remain"
        message = str(err).replace("\n", " ")
        print(f"error: internal: {type(err).__name__}: {message}", file=sys.stderr)
        return 6
    print(report)
    return outcome.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
