"""Which parts of refkit the traced run wraps, and the per-layer metrics.

Each layer is one or more refkit modules.  The traced run wraps every
public function of a layer's modules and every public method of the
module's own classes, under the span name `<layer>.<qualified name>`,
and patches every refkit module that imported the function by name, so
internal calls are recorded too.  The rules of each logic are wrapped by
swapping the logic's `RULES` table for one of wrapped rules, since the
CLI builds its refiner from that table on each run.  Nothing in refkit
changes on disk, and `traced` puts every attribute back afterwards.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Iterator

from refkit import cli, refiner, rule, script, state, tactic, theory
from refkit.logics import arith, dep
from refkit.rule import Rule
from refkit.state import Bot, Fail, Subgoals, TeleCons

from spans import Recorder, Totals, patched

LAYERS: dict[str, tuple[ModuleType, ...]] = {
    "cli": (cli,),
    "script": (script,),
    "refiner": (refiner,),
    "logics": (arith, dep),
    "rule": (rule,),
    "tactic": (tactic,),
    "state": (state,),
    "theory": (theory,),
}
LOGICS = (arith, dep)


def _refkit_modules() -> list[ModuleType]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "refkit" or name.startswith("refkit."))
    ]


def _public_callables(module: ModuleType) -> Iterator[tuple[Any, str, Any]]:
    """(owner, attribute, function) for the module's public functions and
    the public methods its own classes define."""
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield module, name, value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield value, attr, member


def _rule_verdict(counts: Counter[str]):
    """Counts each rule answer by verdict, which a span cannot carry."""

    def observe(answer: Any) -> None:
        if isinstance(answer, Subgoals):
            counts["rule.subgoals"] += 1
        elif isinstance(answer, Bot):
            counts["rule.bot"] += 1
        elif isinstance(answer, Fail):
            counts["rule.fail"] += 1

    return observe


def _flatten_size(counts: Counter[str]):
    """Counts the goals each flattening leaves, which a span cannot carry."""

    def observe(result: Any) -> None:
        if isinstance(result, Subgoals):
            tele, goals = result.telescope, 0
            while isinstance(tele, TeleCons):
                goals += 1
                tele = tele.rest
            counts["state.mul.goals_out"] += goals

    return observe


@contextmanager
def traced(
    recorder: Recorder, counts: Counter[str], layers: tuple[str, ...] = tuple(LAYERS)
) -> Iterator[None]:
    """Record spans for the given layers for the duration of the block."""
    observers = {state.state_mul: _flatten_size(counts)}
    wrapped: dict[int, Any] = {}
    replacements: list[tuple[Any, str, Any]] = []
    for layer in layers:
        for module in LAYERS[layer]:
            prefix = layer
            if module in LOGICS:
                prefix += "." + module.__name__.rsplit(".", 1)[-1]
            for owner, attr, fn in _public_callables(module):
                wrapper = recorder.wrap(
                    f"{prefix}.{fn.__qualname__}", fn, observers.get(fn)
                )
                wrapped[id(fn)] = wrapper
                if owner is not module:
                    replacements.append((owner, attr, wrapper))
    # a module-level function is looked up in the namespace of each module
    # that uses it: its own, and every module that imported it by name
    for module in _refkit_modules():
        for attr, value in vars(module).items():
            if id(value) in wrapped:
                replacements.append((module, attr, wrapped[id(value)]))
    if "rule" in layers:
        verdict = _rule_verdict(counts)
        for logic in LOGICS:
            table = {
                name: Rule(r.name, recorder.wrap(f"rule.run.{name}", r.run, verdict))
                for name, r in logic.RULES.items()
            }
            replacements.append((logic, "RULES", table))
    with patched(replacements):
        yield


PARSE_GOAL = ("logics.arith.parse_goal", "logics.dep.parse_goal")
LOGIC_SUBST = ("logics.arith.ArithStructure.subst", "logics.dep.DepStructure.subst")


def layer_metrics(
    totals: dict[str, Totals],
    counts: Counter[str],
    goals: int,
    script_chars: int,
    goal_chars: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per goal, as name -> (value, unit)."""

    def spans_of(*names: str) -> list[Totals]:
        return [totals[n] for n in names if n in totals]

    def calls(*names: str) -> float:
        return sum(t.calls for t in spans_of(*names)) / goals

    def total_s(*names: str) -> float:
        return sum(t.total_s for t in spans_of(*names)) / goals

    def self_s(*names: str) -> float:
        return sum(t.self_s for t in spans_of(*names)) / goals

    def layer_self_s(layer: str) -> float:
        return self_s(*(n for n in totals if n.startswith(layer + ".")))

    def count(key: str) -> float:
        return counts[key] / goals

    rule_calls = calls(*(n for n in totals if n.startswith("rule.run.")))
    parse_s = total_s("script.parse_script")
    goal_parse_s = total_s(*PARSE_GOAL)
    return {
        "cli.main.self_s": (layer_self_s("cli"), "s/goal"),
        "script.parse.s": (parse_s, "s/goal"),
        "script.parse.chars_per_s": (script_chars / goals / parse_s, "chars/s"),
        "script.compile.s": (total_s("script.compile_script"), "s/goal"),
        "logics.parse_goal.s": (goal_parse_s, "s/goal"),
        "logics.parse_goal.chars_per_s": (goal_chars / goals / goal_parse_s, "chars/s"),
        "refiner.lookup.calls": (calls("refiner.Refiner.lookup"), "calls/goal"),
        "rule.calls": (rule_calls, "calls/goal"),
        "rule.subgoals": (count("rule.subgoals"), "calls/goal"),
        "rule.bot": (count("rule.bot"), "calls/goal"),
        "rule.fail": (count("rule.fail"), "calls/goal"),
        "rule.useful_ratio": (count("rule.subgoals") / rule_calls, "ratio"),
        "rule.self_s": (layer_self_s("rule"), "s/goal"),
        "tactic.run.s": (total_s("tactic.run_delayed"), "s/goal"),
        "tactic.self_s": (layer_self_s("tactic"), "s/goal"),
        "tactic.force.calls": (calls("tactic.force"), "calls/goal"),
        "tactic.bind.calls": (calls("tactic.bind"), "calls/goal"),
        "tactic.steps": (count("tactic.steps"), "steps/goal"),
        "state.mul.calls": (calls("state.state_mul"), "calls/goal"),
        "state.mul.self_s": (self_s("state.state_mul"), "s/goal"),
        "state.mul.goals_out": (count("state.mul.goals_out"), "goals/goal"),
        "state.alpha_eq.calls": (calls("state.state_alpha_eq"), "calls/goal"),
        "state.alpha_eq.self_s": (self_s("state.state_alpha_eq"), "s/goal"),
        "state.unit.calls": (calls("state.state_unit"), "calls/goal"),
        "state.subst.calls": (calls("state.state_subst"), "calls/goal"),
        "state.subst.self_s": (self_s("state.state_subst"), "s/goal"),
        "logics.subst.calls": (calls(*LOGIC_SUBST), "calls/goal"),
        "logics.subst.self_s": (self_s(*LOGIC_SUBST), "s/goal"),
        "theory.subst_apply.calls": (calls("theory.subst_apply"), "calls/goal"),
        "theory.subst_apply.self_s": (self_s("theory.subst_apply"), "s/goal"),
        "theory.subst_compose.calls": (calls("theory.subst_compose"), "calls/goal"),
        "theory.ctx_concat.calls": (calls("theory.ctx_concat"), "calls/goal"),
        "theory.fresh_name.calls": (calls("theory.fresh_name"), "calls/goal"),
        "theory.self_s": (layer_self_s("theory"), "s/goal"),
    }
