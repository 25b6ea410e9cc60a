"""Tests of the benchmark itself: python -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import speed  # noqa: E402
from spans import Recorder, patched, summarise  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Goal,
    check_report,
    make_batch,
    plus_depth,
    random_tree,
    render_expr,
    spread_sizes,
)


def run_cli(goal: Goal) -> tuple[int, str]:
    from refkit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(goal.argv())
    return code, out.getvalue()


def smallest(workload: str) -> Goal:
    return min(make_batch(workload, 0), key=lambda g: (g.size, len(g.text)))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_batches_are_deterministic_per_seed(workload):
    assert make_batch(workload, 7) == make_batch(workload, 7)
    assert make_batch(workload, 7) != make_batch(workload, 8)


def test_arith_workloads_share_sizes_not_shapes():
    rounds = make_batch("arith-rounds", 3)
    depth = make_batch("arith-depth", 3)
    assert [g.size for g in rounds] == [g.size for g in depth]
    assert [g.text for g in rounds] != [g.text for g in depth]


def test_spread_sizes_cover_the_range_in_every_prefix():
    sizes = spread_sizes(8, 48, 18)
    assert sorted(sizes)[0] == 8 and sorted(sizes)[-1] == 48
    assert min(sizes[:6]) <= 16 and max(sizes[:6]) >= 40


def test_rendered_trees_keep_their_shape():
    import random

    from refkit.logics import arith

    rng = random.Random(5)
    for nodes in (1, 7, 20):
        expr = random_tree(rng, nodes)
        parsed = arith.parse_goal("eval " + render_expr(expr)).expr

        def depth(t):
            return 0 if t.op != arith.PLUS_OP else 1 + max(map(depth, t.args))

        assert depth(parsed) == plus_depth(expr)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_accepts_the_real_report(workload):
    goal = smallest(workload)
    code, out = run_cli(goal)
    assert check_report(goal, code, out) is None


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reference_flags_altered_steps(workload):
    goal = smallest(workload)
    code, out = run_cli(goal)
    report = json.loads(out)
    report["steps_used"] += 1
    assert "steps_used" in check_report(goal, code, json.dumps(report))


@pytest.mark.parametrize("workload", ["arith-rounds", "dep-positional"])
def test_reference_flags_altered_extract(workload):
    goal = smallest(workload)
    code, out = run_cli(goal)
    report = json.loads(out)
    report["extract"][-1] = report["extract"][-1].replace("1", "2", 1) + "0"
    assert "extract" in check_report(goal, code, json.dumps(report))


def test_reference_flags_exit_code_and_crash():
    goal = smallest("arith-depth")
    code, out = run_cli(goal)
    assert "exit code" in check_report(goal, 0, out)
    assert "exit code" in check_report(goal, "RecursionError: deep", "")


def test_self_time_on_a_hand_built_tree():
    # a [0, 10] holds b [1, 4] (which holds a [2, 3]) and c [5, 9];
    # a second root b [11, 12] follows
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("a", 2.0, 3.0, 1),
        ("c", 5.0, 9.0, 0),
        ("b", 11.0, 12.0, -1),
    ]
    totals = summarise(spans)
    assert totals["a"].calls == 2
    assert totals["a"].self_s == pytest.approx((10 - 3 - 4) + 1)
    # the inner a runs inside the outer one, so it adds no inclusive time
    assert totals["a"].total_s == pytest.approx(10)
    assert totals["b"].calls == 2
    assert totals["b"].self_s == pytest.approx((3 - 1) + 1)
    assert totals["b"].total_s == pytest.approx(4)
    assert totals["c"].self_s == pytest.approx(4)
    assert sum(t.self_s for t in totals.values()) == pytest.approx(10 + 1)


def test_recorder_nests_spans_and_survives_exceptions():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def fail():
        raise ValueError("no")

    inner = recorder.wrap("inner", lambda x: x + 1)
    boom = recorder.wrap("boom", fail)

    def body():
        with pytest.raises(ValueError):
            boom()
        return inner(1)

    outer = recorder.wrap("outer", body)
    assert outer() == 2
    spans = recorder.take()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("boom", 0), ("inner", 0)]
    assert all(s[2] > s[1] for s in spans)
    assert recorder.take() == []


def test_patched_restores_after_an_exception():
    class Owner:
        value = 1

    with pytest.raises(RuntimeError):
        with patched([(Owner, "value", 2)]):
            assert Owner.value == 2
            raise RuntimeError
    assert Owner.value == 1


def test_traced_restores_every_wrapped_attribute():
    import layers
    from refkit import cli, state, tactic
    from refkit.logics import dep

    before = (cli.main, state.state_mul, tactic.state_mul, dep.RULES,
              dep.DepStructure.subst)
    with pytest.raises(RuntimeError):
        with layers.traced(Recorder(), Counter()):
            assert tactic.state_mul is not before[2]
            raise RuntimeError
    after = (cli.main, state.state_mul, tactic.state_mul, dep.RULES,
             dep.DepStructure.subst)
    assert all(a is b for a, b in zip(before, after))


def test_traced_run_counts_every_rule_call_and_keeps_the_report():
    import layers

    goal = make_batch("dep-positional", 2)[3]
    plain = run_cli(goal)
    recorder, counts = Recorder(), Counter()
    with layers.traced(recorder, counts):
        traced = run_cli(goal)
    assert traced == plain
    totals = summarise(recorder.take())
    # a positional script calls each rule it names exactly once
    named = sum(goal.script.count(r) for r in ("top_i", "or_i1", "sig_i", "eq_refl"))
    rule_calls = sum(t.calls for n, t in totals.items() if n.startswith("rule.run."))
    assert rule_calls == named == counts["rule.subgoals"]
    assert totals["cli.main"].calls == 1
    assert totals["theory.subst_apply"].calls > 0


def test_rescale_divides_out_the_machine_speed():
    times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    twice_as_slow = [2 * speed.REFERENCE_S] * len(times)
    assert speed.rescale(times, twice_as_slow) == pytest.approx([t / 2 for t in times])
    # one stray calibration sample is outvoted by the others in its window
    steady = [speed.REFERENCE_S] * len(times)
    steady[2] = 10 * speed.REFERENCE_S
    assert speed.rescale(times, steady) == pytest.approx(times)
    assert speed.kernel_s() > 0


def test_percentile_weighs_the_ranks_around_the_quantile():
    from run import percentile

    assert percentile([3.0] * 50, 0.9) == pytest.approx(3.0)
    ranks = [float(i) for i in range(1, 200)]
    assert percentile(ranks, 0.5) == pytest.approx(100.0)
    assert 170 < percentile(ranks, 0.9) < 190
    # unlike one order statistic, it moves smoothly with a sample near it
    nudged = ranks[:]
    nudged[99] += 0.5
    assert 0 < percentile(nudged, 0.5) - percentile(ranks, 0.5) < 0.5
