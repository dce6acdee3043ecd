"""Each output check passes the program's real output and rejects a doctored
copy of it. Run with `python3 -m pytest perfbench` from the checkout root."""

import inspect
import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench, checks, inputs, tracer as tracing
from taskmon import actuator, monitor
from taskmon.language import Atom, State, TokenSeq
from taskmon.perception import Thresholds
from taskmon.predictor import GoalProposal

TH = Thresholds()


@pytest.fixture(scope="module")
def inp():
    return inputs.setup("belief_replay", 0)


def _run(inp, name):
    case = next(c for c in inp.cases if c.name == name)
    scene = case.scene.copy()
    cfg = monitor.MonitorConfig(seed=0)
    trace = monitor.run_task(
        case.task_id,
        scene,
        inp.lib,
        None,
        actuator.SimActuator(scene, inp.vocab),
        cfg,
        terminal=case.terminal,
        start=inp.start,
        vision=monitor.BeliefVision(scene, inp.candidates),
        goal_source=inp.oracles[case.task_id],
    )
    return case, trace, scene


@pytest.fixture(scope="module")
def bring(inp):
    return _run(inp, "bring_object/base")


def _without(trace, index):
    return replace(trace, events=trace.events[:index] + trace.events[index + 1 :])


def _first(trace, kind, **payload):
    return next(
        i
        for i, e in enumerate(trace.events)
        if e.kind == kind and all(e.payload.get(k) == v for k, v in payload.items())
    )


# --- trace shape -----------------------------------------------------------------


def test_real_traces_pass(bring, inp):
    case, trace, _ = bring
    assert trace.outcome.ok
    assert checks.trace_shape(trace) == []
    # the oracle recovers on the alternative support, through a rank-2 goal
    _, alt, _ = _run(inp, "bring_object/alt")
    assert alt.outcome.ok and checks.trace_shape(alt) == []
    assert any(rank == 2 for _, rank in alt.attempted)


def test_missing_or_extra_end_task_is_rejected(bring):
    _, trace, _ = bring
    assert checks.trace_shape(_without(trace, len(trace.events) - 1))
    doubled = replace(trace, events=trace.events + (trace.events[-1],))
    assert checks.trace_shape(doubled)
    early = replace(trace, events=(trace.events[-1],) + trace.events[:-1])
    assert checks.trace_shape(early)


def test_dispatch_without_holding_precondition_is_rejected(bring):
    _, trace, _ = bring
    i = _first(trace, "action_dispatch")
    assert checks.trace_shape(_without(trace, i - 1))
    pre = trace.events[i - 1]
    failed = replace(pre, payload={**pre.payload, "holds": False})
    doctored = replace(trace, events=trace.events[: i - 1] + (failed,) + trace.events[i:])
    assert any("holding precondition" in p for p in checks.trace_shape(doctored))


def test_success_without_effects_query_is_rejected(bring):
    _, trace, _ = bring
    i = _first(trace, "action_result", ok=True)
    assert trace.events[i + 1].payload["purpose"] == "effects"
    assert any("effects query" in p for p in checks.trace_shape(_without(trace, i + 1)))


# --- ground truth ------------------------------------------------------------------


def test_terminal_atoms_hold_in_the_final_scene(bring):
    case, _, scene = bring
    assert checks.false_terminal_atoms(scene, case.terminal, TH) == []


def test_doctored_scene_is_rejected(bring):
    case, _, scene = bring
    # the technician drops the brush: Holding fails
    dropped = scene.copy()
    del dropped.attachments["technician_hand"]
    assert checks.false_terminal_atoms(dropped, case.terminal, TH) == [
        "Holding(technician_hand,brush): false in the final scene"
    ]
    # the robot's hand still holds the brush: Free fails
    kept = scene.copy()
    kept.attachments["robot_hand"] = "brush"
    assert checks.false_terminal_atoms(kept, case.terminal, TH) == [
        "Free(robot_hand): false in the final scene"
    ]


def test_on_close_and_at_read_the_scene(inp):
    scene = inp.cases[0].scene.copy()
    on = State.parse(["On(brush,table)"])
    assert checks.false_terminal_atoms(scene, on, TH) == []
    scene.get("brush").supported_by = "ladder"
    assert checks.false_terminal_atoms(scene, on, TH)
    near = State.parse(["CloseTo(robot,table)", "At(robot,table)"])
    assert len(checks.false_terminal_atoms(scene, near, TH)) == 2
    actuator.approach(scene, "robot", "table", 0.5)
    assert checks.false_terminal_atoms(scene, near, TH) == []


# --- proposals and learning ----------------------------------------------------------


def _prop(atoms, logp, rank):
    return GoalProposal(State.parse(atoms), logp, rank, TokenSeq(()))


def test_proposal_checks(inp):
    boot = inp.lib.entry("boot").goal_state
    good = inp.oracles["bring_object"].propose(None, boot, 3)
    assert [p.rank for p in good] == [1, 2]
    assert checks.proposal_problems(good, inp.vocab, 3) == []
    rising = [_prop(["Free(robot_hand)"], -2.0, 1), _prop(["VisionOn(robot)"], -1.0, 2)]
    assert any("rises" in p for p in checks.proposal_problems(rising, inp.vocab, 3))
    ill_sorted = [_prop(["On(table,brush)"], -1.0, 1)]
    assert any("sorts" in p for p in checks.proposal_problems(ill_sorted, inp.vocab, 3))
    assert not checks.atom_fits(inp.vocab, Atom("On", ("brush",)))
    assert not checks.atom_fits(inp.vocab, Atom("Levitating", ("brush",)))
    gap = [_prop(["Free(robot_hand)"], -1.0, 1), _prop(["VisionOn(robot)"], -2.0, 3)]
    assert any("ranks" in p for p in checks.proposal_problems(gap, inp.vocab, 3))
    assert checks.proposal_problems(good * 2, inp.vocab, 3)


def test_chain_accuracy_ceiling(inp):
    steps = inp.chain_steps
    assert len(steps) == 50
    assert checks.best_chain_accuracy(steps) == 42
    oracle = inp.oracles

    def top(task, s):
        return oracle[task.id].propose(task, s, 3)

    assert checks.chain_accuracy(steps, top) == 42
    assert checks.chain_accuracy(steps, lambda task, s: []) == 0


def test_training_checks():
    assert checks.training_problems([2.0, 1.0], {"emb": 1e-6}) == []
    assert checks.training_problems([1.0, 1.5], {"emb": 1e-6})
    assert checks.training_problems([2.0, 1.0], {"emb": 10 * checks.GRAD_TOL})


# --- tracing and the benchmark's declaration ----------------------------------------------


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()

    def leaf():
        time.sleep(0.002)

    wleaf = tr.wrap("leaf", leaf)

    def root():
        wleaf()
        wleaf()
        time.sleep(0.002)

    tr.wrap("root", root)()
    totals = tr.layer_totals()
    assert totals["leaf"]["calls"] == 2 and totals["root"]["calls"] == 1
    assert totals["root"]["ms"] >= totals["leaf"]["ms"] + 1.9
    assert totals["root"]["self_ms"] == pytest.approx(totals["root"]["ms"] - totals["leaf"]["ms"])
    assert totals["leaf"]["self_ms"] == pytest.approx(totals["leaf"]["ms"])


def test_install_restores_every_attribute():
    before = {(id(o), a): inspect.getattr_static(o, a) for o, a, _ in tracing._targets()}
    tr = tracing.Tracer()
    tr.install()
    try:
        assert monitor.run_task is not before[(id(monitor), "run_task")]
    finally:
        tr.uninstall()
    after = {(id(o), a): inspect.getattr_static(o, a) for o, a, _ in tracing._targets()}
    assert after == before


def test_benchmark_json_declares_what_the_run_prints():
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == tracing.metric_units()
