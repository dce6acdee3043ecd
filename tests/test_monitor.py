"""Execution monitoring: world-side actuation, perception seams, the loop's
transition semantics, recovery ranking, trace invariants, and halting."""

import json
import math
import os
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import taskmon
from taskmon import monitor, perception
from conftest import load_packaged_lib, make_tiny_vocab, whole_view
import georacle
from georacle import in_view
from stagings import ALT_SUPPORT, SCENES, STAGINGS, run_chain, stage
from taskmon.actuator import (
    ActionResult,
    ActuationSetupError,
    Actuator,
    Disturbance,
    SimActuator,
    grasp as attach,
    place_on,
    remove_from_workspace,
    translate_object,
    truth_percept,
)
from taskmon.geometry import Box, Camera, Scene, SceneObject, dist
from taskmon.language import Atom, State, StateTooLong, TaskSentence, TokenSeq, Vocabulary
from taskmon.monitor import (
    BeliefVision,
    LiveVision,
    MonitorConfig,
    MonitorSetupError,
    NetGoalSource,
    Outcome,
    ScriptedGoalSource,
    candidate_atoms,
    recover,
    run_task,
    trace_lines,
)
from taskmon.pddl import (
    PlanEntry,
    PlanLibrary,
    TaskChain,
    parse_domain,
    parse_problem,
    validate_library,
)
from taskmon.perception import DetectorModel, Mode, ground_relation, perceive
from taskmon.planning import ground_actions, match_plan, solve
from taskmon.predictor import GoalProposal, TrainingPair, infer_topk, train
from tracesweep import NOISY, RUNS as SWEEP_RUNS, sweep as trace_sweep

DOMAIN = """
(define (domain desk)
  (:requirements :typing :equality)
  (:types item surface - world-ent
          gripper base - robot-ent
          world-ent robot-ent - entity)
  (:predicates (On ?o - item ?s - surface)
               (Holding ?g - gripper ?o - item)
               (Free ?g - gripper)
               (Detected ?x - world-ent)
               (CloseTo ?r - robot-ent ?x - world-ent))
  (:action search
    :class ecological
    :parameters (?x - world-ent)
    :precondition (and)
    :effect (and (Detected ?x)))
  (:action approach
    :class world
    :parameters (?g - gripper ?x - world-ent)
    :precondition (and (Detected ?x))
    :effect (and (CloseTo ?g ?x)))
  (:action grasp
    :class world
    :parameters (?g - gripper ?o - item ?s - surface)
    :precondition (and (Detected ?o) (On ?o ?s) (Free ?g) (CloseTo ?g ?o))
    :effect (and (Holding ?g ?o) (not (On ?o ?s)) (not (Free ?g))))
  (:action place
    :class world
    :parameters (?g - gripper ?o - item ?s - surface)
    :precondition (and (Holding ?g ?o) (Detected ?s) (CloseTo ?g ?s))
    :effect (and (On ?o ?s) (Free ?g) (not (Holding ?g ?o)))))
"""

OBJECTS = "(:objects brush cup - item table shelf - surface hand - gripper rover - base)"

GOALS = {
    "e-search": "(and (Detected brush))",
    "e-found": "(and (Detected brush) (Detected table))",
    "e-pick": "(and (Holding hand brush))",
    "e-place": "(and (On brush shelf) (Free hand))",
}

START = State.parse(["On(brush,table)", "On(cup,table)", "Free(hand)"])


def _problem(name: str, goal: str) -> str:
    return (
        f"(define (problem {name}) (:domain desk) {OBJECTS} "
        f"(:init (On brush table) (On cup table) (Free hand)) (:goal {goal}))"
    )


def of_kind(trace, kind: str) -> list:
    """The trace's events of one kind, in order."""
    return [e for e in trace.events if e.kind == kind]


def make_lib(vocab):
    dom = parse_domain(DOMAIN)
    entries = [PlanEntry(n, dom, parse_problem(_problem(n, g), dom)) for n, g in GOALS.items()]
    return PlanLibrary(entries, vocab, [TaskChain("t-fetch", ("e-found", "e-pick", "e-place"))])


def desk_scene(brush_center=(1.0, 0.0, 0.8)) -> Scene:
    """Desk workspace sized so the start camera sees the tabletop and the
    sweep ring reaches the shelf; every surface stays pitch-compatible with
    the sweep band."""
    mk = Box.from_center
    objs = [
        SceneObject("table", mk((1.0, 0.0, 0.45), (0.8, 0.8, 0.5)), None),
        SceneObject("shelf", mk((0.0, 1.2, 0.45), (0.6, 0.4, 0.6)), None),
        SceneObject("brush", mk(brush_center, (0.08, 0.08, 0.2)), "table"),
        SceneObject("cup", mk((1.15, 0.2, 0.75), (0.1, 0.1, 0.1)), "table"),
        SceneObject("hand", mk((0.35, -0.3, 0.9), (0.12, 0.12, 0.12)), None, proprio=True),
        SceneObject("rover", mk((0.2, 0.0, 0.1), (0.5, 0.4, 0.2)), None, proprio=True),
    ]
    return Scene(objs, Camera(position=(0.0, 0.0, 0.9), yaw=0.0, pitch=-0.3))


def make_desk_vocab(max_atoms: int = 17) -> Vocabulary:
    """The tiny vocabulary with its grasp and detection predicates spelt as
    the library spells them, Holding and Detected: the only spellings
    perception grounds."""
    v = make_tiny_vocab(max_atoms)
    spelling = {"Hold": "Holding", "Found": "Detected"}
    predicates = [replace(p, name=spelling.get(p.name, p.name)) for p in v.predicates.values()]
    return Vocabulary(
        list(v.sorts.values()), list(v.terms.values()), predicates, list(v.tasks.values()), max_atoms
    )


@pytest.fixture(scope="module")
def desk_vocab() -> Vocabulary:
    return make_desk_vocab()


@pytest.fixture(scope="module")
def lib(desk_vocab):
    return make_lib(desk_vocab)


def quiet_cfg(**over) -> MonitorConfig:
    # tau=8 leaves each query room to re-aim at its terms
    base = dict(mu=0.7, tau=8, k=3, seed=7)
    base.update(over)
    return MonitorConfig(**base)


@pytest.mark.parametrize(
    "over",
    [
        {"mu": 0.0},
        {"mu": 1.0},
        {"tau": 0},
        {"k": 0},
        {"max_goals": 0},
        {"frames": 0},
        {"replans": -1},
        {"mu": "0.5"},
        {"mode": "no-depth"},
        {"detector": None},
        {"seed": 1.5},
        {"seed": True},
        {"seed": -1},
        {"tau": 2.5},
        {"k": 3.0},
        {"max_goals": True},
        {"frames": 2.5},
        {"replans": 1.0},
    ],
    ids=[
        "mu-0", "mu-1", "tau-0", "k-0", "max_goals-0", "frames-0", "replans-neg",
        "mu-str", "mode-str", "detector-none", "seed-float", "seed-bool", "seed-neg", "tau-float",
        "k-float", "max_goals-bool", "frames-float", "replans-float",
    ],
)
def test_monitor_config_rejects_out_of_range_settings(over):
    with pytest.raises(ValueError):
        MonitorConfig(**over)


def test_net_goal_source_proposes_from_the_canonical_prefix_of_a_long_state():
    # the encoder takes max_atoms atoms; a longer verified state is cut to
    # its first max_atoms canonical atoms instead of failing to encode
    vocab = make_desk_vocab(max_atoms=3)
    task = vocab.tasks["t-fetch"]
    s = State.parse(
        ["On(brush,table)", "On(cup,shelf)", "Free(hand)", "Detected(brush)", "CloseTo(rover,table)"]
    )
    assert len(s.atoms) == vocab.max_atoms + 2
    head = State.of(s.canonical()[: vocab.max_atoms])
    params, _ = train([TrainingPair.of(task, head, State.parse(["Holding(hand,brush)"]), vocab)], vocab, seed=3)
    with pytest.raises(StateTooLong):
        infer_topk(task, s, params, vocab, 3)
    want = infer_topk(task, head, params, vocab, 3)
    assert want and NetGoalSource(params, vocab).propose(task, s, 3) == want


def test_monitor_config_accepts_its_bounds():
    cfg = MonitorConfig(tau=1, k=1, max_goals=1, frames=1, replans=0)
    assert cfg.frames == 1 and cfg.replans == 0
    # any integral number is an integer setting, a numpy one included
    cfg = MonitorConfig(seed=np.int64(0), frames=np.int32(2), mode=Mode.NO_DEPTH)
    assert cfg.seed == 0 and cfg.frames == 2


def goal_of(lib, name: str) -> State:
    return lib.entry(name).goal_state


def proposals_of(*goals: State) -> list[GoalProposal]:
    return [
        GoalProposal(g, -float(i), i + 1, TokenSeq(())) for i, g in enumerate(goals)
    ]


class FixedGoalSource:
    """Same ranked list on every request."""

    def __init__(self, proposals):
        self._proposals = list(proposals)

    def propose(self, task, s, k):
        return list(self._proposals[:k])


class FailFirst(Actuator):
    def __init__(self, inner):
        self.inner = inner
        self.n = 0

    def execute(self, action):
        self.n += 1
        if self.n == 1:
            return ActionResult(False, "fault")
        return self.inner.execute(action)


def audit(trace):
    """Invariants every trace must satisfy, success or failure."""
    kinds = [e.kind for e in trace.events]
    assert kinds.count("end_task") == 1 and kinds[-1] == "end_task"
    ts = [e.ts for e in trace.events]
    assert ts == sorted(set(ts))
    for i, e in enumerate(trace.events):
        if e.kind == "vision_result":
            assert trace.events[i - 1].kind == "vision_query"
        if e.kind == "action_dispatch":
            prev = trace.events[i - 1]
            assert prev.kind == "vision_result"
            assert prev.payload["holds"] and prev.payload["purpose"] == "precondition"
        if e.kind == "action_result" and e.payload["ok"]:
            nxt = trace.events[i + 1]
            assert nxt.kind == "vision_query" and nxt.payload["purpose"] == "effects"
    if trace.outcome.ok:
        results = [e for e in trace.events if e.kind == "vision_result"]
        assert results[-1].payload["purpose"] == "terminal"
        assert results[-1].payload["holds"]


def run_scripted(lib, scene, goals, terminal, cfg=None, act=None, start=START):
    cfg = cfg or quiet_cfg()
    act = act or SimActuator(scene, lib.vocab, seed=cfg.seed)
    return run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        cfg,
        terminal=terminal,
        start=start,
        goal_source=ScriptedGoalSource(goals),
    )


# --- actuator --------------------------------------------------------------------


def grasp_action(lib):
    dom = lib.entry("e-pick").domain
    objs = lib.entry("e-pick").problem.objects
    acts = {a.name: a for a in ground_actions(dom, objs).actions}
    return acts["grasp(hand,brush,table)"]


def test_actuator_applies_grasp_geometry(lib, desk_vocab):
    scene = desk_scene()
    act = SimActuator(scene, desk_vocab)
    res = act.execute(grasp_action(lib))
    assert res.ok and res.reason == ""
    assert scene.attachments == {"hand": "brush"}
    assert scene.get("brush").box.center == scene.get("hand").box.center
    p = truth_percept(scene)
    assert ground_relation("Holding", ("hand", "brush"), p)
    assert not ground_relation("On", ("brush", "table"), p)


def test_actuator_refuses_unmet_precondition_and_leaves_scene_alone(lib, desk_vocab):
    scene = desk_scene()
    place_on(scene, "brush", "shelf")  # grasp expects On(brush,table)
    before = scene.copy()
    act = SimActuator(scene, desk_vocab)
    res = act.execute(grasp_action(lib))
    assert not res.ok
    assert res.reason == "precondition CloseTo(hand,brush)"  # first unmet in canonical order
    assert scene == before


@pytest.mark.parametrize("holder, held", [("brush", "brush"), ("brush", "hand")])
def test_actuator_refuses_a_hold_that_closes_a_holding_loop(lib, desk_vocab, holder, held):
    # the hand holds the brush; a hold of the brush by itself, or of the hand
    # by the brush, would leave a scene whose translation never ends
    scene = desk_scene()
    act = SimActuator(scene, desk_vocab)
    assert act.execute(grasp_action(lib)).ok
    before = scene.copy()
    hold = Atom("Holding", (holder, held))
    loop = replace(grasp_action(lib), pre=frozenset(), add=frozenset({hold}), delete=frozenset())
    assert act.execute(loop) == ActionResult(False, f"{loop} would close a holding loop")
    assert scene == before


def test_an_effect_naming_no_scene_object_is_refused(lib, desk_vocab):
    # every precondition holds, so the effect is where the missing name shows
    ghost = Atom("Detected", ("ghost",))
    search = replace(grasp_action(lib), pre=frozenset(), add=frozenset({ghost}), delete=frozenset())
    with pytest.raises(ActuationSetupError, match=re.escape("Detected(ghost) names no scene object 'ghost'")):
        SimActuator(desk_scene(), desk_vocab).execute(search)


def test_actuator_fault_stream_is_seeded(lib, desk_vocab):
    ga = grasp_action(lib)
    outcomes = []
    for _ in range(2):
        scene = desk_scene()
        act = SimActuator(scene, desk_vocab, fail_prob=0.5, seed=11)
        outcomes.append([act.execute(ga).reason for _ in range(6)])
    assert outcomes[0] == outcomes[1]
    assert "fault" in outcomes[0]


def test_place_and_approach_effects(lib, desk_vocab):
    scene = desk_scene()
    dom = lib.entry("e-place").domain
    objs = lib.entry("e-place").problem.objects
    acts = {a.name: a for a in ground_actions(dom, objs).actions}
    act = SimActuator(scene, desk_vocab)
    assert act.execute(acts["grasp(hand,brush,table)"]).ok
    assert act.execute(acts["approach(hand,shelf)"]).ok
    hand, shelf = scene.get("hand"), scene.get("shelf")
    assert dist(hand.box.center, shelf.box.center) == pytest.approx(0.48)
    # the held brush rode along
    assert scene.get("brush").box.center == hand.box.center
    assert act.execute(acts["place(hand,brush,shelf)"]).ok
    assert scene.attachments == {}
    p = truth_percept(scene)
    assert ground_relation("On", ("brush", "shelf"), p)
    assert ground_relation("Free", ("hand",), p)


def test_search_effect_aims_camera(lib, desk_vocab):
    scene = desk_scene(brush_center=(1.0, 0.0, 2.2))  # well above the start view
    assert not in_view(scene.camera, scene.get("brush").box.center)
    dom = lib.entry("e-search").domain
    objs = lib.entry("e-search").problem.objects
    acts = {a.name: a for a in ground_actions(dom, objs).actions}
    SimActuator(scene, desk_vocab).execute(acts["search(brush)"])
    assert in_view(scene.camera, scene.get("brush").box.center)


def _spy_looks(monkeypatch) -> list[Camera]:
    """The poses of every LiveVision look from now on, in order."""
    looks = []
    real = monitor.perceive

    def spy(scene_, view, *rest):
        looks.append(view.cam)
        return real(scene_, view, *rest)

    monkeypatch.setattr(monitor, "perceive", spy)
    return looks


def test_scan_ring_follows_the_camera_a_search_effect_re_aims(lib, desk_vocab, monkeypatch):
    scene = desk_scene(brush_center=(1.0, 0.0, 2.2))
    vision = LiveVision(scene, quiet_cfg())
    seen = _spy_looks(monkeypatch)

    def ring(cam):
        steps = math.ceil(2.0 * math.pi / (cam.hfov * 0.85))
        return [cam] + [replace(cam, yaw=cam.yaw + i * cam.hfov * 0.85, pitch=-0.2) for i in range(1, steps + 1)]

    def scan_all():
        # the hand and the rover are robot parts, in view from every pose, and
        # the hand never rests on the rover: the scan visits the whole ring
        seen.clear()
        vision.scan([Atom("On", ("hand", "rover"))])
        return list(seen)

    start = scan_all()
    assert start == ring(scene.camera) and start[0] is scene.camera
    assert all(a is b for a, b in zip(scan_all(), start))  # the same camera keeps its ring
    dom = lib.entry("e-search").domain
    objs = lib.entry("e-search").problem.objects
    acts = {a.name: a for a in ground_actions(dom, objs).actions}
    SimActuator(scene, desk_vocab).execute(acts["search(brush)"])
    aimed = scan_all()
    assert aimed[0] is scene.camera and aimed[0] is not start[0]
    assert aimed == ring(scene.camera) and aimed != start


def test_disturbance_fires_before_scheduled_call(lib, desk_vocab):
    scene = desk_scene()
    d = Disturbance(before_call=2, kind="relocate", obj="cup", dest="shelf")
    act = SimActuator(scene, desk_vocab, disturbances=[d])
    ga = grasp_action(lib)
    act.execute(ga)
    assert ground_relation("On", ("cup", "table"), truth_percept(scene))
    act.execute(ga)  # refused (brush already held) but the world event fires
    assert ground_relation("On", ("cup", "shelf"), truth_percept(scene))


def test_a_chance_disturbance_fires_on_its_stream_first_draw(lib, desk_vocab):
    # prob < 1 takes one draw from the actuator's disturbance stream and fires
    # below prob; prob = 1 fires without drawing. The grasp leaves the cup be
    ga = grasp_action(lib)
    fired = 0
    for seed in range(24):
        for prob in (0.5, 1.0):
            twin = np.random.default_rng([seed, 0xD157])
            fires = prob == 1.0 or twin.random() < prob
            scene = desk_scene()
            act = SimActuator(scene, desk_vocab, seed=seed, disturbances=[Disturbance(1, "remove", "cup", prob=prob)])
            act.execute(ga)
            assert (scene.get("cup").box.center[2] == -50.0) is fires, (seed, prob)
            assert act._drng.bit_generator.state == twin.bit_generator.state, (seed, prob)
            fired += fires and prob < 1.0
    assert 0 < fired < 24


def test_remove_hides_object_from_all_views(desk_vocab):
    scene = desk_scene()
    remove_from_workspace(scene, "brush")
    assert any(o.id == "brush" for o in scene.objects)
    p = truth_percept(scene)
    assert not ground_relation("On", ("brush", "table"), p)
    cam = scene.camera
    assert not in_view(cam, scene.get("brush").box.center)


def test_translate_cascades_to_held_objects(desk_vocab):
    scene = desk_scene()
    scene.attachments["hand"] = "brush"
    before = scene.get("brush").box.center
    translate_object(scene, "hand", (0.1, -0.2, 0.05))
    after = scene.get("brush").box.center
    assert after == pytest.approx(tuple(b + d for b, d in zip(before, (0.1, -0.2, 0.05))))


# --- perception seams --------------------------------------------------------------


def test_candidate_atoms_enumerates_typed_nonreflexive(lib, desk_vocab):
    objs = lib.entry("e-pick").problem.objects
    atoms = candidate_atoms(objs, lib.entry("e-pick").domain.predicates.values(), desk_vocab)
    assert len(atoms) == len(set(atoms)) == 19
    assert Atom("On", ("brush", "shelf")) in atoms
    assert Atom("CloseTo", ("rover", "cup")) in atoms
    assert Atom("Detected", ("hand",)) not in atoms  # grippers are not world-ents
    assert Atom("CloseTo", ("rover", "rover")) not in atoms


def test_live_scan_reaches_off_camera_objects(lib, desk_vocab):
    scene = desk_scene()
    vision = LiveVision(scene, quiet_cfg())
    objs = lib.entry("e-pick").problem.objects
    init = vision.scan(candidate_atoms(objs, lib.entry("e-pick").domain.predicates.values(), desk_vocab))
    assert Atom("On", ("brush", "table")) in init
    assert Atom("Free", ("hand",)) in init
    assert Atom("Detected", ("shelf",)) in init  # behind the start camera; the ring found it
    assert Atom("CloseTo", ("hand", "brush")) in init


def test_live_vision_casts_no_rays(lib, desk_vocab, monkeypatch):
    def no_rays(*args):
        raise AssertionError("depth ray casting on the live vision path")

    monkeypatch.setattr(taskmon.perception, "ray_box", no_rays)
    scene = desk_scene()
    vision = LiveVision(scene, quiet_cfg())
    assert vision.query(State.parse(["On(brush,table)", "Detected(cup)"])) == (True, False)
    objs = lib.entry("e-pick").problem.objects
    init = vision.scan(candidate_atoms(objs, lib.entry("e-pick").domain.predicates.values(), desk_vocab))
    assert Atom("On", ("brush", "table")) in init


@pytest.mark.parametrize("mode", list(Mode))
def test_live_scan_equals_a_look_from_every_pose_at_zero_noise(packaged_lib, mode):
    # the plain scan: perceive from every ring pose and ground every
    # candidate there, for each packaged staging's scene with vision on and
    # off and every type-valid atom over each library entry's objects; and
    # PLAN's scan of each entry's own goal, where a goal atom may repeat a
    # candidate
    held = 0
    for name in SCENES:
        for vision_on in (True, False):
            scene = stage(name, packaged_lib.vocab).scene
            scene.vision_on = vision_on
            cfg = MonitorConfig(mode=mode)
            vision = LiveVision(scene, cfg)
            vision.scan([])  # builds the ring of scan poses
            rng = np.random.default_rng(0)
            looks = [perceive(scene, whole_view(scene, pose, mode), cfg.detector, rng, cfg.frames) for pose in vision._ring]
            for entry in packaged_lib.entries:
                objects = dict(entry.problem.objects)
                candidates = candidate_atoms(objects, entry.domain.predicates.values(), packaged_lib.vocab)
                planned = (*ground_actions(entry.domain, objects).relevant, *entry.problem.goal.atoms)
                for atoms in (candidates, planned):
                    want = {a for a in atoms if any(ground_relation(a.pred, a.args, p) for p in looks)}
                    assert vision.scan(atoms).atoms == want, (name, vision_on, entry.name)
                    held += len(want)
    assert held > 0


def test_a_scan_of_pose_free_atoms_looks_once(monkeypatch):
    # Holding, Free and VisionOn read the grasp state and the vision switch,
    # so the first look decides them, those that fail included
    scene = desk_scene()
    looks = _spy_looks(monkeypatch)
    vision = LiveVision(scene, quiet_cfg())
    atoms = State.parse(["Holding(hand,brush)", "Free(hand)", "Free(rover)", "VisionOn()"]).atoms
    init = vision.scan(atoms)
    assert looks == [scene.camera]
    assert init == State.parse(["Free(hand)", "Free(rover)", "VisionOn()"])


def test_a_scan_skips_a_pose_that_sees_no_remaining_candidate(monkeypatch):
    # no scene object carries ghost, and the shelf is behind the start
    # camera: after the first look the scan looks only from the first pose
    # that sees the shelf. A skipped pose perceives and draws nothing, and
    # each look detects only the shelf, the one object carrying a term
    scene = desk_scene()
    looks = _spy_looks(monkeypatch)
    cfg = quiet_cfg(detector=DetectorModel(tp_rate=0.99, px_jitter=1.0, depth_sigma=0.02))
    vision = LiveVision(scene, cfg)
    init = vision.scan([Atom("Detected", ("ghost",)), Atom("Detected", ("shelf",))])
    assert init == State.parse(["Detected(shelf)"])
    ring = vision._ring
    shelf = [scene.get("shelf")]
    sees = ["shelf" in perception.in_view(scene, pose, shelf, cfg.mode).labels for pose in ring]
    k = sees.index(True)
    assert k > 1 and looks == [ring[0], ring[k]]
    twin = np.random.default_rng([cfg.seed, 0x515C])
    for pose in looks:
        perceive(scene, perception.in_view(scene, pose, shelf, cfg.mode), cfg.detector, twin, cfg.frames)
    assert vision._rng.bit_generator.state == twin.bit_generator.state


def test_belief_vision_snapshot_goes_stale(lib, desk_vocab):
    scene = desk_scene()
    objs = lib.entry("e-pick").problem.objects
    cand = candidate_atoms(objs, lib.entry("e-pick").domain.predicates.values(), desk_vocab)
    belief = BeliefVision(scene, cand)
    assert belief.query(State.parse(["On(cup,table)"])) == (True, False)
    place_on(scene, "cup", "shelf")
    assert belief.query(State.parse(["On(cup,table)"])) == (True, False)  # never re-observed
    live = LiveVision(scene, quiet_cfg())
    assert live.query(State.parse(["On(cup,table)"]))[0] is False
    # atoms first read after the world changed answer from the snapshot
    # taken at construction too, boxes and grasp state alike
    attach(scene, "hand", "brush")
    moved = State.parse(["On(cup,shelf)", "Holding(hand,brush)"])
    now = truth_percept(scene)
    assert all(ground_relation(a.pred, a.args, now) for a in moved.atoms)
    assert belief.scan(moved.atoms) == State()
    assert belief.query(State.parse(["On(brush,table)", "Free(hand)"])) == (True, False)


def test_belief_vision_tracks_own_effects(lib, desk_vocab):
    scene = desk_scene()
    objs = lib.entry("e-pick").problem.objects
    cand = candidate_atoms(objs, lib.entry("e-pick").domain.predicates.values(), desk_vocab)
    belief = BeliefVision(scene, cand)
    # On(brush,table) is deleted before its first read
    belief.note_effects(
        add=[Atom("Holding", ("hand", "brush"))], delete=[Atom("On", ("brush", "table"))]
    )
    assert belief.query(State.parse(["Holding(hand,brush)"]))[0]
    assert not belief.query(State.parse(["On(brush,table)"]))[0]
    assert belief.scan(cand) == belief.scan(cand)  # snapshot semantics: stable
    # deletes apply before adds, so an atom both deleted and added holds
    on, free = Atom("On", ("brush", "shelf")), Atom("Free", ("hand",))
    belief.note_effects(add=[on, free], delete=[on, free])
    assert belief.query(State.of([on, free])) == (True, False)


def test_belief_vision_holds_only_candidates(desk_vocab):
    # On(cup,table) holds in the world but is no candidate
    scene = desk_scene()
    assert ground_relation("On", ("cup", "table"), truth_percept(scene))
    belief = BeliefVision(scene, [Atom("On", ("brush", "table"))])
    assert belief.query(State.parse(["On(cup,table)"])) == (False, False)
    both = [Atom("On", ("cup", "table")), Atom("On", ("brush", "table"))]
    assert belief.scan(both) == State.parse(["On(brush,table)"])


def test_belief_vision_refuses_an_unknown_predicate_at_construction():
    scene = desk_scene()
    with pytest.raises(perception.UnknownPredicate, match="Under"):
        BeliefVision(scene, [Atom("On", ("cup", "table")), Atom("Under", ("cup", "table"))])
    # a wrong arity is a fault of the atom, not of the rule table: it is
    # grounded, and refused, only when first read
    belief = BeliefVision(scene, [Atom("On", ("cup",))])
    with pytest.raises(ValueError):
        belief.query(State.parse(["On(cup)"]))


# --- recovery helper ---------------------------------------------------------------


def test_recover_picks_next_matching_unfailed(lib):
    failed = goal_of(lib, "e-place")
    props = proposals_of(
        goal_of(lib, "e-place"),  # rank 1: just failed
        State.parse(["Holding(rover,table)"]),  # rank 2: type-invalid, never matches
        goal_of(lib, "e-pick"),  # rank 3: the one to pick
    )
    i, ms = recover(props, lib, [failed])
    assert ms.entry.name == "e-pick" and props[i].rank == 3
    assert recover(props[:2], lib, [failed]) is None
    # goals failed earlier in the run are skipped too
    assert recover(props, lib, [failed, goal_of(lib, "e-pick")]) is None
    # selection resumes from the given index
    assert recover(props, lib, [], start=1)[0] == 2


def test_recover_exhausted_returns_none(lib):
    failed = goal_of(lib, "e-pick")
    assert recover(proposals_of(goal_of(lib, "e-pick")), lib, [failed]) is None


# three different proposals that all match e-pick's goal, Holding(hand,brush)
PICK_ALIASES = (
    State.parse(["Holding(hand,brush)"]),
    State.parse(["Holding(hand,brush)", "Free(rover)"]),
    State.parse(["Holding(hand,brush)", "Detected(hand)"]),
)


def test_recover_skips_proposals_that_match_a_failed_goal(lib):
    failed = goal_of(lib, "e-pick")
    props = proposals_of(*PICK_ALIASES[1:])
    assert all(match_plan(lib, p.goal).matched_goal == failed for p in props)
    assert recover(props, lib, [failed]) is None
    assert recover(props, lib, [])[0] == 0


# --- the loop: benign run ------------------------------------------------------------


@pytest.fixture(scope="module")
def benign(lib):
    scene = desk_scene()
    goals = [goal_of(lib, n) for n in ("e-found", "e-pick", "e-place")]
    trace = run_scripted(lib, scene, goals, State.parse(["On(brush,shelf)"]))
    return trace, scene


def test_benign_run_succeeds(benign):
    trace, scene = benign
    assert trace.outcome == Outcome("success", "")
    audit(trace)
    # objective check: the terminal goal really holds in the ground truth
    assert ground_relation("On", ("brush", "shelf"), truth_percept(scene))


def test_benign_run_event_shape(benign):
    trace, _ = benign
    assert [e.kind for e in trace.events[:2]] == ["vision_query", "vision_result"]
    assert trace.events[0].payload["purpose"] == "start"
    assert len(of_kind(trace, "goal_reached")) == 3
    assert len(of_kind(trace, "recovery")) == 0
    # e-found is already satisfied (empty plan); e-pick takes one action,
    # e-place approaches then places
    dispatched = [e.payload["action"] for e in of_kind(trace, "action_dispatch")]
    assert dispatched == [
        "grasp(hand,brush,table)",
        "approach(hand,shelf)",
        "place(hand,brush,shelf)",
    ]
    assert all(e.payload["ok"] for e in of_kind(trace, "action_result"))
    assert [rank for _, rank in trace.attempted] == [1, 1, 1]


def test_benign_run_verified_progression(benign):
    trace, _ = benign
    states = trace.verified_states()
    assert [p for p, _ in states] == ["start", "goal", "goal", "goal", "terminal"]
    assert states[0][1] == START
    assert states[2][1] == State.parse(["Holding(hand,brush)"])
    assert states[4][1] == State.parse(["On(brush,shelf)"])


def test_trace_serialization_is_deterministic(lib):
    def one():
        scene = desk_scene()
        goals = [goal_of(lib, n) for n in ("e-found", "e-pick", "e-place")]
        return trace_lines(run_scripted(lib, scene, goals, State.parse(["On(brush,shelf)"])))

    a, b = one(), one()
    assert a == b
    records = [json.loads(line) for line in a]
    assert records[-1]["record"] == "summary"
    assert records[-1]["outcome"] == "success"
    assert all(r["record"] == "event" for r in records[:-1])


def test_search_plan_dispatches_and_succeeds(lib):
    # brush sits too high for the scan ring; only an aimed camera sees it
    scene = desk_scene(brush_center=(1.0, 0.0, 2.2))
    goal = goal_of(lib, "e-search")
    trace = run_scripted(lib, scene, [goal], goal, start=State.parse(["Free(hand)"]))
    assert trace.outcome.ok
    audit(trace)
    assert [e.payload["action"] for e in of_kind(trace, "action_dispatch")] == ["search(brush)"]
    # the search precondition is the empty conjunction: vacuously verified
    pre = [e for e in of_kind(trace, "vision_query") if e.payload["purpose"] == "precondition"]
    assert pre[0].payload["atoms"] == []


# --- the loop: failure and recovery ---------------------------------------------------


def test_missing_object_times_out_at_start(lib):
    scene = desk_scene()
    remove_from_workspace(scene, "brush")
    trace = run_scripted(lib, scene, [goal_of(lib, "e-pick")], goal_of(lib, "e-pick"))
    assert trace.outcome == Outcome("failure", "vision_timeout")
    audit(trace)
    assert trace.events[1].payload["timeout"] is True


def holding_scene() -> Scene:
    """Desk scene pre-staged mid-task: the brush is already in the gripper,
    so e-place plans exactly [approach(hand,shelf), place(hand,brush,shelf)]."""
    scene = desk_scene()
    attach(scene, "hand", "brush")
    return scene


def test_mid_run_disturbance_recovers_to_rank_two(lib, desk_vocab):
    # the brush vanishes as the hand approaches the shelf: place's
    # precondition can never be verified and rank 2 takes over
    scene = holding_scene()
    act = SimActuator(
        scene,
        desk_vocab,
        seed=7,
        disturbances=[Disturbance(before_call=1, kind="remove", obj="brush")],
    )
    source = FixedGoalSource(
        proposals_of(goal_of(lib, "e-place"), State.parse(["Holding(hand,cup)"]))
    )
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        quiet_cfg(),
        terminal=State.parse(["Holding(hand,cup)"]),
        start=State.parse(["Holding(hand,brush)"]),
        goal_source=source,
    )
    assert trace.outcome.ok
    audit(trace)
    recoveries = of_kind(trace, "recovery")
    assert len(recoveries) == 1
    assert recoveries[0].payload["reason"] == "precondition_unverified"
    assert [e.payload["rank"] for e in of_kind(trace, "proposal_selected")] == [1, 2]
    assert [rank for _, rank in trace.attempted] == [1, 2]
    # rank 2 matched e-pick under brush->cup renaming
    assert of_kind(trace, "proposal_selected")[1].payload["entry"] == "e-pick"
    assert ground_relation("Holding", ("hand", "cup"), truth_percept(scene))


def test_all_proposals_exhausted_after_timeout(lib, desk_vocab):
    scene = holding_scene()
    act = SimActuator(
        scene,
        desk_vocab,
        seed=7,
        disturbances=[Disturbance(before_call=1, kind="remove", obj="brush")],
    )
    source = FixedGoalSource(proposals_of(goal_of(lib, "e-place")))
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        quiet_cfg(),
        terminal=goal_of(lib, "e-place"),
        start=State.parse(["Holding(hand,brush)"]),
        goal_source=source,
    )
    assert trace.outcome == Outcome("failure", "vision_timeout")
    audit(trace)
    assert len(of_kind(trace, "recovery")) == 1


def test_transient_actuator_fault_replans_same_goal(lib, desk_vocab):
    scene = desk_scene()
    act = FailFirst(SimActuator(scene, desk_vocab, seed=7))
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        quiet_cfg(),
        terminal=State.parse(["Holding(hand,brush)"]),
        start=START,
        goal_source=ScriptedGoalSource([goal_of(lib, "e-pick")]),
    )
    assert trace.outcome.ok
    audit(trace)
    oks = [e.payload["ok"] for e in of_kind(trace, "action_result")]
    assert oks == [False, True]
    # re-planning retries the same goal: one selection, no recovery
    assert len(of_kind(trace, "proposal_selected")) == 1
    assert len(of_kind(trace, "recovery")) == 0


def test_plan_relying_on_stale_proximity_is_caught_before_dispatch(lib):
    # the scan confirms CloseTo(hand,brush), so e-place plans approach(hand,shelf)
    # then grasp; approach never deletes the CloseTo it falsifies, and only the
    # PRE vision gate stands between the stale atom and a dispatched grasp
    g = goal_of(lib, "e-place")
    trace = run_scripted(lib, desk_scene(), [g], g)
    assert trace.outcome == Outcome("failure", "proposals_exhausted")
    audit(trace)  # nothing dispatched on an unverified precondition
    recoveries = of_kind(trace, "recovery")
    assert len(recoveries) == 1
    assert recoveries[0].payload["reason"] == "precondition_unverified"
    dispatched = [e.payload["action"] for e in of_kind(trace, "action_dispatch")]
    assert "grasp(hand,brush,table)" not in dispatched


def test_persistent_actuator_fault_exhausts_replans_then_recovers(lib, desk_vocab):
    scene = desk_scene()
    act = SimActuator(scene, desk_vocab, fail_prob=1.0, seed=7)
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        quiet_cfg(),
        terminal=State.parse(["Holding(hand,brush)"]),
        start=START,
        goal_source=ScriptedGoalSource([goal_of(lib, "e-pick")]),
    )
    assert trace.outcome == Outcome("failure", "proposals_exhausted")
    audit(trace)
    results = of_kind(trace, "action_result")
    assert [e.payload["reason"] for e in results] == ["fault", "fault"]  # first try + one re-plan
    recoveries = of_kind(trace, "recovery")
    assert len(recoveries) == 1
    assert recoveries[0].payload["reason"] == "action_failed: fault"


# --- the loop: the verified set ------------------------------------------------------


def gate_ctx(lib, scene, act, terminal=State(frozenset())):
    cfg = quiet_cfg()
    return monitor.MonitorContext(
        cfg, lib, LiveVision(scene, cfg), ScriptedGoalSource([]), act,
        lib.vocab.tasks["t-fetch"], terminal, START,
    )


def count_looks(monkeypatch) -> list:
    """Record the pose of every perceive call a query or a scan makes."""
    looks = []
    real = monitor.perceive

    def counted(*args, **kwargs):
        looks.append(args[1].cam)
        return real(*args, **kwargs)

    monkeypatch.setattr(monitor, "perceive", counted)
    monkeypatch.setattr(taskmon.perception, "perceive", counted)
    return looks


def test_a_gate_verified_since_the_last_dispatch_makes_no_look(lib, desk_vocab, monkeypatch):
    # the goal and the terminal state inside it were verified since the last
    # dispatch: neither check looks or draws, and both still report a result
    scene = desk_scene()
    goal = goal_of(lib, "e-found")
    ctx = gate_ctx(lib, scene, SimActuator(scene, desk_vocab, seed=7), terminal=goal)
    state = monitor.LoopState(
        phase=monitor.Phase.GOAL, match=match_plan(lib, goal), verified=goal.atoms
    )
    looks = count_looks(monkeypatch)
    drawn = ctx.vision._rng.bit_generator.state
    ev = monitor._Emitter()
    nxt = monitor.step(state, ctx, ev)
    assert nxt.outcome == Outcome("success", "")
    assert looks == [] and ctx.vision._rng.bit_generator.state == drawn
    results = [e.payload for e in ev.events if e.kind == "vision_result"]
    assert [(r["purpose"], r["holds"], r["looked"]) for r in results] == [
        ("goal", True, False),
        ("terminal", True, False),
    ]
    # with nothing verified the same goal check looks
    monitor.step(replace(state, verified=frozenset()), ctx, monitor._Emitter())
    assert looks and ctx.vision._rng.bit_generator.state != drawn


def test_a_pose_tests_each_object_once_however_many_looks_it_serves(monkeypatch):
    # a look is `in_view` then `perceive`, and detection does not test again:
    # a noisy query re-looks from its aimed pose several times and tests its
    # terms' objects there once, and a scan tests each watched object once at
    # each ring pose it reaches, looked from or skipped
    tested = Counter()
    real = Camera.view

    def spy(cam, p):
        tested[cam, p] += 1
        return real(cam, p)

    monkeypatch.setattr(Camera, "view", spy)
    looks = count_looks(monkeypatch)
    scene = desk_scene()
    vision = LiveVision(scene, quiet_cfg(detector=DetectorModel(tp_rate=0.6), seed=3))
    assert vision.query(State.parse(["On(brush,table)"])) == (True, False)
    start, aimed = looks[0], looks[1]
    assert start is scene.camera and looks.count(aimed) == len(looks) - 1 > 1
    terms = [scene.get(i).box.center for i in ("table", "brush")]
    assert tested == Counter({(pose, p): 1 for pose in (start, aimed) for p in terms})

    # the first look holds On(brush,table), so later poses watch the shelf
    # alone, until the one that sees it ends the scan
    tested.clear()
    looks.clear()
    vision = LiveVision(scene, quiet_cfg())
    init = vision.scan([Atom("Detected", ("shelf",)), Atom("On", ("brush", "table"))])
    assert init == State.parse(["Detected(shelf)", "On(brush,table)"])
    ring = vision._ring
    k = ring.index(looks[-1])
    assert looks == [ring[0], ring[k]] and k > 1
    shelf = scene.get("shelf").box.center
    want = Counter({(ring[0], scene.get(i).box.center): 1 for i in ("table", "shelf", "brush")})
    want.update((pose, shelf) for pose in ring[1 : k + 1])
    assert tested == want


class Recording(monitor.VisionSystem):
    """Holds every query and records what was asked."""

    def __init__(self):
        self.asked = []

    def query(self, s):
        self.asked.append(s)
        return True, False


def test_a_partly_covered_gate_asks_its_whole_conjunction(lib, desk_vocab):
    scene = desk_scene()
    goal = goal_of(lib, "e-found")
    ctx = gate_ctx(lib, scene, SimActuator(scene, desk_vocab, seed=7), terminal=goal_of(lib, "e-place"))
    ctx.vision = Recording()
    covered = frozenset({Atom("Detected", ("brush",))})
    state = monitor.LoopState(phase=monitor.Phase.GOAL, match=match_plan(lib, goal), verified=covered)
    ev = monitor._Emitter()
    nxt = monitor.step(state, ctx, ev)
    assert ctx.vision.asked == [goal]
    assert [e.payload["looked"] for e in ev.events if e.kind == "vision_result"] == [True]
    assert nxt.verified == covered | goal.atoms


def test_a_partly_covered_packaged_gate_still_times_out(packaged_lib):
    # the third bring_object chain in NO_DEPTH on the base scene: a gate
    # that is partly covered is asked whole, and its terms do not fit one
    # view; asking only its unverified atoms would end this run in success
    chain = packaged_chain(packaged_lib, "bring_object", 2)
    trace = run_chain(packaged_lib, chain, "base", MonitorConfig(seed=0, mode=Mode.NO_DEPTH))
    assert trace.outcome == Outcome("failure", "vision_timeout")
    audit(trace)
    last = of_kind(trace, "vision_result")[-1].payload
    assert last["timeout"] and last["looked"]


def dispatch_case(kind, scene, desk_vocab):
    if kind == "faulted":
        return SimActuator(scene, desk_vocab, seed=7, fail_prob=1.0)
    if kind == "refused":
        attach(scene, "hand", "cup")  # Free(hand) is false in the world
        return SimActuator(scene, desk_vocab, seed=7)
    # the cup moves to the shelf as grasp is called, and grasp succeeds
    return SimActuator(
        scene, desk_vocab, seed=7,
        disturbances=[Disturbance(before_call=1, kind="relocate", obj="cup", dest="shelf")],
    )


@pytest.mark.parametrize("kind", ["faulted", "refused", "relocated"])
def test_every_dispatch_empties_the_verified_set(lib, desk_vocab, monkeypatch, kind):
    # every atom the step's checks ask is marked verified; the dispatch
    # empties the set, so the next check looks again
    scene = desk_scene()
    act = dispatch_case(kind, scene, desk_vocab)
    ga = grasp_action(lib)
    goal = goal_of(lib, "e-pick")
    ctx = gate_ctx(lib, scene, act)
    state = monitor.LoopState(
        phase=monitor.Phase.STEP, match=match_plan(lib, goal), plan=(ga,), replans_left=1,
        verified=ga.pre | ga.add | goal.atoms,
    )
    looks = count_looks(monkeypatch)
    ev = monitor._Emitter()
    nxt = monitor.step(state, ctx, ev)
    kinds = [e.kind for e in ev.events]
    assert kinds[:3] == ["vision_query", "vision_result", "action_dispatch"]
    assert ev.events[1].payload["looked"] is False
    ok = ev.events[3].payload["ok"]
    assert ok is (kind == "relocated")
    assert bool(looks) is ok
    if ok:
        # the effects check right after the dispatch looks
        assert ev.events[-1].payload["purpose"] == "effects"
        assert ev.events[-1].payload["looked"] is True
        assert nxt.verified == ga.add
    else:
        # a failed dispatch re-plans with nothing verified: the re-planned
        # step's precondition check looks
        assert nxt.phase is monitor.Phase.PLAN and nxt.verified == frozenset()
        again = monitor._Emitter()
        monitor.step(replace(nxt, phase=monitor.Phase.STEP, plan=(ga,), step_idx=0), ctx, again)
        assert again.events[1].payload["purpose"] == "precondition"
        assert again.events[1].payload["looked"] is True and looks


def test_a_success_ends_on_a_terminal_check_that_makes_no_look(lib):
    g = goal_of(lib, "e-pick")
    trace = run_scripted(lib, desk_scene(), [g], g)
    assert trace.outcome.ok
    audit(trace)
    results = of_kind(trace, "vision_result")
    assert results[-1].payload == {
        "purpose": "terminal", "holds": True, "timeout": False,
        "atoms": ["Holding(hand,brush)"], "looked": False,
    }
    assert trace.verified_states()[-1] == ("terminal", g)


class Raising(Actuator):
    def execute(self, action):
        raise RuntimeError("arm offline")


def test_a_raising_actuator_keeps_the_events_before_the_raise(lib):
    # the run owns its events, so the transition that raised keeps its
    # precondition check and its dispatch
    g = goal_of(lib, "e-pick")
    trace = run_scripted(lib, desk_scene(), [g], g, act=Raising())
    assert trace.outcome == Outcome("failure", "internal: RuntimeError: arm offline")
    audit(trace)
    pre, dispatch, end = trace.events[-3:]
    assert pre.kind == "vision_result" and pre.payload["purpose"] == "precondition"
    assert pre.payload["holds"]
    assert dispatch.kind == "action_dispatch"
    assert dispatch.payload == {"action": "grasp(hand,brush,table)", "step": 0}
    assert end.kind == "end_task"


def test_goal_budget_halts_a_cycling_source(lib, desk_vocab):
    scene = desk_scene()
    cfg = quiet_cfg(max_goals=3)
    act = SimActuator(scene, desk_vocab, seed=7)
    source = FixedGoalSource(proposals_of(goal_of(lib, "e-found")))
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        cfg,
        terminal=State.parse(["On(brush,shelf)"]),  # never reached
        start=START,
        goal_source=source,
    )
    assert trace.outcome == Outcome("failure", "goal_budget_exhausted")
    audit(trace)
    assert len(of_kind(trace, "goal_reached")) == 3
    assert len(of_kind(trace, "proposal_selected")) == 3


def test_unplannable_goal_is_selected_once(lib, desk_vocab):
    # without the brush nothing can make On(brush,?s) hold, so e-pick has
    # no plan; the two later proposals match the same goal and are skipped
    scene = desk_scene()
    remove_from_workspace(scene, "brush")
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        SimActuator(scene, desk_vocab, seed=7),
        quiet_cfg(),
        terminal=goal_of(lib, "e-pick"),
        start=State.parse(["Free(hand)"]),
        goal_source=FixedGoalSource(proposals_of(*PICK_ALIASES)),
    )
    assert trace.outcome == Outcome("failure", "proposals_exhausted")
    audit(trace)
    selected = of_kind(trace, "proposal_selected")
    assert [(e.payload["rank"], e.payload["entry"]) for e in selected] == [(1, "e-pick")]
    assert of_kind(trace, "action_dispatch") == []
    # the planning failure is in the trace, right after the selection
    kinds = [e.kind for e in trace.events]
    i = kinds.index("plan_failed")
    assert kinds[i - 1] == "proposal_selected" and kinds[i + 1] == "end_task"
    failed = trace.events[i].payload
    assert failed["reason"] == "no_plan" and "plan_len" not in failed
    assert 0 < failed["init_size"]


@pytest.mark.parametrize("reason", ["budget_exceeded", "too_long"])
def test_plan_failed_names_why_the_goal_was_retired(lib, desk_vocab, monkeypatch, reason):
    long_plan = [grasp_action(lib)] * (monitor.MAX_PLAN_LEN + 1)

    def fake_solve(domain, objects, init, goal):
        if reason == "budget_exceeded":
            raise monitor.BudgetExceeded(17)
        return long_plan

    monkeypatch.setattr(monitor, "solve", fake_solve)
    trace = run_scripted(lib, desk_scene(), [goal_of(lib, "e-pick")], goal_of(lib, "e-pick"))
    assert trace.outcome == Outcome("failure", "proposals_exhausted")
    audit(trace)
    (e,) = of_kind(trace, "plan_failed")
    assert e.payload["reason"] == reason
    if reason == "too_long":
        assert e.payload["plan_len"] == monitor.MAX_PLAN_LEN + 1
    else:
        assert "plan_len" not in e.payload
    assert of_kind(trace, "action_dispatch") == []


def test_empty_script_fails_with_no_proposals(lib, desk_vocab):
    scene = desk_scene()
    trace = run_scripted(lib, scene, [], State.parse(["On(brush,shelf)"]))
    assert trace.outcome == Outcome("failure", "no_proposals")
    audit(trace)


def test_failed_goal_is_never_reselected(lib, desk_vocab):
    # rank 1 fails (brush removed mid-run); rank 2 proposes the same goal
    # state and must be skipped, exhausting the list
    scene = holding_scene()
    act = SimActuator(
        scene,
        desk_vocab,
        seed=7,
        disturbances=[Disturbance(before_call=1, kind="remove", obj="brush")],
    )
    g = goal_of(lib, "e-place")
    source = FixedGoalSource(
        [
            GoalProposal(g, 0.0, 1, TokenSeq(())),
            GoalProposal(g, -1.0, 2, TokenSeq(())),
        ]
    )
    trace = run_task(
        "t-fetch",
        scene,
        lib,
        None,
        act,
        quiet_cfg(),
        terminal=g,
        start=State.parse(["Holding(hand,brush)"]),
        goal_source=source,
    )
    assert not trace.outcome.ok
    audit(trace)
    assert len(of_kind(trace, "proposal_selected")) == 1  # rank 2 repeat was skipped


# --- packaged data ------------------------------------------------------------------

PACKAGED_RUNS = [
    ("bring_object", 0, "base"),
    ("bring_object", 1, "alt:bring_object"),  # the ladder chain
    ("remove_panel", 0, "base"),
    ("support_panel", 0, "base"),
    ("clean_diverter", 0, "base"),
    ("find_object", 0, "base"),
]


def packaged_chain(lib, task_id, chain_idx):
    return [c for c in lib.chains if c.task_id == task_id][chain_idx]


@pytest.mark.parametrize("task_id,chain_idx,staging_name", PACKAGED_RUNS)
def test_packaged_chain_succeeds_on_its_staging(packaged_lib, task_id, chain_idx, staging_name):
    chain = packaged_chain(packaged_lib, task_id, chain_idx)
    trace = run_chain(packaged_lib, chain, staging_name, MonitorConfig(seed=0))
    assert trace.outcome == Outcome("success", ""), trace.outcome
    audit(trace)
    assert len(of_kind(trace, "goal_reached")) == len(chain.goals)


@pytest.mark.parametrize("task_id,chain_idx,staging_name", PACKAGED_RUNS)
def test_packaged_chain_trace_is_seed_deterministic_under_noise(
    packaged_lib, task_id, chain_idx, staging_name
):
    chain = packaged_chain(packaged_lib, task_id, chain_idx)
    cfg = MonitorConfig(seed=3, detector=NOISY)
    first, second = (run_chain(packaged_lib, chain, staging_name, cfg) for _ in range(2))
    audit(first)
    assert not first.outcome.reason.startswith("internal:"), first.outcome
    assert trace_lines(first) == trace_lines(second)


@pytest.mark.parametrize(
    "setup,refused",
    [
        ({"task": "fetch_object"}, "unknown task id 'fetch_object'"),
        ({"task": TaskSentence.of("bring_object", "fetch the zzz")}, "task 'bring_object' is not the vocabulary's"),
        ({"start": State.parse(["Foo(robot)"])}, r"start atoms .*Foo\(robot\)"),
        ({"start": State.parse(["Detected(robot)"])}, r"start atoms .*Detected\(robot\)"),
        ({"terminal": State.parse(["Detected(brush,table)"])}, r"terminal atoms .*Detected\(brush,table\)"),
    ],
    ids=["unknown-task", "foreign-sentence", "start-unknown-predicate", "start-wrong-sort", "terminal-wrong-arity"],
)
def test_run_task_refuses_malformed_setup_before_the_loop(packaged_lib, setup, refused):
    # a task or atom the vocabulary does not type raises at set-up, not as
    # an internal outcome of the loop
    goals = [packaged_lib.entry("boot").goal_state]
    scene = stage("base", packaged_lib.vocab).scene
    args = {"task": "bring_object", "start": None, "terminal": goals[-1], **setup}
    with pytest.raises(MonitorSetupError, match=refused):
        run_task(
            args["task"], scene, packaged_lib, None, SimActuator(scene, packaged_lib.vocab), MonitorConfig(),
            terminal=args["terminal"], start=args["start"], goal_source=ScriptedGoalSource(goals),
        )


def test_grounding_memo_warmth_never_shows_in_a_trace():
    # a library's domains memoise their groundings across tasks; a warm
    # memo, a cold one and one warmed by validate_library give one trace
    cfg = MonitorConfig(seed=0)
    lib = load_packaged_lib()
    chain = packaged_chain(lib, "bring_object", 0)
    traces = [run_chain(lib, chain, "base", cfg) for _ in range(2)]
    assert all(e.domain.groundings for e in lib.entries)  # the memo is warm
    traces.append(run_chain(load_packaged_lib(), chain, "base", cfg))
    validated = load_packaged_lib()
    assert validate_library(validated) == []
    traces.append(run_chain(validated, chain, "base", cfg))
    lines = [trace_lines(t) for t in traces]
    assert traces[0].outcome == Outcome("success", "")
    assert lines[1:] == [lines[0]] * 3


def run_ladder_chain(lib, vision_name):
    # bring_object with the brush staged on the ladder, its ladder chain
    # scripted; locate_brush_ladder matches locate_brush_table under the
    # renaming table -> ladder
    chain = packaged_chain(lib, "bring_object", 1)
    assert chain.goals[1] == "locate_brush_ladder"
    return run_chain(lib, chain, "alt:bring_object", MonitorConfig(seed=0), vision_name)


@pytest.mark.parametrize("vision_name", ["belief", "live"])
def test_match_memo_warmth_never_shows_in_a_trace(vision_name):
    # a library memoises its goals' matches across tasks; two runs on one
    # library, the second served from the memo, and a run on a freshly
    # loaded library give one trace
    lib = load_packaged_lib()
    traces = [run_ladder_chain(lib, vision_name) for _ in range(2)]
    warm = lib.entry("locate_brush_ladder").goal_state
    assert lib.matches[warm].entry.name == "locate_brush_table"
    traces.append(run_ladder_chain(load_packaged_lib(), vision_name))
    lines = [trace_lines(t) for t in traces]
    assert traces[0].outcome == Outcome("success", "")
    assert lines[1:] == [lines[0]] * 2


def test_a_success_has_put_the_panel_down(packaged_lib):
    # remove_panel by its shelf chain, the panel staged on the shelf, under
    # actuator faults: a faulted place leaves the held panel just above the
    # workbench, and a success must not rest on that hold
    chain = ["boot", "locate_panel_shelf", "grab_panel_shelf", "goto_workbench", "stow_panel"]
    goals = [packaged_lib.entry(n).goal_state for n in chain]
    successes = 0
    for seed in range(30):
        cfg = MonitorConfig(seed=seed)
        staging = stage("alt:remove_panel", packaged_lib.vocab)
        scene = staging.scene
        trace = run_task(
            "remove_panel",
            scene,
            packaged_lib,
            None,
            staging.actuator(seed=seed, fail_prob=0.2),
            cfg,
            terminal=goals[-1],
            vision=LiveVision(scene, cfg),
            goal_source=ScriptedGoalSource(goals),
        )
        if trace.outcome.status == "success":
            successes += 1
            assert "panel" not in scene.attachments.values(), f"seed {seed}: the panel is still held"
            assert scene.get("panel").supported_by == "workbench", f"seed {seed}"
    assert successes > 0


# Atoms the plan model keeps true after an action while the world reads them
# false, by (predicate, action), each with the change that removes it. A move
# deletes no proximity, yet it carries the moved robot part away from
# whatever it was near.
MOVE_KEEPS_PROXIMITY = "ROADMAP item 1: a body move clears the proximity of every robot part"
KNOWN_STALE = {
    ("At", "goto"): MOVE_KEEPS_PROXIMITY,
    ("At", "reach"): MOVE_KEEPS_PROXIMITY,
    ("CloseTo", "reach"): MOVE_KEEPS_PROXIMITY,
}


def replay_chain(lib, chain):
    """Run a packaged chain at zero noise: plan each entry with `solve` from
    the truth over every type-valid atom of the entry's objects, and execute
    the plan with SimActuator. A chain with a goal that rests the task's
    object on its alternative support runs on the task's `alt` staging, any
    other on the base. Yields (action, STRIPS successor of the truth before
    it, truth after it) per step; a refused action fails at once. The world
    is read over all of `candidate_atoms`, not the PLAN scan's candidates,
    so that an atom no precondition reads is still compared."""
    alt = ALT_SUPPORT.get(chain.task_id)
    on_alt = alt and any(Atom("On", alt) in lib.entry(n).goal_state.atoms for n in chain.goals)
    staging = stage(f"alt:{chain.task_id}" if on_alt else "base", lib.vocab)
    scene, act = staging.scene, staging.actuator()
    for name in chain.goals:
        entry = lib.entry(name)
        objects = dict(entry.problem.objects)
        candidates = candidate_atoms(objects, entry.domain.predicates.values(), lib.vocab)

        def world() -> set[Atom]:
            p = truth_percept(scene)
            return {a for a in candidates if ground_relation(a.pred, a.args, p)}

        for ga in solve(entry.domain, objects, State.of(world()), entry.goal_state):
            before = world()
            result = act.execute(ga)
            assert result.ok, f"{chain.task_id} {chain.goals}: {ga.name} refused: {result.reason}"
            yield ga, (before - ga.delete) | ga.add, world()


def test_belief_vision_reads_what_eager_grounding_holds(packaged_lib, monkeypatch):
    # each atom read is grounded once, on first read, and answers as
    # grounding every candidate against the snapshot up front would
    lib = packaged_lib
    predicates = {p.name: p for e in lib.entries for p in e.domain.predicates.values()}
    grounded: list[Atom] = []

    def counted(pred, args, percept):
        grounded.append(Atom(pred, args))
        return ground_relation(pred, args, percept)

    monkeypatch.setattr(monitor, "ground_relation", counted)
    for name in SCENES:
        scene = stage(name, lib.vocab).scene
        objects = {o.id: lib.vocab.terms[o.id].sort for o in scene.objects}
        candidates = candidate_atoms(objects, predicates.values(), lib.vocab)
        p = truth_percept(scene)
        eager = {a for a in candidates if ground_relation(a.pred, a.args, p)}
        assert eager, name
        belief = BeliefVision(scene, candidates)
        assert grounded == [], name
        for a in candidates:
            assert belief.query(State.of([a])) == (a in eager, False), f"{name}: {a}"
        assert len(grounded) == len(candidates), name
        assert belief.scan(candidates) == State.of(eager), name
        assert len(grounded) == len(candidates), f"{name}: a repeated read grounded again"
        for e in lib.entries:
            atoms = (*ground_actions(e.domain, e.problem.objects).relevant, *e.goal_state.atoms)
            read = sorted(set(atoms) & set(candidates), key=Atom.key)
            grounded.clear()
            belief = BeliefVision(scene, candidates)
            assert belief.scan(atoms) == State.of(a for a in atoms if a in eager), f"{name}: {e.name}"
            belief.scan(atoms)
            belief.query(State.of(atoms))
            assert sorted(grounded, key=Atom.key) == read, f"{name}: {e.name}"
        grounded.clear()


def test_the_plan_model_agrees_with_the_world_step_by_step(packaged_lib):
    # plan validation against the executor: a stale atom (the model says
    # true, the world false) is one a later step's plan may lean on
    stale: dict[tuple[str, str], list[str]] = {}
    unmodelled: Counter = Counter()
    steps = 0
    for chain in packaged_lib.chains:
        for ga, model, world in replay_chain(packaged_lib, chain):
            steps += 1
            for a in sorted(model - world, key=Atom.key):
                stale.setdefault((a.pred, ga.schema.name), []).append(f"{a} after {ga.name}")
            unmodelled.update(a.pred for a in world - model)
    # the world makes atoms the model does not add (a move brings
    # proximity); the next scan re-reads them, so they only inform. A hand
    # the model leaves busy could not grasp again, so Free is always modelled
    report = f"{steps} steps; unmodelled atoms (world true, model false): {dict(sorted(unmodelled.items()))}"
    assert unmodelled["Free"] == 0, report
    assert {k: v for k, v in stale.items() if k not in KNOWN_STALE} == {}, report
    assert sorted(set(KNOWN_STALE) - set(stale)) == [], f"known stale atoms no longer occur; {report}"


def test_relocate_to_an_unknown_destination_is_refused_at_setup(packaged_lib):
    with pytest.raises(ActuationSetupError, match="nowhere"):
        stage("base", packaged_lib.vocab).actuator(Disturbance(1, "relocate", "brush", dest="nowhere"))


def test_removing_an_unknown_object_is_refused_at_setup(packaged_lib):
    with pytest.raises(ActuationSetupError, match="ghost"):
        stage("base", packaged_lib.vocab).actuator(Disturbance(1, "remove", "ghost"))


@pytest.mark.parametrize(
    "disturbance,unknown",
    [
        (Disturbance(1, "relocate", "brush", dest="nowhere"), "nowhere"),
        (Disturbance(1, "relocate", "ghost", dest="ladder"), "ghost"),
        (Disturbance(1, "remove", "ghost"), "ghost"),
        (Disturbance(1, "nudge", "ghost", offset=(0.1, 0.0, 0.0)), "ghost"),
    ],
    ids=["relocate-dest", "relocate-obj", "remove", "nudge"],
)
def test_applying_a_disturbance_with_an_unknown_id_is_refused(packaged_lib, disturbance, unknown):
    # staged straight through apply_disturbance, as scenario set-up does:
    # the same check as the constructor's, before any edit
    act = stage("base", packaged_lib.vocab).actuator()
    before = [(o.id, o.box, o.supported_by) for o in act.scene.objects]
    with pytest.raises(ActuationSetupError, match=f"{disturbance.kind} disturbance names no scene object '{unknown}'"):
        act.apply_disturbance(disturbance)
    assert [(o.id, o.box, o.supported_by) for o in act.scene.objects] == before


def test_nudge_offset_must_be_three_numbers(packaged_lib):
    with pytest.raises(ValueError, match="3 numbers"):
        Disturbance(1, "nudge", "brush", offset=(0.1, 0.2))
    with pytest.raises(ValueError, match="3 numbers"):
        Disturbance(1, "nudge", "brush", offset=(0.1, "up", 0.0))
    for bad in (5, (True, 0, 0), "xyz"):
        with pytest.raises(ValueError, match=r"offset .* is not 3 numbers"):
            Disturbance(1, "nudge", "brush", offset=bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not finite"):
            Disturbance(2, "nudge", "brush", offset=(bad, 0.0, 0.0))
    stage("base", packaged_lib.vocab).actuator(Disturbance(1, "nudge", "brush", offset=(0.1, 0.2, 0)))


def test_disturbance_call_index_is_a_positive_int():
    # a call index that is never an int would never fire
    for bad in (1.5, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an int"):
            Disturbance(bad, "remove", "brush")
    with pytest.raises(ValueError, match="1-based"):
        Disturbance(0, "remove", "brush")
    assert Disturbance(3, "remove", "brush").before_call == 3


@pytest.mark.parametrize("index", [np.int64(2), np.uint8(2)], ids=["int64", "uint8"])
def test_a_numpy_call_index_fires_at_its_call(packaged_lib, index):
    entry = packaged_lib.entry("locate_brush_table")
    look = next(ga for ga in ground_actions(entry.domain, entry.problem.objects).actions if ga.name == "look_for(robot,table)")
    act = stage("base", packaged_lib.vocab).actuator(Disturbance(index, "relocate", "brush", dest="shelf"))
    supports = []
    for _ in range(3):
        assert act.execute(look).ok
        supports.append(act.scene.get("brush").supported_by)
    assert supports[0] != "shelf" and supports[1:] == ["shelf", "shelf"]


def test_relocate_onto_itself_is_refused():
    with pytest.raises(ValueError, match="onto itself"):
        Disturbance(1, "relocate", "brush", dest="brush")


@pytest.mark.parametrize(
    "setting",
    [
        {"seed": 1.5},
        {"seed": -1},
        {"seed": True},
        {"seed": "3"},
        {"fail_prob": "0.1"},
        {"fail_prob": True},
        {"fail_prob": -0.1},
        {"fail_prob": 1.5},
        {"fail_prob": math.nan},
    ],
    ids=[
        "seed-float", "seed-neg", "seed-bool", "seed-str", "fail_prob-str", "fail_prob-bool",
        "fail_prob-neg", "fail_prob-over1", "fail_prob-nan",
    ],
)
def test_sim_actuator_rejects_a_malformed_setting_by_name(desk_vocab, setting):
    (name, value), = setting.items()
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {re.escape(repr(value))}$"):
        SimActuator(desk_scene(), desk_vocab, **setting)


def test_sim_actuator_accepts_integral_seeds_and_real_probabilities(desk_vocab):
    for setting in ({"seed": np.int64(3)}, {"seed": 0}, {"fail_prob": 1}, {"fail_prob": np.float64(0.5)}):
        SimActuator(desk_scene(), desk_vocab, **setting)


@pytest.mark.parametrize(
    "prob",
    ["0.5", True, -0.1, 1.5, math.nan],
    ids=["str", "bool", "neg", "over1", "nan"],
)
def test_disturbance_prob_is_a_number_in_the_unit_interval(prob):
    with pytest.raises(ValueError, match=rf"^prob must be a number in \[0, 1\], got {re.escape(repr(prob))}$"):
        Disturbance(1, "remove", "brush", prob=prob)


def pinned_sweep() -> list[str]:
    with open(os.path.join(os.path.dirname(__file__), "tracesweep.tsv")) as f:
        return f.read().splitlines()


def test_trace_sweep_matches_its_pinned_rows():
    # tests/tracesweep.tsv is the sweep's output; a change that moves a trace
    # or an outcome shows here row by row, and rewrites that file on purpose
    pinned = pinned_sweep()
    rows = ["\t".join(row) for row in trace_sweep()]
    assert len(rows) == len(pinned)
    assert [(want, got) for want, got in zip(pinned, rows) if want != got] == []


def test_named_stagings_are_distinct_worlds_run_once_each_in_the_sweep(packaged_lib):
    # a world is the boxes, supports, attachments and disturbance schedule;
    # two stagings of one world, or two pinned rows of one (vision, detector,
    # chain, staging), would be duplicate runs
    def world(name):
        staged = stage(name, packaged_lib.vocab)
        objects = tuple((o.id, o.box, o.supported_by) for o in staged.scene.objects)
        return objects, tuple(sorted(staged.scene.attachments.items())), staged.disturbances

    assert len({world(name) for name in STAGINGS}) == len(STAGINGS)
    keys = Counter(tuple(row.split("\t")[:4]) for row in pinned_sweep())
    assert [k for k, n in keys.items() if n > 1] == []
    runs: dict[tuple[str, str], set] = {}
    for vision, detector, chain, staging in keys:
        runs.setdefault((chain, staging), set()).add((vision, detector))
    assert {staging for _, staging in runs} == set(STAGINGS)
    assert {frozenset(r) for r in runs.values()} == {frozenset((v, d) for v, _, d, _ in SWEEP_RUNS)}


# --- halting fuzz ---------------------------------------------------------------------


def test_fuzzed_runs_always_halt_within_bound(lib, desk_vocab):
    rng = np.random.default_rng(2024)
    goal_pool = [goal_of(lib, n) for n in GOALS]
    for trial in range(40):
        scene = desk_scene()
        # random benign-or-hostile world edits
        if rng.random() < 0.3:
            remove_from_workspace(scene, str(rng.choice(["brush", "cup"])))
        disturbances = []
        if rng.random() < 0.5:
            disturbances.append(
                Disturbance(
                    before_call=int(rng.integers(1, 4)),
                    kind=str(rng.choice(["remove", "relocate", "nudge"])),
                    obj=str(rng.choice(["brush", "cup"])),
                    dest="shelf",
                    offset=(float(rng.normal(0, 0.3)), float(rng.normal(0, 0.3)), 0.0),
                )
            )
        cfg = MonitorConfig(
            mu=float(rng.uniform(0.5, 0.9)),
            tau=int(rng.integers(1, 4)),
            k=int(rng.integers(1, 4)),
            max_goals=int(rng.integers(2, 6)),
            seed=int(rng.integers(0, 2**16)),
            mode=Mode(rng.choice([m.value for m in Mode])),
            detector=DetectorModel(
                tp_rate=float(rng.uniform(0.6, 1.0)),
                px_jitter=float(rng.uniform(0.0, 2.0)),
                depth_sigma=float(rng.uniform(0.0, 0.02)),
            ),
            frames=5,
            replans=int(rng.integers(0, 2)),
        )
        n_goals = int(rng.integers(0, 4))
        goals = [goal_pool[i] for i in rng.integers(0, len(goal_pool), n_goals)]
        act = SimActuator(
            scene,
            desk_vocab,
            fail_prob=float(rng.uniform(0.0, 0.6)),
            seed=cfg.seed,
            disturbances=disturbances,
        )
        trace = run_task(
            "t-fetch",
            scene,
            lib,
            None,
            act,
            cfg,
            terminal=goal_of(lib, "e-place"),
            start=State.parse(["Free(hand)"]),
            goal_source=ScriptedGoalSource(goals),
        )
        assert trace.outcome is not None, f"trial {trial} did not conclude"
        audit(trace)
        assert not trace.outcome.reason.startswith("internal:"), trace.outcome
        # generous event bound implied by the transition budget
        assert len(trace.events) <= 5 * cfg.step_budget


def fuzz_case(lib, rng: np.random.Generator) -> dict:
    """One packaged run drawn from `rng`: a library chain as scripted goals,
    a named staging, up to two more relocate, remove or nudge disturbances
    on its world objects, each scheduled on the actuator or applied before
    the run, and a drawn fault rate, mode and detector."""
    chain = lib.chains[int(rng.integers(len(lib.chains)))]
    staging = STAGINGS[int(rng.integers(len(STAGINGS)))]
    world = [o.id for o in stage(staging, lib.vocab).scene.objects if not o.proprio]
    staged, scheduled = [], []
    for _ in range(int(rng.integers(0, 3))):
        kind = ("relocate", "remove", "nudge")[int(rng.integers(3))]
        obj, dest = (world[i] for i in rng.choice(len(world), 2, replace=False))
        shift = (float(rng.normal(0, 0.3)), float(rng.normal(0, 0.3)), 0.0)
        d = Disturbance(
            before_call=int(rng.integers(1, 6)),
            kind=kind,
            obj=obj,
            dest=dest if kind == "relocate" else None,
            offset=shift if kind == "nudge" else (0.0, 0.0, 0.0),
        )
        (staged if rng.random() < 0.3 else scheduled).append(d)
    return dict(
        chain=chain,
        staging=staging,
        staged=staged,
        scheduled=scheduled,
        fail_prob=float(rng.uniform(0.0, 0.3)) if rng.random() < 0.5 else 0.0,
        mode=list(Mode)[int(rng.integers(len(Mode)))],
        noisy=bool(rng.random() < 0.5),
        seed=int(rng.integers(2**16)),
    )


def run_fuzz_case(lib, case: dict):
    goals = [lib.entry(n).goal_state for n in case["chain"].goals]
    staging = stage(case["staging"], lib.vocab)
    scene = staging.scene
    detector = NOISY if case["noisy"] else DetectorModel()
    cfg = MonitorConfig(seed=case["seed"], mode=case["mode"], detector=detector)
    act = staging.actuator(*case["scheduled"], fail_prob=case["fail_prob"], seed=case["seed"])
    for d in case["staged"]:
        act.apply_disturbance(d)
    trace = run_task(
        case["chain"].task_id, scene, lib, None, act, cfg,
        terminal=goals[-1], vision=LiveVision(scene, cfg), goal_source=ScriptedGoalSource(goals),
    )
    return trace, scene, goals[-1], cfg


def test_packaged_fuzz_halts_replays_and_succeeds_only_in_the_world(packaged_lib):
    # seeded runs over the packaged chains and stagings under random world
    # edits, faults, modes and detectors: each halts within its budget, never
    # ends internally, passes the audit, replays to the same trace, and with
    # the zero-noise detector succeeds only when every terminal atom holds in
    # the true scene
    rng = np.random.default_rng(0xF022)
    outcomes = Counter()
    for trial in range(600):
        case = fuzz_case(packaged_lib, rng)
        trace, scene, terminal, cfg = run_fuzz_case(packaged_lib, case)
        where = f"trial {trial}: {case}"
        assert not trace.outcome.reason.startswith("internal:"), where
        assert len(trace.events) <= 5 * cfg.step_budget, where
        audit(trace)
        assert trace_lines(run_fuzz_case(packaged_lib, case)[0]) == trace_lines(trace), where
        if trace.outcome.ok and not case["noisy"]:
            false = [a for a in terminal.canonical() if not georacle.world_truth(a.pred, a.args, scene)]
            assert false == [], where
        outcomes[trace.outcome.status] += 1
    assert outcomes["success"] > 0 and outcomes["failure"] > 0
