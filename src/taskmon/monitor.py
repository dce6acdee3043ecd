"""Closed-loop execution monitoring over vision-verified symbolic states.

The loop alternates between two moves, always gated by perception: with
no active plan it asks the goal predictor for ranked candidate goals and
matches one against the plan library; with an active plan it runs each
action as one check-act-check, verifying its precondition, dispatching it
and verifying its add effects. Once the plan is done it verifies the
goal, and when that goal contains the task's terminal state it checks
the terminal state too and succeeds. The world changes only when an
action is dispatched, so a check whose atoms were all verified since the
last dispatch makes no look and draws nothing; it still emits its query
and result events, the result saying no look was made. The terminal check
is always such a check. Any verification failure
triggers recovery: the failed goal is retired for the rest of the run and
the next-ranked matchable proposal takes over. A goal that cannot be planned
is retired the same way, with a `plan_failed` event in place of the
recovery event, and a proposal is never selected when the library goal it
matches has been retired.

`step` performs exactly one such transition on an immutable LoopState, so
every run is a fold; no transition mutates a field. `run_task` drives it to
termination within `MonitorConfig.step_budget` transitions, owns the run's
events, stamping each event's `ts` with its index in the run, and never
raises, reporting all failures through the trace outcome. Perception, goal
proposal, and actuation are injected seams: LiveVision re-detects from the
current camera each query, BeliefVision answers from a snapshot updated
only by the robot's own believed effects, NetGoalSource wraps the trained
predictor, ScriptedGoalSource replays a fixed goal order.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

import numpy as np

from .actuator import Actuator, truth_percept
from .geometry import Camera, Scene
from .language import Atom, Predicate, State, TaskSentence, TokenSeq, Vocabulary, check_int
from .pddl import PlanLibrary
from .perception import (
    GROUNDED_PREDICATES,
    TERM_PREDICATES,
    DetectorModel,
    Mode,
    UnknownPredicate,
    check_query_settings,
    ground_relation,
    in_view,
    perceive,
    query_vision,
)
from .planning import (
    BudgetExceeded,
    EmptyLibrary,
    GroundAction,
    MatchScore,
    NoMatch,
    NoPlan,
    ground_actions,
    match_plan,
    solve,
)
from .predictor import GoalNetParams, GoalProposal, NoValidProposal, infer_topk


class MonitorSetupError(Exception):
    pass


EVENT_KINDS = frozenset(
    {
        "vision_query",
        "vision_result",
        "action_dispatch",
        "action_result",
        "goal_reached",
        "proposal_requested",
        "proposal_selected",
        "plan_failed",
        "recovery",
        "end_task",
    }
)


# The longest plan PLAN accepts; a longer one retires its goal as a failed
# plan does. It also sizes `MonitorConfig.step_budget`.
MAX_PLAN_LEN = 40


@dataclass(frozen=True)
class MonitorConfig:
    """mu/tau gate perception exactly as in query_vision; k bounds how many
    ranked goals one request may return; max_goals bounds goal selections
    per run; replans bounds re-planning after an actuator failure. `seed`
    seeds the one perception stream of a run, which LiveVision owns and
    passes to every query and scan; `detector` holds only noise levels;
    `frames` is the batch each look votes over. The planner's search
    budget is `solve`'s own default. A setting of the wrong type or out of
    range raises ValueError here, not mid-run."""

    mu: float = 0.7
    tau: int = 5
    k: int = 3
    max_goals: int = 12
    seed: int = 0
    mode: Mode = Mode.FULL
    detector: DetectorModel = field(default_factory=DetectorModel)
    frames: int = 10
    replans: int = 1

    def __post_init__(self):
        check_query_settings(self.mu, self.tau, self.mode)
        for name in ("seed", "tau", "k", "max_goals", "frames", "replans"):
            check_int(name, getattr(self, name), 0 if name in ("seed", "replans") else 1)
        if not isinstance(self.detector, DetectorModel):
            raise ValueError(f"detector must be a DetectorModel, got {self.detector!r}")

    @property
    def step_budget(self) -> int:
        """Hard bound on loop transitions. A selected goal costs one
        transition for its request, selection and goal check each, one per
        plan, and one per plan action. The bound leaves each goal room for
        three full-length plans, the first and two re-plans after actuator
        failures, so only a run with `replans` above 2 can exhaust it."""
        return self.max_goals * (3 * MAX_PLAN_LEN + self.tau + 16)


@dataclass(frozen=True)
class Outcome:
    status: str  # success | failure
    reason: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "success"


@dataclass(frozen=True)
class MonitorEvent:
    ts: int
    kind: str
    payload: dict

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class ExecutionTrace:
    task: str
    events: tuple[MonitorEvent, ...]
    outcome: Outcome
    attempted: tuple[tuple[str, int], ...]  # (goal text, proposal rank)

    def verified_states(self) -> list[tuple[str, State]]:
        """Goal-level states confirmed by vision, in order: the start state,
        each reached goal, and the terminal check when it passed."""
        out = []
        for e in self.events:
            if e.kind != "vision_result" or not e.payload.get("holds"):
                continue
            if e.payload.get("purpose") in ("start", "goal", "terminal"):
                out.append((e.payload["purpose"], State.parse(e.payload["atoms"])))
        return out


def _atom_strs(s: State) -> list[str]:
    return [str(a) for a in s.canonical()]


def candidate_atoms(
    objects: dict[str, str], predicates: Iterable[Predicate], vocab: Vocabulary
) -> list[Atom]:
    """Every type-valid ground atom over the given object set, excluding
    reflexive binaries: the hypothesis space of a world snapshot. The PLAN
    scan grounds only the part of it a plan can read (`Grounding.relevant`)."""
    names = sorted(objects)
    out: list[Atom] = []
    for p in sorted(predicates, key=lambda q: q.name):
        pools = [
            [n for n in names if vocab.is_subsort(objects[n], s)] for s in p.arg_sorts
        ]
        if p.arity == 1:
            out.extend(Atom(p.name, (x,)) for x in pools[0])
        else:
            out.extend(Atom(p.name, (x, y)) for x in pools[0] for y in pools[1] if x != y)
    return out


# --- perception seams -------------------------------------------------------------


class VisionSystem:
    """What the loop needs from perception: verify a conjunction, scan for a
    planning init, and hear about believed action effects."""

    def query(self, s: State) -> tuple[bool, bool]:
        """(holds, timed_out)"""
        raise NotImplementedError

    def scan(self, atoms: Iterable[Atom]) -> State:
        raise NotImplementedError

    def note_effects(self, add: Iterable[Atom], delete: Iterable[Atom]) -> None:
        pass


class LiveVision(VisionSystem):
    """Perception against the live scene: queries re-aim the camera at their
    terms under the mu/tau discipline; scans ground each candidate atom
    from a ring of camera poses and keep whatever holds in any pose.

    A scan takes only the looks that can change its answer. It always looks
    from the first pose, and decides `Holding`, `Free` and `VisionOn` there
    for good: they read the grasp state and `Scene.vision_on`, which no pose
    changes. The others, those of `perception.TERM_PREDICATES`, are grouped
    by their term set. Each pose gets one `View` (`perception.in_view`) of
    the objects carrying a term, and a later pose is looked from only when
    its view has every term of some unheld group among its labels; a skipped
    pose perceives and draws nothing. A look grounds only the groups whose
    terms it detected, since a `Detected` or geometric atom with an
    undetected term is false. At zero noise the scan thus holds exactly what
    a look from every pose would.
    Under a noisy detector the later looks draw different numbers, and a
    skipped look drops a false detection it might have made: a confused vote
    naming an out-of-view term. `query_vision` makes the same trade.

    A view and its look cover only `watched`, the scene objects that carry a
    term of some unheld group, at every pose, the first included (`Holding`,
    `Free` and `VisionOn` read no detection). At zero noise this holds what
    a whole-scene look would."""

    def __init__(self, scene: Scene, cfg: MonitorConfig):
        self.scene = scene
        self.cfg = cfg
        self._rng = np.random.default_rng([cfg.seed, 0x515C])
        self._ring: list[Camera] = []  # scan poses around self._ring[0]

    def query(self, s: State) -> tuple[bool, bool]:
        cfg = self.cfg
        return query_vision(
            s,
            self.scene,
            self.scene.camera,
            cfg.detector,
            self._rng,
            cfg.mu,
            cfg.tau,
            cfg.mode,
            cfg.frames,
        )

    def scan(self, atoms: Iterable[Atom]) -> State:
        cfg, scene = self.cfg, self.scene
        cam = scene.camera
        if not self._ring or self._ring[0] is not cam:
            # the ring follows the scene's camera, which a Detected effect re-aims
            steps = max(1, math.ceil(2.0 * math.pi / (cam.hfov * 0.85)))
            self._ring = [cam] + [
                replace(cam, yaw=cam.yaw + i * cam.hfov * 0.85, pitch=-0.2)
                for i in range(1, steps + 1)
            ]
        first: list[Atom] = []  # decided at the first pose; an unknown predicate raises there
        groups: dict[frozenset[str], list[Atom]] = {}  # the unheld term-reading atoms
        for a in dict.fromkeys(atoms):
            if a.pred in TERM_PREDICATES:
                groups.setdefault(frozenset(a.args), []).append(a)
            else:
                first.append(a)
        if not first and not groups:
            return State()
        held: list[Atom] = []
        watched = None  # the scene objects carrying a term of some group
        for i, pose in enumerate(self._ring):
            if i and not groups:
                break
            if watched is None:
                terms = frozenset().union(*groups)
                watched = [o for o in scene.objects if o.id in terms]
            view = in_view(scene, pose, watched, cfg.mode)
            if i and not any(g <= view.labels for g in groups):
                continue
            percept = perceive(scene, view, cfg.detector, self._rng, cfg.frames)
            if not i:
                held.extend(a for a in first if ground_relation(a.pred, a.args, percept))
            detected = percept.detections.keys()
            for g in [g for g in groups if g <= detected]:
                unheld = []
                for a in groups[g]:
                    (held if ground_relation(a.pred, a.args, percept) else unheld).append(a)
                if unheld:
                    groups[g] = unheld
                else:
                    del groups[g]
                    watched = None
        return State.of(held)


class BeliefVision(VisionSystem):
    """Full world knowledge captured once, then never re-observed: queries
    and scans answer from the snapshot, and only the robot's own believed
    action effects ever change it.

    The snapshot is the `truth_percept` taken at construction, which holds
    the scene's frozen boxes and a copy of its attachments, so a later move
    in the scene does not reach it. An atom is grounded against it the first
    time a query or scan reads it, and the answer is memoised for the rest
    of the task: it holds when it is one of `candidates` and its relation
    holds in the snapshot. A believed delete reads false and a believed add
    true from then on, the add winning when an atom is both. A candidate
    predicate outside `GROUNDED_PREDICATES` raises `UnknownPredicate` here;
    any other fault of a candidate, such as a wrong arity, raises at its
    first read."""

    def __init__(self, scene: Scene, candidates: Iterable[Atom]):
        self._percept = truth_percept(scene)
        self._candidates = frozenset(candidates)
        unknown = {a.pred for a in self._candidates} - GROUNDED_PREDICATES
        if unknown:
            raise UnknownPredicate(min(unknown))
        self._belief: dict[Atom, bool] = {}

    def _holds(self, a: Atom) -> bool:
        held = self._belief.get(a)
        if held is None:
            held = a in self._candidates and ground_relation(a.pred, a.args, self._percept)
            self._belief[a] = held
        return held

    def query(self, s: State) -> tuple[bool, bool]:
        return all(self._holds(a) for a in s.atoms), False

    def scan(self, atoms: Iterable[Atom]) -> State:
        return State.of(a for a in atoms if self._holds(a))

    def note_effects(self, add: Iterable[Atom], delete: Iterable[Atom]) -> None:
        for a in delete:
            self._belief[a] = False
        for a in add:
            self._belief[a] = True


# --- goal sources ------------------------------------------------------------------


class GoalSource:
    def propose(self, task: TaskSentence, s: State, k: int) -> list[GoalProposal]:
        raise NotImplementedError


class NetGoalSource(GoalSource):
    def __init__(self, params: GoalNetParams, vocab: Vocabulary):
        self.params = params
        self.vocab = vocab

    def propose(self, task: TaskSentence, s: State, k: int) -> list[GoalProposal]:
        if len(s.atoms) > self.vocab.max_atoms:
            # the encoder caps conjunction length; keep a deterministic prefix
            s = State.of(s.canonical()[: self.vocab.max_atoms])
        try:
            return infer_topk(task, s, self.params, self.vocab, k)
        except NoValidProposal:
            return []


class ScriptedGoalSource(GoalSource):
    """Replays a fixed goal order, one proposal per request; a request past
    the end returns nothing. An empty script models a task the source has
    no knowledge of."""

    def __init__(self, goals: Sequence[State]):
        self._queue = list(goals)

    def propose(self, task: TaskSentence, s: State, k: int) -> list[GoalProposal]:
        if not self._queue:
            return []
        return [GoalProposal(self._queue.pop(0), 0.0, 1, TokenSeq(()))]


# --- recovery ----------------------------------------------------------------------


def recover(
    proposals: Sequence[GoalProposal],
    lib: PlanLibrary,
    failed: Iterable[State] = (),
    start: int = 0,
) -> Optional[tuple[int, MatchScore]]:
    """The SELECT rule: the first proposal from index `start` on that
    match_plan resolves to a library goal not among the goals that failed
    this run. Returns (index, match), or None when the list is exhausted.
    A proposal whose own goal already failed is skipped without matching:
    a library goal matches to itself."""
    bad = set(failed)
    for i in range(start, len(proposals)):
        if proposals[i].goal in bad:
            continue
        try:
            ms = match_plan(lib, proposals[i].goal)
        except (NoMatch, EmptyLibrary):
            continue
        if ms.matched_goal not in bad:
            return i, ms
    return None


# --- the loop ----------------------------------------------------------------------


class Phase(enum.Enum):
    """Where the fold stands. STEP checks, dispatches and re-checks one plan
    action; GOAL verifies the selected goal and, when the goal contains the
    terminal state, makes the terminal check too."""

    START = "start"
    REQUEST = "request"
    SELECT = "select"
    PLAN = "plan"
    STEP = "step"
    GOAL = "goal"


@dataclass(frozen=True)
class LoopState:
    """One fold step of the monitor; every field is immutable so a run is
    fully determined by the initial state and the injected seam results.
    A run ends when `outcome` is set. `match` is the goal SELECT chose and
    `plan`/`step_idx` the plan PLAN made for it, `step_idx` being the next
    action STEP runs; each is read only in the phases after the one that
    sets it, so a retired goal leaves them be. `current` is the last
    verified goal-level state, which REQUEST hands the goal source.
    `attempted` lists every selected goal, so its length is the goals
    selected so far. `verified` holds the atoms vision has verified since
    the last dispatch: the world changes only inside `Actuator.execute`, so
    a gate whose atoms are all in it makes no look (`_verify`). Every
    dispatch empties it, a failed one included, since a disturbance may
    fire before the fault."""

    phase: Phase = Phase.START
    current: State = field(default_factory=lambda: State(frozenset()))
    proposals: tuple[GoalProposal, ...] = ()
    proposal_idx: int = 0
    match: Optional[MatchScore] = None
    plan: tuple[GroundAction, ...] = ()
    step_idx: int = 0
    replans_left: int = 0
    failed_goals: tuple[State, ...] = ()
    attempted: tuple[tuple[str, int], ...] = ()
    last_timeout: bool = False
    verified: frozenset[Atom] = frozenset()
    outcome: Optional[Outcome] = None

    @property
    def goal(self) -> Optional[State]:
        return None if self.match is None else self.match.matched_goal


@dataclass
class MonitorContext:
    """Everything a transition may consult; the seams carry all effects."""

    cfg: MonitorConfig
    lib: PlanLibrary
    vision: VisionSystem
    goals: GoalSource
    act: Actuator
    task: TaskSentence
    terminal: State
    start: State


class _Emitter:
    """A run's events, stamped with their index in the run as they are
    emitted."""

    def __init__(self):
        self.events: list[MonitorEvent] = []

    def __call__(self, kind: str, **payload) -> None:
        self.events.append(MonitorEvent(len(self.events), kind, payload))


def _finish(state: LoopState, ev: _Emitter, status: str, reason: str = "") -> LoopState:
    ev(
        "end_task",
        outcome=status,
        reason=reason,
        goals_attempted=len(state.attempted),
    )
    return replace(state, outcome=Outcome(status, reason))


def _verify(
    ev: _Emitter, ctx: MonitorContext, s: State, purpose: str, verified: frozenset[Atom]
) -> tuple[bool, bool]:
    """One vision gate: a `vision_query`/`vision_result` pair around the
    vision seam's answer for `s`. A gate whose atoms are all in `verified`,
    the atoms verified since the last dispatch, makes no look and draws
    nothing: it holds, and its result says `looked: false`. Under a noisy
    detector later looks therefore draw other numbers. A partly covered
    gate still asks its whole conjunction, because LiveVision verifies a
    conjunction only when all its terms fit one view."""
    atoms = _atom_strs(s)
    ev("vision_query", purpose=purpose, atoms=atoms)
    looked = not s.atoms <= verified
    holds, timeout = ctx.vision.query(s) if looked else (True, False)
    ev("vision_result", purpose=purpose, holds=holds, timeout=timeout, atoms=atoms, looked=looked)
    return holds, timeout


def _retire(state: LoopState, **changes) -> LoopState:
    """Retire the current goal for the rest of the run and move selection
    past its proposal."""
    return replace(
        state,
        phase=Phase.SELECT,
        proposal_idx=state.proposal_idx + 1,
        failed_goals=state.failed_goals + (state.goal,),
        **changes,
    )


def _to_recovery(
    state: LoopState, ev: _Emitter, reason: str, timeout: bool, **changes
) -> LoopState:
    """A verification or a dispatch failed: retire the goal with a recovery
    event."""
    ev("recovery", failed_goal=_atom_strs(state.goal), reason=reason)
    return _retire(state, last_timeout=timeout, **changes)


def step(state: LoopState, ctx: MonitorContext, ev: _Emitter) -> LoopState:
    """One transition of an unfinished run. Emits its events, in order,
    through `ev`, which the run owns, so the events emitted before a seam
    raises stay in the trace. Returns the successor state; no transition
    mutates a field of `state`."""
    if state.phase is Phase.START:
        holds, timeout = _verify(ev, ctx, ctx.start, "start", state.verified)
        if not holds:
            reason = "vision_timeout" if timeout else "start_unverified"
            return _finish(state, ev, "failure", reason)
        return replace(state, phase=Phase.REQUEST, current=ctx.start, verified=ctx.start.atoms)

    if state.phase is Phase.REQUEST:
        if len(state.attempted) >= ctx.cfg.max_goals:
            return _finish(state, ev, "failure", "goal_budget_exhausted")
        props = tuple(ctx.goals.propose(ctx.task, state.current, ctx.cfg.k))
        ev("proposal_requested", state=_atom_strs(state.current), count=len(props))
        if not props:
            return _finish(state, ev, "failure", "no_proposals")
        return replace(state, phase=Phase.SELECT, proposals=props, proposal_idx=0)

    if state.phase is Phase.SELECT:
        if len(state.attempted) >= ctx.cfg.max_goals:
            return _finish(state, ev, "failure", "goal_budget_exhausted")
        found = recover(state.proposals, ctx.lib, state.failed_goals, state.proposal_idx)
        if found is None:
            reason = "vision_timeout" if state.last_timeout else "proposals_exhausted"
            return _finish(state, ev, "failure", reason)
        i, ms = found
        rank = state.proposals[i].rank
        ev(
            "proposal_selected",
            rank=rank,
            goal=_atom_strs(ms.matched_goal),
            entry=ms.entry.name,
            overlap=ms.overlap,
        )
        return replace(
            state,
            phase=Phase.PLAN,
            proposal_idx=i,
            match=ms,
            replans_left=ctx.cfg.replans,
            attempted=state.attempted + ((" ".join(_atom_strs(ms.matched_goal)), rank),),
        )

    if state.phase is Phase.PLAN:
        domain, objects = state.match.entry.domain, state.match.objects
        # plan from what the scan verifies of the atoms a plan can read
        # (`Grounding.relevant`), proximity included, and of the goal's,
        # which may be in no precondition: `boot`'s `Free(robot_hand)` and
        # `VisionOn(robot)` are in none, and without them its plan raises
        # `NoPlan`. The goal is interned so `solve` finds its atoms by
        # identity; each scan drops a goal atom that repeats one. Move
        # actions never delete the CloseTo/At atoms they falsify, so a plan
        # can still lean on one its own earlier approach/reach/goto made
        # stale; STEP re-checks it by vision before any dispatch.
        g = ground_actions(domain, objects)
        goal = State.of(g.atoms.get(a, a) for a in state.goal.atoms)
        scan = (*g.relevant, *goal.atoms)
        init = ctx.vision.scan(scan)
        try:
            steps = solve(domain, objects, init, goal)
        except (NoPlan, BudgetExceeded) as exc:
            reason = "no_plan" if isinstance(exc, NoPlan) else "budget_exceeded"
            ev("plan_failed", reason=reason, init_size=len(init.atoms))
            return _retire(state)
        if len(steps) > MAX_PLAN_LEN:
            ev("plan_failed", reason="too_long", init_size=len(init.atoms), plan_len=len(steps))
            return _retire(state)
        return replace(
            state,
            phase=Phase.STEP if steps else Phase.GOAL,
            plan=tuple(steps),
            step_idx=0,
        )

    if state.phase is Phase.STEP:
        ga = state.plan[state.step_idx]
        holds, timeout = _verify(ev, ctx, State.of(ga.pre), "precondition", state.verified)
        if not holds:
            return _to_recovery(state, ev, "precondition_unverified", timeout)
        ev("action_dispatch", action=ga.name, step=state.step_idx)
        res = ctx.act.execute(ga)
        ev("action_result", ok=res.ok, reason=res.reason)
        # the world may have changed: every exit from here on empties the
        # verified set, or sets it to the effects just verified
        cleared: frozenset[Atom] = frozenset()
        if not res.ok:
            if state.replans_left > 0:
                return replace(
                    state, phase=Phase.PLAN, replans_left=state.replans_left - 1, verified=cleared
                )
            return _to_recovery(state, ev, f"action_failed: {res.reason}", False, verified=cleared)
        ctx.vision.note_effects(ga.add, ga.delete)
        effects = State.of(ga.add)
        holds, timeout = _verify(ev, ctx, effects, "effects", cleared)
        if not holds:
            return _to_recovery(state, ev, "effects_unverified", timeout, verified=cleared)
        nxt = state.step_idx + 1
        return replace(
            state,
            phase=Phase.STEP if nxt < len(state.plan) else Phase.GOAL,
            step_idx=nxt,
            verified=effects.atoms,
        )

    if state.phase is Phase.GOAL:
        holds, timeout = _verify(ev, ctx, state.goal, "goal", state.verified)
        if not holds:
            return _to_recovery(state, ev, "goal_unverified", timeout)
        ev("goal_reached", goal=_atom_strs(state.goal))
        verified = state.verified | state.goal.atoms
        if not ctx.terminal.atoms <= state.goal.atoms:
            return replace(state, phase=Phase.REQUEST, current=state.goal, verified=verified)
        # the goal holds and contains the terminal state, so this check makes
        # no look; it is the terminal result the trace ends a success on
        _verify(ev, ctx, ctx.terminal, "terminal", verified)
        return _finish(state, ev, "success")

    raise MonitorSetupError(f"no transition from phase {state.phase}")


def run_task(
    task: TaskSentence | str,
    scene: Scene,
    lib: PlanLibrary,
    net: Optional[GoalNetParams],
    act: Actuator,
    cfg: MonitorConfig,
    *,
    terminal: State,
    start: Optional[State] = None,
    vision: Optional[VisionSystem] = None,
    goal_source: Optional[GoalSource] = None,
) -> ExecutionTrace:
    """Drive the loop to termination. Never raises once configured: every
    failure, including seam exceptions, lands in the trace outcome, and the
    single end_task event is always last. A task that is not the
    vocabulary's, or a start or terminal atom of the wrong predicate, arity
    or sorts, raises MonitorSetupError before the loop starts."""
    vocab = lib.vocab
    task_id = task if isinstance(task, str) else task.id
    if task_id not in vocab.tasks:
        raise MonitorSetupError(f"unknown task id {task_id!r}")
    if not isinstance(task, str) and task != vocab.tasks[task_id]:
        raise MonitorSetupError(f"task {task_id!r} is not the vocabulary's: {task.sentence!r}")
    task = vocab.tasks[task_id]
    for purpose, s in (("start", start), ("terminal", terminal)):
        bad = sorted(str(a) for a in (s.atoms if s is not None else ()) if not vocab.atom_type_ok(a))
        if bad:
            raise MonitorSetupError(f"{purpose} atoms fail the vocabulary's types: {bad}")
    if goal_source is None:
        if net is None:
            raise MonitorSetupError("need a trained net or an explicit goal source")
        goal_source = NetGoalSource(net, vocab)
    if vision is None:
        vision = LiveVision(scene, cfg)
    ctx = MonitorContext(
        cfg, lib, vision, goal_source, act, task, terminal, start or State(frozenset())
    )
    state = LoopState()
    ev = _Emitter()
    transitions = 0
    while state.outcome is None:
        if transitions >= cfg.step_budget:
            state = _finish(state, ev, "failure", "step_budget_exhausted")
        else:
            try:
                state = step(state, ctx, ev)
            except Exception as exc:  # contract: failures surface in the outcome
                state = _finish(state, ev, "failure", f"internal: {type(exc).__name__}: {exc}")
        transitions += 1
    return ExecutionTrace(task.id, tuple(ev.events), state.outcome, state.attempted)


# --- trace serialization ------------------------------------------------------------


def trace_lines(trace: ExecutionTrace) -> list[str]:
    """Line-delimited records: one per event, then one summary. Key order is
    fixed so identical runs serialize identically."""
    lines = [
        json.dumps(
            {"record": "event", "ts": e.ts, "kind": e.kind, "payload": e.payload},
            sort_keys=True,
        )
        for e in trace.events
    ]
    lines.append(
        json.dumps(
            {
                "record": "summary",
                "task": trace.task,
                "outcome": trace.outcome.status,
                "reason": trace.outcome.reason,
                "events": len(trace.events),
                "attempted": [list(a) for a in trace.attempted],
            },
            sort_keys=True,
        )
    )
    return lines
