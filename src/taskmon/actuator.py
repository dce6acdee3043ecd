"""World-side execution of ground actions against the simulated scene.

SimActuator is the robot body plus the world's physics: it refuses an
action whose non-epistemic preconditions fail in the ground truth, draws
transient faults from a seeded stream, and otherwise applies the action's
symbolic effects as geometric edits (stacking boxes, attaching grasped
objects, aiming the camera for search effects). Scheduled disturbances
model a world that changes mid-run, independently of the robot.

The scene-editing helpers are module functions so scenario setup and tests
can stage worlds with the same placement rules the actuator uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Optional

import numpy as np

from .geometry import Box, Scene, Vec
from .language import Atom, Vocabulary, check_int, check_probability
from .perception import (
    DEFAULT_THRESHOLDS,
    Detection,
    Mode,
    Percept,
    ground_relation,
)
from .planning import GroundAction


class ActuationSetupError(Exception):
    """An effect or a disturbance names no scene object."""


@dataclass(frozen=True)
class ActionResult:
    ok: bool
    reason: str = ""


class Actuator:
    """Executes one ground action; the scene reflects all effects on success
    and is untouched on failure."""

    def execute(self, action: GroundAction) -> ActionResult:
        raise NotImplementedError


# --- ground-truth inspection ----------------------------------------------------


def truth_percept(scene: Scene) -> Percept:
    """Omniscient percept straight from ground truth, for physical
    applicability checks and full-knowledge baselines: every object under
    its name at confidence 1 whatever the camera, true boxes, a copy of the
    attachments. Its rules read the true boxes (it is a FULL-mode percept),
    so its detections' pixel fields and centre depths are placeholders."""
    dets = {o.id: Detection(o.id, o.id, (0.0, 0.0, 1.0, 1.0), (0.0, 0.0), 0.0, 1.0) for o in scene.objects}
    boxes = {o.id: o.box for o in scene.objects}
    return Percept(dets, boxes, dict(scene.attachments), Mode.FULL, vision_on=True)


# --- scene editing ---------------------------------------------------------------


def _require(scene: Scene, names: tuple[str, ...], what: object) -> tuple[str, ...]:
    """Return `names`; raise ActuationSetupError if `what` names no scene object."""
    for name in names:
        try:
            scene.get(name)
        except KeyError:
            raise ActuationSetupError(f"{what} names no scene object '{name}'") from None
    return names


def translate_object(scene: Scene, obj_id: str, delta: Vec) -> None:
    """Translate an object and everything it holds (recursively)."""
    obj = scene.get(obj_id)
    obj.box = Box(
        tuple(l + d for l, d in zip(obj.box.lo, delta)),
        tuple(h + d for h, d in zip(obj.box.hi, delta)),
    )
    held = scene.attachments.get(obj_id)
    if held is not None:
        translate_object(scene, held, delta)


def move_center_to(scene: Scene, obj_id: str, center: Vec) -> None:
    cur = scene.get(obj_id).box.center
    translate_object(scene, obj_id, tuple(n - c for n, c in zip(center, cur)))


def detach(scene: Scene, obj_id: str) -> None:
    """Drop any attachment in which obj_id is the held object."""
    for holder, held in list(scene.attachments.items()):
        if held == obj_id:
            del scene.attachments[holder]


def place_on(scene: Scene, obj_id: str, dest_id: str) -> None:
    """Rest obj on dest: footprint centered, bottom face on dest's top."""
    detach(scene, obj_id)
    obj, dest = scene.get(obj_id), scene.get(dest_id)
    sz = obj.box.size
    cx, cy = dest.box.center[0], dest.box.center[1]
    move_center_to(scene, obj_id, (cx, cy, dest.box.hi[2] + sz[2] / 2.0))
    obj.supported_by = dest_id


def grasp(scene: Scene, holder_id: str, obj_id: str) -> None:
    """Attach obj to holder and bring it to the holder's center."""
    detach(scene, obj_id)
    holder = scene.get(holder_id)
    move_center_to(scene, obj_id, holder.box.center)
    scene.get(obj_id).supported_by = None
    scene.attachments[holder_id] = obj_id


def approach(scene: Scene, mover_id: str, target_id: str, gap: float) -> None:
    """Move the mover so its centroid sits within `gap` of the target's,
    keeping the approach direction when one already exists."""
    mover, target = scene.get(mover_id), scene.get(target_id)
    mc, tc = mover.box.center, target.box.center
    d = tuple(m - t for m, t in zip(mc, tc))
    n = math.sqrt(sum(x * x for x in d))
    if n <= gap:
        return
    if n < 1e-9:
        d, n = (1.0, 0.0, 0.0), 1.0
    unit = tuple(x / n for x in d)
    move_center_to(scene, mover_id, tuple(t + u * gap for t, u in zip(tc, unit)))


def remove_from_workspace(scene: Scene, obj_id: str) -> None:
    """Teleport an object far below the workspace: out of every view and out
    of range of every spatial relation, without deleting the scene object."""
    detach(scene, obj_id)
    obj = scene.get(obj_id)
    move_center_to(scene, obj_id, (obj.box.center[0], obj.box.center[1], -50.0))
    obj.supported_by = None


# --- disturbances ----------------------------------------------------------------


@dataclass(frozen=True)
class Disturbance:
    """A world edit scheduled against the actuator's call counter: fires just
    before the execute call with 1-based index `before_call`. `prob` draws
    from the actuator's disturbance stream, so trials differ only by seed."""

    before_call: int
    kind: str  # relocate | remove | nudge
    obj: str  # scene object id
    dest: Optional[str] = None  # relocate: new supporting object id
    offset: Vec = (0.0, 0.0, 0.0)  # nudge: translation delta
    prob: float = 1.0

    def __post_init__(self):
        check_int("before_call", self.before_call, 1)
        if self.kind not in ("relocate", "remove", "nudge"):
            raise ValueError(f"unknown disturbance kind {self.kind!r}")
        if self.kind == "relocate" and not self.dest:
            raise ValueError("relocate needs a destination")
        if self.kind == "relocate" and self.dest == self.obj:
            raise ValueError(f"cannot relocate {self.obj} onto itself")
        if (
            not isinstance(self.offset, (tuple, list))
            or len(self.offset) != 3
            or not all(isinstance(v, Real) and not isinstance(v, bool) for v in self.offset)
        ):
            raise ValueError(f"offset {self.offset!r} is not 3 numbers")
        if not all(math.isfinite(v) for v in self.offset):
            raise ValueError(f"offset {self.offset!r} is not finite")
        check_probability("prob", self.prob)


def _check_ids(scene: Scene, d: Disturbance) -> None:
    """`_require` of d's object and a relocate's destination."""
    _require(scene, (d.obj, d.dest) if d.kind == "relocate" else (d.obj,), f"{d.kind} disturbance")


# --- the simulated actuator ------------------------------------------------------


class SimActuator(Actuator):
    """Executes ground actions on the live scene.

    Failure reasons: "fault" for a transient seeded failure, "precondition
    <atom>" when a non-epistemic precondition fails against the ground
    truth, "<action> would close a holding loop" when a Holding effect's
    object is its holder or holds it. Either way the scene is left exactly
    as it was. Success applies every delete, then every add, as geometric
    edits."""

    def __init__(
        self,
        scene: Scene,
        vocab: Vocabulary,
        fail_prob: float = 0.0,
        seed: int = 0,
        disturbances: Iterable[Disturbance] = (),
    ):
        check_probability("fail_prob", fail_prob)
        check_int("seed", seed, 0)
        disturbances = tuple(disturbances)
        for d in disturbances:
            _check_ids(scene, d)
        self.scene = scene
        self.vocab = vocab
        self.fail_prob = fail_prob
        self.disturbances = disturbances
        self._rng = np.random.default_rng([seed, 0xAC70])
        self._drng = np.random.default_rng([seed, 0xD157])
        self.calls = 0

    def execute(self, action: GroundAction) -> ActionResult:
        self.calls += 1
        self._fire_disturbances()
        return self._attempt(action)

    # world events

    def _fire_disturbances(self) -> None:
        for d in self.disturbances:
            if d.before_call != self.calls:
                continue
            if d.prob < 1.0 and self._drng.random() >= d.prob:
                continue
            self.apply_disturbance(d)

    def apply_disturbance(self, d: Disturbance) -> None:
        _check_ids(self.scene, d)
        if d.kind == "relocate":
            place_on(self.scene, d.obj, d.dest)
        elif d.kind == "remove":
            remove_from_workspace(self.scene, d.obj)
        else:
            translate_object(self.scene, d.obj, d.offset)

    # action execution

    def _attempt(self, action: GroundAction) -> ActionResult:
        if self.fail_prob > 0.0 and self._rng.random() < self.fail_prob:
            return ActionResult(False, "fault")
        unmet = self._unmet_precondition(action)
        if unmet is not None:
            return ActionResult(False, f"precondition {unmet}")
        if any(a.pred == "Holding" and self.scene.carries(a.args[1], a.args[0]) for a in action.add):
            return ActionResult(False, f"{action} would close a holding loop")
        self._apply(action)
        return ActionResult(True)

    def _unmet_precondition(self, action: GroundAction) -> Optional[str]:
        """First precondition atom false in the ground truth; epistemic atoms
        describe the robot's knowledge, not the world, and are skipped."""
        percept = truth_percept(self.scene)
        for a in sorted(action.pre, key=lambda x: x.key()):
            pred = self.vocab.predicates.get(a.pred)
            if pred is not None and pred.epistemic:
                continue
            if not ground_relation(a.pred, a.args, percept):
                return str(a)
        return None

    def _apply(self, action: GroundAction) -> None:
        for a in sorted(action.delete, key=lambda x: x.key()):
            if a.pred == "Holding":
                holder, held = _require(self.scene, a.args, a)
                if self.scene.attachments.get(holder) == held:
                    del self.scene.attachments[holder]
        for a in sorted(action.add, key=lambda x: x.key()):
            self._apply_add(a)

    def _apply_add(self, a: Atom) -> None:
        # Dispatched on the predicate's name, as `ground_relation` is. The
        # edits are Holding, On, CloseTo, At and Detected. Free needs none:
        # the paired Holding/On effects make its geometry. Any other predicate
        # is a purely symbolic effect; no packaged action adds one.
        pred, scene = a.pred, self.scene
        if pred == "Holding":
            grasp(scene, *_require(scene, a.args, a))
        elif pred == "On":
            place_on(scene, *_require(scene, a.args, a))
        elif pred in ("CloseTo", "At"):
            limit = DEFAULT_THRESHOLDS.close_dist if pred == "CloseTo" else DEFAULT_THRESHOLDS.at_dist
            approach(scene, *_require(scene, a.args, a), 0.6 * limit)
        elif pred == "Detected":
            (obj,) = _require(scene, a.args, a)
            scene.camera = scene.camera.aimed_at(scene.get(obj).box.center)
