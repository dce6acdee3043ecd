"""Simulated perception over ground-truth scenes; an object's one name is the term it grounds.

A look is `in_view` then `perceive`. `in_view` tests, once per pose,
which of the objects its caller asks about are in view, and returns their
`View`; the caller decides from `View.labels` whether to look, and
`perceive` votes and reconstructs over that view without testing again.
The vision query asks about the scene objects carrying its terms, and the
monitor's `LiveVision.scan` about those carrying a term of some candidate
it has not yet seen hold. At zero noise no answer changes, since a rule
reads only its atom's terms; a noisy detector draws fewer numbers per
look (`detect_batch` gives the draw order and the vote). Pixel boxes are
projected only in NO_DEPTH mode, the one whose rules read them.
Reconstruction places each detected world object at the detector's noisy
centroid depth and each robot part at its true box, building every box
when the look is taken. Three ablation modes control what it may use:
FULL keeps estimated centroids plus true class extents, NO_SHAPE replaces
extents with a nominal cube, NO_DEPTH works purely in pixel space.

`ground_relation` grounds the 8 predicates the plan library's domains use,
`GROUNDED_PREDICATES`, in a percept, dispatching on the predicate's own
name. Holding and Free read the grasp state (`Percept.attachments`), which
is proprioception: no geometry makes a hold. VisionOn reads the vision
switch. The rest, `TERM_PREDICATES`, read their terms' detections: On,
Inside, CloseTo and At are geometric rules over the reconstructed
geometry, never the ground truth. The thresholds (`DEFAULT_THRESHOLDS`)
and both predicate sets are fixed module constants, so every query is
judged by the same rules.

`query_vision` answers (holds, timed_out), the pair the monitor's
`VisionSystem.query` gives, looking only from a pose whose view has every
term; a caller that wants the frame behind an answer calls `perceive`
itself. `estimate_depth`, a ray-cast foreground mask inside a detected
box, is an on-demand measurement that neither reconstruction nor the
vision query runs.

The caller owns the random stream: each function that draws takes the
generator `rng` right after the detector model and builds none. A
malformed setting raises a ValueError naming it before any look: the mode
in `in_view`, and mu, tau and mode in `check_query_settings`, which
`query_vision` and `MonitorConfig` share.
"""

from __future__ import annotations

import enum
import math
from collections import Counter
from dataclasses import dataclass
from numbers import Real
from typing import Iterable

import numpy as np

from .geometry import Box, Camera, Scene, SceneObject, dist, ray_box
from .language import State, check_int, check_probability


class Mode(enum.Enum):
    FULL = "full"
    NO_SHAPE = "no-shape"
    NO_DEPTH = "no-depth"


class UnknownPredicate(Exception):
    pass


class NoForeground(Exception):
    pass


@dataclass(frozen=True)
class DetectorModel:
    """Noise levels of the simulated detector. It holds no random state: the
    caller passes the generator each draw takes from."""

    tp_rate: float = 1.0
    confusion: float = 0.0
    px_jitter: float = 0.0
    depth_sigma: float = 0.0

    def __post_init__(self):
        for name in ("tp_rate", "confusion"):
            check_probability(name, getattr(self, name))
        for name in ("px_jitter", "depth_sigma"):
            v = getattr(self, name)
            if not isinstance(v, Real) or isinstance(v, bool) or not 0.0 <= v < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass
class Detection:
    """One object's voted detection. Its pixel fields are filled only where
    something reads them, and hold zeros elsewhere: bbox only in NO_DEPTH
    mode, the one whose rules read it; a world object's center_px and
    center_depth in every mode, because reconstruction reads them; a robot
    part's only in NO_DEPTH, since FULL and NO_SHAPE place it by its true
    box. `actuator.truth_percept` reconstructs nothing: every pixel field and
    centre depth of its detections is a placeholder. `label` is the voted
    name, which a confused vote can make another object's; `obj_id` names
    the object whose frames cast the vote."""

    label: str
    obj_id: str
    bbox: tuple[float, float, float, float]  # u0, v0, u1, v1 (pixels)
    center_px: tuple[float, float]
    center_depth: float  # noisy forward depth of the centroid
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence outside [0, 1]")


# Pixel fields left unprojected: every bbox in FULL and NO_SHAPE, a robot
# part's centre outside NO_DEPTH, and a part's box or centre behind the camera.
_NO_BBOX = (0.0, 0.0, 0.0, 0.0)
_NO_PX = (0.0, 0.0)


@dataclass(frozen=True)
class Thresholds:
    found_conf: float = 0.7
    on_gap: float = 0.02
    on_overlap: float = 0.5
    inside_ratio: float = 0.9
    close_dist: float = 0.8
    at_dist: float = 1.2
    nominal_extent: float = 0.06
    # pixel-space fallbacks for the NO_DEPTH ablation
    px_on_gap: float = 16.0
    px_close: float = 240.0
    px_at: float = 360.0


# The one set of thresholds every query is judged by: a frozen instance
# built at import.
DEFAULT_THRESHOLDS = Thresholds()


# The predicates `ground_relation` grounds: those the library's domains use.
GROUNDED_PREDICATES = frozenset({"On", "Inside", "CloseTo", "At", "Holding", "Free", "Detected", "VisionOn"})

# Those that read their terms' detections, false when a term is undetected.
# The others read the grasp state or the vision switch, which no pose changes.
TERM_PREDICATES = frozenset({"Detected", "On", "Inside", "CloseTo", "At"})


@dataclass
class Percept:
    """What one camera query yields: detections by label, plus the geometry
    reconstructed under the active ablation mode."""

    detections: dict[str, Detection]
    # One box per detected label in FULL and NO_SHAPE, built at look time;
    # empty in NO_DEPTH mode.
    boxes3d: dict[str, Box]
    # holder -> held, a copy of the scene's: the grasp state, which alone
    # grounds Holding and Free
    attachments: dict[str, str]
    mode: Mode
    vision_on: bool


# --- detection -----------------------------------------------------------------


@dataclass(frozen=True)
class View:
    """What a look from `cam` in `mode` sees of the objects `in_view` was
    asked about: `seen` pairs each object in view, in the order asked, with
    what the look sees of it, and `labels` holds their names. A view
    serves every look from its pose, and none tests visibility again."""

    cam: Camera
    mode: Mode
    seen: tuple[tuple[SceneObject, tuple], ...]
    labels: frozenset[str]


def in_view(scene: Scene, cam: Camera, objects: Iterable[SceneObject], mode: Mode) -> View:
    """The one visibility test: which of `objects` a look from `cam` sees
    in `mode`. A robot part is proprioception, always in view, and comes
    with `()`. A world object is in view when the scene's vision is on, its
    centre is in the view cone (`Camera.view`) and every corner is in front
    of the camera: in NO_DEPTH `project_box` gives its pixel box, otherwise
    `Camera.in_front` says so without projecting. It comes with its
    centre's (u, v, depth) and the pixel box, `_NO_BBOX` outside NO_DEPTH.
    A `mode` that is not a Mode raises ValueError."""
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, got {mode!r}")
    pixels = mode is Mode.NO_DEPTH
    seen = []
    for obj in objects:
        if obj.proprio:
            seen.append((obj, ()))
            continue
        if not scene.vision_on:
            continue
        pr = cam.view(obj.box.center)
        if pr is None:
            continue
        if pixels:
            bbox = cam.project_box(obj.box)
            if bbox is None:
                continue
        elif cam.in_front(obj.box):
            bbox = _NO_BBOX
        else:
            continue
        seen.append((obj, (pr, bbox)))
    return View(cam, mode, tuple(seen), frozenset(o.id for o, _ in seen))


def detect_batch(
    scene: Scene,
    view: View,
    model: DetectorModel,
    rng: np.random.Generator,
    n: int = 10,
) -> list[Detection]:
    """Majority vote over n noisy frames per object `view` sees, in its
    order, from `view.cam` in `view.mode`; no other object is voted or
    reported, and none is tested for visibility again. An object whose
    modal vote is a miss (or a tie) is omitted; confidence is the modal
    frequency. A robot part in the view is always reported, at confidence
    1 and drawing no random numbers. `n` must be an int >= 1, not a bool.

    A confused frame picks its wrong label from every object name of the
    scene, not only the viewed objects', so each object draws exactly what
    it would in a whole-scene look; fewer objects draw fewer numbers, which
    shifts a noisy detector's later draws. Pixel fields are filled as
    `Detection` says: pixel boxes only in NO_DEPTH.

    Each object in the view draws its n frames as blocks, in this order:
    `rng.random(2 * n)`, the first n for hits and the last n for confusion
    (`rng.random(n)`, hits only, when the scene has a single object); one
    integer per confused frame picking the wrong label; an (n, 2) block of
    pixel jitter, when `px_jitter` > 0; one depth noise sample, when
    `depth_sigma` > 0. The 2n block gives the same doubles as two n blocks,
    so the stream is the per-frame one. A noise-free detector thus takes
    exactly 2n doubles per object (n with a single object).

    Only when some frame was confused are the object's wrong labels sorted
    for the picks and the votes ranked by count, then label. Otherwise each
    frame is a hit or a miss, and the label wins exactly when hits > n/2; a
    tie or a modal miss gives no detection. The jitter is averaged over the
    winning frames."""
    check_int("n", n, 1)
    label_set = {o.id for o in scene.objects}
    cam, pixels = view.cam, view.mode is Mode.NO_DEPTH
    out: list[Detection] = []
    for obj, seen in view.seen:
        if obj.proprio:
            if pixels:
                center = obj.box.center
                pr = cam.project(center)
                bbox = cam.project_box(obj.box) or _NO_BBOX
                px = (pr[0], pr[1]) if pr else _NO_PX
                out.append(Detection(obj.id, obj.id, bbox, px, cam.depth_of(center), 1.0))
            else:
                out.append(Detection(obj.id, obj.id, _NO_BBOX, _NO_PX, 0.0, 1.0))
            continue
        pr, true_bbox = seen

        if len(label_set) > 1:
            draws = rng.random(2 * n).tolist()
            hit = [r < model.tp_rate for r in draws[:n]]
            swap = [h and r < model.confusion for h, r in zip(hit, draws[n:])]
            n_swapped = sum(swap)
        else:
            hit = [r < model.tp_rate for r in rng.random(n).tolist()]
            n_swapped = 0
        if n_swapped:
            others = sorted(label_set - {obj.id})
            picks = iter(rng.integers(len(others), size=n_swapped).tolist())
            votes = [others[next(picks)] if s else (obj.id if h else "") for h, s in zip(hit, swap)]
        if model.px_jitter > 0.0:
            jitters = rng.normal(0.0, model.px_jitter, size=(n, 2)).tolist()

        if n_swapped:
            # "" is a miss; rank labels by count, then name
            counts = Counter(votes)
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            winner, top = ranked[0]
            if winner == "" or (len(ranked) > 1 and ranked[1][1] == top):
                continue  # modal miss or a tie: no detection
            won = [v == winner for v in votes]
        else:
            # only hits and misses: the label wins exactly on a strict majority
            winner, top, won = obj.id, sum(hit), hit
            if 2 * top <= n:
                continue
        du = dv = 0.0
        if model.px_jitter > 0.0:
            keep = [j for w, j in zip(won, jitters) if w]
            du = sum(j[0] for j in keep) / len(keep)
            dv = sum(j[1] for j in keep) / len(keep)
        depth = pr[2]  # the centroid's forward depth, as depth_of gives it
        if model.depth_sigma > 0.0:
            depth += rng.normal(0.0, model.depth_sigma)
        if pixels:
            bbox = (true_bbox[0] + du, true_bbox[1] + dv, true_bbox[2] + du, true_bbox[3] + dv)
        else:
            bbox = _NO_BBOX
        out.append(Detection(winner, obj.id, bbox, (pr[0] + du, pr[1] + dv), depth, top / n))
    return out


def estimate_depth(
    det: Detection,
    scene: Scene,
    cam: Camera,
    model: DetectorModel,
    rng: np.random.Generator,
    grid: int = 32,
) -> float:
    """Nearest foreground depth inside the detected box: ray-cast a pixel
    lattice, keep the pixels whose nearest hit is the detected object, and
    return the minimum hit depth plus Gaussian noise. Excluding background
    pixels keeps overlapping farther objects out of the estimate.

    It takes a NO_DEPTH detection of a box wholly in front of the camera,
    the only kind that carries a pixel box; any other raises ValueError."""
    if det.bbox == _NO_BBOX:
        raise ValueError(f"{det.label}: the detection has no pixel box; estimate_depth "
                         "takes a NO_DEPTH detection of a box in front of the camera")
    u0, v0, u1, v1 = det.bbox
    nx = max(2, min(grid, int(math.ceil(u1 - u0))))
    ny = max(2, min(grid, int(math.ceil(v1 - v0))))
    total = nx * ny
    depths: list[float] = []
    for i in range(nx):
        for j in range(ny):
            u = u0 + (i + 0.5) * (u1 - u0) / nx
            v = v0 + (j + 0.5) * (v1 - v0) / ny
            ray = cam.pixel_ray(u, v)
            best_t, best_id = math.inf, None
            for obj in scene.objects:
                t = ray_box(cam.position, ray, obj.box)
                if t is not None and t < best_t:
                    best_t, best_id = t, obj.id
            if best_id == det.obj_id:
                hit = tuple(cam.position[k] + best_t * ray[k] for k in range(3))
                depths.append(cam.depth_of(hit))
    if len(depths) < 0.05 * total:
        raise NoForeground(f"{det.label}: {len(depths)}/{total} pixels pass the mask")
    d = min(depths)
    if model.depth_sigma > 0.0:
        d += rng.normal(0.0, model.depth_sigma)
    return d


def perceive(
    scene: Scene,
    view: View,
    model: DetectorModel,
    rng: np.random.Generator,
    n: int = 10,
) -> Percept:
    """One look: a detection pass over the objects `view` sees (see
    `detect_batch`) plus geometry reconstruction in `view.mode`. Its
    detections and boxes come only from those objects; its grasp state and
    vision switch are the whole scene's. In FULL and NO_SHAPE each detected
    world object's 3D box is built at look time around its unprojected
    centroid, and each robot part keeps its true box; NO_DEPTH builds none."""
    dets = detect_batch(scene, view, model, rng, n)
    by_label: dict[str, Detection] = {}
    for d in dets:
        if d.label not in by_label or d.confidence > by_label[d.label].confidence:
            by_label[d.label] = d

    boxes3d: dict[str, Box] = {}
    if view.mode is not Mode.NO_DEPTH:
        nominal = (DEFAULT_THRESHOLDS.nominal_extent,) * 3
        for label, det in by_label.items():
            obj = scene.get(det.obj_id)
            if obj.proprio:
                boxes3d[label] = obj.box
            else:
                # FULL's class shape model: the true extents
                center = view.cam.unproject(det.center_px[0], det.center_px[1], det.center_depth)
                boxes3d[label] = Box.from_center(center, obj.box.size if view.mode is Mode.FULL else nominal)

    return Percept(by_label, boxes3d, dict(scene.attachments), view.mode, scene.vision_on)


# --- relation grounding ----------------------------------------------------------


def ground_relation(pred: str, args: tuple[str, ...], percept: Percept) -> bool:
    """Whether `pred(args)` holds in `percept` under `DEFAULT_THRESHOLDS`.
    A predicate outside `GROUNDED_PREDICATES` raises UnknownPredicate,
    whatever its arguments. One of `TERM_PREDICATES` is false when a term is
    undetected, and On and Inside are false for a held object."""
    if pred not in GROUNDED_PREDICATES:
        raise UnknownPredicate(pred)
    th = DEFAULT_THRESHOLDS
    det = percept.detections
    pixel_mode = percept.mode is Mode.NO_DEPTH

    if pred == "Detected":
        (x,) = args
        return x in det and det[x].confidence > th.found_conf

    if pred == "VisionOn":
        return percept.vision_on

    # the grasp state, not geometry: a hold is what a grasp made
    if pred == "Holding":
        h, o = args
        return percept.attachments.get(h) == o

    if pred == "Free":
        return args[0] not in percept.attachments

    # the remaining predicates are binary geometric relations
    a, b = args
    if a not in det or b not in det:
        return False
    if pred in ("On", "Inside") and a in percept.attachments.values():
        return False  # a held object rests on nothing and sits in nothing

    if pred == "On":
        if pixel_mode:
            au0, _, au1, av1 = det[a].bbox
            bu0, bv0, bu1, bv1 = det[b].bbox
            w = min(au1, bu1) - max(au0, bu0)
            if w <= 0.0 or au1 <= au0:
                return False
            if w / (au1 - au0) < th.on_overlap:
                return False
            upper_band = bv0 + 0.5 * (bv1 - bv0)
            return bv0 - th.px_on_gap <= av1 <= upper_band
        ba, bb = percept.boxes3d[a], percept.boxes3d[b]
        return abs(ba.lo[2] - bb.hi[2]) <= th.on_gap and ba.footprint_overlap(bb) >= th.on_overlap

    if pred == "Inside":
        if pixel_mode:
            u0, v0, u1, v1 = det[a].bbox
            w0, x0, w1, x1 = det[b].bbox
            iw = min(u1, w1) - max(u0, w0)
            ih = min(v1, x1) - max(v0, x0)
            area = max(0.0, u1 - u0) * max(0.0, v1 - v0)
            if iw <= 0.0 or ih <= 0.0 or area <= 0.0:
                return False
            return iw * ih / area >= th.inside_ratio
        va = percept.boxes3d[a].volume
        return va > 0.0 and percept.boxes3d[a].intersection_volume(percept.boxes3d[b]) / va >= th.inside_ratio

    # CloseTo or At: centre distance within the predicate's limit
    if pixel_mode:
        (ua, va_), (ub, vb) = det[a].center_px, det[b].center_px
        limit = th.px_close if pred == "CloseTo" else th.px_at
        return math.hypot(ua - ub, va_ - vb) <= limit
    limit = th.close_dist if pred == "CloseTo" else th.at_dist
    return dist(percept.boxes3d[a].center, percept.boxes3d[b].center) <= limit


# --- the full query --------------------------------------------------------------


def check_query_settings(mu: float, tau: int, mode: Mode) -> None:
    """The vision query's settings rule, shared with `MonitorConfig`: raise
    a ValueError naming the setting unless the gate `mu` is a number in
    (0, 1), the re-aim budget `tau` an integer >= 0 and `mode` a Mode."""
    if not isinstance(mu, Real) or isinstance(mu, bool) or not 0.0 < mu < 1.0:
        raise ValueError(f"mu must be a number in (0, 1), got {mu!r}")
    check_int("tau", tau, 0)
    if not isinstance(mode, Mode):
        raise ValueError(f"mode must be a Mode, got {mode!r}")


def query_vision(
    s: State,
    scene: Scene,
    cam: Camera,
    model: DetectorModel,
    rng: np.random.Generator,
    mu: float = 0.7,
    tau: int = 5,
    mode: Mode = Mode.FULL,
    n: int = 10,
) -> tuple[bool, bool]:
    """Verify a conjunction of atoms against the scene; returns (holds,
    timed_out), the answer `monitor.VisionSystem.query` gives. Look from
    `cam`; while any term is missing or under-confident, re-aim at the
    centroid of the terms' scene positions for at most tau steps, so a
    conjunction verifies only when every term fits one view. On timeout the
    answer is (False, True). A term no scene object carries times out at
    once, perceiving nothing and drawing nothing: detection reports only the
    names of scene objects, so no look could find it.

    A look is taken only from a pose whose `View` of the objects carrying
    the terms has every term among its labels. From any other pose the
    look counts as a failed one and perceives and draws nothing, since it
    could not detect every term. The aimed pose does not change between
    steps, so its view is built once and serves every re-look, and when it
    cannot see the terms the query times out at once. Under a noisy
    detector this changes which numbers later looks draw, and it drops a
    false detection that a skipped look might have made: a confused vote
    naming an out-of-view term.

    Otherwise every atom is grounded in the frame whose detections passed
    and `holds` says whether all do. An empty conjunction is vacuously
    true.

    Malformed settings raise ValueError before any look or early answer
    (`check_query_settings`), and so does a frame count `n` that is not an
    int >= 1."""
    check_query_settings(mu, tau, mode)
    check_int("n", n, 1)
    terms = sorted({arg for atom in s.atoms for arg in atom.args})
    if not terms:
        return True, False
    known = [o for o in scene.objects if o.id in terms]
    if len(known) < len(terms):
        return False, True

    view = in_view(scene, cam, known, mode)
    for step in range(tau + 1):
        if step == 1:  # re-aim once: the aimed pose's view serves every later look
            centroid = tuple(sum(o.box.center[i] for o in known) / len(known) for i in range(3))
            view = in_view(scene, cam.aimed_at(centroid), known, mode)
        if len(view.labels) < len(terms):
            if step:
                break  # no later look from the aimed pose sees the terms either
            continue
        percept = perceive(scene, view, model, rng, n)
        det = percept.detections
        if all(t in det and det[t].confidence > mu for t in terms):
            return all(ground_relation(a.pred, a.args, percept) for a in s.canonical()), False
    return False, True
