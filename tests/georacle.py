"""Ground-truth relation oracle: evaluates every geometric predicate
directly on the true scene geometry with plain re-derived math, and
Holding and Free on the scene's grasp state. Perception must agree with
this at zero noise. Visibility gating mirrors the detection contract (an
invisible argument cannot ground a relation)."""

import math
import random
from collections import Counter

from taskmon.geometry import Box, Camera, Scene, SceneObject
from taskmon.perception import DEFAULT_THRESHOLDS, Detection, DetectorModel, Mode, Percept, Thresholds


def visible(scene: Scene, cam: Camera, label: str) -> bool:
    o = scene.by_label(label)
    if o is None:
        return False
    if o.proprio:
        return True
    if not scene.vision_on:
        return False
    return in_view(cam, o.box.center) and cam.project_box(o.box) is not None


def in_view(cam: Camera, p) -> bool:
    """p is in front of the image plane, no farther than max_depth and inside
    both half-angles of the view cone: the test `Camera.view` passes before
    it gives p's pixel."""
    d = [p[k] - cam.position[k] for k in range(3)]
    f, r, u = cam.forward, cam.right, cam.up
    z = d[0] * f[0] + d[1] * f[1] + d[2] * f[2]
    if z <= 1e-9 or z > cam.max_depth:
        return False
    x = d[0] * r[0] + d[1] * r[1] + d[2] * r[2]
    y = d[0] * u[0] + d[1] * u[1] + d[2] * u[2]
    return abs(x / z) <= math.tan(cam.hfov / 2.0) and abs(y / z) <= math.tan(cam.vfov / 2.0)


def _xy_overlap_frac(a: Box, b: Box) -> float:
    w = min(a.hi[0], b.hi[0]) - max(a.lo[0], b.lo[0])
    d = min(a.hi[1], b.hi[1]) - max(a.lo[1], b.lo[1])
    if w <= 0.0 or d <= 0.0:
        return 0.0
    return w * d / ((a.hi[0] - a.lo[0]) * (a.hi[1] - a.lo[1]))


def _inter_vol(a: Box, b: Box) -> float:
    v = 1.0
    for k in range(3):
        span = min(a.hi[k], b.hi[k]) - max(a.lo[k], b.lo[k])
        if span <= 0.0:
            return 0.0
        v *= span
    return v


def _center(b: Box):
    return tuple((b.lo[k] + b.hi[k]) / 2.0 for k in range(3))


def _dist(p, q) -> float:
    return math.sqrt(sum((p[k] - q[k]) ** 2 for k in range(3)))


def _resting_on(a: Box, b: Box, th: Thresholds) -> bool:
    return abs(a.lo[2] - b.hi[2]) <= th.on_gap and _xy_overlap_frac(a, b) >= th.on_overlap


def truth(pred: str, args: tuple, scene: Scene, cam: Camera, th: Thresholds = None) -> bool:
    """What a perfect perceiver should report for pred(args). Holding and
    Free read the scene's grasp state, its attachments, whatever is in view,
    and On and Inside are false for an object the attachments show held.
    Every other relation is re-derived from the true geometry of its
    visible arguments."""
    if pred == "Detected":
        return visible(scene, cam, args[0])
    if pred not in ("VisionOn", "Holding", "Free"):
        if not all(visible(scene, cam, x) for x in args):
            return False
    return world_truth(pred, args, scene, th)


def world_truth(pred: str, args: tuple, scene: Scene, th: Thresholds = None) -> bool:
    """What holds in the true scene, whatever a camera sees: `truth`'s
    relations with no visibility gate. Detected(x) asks that a look aimed at
    x's object from the scene camera's position could see it."""
    th = th or Thresholds()
    att = {scene.get(h).label: scene.get(o).label for h, o in scene.attachments.items()}

    def box(label: str) -> Box:
        return scene.by_label(label).box

    if pred == "Detected":
        o = scene.by_label(args[0])
        return o is not None and visible(scene, scene.camera.aimed_at(o.box.center), args[0])
    if pred == "VisionOn":
        return scene.vision_on
    if pred == "Holding":
        return att.get(args[0]) == args[1]
    if pred == "Free":
        return args[0] not in att

    a, b = args
    if pred in ("On", "Inside") and a in att.values():
        return False  # a held object rests on nothing and sits in nothing
    A, B = box(a), box(b)
    ca, cb = _center(A), _center(B)

    if pred == "On":
        return _resting_on(A, B, th)
    if pred == "Inside":
        return _inter_vol(A, B) / max(A.volume, 1e-12) >= th.inside_ratio
    if pred == "CloseTo":
        return _dist(ca, cb) <= th.close_dist
    if pred == "At":
        return _dist(ca, cb) <= th.at_dist
    raise KeyError(pred)


# --- detection oracle -------------------------------------------------------------


def vote_detect_batch(
    scene: Scene, cam: Camera, objects: list[SceneObject], model: DetectorModel, n: int, rng
) -> list[Detection]:
    """`perception.detect_batch` written the plain way, as the detector's
    contract states it: `in_view` then `project` per listed object, the hit
    and the confusion draws as two n blocks, every frame's vote built over
    the whole scene's labels and ranked by a Counter, jitter averaged over
    the winning frames. It draws the same random numbers in the same order,
    so it must give equal detections and leave the generator in the same
    state."""
    labels = sorted({o.label for o in scene.objects})
    out = []
    for obj in objects:
        center = obj.box.center
        if obj.proprio:
            pr = cam.project(center)
            bbox = cam.project_box(obj.box) or (0.0, 0.0, 0.0, 0.0)
            px = (pr[0], pr[1]) if pr else (0.0, 0.0)
            out.append(Detection(obj.label, obj.id, bbox, px, cam.depth_of(center), 1.0))
            continue
        if not scene.vision_on or not in_view(cam, center):
            continue
        true_bbox = cam.project_box(obj.box)
        pr = cam.project(center)
        if true_bbox is None or pr is None:
            continue
        hit = [r < model.tp_rate for r in rng.random(n).tolist()]
        swap = [False] * n
        if len(labels) > 1:
            swap = [h and r < model.confusion for h, r in zip(hit, rng.random(n).tolist())]
        votes = [obj.label if h else "" for h in hit]  # "" is a miss
        n_swapped = sum(swap)
        if n_swapped:
            others = [l for l in labels if l != obj.label]
            picks = iter(rng.integers(len(others), size=n_swapped).tolist())
            votes = [others[next(picks)] if s else v for v, s in zip(votes, swap)]
        if model.px_jitter > 0.0:
            jitters = rng.normal(0.0, model.px_jitter, size=(n, 2)).tolist()
        else:
            jitters = [(0.0, 0.0)] * n
        ranked = sorted(Counter(votes).items(), key=lambda kv: (-kv[1], kv[0]))
        winner, top = ranked[0]
        if winner == "" or (len(ranked) > 1 and ranked[1][1] == top):
            continue  # modal miss or a tie: no detection
        keep = [j for v, j in zip(votes, jitters) if v == winner]
        du = sum(j[0] for j in keep) / len(keep)
        dv = sum(j[1] for j in keep) / len(keep)
        depth = pr[2]
        if model.depth_sigma > 0.0:
            depth += rng.normal(0.0, model.depth_sigma)
        bbox = (true_bbox[0] + du, true_bbox[1] + dv, true_bbox[2] + du, true_bbox[3] + dv)
        out.append(Detection(winner, obj.id, bbox, (pr[0] + du, pr[1] + dv), depth, top / n))
    return out


def reference_perceive(
    scene: Scene, cam: Camera, objects: list[SceneObject], model: DetectorModel, n: int, rng, mode: Mode
) -> Percept:
    """`perception.perceive` written the plain way: `vote_detect_batch` over
    the listed objects, which projects every robot part whatever the mode,
    the most confident detection per label, and each detected world
    object's box rebuilt around its unprojected centroid from per-axis
    corner sums. Robot parts keep their true boxes; NO_DEPTH rebuilds
    none."""
    by_label = {}
    for d in vote_detect_batch(scene, cam, objects, model, n, rng):
        if d.label not in by_label or d.confidence > by_label[d.label].confidence:
            by_label[d.label] = d
    boxes3d = {}
    if mode is not Mode.NO_DEPTH:
        for label, det in by_label.items():
            obj = scene.get(det.obj_id)
            if obj.proprio:
                boxes3d[label] = obj.box
                continue
            center = cam.unproject(det.center_px[0], det.center_px[1], det.center_depth)
            if mode is Mode.FULL:
                size = tuple(h - l for l, h in zip(obj.box.lo, obj.box.hi))
            else:
                size = (DEFAULT_THRESHOLDS.nominal_extent,) * 3
            boxes3d[label] = Box(
                tuple(c - s / 2.0 for c, s in zip(center, size)),
                tuple(c + s / 2.0 for c, s in zip(center, size)),
            )
    att = {scene.get(h).label: scene.get(o).label for h, o in scene.attachments.items()}
    return Percept(by_label, boxes3d, att, mode, scene.vision_on)


# --- scene sampler ----------------------------------------------------------------


def sample_relation_scene(rng: random.Random, overlap_heavy: bool = False) -> Scene:
    """Random desk scene: a work surface, stacked items, a container, and
    free-standing objects at varied depths. overlap_heavy biases toward
    image-overlapping configurations at different depths."""
    cam = Camera(position=(0.0, 0.0, 1.1), yaw=0.0, pitch=-0.15)
    objects = []

    tx = rng.uniform(0.9, 1.3)
    ty = rng.uniform(-0.25, 0.25)
    top = rng.uniform(0.55, 0.8)
    table = Box((tx, ty - 0.45, 0.0), (tx + 0.75, ty + 0.45, top))
    objects.append(SceneObject("table", "table", table))

    def small(cx, cy, cz, s=None):
        s = s or rng.uniform(0.05, 0.14)
        return Box((cx - s / 2, cy - s / 2, cz), (cx + s / 2, cy + s / 2, cz + s))

    n_items = rng.randint(2, 4)
    for i in range(n_items):
        cx = rng.uniform(tx + 0.1, tx + 0.6)
        cy = rng.uniform(ty - 0.35, ty + 0.35)
        mode = rng.random()
        if mode < 0.45:
            gap = 0.0 if rng.random() < 0.7 else rng.uniform(0.0, 0.015)
            b = small(cx, cy, top + gap)
        elif mode < 0.65:
            b = small(cx, cy, top + rng.uniform(0.04, 0.35))
        else:
            depth = rng.uniform(0.6, 2.2) if not overlap_heavy else rng.uniform(0.8, 2.3)
            b = small(depth, rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0))
        objects.append(SceneObject(f"item{i}", f"item{i}", b))

    if rng.random() < 0.7:
        cx = rng.uniform(tx + 0.1, tx + 0.55)
        cy = rng.uniform(ty - 0.3, ty + 0.3)
        s = rng.uniform(0.18, 0.3)
        objects.append(
            SceneObject("bin", "bin", Box((cx - s / 2, cy - s / 2, top), (cx + s / 2, cy + s / 2, top + s)))
        )
        if rng.random() < 0.7:
            inner = rng.uniform(0.04, 0.08)
            off = rng.uniform(0.0, (s - inner) / 2 * 0.9)
            objects.append(
                SceneObject(
                    "chip",
                    "chip",
                    Box(
                        (cx - inner / 2 + off, cy - inner / 2, top + 0.01),
                        (cx + inner / 2 + off, cy + inner / 2, top + 0.01 + inner),
                    ),
                )
            )

    if overlap_heavy:
        # two objects sharing a line of sight at different depths
        yaw_off = rng.uniform(-0.25, 0.25)
        d1, d2 = rng.uniform(0.7, 1.2), rng.uniform(1.4, 2.3)
        for j, d in enumerate((d1, d2)):
            cx = d * math.cos(yaw_off)
            cy = d * math.sin(yaw_off) + rng.uniform(-0.04, 0.04)
            cz = 1.1 - 0.15 * d + rng.uniform(-0.05, 0.05)
            s = rng.uniform(0.08, 0.2)
            objects.append(SceneObject(f"los{j}", f"los{j}", small(cx, cy, cz, s)))

    return Scene(objects, cam)
