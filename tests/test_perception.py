"""Camera geometry, the batched noisy detector, depth-from-mask, relation
grounding (cross-checked against the direct ground-truth oracle), and the
search-then-verify vision query."""

import math
import random
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import whole_view
from taskmon import monitor, perception
from taskmon.actuator import Disturbance, SimActuator, place_on, translate_object, truth_percept
from taskmon.geometry import IMAGE_HEIGHT, IMAGE_WIDTH, Box, Camera, Scene, SceneObject, load_scene, ray_box
from taskmon.language import State, parse_atom
from taskmon.monitor import LiveVision, MonitorConfig, candidate_atoms
from taskmon.planning import ground_actions
from taskmon.perception import (
    DEFAULT_THRESHOLDS,
    GROUNDED_PREDICATES,
    TERM_PREDICATES,
    DetectorModel,
    Detection,
    Mode,
    NoForeground,
    Thresholds,
    UnknownPredicate,
    detect_batch,
    estimate_depth,
    ground_relation,
    in_view,
    perceive,
    query_vision,
)

import georacle
from stagings import SCENES, STAGINGS, base_scene, stage


def stream(seed: int = 0, k: int = 0) -> np.random.Generator:
    """A fresh generator for a test's perception draws, which the caller owns."""
    return np.random.default_rng([seed, k])


# --- geometry primitives ----------------------------------------------------------


def test_box_rejects_flat_or_inverted_extents():
    with pytest.raises(ValueError):
        Box((0, 0, 0), (1, 0, 1))
    with pytest.raises(ValueError):
        Box((0, 0, 0), (-1, 1, 1))


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("side", ("lo", "hi"))
def test_box_rejects_nan_extents(axis, side):
    corners = {"lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}
    corners[side][axis] = math.nan
    lo, hi = tuple(corners["lo"]), tuple(corners["hi"])
    with pytest.raises(ValueError) as e:
        Box(lo, hi)
    assert str(e.value) == f"box extents must be positive: {lo} .. {hi}"
    with pytest.raises(ValueError) as e:
        Box.from_center((0.0, 0.0, 0.0), tuple(math.nan if k == axis else 1.0 for k in range(3)))
    assert str(e.value).startswith("box extents must be positive: ")


def test_box_accessors():
    b = Box((0.0, 0.0, 0.0), (2.0, 4.0, 1.0))
    assert b.center == (1.0, 2.0, 0.5)
    assert b.size == (2.0, 4.0, 1.0)
    assert b.volume == pytest.approx(8.0)


def _fresh_center_size(box):
    return (
        tuple((l + h) / 2.0 for l, h in zip(box.lo, box.hi)),
        tuple(h - l for l, h in zip(box.lo, box.hi)),
    )


def test_box_geometry_follows_replace():
    b = Box((0.1, -0.3, 0.0), (0.7, 0.2, 0.9))
    assert (b.center, b.size) == _fresh_center_size(b)
    moved = replace(b, lo=(-1.3, 0.05, 0.2))
    assert (moved.center, moved.size) == _fresh_center_size(moved)
    grown = replace(moved, hi=(2.0, 2.5, 3.25))
    assert (grown.center, grown.size) == _fresh_center_size(grown)
    # the source box keeps its own geometry
    assert (b.center, b.size) == _fresh_center_size(Box(b.lo, b.hi))


def test_footprint_overlap_and_intersection():
    base = Box((0, 0, 0), (1, 1, 1))
    half = Box((0.5, 0, 0), (1.5, 1, 1))
    assert base.footprint_overlap(half) == pytest.approx(0.5)
    assert half.footprint_overlap(base) == pytest.approx(0.5)
    assert base.intersection_volume(half) == pytest.approx(0.5)
    apart = Box((5, 5, 5), (6, 6, 6))
    assert base.footprint_overlap(apart) == 0.0
    assert base.intersection_volume(apart) == 0.0
    # ratio is relative to the subject's own footprint, so it is asymmetric
    small = Box((0.25, 0.25, 0), (0.75, 0.75, 1))
    assert small.footprint_overlap(base) == pytest.approx(1.0)
    assert base.footprint_overlap(small) == pytest.approx(0.25)


def test_ray_box_entry_distances():
    b = Box((1.0, -0.5, -0.5), (2.0, 0.5, 0.5))
    assert ray_box((0, 0, 0), (1, 0, 0), b) == pytest.approx(1.0)
    assert ray_box((1.5, 0, 0), (1, 0, 0), b) == 0.0  # starting inside
    assert ray_box((0, 0, 0), (0, 1, 0), b) is None
    assert ray_box((0, 2, 0), (1, 0, 0), b) is None  # parallel slab miss
    assert ray_box((0, 0, 0), (-1, 0, 0), b) is None  # behind


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(0.2, 5.0),
    y=st.floats(-3.0, 3.0),
    z=st.floats(-1.0, 3.0),
    yaw=st.floats(-3.0, 3.0),
    pitch=st.floats(-0.6, 0.6),
)
def test_project_unproject_roundtrip(x, y, z, yaw, pitch):
    cam = Camera(position=(0.3, -0.2, 1.1), yaw=yaw, pitch=pitch)
    p = (x, y, z)
    pr = cam.project(p)
    if pr is None:
        assert cam.depth_of(p) <= 1e-9
        return
    u, v, d = pr
    assert d == pytest.approx(cam.depth_of(p))
    back = cam.unproject(u, v, d)
    assert all(abs(a - b) < 1e-9 for a, b in zip(back, p))


def test_camera_axes_orthonormal():
    cam = Camera(yaw=0.7, pitch=-0.3)
    f, r, u = cam.forward, cam.right, cam.up
    for vec in (f, r, u):
        assert math.fsum(c * c for c in vec) == pytest.approx(1.0)
    assert sum(a * b for a, b in zip(f, r)) == pytest.approx(0.0, abs=1e-12)
    assert sum(a * b for a, b in zip(f, u)) == pytest.approx(0.0, abs=1e-12)
    assert sum(a * b for a, b in zip(r, u)) == pytest.approx(0.0, abs=1e-12)


def _fresh_basis(yaw, pitch):
    cp, sp = math.cos(pitch), math.sin(pitch)
    f = (cp * math.cos(yaw), cp * math.sin(yaw), sp)
    r = (math.sin(yaw), -math.cos(yaw), 0.0)
    u = (r[1] * f[2] - r[2] * f[1], r[2] * f[0] - r[0] * f[2], r[0] * f[1] - r[1] * f[0])
    return f, r, u


def test_camera_basis_follows_replace():
    cam = Camera(yaw=0.7, pitch=-0.3)
    assert (cam.forward, cam.right, cam.up) == _fresh_basis(0.7, -0.3)
    turned = replace(cam, yaw=-2.1)
    assert (turned.forward, turned.right, turned.up) == _fresh_basis(-2.1, -0.3)
    assert turned.tan_half_hfov == math.tan(turned.hfov / 2.0)
    narrow = replace(turned, vfov=0.4)
    assert narrow.tan_half_vfov == math.tan(0.2)
    # the source camera keeps its own basis
    assert cam.forward == _fresh_basis(0.7, -0.3)[0]


def test_in_view_gates_depth_and_cone():
    cam = Camera(position=(0, 0, 1.0), yaw=0.0, pitch=0.0, max_depth=2.5)
    # just inside / outside the horizontal half-angle at depth 1
    t = math.tan(cam.hfov / 2.0)
    cases = [
        ((1.0, 0.0, 1.0), True),
        ((2.6, 0.0, 1.0), False),  # beyond range
        ((-1.0, 0.0, 1.0), False),  # behind
        ((1.0, t - 1e-6, 1.0), True),
        ((1.0, t + 1e-6, 1.0), False),
    ]
    for p, seen in cases:
        assert georacle.in_view(cam, p) is seen
        assert (cam.view(p) is not None) is seen


def test_project_box_requires_all_corners_in_front():
    cam = Camera(position=(0, 0, 0), yaw=0.0, pitch=0.0)
    assert cam.project_box(Box((1, -0.2, -0.2), (2, 0.2, 0.2))) is not None
    # straddles the image plane
    assert cam.project_box(Box((-0.5, -0.2, -0.2), (0.5, 0.2, 0.2))) is None


def test_project_box_is_exactly_project_over_the_corners():
    rng = random.Random(20)
    in_front = straddling = 0
    for _ in range(400):
        cam = Camera(
            position=tuple(rng.uniform(-2.0, 2.0) for _ in range(3)),
            yaw=rng.uniform(-math.pi, math.pi),
            pitch=rng.uniform(-1.2, 1.2),
        )
        lo = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        box = Box(lo, tuple(l + rng.uniform(0.01, 2.5) for l in lo))
        (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
        corners = [(x, y, z) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
        projected = [cam.project(c) for c in corners]
        if all(pr is not None for pr in projected):
            us, vs = [pr[0] for pr in projected], [pr[1] for pr in projected]
            expected = (min(us), min(vs), max(us), max(vs))
            in_front += 1
        else:
            expected = None
            straddling += any(pr is not None for pr in projected)
        assert cam.project_box(box) == expected
        assert cam.in_front(box) is (expected is not None)
    assert in_front >= 50 and straddling >= 50


def test_in_front_is_project_box_without_the_projection(packaged_lib):
    # every packaged-staging object at every scan-ring pose, then boxes
    # whose nearest corner sits on the 1e-9 margin or a few ulps either side
    for name in SCENES:
        scene = stage(name, packaged_lib.vocab).scene
        for cam in _scan_ring(scene):
            for o in scene.objects:
                assert cam.in_front(o.box) is (cam.project_box(o.box) is not None), (name, cam, o.id)
    ahead = Camera(position=(0.0, 0.0, 0.0), yaw=0.0, pitch=0.0)
    for x0, front in ((1e-9, False), (math.nextafter(1e-9, 1.0), True)):
        box = Box((x0, -0.1, -0.1), (1.0, 0.1, 0.1))
        assert ahead.in_front(box) is front is (ahead.project_box(box) is not None)
    rng = random.Random(21)
    seen = Counter()
    for _ in range(1500):
        cam = Camera(
            position=tuple(rng.uniform(-2.0, 2.0) for _ in range(3)),
            yaw=rng.uniform(-math.pi, math.pi),
            pitch=rng.uniform(-1.2, 1.2),
        )
        lo = tuple(rng.uniform(-3.0, 3.0) for _ in range(3))
        box = Box(lo, tuple(l + rng.uniform(0.01, 2.5) for l in lo))
        # slide the box along the view axis until its nearest corner sits at
        # 1e-9 plus a few ulps of the corner's coordinates
        (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
        nearest = min(cam.depth_of((x, y, z)) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1))
        shift = 1e-9 + rng.randint(-8, 8) * 2e-16 - nearest
        box = Box(*(tuple(c + shift * f for c, f in zip(corner, cam.forward)) for corner in (box.lo, box.hi)))
        front = cam.in_front(box)
        assert front is (cam.project_box(box) is not None), (cam, box)
        seen[front] += 1
    assert min(seen[True], seen[False]) >= 300, seen


def test_aimed_at_centers_target():
    cam = Camera(position=(0, 0, 1.2))
    p = (1.4, -0.9, 0.3)
    aimed = cam.aimed_at(p)
    u, v, _ = aimed.project(p)
    assert u == pytest.approx(IMAGE_WIDTH / 2.0)
    assert v == pytest.approx(IMAGE_HEIGHT / 2.0)
    assert georacle.in_view(aimed, p)


def test_scene_validation():
    b = Box((0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="duplicate"):
        Scene([SceneObject("a", "a", b), SceneObject("a", "b", b)], Camera())
    with pytest.raises(ValueError, match="missing object"):
        Scene([SceneObject("a", "a", b)], Camera(), attachments={"a": "ghost"})
    with pytest.raises(ValueError, match="support a->ghost references a missing object"):
        Scene([SceneObject("a", "a", b, supported_by="ghost")], Camera())
    with pytest.raises(ValueError, match="cycle"):
        Scene(
            [
                SceneObject("a", "a", b, supported_by="b"),
                SceneObject("b", "b", b, supported_by="a"),
            ],
            Camera(),
        )


def test_scene_yaml_roundtrip(tmp_path):
    path = tmp_path / "scene.yaml"
    path.write_text(
        """
camera: {position: [0, 0, 1.3], yaw: 0.2, pitch: -0.1}
objects:
  - {id: hand, label: hand, box: [[0.2, 0, 0.9], [0.3, 0.1, 1.0]], proprio: true}
  - {id: brush, label: brush, box: [[1, 0, 0.7], [1.1, 0.1, 0.8]], supported_by: table}
  - {id: table, label: table, box: [[0.8, -0.5, 0], [1.6, 0.5, 0.7]]}
attachments: {hand: brush}
vision_on: false
"""
    )
    scene = Scene(
        [
            SceneObject("hand", "hand", Box((0.2, 0, 0.9), (0.3, 0.1, 1.0)), proprio=True),
            SceneObject("brush", "brush", Box((1, 0, 0.7), (1.1, 0.1, 0.8)), supported_by="table"),
            SceneObject("table", "table", Box((0.8, -0.5, 0), (1.6, 0.5, 0.7))),
        ],
        Camera(position=(0, 0, 1.3), yaw=0.2, pitch=-0.1),
        attachments={"hand": "brush"},
        vision_on=False,
    )
    back = load_scene(str(path))
    assert back.camera == scene.camera
    assert back.attachments == {"hand": "brush"}
    assert back.vision_on is False
    for orig in scene.objects:
        got = back.get(orig.id)
        assert got.label == orig.label
        assert got.proprio == orig.proprio
        assert got.supported_by == orig.supported_by
        assert got.box.lo == pytest.approx(orig.box.lo)
        assert got.box.hi == pytest.approx(orig.box.hi)


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "scene must be a mapping, got NoneType"),
        ("objects: 5", "scene: field 'objects' must be a list, got int"),
        ("objects: [{box: [[0, 0, 0], [1, 1, 1]]}]", "scene: object 0: missing field 'id'"),
        ("objects: [{id: cup, box: [[0, 0, 0]]}]", "scene: object cup: field 'box' must hold 2 corners, got 1"),
        ("camera: 3", "scene: field 'camera' must be a mapping, got int"),
        ("camera: {zoom: 2}", "scene: camera: unknown fields ['zoom'], expected some of "
         "['position', 'yaw', 'pitch', 'hfov', 'vfov', 'max_depth']"),
        ("object: []", "scene: unknown fields ['object'], expected some of "
         "['objects', 'camera', 'attachments', 'vision_on']"),
        ("objects: [{id: cup, box: [[0, 0, 0], [1, 1, 1]], lable: mug}]", "scene: object cup: unknown fields "
         "['lable'], expected some of ['id', 'label', 'box', 'supported_by', 'proprio']"),
        ("camera: {position: [.nan, 0, 1]}", "scene: camera: field 'position' must be finite, got [nan, 0, 1]"),
        ("camera: {max_depth: .nan}", "scene: camera: field 'max_depth' must be finite, got nan"),
        ("camera: {max_depth: .inf}", "scene: camera: field 'max_depth' must be finite, got inf"),
        ("camera: {yaw: .inf}", "scene: camera: field 'yaw' must be finite, got inf"),
        ("objects: [{id: cup, box: [[0, 0, 0], [1, 1, .inf]]}]",
         "scene: object cup: field 'box' must be finite, got [1, 1, inf]"),
        ("camera: {hfov: 1%s}" % ("0" * 309), "scene: camera: field 'hfov' must be finite, got 1%s" % ("0" * 309)),
    ],
)
def test_scene_loader_names_the_misshapen_field(tmp_path, text, message):
    path = tmp_path / "scene.yaml"
    path.write_text(text)
    with pytest.raises(ValueError) as e:
        load_scene(str(path))
    assert str(e.value) == message


# --- detection ---------------------------------------------------------------------


def desk_scene(vision_on: bool = True) -> Scene:
    cam = Camera(position=(0, 0, 1.1), yaw=0.0, pitch=-0.15)
    table = Box((0.9, -0.45, 0.0), (1.65, 0.45, 0.7))
    return Scene(
        [
            SceneObject("table", "table", table),
            SceneObject("brush", "brush", Box((1.1, -0.1, 0.7), (1.2, 0.0, 0.78))),
            SceneObject("cup", "cup", Box((1.3, 0.15, 0.7), (1.38, 0.23, 0.79))),
            SceneObject("far_crate", "far_crate", Box((4.0, -0.3, 0.0), (4.6, 0.3, 0.6))),
            SceneObject("hind_block", "hind_block", Box((-1.5, -0.2, 0.8), (-1.2, 0.1, 1.1))),
            SceneObject("hand", "hand", Box((0.25, 0.0, 0.85), (0.35, 0.1, 0.95)), proprio=True),
        ],
        cam,
        vision_on=vision_on,
    )


def test_zero_noise_detection_is_exact():
    # the pixel box is projected only in NO_DEPTH, whose rules read it; the
    # centre and its depth, which reconstruction reads, in every mode
    scene = desk_scene()
    cam = scene.camera
    for mode in Mode:
        dets = {d.label: d for d in detect_batch(scene, whole_view(scene, cam, mode), DetectorModel(), stream(), 5)}
        # far and behind objects are not in view; everything else is
        assert set(dets) == {"table", "brush", "cup", "hand"}
        for label in ("table", "brush", "cup"):
            obj = scene.by_label(label)
            d = dets[label]
            assert d.confidence == 1.0
            assert d.obj_id == obj.id
            if mode is Mode.NO_DEPTH:
                assert d.bbox == cam.project_box(obj.box) != (0.0, 0.0, 0.0, 0.0)
            else:
                assert d.bbox == (0.0, 0.0, 0.0, 0.0)
            pr = cam.project(obj.box.center)
            assert d.center_px == (pr[0], pr[1])
            assert d.center_depth == cam.depth_of(obj.box.center)


def test_vision_off_reports_only_proprio():
    scene = desk_scene(vision_on=False)
    dets = detect_batch(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=3)
    assert [d.label for d in dets] == ["hand"]
    assert dets[0].confidence == 1.0


def test_proprio_reported_even_outside_view():
    cam = Camera(position=(0, 0, 1.1))
    scene = Scene(
        [SceneObject("hand", "hand", Box((-1, -0.1, 0.9), (-0.9, 0.0, 1.0)), proprio=True)],
        cam,
        vision_on=False,
    )
    dets = detect_batch(scene, whole_view(scene, cam), DetectorModel(), stream(), n=1)
    assert len(dets) == 1 and dets[0].label == "hand"


def test_detection_confidence_bounds():
    with pytest.raises(ValueError):
        Detection("x", "x", (0, 0, 1, 1), (0, 0), 1.0, 1.5)


def test_model_rate_validation():
    with pytest.raises(ValueError):
        DetectorModel(tp_rate=1.2)
    with pytest.raises(ValueError):
        DetectorModel(confusion=-0.1)
    with pytest.raises(ValueError):
        DetectorModel(px_jitter=-1)
    with pytest.raises(ValueError):
        DetectorModel(depth_sigma=-0.5)
    # a non-finite noise level would end a run on an unusable box, or pass
    # unnoticed as nan
    for name in ("px_jitter", "depth_sigma"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                DetectorModel(**{name: bad})
    for name in ("tp_rate", "confusion"):
        with pytest.raises(ValueError):
            DetectorModel(**{name: math.nan})
    m = DetectorModel(tp_rate=0.9, px_jitter=0.0, depth_sigma=0.0)
    assert m.tp_rate == 0.9


@pytest.mark.parametrize(
    "field, bad",
    [
        ("tp_rate", "0.5"),
        ("tp_rate", None),
        ("tp_rate", True),
        ("confusion", None),
        ("confusion", False),
        ("px_jitter", "1"),
        ("px_jitter", None),
        ("depth_sigma", True),
        ("depth_sigma", None),
    ],
    ids=["tp_rate-str", "tp_rate-none", "tp_rate-bool", "confusion-none", "confusion-bool",
         "px_jitter-str", "px_jitter-none", "depth_sigma-bool", "depth_sigma-none"],
)
def test_detector_model_refuses_a_malformed_setting_by_name(field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be .*, got {re.escape(repr(bad))}$"):
        DetectorModel(**{field: bad})


def test_batch_size_must_be_positive():
    scene = desk_scene()
    with pytest.raises(ValueError):
        detect_batch(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=0)


@pytest.mark.parametrize("n", [0, -2, 2.5, 2.0, True, "3", None])
def test_detection_refuses_a_malformed_frame_count_by_name(n):
    # a bool, a non-integer or a count below 1 is refused before any draw;
    # a numpy integer is an integer
    scene = desk_scene()
    rng = stream()
    drawn = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^n must be an integer >= 1, got {re.escape(repr(n))}$"):
        detect_batch(scene, whole_view(scene, scene.camera), DetectorModel(), rng, n)
    assert rng.bit_generator.state == drawn
    noisy = DetectorModel(tp_rate=0.9, confusion=0.1)
    want = detect_batch(scene, whole_view(scene, scene.camera), noisy, stream(1), 3)
    assert detect_batch(scene, whole_view(scene, scene.camera), noisy, stream(1), np.int64(3)) == want


def test_always_missed_detector_reports_nothing_visual():
    scene = desk_scene()
    dets = detect_batch(scene, whole_view(scene, scene.camera), DetectorModel(tp_rate=0.0), stream(), n=10)
    assert [d.label for d in dets] == ["hand"]


def _modal_win_prob(n: int, p_true: float, n_distractors: int) -> float:
    """Exact P(true label is the strict modal vote) for per-frame distribution:
    true with p_true, each distractor with (1 - p_true) / n_distractors."""
    pd = (1.0 - p_true) / n_distractors
    total = 0.0

    def rec(remaining: int, slots: int, counts: list):
        nonlocal total
        if slots == 0:
            if remaining == 0:
                k0, rest = counts[0], counts[1:]
                if k0 > (max(rest) if rest else -1):
                    coeff = math.factorial(n)
                    for k in counts:
                        coeff //= math.factorial(k)
                    total += coeff * (p_true ** k0) * (pd ** sum(rest))
            return
        for k in range(remaining + 1):
            rec(remaining - k, slots - 1, counts + [k])

    rec(n, 1 + n_distractors, [])
    return total


def test_confusion_voting_matches_multinomial_oracle():
    # four mutually visible labels: three distractor classes per object
    cam = Camera(position=(0, 0, 1.0), yaw=0.0, pitch=-0.1)
    objs = []
    for i, y in enumerate((-0.3, -0.1, 0.1, 0.3)):
        objs.append(SceneObject(f"o{i}", f"o{i}", Box((1.2, y, 0.6), (1.3, y + 0.08, 0.68))))
    scene = Scene(objs, cam)
    model = DetectorModel(tp_rate=1.0, confusion=0.3)

    exact = _modal_win_prob(10, 0.7, 3)
    rng = stream(11)
    trials, wins = 0, 0
    for _ in range(1000):
        dets = detect_batch(scene, whole_view(scene, cam), model, rng, n=10)
        by_id = {d.obj_id: d for d in dets}
        for o in objs:
            trials += 1
            d = by_id.get(o.id)
            if d is not None and d.label == o.label:
                wins += 1
    emp = wins / trials
    assert abs(emp - exact) < 0.03
    assert emp >= 0.95  # votes over ten frames shrug off 30% confusion here


def test_batch_voting_beats_single_frame_under_noise():
    scene = desk_scene()
    cam = scene.camera
    model = DetectorModel(tp_rate=0.75, confusion=0.2)

    def correct_rate(n: int) -> float:
        rng = stream(3)
        good, total = 0, 0
        for _ in range(1000):
            dets = {d.obj_id: d for d in detect_batch(scene, whole_view(scene, cam), model, rng, n=n)}
            for label in ("table", "brush", "cup"):
                obj = scene.by_label(label)
                total += 1
                d = dets.get(obj.id)
                if d is not None and d.label == label:
                    good += 1
        return good / total

    assert correct_rate(10) > correct_rate(1) + 0.05


def test_detection_determinism_per_seed():
    scene = desk_scene()
    model = DetectorModel(tp_rate=0.8, confusion=0.2, px_jitter=1.5, depth_sigma=0.01)
    a = detect_batch(scene, whole_view(scene, scene.camera), model, stream(42), n=10)
    b = detect_batch(scene, whole_view(scene, scene.camera), model, stream(42), n=10)
    assert a == b
    c = detect_batch(scene, whole_view(scene, scene.camera), DetectorModel(tp_rate=0.8, confusion=0.2), stream(43), n=10)
    assert c != a or [d.label for d in c] != [d.label for d in a]


@pytest.mark.parametrize("yaw,m", [(0.0, 3), (1.0, 0), (math.pi, 1)])
def test_noise_free_detection_takes_two_doubles_per_frame_per_visible_object(yaw, m):
    scene = desk_scene()
    cam = replace(scene.camera, yaw=yaw)
    assert sum(1 for o in scene.objects if not o.proprio and georacle.in_view(cam, o.box.center)) == m
    model = DetectorModel()
    rng, twin = stream(), stream()
    n = 7
    detect_batch(scene, whole_view(scene, cam), model, rng, n=n)
    twin.random(2 * n * m)
    assert rng.bit_generator.state == twin.bit_generator.state


def _turned_desk_scene() -> Scene:
    # faces the block behind the start pose; the table is now behind
    scene = desk_scene()
    scene.camera = replace(scene.camera, yaw=math.pi)
    return scene


def _one_label_scene() -> Scene:
    cam = Camera(position=(0, 0, 1.1), yaw=0.0, pitch=-0.15)
    cup = lambda x, y: Box((x, y, 0.7), (x + 0.08, y + 0.08, 0.79))
    return Scene(
        [
            SceneObject("cup1", "cup", cup(1.1, -0.1)),
            SceneObject("cup2", "cup", cup(1.3, 0.15)),
            SceneObject("cup3", "cup", cup(-1.4, 0.0)),  # behind the camera
        ],
        cam,
    )


VOTE_SCENES = {
    "desk": desk_scene,
    "desk-turned": _turned_desk_scene,
    "one-label": _one_label_scene,
    "vision-off": lambda: desk_scene(vision_on=False),
}


def _unprojected(scene: Scene, dets: list[Detection]) -> list[Detection]:
    """dets as a 3D mode leaves them: every pixel box zeroed, and a robot
    part's centre and depth too. A world object keeps its centre and depth."""
    return [
        replace(d, bbox=(0.0, 0.0, 0.0, 0.0), center_px=(0.0, 0.0), center_depth=0.0)
        if scene.get(d.obj_id).proprio
        else replace(d, bbox=(0.0, 0.0, 0.0, 0.0))
        for d in dets
    ]


@pytest.mark.parametrize("scene_name", sorted(VOTE_SCENES))
def test_detection_equals_the_per_frame_vote(scene_name):
    # ties come from even n, the ranked vote from confusion; three batches
    # share one generator, as a query's frames do: one over the whole scene,
    # then two over random subsets of its objects in random order. A confused
    # frame picks from every label of the scene, so a listed object can be
    # voted in under an unlisted object's label. The oracle projects every
    # box and robot part; detect_batch does so only for NO_DEPTH
    scene = VOTE_SCENES[scene_name]()
    grid = list(product((0.0, 0.5, 0.95, 1.0), (0.0, 0.05, 0.5), (0.0, 1.0), (0.0, 0.02), (1, 2, 4, 10)))
    pick = random.Random(scene_name)
    foreign = 0
    for mode in Mode:
        for seed, (tp, conf, jitter, sigma, n) in enumerate(grid):
            model = DetectorModel(tp_rate=tp, confusion=conf, px_jitter=jitter, depth_sigma=sigma)
            rng, twin = stream(seed), stream(seed)
            for batch in range(3):
                objects = pick.sample(scene.objects, pick.randint(0, len(scene.objects))) if batch else scene.objects
                got = detect_batch(scene, in_view(scene, scene.camera, objects, mode), model, rng, n)
                want = georacle.vote_detect_batch(scene, scene.camera, objects, model, n, twin)
                if mode is not Mode.NO_DEPTH:
                    want = _unprojected(scene, want)
                assert got == want, (mode, tp, conf, jitter, sigma, n, [o.id for o in objects])
                assert rng.bit_generator.state == twin.bit_generator.state
                assert {d.obj_id for d in got} <= {o.id for o in objects}
                foreign += sum(d.label not in {o.label for o in objects} for d in got)
    assert foreign > 0 or scene_name in ("one-label", "vision-off")


def test_jitter_shifts_bbox_and_center_together():
    scene = desk_scene()
    cam = scene.camera
    dets = {d.label: d for d in detect_batch(scene, whole_view(scene, cam, Mode.NO_DEPTH), DetectorModel(px_jitter=3.0), stream(5), 10)}
    d = dets["brush"]
    true_bbox = cam.project_box(scene.by_label("brush").box)
    du = d.bbox[0] - true_bbox[0]
    dv = d.bbox[1] - true_bbox[1]
    assert (du, dv) != (0.0, 0.0)
    assert d.bbox[2] - true_bbox[2] == pytest.approx(du)
    assert d.bbox[3] - true_bbox[3] == pytest.approx(dv)
    pr = cam.project(scene.by_label("brush").box.center)
    assert d.center_px[0] - pr[0] == pytest.approx(du)
    assert d.center_px[1] - pr[1] == pytest.approx(dv)


def test_depth_sigma_perturbs_reported_depth():
    scene = desk_scene()
    dets = {d.label: d for d in detect_batch(scene, whole_view(scene, scene.camera), DetectorModel(depth_sigma=0.05), stream(9), n=5)}
    true_depth = scene.camera.depth_of(scene.by_label("cup").box.center)
    assert dets["cup"].center_depth != true_depth
    assert abs(dets["cup"].center_depth - true_depth) < 0.5


# --- depth from the foreground mask ------------------------------------------------


def test_estimate_depth_exact_on_front_face():
    cam = Camera(position=(0, 0, 1.0), yaw=0.0, pitch=0.0)
    scene = Scene([SceneObject("slab", "slab", Box((1.2, -0.3, 0.7), (1.5, 0.3, 1.3)))], cam)
    det = detect_batch(scene, whole_view(scene, cam, Mode.NO_DEPTH), DetectorModel(), stream(), 1)[0]
    d = estimate_depth(det, scene, cam, DetectorModel(), stream(0, 1))
    # every lattice ray enters through the x = 1.2 face: forward depth 1.2
    assert d == pytest.approx(1.2, abs=1e-9)


@pytest.mark.parametrize("mode", [Mode.FULL, Mode.NO_SHAPE])
def test_estimate_depth_refuses_a_detection_without_a_pixel_box(mode):
    # a 3D mode projects no pixel box: the lattice would sit at pixel (0, 0)
    cam = Camera(position=(0, 0, 1.0), yaw=0.0, pitch=0.0)
    scene = Scene([SceneObject("slab", "slab", Box((1.2, -0.3, 0.7), (1.5, 0.3, 1.3)))], cam)
    det = detect_batch(scene, whole_view(scene, cam, mode), DetectorModel(), stream(), 1)[0]
    rng = stream(0, 1)
    with pytest.raises(ValueError, match="slab: the detection has no pixel box; estimate_depth takes a NO_DEPTH"):
        estimate_depth(det, scene, cam, DetectorModel(depth_sigma=0.1), rng)
    assert rng.bit_generator.state == stream(0, 1).bit_generator.state


def test_estimate_depth_prefers_front_object_under_overlap():
    cam = Camera(position=(0, 0, 1.0), yaw=0.0, pitch=0.0)
    front = SceneObject("front", "front", Box((1.0, -0.10, 0.9), (1.12, 0.10, 1.1)))
    back = SceneObject("back", "back", Box((2.0, -0.5, 0.5), (2.3, 0.5, 1.5)))
    scene = Scene([front, back], cam)
    dets = {d.label: d for d in detect_batch(scene, whole_view(scene, cam, Mode.NO_DEPTH), DetectorModel(), stream(), 1)}
    d_front = estimate_depth(dets["front"], scene, cam, DetectorModel(), stream(0, 1))
    assert d_front == pytest.approx(1.0, abs=1e-9)
    # the back box's detection window is mostly blocked: surviving rays still
    # report the back face depth, never the occluder's
    d_back = estimate_depth(dets["back"], scene, cam, DetectorModel(), stream(0, 1))
    assert d_back == pytest.approx(2.0, abs=1e-9)


def test_estimate_depth_raises_when_fully_occluded():
    cam = Camera(position=(0, 0, 1.0), yaw=0.0, pitch=0.0)
    wall = SceneObject("wall", "wall", Box((0.8, -0.8, 0.2), (0.9, 0.8, 1.8)))
    hidden = SceneObject("hidden", "hidden", Box((1.5, -0.05, 0.95), (1.6, 0.05, 1.05)))
    scene = Scene([wall, hidden], cam)
    dets = {d.label: d for d in detect_batch(scene, whole_view(scene, cam, Mode.NO_DEPTH), DetectorModel(), stream(), 1)}
    assert "hidden" in dets  # the detector has no occlusion model
    with pytest.raises(NoForeground):
        estimate_depth(dets["hidden"], scene, cam, DetectorModel(), stream(0, 1))


# --- reconstruction ----------------------------------------------------------------


def test_full_mode_reconstructs_true_boxes_at_zero_noise():
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera, Mode.FULL), DetectorModel(), stream(), n=1)
    for label in ("table", "brush", "cup", "hand"):
        true = scene.by_label(label).box
        got = p.boxes3d[label]
        assert got.lo == pytest.approx(true.lo, abs=1e-9)
        assert got.hi == pytest.approx(true.hi, abs=1e-9)


def test_no_shape_mode_uses_nominal_cubes():
    scene = desk_scene()
    th = Thresholds()
    p = perceive(scene, whole_view(scene, scene.camera, Mode.NO_SHAPE), DetectorModel(), stream(), n=1)
    for label in ("table", "brush", "cup"):
        assert p.boxes3d[label].size == pytest.approx((th.nominal_extent,) * 3)
        # centroid position is still metric
        assert p.boxes3d[label].center == pytest.approx(scene.by_label(label).box.center, abs=1e-9)
    assert p.boxes3d["hand"].size == pytest.approx(scene.by_label("hand").box.size)  # proprio keeps shape


def test_no_depth_mode_has_no_metric_boxes():
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera, Mode.NO_DEPTH), DetectorModel(), stream(), n=1)
    assert p.boxes3d == {}
    assert set(p.detections) == {"table", "brush", "cup", "hand"}


def test_percept_attachments_use_labels():
    scene = desk_scene()
    scene.attachments["hand"] = "brush"
    p = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    assert p.attachments == {"hand": "brush"}


def _scan_ring(scene: Scene) -> list[Camera]:
    """The poses of a LiveVision scan of the scene, in order. A scan with no
    candidates builds the ring and looks from none of it."""
    vision = LiveVision(scene, MonitorConfig())
    vision.scan([])
    return vision._ring


@pytest.mark.parametrize("staging_name", SCENES)
def test_perceive_equals_the_plain_reference_on_packaged_scenes(packaged_lib, staging_name):
    # per ring pose, mode and detector: the same boxes as soon as the look
    # returns, before any rule reads one, the same answer for every
    # candidate atom, the same detections but for the pixel fields a 3D mode
    # does not read, and the same generator state
    vocab = packaged_lib.vocab
    scene = stage(staging_name, vocab).scene
    objects = {o.label: vocab.terms[o.label].sort for o in scene.objects}
    grounded = [p for p in vocab.predicates.values() if p.name in GROUNDED_PREDICATES]
    atoms = candidate_atoms(objects, grounded, vocab)
    noisy = DetectorModel(tp_rate=0.9, confusion=0.1, px_jitter=2.0, depth_sigma=0.02)
    held = 0
    for seed, model in ((0, DetectorModel()), (17, noisy)):
        for mode in Mode:
            rng, twin = stream(seed), stream(seed)
            for cam in _scan_ring(scene):
                got = perceive(scene, whole_view(scene, cam, mode), model, rng, 10)
                want = georacle.reference_perceive(scene, cam, scene.objects, model, 10, twin, mode)
                assert got.boxes3d == want.boxes3d, (mode, model, cam)
                assert rng.bit_generator.state == twin.bit_generator.state
                for a in atoms:
                    answer = ground_relation(a.pred, a.args, got)
                    assert answer == ground_relation(a.pred, a.args, want), (mode, model, cam, a)
                    held += answer
                dets = list(want.detections.values())
                if mode is Mode.NO_DEPTH:
                    assert got.boxes3d == {}
                else:
                    assert set(want.boxes3d) == set(want.detections)
                    dets = _unprojected(scene, dets)
                assert got.detections == {d.label: d for d in dets}
    assert held > 0


@pytest.mark.parametrize("mode", list(Mode))
def test_perceive_projects_robot_parts_only_for_pixel_grounding(mode, monkeypatch):
    # NO_DEPTH projects the box of each world object whose centre is in view,
    # once, in the visibility test, then each robot part's in detection; a 3D
    # mode projects nothing, and tests each such world object's corners with
    # `in_front` instead
    scene = base_scene()
    ring = _scan_ring(scene)
    assert any(o.proprio for o in scene.objects)
    projected, tested = [], []
    project_box, in_front = Camera.project_box, Camera.in_front

    def spy(cam, box):
        projected.append(box)
        return project_box(cam, box)

    def front_spy(cam, box):
        tested.append(box)
        return in_front(cam, box)

    def unread(*args):
        raise AssertionError("a robot part projected in a 3D mode")

    monkeypatch.setattr(Camera, "project_box", spy)
    monkeypatch.setattr(Camera, "in_front", front_spy)
    pixels = mode is Mode.NO_DEPTH
    if not pixels:
        monkeypatch.setattr(Camera, "project", unread)
        monkeypatch.setattr(Camera, "depth_of", unread)
    seen = 0
    for cam in ring:
        projected.clear()
        tested.clear()
        perceive(scene, whole_view(scene, cam, mode), DetectorModel(), stream(), 10)
        looked = [o for o in scene.objects if o.proprio or georacle.in_view(cam, o.box.center)]
        world = [o.box for o in looked if not o.proprio]
        parts = [o.box for o in looked if o.proprio]
        assert (projected, tested) == ((world + parts, []) if pixels else ([], world))
        seen += len(world)
    assert seen > 0


def test_a_percept_answers_for_its_look_after_the_world_moves(packaged_lib):
    # boxes are built when the look is taken, from what it saw: moving,
    # relocating or reshaping objects after the look changes none of them
    scene = base_scene()
    cam = scene.camera
    p = perceive(scene, whole_view(scene, cam, Mode.FULL), DetectorModel(), stream(), 10)
    want = georacle.reference_perceive(scene, cam, scene.objects, DetectorModel(), 10, stream(), Mode.FULL)
    assert {"table", "brush", "cup", "spray_bottle", "robot", "robot_hand"} <= set(want.boxes3d)
    before = {o.id: o.box for o in scene.objects}
    translate_object(scene, "brush", (0.2, -0.1, 0.05))
    translate_object(scene, "robot", (0.3, 0.2, 0.0))  # and the hand it holds
    SimActuator(scene, packaged_lib.vocab).apply_disturbance(Disturbance(1, "relocate", "cup", dest="shelf"))
    bottle = scene.get("spray_bottle")
    bottle.box = Box(bottle.box.lo, tuple(h + 0.1 for h in bottle.box.hi))
    moved = {o.id for o in scene.objects if o.box != before[o.id]}
    assert moved == {"brush", "robot", "robot_hand", "cup", "spray_bottle"}
    assert p.boxes3d == want.boxes3d
    with pytest.raises(KeyError):
        p.boxes3d["wrench"]  # in the scene, not in view
    flat = perceive(scene, whole_view(scene, cam, Mode.NO_DEPTH), DetectorModel(), stream(), 10)
    assert "table" in flat.detections
    for label in flat.detections:
        with pytest.raises(KeyError):
            flat.boxes3d[label]


# --- relation grounding ------------------------------------------------------------


def test_unknown_predicate_raises():
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    with pytest.raises(UnknownPredicate):
        ground_relation("Levitates", ("brush",), p)


def test_found_requires_confident_detection():
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    assert ground_relation("Detected", ("brush",), p)
    assert not ground_relation("Detected", ("far_crate",), p)
    # a shaky detector drives confidence under the gate
    shaky = DetectorModel(tp_rate=0.55)
    for trial in range(40):
        pp = perceive(scene, whole_view(scene, scene.camera), shaky, stream(1, trial), n=9)
        if "brush" in pp.detections and pp.detections["brush"].confidence <= 0.7:
            assert not ground_relation("Detected", ("brush",), pp)
            break
    else:
        pytest.fail("never sampled an under-confident detection")


def test_vision_on_tracks_scene_flag():
    on_scene = desk_scene()
    on = perceive(on_scene, whole_view(on_scene, on_scene.camera), DetectorModel(), stream(), n=1)
    off_scene = desk_scene(vision_on=False)
    off = perceive(off_scene, whole_view(off_scene, off_scene.camera), DetectorModel(), stream(), n=1)
    assert ground_relation("VisionOn", ("robot",), on)
    assert not ground_relation("VisionOn", ("robot",), off)


def test_hold_via_attachment_and_containment():
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    assert not ground_relation("Holding", ("hand", "brush"), p)
    assert ground_relation("Free", ("hand",), p)

    scene.attachments["hand"] = "brush"
    p2 = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    assert ground_relation("Holding", ("hand", "brush"), p2)
    assert not ground_relation("Free", ("hand",), p2)

    # containment without an attachment record is not a hold: only a grasp
    # makes one. The grip pose sits inside the view cone, so both are seen
    grip = desk_scene()
    hand = grip.by_label("hand")
    hand.box = Box((0.5, 0.0, 0.72), (0.6, 0.1, 0.82))
    brush = grip.by_label("brush")
    brush.box = Box.from_center(hand.box.center, brush.box.size)
    p3 = perceive(grip, whole_view(grip, grip.camera), DetectorModel(), stream(), n=1)
    assert "brush" in p3.detections and "hand" in p3.detections
    assert not ground_relation("Holding", ("hand", "brush"), p3)
    assert ground_relation("Free", ("hand",), p3)


def test_free_quantifies_over_the_detected_objects():
    cam = Camera(position=(0, 0, 1.1), yaw=0.0, pitch=-0.2)
    bin_box = Box((1.0, -0.15, 0.5), (1.3, 0.15, 0.8))
    chip = Box((1.1, -0.03, 0.52), (1.16, 0.03, 0.58))
    table = Box((0.9, -0.5, 0.0), (1.7, 0.5, 0.5))
    scene = Scene(
        [
            SceneObject("bin", "bin", bin_box),
            SceneObject("chip", "chip", chip),
            SceneObject("table", "table", table),
        ],
        cam,
    )
    p = perceive(scene, whole_view(scene, cam), DetectorModel(), stream(), n=1)
    assert "chip" in p.detections
    # the chip's centre lies in the bin, but the bin grasps nothing
    assert ground_relation("Free", ("bin",), p)
    assert ground_relation("Free", ("ghost",), p)  # nothing says it holds anything
    scene.attachments["bin"] = "chip"
    assert not ground_relation("Free", ("bin",), perceive(scene, whole_view(scene, cam), DetectorModel(), stream(), n=1))


def test_a_held_object_rests_on_nothing_until_placed():
    # a held cup 3 mm above a stand, its footprint wholly over it, meets the
    # geometric On rule in every mode (both are nominal-size cubes, so
    # NO_SHAPE rebuilds them exactly); the grasp state says it rests on
    # nothing, in every mode and in the truth, until `place` releases it
    cube = (0.06, 0.06, 0.06)
    stand = Box.from_center((1.3, 0.15, 0.67), cube)
    cup = Box.from_center((1.3, 0.15, 0.733), cube)
    scene = Scene(
        [
            SceneObject("stand", "stand", stand),
            SceneObject("cup", "cup", cup),
            SceneObject("hand", "hand", Box.from_center(cup.center, (0.12, 0.12, 0.12)), proprio=True),
        ],
        Camera(position=(0, 0, 1.1), yaw=0.0, pitch=-0.15),
    )

    def on_stand() -> list[bool]:
        looks = [perceive(scene, whole_view(scene, scene.camera, m), DetectorModel(), stream(), n=1) for m in Mode]
        return [ground_relation("On", ("cup", "stand"), p) for p in looks + [truth_percept(scene)]]

    assert on_stand() == [True] * 4
    scene.attachments["hand"] = "cup"
    assert on_stand() == [False] * 4
    place_on(scene, "cup", "stand")
    assert scene.attachments == {}
    assert on_stand() == [True] * 4


def _relation_atoms(scene: Scene):
    """Every unary and binary grounding over the scene's labels."""
    labels = sorted(o.label for o in scene.objects)
    unary = ("Detected", "VisionOn", "Free")
    binary = ("On", "Inside", "CloseTo", "At", "Holding")
    for pred in unary:
        for x in labels:
            yield pred, (x,)
    for pred in binary:
        for a, b in permutations(labels, 2):
            yield pred, (a, b)


def test_grounding_agrees_with_truth_oracle_at_zero_noise():
    model = DetectorModel()
    checked = 0
    for seed in range(120):
        rnd = random.Random(seed)
        scene = georacle.sample_relation_scene(rnd, overlap_heavy=seed % 3 == 0)
        if seed % 10 == 0:
            scene.vision_on = False
        if seed % 7 == 0:
            scene.objects.append(
                SceneObject("hand", "hand", Box((0.25, 0.0, 0.85), (0.33, 0.08, 0.93)), proprio=True)
            )
            if seed % 14 == 0:
                # held where it lies, so the held-object rule and not the
                # geometry decides its On and Inside
                held = "chip" if any(o.id == "chip" for o in scene.objects) else "item0"
                scene.attachments["hand"] = held
            scene = Scene(scene.objects, scene.camera, scene.attachments, scene.vision_on)
        cam = scene.camera
        p = perceive(scene, whole_view(scene, cam, Mode.FULL), model, stream(), n=1)
        for pred, args in _relation_atoms(scene):
            got = ground_relation(pred, args, p)
            want = georacle.truth(pred, args, scene, cam)
            assert got == want, f"seed {seed}: {pred}{args} perception={got} truth={want}"
            checked += 1
    assert checked > 20000


def test_ablation_modes_degrade_in_order():
    """FULL is exact at zero noise; nominal shapes lose contact and containment
    relations; pixel-only rules lose depth separation on top of that."""
    model = DetectorModel()
    totals = {mode: 0 for mode in Mode}
    correct = {mode: 0 for mode in Mode}
    for seed in range(150):
        rnd = random.Random(5000 + seed)
        scene = georacle.sample_relation_scene(rnd, overlap_heavy=seed % 2 == 0)
        cam = scene.camera
        percepts = {mode: perceive(scene, whole_view(scene, cam, mode), model, stream(), n=1) for mode in Mode}
        for pred, args in _relation_atoms(scene):
            want = georacle.truth(pred, args, scene, cam)
            for mode in Mode:
                got = ground_relation(pred, args, percepts[mode])
                totals[mode] += 1
                correct[mode] += got == want
    acc = {mode: correct[mode] / totals[mode] for mode in Mode}
    assert acc[Mode.FULL] == 1.0
    assert acc[Mode.FULL] > acc[Mode.NO_SHAPE] > acc[Mode.NO_DEPTH]


# --- query_vision ------------------------------------------------------------------


@pytest.mark.parametrize(
    "setting, value, message",
    [
        ("mu", 1.5, "mu must be a number in (0, 1), got 1.5"),
        ("mu", 0.0, "mu must be a number in (0, 1), got 0.0"),
        ("mu", True, "mu must be a number in (0, 1), got True"),
        ("mu", "x", "mu must be a number in (0, 1), got 'x'"),
        ("tau", -3, "tau must be an integer >= 0, got -3"),
        ("tau", 2.5, "tau must be an integer >= 0, got 2.5"),
        ("mode", "full", "mode must be a Mode, got 'full'"),
        ("mode", "no-depth", "mode must be a Mode, got 'no-depth'"),
        ("n", 0, "n must be an integer >= 1, got 0"),
        ("n", 2.5, "n must be an integer >= 1, got 2.5"),
        ("n", True, "n must be an integer >= 1, got True"),
        ("n", "3", "n must be an integer >= 1, got '3'"),
    ],
)
def test_query_refuses_a_malformed_setting_by_name_before_looking(setting, value, message):
    # whether the query would look, answer vacuously or time out at once,
    # a malformed setting raises and nothing is drawn
    scene = desk_scene()
    noisy = DetectorModel(tp_rate=0.9, confusion=0.1, px_jitter=0.5, depth_sigma=0.01)
    rng = stream(3)
    drawn = rng.bit_generator.state
    for atoms in (["On(brush, table)"], [], ["Detected(ghost)"]):
        with pytest.raises(ValueError, match=re.escape(message)):
            query_vision(State.parse(atoms), scene, scene.camera, noisy, rng, **{setting: value})
    assert rng.bit_generator.state == drawn


@pytest.mark.parametrize("mode", ["full", "no-shape", "no-depth", None])
def test_in_view_refuses_a_mode_that_is_not_a_mode(mode):
    # a string mode would be kept as the view's mode and reconstructed as
    # nominal cubes
    scene = desk_scene()
    with pytest.raises(ValueError, match=f"mode must be a Mode, got {re.escape(repr(mode))}"):
        in_view(scene, scene.camera, scene.objects, mode)


def test_query_empty_conjunction_is_vacuous():
    scene = desk_scene()
    assert query_vision(State(), scene, scene.camera, DetectorModel(), stream()) == (True, False)


def test_query_conforming_state():
    scene = desk_scene()
    s = State.parse(["On(brush, table)", "Detected(cup)", "CloseTo(brush, cup)"])
    assert query_vision(s, scene, scene.camera, DetectorModel(), stream(2)) == (True, False)


def test_query_false_relation_reports_evidence():
    scene = desk_scene()
    s = State.parse(["On(table, brush)"])
    # the terms are all found, so the claim fails without a timeout
    assert query_vision(s, scene, scene.camera, DetectorModel(), stream(2)) == (False, False)


def test_query_unknown_term_times_out():
    scene = desk_scene()
    s = State.parse(["Detected(ghost)"])
    assert query_vision(s, scene, scene.camera, DetectorModel(), stream(4), tau=3) == (False, True)


@pytest.mark.parametrize(
    "atoms",
    [["Detected(ghost)"], ["On(brush, ghost)"], ["Detected(brush)", "Detected(ghost)"]],
    ids=["alone", "in-a-relation", "beside-a-present-term"],
)
def test_query_of_a_term_no_scene_object_carries_times_out_without_looking(atoms, monkeypatch):
    # detection reports only the labels of scene objects, so no look could
    # find the term: the answer comes at once, with no look and no draw
    scene = desk_scene()
    looks = []
    monkeypatch.setattr(perception, "perceive", lambda *a, **kw: looks.append(a))
    rng = stream(4)
    before = rng.bit_generator.state
    answer = query_vision(State.parse(atoms), scene, scene.camera, DetectorModel(), rng, tau=3)
    assert answer == (False, True)
    assert rng.bit_generator.state == before
    assert looks == []


@pytest.mark.parametrize("mode", list(Mode))
def test_a_query_answers_as_a_whole_scene_look_at_zero_noise(packaged_lib, mode, monkeypatch):
    # a look detects only the objects carrying the query's terms; at zero
    # noise it answers as a look over every scene object does, for every
    # library goal and every ground action's precondition and add-effect
    # state, from each pose of the scan ring of each packaged staging's
    # scene with vision on and off
    states = [e.goal_state for e in packaged_lib.entries]
    for e in packaged_lib.entries:
        for a in ground_actions(e.domain, dict(e.problem.objects)).actions:
            states += [State.of(a.pre), State.of(a.add)]
    cases = []
    for name in SCENES:
        for vision_on in (True, False):
            scene = stage(name, packaged_lib.vocab).scene
            scene.vision_on = vision_on
            for i, cam in enumerate(_scan_ring(scene)):
                cases += [(name, vision_on, i, s, scene, cam) for s in dict.fromkeys(states)]

    def answers():
        return [query_vision(s, scene, cam, DetectorModel(), stream(), mode=mode) for *_, s, scene, cam in cases]

    got = answers()
    real = perception.perceive
    whole = lambda scene, view, *rest: real(scene, whole_view(scene, view.cam, view.mode), *rest)
    monkeypatch.setattr(perception, "perceive", whole)
    want = answers()
    assert [c[:4] for c, g, w in zip(cases, got, want) if g != w] == []
    assert {(True, False), (False, False), (False, True)} <= set(got)


def test_query_zero_budget_times_out_when_term_unseen():
    # the block is behind the camera, so its one allowed look cannot see it:
    # the query takes no look and draws nothing
    scene = desk_scene()
    s = State.parse(["Detected(hind_block)"])
    rng = stream(4)
    drawn = rng.bit_generator.state
    assert query_vision(s, scene, scene.camera, DetectorModel(), rng, tau=0) == (False, True)
    assert rng.bit_generator.state == drawn


def test_query_looks_only_from_a_pose_that_sees_every_term(monkeypatch):
    # brush is in view and hind_block behind the camera: neither the camera
    # nor the pose aimed at their centroid sees both, so the query times out
    # without a look; a brush query looks once, from the camera
    scene = desk_scene()
    looks = []
    real = perception.perceive

    def counted(scene, view, *args):
        looks.append(view.cam)
        return real(scene, view, *args)

    monkeypatch.setattr(perception, "perceive", counted)
    both = State.parse(["Detected(brush)", "Detected(hind_block)"])
    rng = stream(2)
    drawn = rng.bit_generator.state
    assert query_vision(both, scene, scene.camera, DetectorModel(), rng, tau=3) == (False, True)
    assert looks == [] and rng.bit_generator.state == drawn
    brush = State.parse(["Detected(brush)"])
    assert query_vision(brush, scene, scene.camera, DetectorModel(), rng, tau=3) == (True, False)
    assert looks == [scene.camera]
    # the valve behind the camera is seen only from the aimed pose
    cam = Camera(position=(0, 0, 1.2), yaw=0.0, pitch=-0.15)
    valve = SceneObject("valve", "valve", Box((-1.2, -0.06, 0.72), (-1.08, 0.06, 0.84)))
    behind = Scene([valve], cam)
    looks.clear()
    valve_seen = State.parse(["Detected(valve)"])
    assert query_vision(valve_seen, behind, cam, DetectorModel(), rng, tau=2) == (True, False)
    assert looks == [cam.aimed_at(valve.box.center)]


def test_visibility_test_agrees_with_the_plain_reference(packaged_lib):
    # `in_view` sees exactly the objects the plain reference says are in
    # view, in scene order: a robot part always, a world object when vision
    # is on, its centre is in the view cone and every corner is in front of
    # the camera. Every packaged staging's scene, every pose of LiveVision's
    # scan ring, every mode, with vision on and off; a zero-noise look
    # detects them all
    world_seen = 0
    for name in SCENES:
        for vision_on in (True, False):
            scene = stage(name, packaged_lib.vocab).scene
            scene.vision_on = vision_on
            vision = LiveVision(scene, MonitorConfig())
            vision.scan([])  # builds the ring of scan poses
            for cam, mode in product(vision._ring, Mode):
                view = in_view(scene, cam, scene.objects, mode)
                want = [
                    o for o in scene.objects
                    if o.proprio or vision_on and georacle.in_view(cam, o.box.center) and georacle.in_front(cam, o.box)
                ]
                assert [o for o, _ in view.seen] == want, (name, cam, mode)
                assert (view.cam, view.mode) == (cam, mode)
                assert view.labels == {o.label for o in want}
                dets = detect_batch(scene, view, DetectorModel(), stream(), 10)
                assert {d.obj_id for d in dets} == {o.id for o in want}, (name, cam, mode)
                world = [o for o in want if not o.proprio]
                assert vision_on or not world  # with vision off only parts are seen
                world_seen += len(world)
    assert world_seen > 0


def test_query_sweep_finds_object_behind_camera():
    cam = Camera(position=(0, 0, 1.2), yaw=0.0, pitch=-0.15)
    # target sits directly behind the initial gaze
    target = SceneObject("valve", "valve", Box((-1.2, -0.06, 0.72), (-1.08, 0.06, 0.84)))
    front = SceneObject("table", "table", Box((0.9, -0.45, 0.0), (1.65, 0.45, 0.7)))
    scene = Scene([target, front], cam)
    s = State.parse(["Detected(valve)"])
    for seed in range(5):
        answer = query_vision(s, scene, cam, DetectorModel(), stream(seed), tau=8)
        assert answer == (True, False), f"sweep missed the target with seed {seed}"


def test_query_aims_at_a_term_by_label_not_object_id():
    # the scene object's id differs from the label the atom names; the query
    # must still find it by its label and aim at it
    cam = Camera(position=(0, 0, 1.2), yaw=0.0, pitch=-0.15)
    target = SceneObject("valve_1", "valve", Box((-1.2, -0.06, 0.72), (-1.08, 0.06, 0.84)))
    front = SceneObject("table", "table", Box((0.9, -0.45, 0.0), (1.65, 0.45, 0.7)))
    scene = Scene([target, front], cam)
    s = State.parse(["Detected(valve)"])
    for seed in range(20):
        answer = query_vision(s, scene, cam, DetectorModel(), stream(seed), tau=1)
        assert answer == (True, False), f"one aimed step missed the target with seed {seed}"


def test_query_determinism():
    scene = desk_scene()
    s = State.parse(["On(brush, table)", "Detected(cup)"])
    model = DetectorModel(tp_rate=0.9, confusion=0.1, px_jitter=0.5, depth_sigma=0.01)
    first = query_vision(s, scene, scene.camera, model, stream(77))
    second = query_vision(s, scene, scene.camera, model, stream(77))
    assert first == second


def test_grounded_predicates_are_exactly_the_library_predicates(packaged_lib):
    # a predicate no domain names is never grounded; a domain predicate
    # outside the set would end a run in `internal: UnknownPredicate`
    library = {pred for e in packaged_lib.entries for pred in e.domain.predicates}
    assert GROUNDED_PREDICATES == library


def test_shared_predicate_sets_are_the_only_ones_and_read_only():
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    assert ground_relation("On", ("brush", "table"), p)
    with pytest.raises(UnknownPredicate):
        ground_relation("Atop", ("brush", "table"), p)
    # the monitor reads the very sets perception grounds by
    assert monitor.GROUNDED_PREDICATES is GROUNDED_PREDICATES
    assert monitor.TERM_PREDICATES is TERM_PREDICATES
    for shared in (GROUNDED_PREDICATES, TERM_PREDICATES):
        assert type(shared) is frozenset
        with pytest.raises(AttributeError):
            shared.add("Atop")  # the shared sets are read-only
    with pytest.raises(UnknownPredicate):
        ground_relation("Atop", ("brush", "table"), p)


@pytest.mark.parametrize("staging_name", STAGINGS)
def test_term_predicates_read_the_detections_and_no_other_does(packaged_lib, staging_name):
    # the scan's split: a pose-free atom answers the same with no detection
    # at all, so its first pose decides it; a term-reading atom reads false
    # once any one of its terms is undetected, so a pose that cannot detect
    # its terms need not be looked from
    assert TERM_PREDICATES <= GROUNDED_PREDICATES
    vocab = packaged_lib.vocab
    scene = stage(staging_name, vocab).scene
    objects = {o.label: vocab.terms[o.label].sort for o in scene.objects}
    grounded = [p for p in vocab.predicates.values() if p.name in GROUNDED_PREDICATES]
    atoms = candidate_atoms(objects, grounded, vocab)
    assert {a.pred for a in atoms} == GROUNDED_PREDICATES
    truth = truth_percept(scene)
    blind = replace(truth, detections={})
    held = Counter()
    for a in atoms:
        answer = ground_relation(a.pred, a.args, truth)
        held[a.pred in TERM_PREDICATES, answer] += 1
        if a.pred not in TERM_PREDICATES:
            assert ground_relation(a.pred, a.args, blind) == answer, a
            continue
        for term in a.args:
            missing = replace(truth, detections={k: d for k, d in truth.detections.items() if k != term})
            assert not ground_relation(a.pred, a.args, missing), (a, term)
    # both kinds hold somewhere, so neither check is vacuous
    assert held[True, True] and held[False, True], held


def test_shared_thresholds_are_the_frozen_default():
    assert DEFAULT_THRESHOLDS == Thresholds()
    scene = desk_scene()
    p = perceive(scene, whole_view(scene, scene.camera), DetectorModel(), stream(), n=1)
    # brush and cup centres are about 0.31 m apart
    assert ground_relation("CloseTo", ("brush", "cup"), p)
    q = State.of([parse_atom("CloseTo(brush,cup)")])
    assert query_vision(q, scene, scene.camera, DetectorModel(), stream()) == (True, False)
    nominal = perceive(scene, whole_view(scene, scene.camera, Mode.NO_SHAPE), DetectorModel(), stream(), n=1)
    assert nominal.boxes3d["cup"].size == pytest.approx((0.06,) * 3)
    with pytest.raises(FrozenInstanceError):
        DEFAULT_THRESHOLDS.close_dist = 0.1  # the shared default is read-only
