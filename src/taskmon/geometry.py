"""3D ground truth for the simulated world: boxes, pinhole camera, scenes.

World frame: x forward-ish, z up, meters. The camera yaws around z and
pitches around its right axis. Pixel coordinates are floats; (0, 0) is the
top-left image corner, u grows right, v grows down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from .language import known_fields, load_yaml, shaped, shaped_field

Vec = tuple[float, float, float]

# The keys a scene file may give: at the top, per object, and the Camera
# fields it may set.
_SCENE_KEYS = ("objects", "camera", "attachments", "vision_on")
_OBJECT_KEYS = ("id", "box", "supported_by", "proprio")
_CAMERA_KEYS = ("position", "yaw", "pitch", "hfov", "vfov", "max_depth")

# Every camera's image size, in pixels.
IMAGE_WIDTH = 640.0
IMAGE_HEIGHT = 480.0


def _add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _scale(a: Vec, k: float) -> Vec:
    return (a[0] * k, a[1] * k, a[2] * k)


def _dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _norm(a: Vec) -> float:
    return math.sqrt(_dot(a, a))


def _unit(a: Vec) -> Vec:
    n = _norm(a)
    if n == 0.0:
        raise ValueError("zero vector")
    return _scale(a, 1.0 / n)


def dist(a: Vec, b: Vec) -> float:
    return _norm(_sub(a, b))


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; extents strictly positive."""

    lo: Vec
    hi: Vec
    # Center and size are derived once, when the box is built: the dataclass
    # is frozen and replace() builds a fresh instance.
    center: Vec = field(init=False, repr=False, compare=False)
    size: Vec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        (x0, y0, z0), (x1, y1, z1) = self.lo, self.hi
        if not (x1 > x0 and y1 > y0 and z1 > z0):
            raise ValueError(f"box extents must be positive: {self.lo} .. {self.hi}")
        object.__setattr__(self, "center", ((x0 + x1) / 2.0, (y0 + y1) / 2.0, (z0 + z1) / 2.0))
        object.__setattr__(self, "size", (x1 - x0, y1 - y0, z1 - z0))

    @property
    def volume(self) -> float:
        sx, sy, sz = self.size
        return sx * sy * sz

    def intersection_volume(self, other: "Box") -> float:
        v = 1.0
        for lo1, hi1, lo2, hi2 in zip(self.lo, self.hi, other.lo, other.hi):
            span = min(hi1, hi2) - max(lo1, lo2)
            if span <= 0.0:
                return 0.0
            v *= span
        return v

    def footprint_overlap(self, other: "Box") -> float:
        """Horizontal (xy) overlap area divided by this box's footprint area."""
        w = min(self.hi[0], other.hi[0]) - max(self.lo[0], other.lo[0])
        d = min(self.hi[1], other.hi[1]) - max(self.lo[1], other.lo[1])
        if w <= 0.0 or d <= 0.0:
            return 0.0
        return (w * d) / ((self.hi[0] - self.lo[0]) * (self.hi[1] - self.lo[1]))

    @staticmethod
    def from_center(center: Vec, size: Vec) -> "Box":
        (cx, cy, cz), (sx, sy, sz) = center, size
        hx, hy, hz = sx / 2.0, sy / 2.0, sz / 2.0
        return Box((cx - hx, cy - hy, cz - hz), (cx + hx, cy + hy, cz + hz))


def ray_box(origin: Vec, direction: Vec, box: Box) -> Optional[float]:
    """Slab intersection; returns the entry distance along the unit ray, or
    None. A ray starting inside returns 0."""
    t0, t1 = 0.0, math.inf
    for o, d, lo, hi in zip(origin, direction, box.lo, box.hi):
        if abs(d) < 1e-12:
            if o < lo or o > hi:
                return None
            continue
        ta, tb = (lo - o) / d, (hi - o) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return None
    return t0


@dataclass(frozen=True)
class Camera:
    position: Vec = (0.0, 0.0, 1.2)
    yaw: float = 0.0  # radians around +z, 0 looks along +x
    pitch: float = 0.0  # radians, positive up
    hfov: float = math.radians(60.0)
    vfov: float = math.radians(45.0)
    max_depth: float = 2.5

    # The basis and the half-FOV tangents are derived once, when the camera is
    # built: the dataclass is frozen and replace() builds a fresh instance, so
    # they always belong to the pose they were computed from.
    forward: Vec = field(init=False, repr=False, compare=False)
    right: Vec = field(init=False, repr=False, compare=False)
    up: Vec = field(init=False, repr=False, compare=False)
    tan_half_hfov: float = field(init=False, repr=False, compare=False)
    tan_half_vfov: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.hfov < math.pi and 0.0 < self.vfov < math.pi):
            raise ValueError("field of view must be in (0, pi)")
        if self.max_depth <= 0.0:
            raise ValueError("max depth must be positive")
        cp, sp = math.cos(self.pitch), math.sin(self.pitch)
        cy, sy = math.cos(self.yaw), math.sin(self.yaw)
        f = (cp * cy, cp * sy, sp)
        r = (sy, -cy, 0.0)
        # up = right x forward
        u = (r[1] * f[2] - r[2] * f[1], r[2] * f[0] - r[0] * f[2], r[0] * f[1] - r[1] * f[0])
        object.__setattr__(self, "forward", f)
        object.__setattr__(self, "right", r)
        object.__setattr__(self, "up", u)
        object.__setattr__(self, "tan_half_hfov", math.tan(self.hfov / 2.0))
        object.__setattr__(self, "tan_half_vfov", math.tan(self.vfov / 2.0))

    def depth_of(self, p: Vec) -> float:
        return _dot(_sub(p, self.position), self.forward)

    def _look(self, p: Vec, cone: bool) -> Optional[tuple[float, float, float]]:
        """p's pixel (u, v) and forward depth z, or None when p is behind
        the image plane or, with `cone`, outside the view cone or beyond
        max_depth. The offset is formed once and the forward product is taken
        first, so a point behind or beyond the camera costs one dot product."""
        pos, f = self.position, self.forward
        dx, dy, dz = p[0] - pos[0], p[1] - pos[1], p[2] - pos[2]
        z = dx * f[0] + dy * f[1] + dz * f[2]
        if z <= 1e-9 or (cone and z > self.max_depth):
            return None
        r, w = self.right, self.up
        x = dx * r[0] + dy * r[1] + dz * r[2]
        y = dx * w[0] + dy * w[1] + dz * w[2]
        th, tv = self.tan_half_hfov, self.tan_half_vfov
        if cone and not (abs(x / z) <= th and abs(y / z) <= tv):
            return None
        return (IMAGE_WIDTH / 2.0 * (1.0 + x / (z * th)), IMAGE_HEIGHT / 2.0 * (1.0 - y / (z * tv)), z)

    def project(self, p: Vec) -> Optional[tuple[float, float, float]]:
        """(u, v, forward depth), or None behind the image plane."""
        return self._look(p, False)

    def view(self, p: Vec) -> Optional[tuple[float, float, float]]:
        """`project(p)` for a point inside the view cone and no farther than
        max_depth, else None."""
        return self._look(p, True)

    def unproject(self, u: float, v: float, depth: float) -> Vec:
        """Inverse of project at the given forward depth."""
        x = (2.0 * u / IMAGE_WIDTH - 1.0) * self.tan_half_hfov * depth
        y = (1.0 - 2.0 * v / IMAGE_HEIGHT) * self.tan_half_vfov * depth
        p = _add(self.position, _scale(self.forward, depth))
        p = _add(p, _scale(self.right, x))
        return _add(p, _scale(self.up, y))

    def pixel_ray(self, u: float, v: float) -> Vec:
        return _unit(_sub(self.unproject(u, v, 1.0), self.position))

    def project_box(self, box: Box) -> Optional[tuple[float, float, float, float]]:
        """Pixel AABB over the box's 8 corners under `project`; None if any
        corner is behind."""
        (x0, y0, z0), (x1, y1, z1) = box.lo, box.hi
        corners = [self.project((x, y, z)) for x in (x0, x1) for y in (y0, y1) for z in (z0, z1)]
        if None in corners:
            return None
        us, vs = [c[0] for c in corners], [c[1] for c in corners]
        return (min(us), min(vs), max(us), max(vs))

    def in_front(self, box: Box) -> bool:
        """`project_box(box) is not None`, projecting nothing: every corner's
        forward depth exceeds 1e-9. Float rounding is monotone, so the nearest
        corner's depth is (min_x + min_y) + min_z, each the smaller of that
        axis's two forward products, summed in `project`'s order."""
        f = self.forward
        px, py, pz = self.position
        x = min((box.lo[0] - px) * f[0], (box.hi[0] - px) * f[0])
        y = min((box.lo[1] - py) * f[1], (box.hi[1] - py) * f[1])
        z = min((box.lo[2] - pz) * f[2], (box.hi[2] - pz) * f[2])
        return (x + y) + z > 1e-9

    def aimed_at(self, p: Vec) -> "Camera":
        d = _sub(p, self.position)
        yaw = math.atan2(d[1], d[0])
        horiz = math.hypot(d[0], d[1])
        pitch = math.atan2(d[2], horiz)
        return replace(self, yaw=yaw, pitch=pitch)


@dataclass
class SceneObject:
    """A world object. Its one name, `id`, is the vocabulary term it grounds."""

    id: str
    box: Box
    supported_by: Optional[str] = None
    proprio: bool = False  # robot's own parts: always perceivable

    @property
    def label(self) -> str:
        """`id`, under the name the benchmark harness still reads."""
        return self.id


@dataclass
class Scene:
    objects: list[SceneObject]
    camera: Camera
    attachments: dict[str, str] = field(default_factory=dict)  # holder id -> held id
    vision_on: bool = True

    def __post_init__(self):
        self._index = {o.id: o for o in self.objects}
        if len(self._index) != len(self.objects):
            raise ValueError("duplicate object ids")
        held_by: dict[str, str] = {}
        for holder, held in self.attachments.items():
            if holder not in self._index or held not in self._index:
                raise ValueError(f"attachment {holder}->{held} references a missing object")
            if held_by.setdefault(held, holder) != holder:
                raise ValueError(f"attachment {holder}->{held}: {held} is already held by {held_by[held]}")
        for holder, held in self.attachments.items():
            if self.carries(held, holder):  # no object has two holders, so the walk ends
                raise ValueError(f"attachment {holder}->{held} closes a holding loop")
        for o in self.objects:
            seen = {o.id}
            cur = o.supported_by
            while cur is not None:
                if cur not in self._index:
                    raise ValueError(f"support {o.id}->{cur} references a missing object")
                if cur in seen:
                    raise ValueError(f"support cycle through {cur}")
                seen.add(cur)
                cur = self._index[cur].supported_by

    def get(self, obj_id: str) -> SceneObject:
        return self._index[obj_id]

    def carries(self, holder_id: str, obj_id: str) -> bool:
        """Whether `holder_id` is `obj_id` or holds it down a chain of holds."""
        cur = holder_id
        while cur is not None and cur != obj_id:
            cur = self.attachments.get(cur)
        return cur is not None

    def copy(self) -> "Scene":
        return Scene(
            [SceneObject(o.id, o.box, o.supported_by, o.proprio) for o in self.objects],
            self.camera,
            dict(self.attachments),
            self.vision_on,
        )

    @staticmethod
    def from_dict(doc) -> "Scene":
        """A scene from its YAML form. A misshapen document raises ValueError
        naming the field."""
        doc = shaped(doc, dict, "scene", ValueError)
        known_fields(doc, _SCENE_KEYS, "scene", ValueError)
        objs = []
        for i, o in enumerate(shaped(doc.get("objects", []), list, "scene: field 'objects'", ValueError)):
            oid = shaped_field(o, "id", f"scene: object {i}", str, ValueError)
            where = f"scene: object {oid}"
            known_fields(o, _OBJECT_KEYS, where, ValueError)
            corners = shaped_field(o, "box", where, list, ValueError)
            if len(corners) != 2:
                raise ValueError(f"{where}: field 'box' must hold 2 corners, got {len(corners)}")
            supported_by = o.get("supported_by")
            if supported_by is not None:
                shaped(supported_by, str, f"{where}: field 'supported_by'", ValueError)
            objs.append(
                SceneObject(
                    oid,
                    Box(*(_vec(c, f"{where}: field 'box'") for c in corners)),
                    supported_by,
                    shaped(o.get("proprio", False), bool, f"{where}: field 'proprio'", ValueError),
                )
            )
        attachments = shaped(doc.get("attachments", {}), dict, "scene: field 'attachments'", ValueError)
        for holder, held in attachments.items():
            shaped(held, str, f"scene: attachment of {holder}", ValueError)
        return Scene(
            objs,
            _camera(doc.get("camera", {})),
            dict(attachments),
            shaped(doc.get("vision_on", True), bool, "scene: field 'vision_on'", ValueError),
        )


def _vec(value, where: str) -> Vec:
    """A point given as a YAML list of three finite numbers (a bool is not
    one)."""
    if not (isinstance(value, list) and len(value) == 3 and all(type(x) in (int, float) for x in value)):
        raise ValueError(f"{where} must be a list of 3 numbers, got {value!r}")
    return tuple(_finite(x, where, value) for x in value)


def _finite(x, where: str, shown) -> float:
    """x as a float; a ValueError naming `where` and showing `shown` unless x
    is finite (an int too large for a float is not)."""
    try:
        f = float(x)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ValueError(f"{where} must be finite, got {shown!r}")
    return f


def _camera(doc) -> Camera:
    """A camera from the keys a scene file gives; `Camera` owns the defaults
    of the keys it leaves out."""
    doc = shaped(doc, dict, "scene: field 'camera'", ValueError)
    known_fields(doc, _CAMERA_KEYS, "scene: camera", ValueError)
    args = {}
    for key, value in doc.items():
        where = f"scene: camera: field {key!r}"
        if key == "position":
            args[key] = _vec(value, where)
        else:
            args[key] = _finite(shaped(value, (int, float), where, ValueError), where, value)
    return Camera(**args)


def load_scene(path: str) -> Scene:
    with open(path) as f:
        return Scene.from_dict(load_yaml(f))

