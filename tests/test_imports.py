"""Every name a module imports is used in it, no package module imports
another's private name, every public function, class and module-level
constant of the package has a reader in the program, not only in the
tests, every defaulted parameter of a public function, and every
defaulted field of a public dataclass, is set by some program call, every
perception threshold is read by the package, and every packaged data file
has a reader."""

import ast
import os

import pytest

from taskmon.language import load_yaml

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MODULES = sorted(
    os.path.relpath(os.path.join(d, f), ROOT)
    for d in (os.path.join(ROOT, "src", "taskmon"), HERE)
    for f in os.listdir(d)
    if f.endswith(".py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    # a quoted annotation names its types inside a string
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval")) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES)
def test_no_unused_imports(path):
    with open(os.path.join(ROOT, path)) as f:
        assert unused_imports(f.read()) == []


def test_unused_import_detector():
    src = (
        "import os\nimport numpy as np\nfrom typing import Optional, Sequence\n"
        "def f(x: 'Optional[int]') -> None:\n    return np.zeros(1)\n"
    )
    assert unused_imports(src) == ["Sequence (line 3)", "os (line 1)"]


def private_imports(source: str) -> list[str]:
    """`from <module> import <name>` for each underscore name the source
    imports from a package module: a relative import, or one from
    `taskmon`."""
    return [
        f"from {'.' * node.level}{node.module or ''} import {a.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "taskmon")
        for a in node.names
        if a.name.startswith("_") and not a.name.startswith("__")
    ]


def test_private_import_detector():
    src = (
        "from __future__ import annotations\nfrom os import _exit\n"
        "from .perception import _in_view, perceive\nfrom taskmon.geometry import _dot\n"
        "from . import _private\n"
    )
    assert private_imports(src) == [
        "from .perception import _in_view", "from taskmon.geometry import _dot", "from . import _private",
    ]


@pytest.mark.parametrize("path", [m for m in MODULES if m.startswith("src")])
def test_no_package_module_imports_a_private_name(path):
    # a name another module needs is public: its seam is explicit
    with open(os.path.join(ROOT, path)) as f:
        assert private_imports(f.read()) == []


# Public names with no caller in the program, each kept on purpose.
KEEP = {
    "estimate_depth": "perfbench's tracer wraps it by name",
    "save_params": "caches trained nets once the benchmark writes its quality table",
    "load_params": "caches trained nets once the benchmark writes its quality table",
    "decode_state": "the round-trip oracle of encode_state",
    "validate_library": "the library's static and solution-level check",
    "trace_lines": "the deterministic trace that tests and the trace sweep compare",
    "ScriptedGoalSource": "the seam that scripts goals in place of the learned proposer",
}


def _referenced(tree: ast.Module) -> dict[str, set[str]]:
    """Each name read as a Name, or used as an Attribute, mapped to the
    top-level definitions (or "<module>") whose code uses it. A Name that
    is only assigned, such as a constant's own definition, is no use."""
    out: dict[str, set[str]] = {}
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                out.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute):
                out.setdefault(node.attr, set()).add(owner)
    return out


def _program_sources() -> tuple[list[str], list[str]]:
    """The package's module sources, and perfbench's non-test ones."""
    src = os.path.join(ROOT, "src", "taskmon")
    bench = os.path.join(ROOT, "perfbench")
    paths = (
        [os.path.join(src, f) for f in sorted(os.listdir(src)) if f.endswith(".py")],
        [
            os.path.join(bench, f)
            for f in sorted(os.listdir(bench))
            if f.endswith(".py") and not f.startswith(("test_", "conftest"))
        ],
    )
    out = ([], [])
    for group, names in zip(out, paths):
        for path in names:
            with open(path) as f:
                group.append(f.read())
    return out


def _public_definitions(tree: ast.Module) -> list[str]:
    """The public functions, classes and module-level constants a module
    defines: a constant is a name a top-level assignment binds."""
    out = []
    for s in tree.body:
        if isinstance(s, (ast.FunctionDef, ast.ClassDef)):
            out.append(s.name)
        elif isinstance(s, (ast.Assign, ast.AnnAssign)):
            targets = s.targets if isinstance(s, ast.Assign) else [s.target]
            out += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in out if not n.startswith("_")]


def unreferenced_public_names(src: list[str], bench: list[str]) -> list[str]:
    """Public top-level names of the package sources `src` that nothing
    else in them or in the perfbench sources `bench` uses."""
    defined: list[str] = []
    uses: dict[str, set[str]] = {}
    for source in src:
        tree = ast.parse(source)
        defined += _public_definitions(tree)
        for name, owners in _referenced(tree).items():
            uses.setdefault(name, set()).update(owners)
    for source in bench:
        for name in _referenced(ast.parse(source)):
            uses.setdefault(name, set()).add("<perfbench>")
    return sorted(n for n in defined if not uses.get(n, set()) - {n})


def test_unreferenced_public_name_detector():
    defining = (
        "TABLE = {'a': 1}\nLIMIT: int = 3\nA, B = 1, 2\n_PRIVATE = 0\nBOUND = 2\n"
        "def f(x=BOUND):\n    return x + A\n"
        "class K:\n    pass\n"
        "def g():\n    return f() + LIMIT\n"
    )
    assert unreferenced_public_names([defining], []) == ["B", "K", "TABLE", "g"]
    assert unreferenced_public_names([defining], ["K.x = TABLE\n"]) == ["B", "g"]


def test_every_public_name_has_a_program_caller():
    unreferenced = unreferenced_public_names(*_program_sources())
    assert sorted(set(unreferenced) - set(KEEP)) == []
    # an entry whose name is gone or now has a program caller is stale
    assert sorted(set(KEEP) - set(unreferenced)) == []


# Defaulted parameters that no program call sets, each kept on purpose.
KEEP_PARAMS = {
    ("SimActuator.__init__", "fail_prob"): "injects actuator faults for robustness runs",
    ("estimate_depth", "grid"): "stays with estimate_depth, which perfbench's tracer wraps",
    ("solve", "budget"): "the search budget's one owner; a test sets it to see BudgetExceeded",
    ("train", "params"): "the seam through which a test trains a poisoned net",
    ("train", "use_attention"): "the paper's attention ablation, set by tests/decodesweep.py",
}


def _defaulted(tree: ast.Module):
    """(qualified name, callee name, parameter, argument position or None) of
    each defaulted parameter of a public function, public method or
    `__init__`. A method's position does not count its self/cls."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            defs = [(stmt.name, stmt.name, stmt, 0)]
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            defs = [
                (f"{stmt.name}.{f.name}", stmt.name if f.name == "__init__" else f.name, f,
                 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in f.decorator_list) else 1)
                for f in stmt.body
                if isinstance(f, ast.FunctionDef) and (f.name == "__init__" or not f.name.startswith("_"))
            ]
        else:
            continue
        for qual, callee, fn, skip in defs:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i in range(first, len(positional)):
                yield qual, callee, positional[i].arg, i - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield qual, callee, arg.arg, None


def _calls(sources: list[str]) -> dict[str, list[ast.Call]]:
    """Every call in the sources, by the bare name it calls."""
    calls: dict[str, list[ast.Call]] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call: ast.Call, param: str, pos) -> bool:
    """Whether the call names `param` as a keyword, reaches its position or
    spreads `*`. A `**` spread sets no field by name: what it passes is
    data, such as the keys a scene file gives."""
    if any(k.arg == param for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return pos is not None and len(call.args) > pos


def unset_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """`qualified name: parameter` for each defaulted parameter defined in
    the `defining` sources that no call in the `calling` sources sets: none
    uses the same bare callee name (the class name for `__init__`) and sets
    it as `_sets` says."""
    calls = _calls(calling)
    return [
        f"{qual}: {param}"
        for source in defining
        for qual, callee, param, pos in _defaulted(ast.parse(source))
        if not any(_sets(c, param, pos) for c in calls.get(callee, []))
    ]


def test_unset_default_detector():
    defining = (
        "def f(a, b=1, *, c=2):\n    pass\n"
        "class K:\n    def __init__(self, x=0):\n        pass\n"
        "    def m(self, y=0, z=0):\n        pass\n"
        "    @staticmethod\n    def s(w=0):\n        pass\n"
        "def _private(p=0):\n    pass\n"
    )
    calling = "f(1, c=3)\nK(1)\nk.m(*args)\ns(w=1)\n"
    assert unset_defaults([defining], [calling]) == ["f: b"]
    assert unset_defaults([defining], ["f(1, 2)\nK()\nk.m(z=1)\ns(0)\n"]) == [
        "f: c", "K.__init__: x", "K.m: y",
    ]


def test_every_defaulted_parameter_is_set_by_the_program():
    src, bench = _program_sources()
    keep = {f"{qual}: {param}" for qual, param in KEEP_PARAMS}
    assert sorted(set(unset_defaults(src, src + bench)) - keep) == []
    # an entry whose parameter is gone or now set is stale
    assert sorted(keep - set(unset_defaults(src, src + bench))) == []


# Defaulted dataclass fields that no program call sets, each kept on purpose:
# keyed by (class, field), or by class for every field of that class.
KEEP_FIELDS = {
    "LoopState": "the fold's state: the loop starts from the defaults and moves by `replace`",
    "Thresholds": "one frozen instance judges every query; perfbench builds one to read two fields",
    ("MonitorConfig", "mu"): "the paper's confidence gate, a setting of the monitor",
    ("MonitorConfig", "tau"): "the paper's search budget per query, a setting of the monitor",
    ("MonitorConfig", "k"): "how many ranked goals one request returns, a setting of the monitor",
    ("MonitorConfig", "max_goals"): "bounds goal selections per run, a setting of the monitor",
    ("MonitorConfig", "frames"): "the frames each look votes over, a setting of the monitor",
    ("MonitorConfig", "replans"): "re-plans after an actuator failure, a setting of the monitor",
    ("MonitorConfig", "mode"): "the paper's perception ablation, set by the trace sweep",
    ("MonitorConfig", "detector"): "detector noise, set by the trace sweep's noisy rows",
    ("DetectorModel", "tp_rate"): "detector noise, set by the trace sweep's noisy rows",
    ("DetectorModel", "confusion"): "detector noise, set by the trace sweep's noisy rows",
    ("DetectorModel", "px_jitter"): "detector noise, set by the trace sweep's noisy rows",
    ("DetectorModel", "depth_sigma"): "detector noise, set by the trace sweep's noisy rows",
    ("Disturbance", "offset"): "the translation of a nudge, which the fuzzers schedule",
    ("Disturbance", "prob"): "the chance a disturbance fires, for the planned slip robustness runs",
    ("Camera", "position"): "a scene file's camera field; `geometry._camera` passes the keys it gives",
    ("Camera", "yaw"): "a scene file's camera field; `geometry._camera` passes the keys it gives",
    ("Camera", "pitch"): "a scene file's camera field; `geometry._camera` passes the keys it gives",
    ("Camera", "hfov"): "a scene file's camera field; `geometry._camera` passes the keys it gives",
    ("Camera", "vfov"): "a scene file's camera field; `geometry._camera` passes the keys it gives",
    ("Camera", "max_depth"): "a scene file's camera field; `geometry._camera` passes the keys it gives",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in cls.decorator_list
    )


def _defaulted_fields(tree: ast.Module):
    """(class, field, argument position) of each defaulted `init` field of
    a public dataclass. The position counts every `init` field before it."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_") or not _is_dataclass(cls):
            continue
        pos = 0
        for node in cls.body:
            if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
                continue
            value = node.value
            defaulted = value is not None
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
                kw = {k.arg: k.value for k in value.keywords}
                if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
                    continue
                defaulted = "default" in kw or "default_factory" in kw
            if defaulted:
                yield cls.name, node.target.id, pos
            pos += 1


def unset_fields(defining: list[str], calling: list[str]) -> list[tuple[str, str]]:
    """(class, field) for each defaulted `init` field of a public dataclass
    in the `defining` sources that no call in the `calling` sources sets: no
    call names the class and sets it as `_sets` says."""
    calls = _calls(calling)
    return [
        (cls, name)
        for source in defining
        for cls, name, pos in _defaulted_fields(ast.parse(source))
        if not any(_sets(c, name, pos) for c in calls.get(cls, []))
    ]


def test_unset_field_detector():
    defining = (
        "from dataclasses import dataclass, field\n"
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n    z: list = field(default_factory=list)\n"
        "    memo: dict = field(default_factory=dict, init=False)\n    w: int = field(repr=False)\n"
        "@dataclass\nclass B:\n    u: int = 0\n    def m(self, v=0):\n        pass\n"
        "@dataclass\nclass _P:\n    p: int = 0\n"
        "class C:\n    c: int = 0\n"
    )
    assert unset_fields([defining], ["A(1, 2)\nm.B(**kw)\n"]) == [("A", "z"), ("B", "u")]
    assert unset_fields([defining], ["A(1, z=[])\nB(*args)\nreplace(a, y=1)\n"]) == [("A", "y")]
    assert unset_fields([defining], [""]) == [("A", "y"), ("A", "z"), ("B", "u")]


def test_every_dataclass_field_is_set_by_the_program():
    src, bench = _program_sources()
    unset = set(unset_fields(src, src + bench))
    assert all(KEEP_FIELDS.values())
    assert sorted(f for f in unset if f not in KEEP_FIELDS and f[0] not in KEEP_FIELDS) == []
    # an entry whose field or class is gone, or now set, is stale
    assert [k for k in KEEP_FIELDS if k not in unset | {cls for cls, _ in unset}] == []


def unread_fields(sources: list[str], cls_name: str) -> list[str]:
    """Fields of the class `cls_name` defined in the sources that no
    attribute read in them names."""
    trees = [ast.parse(source) for source in sources]
    fields = [
        node.target.id
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == cls_name
        for node in cls.body
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
    ]
    assert fields, f"no fields of {cls_name} found"
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [f for f in fields if f not in read]


def test_unread_field_detector():
    source = (
        "class T:\n    a: float = 1.0\n    b: float = 2.0\n    c: float = 3.0\n"
        "def f(th):\n    th.c = 0.0\n    return th.a\n"
    )
    assert unread_fields([source], "T") == ["b", "c"]


def test_every_threshold_is_read_by_the_package():
    # a threshold that no rule reads is a setting with no effect
    src, _ = _program_sources()
    assert unread_fields(src, "Thresholds") == []


def test_every_packaged_data_file_has_a_reader():
    # each plan file is a domain or problem of a library.yaml entry, and each
    # scene file is named by a string in the program's sources; a file no
    # code reads fails here
    data = os.path.join(ROOT, "src", "taskmon", "data")
    with open(os.path.join(data, "library.yaml")) as f:
        entries = load_yaml(f)["entries"]
    listed = {os.path.normpath(e[k]) for e in entries for k in ("domain", "problem")}
    plans = [
        os.path.relpath(os.path.join(d, f), data) for d, _, files in os.walk(data) for f in files if f.endswith(".pddl")
    ]
    assert plans and sorted(set(plans) - listed) == []
    strings = {
        node.value
        for group in _program_sources()
        for source in group
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    scenes = sorted(os.listdir(os.path.join(data, "scenes")))
    assert scenes and [f for f in scenes if not {f, f.removesuffix(".yaml")} & strings] == []
