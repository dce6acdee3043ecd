"""Every name a module imports is used in it, every public name of the
package has a caller in the program, not only in the tests, and every
defaulted parameter of a public function is set by some program call."""

import ast
import os

import pytest

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
    """Each name used as a Name or Attribute, mapped to the top-level
    definitions (or "<module>") whose code uses it."""
    out: dict[str, set[str]] = {}
    for stmt in tree.body:
        owner = getattr(stmt, "name", "<module>")
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
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


def unreferenced_public_names() -> list[str]:
    src, bench = _program_sources()
    defined: list[str] = []
    uses: dict[str, set[str]] = {}
    for source in src:
        tree = ast.parse(source)
        defined += [
            s.name
            for s in tree.body
            if isinstance(s, (ast.FunctionDef, ast.ClassDef)) and not s.name.startswith("_")
        ]
        for name, owners in _referenced(tree).items():
            uses.setdefault(name, set()).update(owners)
    for source in bench:
        for name in _referenced(ast.parse(source)):
            uses.setdefault(name, set()).add("<perfbench>")
    return sorted(n for n in defined if not uses.get(n, set()) - {n} and n not in KEEP)


def test_every_public_name_has_a_program_caller():
    assert unreferenced_public_names() == []


# Defaulted parameters that no program call sets, each kept on purpose.
KEEP_PARAMS = {
    ("SimActuator.__init__", "fail_prob"): "injects actuator faults for robustness runs",
    ("estimate_depth", "rng"): "stays with estimate_depth, which perfbench's tracer wraps",
    ("estimate_depth", "grid"): "stays with estimate_depth, which perfbench's tracer wraps",
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


def unset_defaults(defining: list[str], calling: list[str]) -> list[str]:
    """`qualified name: parameter` for each defaulted parameter defined in
    the `defining` sources that no call in the `calling` sources sets. A
    call sets it when it uses the same bare callee name (the class name for
    `__init__`) and passes the parameter by keyword, reaches its position or
    spreads `*`/`**`."""
    calls: dict[str, list[ast.Call]] = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, param: str, pos) -> bool:
        if any(k.arg in (None, param) for k in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        return pos is not None and len(call.args) > pos

    out = []
    for source in defining:
        for qual, callee, param, pos in _defaulted(ast.parse(source)):
            if not any(sets(c, param, pos) for c in calls.get(callee, [])):
                out.append(f"{qual}: {param}")
    return out


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
