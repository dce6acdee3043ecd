"""Every name a module imports is used in it, and every public name of the
package has a caller in the program, not only in the tests."""

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


def unreferenced_public_names() -> list[str]:
    src = os.path.join(ROOT, "src", "taskmon")
    bench = os.path.join(ROOT, "perfbench")
    defined: list[str] = []
    uses: dict[str, set[str]] = {}
    for path in [os.path.join(src, f) for f in sorted(os.listdir(src)) if f.endswith(".py")]:
        with open(path) as f:
            tree = ast.parse(f.read())
        defined += [
            s.name
            for s in tree.body
            if isinstance(s, (ast.FunctionDef, ast.ClassDef)) and not s.name.startswith("_")
        ]
        for name, owners in _referenced(tree).items():
            uses.setdefault(name, set()).update(owners)
    for f in sorted(os.listdir(bench)):
        if f.endswith(".py") and not f.startswith(("test_", "conftest")):
            with open(os.path.join(bench, f)) as fh:
                for name in _referenced(ast.parse(fh.read())):
                    uses.setdefault(name, set()).add("<perfbench>")
    return sorted(n for n in defined if not uses.get(n, set()) - {n} and n not in KEEP)


def test_every_public_name_has_a_program_caller():
    assert unreferenced_public_names() == []
