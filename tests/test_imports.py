"""Every name a module imports is used in it."""

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
