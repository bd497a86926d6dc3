"""Import hygiene of the package, checked on the source with ast alone.

Every name a module binds by a module-level import is referenced in that
module or listed in its __all__. A binding kept only for another module to
find (perfbench/tracing.py wraps some names where they are imported) is
marked with "# noqa: F401" on its import line.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "snse"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(text: str) -> list[str]:
    """Names bound by module-level imports of text that nothing uses."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_modules_found():
    assert len(MODULES) >= 14


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_catches_an_unused_import():
    text = "import math\nimport os\n\nprint(os.sep)\n"
    assert unused_imports(text) == ["math (line 1)"]
    assert unused_imports(text.replace("import math",
                                       "import math  # noqa: F401")) == []
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
