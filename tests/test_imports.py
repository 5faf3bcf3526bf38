"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hypercut"


def unused_imports(path: Path) -> list:
    """Names bound by imports of `path` that no expression reads.

    A re-export is kept by marking its import `# noqa: F401`.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # `import a.b` binds `a`
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(name)
    return unused


@pytest.mark.parametrize(
    "path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    # __init__.py is exempt: its imports are the public API in __all__
    assert unused_imports(path) == []


def test_the_scan_finds_an_unused_name(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\nimport sys\n"
                    "from json import dumps, loads as parse\n"
                    "from math import pi  # noqa: F401\n"
                    "print(os.sep, parse)\n")
    assert unused_imports(path) == ["sys", "dumps"]
