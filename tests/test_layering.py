"""Module layering: no module of the package reaches into a sibling's
private helpers. A name a sibling needs is public in its module, even
when it stays out of the package's __all__."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lambdalab"


def private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("lambdalab")
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno}: {alias.name}"


def test_no_module_imports_a_sibling_private_name():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = [hit for path in sources for hit in private_imports(path)]
    assert found == []
