"""Module layering: no module of the package reaches into a sibling's
private helpers. A name a sibling needs is public in its module, even
when it stays out of the package's __all__. And every attribute the
benchmark's traced run wraps is still where it looks for it."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lambdalab"


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


def test_every_traced_hook_resolves():
    # perfbench/tracing.py replaces these (module, attribute) pairs in a
    # traced run; a refactor that drops one must fail here too.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert len(tracing.HOOKS) >= 23
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.HOOKS
               if not callable(getattr(importlib.import_module(module),
                                       attr, None))]
    assert missing == []
