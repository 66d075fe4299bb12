"""Module layering: no module of the package reaches into a sibling's
private helpers. A name a sibling needs is public in its module, even
when it stays out of the package's __all__. And every attribute the
benchmark's traced run wraps is still where it looks for it, the
package's public names are pinned, and the README lists the same ones."""

import ast
import importlib
import importlib.util
import re
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


# The package's public names, sorted: the entry points, the types they
# take, return and raise, and every status and verdict string their
# results carry. A name that leaves stays importable from its own module.
PUBLIC = (
    "ABSORBED ALIASES App BIG_STEP_EQUAL_ONLY BOTH_EXHAUSTED_EQUAL_PREFIX "
    "BOTH_EXHAUSTED_MCR_PREFIX CONVERGED CatalogueEntry CompareVerdict "
    "CorpusReport DIFFER Diagnostic EQUAL_MCR EngineError FUEL_EXHAUSTED "
    "FormClass FusionResult GenConfig HybridSpec INCONCLUSIVE Lam "
    "NotationError ONE_STEP_EQUAL Outcome ParseError ReadbackSpec "
    "ResourceLimitError Term TraceEvent UniformSpec VIOLATED "
    "ValidationReport Var alpha_eq catalogue check_absorption "
    "check_fusion_row classify compare compare_corpus defuse "
    "demo_factorial derivation_forest evaluate factorial_term fuse "
    "generate load_corpus paper_corpus parse_spec parse_term print_spec "
    "print_term save_corpus validate"
).split()

# Names that left the package, each with the module it is imported from.
MOVED = {
    "substitute": "terms", "free_vars": "terms", "fresh_var": "terms",
    "builtins": "terms", "churchN": "terms", "alias_of": "notation",
    "reconstruct_sequence": "engine", "sequence_from_tree": "engine",
    "trace_json": "lab", "COMPARE_KINDS": "lab",
    "DerivationNode": "engine", "StrategySpec": "notation",
}


def test_the_public_names_are_pinned_and_resolve():
    package = importlib.import_module("lambdalab")
    assert len(PUBLIC) == 55 and PUBLIC == sorted(PUBLIC)
    assert package.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(package, name)] == []


def test_a_moved_name_resolves_in_its_module_only():
    package = importlib.import_module("lambdalab")
    assert [name for name in MOVED if hasattr(package, name)] == []
    assert [name for name, module in MOVED.items()
            if not hasattr(importlib.import_module(f"lambdalab.{module}"),
                           name)] == []


def readme_public_names():
    """{module: [names]} from the README's bullets of public names, each
    a line "- `lambdalab.MODULE`: `name`, ..." continued on indented
    lines."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    groups, module = {}, None
    for line in section.splitlines():
        head = re.match(r"- `lambdalab\.(\w+)`:(.*)", line)
        if head:
            module, line = head.groups()
            groups[module] = []
        elif not line.startswith("  "):
            module = None
        if module:
            groups[module] += re.findall(r"`(\w+)`", line)
    return groups


def test_the_readme_lists_the_public_names_by_module():
    package = importlib.import_module("lambdalab")
    groups = readme_public_names()
    assert sorted(n for names in groups.values() for n in names) == PUBLIC
    misplaced = [f"{module}.{name}" for module, names in groups.items()
                 for name in names
                 if getattr(importlib.import_module(f"lambdalab.{module}"),
                            name, None) is not getattr(package, name)]
    assert misplaced == []
