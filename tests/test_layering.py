"""Module layering: no module of the package reaches into a sibling's
private helpers. A name a sibling needs is public in its module, even
when it stays out of the package's __all__. And every attribute the
benchmark's traced run wraps is still where it looks for it, and the
package's public names are pinned."""

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


# The package's public names, sorted. A name that leaves stays
# importable from its own module.
PUBLIC = (
    "ABSORBED ALIASES App BIG_STEP_EQUAL_ONLY BOTH_EXHAUSTED_EQUAL_PREFIX "
    "BOTH_EXHAUSTED_MCR_PREFIX COMPARE_KINDS CONVERGED CatalogueEntry "
    "CompareVerdict CorpusReport DIFFER Diagnostic EQUAL_MCR EngineError "
    "FUEL_EXHAUSTED FormClass FusionResult GenConfig HybridSpec "
    "INCONCLUSIVE Lam NotationError ONE_STEP_EQUAL Outcome ParseError "
    "ReadbackSpec ResourceLimitError Term TraceEvent UniformSpec VIOLATED "
    "ValidationReport Var alias_of alpha_eq builtins catalogue "
    "check_absorption check_fusion_row churchN classify compare "
    "compare_corpus defuse demo_factorial derivation_forest evaluate "
    "factorial_term free_vars fresh_var fuse generate load_corpus "
    "paper_corpus parse_spec parse_term print_spec print_term "
    "reconstruct_sequence save_corpus sequence_from_tree substitute "
    "trace_json validate"
).split()


def test_the_public_names_are_pinned_and_resolve():
    package = importlib.import_module("lambdalab")
    assert len(PUBLIC) == 65 and PUBLIC == sorted(PUBLIC)
    assert package.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(package, name)] == []
    assert importlib.import_module("lambdalab.engine").DerivationNode
    assert importlib.import_module("lambdalab.notation").StrategySpec
