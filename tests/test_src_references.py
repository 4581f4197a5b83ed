"""Code that only the tests call lives in tests/: every top-level function
and class of the package is used somewhere in src/ outside its own
definition, apart from the entry points listed in ALLOWED."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coreglab"

# (module, name) pairs that nothing in src/ refers to, on purpose.
ALLOWED = {
    # Click commands: the group registers them through their decorators.
    ("cli", "analyze_noise"), ("cli", "audit_labels"), ("cli", "evaluate"),
    ("cli", "export_curves"), ("cli", "gen_synthetic"),
    ("cli", "inject_noise_cmd"), ("cli", "train"),
    # Training-dynamics statistics: tests/test_acceptance.py imports them,
    # and a run will report them once runs record memorization.
    ("noiselab", "forgetting_stats"), ("noiselab", "first_learned_means"),
    # The benchmark's tracer (bench/tracing.py) wraps it.
    ("models", "set_params_flat"),
}


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}


def _bindings(tree) -> dict:
    """Local name -> (module, name) for the module's package imports: a
    module alias maps to (module, None)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = ((alias.name, None) if node.module is None
                                else (node.module, alias.name))
    return bound


def _references(module: str, tree) -> set:
    """(module, name, line) of every use of a package-level name: a bare
    name, a name imported from a sibling module, or module_alias.name."""
    bound = _bindings(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            target = bound.get(node.id, (module, node.id))
            if target[1] is not None:
                found.add((*target, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            target = bound.get(node.value.id)
            if target is not None and target[1] is None:
                found.add((target[0], node.attr, node.lineno))
    return found


def test_every_definition_is_used_in_src():
    modules = _modules()
    spans = {(module, node.name): (node.lineno, node.end_lineno)
             for module, tree in modules.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    used = set()
    for module, tree in modules.items():
        for target_module, name, line in _references(module, tree):
            start, end = spans.get((target_module, name), (0, -1))
            if not (target_module == module and start <= line <= end):
                used.add((target_module, name))
    unused = set(spans) - used
    assert unused - ALLOWED == set(), "only the tests use these; move them to tests/"
    assert ALLOWED - unused == set(), "used in src/ now; drop from ALLOWED"
