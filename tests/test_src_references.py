"""Code that only the tests call lives in tests/: every top-level function
and class of the package, and every method of its classes, is used
somewhere in src/ outside its own definition, apart from the entry points
listed in ALLOWED. A method name that two classes define is used through
the calls listed for it in SHARED."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "coreglab"

# (module, name) pairs that nothing in src/ refers to, on purpose: entry
# points that something outside the package calls. Code that only the tests
# call, such as the training-dynamics statistics, lives in tests/oracles.py.
ALLOWED = {
    # Click commands: the group registers them through their decorators.
    ("cli", "analyze_noise"), ("cli", "audit_labels"), ("cli", "evaluate"),
    ("cli", "export_curves"), ("cli", "gen_synthetic"),
    ("cli", "inject_noise_cmd"), ("cli", "train"),
    # The benchmark's tracer (bench/tracing.py) wraps it.
    ("models", "set_params_flat"),
}

# The classes of the datasets.TASKS records; the task name picks one.
TASK_RECORDS = {f"datasets.{cls}" for cls in
                ("_Task", "_SyntheticTask", "_RelationTask", "_TaggingTask")}

# Each method name that two or more src/ classes define: the classes that may
# define it, and the calls in src/ that dispatch it, as (module, call source).
# A read of such a name on any object would count as a use of every
# definition, so a test-only method could hide behind a namesake; only these
# calls count, and only for these classes.
SHARED = {
    "splits": (TASK_RECORDS, [("experiment", "datasets.TASKS[config.task].splits")]),
    "load_schema": (TASK_RECORDS, [("cli", "record.load_schema")]),
    "load_split": (TASK_RECORDS, [("cli", "record.load_split")]),
    "read_labeled": (TASK_RECORDS, [("cli", "record.read_labeled")]),
    "relabel": (TASK_RECORDS, [("cli", "record.relabel")]),
    "write_records": (TASK_RECORDS, [("cli", "record.write_records")]),
    "score": (TASK_RECORDS, [("datasets", "TASKS[task].score")]),
    "window": (TASK_RECORDS, [("cli", "record.window")]),
    "save_csv": ({"noiselab.FlipMask", "baselines.InstanceWeights"},
                 [("experiment", "mask.save_csv"), ("experiment", "weights.save_csv")]),
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


def test_every_method_is_used_in_src():
    """A method, other than a dunder that Python calls itself, is used when
    src/ reads an attribute of its name outside the method's own body. The
    receiver's class is not known without running the code, so an attribute
    of that name on any object counts; for a name that two classes define,
    only the calls SHARED lists for it do."""
    modules = _modules()
    spans = {(module, cls.name, node.name): (node.lineno, node.end_lineno)
             for module, tree in modules.items() for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    definers = {}
    for module, cls, name in spans:
        definers.setdefault(name, set()).add(f"{module}.{cls}")
    shared = {name for name, classes in definers.items() if len(classes) > 1}
    assert shared - SHARED.keys() == set(), "defined by two classes; list in SHARED"
    assert SHARED.keys() - shared == set(), "no longer shared; drop from SHARED"
    attributes = [(module, node) for module, tree in modules.items()
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    calls = {(module, ast.unparse(node)) for module, node in attributes}
    for name, (classes, dispatch) in SHARED.items():
        assert definers[name] <= classes, f"{name} defined outside {sorted(classes)}"
        for module, call in dispatch:
            assert call.rsplit(".", 1)[1] == name, call
            assert (module, call) in calls, f"src/{module}.py no longer calls {call}"
    unused = {(module, f"{cls}.{name}") for (module, cls, name), (start, end) in spans.items()
              if name not in shared
              and not any(node.attr == name
                          and not (where == module and start <= node.lineno <= end)
                          for where, node in attributes)}
    assert unused - ALLOWED == set(), "only the tests use these; move them to tests/"
