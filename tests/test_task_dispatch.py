"""Each task is described in one place, its record in datasets.TASKS: the
experiment runner and the command line compare no value against a task
name. gen-synthetic's choice between its two generators is the one site
allowed."""

import ast
from pathlib import Path

from coreglab.datasets import TASKS

SRC = Path(__file__).resolve().parent.parent / "src" / "coreglab"

# (module, top-level function) of each comparison against a task name that
# may stay.
ALLOWED = [("cli", "gen_synthetic")]


def _task_names(node) -> set:
    """The task names an operand spells out: a string constant, or a tuple,
    list or set of constants."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {elt.value for elt in elts
            if isinstance(elt, ast.Constant) and elt.value in TASKS}


def _task_comparisons(path: Path) -> list:
    """(module, enclosing top-level definition, line) of each comparison in
    the module at ``path`` with an operand that names a task."""
    tree = ast.parse(path.read_text())
    return [(path.stem, getattr(top, "name", None), node.lineno)
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Compare)
            and any(_task_names(operand) for operand in (node.left, *node.comparators))]


def test_experiment_and_cli_compare_no_value_with_a_task_name():
    found = _task_comparisons(SRC / "experiment.py") + _task_comparisons(SRC / "cli.py")
    assert [site[:2] for site in found] in ([], ALLOWED), (
        f"describe the task in its datasets.TASKS record instead: {found}")


def test_the_check_sees_each_kind_of_comparison(tmp_path):
    """A name compared by ==, by != and by membership in a tuple is found."""
    (tmp_path / "probe.py").write_text(
        "def f(task):\n"
        "    if task == 'synthetic' or 'relation' != task:\n"
        "        return task in ('tagging', 'other')\n"
        "x = 'tagging' == 1\n")
    assert _task_comparisons(tmp_path / "probe.py") == [
        ("probe", "f", 2), ("probe", "f", 2), ("probe", "f", 3), ("probe", None, 4)]
