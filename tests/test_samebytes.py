"""tools/samebytes.py at a smoke scale: a tree compared with a copy of
itself reports nothing, and one changed CSV byte or one changed exit code
in the copy's results is reported as exactly that file or command."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def samebytes():
    spec = importlib.util.spec_from_file_location("samebytes", REPO / "tools" / "samebytes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_copy_differs_in_exactly_what_was_changed(samebytes, tmp_path):
    copy = tmp_path / "copy"
    for part in ("src", "bench"):
        shutil.copytree(REPO / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    # One workload run and one config error.
    matrix = [samebytes._workload("tagging_eval", 1, "smoke", limit=1),
              ("errors", lambda case: case.cli("train", "missing.yaml"))]
    parent, change = tmp_path / "parent", tmp_path / "change"
    for tree, results in ((REPO, parent), (copy, change)):
        samebytes.run_matrix(tree, tmp_path / "case", results, matrix)
    assert samebytes.compare(parent, change) == []
    files, commands = samebytes.count(parent)
    assert commands == 3 and files > 5

    case = change / "workload_tagging_eval_1"
    csv = next(case.glob("files/run_*/metrics.csv"))
    original = csv.read_bytes()
    csv.write_bytes(original[:-2] + bytes([original[-2] ^ 1]) + original[-1:])
    name = csv.relative_to(case / "files").as_posix()
    assert samebytes.compare(parent, change) == [
        f"file workload_tagging_eval_1/{name}: bytes differ"]
    csv.write_bytes(original)

    log = change / "errors" / "commands.json"
    commands = json.loads(log.read_text())
    assert commands[0]["code"] == 1
    commands[0]["code"] = 2
    log.write_text(json.dumps(commands))
    assert samebytes.compare(parent, change) == [
        "command errors #0 `coreglab train missing.yaml`: code 1 -> 2"]
