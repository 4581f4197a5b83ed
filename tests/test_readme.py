"""The README's quick start, run as written: its four commands and its
config.yaml, in an empty directory, with the figures the README quotes."""

import csv
import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from coreglab.cli import main
from coreglab.trainer import TRAIN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start(text: str) -> tuple[list[list[str]], str]:
    """The section's commands (continuation lines joined, comments dropped)
    and its config.yaml block."""
    section = text[text.index("## Quick start"):]
    shell = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [line for line in shell.replace("\\\n", " ").splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    config = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line) for line in lines], config


def test_readme_quick_start(tmp_path, monkeypatch):
    text = README.read_text()
    commands, config = _quick_start(text)
    assert [argv[:2] for argv in commands] == [
        ["coreglab", "gen-synthetic"], ["coreglab", "inject-noise"],
        ["coreglab", "train"], ["coreglab", "evaluate"]]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("COREGLAB_OUTPUT_ROOT", raising=False)
    (tmp_path / "config.yaml").write_text(config)
    runner = CliRunner()
    outputs = []
    for argv in commands:
        result = runner.invoke(main, argv[1:])
        assert result.exit_code == 0, result.output
        outputs.append(result.output)

    quoted = re.search(r"prints a median test accuracy of (\d\.\d{3})", text).group(1)
    median = re.search(r"^median test accuracy: (\S+)$", outputs[2], re.M).group(1)
    assert f"{float(median):.3f}" == quoted

    with open(tmp_path / "runs" / "demo" / "metrics.csv", newline="") as fh:
        row = next(r for r in csv.DictReader(fh)
                   if r["seed"] == "1" and r["split"] == "test")
    assert outputs[3] == f"{row['metric']}: {row['value']}\n"


def _shown(default) -> str:
    """A default as the README's tables write it."""
    if isinstance(default, bool):
        return str(default).lower()
    if isinstance(default, str):
        return f"`{default}`"
    return str(list(default)) if isinstance(default, tuple) else repr(default)


def test_readme_train_table_lists_the_train_keys():
    """The config reference's `train` table has one row per trainer.TRAIN_KEYS
    key, in the table's order, with the key's default."""
    text = README.read_text()
    section = text[text.index("`train` (all optional"):]
    table = section[:section.index("\n\n", section.index("| key |"))]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", table, re.M)
    assert rows == [(name, _shown(key.default)) for name, key in TRAIN_KEYS.items()]
