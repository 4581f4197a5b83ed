"""The run directory's lifecycle: every run command writes config.yaml,
manifest.json and the artifacts the manifest lists, and nothing else; a
rerun first removes what the previous manifest lists, and only that."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import coreglab
from coreglab import noiselab, trainer
from coreglab.cli import main
from coreglab.datasets import write_json
from coreglab.experiment import (ConfigError, ExperimentConfig, build_task_data,
                                 run_noise_analysis)
from coreglab.rng import substream_seed

DIVERGING = {"base_lr": 1e200, "warmup_pct": 0.0}


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, **overrides) -> Path:
    """A small synthetic config writing to tmp_path/run; ``train`` entries
    are merged into the default train block."""
    config = {
        "seeds": [1, 2], "output_dir": str(tmp_path / "run"), "epochs": 1,
        "data": {"train_size": 40, "dev_size": 12, "test_size": 12,
                 "num_classes": 3, "class_sep": 3.0},
        "noise": {"rate": 0.25},
        "analysis": {"gammas": [0.0, 1.0], "pool_size": 40},
        **overrides,
        "train": {"num_models": 2, "batch_size": 20, "hidden_sizes": [4],
                  "dropout": 0.0, **overrides.get("train", {})},
    }
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def manifest_of(run: Path) -> dict:
    return json.loads((run / "manifest.json").read_text())


def tree(run: Path) -> set:
    """Every file and directory under run, relative to it."""
    return {path.relative_to(run).as_posix() for path in run.rglob("*")}


def listed_tree(run: Path) -> set:
    """The files the manifest lists, manifest.json and their directories."""
    names = set(manifest_of(run)["artifacts"]) | {"manifest.json"}
    return names | {parent.as_posix() for name in names
                    for parent in Path(name).parents if parent != Path(".")}


@pytest.mark.parametrize("fails", [False, True], ids=["ok", "failed"])
@pytest.mark.parametrize("command", ["train", "analyze-noise", "audit-labels"])
def test_run_writes_exactly_its_listed_files(runner, tmp_path, command, fails):
    config_path = write_config(tmp_path, train=DIVERGING if fails else {})
    result = runner.invoke(main, [command, str(config_path)])
    assert result.exit_code == (3 if fails else 0), result.output
    run = tmp_path / "run"
    manifest = manifest_of(run)
    assert (manifest["failure"] is not None) == fails
    assert "config.yaml" in manifest["artifacts"]
    assert ("manifest.json" in manifest["artifacts"]) != fails
    assert tree(run) == listed_tree(run)


@pytest.mark.parametrize("command, masks", [
    ("train", ["seed_1/flips.csv", "seed_2/flips.csv"]),
    ("analyze-noise", ["seed_1/flips.csv", "seed_2/flips.csv"]),
    ("audit-labels", ["flips.csv"]),
])
def test_run_saves_its_training_flips(runner, tmp_path, command, masks):
    """flips.csv is a run's one record of the original labels, so every run
    command that trains on a noisy training split saves that split's mask,
    one per seed it trains (audit-labels trains the first)."""
    config_path = write_config(tmp_path)
    result = runner.invoke(main, [command, str(config_path)])
    assert result.exit_code == 0, result.output
    run = tmp_path / "run"
    config = ExperimentConfig.from_mapping(yaml.safe_load(config_path.read_text()))
    train_set = build_task_data(config).train
    for name, seed in zip(masks, config.seeds):
        assert name in manifest_of(run)["artifacts"]
        _, mask = noiselab.inject_noise(train_set, config.noise[seed])
        mask.save_csv(tmp_path / "expected.csv", train_set.ids)
        assert (run / name).read_bytes() == (tmp_path / "expected.csv").read_bytes()


@pytest.mark.parametrize("first, second", [
    pytest.param(("train", {"seeds": [1, 2]}), ("train", {"seeds": [1]}), id="seeds"),
    pytest.param(("analyze-noise", {"analysis": {"gammas": [0, 1, 5], "pool_size": 40}}),
                 ("analyze-noise", {"analysis": {"gammas": [0, 1], "pool_size": 40}}),
                 id="gammas"),
    pytest.param(("analyze-noise", {}), ("train", {}), id="train_after_analysis"),
    pytest.param(("train", {}), ("audit-labels", {"noise": None}), id="audit_after_train"),
    pytest.param(("train", {}), ("train", {"train": DIVERGING}), id="failed_rerun"),
])
def test_rerun_leaves_only_the_second_runs_files(runner, tmp_path, first, second):
    for command, overrides in (first, second):
        result = runner.invoke(main, [command, str(write_config(tmp_path, **overrides))])
        assert result.exit_code == (3 if "train" in overrides else 0), result.output
    run = tmp_path / "run"
    assert tree(run) == listed_tree(run)


def test_rerun_removes_an_exported_curves_csv(runner, tmp_path):
    """A rerun with fewer seeds removes the curves.csv that export-curves
    named and saves its own, with only its seeds' rows: the bytes that a
    first run with those seeds saves."""
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(write_config(tmp_path))]).exit_code == 0
    assert runner.invoke(main, ["export-curves", str(run)]).exit_code == 0
    assert {line.split(",")[2] for line in (run / "curves.csv").read_text().split()[1:]} \
        == {"1", "2"}
    assert runner.invoke(main, ["train", str(write_config(tmp_path, seeds=[1]))]).exit_code == 0
    assert tree(run) == listed_tree(run)
    fresh = write_config(tmp_path, seeds=[1], output_dir=str(tmp_path / "fresh"))
    assert runner.invoke(main, ["train", str(fresh)]).exit_code == 0
    assert (run / "curves.csv").read_bytes() == (tmp_path / "fresh" / "curves.csv").read_bytes()


def test_export_curves_refuses_a_run_without_a_manifest(runner, tmp_path):
    """Every run command writes manifest.json, also when it fails, so a run
    directory without one is a killed run: its logs are not exported."""
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(write_config(tmp_path))]).exit_code == 0
    (run / "manifest.json").unlink()
    left = _file_bytes(run)
    result = runner.invoke(main, ["export-curves", str(run), "--out",
                                  str(tmp_path / "out.csv")])
    assert result.exit_code == 2, result.output
    assert f"error: {run / 'manifest.json'}: missing" in result.stderr
    assert _file_bytes(run) == left
    assert not (tmp_path / "out.csv").exists()


def test_export_without_out_changes_no_file(runner, tmp_path):
    """export-curves RUN only names the curves.csv that the run saved: every
    file in the run keeps its bytes, manifest.json included."""
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(write_config(tmp_path))]).exit_code == 0
    before = _file_bytes(run)
    result = runner.invoke(main, ["export-curves", str(run)])
    assert result.exit_code == 0, result.output
    assert result.output == f"curves: {run / 'curves.csv'}\n"
    assert _file_bytes(run) == before


def test_export_to_another_path_leaves_the_manifest_as_it_is(runner, tmp_path):
    config_path = write_config(tmp_path)
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    before = (run / "manifest.json").read_bytes()
    result = runner.invoke(main, ["export-curves", str(run), "--out",
                                  str(tmp_path / "elsewhere.csv")])
    assert result.exit_code == 0, result.output
    assert (run / "manifest.json").read_bytes() == before


def test_analysis_after_a_failed_training_exports(runner, tmp_path):
    """The analysis's own manifest replaces the diverged training's, so its
    curves export."""
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(write_config(
        tmp_path, train=DIVERGING))]).exit_code == 3
    config_path = write_config(tmp_path)
    assert runner.invoke(main, ["analyze-noise", str(config_path)]).exit_code == 0
    analysis_curves = (run / "curves.csv").read_bytes()
    result = runner.invoke(main, ["export-curves", str(run)])
    assert result.exit_code == 0, result.output
    assert (run / "curves.csv").read_bytes() == analysis_curves
    assert tree(run) == listed_tree(run)


def test_config_error_before_writing_removes_nothing(tmp_path):
    """analyze-noise refuses an empty clean set before it touches the run
    directory, so the earlier run's files stay."""
    config_path = write_config(tmp_path)
    assert CliRunner().invoke(main, ["train", str(config_path)]).exit_code == 0
    run = tmp_path / "run"
    before = {name: (run / name).read_bytes() for name in manifest_of(run)["artifacts"]}
    mapping = yaml.safe_load(config_path.read_text())
    mapping["analysis"] = {"pool_size": 1}
    with pytest.raises(ConfigError, match="clean set would be empty"):
        run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    assert {name: (run / name).read_bytes() for name in before} == before


def test_removal_stays_inside_the_run_directory(runner, tmp_path):
    """Listed paths that lead outside the run directory, by "..", by an
    absolute path or through a symlink, survive a rerun, and so do unlisted
    files, also one that a listed symlink inside the directory names."""
    run = tmp_path / "run"
    outside = tmp_path / "outside"
    outside.mkdir()
    for name in ("up.txt", "abs.txt", "linked.txt", "in_dir.txt"):
        (outside / name).write_text(name)
    run.mkdir()
    (run / "link.txt").symlink_to(outside / "linked.txt")
    (run / "linkdir").symlink_to(outside, target_is_directory=True)
    (run / "notes.txt").write_text("mine")
    (run / "notes_link.txt").symlink_to(run / "notes.txt")
    (run / "seed_1").mkdir()
    (run / "seed_1" / "notes.txt").write_text("mine too")
    (run / "manifest.json").write_text(json.dumps({"artifacts": [
        "../outside/up.txt", str(outside / "abs.txt"), "link.txt",
        "linkdir/in_dir.txt", "notes_link.txt", "seed_1/notes.txt/..", "missing.csv"]}))
    result = runner.invoke(main, ["train", str(write_config(tmp_path, seeds=[1]))])
    assert result.exit_code == 0, result.output
    assert sorted(os.listdir(outside)) == ["abs.txt", "in_dir.txt", "linked.txt",
                                           "up.txt"]
    assert (run / "link.txt").is_symlink()
    assert (run / "notes.txt").read_text() == "mine"
    assert (run / "seed_1" / "notes.txt").read_text() == "mine too"


@pytest.mark.parametrize("text", ["{not json", "[]", '{"failure": null}',
                                  '{"artifacts": "metrics.csv"}',
                                  '{"artifacts": [1]}'])
@pytest.mark.parametrize("command", ["train", "export-curves"])
def test_malformed_manifest_exits_2(runner, tmp_path, text, command):
    config_path = write_config(tmp_path)
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    (run / "manifest.json").write_text(text)
    before = tree(run)
    result = runner.invoke(main, [command, str(config_path if command == "train"
                                               else run)])
    assert result.exit_code == 2, result.output
    assert f"error: {run / 'manifest.json'}: bad run manifest" in result.stderr
    assert tree(run) == before


def test_repeated_gamma_trains_once(tmp_path, monkeypatch):
    """A gamma grid trains each distinct gamma once, in first-seen order,
    and its curves are those of the distinct grid."""
    trained = []
    original = trainer.train

    def counted(*args, **kwargs):
        trained.append(args[2].gamma)
        return original(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", counted)
    curves = {}
    for gammas in ([1, 0, 1], [0, 1]):
        mapping = yaml.safe_load(write_config(tmp_path, seeds=[1, 2]).read_text())
        mapping["output_dir"] = str(tmp_path / repr(gammas))
        mapping["analysis"]["gammas"] = gammas
        trained.clear()
        curves[repr(gammas)] = run_noise_analysis(
            ExperimentConfig.from_mapping(mapping)).read_bytes()
        if gammas == [1, 0, 1]:
            assert trained == [1.0, 0.0, 1.0, 0.0]
    assert curves["[1, 0, 1]"] == curves["[0, 1]"]


KILLED = 17
# A child process that runs the command argv[3] on the path at argv[1] (a
# config, or export-curves's run directory), with any further arguments,
# and ends with os._exit(KILLED) right after its argv[2]-th artifact: each
# writer a run's artifacts go through (config.yaml's text, the CSVs, the
# model) and export-curves's copy exits after that many writes, before the
# command can do anything else.
KILL_AFTER_ARTIFACT = f"""
import os, shutil, sys
from pathlib import Path
from coreglab import datasets, models
from coreglab.cli import main

written = []

def then_exit(write):
    def wrapped(*args, **kwargs):
        write(*args, **kwargs)
        written.append(args[0])
        if len(written) == int(sys.argv[2]):
            os._exit({KILLED})
    return wrapped

datasets.write_csv = then_exit(datasets.write_csv)
models.save_model = then_exit(models.save_model)
Path.write_text = then_exit(Path.write_text)
shutil.copyfile = then_exit(shutil.copyfile)
main([sys.argv[3], sys.argv[1], *sys.argv[4:]])
"""


def _child(script: str, *args) -> subprocess.CompletedProcess:
    """``script`` run by a fresh interpreter that imports this coreglab."""
    paths = (str(Path(coreglab.__file__).parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path for path in paths if path)}
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60)


def _file_bytes(run: Path) -> dict:
    return {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}


def _kill_after_each_artifact(runner, tmp_path, command) -> Path:
    """Run ``command`` in a child killed right after its k-th artifact, for
    k = 1, 2, ... until the child finishes; each killed run must leave a
    manifest that says "incomplete" and lists every file on disk, so
    export-curves refuses it and changes nothing, and a rerun with seeds [1]
    leaves only its own files. Returns the finished run's directory."""
    artifacts = 0
    while True:
        artifacts += 1
        base = tmp_path / str(artifacts)
        base.mkdir()
        run = base / "run"
        child = _child(KILL_AFTER_ARTIFACT, write_config(base), artifacts, command)
        if child.returncode == 0:
            return run
        assert child.returncode == KILLED, child.stderr
        assert manifest_of(run)["failure"] == "incomplete"
        assert tree(run) == listed_tree(run)
        assert len(manifest_of(run)["artifacts"]) == artifacts
        left = _file_bytes(run)
        result = runner.invoke(main, ["export-curves", str(run)])
        assert result.exit_code == 2, result.output
        assert "the run failed, so it has no curves: incomplete" in result.stderr
        assert _file_bytes(run) == left
        result = runner.invoke(main, [command, str(write_config(base, seeds=[1]))])
        assert result.exit_code == 0, result.output
        assert manifest_of(run)["failure"] is None
        assert tree(run) == listed_tree(run)
        assert not any("seed_2" in name for name in tree(run))


def test_killed_run_lists_every_file_it_left(runner, tmp_path):
    """A run killed right after any of its artifacts leaves a manifest that
    records the run as incomplete and lists every file on disk, so
    export-curves refuses it and a rerun with fewer seeds leaves only its own
    files."""
    run = _kill_after_each_artifact(runner, tmp_path, "train")
    # config.yaml, per seed flips.csv, epoch_log.csv and model.npz, then
    # metrics.csv and curves.csv: 9 artifacts, so the child asked to exit
    # after a 10th finished.
    assert run.parent.name == "10"
    assert manifest_of(run)["failure"] is None
    assert "curves.csv" in manifest_of(run)["artifacts"]
    assert len(manifest_of(run)["artifacts"]) == 10  # with manifest.json


def test_killed_analysis_lists_every_file_it_left(runner, tmp_path):
    """analyze-noise saves curves.csv inside its run, so a kill at any of its
    artifacts, curves.csv included, leaves an "incomplete" manifest."""
    run = _kill_after_each_artifact(runner, tmp_path, "analyze-noise")
    # config.yaml, then per seed flips.csv and one epoch log per gamma (0 and
    # 1), then curves.csv: 8 artifacts.
    assert run.parent.name == "9"
    assert manifest_of(run)["failure"] is None
    assert "curves.csv" in manifest_of(run)["artifacts"]
    assert len(manifest_of(run)["artifacts"]) == 9  # with manifest.json


def test_killed_audit_lists_every_file_it_left(runner, tmp_path):
    """audit-labels trains the first seed only, so a kill at any of its
    artifacts leaves an "incomplete" manifest that lists it."""
    run = _kill_after_each_artifact(runner, tmp_path, "audit-labels")
    # config.yaml, flips.csv and audit.csv: 3 artifacts.
    assert run.parent.name == "4"
    assert manifest_of(run)["failure"] is None
    assert sorted(manifest_of(run)["artifacts"]) == [
        "audit.csv", "config.yaml", "flips.csv", "manifest.json"]


def test_killed_export_leaves_the_run_as_it_was(runner, tmp_path):
    """export-curves only copies the run's curves.csv, so a kill right after
    the copy leaves every file in the run with its bytes, and the copy equal
    to the run's file."""
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(write_config(tmp_path))]).exit_code == 0
    before = _file_bytes(run)
    child = _child(KILL_AFTER_ARTIFACT, run, 1, "export-curves", "--out",
                   tmp_path / "out.csv")
    assert child.returncode == KILLED, child.stderr
    assert _file_bytes(run) == before
    assert (tmp_path / "out.csv").read_bytes() == before[run / "curves.csv"]


# A child process that runs `train` on the config at argv[1] and dies partway
# through its argv[2]-th manifest write: it copies the manifest.json on disk
# to argv[3], writes half of the new manifest's text, and ends with
# os._exit(KILLED).
KILL_IN_MANIFEST_WRITE = f"""
import json, os, shutil, sys
from pathlib import Path
from coreglab.cli import main

manifest = Path(sys.argv[1]).parent / "run" / "manifest.json"
dump, writes = json.dump, []

def half_then_exit(payload, fh, **kwargs):
    if "config_hash" in payload:
        writes.append(payload)
        if len(writes) == int(sys.argv[2]):
            shutil.copyfile(manifest, sys.argv[3])
            text = json.dumps(payload, **kwargs)
            fh.write(text[:len(text) // 2])
            fh.flush()
            os._exit({KILLED})
    dump(payload, fh, **kwargs)

json.dump = half_then_exit
main(["train", sys.argv[1]])
"""


@pytest.mark.parametrize("write", [1, 3], ids=["at_open", "in_run"])
def test_kill_in_a_manifest_write_keeps_the_previous_manifest(runner, tmp_path, write):
    """A manifest goes to manifest.json.tmp and is renamed over manifest.json,
    so a run killed partway through a manifest write leaves the previous
    complete manifest. The rerun replaces the stale temporary file, exits 0
    and leaves none behind."""
    config_path = write_config(tmp_path)
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    child = _child(KILL_IN_MANIFEST_WRITE, config_path, write, tmp_path / "previous.json")
    assert child.returncode == KILLED, child.stderr
    assert (run / "manifest.json.tmp").exists()
    assert (run / "manifest.json").read_bytes() == (tmp_path / "previous.json").read_bytes()
    assert manifest_of(run)["failure"] == (None if write == 1 else "incomplete")
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 0, result.output
    assert manifest_of(run)["failure"] is None
    assert not list(run.rglob("*.tmp"))
    assert tree(run) == listed_tree(run)


def test_pool_flips_draw_from_their_own_stream(tmp_path, monkeypatch):
    """analyze-noise flips its pool from the seed's pool_noise stream, so the
    pool never shares the noise stream that the training flips draw from
    when the noise block leaves its seed out."""
    seeds = []
    original = noiselab.inject_noise

    def recording(dataset, spec):
        seeds.append(spec.seed)
        return original(dataset, spec)

    monkeypatch.setattr(noiselab, "inject_noise", recording)
    run_noise_analysis(ExperimentConfig.from_mapping(
        yaml.safe_load(write_config(tmp_path).read_text())))
    assert seeds == [substream_seed(seed, stream) for seed in (1, 2)
                     for stream in ("noise", "pool_noise")]


def _relation_files(directory: Path) -> dict:
    """A small relation task: its schema and train, dev and test files."""
    write_json(directory / "schema.json", {
        "relations": ["none", "founded"], "negative": "none",
        "entity_types": ["PER", "ORG"]})
    rng = np.random.default_rng(3)
    words = ["started", "met", "founded", "saw", "the", "firm"]
    paths = {"schema_path": str(directory / "schema.json")}
    for split, count in (("train", 40), ("dev", 12), ("test", 12)):
        lines = []
        for _ in range(count):
            middle = [str(w) for w in rng.choice(words, size=int(rng.integers(1, 4)))]
            lines.append(json.dumps({
                "tokens": ["Ann", *middle, "Acme"], "subj": [0, 0], "subj_type": "PER",
                "obj": [len(middle) + 1, len(middle) + 1], "obj_type": "ORG",
                "label": "founded" if "founded" in middle else "none"}))
        (directory / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
        paths[f"{split}_path"] = str(directory / f"{split}.jsonl")
    return paths


def _file_task(runner, tmp_path, task):
    """The overrides of write_config for a small relation or tagging task."""
    data = tmp_path / "data"
    data.mkdir()
    if task == "relation":
        return {"task": task, "noise": None, "data": _relation_files(data)}
    result = runner.invoke(main, ["gen-synthetic", "--task", "tagging", "--out",
                                  str(data), "--sentences", "40"])
    assert result.exit_code == 0, result.output
    return {"task": task, "noise": None, "data": {
        **{f"{split}_path": str(data / f"{split}.conll") for split in ("train", "dev", "test")},
        "schema_path": str(data / "schema.json")}}


def _artifacts(run: Path) -> dict:
    """Each file under run and its bytes, manifest.json's parsed without its
    wall clock."""
    files = {}
    for path in sorted(run.rglob("*")):
        if path.is_file():
            files[path.relative_to(run).as_posix()] = path.read_bytes()
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["wall_clock_sec"]
    return {**files, "manifest.json": manifest}


@pytest.mark.parametrize("commands, task", [
    pytest.param(["analyze-noise"], "synthetic", id="analyze-noise"),
    pytest.param(["audit-labels"], "synthetic", id="audit-labels"),
    pytest.param(["train", "export-curves"], "synthetic", id="export-curves"),
    pytest.param(["train"], "relation", id="relation"),
    pytest.param(["train"], "tagging", id="tagging"),
])
def test_rerun_in_a_fresh_directory_is_byte_identical(runner, tmp_path, commands, task):
    """The same commands on the same config in two fresh directories write
    the same artifacts, byte for byte, apart from the manifest's wall clock."""
    overrides = {} if task == "synthetic" else _file_task(runner, tmp_path, task)
    config_path = write_config(tmp_path, **overrides, output_dir="run")
    runs = []
    for root in ("a", "b"):
        run = tmp_path / root / "run"
        for command in commands:
            target = str(run) if command == "export-curves" else str(config_path)
            result = runner.invoke(main, [command, target],
                                   env={"COREGLAB_OUTPUT_ROOT": str(tmp_path / root)})
            assert result.exit_code == 0, result.output
        runs.append(_artifacts(run))
    assert "config.yaml" in runs[0]
    assert runs[0] == runs[1]
