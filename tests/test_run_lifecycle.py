"""The run directory's lifecycle: every run command writes config.yaml,
manifest.json and the artifacts the manifest lists, and nothing else; a
rerun first removes what the previous manifest lists, and only that."""

import json
import os
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from coreglab import noiselab, trainer
from coreglab.cli import main
from coreglab.experiment import (ConfigError, ExperimentConfig, build_task_data,
                                 run_noise_analysis)

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
        mask.save_csv(tmp_path / "expected.csv")
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
    config_path = write_config(tmp_path)
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    assert runner.invoke(main, ["export-curves", str(run)]).exit_code == 0
    assert "curves.csv" in manifest_of(run)["artifacts"]
    assert runner.invoke(main, ["train", str(write_config(tmp_path, seeds=[1]))]).exit_code == 0
    assert not (run / "curves.csv").exists()
    assert tree(run) == listed_tree(run)


def test_export_curves_refuses_a_run_without_a_manifest(runner, tmp_path):
    """Every run command writes manifest.json, also when it fails, so a run
    directory without one is a killed run: its logs are not exported."""
    run = tmp_path / "run"
    assert runner.invoke(main, ["train", str(write_config(tmp_path))]).exit_code == 0
    (run / "manifest.json").unlink()
    result = runner.invoke(main, ["export-curves", str(run)])
    assert result.exit_code == 2, result.output
    assert f"error: {run / 'manifest.json'}: missing" in result.stderr
    assert not (run / "curves.csv").exists()


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
