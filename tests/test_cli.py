import csv
import hashlib
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from coreglab import datasets, models, trainer
from coreglab.cli import main
from coreglab.datasets import load_tag_scheme, read_conll
from coreglab.models import load_model, save_model
from oracles import inject_noise_args, write_eval_files
from test_datasets import NON_NUMBER_FEATURES


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    base = {
        "task": "synthetic",
        "method": "coreg",
        "seeds": [1, 2],
        "output_dir": str(Path(path).parent / "run"),
        "epochs": 1,
        "data": {"train_size": 40, "dev_size": 12, "test_size": 12,
                 "num_classes": 3, "class_sep": 3.0},
        "train": {"num_models": 2, "batch_size": 20, "hidden_sizes": [4],
                  "dropout": 0.0, "warmup_pct": 50.0},
    }
    base.update(overrides)
    Path(path).write_text(yaml.safe_dump(base))
    return base


def test_help_lists_commands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in ("train", "analyze-noise", "audit-labels", "export-curves",
                    "gen-synthetic", "inject-noise", "evaluate"):
        assert command in result.output


def test_train_command(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 0, result.output
    assert f"run directory: {tmp_path / 'run'}" in result.output
    assert "median dev accuracy: " in result.output
    assert "median test accuracy: " in result.output
    assert (tmp_path / "run" / "metrics.csv").exists()
    assert (tmp_path / "run" / "seed_1" / "model.npz").exists()


def test_train_missing_config_exits_1(runner, tmp_path):
    result = runner.invoke(main, ["train", str(tmp_path / "nope.yaml")])
    assert result.exit_code == 1
    assert "error:" in result.stderr


@pytest.mark.parametrize("command", ["train", "analyze-noise", "audit-labels"])
def test_config_not_in_utf8_exits_1(runner, tmp_path, command):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    config_path.write_bytes(config_path.read_bytes() + b"# \xff\n")
    result = runner.invoke(main, [command, str(config_path)])
    assert_clean_exit(result, 1)
    assert result.stderr.startswith(f"error: cannot read config {config_path}: ")
    assert len(result.stderr.splitlines()) == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "analyze-noise", "audit-labels"])
def test_out_of_memory_exits_1(runner, tmp_path, monkeypatch, command):
    """A loader that cannot allocate its arrays ends the run with exit code 1
    and one error line, and its manifest records the failure. Whether a huge
    allocation fails depends on the host's overcommit, so the loader raises."""
    message = "Unable to allocate 17.9 GiB for an array with shape (2400000000,)"

    def no_memory(**data):
        raise MemoryError(message)

    monkeypatch.setattr(datasets, "mixture_splits", no_memory)
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    result = runner.invoke(main, [command, str(config_path)])
    assert_clean_exit(result, 1)
    assert result.stderr == f"error: out of memory: {message}\n"
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failure"] == f"MemoryError: {message}"


def test_train_bad_config_exits_1(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path, method="distill")
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 1
    assert "unknown method" in result.stderr


def test_train_missing_data_file_exits_2(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path, task="tagging",
                 data={"train_path": str(tmp_path / "nope.conll"),
                       "dev_path": str(tmp_path / "nope.conll"),
                       "test_path": str(tmp_path / "nope.conll"),
                       "schema_path": str(tmp_path / "nope.json")})
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def assert_clean_exit(result, code):
    """The command ended through the error handler: the expected exit code,
    an `error:` line, and no escaped exception (which CliRunner would record
    instead of printing a traceback)."""
    assert result.exit_code == code, result.output
    assert "error:" in result.stderr
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


# Paths a file-task config needs before its other data keys are checked;
# the configs below are rejected before any file is read.
FILE_PATHS = {f"{split}_path": "x" for split in ("train", "dev", "test", "schema")}


@pytest.mark.parametrize("overrides, names", [
    pytest.param({"seeds": ["abc"]},
                 "seeds", id="seeds"),
    pytest.param({"train": {"num_models": 2, "hidden_sizes": 5}},
                 "train.hidden_sizes", id="hidden_sizes"),
    pytest.param({"noise": {"rate": 1.5}},
                 "noise.rate", id="noise_rate"),
    pytest.param({"data": {"num_classes": 1}},
                 "data.num_classes", id="num_classes"),
    pytest.param({"task": "tagging", "data": {**FILE_PATHS, "window": -1}},
                 "data.window", id="window"),
    pytest.param({"epochs": "abc"},
                 "epochs", id="epochs"),
    pytest.param({"data": {"train_size": "abc"}},
                 "data.train_size", id="train_size"),
    pytest.param({"data": {"train_size": -5}},
                 "data.train_size", id="train_size_negative"),
    pytest.param({"data": {"train_size": 0}},
                 "data.train_size", id="train_size_zero"),
    pytest.param({"data": {"dev_size": 0}},
                 "data.dev_size", id="dev_size_zero"),
    pytest.param({"data": {"class_sep": "abc"}},
                 "data.class_sep", id="class_sep"),
    pytest.param({"baseline": {"folds": "x"}},
                 "baseline.folds", id="folds"),
    pytest.param({"baseline": {"delta_max": "x"}},
                 "baseline.delta_max", id="delta_max"),
    pytest.param({"noise": {"rate": 0.2, "scheme": "class_conditional", "confusion": [[1.0]]}},
                 "noise.confusion", id="confusion_size"),
    pytest.param({"train": {"num_models": 2, "base_lr": 0}},
                 "train.base_lr", id="base_lr_zero"),
    pytest.param({"train": {"num_models": 2, "dropout": 1.5}},
                 "train.dropout", id="dropout_above_1"),
    pytest.param({"train": {"num_models": 2, "hidden_sizes": [0]}},
                 "train.hidden_sizes", id="hidden_size_zero"),
    pytest.param({"train": {"num_models": 2, "batch_size": 2.5}},
                 "train.batch_size", id="batch_size_fraction"),
    pytest.param({"train": {"num_models": 2.5}},
                 "train.num_models", id="num_models_fraction"),
    pytest.param({"train": {"num_models": 2, "total_steps": 10}},
                 "unknown train keys: total_steps", id="total_steps_unknown"),
    pytest.param({"baseline": {"delta_max": 150}},
                 "baseline.delta_max", id="delta_max_above_100"),
    pytest.param({"baseline": {"base_weight": 0}},
                 "baseline.base_weight", id="base_weight_zero"),
    pytest.param({"baseline": {"base_weight": 1.5}},
                 "baseline.base_weight", id="base_weight_above_1"),
    pytest.param({"analysis": {"pool_noise_rate": 1.5}},
                 "analysis.pool_noise_rate", id="pool_noise_rate_above_1"),
    pytest.param({"method": "crossweigh", "train": {"num_models": 1},
     "baseline": {"folds": 41}},
                 "baseline.folds", id="folds_above_rows"),
    pytest.param({"train": None},
                 "train", id="train_null"),
    pytest.param({"baseline": None},
                 "baseline", id="baseline_null"),
    pytest.param({"data": 5},
                 "data", id="data_scalar"),
    pytest.param({"noise": 0.3},
                 "noise", id="noise_scalar"),
    pytest.param({"noise": {"rate": 0.2, "seed": -1}},
                 "noise.seed", id="noise_seed_negative"),
    pytest.param({"train": {"num_models": 2, "gamma": math.nan}},
                 "train.gamma", id="gamma_nan"),
    pytest.param({"train": {"num_models": 2, "gamma": math.inf}},
                 "train.gamma", id="gamma_infinite"),
    pytest.param({"method": "small_loss", "train": {"num_models": 1},
     "baseline": {"delta_max": math.nan}},
                 "baseline.delta_max", id="delta_max_nan"),
    pytest.param({"noise": {"rate": 0.2, "scheme": "class_conditional",
               "confusion": [[math.nan] * 3] * 3}},
                 "noise.confusion", id="confusion_nan"),
    pytest.param({"seeds": [math.inf]},
                 "seeds", id="seeds_infinite"),
    pytest.param({"train": {"num_models": 2, "hidden_sizes": [10 ** 38]}},
                 "train.hidden_sizes", id="hidden_size_above_ceiling"),
    pytest.param({"seeds": "12"},
                 "seeds", id="seeds_string"),
    pytest.param({"train": {"num_models": 2, "hidden_sizes": "12"}},
                 "train.hidden_sizes", id="hidden_sizes_string"),
    pytest.param({"analysis": {"gammas": "15"}},
                 "analysis.gammas", id="gammas_string"),
    pytest.param({"seeds": [1.5]},
                 "seeds", id="seeds_fraction"),
    pytest.param({"noise": {"rate": 0.2, "seed": 1.5}},
                 "noise.seed", id="noise_seed_fraction"),
    pytest.param({"train": {"num_models": 2, "soft_target_gradient": "false"}},
                 "train.soft_target_gradient", id="soft_target_gradient_string"),
    pytest.param({"train": {"num_models": 2, "soft_target_gradient": 2}},
                 "train.soft_target_gradient", id="soft_target_gradient_number"),
    pytest.param({"train": {"num_models": 2, "aggregate_mode": "avg_logit",
                            "soft_target_gradient": True}},
                 "train.aggregate_mode", id="soft_target_gradient_under_avg_logit"),
    pytest.param({"seeds": [True]},
                 "seeds", id="seeds_boolean"),
    pytest.param({"train": {"num_models": 2, "batch_size": True}},
                 "train.batch_size", id="batch_size_boolean"),
    pytest.param({"train": {"num_models": 2, "gamma": False}},
                 "train.gamma", id="gamma_boolean"),
    pytest.param({"analysis": {"gammas": [True]}},
                 "analysis.gammas", id="gammas_boolean"),
    pytest.param({"task": "tagging", "data": {**FILE_PATHS, "train_path": 0}},
                 "data.train_path", id="train_path_number"),
    pytest.param({"output_dir": ["a", "b"]},
                 "output_dir", id="output_dir_list"),
    pytest.param({"task": "relation", "data": {**FILE_PATHS, "window": -4}},
                 "data keys for the relation task", id="relation_window"),
    pytest.param({"data": {"train_path": "x"}},
                 "data keys for the synthetic task", id="synthetic_train_path"),
    pytest.param({"task": "tagging", "data": {**FILE_PATHS, "train_size": 40}},
                 "data keys for the tagging task", id="tagging_train_size"),
])
def test_train_invalid_config_exits_1(runner, tmp_path, overrides, names, hang_guard):
    """Each config is rejected for its own reason: stderr names the key (a
    block's keys as block.key) or, for a data key the task never reads, the
    task."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, **overrides)
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 1)
    assert re.search(rf"(?<![\w.]){re.escape(names)}(?![\w.])", result.stderr), \
        result.stderr


def test_confusion_without_class_conditional_exits_1(runner, tmp_path):
    """A confusion table is read only by the class_conditional scheme, so
    one given under the default uniform_flip is refused, here one that is
    not even C×C for the 3 classes, before the run directory is made."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, noise={"rate": 0.2, "confusion": [[0.0, 1.0], [1.0, 0.0]]})
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 1)
    assert result.stderr == ("error: noise.confusion is read only under noise.scheme "
                             "class_conditional, not uniform_flip\n")
    assert not (tmp_path / "run").exists()


def test_train_boolean_window_exits_1(runner, tmp_path):
    """A YAML boolean is not a window size, though Python counts true as 1;
    the same files train with window 1."""
    schema, records = TASK_FILES["tagging"]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "split.conll").write_text(records)
    config_path = tmp_path / "config.yaml"
    for window, code in ((1, 0), (True, 1)):
        write_file_task_config(config_path, "tagging", tmp_path / "split.conll",
                               tmp_path / "split.conll", tmp_path / "schema.json")
        settings = yaml.safe_load(config_path.read_text())
        settings["data"]["window"] = window
        config_path.write_text(yaml.safe_dump(settings))
        result = runner.invoke(main, ["train", str(config_path)])
        if code:
            assert_clean_exit(result, code)
            assert "data.window" in result.stderr
        else:
            assert result.exit_code == 0, result.output


def test_train_window_above_256_exits_1(runner, tmp_path):
    """data.window is at most 256: a wider one, even one too wide for NumPy
    to shape, is a config error, and the same files train with window 256."""
    schema, records = TASK_FILES["tagging"]
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    (tmp_path / "split.conll").write_text(records)
    config_path = tmp_path / "config.yaml"
    for window in (256, 257, 10**18):
        write_file_task_config(config_path, "tagging", tmp_path / "split.conll",
                               tmp_path / "split.conll", tmp_path / "schema.json")
        settings = yaml.safe_load(config_path.read_text())
        settings["data"]["window"] = window
        config_path.write_text(yaml.safe_dump(settings))
        result = runner.invoke(main, ["train", str(config_path)])
        if window == 256:
            assert result.exit_code == 0, result.output
        else:
            assert_clean_exit(result, 1)
            assert result.stderr == "error: data.window must be in [0, 256]\n"


def test_analyze_noise_invalid_config_exits_1(runner, tmp_path):
    """Each case is rejected before the run directory is made; a pool whose
    flips floor to no row would leave the clean set empty."""
    config_path = tmp_path / "config.yaml"
    for analysis in ({"pool_size": "abc"}, {"pool_noise_rate": 1.5}, None,
                     {"gammas": [-1.0]}, {"gammas": [0.0, math.nan]},
                     {"pool_noise_rate": 0}, {"pool_size": 1}, {"gammas": []}):
        write_config(config_path, analysis=analysis)
        assert_clean_exit(runner.invoke(main, ["analyze-noise", str(config_path)]), 1)
        assert not (tmp_path / "run").exists()


TASK_FILES = {
    "tagging": ({"entity_types": ["PER"]}, "Ann B-PER\nran O\n"),
    "relation": ({"relations": ["none", "founded"], "negative": "none",
                  "entity_types": ["PER", "ORG"]},
                 json.dumps({"tokens": ["Ann", "founded", "Acme"], "subj": [0, 0],
                             "subj_type": "PER", "obj": [2, 2], "obj_type": "ORG",
                             "label": "founded"}) + "\n"),
}


NOT_UTF8 = b"\xff\xfe"


def write_file_task_config(config_path, task, train_path, data_path, schema_path,
                           **overrides):
    settings = dict(task=task, method="plain",
                    train={"num_models": 1, "batch_size": 2, "hidden_sizes": [4]},
                    data={"train_path": str(train_path), "dev_path": str(data_path),
                          "test_path": str(data_path),
                          "schema_path": str(schema_path)})
    settings.update(overrides)
    write_config(config_path, **settings)


RELATION_RECORD = json.loads(TASK_FILES["relation"][1])
FEATURE_RECORD = {"features": [0.0], "label": 0}
# A record the reader must refuse, written as the second line of the file.
BAD_RECORDS = {
    ("relation", "spans_overlap"): {**RELATION_RECORD, "obj": [0, 1]},
    ("relation", "id_not_integer"): {**RELATION_RECORD, "id": "abc"},
    ("relation", "id_fractional"): {**RELATION_RECORD, "id": 1.5},
    ("relation", "span_not_list"): {**RELATION_RECORD, "subj": 0},
    ("relation", "span_not_integers"): {**RELATION_RECORD, "subj": [0.0, 0.5]},
    ("relation", "tokens_string"): {**RELATION_RECORD, "tokens": "abc"},
    ("relation", "not_an_object"): 5,
    # The first record has no id, so it takes its position, 0.
    ("relation", "id_duplicate"): {**RELATION_RECORD, "id": 0},
    ("synthetic", "label_negative"): {**FEATURE_RECORD, "label": -1},
    ("synthetic", "label_fractional"): {**FEATURE_RECORD, "label": 1.5},
    ("synthetic", "label_null"): {**FEATURE_RECORD, "label": None},
    ("synthetic", "id_fractional"): {**FEATURE_RECORD, "id": 1.5},
    # The first record has no id, so it takes its position, 0.
    ("synthetic", "id_duplicate"): {**FEATURE_RECORD, "id": 0},
    ("synthetic", "not_an_object"): [1, 2],
    ("synthetic", "number"): 5,
}


@pytest.mark.parametrize("task,broken", [
    ("tagging", "schema"), ("tagging", "data"), ("tagging", "encoding"),
    ("relation", "schema"), ("relation", "data"), ("relation", "encoding"),
    ("synthetic", "data"), ("synthetic", "encoding"), *BAD_RECORDS,
])
def test_unreadable_data_file_exits_2(runner, tmp_path, task, broken):
    """A schema that is not JSON, a data path that is a directory, a data
    file that is not UTF-8, or a malformed record (named by file and line)."""
    bad_record = BAD_RECORDS.get((task, broken))
    if task == "synthetic":
        source = tmp_path
        if broken == "encoding":
            source = tmp_path / "train.jsonl"
            source.write_bytes(NOT_UTF8 + b'{"features": [0.0], "label": 0}\n')
        elif bad_record is not None:
            source = tmp_path / "train.jsonl"
            source.write_text(json.dumps({**FEATURE_RECORD, "label": 1}) + "\n"
                              + json.dumps(bad_record) + "\n")
        result = runner.invoke(main, [
            "inject-noise", "--input", str(source),
            "--output", str(tmp_path / "noisy.jsonl"), "--rate", "0.1"])
        assert_clean_exit(result, 2)
        if bad_record is not None:
            assert f"{source}:2:" in result.stderr
        if broken in ("not_an_object", "number"):
            assert f"{source}:2: invalid record: not a JSON object" in result.stderr
        return
    schema, records = TASK_FILES[task]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text("{not json" if broken == "schema" else json.dumps(schema))
    data_path = tmp_path / "split.data"
    data_path.write_text(records)
    train_path = {"data": tmp_path, "encoding": tmp_path / "train.data"}.get(
        broken, data_path)
    if broken == "encoding":
        train_path.write_bytes(NOT_UTF8 + records.encode())
    elif bad_record is not None:
        train_path = tmp_path / "train.data"
        train_path.write_text(records + json.dumps(bad_record) + "\n")
    config_path = tmp_path / "config.yaml"
    write_file_task_config(config_path, task, train_path, data_path, schema_path)
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 2)
    if bad_record is not None:
        assert f"{train_path}:2:" in result.stderr


@pytest.mark.parametrize("command, split", [("train", "train"), ("train", "dev"),
                                            ("train", "test"), ("evaluate", "data")])
def test_unknown_tag_symbol_exits_2(runner, tmp_path, command, split):
    """A CoNLL tag the schema does not name is a data error that names the
    file, the line and the symbol; the run leaves no metrics.csv."""
    bad = tmp_path / f"{split}.conll"
    bad.write_text("Ann B-PER\nran B-MISC\n")
    if command == "train":
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(TASK_FILES["tagging"][0]))
        good = tmp_path / "good.conll"
        good.write_text(TASK_FILES["tagging"][1])
        paths = {f"{name}_path": str(bad if name == split else good)
                 for name in ("train", "dev", "test")}
        config_path = tmp_path / "config.yaml"
        write_file_task_config(config_path, "tagging", bad, good, schema_path,
                               data={**paths, "schema_path": str(schema_path)})
        args = ["train", str(config_path)]
    else:
        args = write_eval_files(tmp_path, "tagging", data=bad.read_text())
        bad = tmp_path / "data"
    result = runner.invoke(main, args)
    assert_clean_exit(result, 2)
    assert result.stderr == f"error: {bad}:2: unknown tag symbol 'B-MISC'\n"
    assert not list(tmp_path.rglob("metrics.csv"))


@pytest.mark.parametrize("label", ["born_in", ["founded"]], ids=["unknown", "list"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_unknown_relation_label_exits_2(runner, tmp_path, command, label):
    """A relation label the schema does not name, or one that is not a
    string, is a data error that names the file, the line and the label;
    the run leaves no metrics.csv."""
    records = TASK_FILES["relation"][1] + json.dumps({**RELATION_RECORD, "label": label})
    if command == "train":
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(TASK_FILES["relation"][0]))
        good = tmp_path / "good.jsonl"
        good.write_text(TASK_FILES["relation"][1])
        bad = tmp_path / "train.jsonl"
        bad.write_text(records)
        config_path = tmp_path / "config.yaml"
        write_file_task_config(config_path, "relation", bad, good, schema_path)
        args = ["train", str(config_path)]
    else:
        args = write_eval_files(tmp_path, "relation", data=records)
        bad = tmp_path / "data"
    result = runner.invoke(main, args)
    assert_clean_exit(result, 2)
    assert result.stderr == f"error: {bad}:2: unknown relation label {label!r}\n"
    assert not list(tmp_path.rglob("metrics.csv"))


@pytest.mark.parametrize("task", ["tagging", "synthetic"])
def test_undecodable_line_deep_in_a_file_is_named(runner, tmp_path, task):
    """A byte that is not UTF-8 about 10 KB into a data file exits 2 naming
    the file, the line and the byte's position within that line, not a
    position counted from wherever the reader's chunk began."""
    line = "Ann B-PER\n" if task == "tagging" else json.dumps(FEATURE_RECORD) + "\n"
    lines = 10_000 // len(line)
    data = tmp_path / "train.data"
    data.write_bytes((line * lines).encode() + b"Ann\xff" + (line * lines).encode())
    if task == "tagging":
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(TASK_FILES["tagging"][0]))
        config_path = tmp_path / "config.yaml"
        write_file_task_config(config_path, task, data, data, schema_path)
        result = runner.invoke(main, ["train", str(config_path)])
    else:
        result = runner.invoke(main, ["inject-noise", "--input", str(data),
                                      "--output", str(tmp_path / "noisy.jsonl"),
                                      "--rate", "0.1"])
    assert_clean_exit(result, 2)
    assert f"{data}:{lines + 1}: cannot decode:" in result.stderr
    assert "in position 3:" in result.stderr


@pytest.mark.parametrize("task", ["tagging", "relation"])
def test_empty_train_split_exits_2(runner, tmp_path, task, hang_guard):
    schema, records = TASK_FILES[task]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    data_path = tmp_path / "split.data"
    data_path.write_text(records)
    empty_path = tmp_path / "empty.data"
    empty_path.write_text("")
    config_path = tmp_path / "config.yaml"
    write_file_task_config(config_path, task, empty_path, data_path, schema_path)
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 2)
    assert "empty training split" in result.stderr


@pytest.mark.parametrize("task", ["tagging", "relation"])
def test_file_task_folds_above_rows_exits_1(runner, tmp_path, task):
    """Crossweigh's folds are checked against the loaded training rows: the
    tagging file has 2 token rows, the relation file 1 record."""
    schema, records = TASK_FILES[task]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    data_path = tmp_path / "split.data"
    data_path.write_text(records)
    config_path = tmp_path / "config.yaml"
    write_file_task_config(config_path, task, data_path, data_path, schema_path,
                           method="crossweigh", baseline={"folds": 3})
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 1)
    assert "folds" in result.stderr


def test_file_task_confusion_size_exits_1(runner, tmp_path):
    """The tag scheme gives 3 classes (O, B-PER, I-PER); the table is 2x2."""
    schema, records = TASK_FILES["tagging"]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    data_path = tmp_path / "split.data"
    data_path.write_text(records)
    config_path = tmp_path / "config.yaml"
    write_file_task_config(config_path, "tagging", data_path, data_path, schema_path,
                           noise={"rate": 0.5, "scheme": "class_conditional",
                                  "confusion": [[0.0, 1.0], [1.0, 0.0]]})
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 1)
    assert "3 classes" in result.stderr


@pytest.mark.parametrize("split", ["dev", "test"])
def test_empty_eval_split_exits_2(runner, tmp_path, split):
    """An empty dev split leaves best_dev nothing to select by, and an empty
    test split nothing to score; each is a data error that names the file."""
    schema, records = TASK_FILES["tagging"]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema))
    data_path = tmp_path / "split.conll"
    data_path.write_text(records)
    empty_path = tmp_path / "empty.conll"
    empty_path.write_text("")
    paths = {"dev": data_path, "test": data_path, split: empty_path}
    config_path = tmp_path / "config.yaml"
    write_file_task_config(
        config_path, "tagging", data_path, data_path, schema_path,
        data={"train_path": str(data_path), "dev_path": str(paths["dev"]),
              "test_path": str(paths["test"]), "schema_path": str(schema_path)},
        train={"num_models": 1, "batch_size": 2, "hidden_sizes": [4],
               "selection_policy": "best_dev"})
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 2)
    assert f"{empty_path}: empty {split} split" in result.stderr


@pytest.mark.parametrize("entity_types, base_lr, code", [
    pytest.param(["PER"], 1e200, 3, id="diverged_after_flips"),
    pytest.param([], 0.01, 1, id="single_class_noise"),
])
def test_failed_run_manifest_lists_only_written_files(runner, tmp_path, entity_types,
                                                      base_lr, code):
    """A run that fails lists in its manifest only the artifacts it wrote:
    the divergence comes after vocab.json and the first seed's flips.csv.
    A tagging schema without entity types gives one class, O, so no label
    can be flipped: that config error names the noise block and comes
    before any artifact but config.yaml."""
    (tmp_path / "schema.json").write_text(json.dumps({"entity_types": entity_types}))
    tags = ("B-PER", "O") if entity_types else ("O", "O")
    (tmp_path / "split.conll").write_text(f"Ann {tags[0]}\nran {tags[1]}\n")
    config_path = tmp_path / "config.yaml"
    write_file_task_config(config_path, "tagging", tmp_path / "split.conll",
                           tmp_path / "split.conll", tmp_path / "schema.json",
                           noise={"rate": 0.5},
                           train={"num_models": 1, "batch_size": 1, "hidden_sizes": [4],
                                  "dropout": 0.0, "base_lr": base_lr})
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, code)
    assert "Warning" not in result.stderr
    if code == 1:
        assert "noise needs at least 2 classes" in result.stderr
    run = tmp_path / "run"
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["failure"]
    assert manifest["artifacts"] == sorted(
        ["config.yaml", "vocab.json", "seed_1/flips.csv"] if code == 3
        else ["config.yaml"])
    assert all((run / name).is_file() for name in manifest["artifacts"])


def test_train_kl_eps_is_an_unknown_key(runner, tmp_path):
    """The KL smoothing is the constant numeric.KL_EPS, not a setting."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, train={"num_models": 2, "kl_eps": 1e-9})
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 1)
    assert "unknown train keys: kl_eps" in result.stderr


def test_train_output_dir_is_a_file_exits_2(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path, output_dir=str(config_path))
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 2)
    assert str(config_path) in result.stderr


def test_inject_noise_output_directory_exits_2(runner, tmp_path):
    source = tmp_path / "train.jsonl"
    source.write_text("".join(json.dumps({"features": [0.0], "label": label}) + "\n"
                              for label in (0, 1, 0, 1)))
    result = runner.invoke(main, ["inject-noise", "--input", str(source),
                                  "--output", str(tmp_path), "--rate", "0.5"])
    assert_clean_exit(result, 2)
    assert str(tmp_path) in result.stderr


def test_train_divergence_exits_3(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path,
                 train={"num_models": 2, "batch_size": 20,
                        "hidden_sizes": [4], "dropout": 0.0,
                        "warmup_pct": 0.0, "base_lr": 1e200})
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 3
    assert result.stderr == "error: non-finite logits at step 1\n"


# What the first evaluation forward of each run evaluates.
EVALUATED_FIRST = {("train", "coreg"): "dev after epoch 0",
                   ("train", "crossweigh"): "fold 0 in crossweigh iteration 0",
                   ("audit-labels", "coreg"): "train in the label audit",
                   ("analyze-noise", "coreg"): "dev after epoch 0"}


@pytest.mark.parametrize("command, method", list(EVALUATED_FIRST))
def test_divergence_at_evaluation_exits_3(runner, tmp_path, command, method):
    """One step at base_lr 1e308 leaves finite parameters near 1e308 whose
    logits are not finite: the first evaluation forward (a dev score, a
    crossweigh fold's, the audit's report, or the analysis's clean-set score)
    ends the run as a divergence that names what it evaluated, without
    NumPy's overflow warnings, and the run records the failure and writes no
    metrics.csv."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[1], method=method, noise={"rate": 0.25},
                 train={"num_models": 1 if method == "crossweigh" else 2,
                        "batch_size": 64, "hidden_sizes": [4], "dropout": 0.0,
                        "base_lr": 1e308},
                 analysis={"gammas": [1.0], "pool_size": 40, "epochs": 1})
    result = runner.invoke(main, [command, str(config_path)])
    assert_clean_exit(result, 3)
    message = f"non-finite logits in evaluation of {EVALUATED_FIRST[command, method]}"
    assert result.stderr == f"error: {message}\n"
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failure"] == f"TrainingDiverged: {message}"
    assert not (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize("split, call", [("dev", 3), ("test", 4)])
def test_divergence_at_final_evaluation_names_the_split(runner, tmp_path, monkeypatch,
                                                        split, call):
    """After one epoch's two dev scores, the selected model's dev and then
    test score are a seed's third and fourth evaluation forwards; one that
    diverges names its split and writes no metrics.csv."""
    calls = []
    original = models.eval_blocks

    def diverging(evaluated, features):
        calls.append(len(features))
        if len(calls) == call:
            evaluated = [models.MlpModel(model.layer_sizes, model.dropout, model.seed,
                                         np.full_like(model.params, 1e308))
                         for model in evaluated]
        return original(evaluated, features)

    monkeypatch.setattr(models, "eval_blocks", diverging)
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[1])
    result = runner.invoke(main, ["train", str(config_path)])
    assert_clean_exit(result, 3)
    message = f"non-finite logits in evaluation of {split} with the selected model"
    assert result.stderr == f"error: {message}\n"
    assert calls == [12] * call
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failure"] == f"TrainingDiverged: {message}"
    assert not (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize("task", ["synthetic", "tagging", "relation"])
def test_evaluate_diverged_model_exits_3(runner, tmp_path, task):
    """A saved model whose parameters are finite but whose logits are not
    scores nothing: evaluate exits 3 with one error line naming the data."""
    args = write_eval_files(tmp_path, task)
    model = load_model(tmp_path / "model.npz")
    model.params[:] = 1e308
    save_model(model, tmp_path / "model.npz")
    result = runner.invoke(main, args)
    assert_clean_exit(result, 3)
    assert result.stderr == ("error: non-finite logits in evaluation of "
                             f"{tmp_path / 'data'}\n")
    assert result.stdout == ""


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_feature_is_a_data_error(runner, tmp_path, value):
    """JSON's non-finite literals parse as floats, but a feature file that
    holds one is refused naming its line, before anything is scored or
    written: evaluate does not report a divergence, and inject-noise does
    not copy the value into its output."""
    data = ('{"features": [0.0, 1.0], "label": 0}\n'
            f'{{"features": [1.0, {value}], "label": 1}}\n')
    for args in (write_eval_files(tmp_path, "synthetic", data=data),
                 inject_noise_args(tmp_path, "synthetic")):
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert result.stderr == (f"error: {tmp_path / 'data'}:2: features must be "
                                 f"finite, got {float(value)}\n")
        assert result.stdout == ""
    assert not (tmp_path / "noisy").exists()
    assert not (tmp_path / "noisy.flips.csv").exists()


@pytest.mark.parametrize("features, message", NON_NUMBER_FEATURES)
def test_non_number_feature_is_a_data_error(runner, tmp_path, features, message):
    """A feature file whose record holds a string, a boolean or any other
    non-number is refused naming its line, before anything is scored or
    written."""
    data = ('{"features": [0.0, 1.0], "label": 0}\n'
            f'{{"features": {features}, "label": 1}}\n')
    for args in (write_eval_files(tmp_path, "synthetic", data=data),
                 inject_noise_args(tmp_path, "synthetic")):
        before = sorted(tmp_path.iterdir())
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert result.stderr == f"error: {tmp_path / 'data'}:2: {message}\n"
        assert result.stdout == ""
        assert sorted(tmp_path.iterdir()) == before


def test_finite_features_that_overflow_the_model_are_a_divergence(runner, tmp_path):
    """Finite features whose logits overflow still end as exit 3."""
    args = write_eval_files(tmp_path, "synthetic",
                            data='{"features": [1e308, 1e308], "label": 0}\n')
    model = load_model(tmp_path / "model.npz")
    model.params[:] = 1.0
    save_model(model, tmp_path / "model.npz")
    result = runner.invoke(main, args)
    assert_clean_exit(result, 3)
    assert result.stderr == ("error: non-finite logits in evaluation of "
                             f"{tmp_path / 'data'}\n")


def test_gen_synthetic_writes_jsonl(runner, tmp_path):
    result = runner.invoke(main, [
        "gen-synthetic", "--out", str(tmp_path / "data"), "--seed", "3",
        "--train-size", "30", "--dev-size", "10", "--test-size", "10",
        "--num-classes", "2"])
    assert result.exit_code == 0, result.output
    for name, count in (("train", 30), ("dev", 10), ("test", 10)):
        path = tmp_path / "data" / f"{name}.jsonl"
        assert path.exists()
        assert len(path.read_text().splitlines()) == count
        assert f"wrote {path} ({count} instances)" in result.output


def test_gen_synthetic_tagging_writes_conll(runner, tmp_path):
    result = runner.invoke(main, [
        "gen-synthetic", "--task", "tagging", "--out", str(tmp_path / "corpus"),
        "--sentences", "20", "--seed", "5"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "corpus"
    assert (out / "schema.json").exists()
    scheme = load_tag_scheme(out / "schema.json")
    sizes = {name: len(list(read_conll(out / f"{name}.conll", scheme)))
             for name in ("train", "dev", "test")}
    assert sizes == {"train": 16, "dev": 2, "test": 2}


def test_inject_noise_synthetic(runner, tmp_path):
    runner.invoke(main, ["gen-synthetic", "--out", str(tmp_path), "--seed", "1",
                         "--train-size", "30", "--dev-size", "5",
                         "--test-size", "5", "--num-classes", "3"])
    result = runner.invoke(main, [
        "inject-noise", "--input", str(tmp_path / "train.jsonl"),
        "--output", str(tmp_path / "noisy.jsonl"), "--rate", "0.2",
        "--seed", "4"])
    assert result.exit_code == 0, result.output
    assert "flipped 6 of 30 labels" in result.output
    assert (tmp_path / "noisy.jsonl").exists()
    default_mask = tmp_path / "noisy.jsonl.flips.csv"
    assert default_mask.exists()
    with open(default_mask, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["id", "original_label", "noisy_label"]
    assert len(rows) == 7


def test_inject_noise_flipping_nothing_prints_no_warning(runner, tmp_path):
    """A rate that floors to no row is reported as 0 flips and a header-only
    mask, with nothing on stderr."""
    source = tmp_path / "train.jsonl"
    source.write_text("".join(json.dumps({"features": [0.0], "label": i % 2}) + "\n"
                              for i in range(10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = runner.invoke(main, ["inject-noise", "--input", str(source),
                                      "--output", str(tmp_path / "noisy.jsonl"),
                                      "--rate", "0.05"])
    assert result.exit_code == 0, result.output
    assert "flipped 0 of 10 labels" in result.stdout
    assert result.stderr == ""
    mask = tmp_path / "noisy.jsonl.flips.csv"
    assert mask.read_text() == "id,original_label,noisy_label\n"


@pytest.mark.parametrize("task", ["synthetic", "relation"])
def test_inject_noise_mask_names_record_ids(runner, tmp_path, task):
    """The mask names each flipped row by its record id, which here is not
    its position: gen-synthetic numbers its test records after the dev ones,
    and the relation records count down from 5273. The input
    record with that id has the mask's original label, and the output record
    its noisy label."""
    if task == "synthetic":
        runner.invoke(main, ["gen-synthetic", "--out", str(tmp_path), "--seed", "1",
                             "--train-size", "6", "--dev-size", "4",
                             "--test-size", "10", "--num-classes", "3"])
        source, names = tmp_path / "test.jsonl", [0, 1, 2]
        options = []
    else:
        source = write_relation_records(tmp_path, [5000 + 7 * (39 - i) for i in range(40)])
        names = TASK_FILES["relation"][0]["relations"]
        options = ["--task", "relation", "--schema", str(tmp_path / "schema.json")]
    result = runner.invoke(main, ["inject-noise", *options, "--input", str(source),
                                  "--output", str(tmp_path / "noisy.jsonl"),
                                  "--rate", "0.3", "--seed", "4"])
    assert result.exit_code == 0, result.output
    labels = [{rec["id"]: rec["label"]
               for rec in map(json.loads, path.read_text().splitlines())}
              for path in (source, tmp_path / "noisy.jsonl")]
    assert list(labels[0]) != list(range(len(labels[0])))
    rows = read_rows(tmp_path / "noisy.jsonl.flips.csv")
    assert len(rows) == int(0.3 * len(labels[0]))
    for row in rows:
        uid = int(row["id"])
        assert labels[0][uid] == names[int(row["original_label"])]
        assert labels[1][uid] == names[int(row["noisy_label"])]


def test_gen_synthetic_failed_json_write_leaves_no_temp_file(runner, tmp_path):
    """A JSON artifact whose rename fails (here schema.json is a directory)
    is an error naming it and not its <name>.tmp, which is removed."""
    out = tmp_path / "corpus"
    (out / "schema.json").mkdir(parents=True)
    result = runner.invoke(main, ["gen-synthetic", "--task", "tagging", "--out", str(out),
                                  "--sentences", "5"])
    assert_clean_exit(result, 2)
    assert str(out / "schema.json") in result.stderr
    assert ".tmp" not in result.stderr
    assert sorted(path.name for path in out.iterdir()) == ["schema.json"]


@pytest.mark.parametrize("option", ["--num-classes", "--num-features"])
def test_gen_synthetic_below_least_value_exits_1(runner, tmp_path, option):
    result = runner.invoke(main, [
        "gen-synthetic", "--out", str(tmp_path / "data"), option, "1"])
    assert_clean_exit(result, 1)
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("option, value", [("--seed", "-1"), ("--sentences", "0"),
                                           ("--sentences", "1"), ("--sentences", "2")])
def test_gen_synthetic_tagging_below_least_value_exits_1(runner, tmp_path, option,
                                                         value):
    result = runner.invoke(main, ["gen-synthetic", "--task", "tagging",
                                  "--out", str(tmp_path / "data"), option, value])
    assert_clean_exit(result, 1)
    assert option in result.stderr
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("content", ["", '{"features": [0.0], "label": 0}\n'],
                         ids=["empty", "one_class"])
def test_inject_noise_without_two_classes_exits_2(runner, tmp_path, content):
    (tmp_path / "train.jsonl").write_text(content)
    result = runner.invoke(main, [
        "inject-noise", "--input", str(tmp_path / "train.jsonl"),
        "--output", str(tmp_path / "noisy.jsonl"), "--rate", "0.3"])
    assert_clean_exit(result, 2)
    assert not (tmp_path / "noisy.jsonl").exists()


@pytest.mark.parametrize("task", datasets.TASKS)
def test_inject_noise_empty_file_exits_2(runner, tmp_path, task):
    """An empty file is refused by name before anything is written, not
    "flipped 0 of 0 labels"."""
    write_eval_files(tmp_path, task, data="")
    result = runner.invoke(main, inject_noise_args(tmp_path, task))
    assert_clean_exit(result, 2)
    assert f"error: {tmp_path / 'data'}: empty data file" in result.stderr
    assert not (tmp_path / "noisy").exists()
    assert not (tmp_path / "noisy.flips.csv").exists()


@pytest.mark.parametrize("task", datasets.TASKS)
def test_inject_noise_in_place_writes_the_out_of_place_bytes(runner, tmp_path, task):
    """--output equal to --input replaces the file with the bytes, and
    writes the mask, that a run writing to another file gives."""
    if task == "relation":
        source = write_relation_records(tmp_path, None)
    else:
        result = runner.invoke(main, ["gen-synthetic", "--task", task, "--out",
                                      str(tmp_path), "--train-size", "30",
                                      "--sentences", "15"])
        assert result.exit_code == 0, result.output
        source = next(tmp_path.glob("train.*"))
    in_place = tmp_path / f"in_place{source.suffix}"
    in_place.write_bytes(source.read_bytes())
    for input_path, output_path in ((source, tmp_path / "noisy"), (in_place, in_place)):
        result = runner.invoke(main, [
            "inject-noise", "--task", task, "--input", str(input_path),
            "--output", str(output_path), "--rate", "0.3",
            "--schema", str(tmp_path / "schema.json")])
        assert result.exit_code == 0, result.output
    assert in_place.read_bytes() == (tmp_path / "noisy").read_bytes() != source.read_bytes()
    assert Path(f"{in_place}.flips.csv").read_bytes() == \
        (tmp_path / "noisy.flips.csv").read_bytes()


@pytest.mark.parametrize("collides", ["output", "input", "default"])
def test_inject_noise_mask_out_collision_exits_2(runner, tmp_path, collides):
    """A flip mask whose path resolves to the --output or the --input file,
    given as --mask-out or by default as <output>.flips.csv, is refused by
    both option names before anything is read or written."""
    gen = runner.invoke(main, ["gen-synthetic", "--out", str(tmp_path), "--seed", "1",
                               "--train-size", "30", "--dev-size", "5",
                               "--test-size", "5"])
    assert gen.exit_code == 0, gen.output
    source = tmp_path / "train.jsonl"
    output = tmp_path / "noisy.jsonl"
    if collides == "default":
        source = source.rename(tmp_path / "noisy.jsonl.flips.csv")
    original = source.read_bytes()
    args = ["inject-noise", "--input", str(source), "--output", str(output),
            "--rate", "0.3"]
    if collides != "default":
        # The same file by another spelling of its path.
        named = output if collides == "output" else source
        args += ["--mask-out", str(tmp_path / "sub" / ".." / named.name)]
    result = runner.invoke(main, args)
    assert_clean_exit(result, 2)
    option = "--output" if collides == "output" else "--input"
    assert "(--mask-out or <output>.flips.csv)" in result.stderr
    assert f"is the {option} file" in result.stderr
    assert not output.exists()
    assert source.read_bytes() == original
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        ["dev.jsonl", "test.jsonl", source.name])


def test_inject_noise_bad_rate_exits_1(runner, tmp_path):
    (tmp_path / "train.jsonl").write_text("")
    result = runner.invoke(main, [
        "inject-noise", "--input", str(tmp_path / "train.jsonl"),
        "--output", str(tmp_path / "noisy.jsonl"), "--rate", "1.5"])
    assert result.exit_code == 1


def test_inject_noise_negative_seed_exits_1(runner, tmp_path):
    (tmp_path / "train.jsonl").write_text('{"features": [0.0], "label": 0}\n'
                                          '{"features": [1.0], "label": 1}\n')
    result = runner.invoke(main, [
        "inject-noise", "--input", str(tmp_path / "train.jsonl"),
        "--output", str(tmp_path / "noisy.jsonl"), "--rate", "0.5", "--seed", "-1"])
    assert_clean_exit(result, 1)
    assert not (tmp_path / "noisy.jsonl").exists()


def test_inject_noise_tagging_requires_schema(runner, tmp_path):
    (tmp_path / "train.conll").write_text("")
    result = runner.invoke(main, [
        "inject-noise", "--task", "tagging",
        "--input", str(tmp_path / "train.conll"),
        "--output", str(tmp_path / "noisy.conll"), "--rate", "0.1"])
    assert result.exit_code == 1
    assert "--schema" in result.stderr


def test_inject_noise_tagging_flips_tokens(runner, tmp_path):
    runner.invoke(main, ["gen-synthetic", "--task", "tagging",
                         "--out", str(tmp_path), "--sentences", "15",
                         "--seed", "2"])
    result = runner.invoke(main, [
        "inject-noise", "--task", "tagging",
        "--input", str(tmp_path / "train.conll"),
        "--output", str(tmp_path / "noisy.conll"), "--rate", "0.1",
        "--schema", str(tmp_path / "schema.json"),
        "--mask-out", str(tmp_path / "mask.csv")])
    assert result.exit_code == 0, result.output
    scheme = load_tag_scheme(tmp_path / "schema.json")
    clean = list(read_conll(tmp_path / "train.conll", scheme))
    noisy = list(read_conll(tmp_path / "noisy.conll", scheme))
    total = sum(len(tokens) for tokens, _ in clean)
    expected = math.floor(0.1 * total)
    assert f"flipped {expected} of {total} labels" in result.output
    flat_clean = [t for _, tags in clean for t in tags]
    flat_noisy = [t for _, tags in noisy for t in tags]
    changed = sum(a != b for a, b in zip(flat_clean, flat_noisy))
    assert changed == expected
    assert (tmp_path / "mask.csv").exists()


def test_evaluate_synthetic_model(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    runner.invoke(main, ["gen-synthetic", "--out", str(tmp_path / "eval"),
                         "--seed", "9", "--train-size", "10", "--dev-size", "5",
                         "--test-size", "20", "--num-classes", "3"])
    result = runner.invoke(main, [
        "evaluate", "--model", str(tmp_path / "run" / "seed_1" / "model.npz"),
        "--data", str(tmp_path / "eval" / "test.jsonl")])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("accuracy: ")
    value = float(result.output.split(": ")[1])
    assert 0.0 <= value <= 1.0


def test_evaluate_feature_mismatch_exits_2(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    runner.invoke(main, ["gen-synthetic", "--out", str(tmp_path / "wide"),
                         "--seed", "9", "--train-size", "10", "--dev-size", "5",
                         "--test-size", "5", "--num-classes", "3",
                         "--num-features", "5"])
    result = runner.invoke(main, [
        "evaluate", "--model", str(tmp_path / "run" / "seed_1" / "model.npz"),
        "--data", str(tmp_path / "wide" / "test.jsonl")])
    assert result.exit_code == 2
    assert "model/data mismatch" in result.stderr


def _write_model_file(path, kind):
    import numpy as np

    from coreglab.models import init_model

    params = init_model((2, 3), 0.0, seed=0).params
    fields = {"layer_sizes": np.array([2, 3]), "dropout": 0.0, "seed": 0,
              "params": params}
    if kind == "not_npz":
        path.write_text("layer_sizes: [2, 3]\n")
        return
    if kind == "no_params":
        del fields["params"]
    elif kind == "short_params":
        fields["params"] = params[:-1]
    elif kind == "dropout_above_1":
        fields["dropout"] = 1.5
    np.savez(path, **fields)


@pytest.mark.parametrize("kind", ["not_npz", "no_params", "short_params",
                                  "dropout_above_1"])
def test_evaluate_unloadable_model_exits_2(runner, tmp_path, kind):
    model_path = tmp_path / "model.npz"
    _write_model_file(model_path, kind)
    data = tmp_path / "data"
    assert runner.invoke(main, ["gen-synthetic", "--out", str(data), "--seed", "9",
                                "--train-size", "5", "--dev-size", "5",
                                "--test-size", "5", "--num-classes", "3"]).exit_code == 0
    result = runner.invoke(main, ["evaluate", "--model", str(model_path),
                                  "--data", str(data / "test.jsonl")])
    assert_clean_exit(result, 2)
    assert f"cannot load model {model_path}" in result.stderr


def test_evaluate_tagging_vocab_mismatch_exits_2(runner, tmp_path):
    """The window comes from the model: its input width over the vocabulary
    size. A vocabulary that does not divide that width into an odd number
    of blocks is refused, naming both sizes."""
    from coreglab.datasets import Vocab, load_vocab, save_vocab

    data = tmp_path / "data"
    assert runner.invoke(main, ["gen-synthetic", "--task", "tagging",
                                "--out", str(data), "--sentences", "30"]).exit_code == 0
    vocab_path = tmp_path / "run" / "vocab.json"
    for window in (2, 0):
        config_path = tmp_path / "config.yaml"
        write_config(config_path, task="tagging", seeds=[1],
                     data={"train_path": str(data / "train.conll"),
                           "dev_path": str(data / "dev.conll"),
                           "test_path": str(data / "test.conll"),
                           "schema_path": str(data / "schema.json"),
                           "window": window})
        assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
        evaluate = ["evaluate", "--task", "tagging",
                    "--model", str(tmp_path / "run" / "seed_1" / "model.npz"),
                    "--data", str(data / "test.conll"),
                    "--schema", str(data / "schema.json")]
        result = runner.invoke(main, [*evaluate, "--vocab", str(vocab_path)])
        assert result.exit_code == 0, result.output
        assert result.output.startswith("f1: ")
    # The window-0 model's input width is one vocabulary: a vocabulary one
    # token larger divides it into no whole block.
    vocab = load_vocab(vocab_path)
    larger = tmp_path / "larger.json"
    save_vocab(Vocab([*vocab.tokens()[2:], "zzz-extra"]), larger)
    result = runner.invoke(main, [*evaluate, "--vocab", str(larger)])
    assert_clean_exit(result, 2)
    assert f"input width {len(vocab)} " in result.stderr
    assert f"{len(vocab) + 1} tokens" in result.stderr


def test_evaluate_label_outside_model_classes_exits_2(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)  # 3 classes
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    data = tmp_path / "four.jsonl"
    data.write_text("".join(json.dumps({"features": [0.0, 0.0], "label": label}) + "\n"
                            for label in (0, 3)))
    result = runner.invoke(main, [
        "evaluate", "--model", str(tmp_path / "run" / "seed_1" / "model.npz"),
        "--data", str(data)])
    assert_clean_exit(result, 2)
    assert "label 3 outside 3 classes" in result.stderr


def test_evaluate_tagging_requires_schema_and_vocab(runner, tmp_path):
    from coreglab.models import init_model, save_model
    save_model(init_model([2, 3], dropout=0.0, seed=0), tmp_path / "m.npz")
    result = runner.invoke(main, [
        "evaluate", "--task", "tagging", "--model", str(tmp_path / "m.npz"),
        "--data", str(tmp_path / "d.conll")])
    assert result.exit_code == 1
    assert "--schema" in result.stderr


@pytest.mark.parametrize("task", ["synthetic", "tagging", "relation"])
def test_evaluate_empty_data_file_exits_2(runner, tmp_path, task):
    """Not an F1 of 0, nor a feature length of 0: the file is named."""
    result = runner.invoke(main, write_eval_files(tmp_path, task))
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, write_eval_files(tmp_path, task, data="\n"))
    assert_clean_exit(result, 2)
    assert f"{tmp_path / 'data'}: empty data file" in result.stderr


@pytest.mark.parametrize("task, schema, outputs, classes", [
    ("tagging", {"entity_types": ["PER"]}, 7, 3),
    ("tagging", {"entity_types": ["PER", "ORG", "LOC", "MISC"]}, 7, 9),
    ("relation", {**TASK_FILES["relation"][0],
                  "relations": ["none", "founded", "born_in"]}, 2, 3),
])
def test_evaluate_schema_class_count_mismatch_exits_2(runner, tmp_path, task, schema,
                                                      outputs, classes):
    """A schema with fewer classes than the model has outputs used to index
    past its tags (an IndexError traceback); with more, it was scored."""
    result = runner.invoke(main, write_eval_files(tmp_path, task, schema=schema))
    assert_clean_exit(result, 2)
    assert (f"model/data mismatch: the model has {outputs} outputs, the data "
            f"{classes} classes") in result.stderr


@pytest.mark.parametrize("task, name, content", [
    ("tagging", "schema", {"entity_types": "PER"}),
    ("tagging", "schema", {"entity_types": ["PER", "PER"]}),
    ("relation", "schema", {"relations": "ab", "negative": "a",
                            "entity_types": ["PER", "ORG"]}),
    ("tagging", "vocab", {"tokens": "abc"}),
    ("tagging", "schema", []),
    ("relation", "schema", 1.5),
    ("tagging", "vocab", ["a", "b"]),
    ("relation", "schema", {"relations": ["none", "founded"], "negative": "none",
                            "entity_types": ["PER", "PER"]}),
])
def test_schema_or_vocab_string_for_a_list_exits_2(runner, tmp_path, task, name,
                                                    content):
    """A string is not read as a list of its characters, nor a name twice
    as two classes, nor a file that is not a JSON object as one: the file is
    refused by name, under both commands that read it."""
    commands = [write_eval_files(tmp_path, task, **{name: content})]
    if name == "schema":
        commands.append(inject_noise_args(tmp_path, task))
    for args in commands:
        result = runner.invoke(main, args)
        assert_clean_exit(result, 2)
        assert f"error: {tmp_path / f'{name}.json'}: bad " in result.stderr
        if not isinstance(content, dict):
            assert "the file must be a JSON object" in result.stderr


def test_tagging_pipeline_roundtrip(runner, tmp_path):
    """gen-synthetic -> inject-noise -> train -> evaluate, all through the CLI."""
    data = tmp_path / "data"
    assert runner.invoke(main, ["gen-synthetic", "--task", "tagging",
                                "--out", str(data), "--sentences", "30",
                                "--seed", "11"]).exit_code == 0
    assert runner.invoke(main, [
        "inject-noise", "--task", "tagging",
        "--input", str(data / "train.conll"),
        "--output", str(data / "noisy.conll"), "--rate", "0.15",
        "--schema", str(data / "schema.json")]).exit_code == 0

    config_path = tmp_path / "config.yaml"
    write_config(config_path, task="tagging", seeds=[1],
                 data={"train_path": str(data / "noisy.conll"),
                       "dev_path": str(data / "dev.conll"),
                       "test_path": str(data / "test.conll"),
                       "schema_path": str(data / "schema.json")})
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "median test f1: " in result.output
    assert (tmp_path / "run" / "vocab.json").exists()

    result = runner.invoke(main, [
        "evaluate", "--task", "tagging",
        "--model", str(tmp_path / "run" / "seed_1" / "model.npz"),
        "--data", str(data / "test.conll"),
        "--schema", str(data / "schema.json"),
        "--vocab", str(tmp_path / "run" / "vocab.json")])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("f1: ")


def test_analyze_noise_command(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path, output_dir=str(tmp_path / "noise"),
                 analysis={"gammas": [0.0, 5.0], "pool_size": 40, "epochs": 1})
    result = runner.invoke(main, ["analyze-noise", str(config_path)])
    assert result.exit_code == 0, result.output
    assert f"curves: {tmp_path / 'noise' / 'curves.csv'}" in result.output
    assert (tmp_path / "noise" / "curves.csv").exists()


def test_audit_labels_with_noise(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[5], output_dir=str(tmp_path / "audit"),
                 noise={"rate": 0.25})
    result = runner.invoke(main, ["audit-labels", str(config_path)])
    assert result.exit_code == 0, result.output
    assert f"report: {tmp_path / 'audit' / 'audit.csv'}" in result.output
    auroc_line = [line for line in result.output.splitlines()
                  if line.startswith("auroc: ")][0]
    assert auroc_line != "auroc: n/a"
    assert 0.0 <= float(auroc_line.split(": ")[1]) <= 1.0
    assert (tmp_path / "audit" / "metrics.csv").read_text() == (
        f"seed,split,metric,value\n5,train,auroc,{auroc_line.split(': ')[1]}\n")


# What the audit's last training gets under each method: (models, gamma, a
# batch hook, instance weights).
AUDIT_TRAINS = {"coreg": (2, 1.0, False, False), "plain": (1, 0.0, False, False),
                "small_loss": (2, 0.0, True, False), "relabel": (2, 0.0, True, False),
                "crossweigh": (1, 0.0, False, True)}


def run_audit_of(runner, tmp_path, method):
    """audit-labels on a noisy 40-row task under ``method``; returns the run
    directory and the printed AUROC line."""
    config_path = tmp_path / f"{method}.yaml"
    write_config(config_path, seeds=[5], epochs=3, method=method,
                 output_dir=str(tmp_path / method), noise={"rate": 0.25},
                 baseline={"folds": 2, "iterations": 1, "delta_max": 20.0})
    result = runner.invoke(main, ["audit-labels", str(config_path)])
    assert result.exit_code == 0, result.output
    return tmp_path / method, result.output.splitlines()[-1]


@pytest.mark.parametrize("method", sorted(AUDIT_TRAINS))
def test_audit_labels_trains_the_configured_method(runner, tmp_path, monkeypatch,
                                                   method):
    """The audit trains what ``method`` names, as train does: plain audits
    one model, small_loss and relabel run their hooks, and crossweigh saves
    its instance weights as weights.csv beside audit.csv."""
    trained = []
    original = trainer.train

    def spy(dataset, dev_set, config, **kwargs):
        trained.append((config.num_models, config.gamma,
                        kwargs.get("batch_hook") is not None,
                        kwargs.get("weights") is not None))
        return original(dataset, dev_set, config, **kwargs)

    monkeypatch.setattr(trainer, "train", spy)
    run, _ = run_audit_of(runner, tmp_path, method)
    assert trained[-1] == AUDIT_TRAINS[method]
    listed = json.loads((run / "manifest.json").read_text())["artifacts"]
    assert ("weights.csv" in listed) == (method == "crossweigh")
    assert (run / "weights.csv").exists() == (method == "crossweigh")


def test_audit_labels_plain_and_coreg_rank_differently(runner, tmp_path):
    """One plain model and coreg's two rank the rows differently."""
    coreg, plain = (run_audit_of(runner, tmp_path, method) for method in ("coreg", "plain"))
    assert (coreg[0] / "audit.csv").read_bytes() != (plain[0] / "audit.csv").read_bytes()
    assert coreg[1] != plain[1]


@pytest.mark.parametrize("method", ["plain", "small_loss", "relabel", "crossweigh"])
def test_analyze_noise_refuses_other_methods(runner, tmp_path, method):
    """analyze-noise sweeps coreg's gamma, so another method is refused
    before the run directory is made."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, method=method, train={"num_models": 1},
                 analysis={"gammas": [0.0, 5.0], "pool_size": 40, "epochs": 1})
    result = runner.invoke(main, ["analyze-noise", str(config_path)])
    assert_clean_exit(result, 1)
    assert result.stderr == f"error: analyze-noise runs method coreg only, not {method}\n"
    assert not (tmp_path / "run").exists()


def write_relation_records(tmp_path, ids, name="records.jsonl"):
    """40 relation records, half "founded", with the given ids (None leaves
    the field out), and their schema.json; returns the data file's path."""
    (tmp_path / "schema.json").write_text(json.dumps(TASK_FILES["relation"][0]))
    records = [{**RELATION_RECORD, "tokens": ["Ann", verb, f"w{i % 7}", "Acme"],
                "obj": [3, 3], "label": "founded" if verb == "founded" else "none"}
               for i, verb in enumerate(["founded", "met"] * 20)]
    path = tmp_path / name
    path.write_text("".join(json.dumps(rec if uid is None else {**rec, "id": uid}) + "\n"
                            for rec, uid in zip(records, ids or [None] * len(records))))
    return path


def read_rows(path):
    """A CSV artifact's rows as dicts of its header's names."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_audit_labels_scores_relation_records_by_row(runner, tmp_path):
    """flips.csv and audit.csv both name rows by record id: with ids that
    start at 1000, and so are not row positions, every flipped id is an
    audited one, and the records score the same as without ids."""
    lines = []
    for ids in (None, [1000 + i for i in range(40)]):
        data_path = write_relation_records(tmp_path, ids, f"records_{bool(ids)}.jsonl")
        run = tmp_path / f"audit_{bool(ids)}"
        config_path = tmp_path / "config.yaml"
        write_file_task_config(config_path, "relation", data_path, data_path,
                               tmp_path / "schema.json", seeds=[3], epochs=3,
                               noise={"rate": 0.25}, output_dir=str(run))
        result = runner.invoke(main, ["audit-labels", str(config_path)])
        assert result.exit_code == 0, result.output
        lines.append([line for line in result.output.splitlines()
                      if line.startswith("auroc: ")])
        flipped = {row["id"] for row in read_rows(run / "flips.csv")}
        audited = [row["id"] for row in read_rows(run / "audit.csv")]
        assert len(flipped) == 10
        assert flipped <= set(audited) == {str(i) for i in ids or range(40)}
    assert lines[0] == lines[1]
    assert lines[0] != ["auroc: n/a"]


def test_crossweigh_weights_name_the_training_records(runner, tmp_path):
    """weights.csv lists the training file's record ids, in file order."""
    ids = [5000 + 7 * (39 - i) for i in range(40)]
    data_path = write_relation_records(tmp_path, ids)
    config_path = tmp_path / "config.yaml"
    write_file_task_config(config_path, "relation", data_path, data_path,
                           tmp_path / "schema.json", seeds=[3], method="crossweigh",
                           baseline={"folds": 2, "iterations": 1},
                           output_dir=str(tmp_path / "run"))
    result = runner.invoke(main, ["train", str(config_path)])
    assert result.exit_code == 0, result.output
    rows = read_rows(tmp_path / "run" / "seed_3" / "weights.csv")
    assert [int(row["id"]) for row in rows] == ids


def test_inject_noise_has_no_scheme_option(runner):
    """The command flips uniformly; class-conditional noise takes a confusion
    table, which only the config's noise block can give."""
    result = runner.invoke(main, ["inject-noise", "--help"])
    assert result.exit_code == 0
    assert "--scheme" not in result.output


def test_audit_labels_without_noise(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[5], output_dir=str(tmp_path / "audit"))
    result = runner.invoke(main, ["audit-labels", str(config_path)])
    assert result.exit_code == 0, result.output
    assert "auroc: n/a" in result.output
    assert not (tmp_path / "audit" / "metrics.csv").exists()


def test_train_and_audit_write_each_score_once(runner, tmp_path):
    """A run's scores live in its CSVs alone: each manifest holds four keys,
    each epoch log one row per model and epoch, curves.csv the best_dev pick
    among each epoch's rows, and the audit's metrics.csv the AUROC it
    prints. The train CSVs keep the bytes they had while the manifest also
    held the scores and the epoch logs a "selected" row."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, epochs=3, noise={"rate": 0.2},
                 output_dir=str(tmp_path / "train"),
                 train={"num_models": 3, "batch_size": 20, "hidden_sizes": [4],
                        "dropout": 0.0, "warmup_pct": 50.0,
                        "selection_policy": "best_dev"})
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    write_config(config_path, seeds=[5], noise={"rate": 0.25},
                 output_dir=str(tmp_path / "audit"))
    audit = runner.invoke(main, ["audit-labels", str(config_path)])
    assert audit.exit_code == 0, audit.output
    for run in ("train", "audit"):
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        assert sorted(manifest) == ["artifacts", "config_hash", "failure", "wall_clock_sec"]
    curves = read_rows(tmp_path / "train" / "curves.csv")
    for seed in ("1", "2"):
        log = read_rows(tmp_path / "train" / f"seed_{seed}" / "epoch_log.csv")
        assert [(row["model"], row["epoch"]) for row in log] == [
            (str(model), str(epoch)) for epoch in range(3) for model in range(3)]
        picks = [max((row["value"] for row in log if row["epoch"] == str(epoch)),
                     key=float) for epoch in range(3)]
        assert [row["value"] for row in curves if row["seed"] == seed] == picks
    auroc = audit.output.splitlines()[-1].removeprefix("auroc: ")
    assert read_rows(tmp_path / "audit" / "metrics.csv") == [
        {"seed": "5", "split": "train", "metric": "auroc", "value": auroc}]
    assert {name: hashlib.sha256((tmp_path / "train" / name).read_bytes()).hexdigest()
            for name in ("metrics.csv", "curves.csv")} == {
        "metrics.csv": "225e916ab22475530a031fc786b98fea31e999974c08dd969a885c65bd09c17b",
        "curves.csv": "7786f2915a6ede5aec361f3469b8456d941885a8a51c12a8e52ae2385be2caf5"}


def test_export_curves_command(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    target = tmp_path / "curves.csv"
    result = runner.invoke(main, ["export-curves", str(tmp_path / "run"),
                                  "--out", str(target)])
    assert result.exit_code == 0, result.output
    assert f"curves: {target}" in result.output
    assert target.exists()


@pytest.mark.parametrize("out", [False, True])
def test_export_curves_of_a_removed_curves_csv_exits_2(runner, tmp_path, out):
    """A run whose manifest lists curves.csv after the file was deleted exits
    2 naming the missing file, with --out or without it."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[1])
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    (tmp_path / "run" / "curves.csv").unlink()
    args = ["export-curves", str(tmp_path / "run")]
    if out:
        args += ["--out", str(tmp_path / "out.csv")]
    result = runner.invoke(main, args)
    assert_clean_exit(result, 2)
    assert (f"error: {tmp_path / 'run' / 'curves.csv'}: listed in the run's "
            f"manifest but missing") in result.stderr
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "run" / "curves.csv").exists()


def test_export_curves_empty_dir_exits_2(runner, tmp_path):
    result = runner.invoke(main, ["export-curves", str(tmp_path)])
    assert result.exit_code == 2
    assert "error:" in result.stderr


def test_export_curves_malformed_log_exits_2(runner, tmp_path, finish_run):
    """A finished run whose manifest lists no curves.csv, as a run written
    before runs saved one, exits 2 naming the missing curves and the config
    whose rerun creates them; its epoch log, malformed here, is not read."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[1], output_dir=str(tmp_path))
    (tmp_path / "seed_1").mkdir()
    (tmp_path / "seed_1" / "epoch_log.csv").write_text("model,epoch,split\n")
    finish_run(tmp_path)
    result = runner.invoke(main, ["export-curves", str(tmp_path)])
    assert_clean_exit(result, 2)
    assert (f"error: {tmp_path / 'curves.csv'}: this run saved no curves; train "
            f"and analyze-noise save them, so rerunning {config_path}") in result.stderr


def test_export_curves_of_an_audit_run_exits_2(runner, tmp_path):
    """audit-labels saves no curves, so exporting its run exits 2 and names
    the missing curves.csv."""
    config_path = tmp_path / "config.yaml"
    write_config(config_path, seeds=[1])
    assert runner.invoke(main, ["audit-labels", str(config_path)]).exit_code == 0
    result = runner.invoke(main, ["export-curves", str(tmp_path / "run"), "--out",
                                  str(tmp_path / "out.csv")])
    assert_clean_exit(result, 2)
    assert f"error: {tmp_path / 'run' / 'curves.csv'}: this run saved no curves" \
        in result.stderr
    assert not (tmp_path / "out.csv").exists()


def test_export_curves_refuses_a_failed_run_exits_2(runner, tmp_path):
    """A diverging rerun removes the earlier run's seed_1 log and metrics.csv;
    its manifest records the failure, and no curves are exported under its
    snapshot."""
    config_path = tmp_path / "config.yaml"
    train = {"num_models": 2, "batch_size": 20, "hidden_sizes": [4], "dropout": 0.0}
    write_config(config_path, seeds=[1], train=train)
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    write_config(config_path, seeds=[1], train={**train, "base_lr": 1e200})
    diverged = runner.invoke(main, ["train", str(config_path)])
    assert diverged.exit_code == 3
    assert "Warning" not in diverged.stderr
    assert not (tmp_path / "run" / "seed_1").exists()
    assert not (tmp_path / "run" / "metrics.csv").exists()
    result = runner.invoke(main, ["export-curves", str(tmp_path / "run")])
    assert_clean_exit(result, 2)
    assert f"error: {tmp_path / 'run' / 'manifest.json'}: the run failed" in result.stderr
    assert not (tmp_path / "run" / "curves.csv").exists()


def test_export_curves_out_directory_exits_2(runner, tmp_path):
    config_path = tmp_path / "config.yaml"
    write_config(config_path)
    assert runner.invoke(main, ["train", str(config_path)]).exit_code == 0
    result = runner.invoke(main, ["export-curves", str(tmp_path / "run"),
                                  "--out", str(tmp_path)])
    assert_clean_exit(result, 2)
    assert str(tmp_path) in result.stderr
