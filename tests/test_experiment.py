import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import coreglab
from coreglab import noiselab
from coreglab.datasets import DataError
from coreglab.experiment import (CURVES_HEADER, EPOCH_LOG_HEADER,
                                 METRICS_HEADER, OUTPUT_ROOT_ENV, ConfigError,
                                 ExperimentConfig, build_task_data,
                                 export_curves, load_config,
                                 _median, resolve_output_dir, run_audit,
                                 run_experiment, run_noise_analysis)


def tiny_mapping(tmp_path, **overrides):
    base = {
        "task": "synthetic",
        "method": "coreg",
        "seeds": [1, 2],
        "output_dir": str(tmp_path / "run"),
        "epochs": 2,
        "data": {"train_size": 60, "dev_size": 20, "test_size": 20,
                 "num_classes": 3, "class_sep": 3.0},
        "train": {"num_models": 2, "batch_size": 32, "hidden_sizes": [4],
                  "dropout": 0.0, "gamma": 1.0, "warmup_pct": 50.0},
    }
    base.update(overrides)
    return base


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------- config


def test_from_mapping_defaults(tmp_path):
    config = ExperimentConfig.from_mapping(tiny_mapping(tmp_path))
    assert config.task == "synthetic"
    assert config.method == "coreg"
    assert config.seeds == (1, 2)
    assert config.train.num_models == 2
    assert config.train.hidden_sizes == (4,)
    assert config.epochs == 2


def test_from_mapping_errors(tmp_path):
    good = tiny_mapping(tmp_path)
    cases = [
        ({**good, "task": "vision"}, "unknown task"),
        ({**good, "method": "distill"}, "unknown method"),
        ({**good, "seeds": []}, "non-empty"),
        ({**good, "seeds": [1, 1]}, "distinct"),
        ({k: v for k, v in good.items() if k != "output_dir"}, "output_dir"),
        ({**good, "typo": 1}, "unknown config keys"),
        ({**good, "train": {"learning_rate": 0.1}}, "unknown train keys"),
        ({**good, "train": {"gamma": -1}}, "train.gamma"),
        ({**good, "train": {"num_models": 1}}, "coreg requires"),
        ({**good, "epochs": 0}, "epochs"),
        ({**good, "noise": {"scheme": "uniform_flip"}}, "rate"),
        ({**good, "noise": {"rate": 0.1, "extra": 2}}, "unknown noise keys"),
        ({**good, "data": {"rows": 5}}, "unknown data keys"),
        ({**good, "baseline": {"momentum": 1}}, "unknown baseline keys"),
        ({**good, "analysis": {"grid": []}}, "unknown analysis keys"),
        ("not a mapping", "mapping"),
        ({**good, "train": None}, "train must be a mapping"),
        ({**good, "data": 5}, "data must be a mapping"),
        ({**good, "noise": 0.3}, "noise must be a mapping"),
        ({**good, "baseline": None}, "baseline must be a mapping"),
        ({**good, "analysis": [1]}, "analysis must be a mapping"),
        ({**good, "train": {"base_lr": 0}}, "base_lr"),
        ({**good, "train": {"dropout": 1.5}}, "dropout"),
        ({**good, "train": {"hidden_sizes": [0]}}, "hidden_sizes"),
        ({**good, "train": {"hidden_sizes": [2.5]}}, "train.hidden_sizes"),
        ({**good, "train": {"batch_size": 2.5}}, "train.batch_size"),
        ({**good, "train": {"num_models": 2.5}}, "train.num_models"),
        ({**good, "train": {"total_steps": 10}}, "unknown train keys: total_steps"),
        ({**good, "train": {"gamma": "x"}}, "train.gamma"),
        ({**good, "epochs": 2.5}, "epochs"),
        ({**good, "baseline": {"delta_max": 150}}, "delta_max"),
        ({**good, "baseline": {"base_weight": 0}}, "base_weight"),
        ({**good, "baseline": {"base_weight": 1.5}}, "base_weight"),
        ({**good, "analysis": {"pool_noise_rate": 1.5}}, "pool_noise_rate"),
        ({**good, "method": "crossweigh", "baseline": {"folds": 61}}, "folds"),
    ]
    for mapping, message in cases:
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_mapping(mapping)


def test_from_mapping_types_train_keys(tmp_path):
    mapping = tiny_mapping(tmp_path, train={"num_models": "3", "gamma": 2,
                                            "batch_size": 16.0, "dropout": 0,
                                            "hidden_sizes": ["8", 4.0]})
    config = ExperimentConfig.from_mapping(mapping).train
    assert (config.num_models, config.batch_size) == (3, 16)
    assert type(config.batch_size) is int
    assert type(config.gamma) is float and config.gamma == 2.0
    assert type(config.dropout) is float
    assert config.hidden_sizes == (8, 4)
    # crossweigh folds only bind the crossweigh method
    ExperimentConfig.from_mapping(tiny_mapping(tmp_path, baseline={"folds": 61}))


def test_plain_method_allows_single_model(tmp_path):
    mapping = tiny_mapping(tmp_path, method="plain",
                           train={"num_models": 1, "hidden_sizes": [4]})
    config = ExperimentConfig.from_mapping(mapping)
    assert config.train.num_models == 1


def test_load_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(tiny_mapping(tmp_path)))
    config = load_config(path)
    assert config.seeds == (1, 2)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("task: [unclosed")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(bad)


def test_resolve_output_dir(tmp_path, monkeypatch):
    absolute = tmp_path / "abs"
    assert resolve_output_dir(str(absolute)) == absolute
    monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path))
    assert resolve_output_dir("rel/run") == tmp_path / "rel" / "run"
    monkeypatch.delenv(OUTPUT_ROOT_ENV)
    assert resolve_output_dir("rel") == resolve_output_dir("./rel")


# ---------------------------------------------------------------- task data


def test_build_task_data_synthetic(tmp_path):
    config = ExperimentConfig.from_mapping(tiny_mapping(tmp_path))
    task = build_task_data(config)
    assert len(task.train) == 60
    assert len(task.dev) == 20
    assert len(task.test) == 20
    assert task.metric_name == "accuracy"
    # dev and test come from disjoint halves of the held-out draw
    dev_keys = {row.tobytes() for row in task.dev.features}
    test_keys = {row.tobytes() for row in task.test.features}
    assert not dev_keys & test_keys


def test_build_task_data_requires_paths(tmp_path):
    mapping = tiny_mapping(tmp_path, task="relation", data={})
    with pytest.raises(ConfigError, match="train_path"):
        build_task_data(ExperimentConfig.from_mapping(mapping))


def test_build_task_data_tagging(tmp_path):
    from coreglab.datasets import gen_tagging_corpus, save_tag_scheme, write_conll
    instances, scheme = gen_tagging_corpus(num_sentences=12, seed=1)
    save_tag_scheme(scheme, tmp_path / "schema.json")
    write_conll(tmp_path / "train.conll", instances[:8], scheme)
    write_conll(tmp_path / "dev.conll", instances[8:10], scheme)
    write_conll(tmp_path / "test.conll", instances[10:], scheme)
    mapping = tiny_mapping(
        tmp_path, task="tagging",
        data={"train_path": str(tmp_path / "train.conll"),
              "dev_path": str(tmp_path / "dev.conll"),
              "test_path": str(tmp_path / "test.conll"),
              "schema_path": str(tmp_path / "schema.json")})
    task = build_task_data(ExperimentConfig.from_mapping(mapping))
    assert task.metric_name == "f1"
    assert task.train.num_classes == len(scheme)
    assert task.vocab is not None
    # all splits share one vocabulary, hence one feature width
    assert task.train.num_features == task.dev.num_features \
        == task.test.num_features


# ---------------------------------------------------------------- runner


def test_run_experiment_layout_and_metrics(tmp_path):
    mapping = tiny_mapping(tmp_path, noise={"rate": 0.2})
    config = ExperimentConfig.from_mapping(mapping)
    scores = run_experiment(config)
    run_dir = tmp_path / "run"

    assert (run_dir / "config.yaml").exists()
    assert (run_dir / "manifest.json").exists()
    for seed in (1, 2):
        assert (run_dir / f"seed_{seed}" / "epoch_log.csv").exists()
        assert (run_dir / f"seed_{seed}" / "model.npz").exists()
        assert (run_dir / f"seed_{seed}" / "flips.csv").exists()

    rows = read_csv(run_dir / "metrics.csv")
    assert rows[0] == METRICS_HEADER
    body = rows[1:]
    # one row per seed per split plus a median row per split
    assert len(body) == 2 * 2 + 2
    by_split = {}
    for seed, split, metric, value in body:
        assert metric == "accuracy"
        by_split.setdefault(split, {})[seed] = float(value)
    for split in ("dev", "test"):
        values = [by_split[split]["1"], by_split[split]["2"]]
        assert by_split[split]["median"] == pytest.approx(np.median(values))
    # The returned rows are metrics.csv's.
    assert [[str(value) for value in row] for row in scores] == body

    saved = json.loads((run_dir / "manifest.json").read_text())
    assert saved["failure"] is None
    assert saved["config_hash"]
    assert "seed_1/epoch_log.csv" in saved["artifacts"]

    log_rows = read_csv(run_dir / "seed_1" / "epoch_log.csv")
    assert log_rows[0] == EPOCH_LOG_HEADER
    models_seen = {row[0] for row in log_rows[1:]}
    assert models_seen == {"0", "1"}
    epochs_seen = {int(row[1]) for row in log_rows[1:]}
    assert epochs_seen == {0, 1}


def test_curves_hold_the_policy_pick_of_each_epoch_log(tmp_path):
    # Per epoch the log holds one dev row per model in model order, and
    # curves.csv the score of the policy's pick among them.
    for policy in ("first", "best_dev"):
        mapping = tiny_mapping(
            tmp_path, seeds=[4], epochs=3, output_dir=str(tmp_path / policy),
            train={"num_models": 3, "batch_size": 32, "hidden_sizes": [4],
                   "selection_policy": policy})
        run_experiment(ExperimentConfig.from_mapping(mapping))
        rows = read_csv(tmp_path / policy / "seed_4" / "epoch_log.csv")[1:]
        assert [(row[0], row[1]) for row in rows] == [
            (model, str(epoch)) for epoch in range(3) for model in ("0", "1", "2")]
        assert {(row[2], row[3]) for row in rows} == {("dev", "accuracy")}
        picks = []
        for epoch in range(3):
            values = [row[4] for row in rows[3 * epoch:3 * epoch + 3]]
            picks.append(values[0] if policy == "first"
                         else max(values, key=float))
        assert [row[6] for row in read_csv(tmp_path / policy / "curves.csv")[1:]] == picks


@pytest.mark.parametrize("method, policy", [
    ("coreg", "best_dev"), ("coreg", "first"), ("crossweigh", "first")])
def test_final_dev_score_is_the_selected_models_best(tmp_path, method, policy):
    """The selected model is restored to its best dev checkpoint, so each
    seed's dev value in metrics.csv is, as written, the highest epoch_log.csv
    value of the model the policy picks: the best over all models under
    best_dev, model 0's best under first. With dropout on and noisy dev
    labels, the best epoch is not always the last one."""
    mapping = tiny_mapping(
        tmp_path, method=method, seeds=[1, 2, 3], epochs=5, noise={"rate": 0.3},
        data={"train_size": 90, "dev_size": 60, "test_size": 20,
              "num_classes": 3, "class_sep": 1.5},
        train={"num_models": 3 if method == "coreg" else 1, "batch_size": 16,
               "hidden_sizes": [8], "dropout": 0.1, "gamma": 1.0,
               "selection_policy": policy},
        baseline={"folds": 2, "iterations": 1})
    run_experiment(ExperimentConfig.from_mapping(mapping))
    run = tmp_path / "run"
    dev = {row[0]: row[3] for row in read_csv(run / "metrics.csv")[1:]
           if row[1] == "dev"}
    for seed in ("1", "2", "3"):
        rows = read_csv(run / f"seed_{seed}" / "epoch_log.csv")[1:]
        picked = [row[4] for row in rows if policy == "best_dev" or row[0] == "0"]
        assert dev[seed] == max(picked, key=float)


def test_run_experiment_median_of_five(tmp_path):
    mapping = tiny_mapping(tmp_path, seeds=[1, 2, 3, 4, 5], epochs=1,
                           data={"train_size": 40, "dev_size": 12,
                                 "test_size": 12, "num_classes": 2})
    run_experiment(ExperimentConfig.from_mapping(mapping))
    rows = read_csv(tmp_path / "run" / "metrics.csv")[1:]
    test_values = sorted(float(v) for s, split, _, v in rows
                         if split == "test" and s != "median")
    median = [float(v) for s, split, _, v in rows
              if split == "test" and s == "median"][0]
    assert len(test_values) == 5
    assert median == test_values[2]


# A train run in a fresh interpreter, which then prints whether numpy.ma was
# ever imported.
TRAIN_THEN_REPORT_MA = """
import sys
from coreglab.cli import main
main(["train", sys.argv[1]], standalone_mode=False)
print("numpy.ma" in sys.modules)
"""


def _train_in_child(tmp_path, mapping) -> str:
    """The last line a fresh interpreter prints after training ``mapping``."""
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(mapping))
    paths = (str(Path(coreglab.__file__).parent.parent), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    child = subprocess.run([sys.executable, "-c", TRAIN_THEN_REPORT_MA, str(path)],
                           env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    return child.stdout.splitlines()[-1]


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_train_takes_medians_without_numpy_ma(tmp_path):
    """np.median imports numpy.ma, which costs every train run about 10 ms
    and 0.5 MiB; the median rows keep the bytes it gave."""
    assert _train_in_child(tmp_path, tiny_mapping(tmp_path)) == "False"
    assert (_digest(tmp_path / "run" / "metrics.csv")
            == "fba069ab0d46b65876e4fd358b389f56aed2717870f490cfeb3c01e89f46c566")


def test_crossweigh_folds_without_numpy_ma(tmp_path):
    """np.setdiff1d imports numpy.ma through np.unique, which cost every
    crossweigh train run about 15 ms; its fold rows, built by a mask, keep
    the weights it gave."""
    mapping = tiny_mapping(tmp_path, method="crossweigh",
                           train={"num_models": 1, "batch_size": 32, "hidden_sizes": [4],
                                  "dropout": 0.0, "warmup_pct": 50.0})
    assert _train_in_child(tmp_path, mapping) == "False"
    assert (_digest(tmp_path / "run" / "seed_1" / "weights.csv")
            == "5caacd9c70a3ae4060c275f84c5bf8d0754a6a02173585e7da08642a94ffbad6")
    assert (_digest(tmp_path / "run" / "seed_2" / "weights.csv")
            == "eb757bfad9ff8ef318977e46c60d17cab446cf11302cf49b1476be1a8b00b34c")


def test_median_rows_equal_numpy_median():
    """The middle sorted value, or the two middle ones summed and halved, is
    np.median to the last bit, for 1 to 6 values."""
    rng = np.random.default_rng(0)
    for size in range(1, 7):
        for _ in range(200):
            values = rng.random(size).tolist()
            assert repr(_median(values)) == repr(float(np.median(values)))


def test_run_experiment_rerun_byte_identical(tmp_path):
    mapping_a = tiny_mapping(tmp_path, output_dir=str(tmp_path / "a"),
                             noise={"rate": 0.25})
    mapping_b = tiny_mapping(tmp_path, output_dir=str(tmp_path / "b"),
                             noise={"rate": 0.25})
    run_experiment(ExperimentConfig.from_mapping(mapping_a))
    run_experiment(ExperimentConfig.from_mapping(mapping_b))
    # config.yaml embeds the differing output_dir, so compare data files only
    for rel in ("metrics.csv", "seed_1/epoch_log.csv", "seed_2/epoch_log.csv",
                "seed_1/flips.csv"):
        a = (tmp_path / "a" / rel).read_bytes()
        b = (tmp_path / "b" / rel).read_bytes()
        assert a == b, rel


@pytest.mark.parametrize("method", ["plain", "small_loss", "relabel",
                                    "crossweigh"])
def test_run_experiment_methods(tmp_path, method):
    mapping = tiny_mapping(
        tmp_path, method=method, seeds=[3], epochs=1,
        output_dir=str(tmp_path / method),
        data={"train_size": 40, "dev_size": 10, "test_size": 10,
              "num_classes": 2},
        train={"num_models": 1, "batch_size": 20, "hidden_sizes": [4],
               "dropout": 0.0},
        baseline={"folds": 2, "iterations": 1, "delta_max": 10.0})
    run_experiment(ExperimentConfig.from_mapping(mapping))
    run_dir = tmp_path / method
    assert json.loads((run_dir / "manifest.json").read_text())["failure"] is None
    assert (run_dir / "seed_3" / "model.npz").exists()
    if method == "crossweigh":
        weight_rows = read_csv(run_dir / "seed_3" / "weights.csv")
        assert weight_rows[0] == ["id", "weight"]
        assert len(weight_rows) == 41


def test_run_experiment_crossweigh_best_dev(tmp_path):
    # The fold models have no dev set; best_dev applies to the final fit only,
    # so the fold weights are those of the default policy.
    runs = {}
    for policy in ("first", "best_dev"):
        mapping = tiny_mapping(
            tmp_path, method="crossweigh", seeds=[3], epochs=2,
            output_dir=str(tmp_path / policy),
            train={"num_models": 1, "batch_size": 20, "hidden_sizes": [4],
                   "dropout": 0.0, "selection_policy": policy},
            baseline={"folds": 2, "iterations": 1})
        run_experiment(ExperimentConfig.from_mapping(mapping))
        manifest = json.loads((tmp_path / policy / "manifest.json").read_text())
        assert manifest["failure"] is None
        runs[policy] = tmp_path / policy / "seed_3"
    assert (runs["best_dev"] / "model.npz").exists()
    assert (runs["best_dev"] / "weights.csv").read_bytes() == \
        (runs["first"] / "weights.csv").read_bytes()


def test_run_experiment_failure_recorded(tmp_path):
    mapping = tiny_mapping(tmp_path, task="relation",
                           output_dir=str(tmp_path / "fail"),
                           data={"train_path": str(tmp_path / "nope.jsonl"),
                                 "dev_path": str(tmp_path / "nope.jsonl"),
                                 "test_path": str(tmp_path / "nope.jsonl"),
                                 "schema_path": str(tmp_path / "nope.json")})
    config = ExperimentConfig.from_mapping(mapping)
    with pytest.raises(Exception):
        run_experiment(config)
    saved = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert saved["failure"] is not None


# ---------------------------------------------------------------- analysis


def test_run_noise_analysis_layout(tmp_path):
    mapping = tiny_mapping(
        tmp_path, seeds=[1, 2], output_dir=str(tmp_path / "noise"),
        analysis={"gammas": [0.0, 5.0], "pool_size": 40,
                  "pool_noise_rate": 0.5, "epochs": 2})
    curves = run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    assert curves == tmp_path / "noise" / "curves.csv"
    rows = read_csv(curves)
    assert rows[0] == CURVES_HEADER
    assert [tuple(row[:5]) for row in rows[1:]] == [
        ("coreg", gamma, seed, epoch, "clean") for gamma in ("0.0", "5.0")
        for seed in ("1", "2") for epoch in ("0", "1")]
    assert {row[5] for row in rows[1:]} == {"accuracy"}


def test_run_noise_analysis_keeps_one_record_of_each_curve(tmp_path):
    """An analysis run holds its config, manifest, curves.csv and, with
    noise, each seed's flips.csv, and nothing else. The curves' bytes are
    pinned: the pool is the next data seed's mixture draw and each curve
    model 0's clean-set score, one per distinct gamma."""
    mapping = tiny_mapping(
        tmp_path, seeds=[1, 2], output_dir=str(tmp_path / "noise"),
        noise={"rate": 0.25},
        analysis={"gammas": [1, 0, 1], "pool_size": 40, "epochs": 2})
    curves = run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    run_dir = tmp_path / "noise"
    files = ["config.yaml", "curves.csv", "manifest.json", "seed_1/flips.csv",
             "seed_2/flips.csv"]
    assert sorted(path.relative_to(run_dir).as_posix() for path in run_dir.rglob("*")
                  if path.is_file()) == files
    assert sorted(json.loads((run_dir / "manifest.json").read_text())["artifacts"]) == files
    assert hashlib.sha256(curves.read_bytes()).hexdigest() == \
        "489e1fe083823696aa3b89952cc3d25c95351236d4f2cac4bcf711254f7b662a"


def test_run_noise_analysis_trains_whole_grid_per_seed(tmp_path, monkeypatch):
    """One noise_overfit_eval call per seed, over the whole gamma grid, on
    the pool and the seed's own flip mask of it."""
    calls, inputs, masks = [], [], []
    original = noiselab.noise_overfit_eval
    original_inject = noiselab.inject_noise

    def counting(train_set, pool, mask, gammas, *args, **kwargs):
        calls.append(list(gammas))
        inputs.append((pool, mask))
        return original(train_set, pool, mask, gammas, *args, **kwargs)

    def recording(dataset, spec):
        noisy, mask = original_inject(dataset, spec)
        masks.append((dataset, mask))
        return noisy, mask

    monkeypatch.setattr(noiselab, "noise_overfit_eval", counting)
    monkeypatch.setattr(noiselab, "inject_noise", recording)
    mapping = tiny_mapping(
        tmp_path, seeds=[1, 2], output_dir=str(tmp_path / "noise"),
        analysis={"gammas": [0.0, 1.0, 5.0], "pool_size": 40, "epochs": 2})
    run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    assert calls == [[0.0, 1.0, 5.0], [0.0, 1.0, 5.0]]
    assert len(masks) == 2  # no training noise: one pool mask per seed
    for (pool, mask), (drawn_from, drawn) in zip(inputs, masks, strict=True):
        assert pool is drawn_from and mask is drawn and len(pool) == 40
    assert [len(mask) for _, mask in masks] == [math.floor(0.5 * 40)] * 2
    assert _curve_keys(tmp_path / "noise" / "curves.csv") == [
        (gamma, seed, epoch) for gamma in ("0.0", "1.0", "5.0") for seed in ("1", "2")
        for epoch in ("0", "1")]


def test_run_noise_analysis_synthetic_only(tmp_path):
    mapping = tiny_mapping(tmp_path, task="tagging",
                           data={"train_path": "x", "dev_path": "x",
                                 "test_path": "x", "schema_path": "x"})
    with pytest.raises(ConfigError, match="synthetic"):
        run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    # The task is checked before anything is written.
    assert not (tmp_path / "run").exists()


def test_run_audit_with_noise(tmp_path):
    mapping = tiny_mapping(tmp_path, seeds=[7],
                           output_dir=str(tmp_path / "audit"),
                           noise={"rate": 0.25})
    report, score = run_audit(ExperimentConfig.from_mapping(mapping))
    assert report.exists()
    rows = read_csv(report)
    assert rows[0] == ["id", "label", "prediction", "flagged", "agreement_kl",
                       "sup_loss"]
    assert len(rows) == 61
    assert score is not None and 0.0 <= score <= 1.0
    assert (tmp_path / "audit" / "flips.csv").exists()


def test_run_audit_without_noise(tmp_path):
    mapping = tiny_mapping(tmp_path, seeds=[7],
                           output_dir=str(tmp_path / "audit2"))
    report, score = run_audit(ExperimentConfig.from_mapping(mapping))
    assert report.exists()
    assert score is None


# ---------------------------------------------------------------- curves


def test_export_curves_values_verbatim(tmp_path):
    mapping = tiny_mapping(tmp_path)
    run_experiment(ExperimentConfig.from_mapping(mapping))
    run_dir = tmp_path / "run"
    curves = export_curves(run_dir)
    curve_rows = read_csv(curves)
    assert curve_rows[0] == CURVES_HEADER

    # The policy is "first", so each epoch's value is model 0's.
    expected = []
    for seed in (1, 2):
        for row in read_csv(run_dir / f"seed_{seed}" / "epoch_log.csv")[1:]:
            if row[0] == "0":
                expected.append(("coreg", "1.0", str(seed), row[1], row[2],
                                 row[3], row[4]))
    assert [tuple(r) for r in curve_rows[1:]] == expected


def test_export_curves_sorted_by_gamma_then_seed(tmp_path):
    mapping = tiny_mapping(
        tmp_path, seeds=[2, 1], output_dir=str(tmp_path / "noise"),
        analysis={"gammas": [5.0, 0.0], "pool_size": 40, "epochs": 1})
    curves = run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    rows = read_csv(curves)[1:]
    keys = [(float(r[1]), int(r[2])) for r in rows]
    assert keys == sorted(keys)


GOOD_LOG = ",".join(EPOCH_LOG_HEADER) + "\n0,0,dev,accuracy,0.5\n"


def test_export_curves_errors(tmp_path, finish_run):
    """A directory without a manifest, a failed run, and a finished run whose
    manifest lists no curves.csv (as a run written before runs saved one)
    are DataErrors naming the file; a curves.csv that the manifest does not
    list is not copied."""
    with pytest.raises(DataError, match=r"manifest\.json: missing"):
        export_curves(tmp_path)
    run = tmp_path / "older"
    (run / "seed_1").mkdir(parents=True)
    (run / "config.yaml").write_text(yaml.safe_dump(tiny_mapping(tmp_path, seeds=[1])))
    (run / "seed_1" / "epoch_log.csv").write_text(GOOD_LOG)
    finish_run(run)
    older = r"older/curves\.csv: this run saved no curves.*older/config\.yaml"
    with pytest.raises(DataError, match=older):
        export_curves(run, out_path=tmp_path / "out.csv")
    (run / "curves.csv").write_text(",".join(CURVES_HEADER) + "\n")
    with pytest.raises(DataError, match=older):
        export_curves(run, out_path=tmp_path / "out.csv")
    finish_run(run)  # curves.csv is listed now, but the manifest records a failure
    manifest = json.loads((run / "manifest.json").read_text())
    (run / "manifest.json").write_text(json.dumps({**manifest, "failure": "incomplete"}))
    with pytest.raises(DataError, match=r"the run failed, so it has no curves: incomplete"):
        export_curves(run, out_path=tmp_path / "out.csv")
    assert not (tmp_path / "out.csv").exists()


def _curve_keys(path) -> list:
    """The (gamma, seed, epoch) of each curves.csv row."""
    return [(row[1], row[2], row[3]) for row in read_csv(path)[1:]]


def test_export_curves_reads_only_the_configured_seeds(tmp_path):
    """A rerun with fewer seeds into the same directory removes the dropped
    seed's subtree, and the curves.csv it saves holds its own seeds alone."""
    run_experiment(ExperimentConfig.from_mapping(tiny_mapping(tmp_path, seeds=[1, 2])))
    run_experiment(ExperimentConfig.from_mapping(tiny_mapping(tmp_path, seeds=[1])))
    assert not (tmp_path / "run" / "seed_2").exists()
    assert _curve_keys(export_curves(tmp_path / "run")) == [
        ("1.0", "1", "0"), ("1.0", "1", "1")]


def test_noise_analysis_curves_hold_only_the_configured_gammas(tmp_path):
    """After a rerun over fewer gammas, the rerun's curves and a later export
    hold the configured gammas alone."""
    for gammas in ([0, 1, 5], [0, 1]):
        mapping = tiny_mapping(tmp_path, seeds=[1], analysis={
            "gammas": gammas, "pool_size": 40, "epochs": 1})
        curves = run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    expected = [("0.0", "1", "0"), ("1.0", "1", "0")]
    assert _curve_keys(curves) == expected
    text = curves.read_text()
    assert export_curves(tmp_path / "run").read_text() == text


def test_export_curves_of_a_training_after_a_noise_analysis(tmp_path):
    """A training into a noise analysis's directory saves its own curves
    alone: the analysis's gamma 1.0 curves do not double the training's
    gamma 1.0."""
    mapping = tiny_mapping(tmp_path, seeds=[1], analysis={
        "gammas": [0, 1], "pool_size": 40, "epochs": 1})
    run_noise_analysis(ExperimentConfig.from_mapping(mapping))
    run_experiment(ExperimentConfig.from_mapping(tiny_mapping(tmp_path, seeds=[1])))
    curves = export_curves(tmp_path / "run")
    assert _curve_keys(curves) == [("1.0", "1", "0"), ("1.0", "1", "1")]


def test_export_curves_custom_out(tmp_path):
    mapping = tiny_mapping(tmp_path, seeds=[1], epochs=1)
    run_experiment(ExperimentConfig.from_mapping(mapping))
    target = tmp_path / "elsewhere.csv"
    result = export_curves(tmp_path / "run", out_path=target)
    assert result == target
    assert target.exists()


@pytest.mark.parametrize("spelling", ["curves.csv", "seed_1/../curves.csv"])
def test_export_curves_lists_the_runs_curves_csv_however_spelled(tmp_path, spelling):
    """An out_path naming the run's own curves.csv, however spelled, names
    the file that the run saved and listed: export_curves returns it and
    changes no file in the run, manifest.json included."""
    run = tmp_path / "run"
    run_experiment(ExperimentConfig.from_mapping(tiny_mapping(tmp_path, epochs=1)))
    assert "curves.csv" in json.loads((run / "manifest.json").read_text())["artifacts"]
    before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
    assert export_curves(run, out_path=run / spelling) == run / spelling
    assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("name", ["seed_1/epoch_log.csv", "other.csv", "."])
def test_export_curves_refuses_other_targets_inside_the_run(tmp_path, name):
    """Inside the run directory export-curves writes nothing: any other
    target than the run's curves.csv is a DataError that changes no file,
    and the run's curves still export."""
    run = tmp_path / "run"
    run_experiment(ExperimentConfig.from_mapping(tiny_mapping(tmp_path, epochs=1)))
    before = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
    with pytest.raises(DataError, match="inside the run directory"):
        export_curves(run, out_path=run / name)
    assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == before
    assert len(read_csv(export_curves(run))) == 1 + 2 * 1
