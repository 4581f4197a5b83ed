"""Experiment plumbing: structured run configs, the per-seed experiment
runner with CSV/manifest emission, the noise-analysis protocol driver, the
label audit, and the long-format curve exporter.

Run directory layout:
  config.yaml                  canonical config snapshot (hashed in manifest)
  manifest.json                config hash, metric rows, wall clock, artifacts
  metrics.csv                  final metric per seed per split + median rows
  seed_<s>/epoch_log.csv       per-epoch metrics (one row per model + "selected")
  seed_<s>/model.npz           selected model at its best checkpoint
  seed_<s>/flips.csv           injected-noise mask (when noise is configured)
  gamma_<g>/seed_<s>/...       noise-analysis runs, one subtree per gamma
"""

import csv
import hashlib
import math
import os
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import baselines, datasets, noiselab, trainer
from . import models as mdl
from . import rng as rngmod
from .schema import ConfigError, Key, check, check_block

OUTPUT_ROOT_ENV = "COREGLAB_OUTPUT_ROOT"

EPOCH_LOG_HEADER = ["model", "epoch", "split", "metric", "value"]
METRICS_HEADER = ["seed", "split", "metric", "value"]
CURVES_HEADER = ["method", "gamma", "seed", "epoch", "split", "metric", "value"]


# The config's analysis block; epochs left out takes the top-level epochs.
ANALYSIS_KEYS = {"gammas": Key([float], (0.0, 1.0, 5.0, 20.0), least=0, nonempty=True),
                 "pool_size": Key(int, 600, least=1),
                 "pool_noise_rate": Key(float, 0.5, least=0, most=1, open_most=True),
                 "epochs": Key(int, least=1)}
# The top-level keys; data is checked against its task's table once the
# task is known.
TOP_KEYS = {"task": Key(datasets.TASKS, "synthetic"),
            "method": Key(("coreg", "plain", "small_loss", "relabel", "crossweigh"), "coreg"),
            "seeds": Key([int], required=True, nonempty=True),
            "output_dir": Key(str, required=True), "epochs": Key(int, 30, least=1),
            "data": Key(dict, {}), "train": Key(trainer.TRAIN_KEYS, {}),
            "noise": Key(noiselab.NOISE_KEYS), "baseline": Key(baselines.BASELINE_KEYS, {}),
            "analysis": Key(ANALYSIS_KEYS, {})}


def _check_confusion(noise: dict, num_classes: int) -> None:
    """A class_conditional confusion table needs one row per class."""
    if any(spec.scheme == "class_conditional" and len(spec.confusion) != num_classes
           for spec in noise.values()):
        raise ConfigError(f"noise.confusion must be {num_classes}x{num_classes} "
                          f"for the data's {num_classes} classes")


def _check_folds(method: str, baseline: dict, n_train: int) -> None:
    """Crossweigh needs at least one training row per fold."""
    if method == "crossweigh" and baseline["folds"] > n_train:
        raise ConfigError(f"baseline.folds ({baseline['folds']}) exceeds the "
                          f"{n_train} training rows")


@dataclass
class ExperimentConfig:
    """Everything a run needs; ``raw`` keeps the parsed mapping so the run
    directory snapshot reflects the config as given. ``data``, ``baseline``
    and ``analysis`` hold every key of their table, typed and defaulted;
    ``noise`` maps each run seed to its NoiseSpec, and is empty without
    noise."""

    task: str
    method: str
    seeds: tuple[int, ...]
    output_dir: str
    train: trainer.TrainConfig
    epochs: int
    data: dict
    noise: dict
    baseline: dict
    analysis: dict
    raw: dict

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        top = check_block("config", raw, TOP_KEYS)
        task, method, seeds, epochs = (top[key] for key in
                                       ("task", "method", "seeds", "epochs"))
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")
        train = trainer.TrainConfig(**top["train"])
        if method == "coreg" and train.num_models < 2:
            raise ConfigError("coreg requires train.num_models >= 2")
        data = check_block("data", top["data"], datasets.DATA_KEYS[task],
                           f" for the {task} task")
        noise = {}
        if top["noise"] is not None:
            for seed in seeds:
                spec = dict(top["noise"])
                if spec["seed"] is None:
                    spec["seed"] = rngmod.substream_seed(seed, "noise")
                noise[seed] = noiselab.NoiseSpec(**spec)
        analysis = top["analysis"]
        if analysis["epochs"] is None:
            analysis["epochs"] = epochs
        if task == "synthetic":
            _check_confusion(noise, data["num_classes"])
            _check_folds(method, top["baseline"], data["train_size"])
        return cls(task, method, seeds, top["output_dir"], train, epochs, data, noise,
                   top["baseline"], analysis, raw)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return ExperimentConfig.from_mapping(raw)


def resolve_output_dir(output_dir: str) -> Path:
    """Relative output directories land under the output-root environment
    variable (default: current directory)."""
    path = Path(output_dir)
    if path.is_absolute():
        return path
    return Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / path


@dataclass
class TaskData:
    train: datasets.LabeledDataset
    dev: datasets.LabeledDataset
    test: datasets.LabeledDataset
    metric_name: str
    metric_fn: object
    vocab: object = None


def build_task_data(config: ExperimentConfig) -> TaskData:
    data = config.data
    schema = vocab = None
    if config.task == "synthetic":
        train, dev, test = datasets.mixture_splits(**data)
    else:
        schema = datasets.load_schema(config.task, data["schema_path"])
        splits = []
        for split in ("train", "dev", "test"):
            dataset, vocab = datasets.load_split(config.task, data[f"{split}_path"],
                                                 schema, vocab, window=data.get("window"))
            splits.append(dataset)
        train, dev, test = splits
        if len(train) == 0:
            raise datasets.DataError(f"{data['train_path']}: empty training split")
        _check_confusion(config.noise, train.num_classes)
        _check_folds(config.method, config.baseline, len(train))
    name, fn = datasets.make_metric(config.task, schema=schema)
    return TaskData(train, dev, test, name, fn, vocab=vocab)


def _steps_per_epoch(n: int, batch_size: int) -> int:
    return max(1, math.ceil(n / batch_size))


def _resolved_train_config(config: ExperimentConfig, seed: int,
                           n_train: int) -> trainer.TrainConfig:
    tcfg = replace(config.train, master_seed=seed)
    if tcfg.total_steps == 0:
        tcfg = replace(tcfg, total_steps=config.epochs
                       * _steps_per_epoch(n_train, tcfg.batch_size))
    return tcfg


def _write_epoch_log(path, rows) -> None:
    formatted = [(model, epoch, split, metric, repr(value))
                 for model, epoch, split, metric, value in rows]
    datasets.write_csv(path, EPOCH_LOG_HEADER, formatted)


def _dev_rows(result: trainer.TrainResult, metric_name: str) -> list[tuple]:
    """Epoch-log rows of a training's dev scores: per epoch one row per
    model, then a "selected" row with the selection policy's pick."""
    rows = []
    for epoch, values in enumerate(result.dev_scores.tolist()):
        rows += [(str(k), epoch, "dev", metric_name, v) for k, v in enumerate(values)]
        chosen = trainer.select_index(values, result.config.selection_policy,
                                      len(values))
        rows.append(("selected", epoch, "dev", metric_name, values[chosen]))
    return rows


def _open_run(config: ExperimentConfig) -> tuple[Path, str]:
    """Create the run directory and snapshot the config into it; returns the
    directory and the snapshot's SHA-256."""
    run_dir = resolve_output_dir(config.output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    text = yaml.safe_dump(config.raw, sort_keys=True)
    (run_dir / "config.yaml").write_text(text)
    return run_dir, hashlib.sha256(text.encode()).hexdigest()


def _run_method(config: ExperimentConfig, tcfg: trainer.TrainConfig,
                train_set, dev_set, task: TaskData, seed_dir: Path):
    """Dispatch one seed's training according to the configured method."""
    metric = task.metric_fn
    if config.method == "coreg":
        return trainer.train(train_set, dev_set, tcfg, eval_metric=metric)
    if config.method == "plain":
        return baselines.train_plain(train_set, dev_set, tcfg, eval_metric=metric)
    if config.method in ("small_loss", "relabel"):
        sched = baselines.PruneSchedule(config.baseline["delta_max"], tcfg.total_steps)
        hook = (baselines.make_small_loss_hook(sched)
                if config.method == "small_loss"
                else baselines.make_relabel_hook(sched))
        return trainer.train(train_set, dev_set, replace(tcfg, gamma=0.0),
                             batch_hook=hook, eval_metric=metric)
    folds = config.baseline["folds"]
    n = len(train_set)
    fold_train = n - math.ceil(n / folds)
    fold_steps = max(1, config.epochs * _steps_per_epoch(fold_train, tcfg.batch_size))
    weights = baselines.crossweigh_weights(
        train_set, folds, config.baseline["iterations"],
        replace(tcfg, total_steps=fold_steps), config.baseline["base_weight"])
    weights.save_csv(seed_dir / "weights.csv")
    return baselines.train_plain(train_set, dev_set, tcfg, weights=weights,
                                 eval_metric=metric)


@dataclass
class RunManifest:
    config_hash: str
    metric_rows: list
    wall_clock_sec: float
    artifacts: list
    failure: str | None = None

    def save(self, path) -> None:
        datasets.write_json(path, {**asdict(self), "artifacts": sorted(self.artifacts)})


def run_experiment(config: ExperimentConfig) -> RunManifest:
    """Per seed: build data, optionally inject noise, train the configured
    method, log per-epoch metrics, and score the selected model on dev and
    test; finally write metrics.csv (with median rows) and the manifest."""
    started = time.monotonic()
    run_dir, config_hash = _open_run(config)
    manifest = RunManifest(config_hash, [], 0.0, ["config.yaml", "metrics.csv"])
    try:
        task = build_task_data(config)
        if task.vocab is not None:
            datasets.save_vocab(task.vocab, run_dir / "vocab.json")
            manifest.artifacts.append("vocab.json")
        per_split: dict[str, list[float]] = {"dev": [], "test": []}
        for seed in config.seeds:
            seed_dir = run_dir / f"seed_{seed}"
            seed_dir.mkdir(parents=True, exist_ok=True)
            train_set = task.train
            dev_set = task.dev
            spec = config.noise.get(seed)
            if spec is not None:
                train_set, mask = noiselab.inject_noise(train_set, spec)
                mask.save_csv(seed_dir / "flips.csv")
                manifest.artifacts.append(f"seed_{seed}/flips.csv")
                # Model selection must not peek at clean labels: the
                # dev split is drawn from the same noisy labeling process.
                dev_spec = replace(spec,
                                   seed=rngmod.substream_seed(spec.seed, "dev"))
                dev_set, _ = noiselab.inject_noise(dev_set, dev_spec)
            tcfg = _resolved_train_config(config, seed, len(train_set))
            result = _run_method(config, tcfg, train_set, dev_set, task,
                                 seed_dir)
            _write_epoch_log(seed_dir / "epoch_log.csv",
                             _dev_rows(result, task.metric_name))
            manifest.artifacts.append(f"seed_{seed}/epoch_log.csv")
            if config.method == "crossweigh":
                manifest.artifacts.append(f"seed_{seed}/weights.csv")
            model = result.selected_model()
            mdl.save_model(model, seed_dir / "model.npz")
            manifest.artifacts.append(f"seed_{seed}/model.npz")
            for split, split_set in (("dev", dev_set), ("test", task.test)):
                value = float(task.metric_fn(split_set,
                                             mdl.predict(model, split_set.features)))
                per_split[split].append(value)
                manifest.metric_rows.append(
                    {"seed": seed, "split": split, "metric": task.metric_name,
                     "value": value})
        csv_rows = [(row["seed"], row["split"], row["metric"], repr(row["value"]))
                    for row in manifest.metric_rows]
        for split in ("dev", "test"):
            median = float(np.median(per_split[split]))
            manifest.metric_rows.append(
                {"seed": "median", "split": split, "metric": task.metric_name,
                 "value": median})
            csv_rows.append(("median", split, task.metric_name, repr(median)))
        datasets.write_csv(run_dir / "metrics.csv", METRICS_HEADER, csv_rows)
    except Exception as exc:
        manifest.failure = f"{type(exc).__name__}: {exc}"
        manifest.wall_clock_sec = time.monotonic() - started
        manifest.save(run_dir / "manifest.json")
        raise
    manifest.wall_clock_sec = time.monotonic() - started
    manifest.artifacts.append("manifest.json")
    manifest.save(run_dir / "manifest.json")
    return manifest


def run_noise_analysis(config: ExperimentConfig) -> Path:
    """Noise-overfit protocol over a gamma grid: per seed, flip a pool's
    labels, train on train + the flipped rows with their noisy labels for
    each gamma, and log the metric on the same rows with their original
    labels per epoch. Emits curves.csv in the long format."""
    if config.task != "synthetic":
        raise ConfigError("analyze-noise supports the synthetic task")
    analysis = config.analysis
    # Uniform flips change every chosen row, so this is the clean set's size.
    if math.floor(analysis["pool_noise_rate"] * analysis["pool_size"]) < 1:
        raise ConfigError("analysis.pool_noise_rate x analysis.pool_size flips no "
                          "pool row, so the clean set would be empty")
    run_dir, _ = _open_run(config)
    task = build_task_data(config)
    # The pool is a second draw of the same mixture, on the next data seed.
    pool, _, _ = datasets.mixture_splits(**{
        **config.data, "train_size": analysis["pool_size"], "dev_size": 1,
        "test_size": 0, "data_seed": config.data["data_seed"] + 1})
    for seed in config.seeds:
        train_set = task.train
        spec = config.noise.get(seed)
        if spec is not None:
            train_set, _ = noiselab.inject_noise(train_set, spec)
        pool_spec = noiselab.NoiseSpec(
            rate=analysis["pool_noise_rate"], seed=rngmod.substream_seed(seed, "noise"))
        _, mask = noiselab.inject_noise(pool, pool_spec)
        flipped = pool.features[mask.indices]
        noisy_set = datasets.LabeledDataset(flipped, mask.noisy_labels, pool.num_classes)
        clean_set = datasets.LabeledDataset(flipped, mask.original_labels,
                                            pool.num_classes)
        union_n = len(train_set) + len(noisy_set)
        base = replace(config.train, master_seed=seed,
                       total_steps=analysis["epochs"] * _steps_per_epoch(
                           union_n, config.train.batch_size))
        curves = {}  # repr(gamma) -> {epoch: clean-set value}
        for gamma, epoch, value in noiselab.noise_overfit_eval(
                train_set, noisy_set, clean_set, analysis["gammas"], base,
                eval_metric=task.metric_fn):
            curves.setdefault(repr(gamma), {})[epoch] = value
        for gamma, curve in curves.items():
            seed_dir = run_dir / f"gamma_{gamma}" / f"seed_{seed}"
            seed_dir.mkdir(parents=True, exist_ok=True)
            _write_epoch_log(
                seed_dir / "epoch_log.csv",
                [("selected", epoch, "clean", task.metric_name, value)
                 for epoch, value in curve.items()])
    return export_curves(run_dir)


def run_audit(config: ExperimentConfig):
    """Train on the (noise-injected) training set with the first seed, rank
    instances by the suspect-label report, and score how well the ranking
    recovers the injected flips. Returns (report path, AUROC or None)."""
    run_dir, _ = _open_run(config)
    task = build_task_data(config)
    seed = config.seeds[0]
    train_set = task.train
    mask = None
    spec = config.noise.get(seed)
    if spec is not None:
        train_set, mask = noiselab.inject_noise(train_set, spec)
        mask.save_csv(run_dir / "flips.csv")
    tcfg = _resolved_train_config(config, seed, len(train_set))
    result = trainer.train(train_set, task.dev, tcfg, eval_metric=task.metric_fn)
    rows = noiselab.disagreement_report(result.ensemble, train_set, tcfg)
    report_path = run_dir / "audit.csv"
    noiselab.save_suspect_csv(rows, report_path)
    score = None
    if mask is not None and 0 < len(mask) < len(train_set):
        sup = np.array([r.sup_loss for r in rows])
        ids = np.array([r.instance_id for r in rows])
        flags = mask.flags()[ids]
        score = noiselab.auroc(sup, flags)
    return report_path, score


def _directory_number(log: Path, directory: Path, kind):
    """The number after the underscore of a seed_<s> or gamma_<g> name."""
    try:
        return kind(directory.name.split("_", 1)[1])
    except ValueError as exc:
        raise datasets.DataError(f"{log}: bad directory name {directory.name!r}: "
                                 f"{exc}") from exc


def export_curves(run_dir, out_path=None) -> Path:
    """Assemble every epoch log under a run directory into one long-format
    CSV: method,gamma,seed,epoch,split,metric,value. Only the "selected"
    rows are exported; per-model curves stay in the per-seed logs."""
    run = Path(run_dir)
    snapshot = run / "config.yaml"
    if not snapshot.exists():
        raise datasets.DataError(f"{run}: missing config snapshot")
    try:
        raw = yaml.safe_load(snapshot.read_text()) or {}
        if not isinstance(raw, dict):
            raise ConfigError("config must be a mapping")
        base_gamma = check("train", raw.get("train", {}), TOP_KEYS["train"])["gamma"]
    except (yaml.YAMLError, ValueError) as exc:
        raise datasets.DataError(f"{snapshot}: bad config snapshot: {exc}") from exc
    method = raw.get("method", TOP_KEYS["method"].default)
    logs = []
    for log in run.glob("seed_*/epoch_log.csv"):
        logs.append((base_gamma, _directory_number(log, log.parent, int), log))
    for log in run.glob("gamma_*/seed_*/epoch_log.csv"):
        logs.append((_directory_number(log, log.parent.parent, float),
                     _directory_number(log, log.parent, int), log))
    if not logs:
        raise datasets.DataError(f"{run}: no epoch logs found")
    logs.sort(key=lambda item: (item[0], item[1]))
    out_rows = []
    for gamma, seed, log in logs:
        try:
            with open(log, newline="") as fh:
                rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise datasets.DataError(f"{log}: cannot read: {exc}") from exc
        header = rows[0] if rows else None
        if header != EPOCH_LOG_HEADER:
            raise datasets.DataError(f"{log}: unexpected header {header!r}")
        for lineno, row in enumerate(rows[1:], start=2):
            if len(row) != len(EPOCH_LOG_HEADER):
                raise datasets.DataError(
                    f"{log}:{lineno}: expected 5 fields, got {len(row)}")
            model, epoch, split, metric, value = row
            if model == "selected":
                out_rows.append((method, repr(gamma), seed, epoch, split, metric, value))
    target = Path(out_path) if out_path is not None else run / "curves.csv"
    datasets.write_csv(target, CURVES_HEADER, out_rows)
    return target
