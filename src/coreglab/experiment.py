"""Experiment plumbing: structured run configs, the one run-directory
lifecycle, the per-seed experiment runner, the noise-analysis protocol
runner, the label audit, and the curves exporter.

Run directory layout (every run command writes config.yaml and
manifest.json; a rerun first removes the files the last manifest lists):
  config.yaml                  canonical config snapshot (hashed in manifest)
  manifest.json                config hash, wall clock, artifacts, failure
                               ("incomplete" until the run ends); no scores
  metrics.csv                  final metric per seed per split + median rows,
                               or the label audit's train/auroc row
  seed_<s>/epoch_log.csv       per-epoch dev metric of each model
  seed_<s>/model.npz           selected model at its best checkpoint
  seed_<s>/flips.csv           training-noise mask (train and analyze-noise, with noise)
  audit.csv, flips.csv         label audit's ranking and noise mask
  weights.csv                  label audit's instance weights (crossweigh)
  curves.csv                   per gamma and seed, in long format: train's policy
                               pick per epoch, or analyze-noise's model-0
                               clean-set curve (whatever the selection policy)
"""

import hashlib
import math
import os
import shutil
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import yaml

from . import baselines, datasets, noiselab, trainer
from . import models as mdl
from . import rng as rngmod
from .files import replacing
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
TOP_KEYS = {"task": Key(tuple(datasets.TASKS), "synthetic"),
            "method": Key(("coreg", "plain", "small_loss", "relabel", "crossweigh"), "coreg"),
            "seeds": Key([int], required=True, nonempty=True),
            "output_dir": Key(str, required=True), "epochs": Key(int, 30, least=1),
            "data": Key(dict, {}), "train": Key(trainer.TRAIN_KEYS, {}),
            "noise": Key(noiselab.NOISE_KEYS), "baseline": Key(baselines.BASELINE_KEYS, {}),
            "analysis": Key(ANALYSIS_KEYS, {})}


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
        train.validate()
        if method == "coreg" and train.num_models < 2:
            raise ConfigError("coreg requires train.num_models >= 2")
        data = check_block("data", top["data"], datasets.TASKS[task].data_keys,
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
        config = cls(task, method, seeds, top["output_dir"], train, epochs, data,
                     noise, top["baseline"], analysis, raw)
        if not datasets.TASKS[task].from_files:
            config.check_data_size(data["num_classes"], data["train_size"])
        return config

    def check_data_size(self, num_classes: int, n_train: int) -> None:
        """Noise needs the data's classes and crossweigh a training row per
        fold; checked once the splits are built, and for drawn splits at load."""
        for spec in self.noise.values():
            spec.check_classes(num_classes)
        if self.method == "crossweigh":
            baselines.check_fold_rows(self.baseline["folds"], n_train)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return ExperimentConfig.from_mapping(raw)


def resolve_output_dir(output_dir: str) -> Path:
    """Relative output directories land under the output-root environment
    variable (default: current directory); an absolute one stays as it is."""
    return Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / output_dir


# A task's three splits, its metric's name and scorer, and its vocabulary
# (None for the synthetic task).
TaskData = namedtuple("TaskData", "train dev test metric_name metric_fn vocab")


def build_task_data(config: ExperimentConfig) -> TaskData:
    train, dev, test, schema, vocab = datasets.TASKS[config.task].splits(config.data)
    config.check_data_size(train.num_classes, len(train))
    return TaskData(train, dev, test, *datasets.make_metric(config.task, schema=schema),
                    vocab)


def _train_config(config: ExperimentConfig, seed: int, epochs: int,
                  n_rows: int) -> trainer.TrainConfig:
    """The configured training of one seed for ``epochs`` passes over n_rows
    rows, epochs x ceil(n_rows / batch_size) steps: every training's count."""
    steps = epochs * -(-n_rows // config.train.batch_size)
    return replace(config.train, master_seed=seed, total_steps=steps)


def _dev_rows(result: trainer.TrainResult, metric_name: str) -> tuple[list, list]:
    """Epoch-log rows of a training's dev scores, per epoch one row per
    model; and the selection policy's pick of each epoch, the training's
    curve."""
    rows, curve = [], []
    for epoch, values in enumerate(result.dev_scores.tolist()):
        rows += [(k, epoch, "dev", metric_name, repr(v)) for k, v in enumerate(values)]
        curve.append(values[trainer.select_index(values, result.config.selection_policy,
                                                 len(values))])
    return rows, curve


def _curve_rows(config: ExperimentConfig, curves: dict, split: str,
                metric_name: str) -> list[tuple]:
    """curves.csv rows of (gamma, seed) -> per-epoch values, sorted by gamma,
    then seed."""
    return [(config.method, repr(gamma), seed, epoch, split, metric_name, repr(value))
            for (gamma, seed), curve in sorted(curves.items())
            for epoch, value in enumerate(curve)]


def _run_method(config: ExperimentConfig, tcfg: trainer.TrainConfig,
                train_set, dev_set, task: TaskData, save_weights):
    """Dispatch one seed's training according to the configured method;
    crossweigh hands its instance weights' writer to ``save_weights``."""
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
    folds, n = config.baseline["folds"], len(train_set)
    # A fold model trains on the rows outside the largest reserved fold.
    weights = baselines.crossweigh_weights(
        train_set, folds, config.baseline["iterations"],
        _train_config(config, tcfg.master_seed, config.epochs, n - -(-n // folds)),
        config.baseline["base_weight"])
    save_weights(partial(weights.save_csv, ids=train_set.ids))
    return baselines.train_plain(train_set, dev_set, tcfg, weights=weights,
                                 eval_metric=metric)


def _read_manifest(run: Path) -> dict:
    """A run directory's manifest.json, or {} when it has none; one that does
    not parse or has no artifact list is a DataError naming it."""
    path = run / "manifest.json"
    if not path.exists():
        return {}
    return datasets.read_json(path, "run manifest", lambda raw: {
        **raw, "artifacts": check("artifacts", raw.get("artifacts"), Key([str]))})


def _write_manifest(run_dir: Path, manifest: dict) -> None:
    datasets.write_json(run_dir / "manifest.json",
                        {**manifest, "artifacts": sorted(manifest["artifacts"])})


def _remove_listed(run_dir: Path, names) -> None:
    """Remove each named file, then each directory that leaves empty. Only a
    name that resolves to a file inside run_dir other than its manifest.json,
    and is not itself a symlink, is removed, so nothing outside the
    directory and no unlisted file is touched."""
    root = run_dir.resolve()
    for name in names:
        listed = run_dir / name
        path = listed.resolve()
        if (path.is_relative_to(root) and path.is_file() and not listed.is_symlink()
                and path != root / "manifest.json"):
            path.unlink()
            for parent in path.parents:
                if parent == root or any(parent.iterdir()):
                    break
                parent.rmdir()


@contextmanager
def _run(config: ExperimentConfig):
    """The one owner of a run directory and the only code that touches its
    manifest. It writes manifest.json with failure "incomplete", still
    listing the previous run's files, removes those, and yields
    ``save(name, write)``, which lists name in the manifest before it writes
    run_dir/name through ``write(path)``. On exit it lists the names whose
    files exist, with failure None or the error."""
    started = time.monotonic()
    run_dir = resolve_output_dir(config.output_dir)
    text = yaml.safe_dump(config.raw, sort_keys=True)
    manifest = {"config_hash": hashlib.sha256(text.encode()).hexdigest(),
                "wall_clock_sec": 0.0, "failure": "incomplete",
                "artifacts": _read_manifest(run_dir).get("artifacts", [])}
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_manifest(run_dir, manifest)
    _remove_listed(run_dir, manifest["artifacts"])
    artifacts = manifest["artifacts"] = []

    def save(name: str, write) -> Path:
        artifacts.append(name)
        _write_manifest(run_dir, manifest)
        path = run_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        write(path)
        return path

    def write_config(path):
        with replacing(path) as fh:
            fh.write(text)

    try:
        save("config.yaml", write_config)
        yield save
        artifacts.append("manifest.json")
        manifest["failure"] = None
    except BaseException as exc:
        manifest["failure"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest["wall_clock_sec"] = time.monotonic() - started
        manifest["artifacts"] = [n for n in artifacts if (run_dir / n).exists()]
        _write_manifest(run_dir, manifest)


def _noisy_train(config: ExperimentConfig, seed: int, train_set, save, name: str):
    """The seed's training split with its configured noise, and the mask,
    saved as run_dir/name; without noise, the split as given and None."""
    spec = config.noise.get(seed)
    if spec is None:
        return train_set, None
    train_set, mask = noiselab.inject_noise(train_set, spec)
    save(name, partial(mask.save_csv, ids=train_set.ids))
    return train_set, mask


def _median(values) -> float:
    """np.median's value without its numpy.ma import: the middle sorted value,
    or the two middle ones summed and halved."""
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def run_experiment(config: ExperimentConfig) -> list[tuple]:
    """Per seed: build data, optionally inject noise, train the configured
    method, log per-epoch metrics, and score the selected model on dev and
    test; finally write metrics.csv (with median rows) and the selected dev
    curves at train.gamma as curves.csv. Returns metrics.csv's rows."""
    with _run(config) as save:
        task = build_task_data(config)
        curves, scores = {}, []
        if task.vocab is not None:
            save("vocab.json", partial(datasets.save_vocab, task.vocab))
        for seed in config.seeds:
            seed_dir = f"seed_{seed}"
            train_set, _ = _noisy_train(config, seed, task.train, save,
                                        f"{seed_dir}/flips.csv")
            dev_set = task.dev
            spec = config.noise.get(seed)
            if spec is not None:
                # Model selection must not peek at clean labels: the
                # dev split is drawn from the same noisy labeling process.
                dev_spec = replace(spec,
                                   seed=rngmod.substream_seed(spec.seed, "dev"))
                dev_set, _ = noiselab.inject_noise(dev_set, dev_spec)
            tcfg = _train_config(config, seed, config.epochs, len(train_set))
            result = _run_method(config, tcfg, train_set, dev_set, task,
                                 partial(save, f"{seed_dir}/weights.csv"))
            rows, curves[config.train.gamma, seed] = _dev_rows(result, task.metric_name)
            save(f"{seed_dir}/epoch_log.csv", partial(
                datasets.write_csv, header=EPOCH_LOG_HEADER, rows=rows))
            model = result.selected_model()
            save(f"{seed_dir}/model.npz", partial(mdl.save_model, model))
            for split, split_set in (("dev", dev_set), ("test", task.test)):
                with mdl.evaluating(f"{split} with the selected model"):
                    preds = mdl.predict(model, split_set.features)
                scores.append((seed, split, task.metric_name,
                               repr(float(task.metric_fn(split_set, preds)))))
        scores += [("median", split, task.metric_name,
                    repr(_median([float(row[3]) for row in scores if row[1] == split])))
                   for split in ("dev", "test")]
        save("metrics.csv", partial(datasets.write_csv, header=METRICS_HEADER, rows=scores))
        save("curves.csv", partial(
            datasets.write_csv, header=CURVES_HEADER,
            rows=_curve_rows(config, curves, "dev", task.metric_name)))
    return scores


def run_noise_analysis(config: ExperimentConfig) -> Path:
    """Noise-overfit protocol over a gamma grid: per seed, flip a pool's
    labels, train on train + the flipped rows with their noisy labels for
    each gamma, and score model 0 on the same rows with their original labels
    per epoch; then save those curves as curves.csv and return its path."""
    if datasets.TASKS[config.task].from_files:
        raise ConfigError("analyze-noise supports the synthetic task")
    if config.method != "coreg":
        raise ConfigError(f"analyze-noise runs method coreg only, not {config.method}")
    analysis = config.analysis
    # Uniform flips change every chosen row, so this is the clean set's size.
    if math.floor(analysis["pool_noise_rate"] * analysis["pool_size"]) < 1:
        raise ConfigError("analysis.pool_noise_rate x analysis.pool_size flips no "
                          "pool row, so the clean set would be empty")
    with _run(config) as save:
        task = build_task_data(config)
        data = config.data
        # The pool is a second draw of the same mixture, on the next data seed.
        pool, _ = datasets.gen_gaussian_mixture(
            analysis["pool_size"], 0, data["num_classes"], data["num_features"],
            data["data_seed"] + 1, data["class_sep"], data["scale"])
        curves = {}
        for seed in config.seeds:
            train_set, _ = _noisy_train(config, seed, task.train, save,
                                        f"seed_{seed}/flips.csv")
            _, mask = noiselab.inject_noise(pool, noiselab.NoiseSpec(
                analysis["pool_noise_rate"], rngmod.substream_seed(seed, "pool_noise")))
            base = _train_config(config, seed, analysis["epochs"],
                                 len(train_set) + len(mask))
            for gamma, curve in noiselab.noise_overfit_eval(
                    train_set, pool, mask, analysis["gammas"], base,
                    eval_metric=task.metric_fn).items():
                curves[gamma, seed] = curve
        return save("curves.csv", partial(
            datasets.write_csv, header=CURVES_HEADER,
            rows=_curve_rows(config, curves, "clean", task.metric_name)))


def run_audit(config: ExperimentConfig):
    """Train the configured method on the first seed's (noise-injected)
    training set, rank instances by the suspect-label report, and score how
    well it recovers the injected flips as metrics.csv's one train auroc
    row, written only when there is a score. Returns (report path, AUROC or None)."""
    with _run(config) as save:
        task = build_task_data(config)
        seed = config.seeds[0]
        train_set, mask = _noisy_train(config, seed, task.train, save, "flips.csv")
        # Only the final ensemble is read, so there is no dev scoring to select by.
        tcfg = replace(_train_config(config, seed, config.epochs, len(train_set)),
                       selection_policy="first")
        result = _run_method(config, tcfg, train_set, None, task,
                             partial(save, "weights.csv"))
        with mdl.evaluating("train in the label audit"):
            columns = noiselab.disagreement_report(result.ensemble, train_set, tcfg)
        report = save("audit.csv", partial(noiselab.save_suspect_csv, columns))
        score = None
        if mask is not None and 0 < len(mask) < len(train_set):
            # The mask holds row positions and the report record ids.
            flipped = np.isin(columns["id"], train_set.ids[mask.indices])
            score = noiselab.auroc(columns["sup_loss"], flipped)
            save("metrics.csv", partial(datasets.write_csv, header=METRICS_HEADER,
                                        rows=[(seed, "train", "auroc", repr(score))]))
    return report, score


def export_curves(run_dir, out_path=None) -> Path:
    """Copy a train or analyze-noise run's curves.csv to out_path and return
    out_path; without out_path, or with one that names that file, copy
    nothing and return it. A run with no manifest (every run
    command writes one, so it was killed), a failed run, a run whose
    manifest lists no curves.csv or whose listed curves.csv is gone, and
    any other out_path inside the run are DataErrors."""
    run = Path(run_dir)
    manifest = _read_manifest(run)
    if not manifest:
        raise datasets.DataError(f"{run / 'manifest.json'}: missing, so the run did "
                                 f"not finish")
    if manifest.get("failure") is not None:
        raise datasets.DataError(f"{run / 'manifest.json'}: the run failed, so it "
                                 f"has no curves: {manifest['failure']}")
    source = run / "curves.csv"
    if "curves.csv" not in manifest["artifacts"]:
        raise datasets.DataError(f"{source}: this run saved no curves; train and "
                                 f"analyze-noise save them, so rerunning "
                                 f"{run / 'config.yaml'} with either creates it")
    if not source.is_file():
        raise datasets.DataError(f"{source}: listed in the run's manifest but "
                                 f"missing; rerunning {run / 'config.yaml'} "
                                 f"re-creates it")
    target = Path(out_path) if out_path is not None else source
    if target.resolve() != source.resolve():
        if target.resolve().is_relative_to(run.resolve()):
            raise datasets.DataError(f"{target}: inside the run directory, "
                                     f"export-curves writes nothing")
        shutil.copyfile(source, target)
    return target
