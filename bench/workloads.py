"""The benchmark's workloads.

Each workload turns a workload seed into the inputs of a few ``coreglab
train`` runs, one per run seed (a config file each, plus CoNLL files shared
by them for tagging), and works out, from a config and its inputs alone,
what its run must do: the rows its optimizer steps consume, the artifacts
it must write, and the exact number of calls each traced function must
receive. One run seed per process keeps each timed process short, so a
measuring window holds many of them.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

# The acceptance protocol of tests/test_acceptance.py: a 4-class Gaussian
# mixture whose class signal lives in 2 of 50 features, 30% uniform flips.
# The data itself is the protocol's fixed draw; the workload seed picks the
# run seeds (initialisation, label flips, dropout and data order), which
# keeps the spread of test_metric across workload seeds near 1%.
PROTOCOL_DATA = {"train_size": 2000, "dev_size": 1000, "test_size": 500,
                 "num_classes": 4, "num_features": 50, "class_sep": 2.5,
                 "data_seed": 20250401}
PROTOCOL_TRAIN = {"num_models": 2, "gamma": 5.0, "warmup_pct": 30.0,
                  "batch_size": 64, "hidden_sizes": [32], "dropout": 0.1,
                  "base_lr": 0.005, "selection_policy": "best_dev"}
NOISE_RATE = 0.3
CROSSWEIGH_FOLDS = 5
CROSSWEIGH_ITERATIONS = 2

# Sizes per scale. "full" is what the benchmark measures; "smoke" runs the
# same code paths at toy sizes so the harness itself can be tested quickly.
# "seeds" is the number of run seeds, each trained by its own process.
# The synthetic test split is 5000 rows, not the protocol's 500: train and
# dev are the same rows either way, and the larger test split makes
# test_metric less sensitive to which rows happen to be in it.
SIZES = {
    "coreg_protocol": {
        "full": {"train": 2000, "dev": 1000, "test": 5000, "epochs": 40, "seeds": 5},
        "smoke": {"train": 120, "dev": 60, "test": 60, "epochs": 2, "seeds": 2},
    },
    "crossweigh_folds": {
        "full": {"train": 2000, "dev": 1000, "test": 5000, "epochs": 10, "seeds": 3},
        "smoke": {"train": 120, "dev": 60, "test": 60, "epochs": 1, "seeds": 1},
    },
    "tagging_eval": {
        "full": {"train": 2000, "dev": 3000, "test": 3000, "epochs": 3, "seeds": 3},
        "smoke": {"train": 40, "dev": 30, "test": 30, "epochs": 1, "seeds": 2},
    },
}

WHY = {
    "coreg_protocol":
        "paper's method at acceptance-protocol scale (M=2, gamma 5, best_dev, "
        "40 epochs, 5 seeds one per process); the joint step is most of "
        "run_s, so trainer/models/numeric step metrics move run_s here first",
    "crossweigh_folds":
        "M=1 fold trainings (5 folds x 2 iterations) then a weighted fit: same "
        "step, no agreement term, many short train calls; selection first, "
        "since best_dev crashes on crossweigh (known defect)",
    "tagging_eval":
        "CoNLL tagging, 2k/3k/3k sentences, window 1, M=2, 3 epochs: parsing, "
        "dense one-hot features, predict and the quadratic span-F1 scorer "
        "(epoch_eval.s) move run_s and setup_s, not the step",
}


@dataclass
class Plan:
    """One run seed of a workload: its config and what a correct run produces.

    ``examples`` is the rows consumed by optimizer steps, summed over models
    and train calls; ``counts`` maps traced names to their exact counts."""

    config_path: Path
    run_dir: Path
    seeds: list
    examples: int
    counts: dict
    per_seed_artifacts: tuple = ()

    @property
    def compared(self) -> list:
        """Files that must be byte-identical across runs of one seed."""
        return ["metrics.csv"] + [f"seed_{s}/epoch_log.csv" for s in self.seeds]

    @property
    def artifacts(self) -> list:
        return self.compared + ["manifest.json"] + [
            f"seed_{s}/{name}" for s in self.seeds
            for name in ("model.npz", *self.per_seed_artifacts)]


def train_rows(n: int, steps: int, batch: int) -> int:
    """Rows one model consumes in ``steps`` steps of the trainer's loop:
    full shuffled epochs of n rows, then ``rest`` full batches."""
    per_epoch = math.ceil(n / batch)
    full, rest = divmod(steps, per_epoch)
    return full * n + rest * batch


def _run_seeds(rng: np.random.Generator, count: int) -> list:
    return sorted(int(s) for s in rng.choice(1_000_000, size=count, replace=False) + 1)


def _write_config(path: Path, mapping: dict) -> None:
    path.write_text(yaml.safe_dump(mapping, sort_keys=True))


def _common_counts(seeds: int, steps: int, models: int, hidden: int,
                   evals: int, eval_rows: int) -> dict:
    """Counts shared by every method: ``steps`` and ``evals``/``eval_rows``
    are per seed, summed over all train calls of that seed."""
    return {
        "trainer.train_step": seeds * steps,
        "models.forward": seeds * steps * models,
        "models.backward": seeds * steps * models,
        "numeric.adam_step": seeds * steps * models,
        "numeric.lr_at": seeds * steps,
        "numeric.softmax": seeds * steps,
        "numeric.dropout_mask": seeds * steps * models * hidden,
        "datasets.metric": seeds * evals,
        "datasets.metric.rows": seeds * eval_rows,
        "noiselab.inject_noise": 2 * seeds,
        "models.save_model": seeds,
        "experiment.load_config": 1,
        "experiment.build_task_data": 1,
        "experiment.run_experiment": 1,
    }


def _coreg_plan(config_path: Path, run_dir: Path, seeds: list, epochs: int,
                n: int, n_dev: int, n_test: int) -> Plan:
    """Method coreg: per seed, one train call on n rows whose M models are
    scored on dev every epoch, then the selected model on dev and test."""
    batch, models = PROTOCOL_TRAIN["batch_size"], PROTOCOL_TRAIN["num_models"]
    steps = epochs * math.ceil(n / batch)
    S = len(seeds)
    evals = epochs * models + 2
    eval_rows = epochs * models * n_dev + n_dev + n_test
    counts = _common_counts(S, steps, models, len(PROTOCOL_TRAIN["hidden_sizes"]),
                            evals, eval_rows)
    counts.update({"trainer.train": S,
                   "models.predict": S * evals,
                   "models.predict.rows": S * eval_rows,
                   "baselines.train_plain": 0,
                   "baselines.crossweigh_weights": 0,
                   "metrics.bio_decode": 0})
    return Plan(config_path, run_dir, seeds, S * models * train_rows(n, steps, batch),
                counts)


def _synthetic(name: str, seed: int, out: Path, scale: str) -> list:
    size = SIZES[name][scale]
    return [_synthetic_seed(name, run_seed, out, size)
            for run_seed in _run_seeds(np.random.default_rng(seed), size["seeds"])]


def _synthetic_seed(name: str, run_seed: int, out: Path, size: dict) -> Plan:
    method = {"coreg_protocol": "coreg", "crossweigh_folds": "crossweigh"}[name]
    seeds = [run_seed]
    train_cfg = dict(PROTOCOL_TRAIN)
    if method == "crossweigh":
        train_cfg.update(num_models=1, gamma=0.0, selection_policy="first")
    run_dir = out / f"run_{run_seed}"
    mapping = {
        "task": "synthetic", "method": method, "seeds": seeds,
        "output_dir": str(run_dir), "epochs": size["epochs"],
        "data": {**PROTOCOL_DATA, "train_size": size["train"],
                 "dev_size": size["dev"], "test_size": size["test"]},
        "noise": {"rate": NOISE_RATE},
        "train": train_cfg,
    }
    if method == "crossweigh":
        mapping["baseline"] = {"folds": CROSSWEIGH_FOLDS,
                               "iterations": CROSSWEIGH_ITERATIONS}
    config_path = out / f"config_{run_seed}.yaml"
    _write_config(config_path, mapping)

    n, n_dev, n_test, epochs = size["train"], size["dev"], size["test"], size["epochs"]
    if method == "coreg":
        return _coreg_plan(config_path, run_dir, seeds, epochs, n, n_dev, n_test)

    # crossweigh: per iteration, one plain model per fold trains on the other
    # folds for a fixed step count and predicts its reserved fold; then one
    # weighted plain fit is scored like a single-model coreg run.
    batch, hidden = train_cfg["batch_size"], len(train_cfg["hidden_sizes"])
    steps = epochs * math.ceil(n / batch)
    S = len(seeds)
    folds, iterations = CROSSWEIGH_FOLDS, CROSSWEIGH_ITERATIONS
    fold_sizes = [len(c) for c in np.array_split(np.arange(n), folds)]
    fold_steps = epochs * math.ceil((n - math.ceil(n / folds)) / batch)
    fold_rows = sum(train_rows(n - size_f, fold_steps, batch) for size_f in fold_sizes)
    evals = epochs + 2
    eval_rows = epochs * n_dev + n_dev + n_test
    counts = _common_counts(S, folds * iterations * fold_steps + steps, 1, hidden,
                            evals, eval_rows)
    counts.update({"trainer.train": S * (folds * iterations + 1),
                   "models.predict": S * (folds * iterations + evals),
                   "models.predict.rows": S * (iterations * n + eval_rows),
                   "baselines.train_plain": S,
                   "baselines.crossweigh_weights": S,
                   "metrics.bio_decode": 0})
    examples = S * (iterations * fold_rows + train_rows(n, steps, batch))
    return Plan(config_path, run_dir, seeds, examples, counts, ("weights.csv",))


def _tagging(seed: int, out: Path, scale: str) -> list:
    from coreglab import datasets

    size = SIZES["tagging_eval"][scale]
    rng = np.random.default_rng(seed)
    corpus_seed = int(rng.integers(1, 2**31))
    seeds = _run_seeds(rng, size["seeds"])
    total = size["train"] + size["dev"] + size["test"]
    instances, scheme = datasets.gen_tagging_corpus(total, corpus_seed)
    bounds = np.cumsum([0, size["train"], size["dev"], size["test"]])
    splits = {}
    for split, lo, hi in zip(("train", "dev", "test"), bounds[:-1], bounds[1:]):
        splits[split] = instances[lo:hi]
        datasets.write_conll(out / f"{split}.conll", splits[split], scheme)
    datasets.save_tag_scheme(scheme, out / "schema.json")

    rows = {split: sum(len(inst.tokens) for inst in part)
            for split, part in splits.items()}
    epochs = size["epochs"]
    # The span scorer decodes gold and predicted tags once per sentence.
    scored = (epochs * PROTOCOL_TRAIN["num_models"] + 1) * len(splits["dev"]) \
        + len(splits["test"])
    plans = []
    for run_seed in seeds:
        run_dir = out / f"run_{run_seed}"
        mapping = {
            "task": "tagging", "method": "coreg", "seeds": [run_seed],
            "output_dir": str(run_dir), "epochs": epochs,
            "data": {f"{split}_path": str(out / f"{split}.conll") for split in splits},
            "noise": {"rate": NOISE_RATE},
            "train": PROTOCOL_TRAIN,
        }
        mapping["data"].update(schema_path=str(out / "schema.json"), window=1)
        config_path = out / f"config_{run_seed}.yaml"
        _write_config(config_path, mapping)
        plan = _coreg_plan(config_path, run_dir, [run_seed], epochs,
                           rows["train"], rows["dev"], rows["test"])
        plan.counts["metrics.bio_decode"] = 2 * scored
        plans.append(plan)
    return plans


def make_inputs(name: str, seed: int, out: Path, scale: str = "full") -> list:
    """Write the workload's inputs for ``seed`` under ``out``; one Plan per
    run seed, each trained by its own process."""
    if name == "tagging_eval":
        return _tagging(seed, out, scale)
    return _synthetic(name, seed, out, scale)
