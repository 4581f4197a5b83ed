"""Competing denoising strategies built on the same training pipeline:
plain single-model training, small-loss batch pruning and relabeling on a
linearly growing schedule, and a fold-disagreement instance reweighter.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import datasets
from . import models as mdl
from . import rng as rngmod
from . import trainer
from .schema import ConfigError, Key, check

# The config's baseline block: the prune/relabel schedule's final percent,
# and crossweigh's folds, iterations and down-weighting base.
BASELINE_KEYS = {"delta_max": Key(float, 5.0, least=0, most=100),
                 "folds": Key(int, 5, least=2), "iterations": Key(int, 2, least=1),
                 "base_weight": Key(float, 0.7, least=0, most=1, open_least=True)}


@dataclass(frozen=True)
class PruneSchedule:
    """Linear schedule from 0 up to delta_max percent at the final step."""

    delta_max: float
    total_steps: int

    def __post_init__(self):
        check("delta_max", self.delta_max, BASELINE_KEYS["delta_max"])
        if self.total_steps < 1:
            raise ValueError("total_steps must be >= 1")


def schedule_delta(sched: PruneSchedule, t: int) -> float:
    """Percentage affected at step t: delta_max * t / total_steps."""
    if not 0 <= t <= sched.total_steps:
        raise ValueError("step outside the schedule range")
    return sched.delta_max * t / sched.total_steps


def _quota(n: int, delta_t: float) -> int:
    return math.floor(delta_t * n / 100.0)


def _largest_loss_indices(batch_losses: np.ndarray, count: int) -> np.ndarray:
    # Stable sort on the negated losses: among ties the lower index comes
    # first and is therefore affected first.
    order = np.argsort(-np.asarray(batch_losses, dtype=np.float64), kind="stable")
    return order[:count]


def small_loss_select(batch_losses, delta_t: float) -> np.ndarray:
    """Indices kept after pruning the floor(delta_t*N/100) largest-loss
    instances; ties prune the lower index first. Returned in ascending order."""
    losses = np.asarray(batch_losses, dtype=np.float64)
    if losses.ndim != 1 or len(losses) == 0:
        raise ValueError("batch_losses must be a non-empty vector")
    pruned = _largest_loss_indices(losses, _quota(len(losses), delta_t))
    keep = np.ones(len(losses), dtype=bool)
    keep[pruned] = False
    return np.flatnonzero(keep)


def relabel(labels, batch_losses, preds_mean, delta_t: float) -> np.ndarray:
    """New label vector where the floor(delta_t*N/100) largest-loss instances
    take the argmax of the mean predicted distribution; others unchanged.
    An instance whose argmax equals its old label still consumes quota."""
    y = np.asarray(labels, dtype=np.int64).copy()
    losses = np.asarray(batch_losses, dtype=np.float64)
    probs = np.asarray(preds_mean, dtype=np.float64)
    if len(y) != len(losses) or probs.shape[0] != len(y):
        raise ValueError("labels, losses, and predictions must align")
    chosen = _largest_loss_indices(losses, _quota(len(y), delta_t))
    y[chosen] = np.argmax(probs[chosen], axis=1)
    return y


def make_small_loss_hook(sched: PruneSchedule):
    """Batch hook pruning the largest mean-loss instances per the schedule;
    it keeps at least one row, as no step runs at t = total_steps."""

    def hook(t, labels, mean_losses, mean_probs):
        keep = small_loss_select(mean_losses, schedule_delta(sched, t))
        return keep, labels

    return hook


def make_relabel_hook(sched: PruneSchedule):
    """Batch hook overwriting the largest mean-loss labels with the mean
    prediction's argmax per the schedule; it keeps every row."""

    def hook(t, labels, mean_losses, mean_probs):
        new_labels = relabel(labels, mean_losses, mean_probs, schedule_delta(sched, t))
        return np.arange(len(new_labels)), new_labels

    return hook


@dataclass
class InstanceWeights:
    """Per-instance loss multipliers in [0, 1]; save_csv writes one row per
    instance, in order, under the dataset's id."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("weights must be a vector")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("weights must lie in [0, 1]")

    def save_csv(self, path, ids) -> None:
        datasets.write_csv(path, ["id", "weight"],
                           zip(ids.tolist(), map(repr, self.values.tolist())))


def train_plain(dataset, dev_set, config: trainer.TrainConfig, *,
                weights: InstanceWeights | None = None,
                eval_metric=None) -> trainer.TrainResult:
    """Single-model cross-entropy training on the shared pipeline: the same
    engine with one model and no agreement term, so seeding and batching are
    identical to the multi-model runs."""
    return trainer.train(dataset, dev_set, trainer.make_plain_config(config),
                         weights=None if weights is None else weights.values,
                         eval_metric=eval_metric)


def check_fold_rows(folds: int, n: int) -> None:
    """Crossweigh needs at least one of the n training rows per fold."""
    if folds > n:
        raise ConfigError(f"baseline.folds ({folds}) exceeds the {n} training rows")


def fold_partition(n: int, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Disjoint covering chunks of near-equal size in shuffled order."""
    check("folds", folds, BASELINE_KEYS["folds"])
    check_fold_rows(folds, n)
    return np.array_split(rng.permutation(n), folds)


def crossweigh_weights(dataset, folds: int, iterations: int,
                       config: trainer.TrainConfig,
                       base_weight: float = BASELINE_KEYS["base_weight"].default
                       ) -> InstanceWeights:
    """Down-weight instances whose labels out-of-fold models contradict.

    For each iteration the training set is re-partitioned into ``folds``
    chunks with a seeded shuffle; one plain model is trained on the other
    chunks and predicts the reserved chunk. The final weight of an instance
    is base_weight ** c where c counts its disagreements across iterations.
    """
    check("base_weight", base_weight, BASELINE_KEYS["base_weight"])
    check("iterations", iterations, BASELINE_KEYS["iterations"])
    n = len(dataset)
    disagreements = np.zeros(n, dtype=np.int64)
    for it in range(iterations):
        part_rng = rngmod.substream(config.master_seed, f"crossweigh.{it}")
        for f, reserved in enumerate(fold_partition(n, folds, part_rng)):
            # The other folds' rows in ascending order, by a mask rather than
            # np.setdiff1d, whose np.unique imports numpy.ma.
            train_mask = np.ones(n, dtype=bool)
            train_mask[reserved] = False
            train_idx = np.flatnonzero(train_mask)
            fold_seed = rngmod.substream_seed(config.master_seed,
                                              f"crossweigh.{it}.{f}")
            # Fold models have no dev set, so they cannot select by it.
            fold_config = replace(trainer.make_plain_config(config),
                                  master_seed=fold_seed, selection_policy="first")
            result = trainer.train(dataset.subset(train_idx), None, fold_config)
            with mdl.evaluating(f"fold {f} in crossweigh iteration {it}"):
                preds = mdl.predict(result.ensemble.models[0],
                                    dataset.features[reserved])
            disagreements[reserved] += preds != dataset.labels[reserved]
    return InstanceWeights(base_weight ** disagreements.astype(np.float64))
