"""Competing denoising strategies built on the same training pipeline:
plain single-model training; small-loss batch pruning and relabeling, two
batch hooks that act on the same rows, the batch's largest mean losses on a
linearly growing schedule; and CrossWeigh's fold-disagreement reweighter,
which returns one loss weight per training row.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

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


def largest_losses(sched: PruneSchedule, t: int, losses: np.ndarray) -> np.ndarray:
    """The rows the schedule affects at step t: the floor(delta_t*N/100)
    largest losses, largest first. The sort on the negated losses is stable,
    so among ties the lower index comes first and is affected first."""
    quota = math.floor(schedule_delta(sched, t) * len(losses) / 100.0)
    return np.argsort(-losses, kind="stable")[:quota]


def make_small_loss_hook(sched: PruneSchedule):
    """Batch hook pruning the largest mean-loss rows per the schedule and
    keeping the rest in ascending order; it keeps at least one row, as no
    step runs at t = total_steps."""

    def hook(t, labels, mean_losses, mean_probs):
        keep = np.ones(len(mean_losses), dtype=bool)
        keep[largest_losses(sched, t, mean_losses)] = False
        return np.flatnonzero(keep), labels

    return hook


def make_relabel_hook(sched: PruneSchedule):
    """Batch hook overwriting the largest mean-loss rows' labels with the mean
    prediction's argmax per the schedule; it keeps every row. A row whose
    argmax equals its label still uses up quota."""

    def hook(t, labels, mean_losses, mean_probs):
        y = np.array(labels, dtype=np.int64)
        chosen = largest_losses(sched, t, mean_losses)
        y[chosen] = np.argmax(mean_probs[chosen], axis=1)
        return np.arange(len(y)), y

    return hook


def train_plain(dataset, dev_set, config: trainer.TrainConfig, *,
                weights: np.ndarray | None = None,
                eval_metric=None) -> trainer.TrainResult:
    """Single-model cross-entropy training on the shared pipeline: the same
    engine with one model and no agreement term, so seeding and batching are
    identical to the multi-model runs."""
    return trainer.train(dataset, dev_set, trainer.make_plain_config(config),
                         weights=weights, eval_metric=eval_metric)


def check_fold_rows(folds: int, n: int) -> None:
    """Crossweigh needs at least one of the n training rows per fold."""
    if folds > n:
        raise ConfigError(f"baseline.folds ({folds}) exceeds the {n} training rows")


def crossweigh_weights(dataset, folds: int, iterations: int,
                       config: trainer.TrainConfig,
                       base_weight: float = BASELINE_KEYS["base_weight"].default
                       ) -> np.ndarray:
    """Down-weight instances whose labels out-of-fold models contradict.

    For each iteration the training set is re-partitioned into ``folds``
    chunks with a seeded shuffle; one plain model is trained on the other
    chunks and predicts the reserved chunk. The final weight of an instance
    is base_weight ** c where c counts its disagreements across iterations;
    the weights come back as one float64 vector in the dataset's row order.
    """
    check("folds", folds, BASELINE_KEYS["folds"])
    check("base_weight", base_weight, BASELINE_KEYS["base_weight"])
    check("iterations", iterations, BASELINE_KEYS["iterations"])
    n = len(dataset)
    check_fold_rows(folds, n)
    disagreements = np.zeros(n, dtype=np.int64)
    for it in range(iterations):
        part_rng = rngmod.substream(config.master_seed, f"crossweigh.{it}")
        # Disjoint covering chunks of near-equal size in shuffled order.
        for f, reserved in enumerate(np.array_split(part_rng.permutation(n), folds)):
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
    return base_weight ** disagreements.astype(np.float64)
