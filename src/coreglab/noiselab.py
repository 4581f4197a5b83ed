"""Label-noise experiment machinery: seeded noise injection with its flip
mask, the noise-overfit protocol (train on the union with the noisy labels,
watch accuracy on the corrected labels per epoch), and the suspect-label
report, computed over models.eval_blocks, with its AUROC against the flips.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import datasets as ds
from . import models as mdl
from . import trainer
from .numeric import KL_EPS, _normalize, floored_nll, kl_terms, label_probs
from .schema import ConfigError, Key, check

FLIP_CSV_HEADER = ["id", "original_label", "noisy_label"]
SUSPECT_CSV_HEADER = ["id", "label", "prediction", "flagged", "agreement_kl", "sup_loss"]


def stochastic_matrix(value) -> np.ndarray:
    """a square table whose rows are probability distributions"""
    table = np.asarray(value, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise ValueError("the table is not square")
    # Entries in [0, 1] first, so that the row sums cannot overflow.
    if not (np.all((table >= 0) & (table <= 1))
            and np.all(np.abs(table.sum(axis=1) - 1.0) <= 1e-9)):
        raise ValueError("a row is not a distribution")
    return table


# The config's noise block. A seed left out derives from the run seed.
NOISE_KEYS = {
    "rate": Key(float, least=0, most=1, open_most=True, required=True),
    "scheme": Key(("uniform_flip", "class_conditional"), "uniform_flip"),
    "seed": Key(int, least=0),
    "confusion": Key(stochastic_matrix),
}


@dataclass(frozen=True)
class NoiseSpec:
    """How to corrupt labels: fraction of instances, flip scheme, seed.

    class_conditional requires ``confusion``, a row-stochastic table whose
    row y gives the distribution the new label of a class-y instance is
    drawn from; no other scheme takes one.
    """

    rate: float
    seed: int
    scheme: str = NOISE_KEYS["scheme"].default
    confusion: np.ndarray | None = None

    def __post_init__(self):
        for name in ("rate", "seed", "scheme"):
            object.__setattr__(self, name, check(name, getattr(self, name),
                                                 NOISE_KEYS[name]))
        if self.scheme == "class_conditional":
            if self.confusion is None:
                raise ConfigError("the class_conditional scheme requires a "
                                  "noise.confusion table")
            object.__setattr__(self, "confusion", check(
                "confusion", self.confusion, NOISE_KEYS["confusion"]))
        elif self.confusion is not None:
            raise ConfigError(f"noise.confusion is read only under noise.scheme "
                              f"class_conditional, not {self.scheme}")

    def check_classes(self, num_classes: int) -> None:
        """The data's class count fits the noise: a flip needs another class
        to go to, and a confusion table needs one row per class."""
        if num_classes < 2:
            raise ConfigError(f"noise needs at least 2 classes to flip labels, but "
                              f"the data has {num_classes}")
        if self.scheme == "class_conditional" and len(self.confusion) != num_classes:
            raise ConfigError(f"noise.confusion must be {num_classes}x{num_classes} "
                              f"for the data's {num_classes} classes")


@dataclass(frozen=True)
class FlipMask:
    """Which instances were flipped, with their original and noisy labels;
    indices are row positions, and save_csv writes them as the dataset's ids."""

    indices: np.ndarray
    original_labels: np.ndarray
    noisy_labels: np.ndarray
    num_instances: int

    def __post_init__(self):
        if not (len(self.indices) == len(self.original_labels)
                == len(self.noisy_labels)):
            raise ValueError("mask arrays must align")
        if np.any(self.original_labels == self.noisy_labels):
            raise ValueError("a flipped label must differ from the original")

    def __len__(self) -> int:
        return len(self.indices)

    def save_csv(self, path, ids) -> None:
        ds.write_csv(path, FLIP_CSV_HEADER,
                     zip(ids[self.indices].tolist(), self.original_labels.tolist(),
                         self.noisy_labels.tolist()))


def inject_noise(dataset, spec: NoiseSpec):
    """Corrupt exactly floor(rate*N) seeded-drawn labels.

    uniform_flip draws the new label uniformly from the other classes, so
    every selected instance changes. class_conditional resamples from the
    confusion row of the old class; draws that land on the old label leave
    the instance unchanged and out of the mask. Flips are applied in
    ascending instance order for determinism. Returns the corrupted dataset
    and the mask, which holds the original label of every changed row.
    """
    spec.check_classes(dataset.num_classes)
    n = len(dataset)
    count = math.floor(spec.rate * n)
    rng = np.random.default_rng(spec.seed)
    labels = dataset.labels.copy()
    chosen = np.sort(rng.choice(n, size=count, replace=False))
    originals = labels[chosen].copy()
    if spec.scheme == "uniform_flip":
        draws = rng.integers(0, dataset.num_classes - 1, size=count)
        new = draws + (draws >= originals)
    else:
        new = np.empty(count, dtype=np.int64)
        for j, old in enumerate(originals):
            new[j] = rng.choice(dataset.num_classes, p=spec.confusion[old])
    labels[chosen] = new
    changed = new != originals
    mask = FlipMask(chosen[changed], originals[changed], new[changed], n)
    return dataset.with_labels(labels), mask


def noise_overfit_eval(train_set, pool, mask, gammas, config,
                       *, eval_metric=None) -> dict[float, list[float]]:
    """The noise-overfit protocol: for each distinct agreement weight, in
    first-seen order, train on the training rows plus the pool's flipped
    rows with their noisy labels, and score those flipped rows with their
    original labels at every epoch; returns gamma -> per-epoch curve.

    The protocol runs on dense rows. The clean set is scored as the dev
    split, and the first model's curve is reported, so the gamma grid is
    comparable point for point.
    """
    flipped = pool.features[mask.indices]
    if {row.tobytes() for row in train_set.features} & {row.tobytes() for row in flipped}:
        raise ValueError("training set and flipped pool rows overlap")
    union = ds.LabeledDataset(np.vstack([train_set.features, flipped]),
                              np.concatenate([train_set.labels, mask.noisy_labels]),
                              train_set.num_classes)
    clean_set = ds.LabeledDataset(flipped, mask.original_labels, train_set.num_classes)
    curves = {}
    for gamma in dict.fromkeys(map(float, gammas)):
        result = trainer.train(union, clean_set, replace(config, gamma=gamma),
                               eval_metric=eval_metric)
        curves[gamma] = result.dev_scores[:, 0].tolist()
    return curves


def disagreement_report(ensemble, dataset, config) -> dict[str, np.ndarray]:
    """Rank instances by how strongly the trained models dispute the given
    label: rows are flagged when the soft target's argmax differs from the
    label, and sorted by mean supervision loss, largest first. Returns the
    SUSPECT_CSV_HEADER columns as aligned arrays in that order.

    The models run together over models.eval_blocks, as in predict, so the
    activations held at once are bounded by the block, not by the split.
    Against one forward over all rows, the logits, and so the losses, may
    differ in the last bits, since BLAS takes another path for a one-row
    product."""
    y = dataset.labels
    preds = np.empty(len(y), dtype=np.intp)
    per_kl = np.empty(len(y))
    sup = np.empty(len(y))
    for block, logits in mdl.eval_blocks(ensemble.models, dataset.features):
        probs = _normalize(logits)  # eval_blocks checked these logits
        inst_losses = floored_nll(label_probs(probs, y[block]))
        q = trainer.aggregate_targets(probs, logits, inst_losses, config.aggregate_mode)
        per_kl[block] = np.mean(np.sum(kl_terms(q[None], probs, KL_EPS), axis=2), axis=0)
        sup[block] = np.mean(inst_losses, axis=0)
        preds[block] = np.argmax(q, axis=1)
    order = np.argsort(-sup, kind="stable")
    return dict(zip(SUSPECT_CSV_HEADER, (column[order] for column in
                                         (dataset.ids, y, preds, preds != y, per_kl, sup))))


def save_suspect_csv(report: dict[str, np.ndarray], path) -> None:
    ids, labels, preds, flagged, kl, sup = (report[name].tolist()
                                            for name in SUSPECT_CSV_HEADER)
    ds.write_csv(path, SUSPECT_CSV_HEADER, zip(ids, labels, preds, map(int, flagged),
                                               map(repr, kl), map(repr, sup)))


def auroc(scores, positives) -> float:
    """Area under the ROC curve by rank statistics, ties averaged to the
    midpoint rank. Higher score must mean more likely positive."""
    s = np.asarray(scores, dtype=np.float64)
    pos = np.asarray(positives, dtype=bool)
    if s.shape != pos.shape or s.ndim != 1:
        raise ValueError("scores and positives must be aligned vectors")
    n_pos = int(pos.sum())
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    _, inverse, counts = np.unique(s, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    avg_rank = cum - (counts - 1) / 2.0
    ranks = avg_rank[inverse]
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
