"""Co-regularization trainer: several identically structured models trained
jointly on an averaged supervision loss, then additionally pulled toward an
aggregated soft target by a KL agreement loss after a warm-up phase.

The same engine also drives the single-model and pruning/relabeling
baselines through ``weights`` or ``batch_hook``, which exclude each other,
so every method shares one data pipeline and seeding scheme.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from . import models as mdl
from . import rng as rngmod
from .numeric import (DROPOUT, KL_EPS, PROB_FLOOR, TrainingDiverged, adam_step,
                      floored_nll, kl_terms, label_probs, lr_at, softmax)
from .schema import ConfigError, Key, check

AGGREGATE_MODES = ("avg_prob", "avg_logit", "min_prob")

# The config's train block: one key per TrainConfig field but master_seed,
# which each run seed sets, and total_steps, which the run derives from its
# epochs. The widest hidden layer, 4096, is the
# feed-forward width of BERT-large, far above what a NumPy MLP at desk scale
# needs: a wider entry is a typo, and one of 10**38 units would fail only
# when drawn. The most models, 64, is far above the few the paper
# co-regularizes: a larger count is a typo, and one of 10**7 would spend
# minutes deriving init seeds before it failed or wrote anything.
TRAIN_KEYS = {
    "num_models": Key(int, 2, least=1, most=64),
    "warmup_pct": Key(float, 30.0, least=0, most=100),
    "gamma": Key(float, 1.0, least=0),
    "batch_size": Key(int, 64, least=1),
    "base_lr": Key(float, 0.01, least=0, open_least=True),
    "aggregate_mode": Key(AGGREGATE_MODES, "avg_prob"),
    "soft_target_gradient": Key(bool, False),
    "selection_policy": Key(("first", "best_dev"), "first"),
    "hidden_sizes": Key([int], (32,), least=1, most=4096),
    "dropout": DROPOUT,
}
# The engine's step count, a library field only.
TOTAL_STEPS = Key(int, 0, least=0)


@dataclass
class TrainConfig:
    """All training hyperparameters, with the defaults of TRAIN_KEYS.

    The engine accepts num_models == 1, which is how the plain baseline runs
    the identical pipeline; the co-regularization method's num_models >= 2 is
    a config rule (ExperimentConfig.from_mapping).
    """

    num_models: int = TRAIN_KEYS["num_models"].default
    total_steps: int = TOTAL_STEPS.default
    warmup_pct: float = TRAIN_KEYS["warmup_pct"].default
    gamma: float = TRAIN_KEYS["gamma"].default
    batch_size: int = TRAIN_KEYS["batch_size"].default
    base_lr: float = TRAIN_KEYS["base_lr"].default
    aggregate_mode: str = TRAIN_KEYS["aggregate_mode"].default
    soft_target_gradient: bool = TRAIN_KEYS["soft_target_gradient"].default
    selection_policy: str = TRAIN_KEYS["selection_policy"].default
    master_seed: int = 0
    hidden_sizes: tuple[int, ...] = TRAIN_KEYS["hidden_sizes"].default
    dropout: float = TRAIN_KEYS["dropout"].default

    def validate(self) -> None:
        """Check every field against its Key, and refuse soft_target_gradient
        under avg_logit, where it does nothing; a ConfigError names the keys."""
        for name, key in {**TRAIN_KEYS, "total_steps": TOTAL_STEPS}.items():
            check(name, getattr(self, name), key)
        if self.soft_target_gradient and self.aggregate_mode == "avg_logit":
            # softmax of the mean logits is the q that minimises the summed
            # KL(q || p_k), so the gradient through q is zero up to KL_EPS.
            raise ConfigError(
                "train.soft_target_gradient does nothing with train.aggregate_mode "
                "avg_logit: its target already minimises the agreement loss, so no "
                "gradient flows through it; turn soft_target_gradient off or use "
                "avg_prob or min_prob")


def warmup_steps(config: TrainConfig) -> int:
    """Number of warm-up steps: ceil(warmup_pct/100 * total_steps).

    Computed in exact integer arithmetic on the float's own ratio, so grid
    values like 30% of 10 steps never round up through float noise.
    """
    num, den = float(config.warmup_pct).as_integer_ratio()
    return -(-num * config.total_steps // (den * 100))


@dataclass
class ModelEnsemble:
    """The jointly trained model copies with their optimizer and RNG state:
    ``models[k]`` wraps row k of the (M, P) ``params``, and ``moments`` is
    the (2, M, P) block of Adam's first and second moments aligned with it."""

    models: list[mdl.MlpModel]
    params: np.ndarray
    moments: np.ndarray
    dropout_rngs: list[np.random.Generator]

    @property
    def num_models(self) -> int:
        return len(self.models)


def init_ensemble(config: TrainConfig, input_dim: int, num_classes: int) -> ModelEnsemble:
    """Build num_models copies of the architecture with distinct init seeds
    and private dropout streams, all derived from the master seed; model k's
    init_model draw is copied into row k of the parameters, which it wraps."""
    layer_sizes = (input_dim, *config.hidden_sizes, num_classes)
    seeds = [rngmod.substream_seed(config.master_seed, f"init.{k}")
             for k in range(config.num_models)]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("derived init seeds collide")
    params = np.stack([mdl.init_model(layer_sizes, config.dropout, seed).params
                       for seed in seeds])
    models = [mdl.MlpModel(layer_sizes, config.dropout, seed, row)
              for seed, row in zip(seeds, params)]
    rngs = [rngmod.substream(config.master_seed, f"dropout.{k}")
            for k in range(config.num_models)]
    return ModelEnsemble(models, params, np.zeros((2, *params.shape)), rngs)


@dataclass(frozen=True)
class LossReport:
    """Losses observed at one training step.

    joint_loss is always task_loss + gamma * agreement_loss; during warm-up
    the agreement term is recorded but does not drive the update.
    """

    step: int
    per_model_sup: tuple[float, ...]
    task_loss: float
    agreement_loss: float
    joint_loss: float
    warmup: bool


def aggregate_targets(probs: np.ndarray, logits: np.ndarray,
                      inst_losses: np.ndarray, mode: str) -> np.ndarray:
    """Batched soft target: probs/logits are (models, batch, classes) and
    inst_losses (models, batch); returns one distribution per instance."""
    if mode == "avg_prob":
        return np.add.reduce(probs, axis=0) / len(probs)
    if mode == "avg_logit":
        return softmax(np.add.reduce(logits, axis=0) / len(logits))
    if mode == "min_prob":
        worst = np.argmax(inst_losses, axis=0)  # ties -> lowest model index
        return probs[worst, np.arange(probs.shape[1])]
    raise ValueError(f"unknown aggregate mode {mode!r}")


def agreement_loss(q: np.ndarray, preds: np.ndarray, eps: float) -> float:
    """Mean smoothed KL from the (batch, classes) soft target to each model's
    prediction in the (models, batch, classes) stack, averaged over models and
    instances."""
    qa = np.asarray(q, dtype=np.float64)
    pa = np.asarray(preds, dtype=np.float64)
    if pa.ndim != 3 or qa.shape != pa.shape[1:]:
        raise ValueError("prediction shapes do not match the soft target")
    num_models, batch, _ = pa.shape
    return float(np.add.reduce(kl_terms(qa, pa, eps), axis=None) / (num_models * batch))


def _softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Row-wise gradient through softmax over the last axis: from dL/dp to
    dL/dlogits, for any leading (models, batch) shape."""
    inner = np.add.reduce(dprobs * probs, axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def _agreement_dlogits(probs: np.ndarray, q: np.ndarray, inst_losses: np.ndarray,
                       config: TrainConfig) -> np.ndarray:
    """Gradient of the agreement loss w.r.t. each model's logits,
    shape (models, batch, classes).

    With soft_target_gradient off (default) the target q is treated as a
    constant of the step; otherwise the gradient also flows through the
    aggregation that produced q, avg_prob or min_prob (under avg_logit that
    gradient is zero, and TrainConfig.validate refuses the pair).
    """
    num_models, batch, _ = probs.shape
    eps = KL_EPS
    scale = 1.0 / (num_models * batch)
    # Direct path: d/dp of q*log((q+eps)/(p+eps)) summed over models.
    dprobs = -scale * q[None, :, :] / (probs + eps)
    if config.soft_target_gradient:
        dq = scale * np.add.reduce(np.log((q[None, :, :] + eps) / (probs + eps)),
                                   axis=0)
        dq += num_models * scale * q / (q + eps)
        if config.aggregate_mode == "avg_prob":
            dprobs += dq[None, :, :] / num_models
        elif config.aggregate_mode == "min_prob":
            worst = np.argmax(inst_losses, axis=0)
            add = np.zeros_like(dprobs)
            add[worst, np.arange(batch)] = dq
            dprobs += add
    return _softmax_vjp(probs, dprobs)


def compute_step_gradients(features, labels: np.ndarray,
                           ensemble: ModelEnsemble, t: int, config: TrainConfig,
                           *, weights: np.ndarray | None = None,
                           batch_hook=None):
    """Losses and per-model flat parameter gradients for one batch, without
    touching optimizer state.

    The gradients are those of the phase's objective: the averaged
    supervision loss during warm-up, the joint loss afterwards (with the
    soft target treated as a constant unless soft_target_gradient is on).
    Returns (LossReport, list of gradient vectors). A step takes
    ``weights`` or a ``batch_hook``, which keeps at least one row, not both.
    Everything between the per-model forwards and backwards runs once over
    (models, batch, classes) arrays laid out batch-major in memory. Only a
    hooked step gathers its kept rows. One model whose step has no agreement
    gradient (gamma 0, or warm-up) skips the soft target and reports an
    agreement loss of exactly 0.0, the value it would compute.
    """
    y = np.asarray(labels, dtype=np.int64)
    n_rows = len(y)
    if n_rows == 0:
        raise ValueError("empty batch")
    num_models = ensemble.num_models
    warmup = t < warmup_steps(config)

    # The (models, batch, classes) stacks are views of (batch, models,
    # classes) memory, the order a gather of kept rows (probs[:, keep, :])
    # produces, and softmax keeps its input's order. That order fixes the
    # summation order of agreement_loss's KL sum, so a step without a hook
    # reduces the stacks as they are and sums the bits a gathered step sums.
    # The per-model supervision sums run over label_probs' C-order pick.
    logits = np.empty((n_rows, num_models, ensemble.models[0].layer_sizes[-1]))
    logits = logits.transpose(1, 0, 2)
    caches = [None] * num_models
    for k, model in enumerate(ensemble.models):
        logits[k], caches[k] = mdl.forward(model, features, ensemble.dropout_rngs[k])
    try:
        probs = softmax(logits)
    except TrainingDiverged as exc:  # softmax refuses non-finite logits
        raise TrainingDiverged(f"non-finite logits at step {t}") from exc
    picked = label_probs(probs, y)

    keep = None
    if batch_hook is not None:
        keep, y = batch_hook(t, y, np.mean(floored_nll(picked), axis=0),
                             np.mean(probs, axis=0))
        keep = np.asarray(keep, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)[keep]
        probs, logits = probs[:, keep, :], logits[:, keep, :]
        picked = label_probs(probs, y)

    n_kept = len(y)
    losses = floored_nll(picked)
    # Each row's share of the supervision gradient: its weight, and 0 where
    # the probability floor is active (the clamped loss is locally constant).
    row_scale, sup_terms = picked > PROB_FLOOR, losses
    if weights is not None:
        row_scale, sup_terms = weights * row_scale, weights * losses
    per_model_sup = np.add.reduce(sup_terms, axis=1) / n_kept
    task_loss = float(np.add.reduce(per_model_sup)) / num_models

    agreement_step = not (warmup or config.gamma == 0.0)
    agg_loss = 0.0
    if num_models > 1 or agreement_step:
        q = aggregate_targets(probs, logits, losses, config.aggregate_mode)
        agg_loss = agreement_loss(q, probs, KL_EPS)

    joint_loss = task_loss + config.gamma * agg_loss
    if not (math.isfinite(task_loss) and math.isfinite(agg_loss)):
        raise TrainingDiverged(
            f"non-finite loss at step {t}: task={task_loss} agreement={agg_loss}")

    # Supervision gradient w.r.t. logits: p minus the one-hot label, scaled.
    dlogits = probs.copy()
    dlogits[:, np.arange(n_kept), y] = picked - 1.0
    dlogits *= row_scale[:, :, None] / n_kept
    dlogits /= num_models
    if agreement_step:
        dlogits += config.gamma * _agreement_dlogits(probs, q, losses, config)
    if keep is not None and not np.array_equal(keep, np.arange(n_rows)):
        full = np.zeros((num_models, n_rows, dlogits.shape[2]))
        full[:, keep] = dlogits
        dlogits = full

    grads = [mdl.backward(model, caches[k], dlogits[k])
             for k, model in enumerate(ensemble.models)]
    report = LossReport(t, tuple(per_model_sup.tolist()), task_loss, agg_loss,
                        joint_loss, warmup)
    return report, grads


def train_step(features, labels: np.ndarray, ensemble: ModelEnsemble,
               t: int, config: TrainConfig, *, weights: np.ndarray | None = None,
               batch_hook=None) -> LossReport:
    """One training step on one batch, updating every model in place.

    During warm-up (t < ceil(warmup_pct/100 * total_steps)) each model is
    updated w.r.t. the averaged supervision loss alone; afterwards the
    agreement term, weighted by gamma, joins the update. The agreement loss
    is computed and reported in both phases.
    """
    report, grads = compute_step_gradients(features, labels, ensemble, t, config,
                                           weights=weights, batch_hook=batch_hook)
    lr = lr_at(config.base_lr, config.total_steps, t)
    for k, model in enumerate(ensemble.models):
        adam_step(model.params, grads[k], ensemble.moments[:, k], t + 1, lr)
    return report


@dataclass
class TrainResult:
    ensemble: ModelEnsemble
    config: TrainConfig
    reports: list[LossReport] = field(default_factory=list)
    # (epochs, models) dev score of each model after each epoch; None
    # without a dev set.
    dev_scores: np.ndarray | None = None
    # (models, P): row k holds model k's parameters at its first best dev
    # epoch (its initial ones before any epoch); without a dev set, it is
    # the ensemble's own parameter array.
    best_params: np.ndarray | None = None

    def selected_model(self) -> mdl.MlpModel:
        """Copy of the model the selection policy picks by best dev score,
        restored to its best dev checkpoint, or with its final parameters
        when no dev set was used."""
        best = (None if self.dev_scores is None
                else np.max(self.dev_scores, axis=0, initial=-np.inf))
        index = select_index(best, self.config.selection_policy,
                             self.ensemble.num_models)
        source = self.ensemble.models[index]
        return mdl.MlpModel(source.layer_sizes, source.dropout, source.seed,
                            self.best_params[index].copy())


def select_index(dev_metrics, policy: str, num_models: int) -> int:
    """Model index under the selection policy; best_dev breaks ties low."""
    if policy == "first":
        return 0
    if policy == "best_dev":
        if dev_metrics is None or len(dev_metrics) != num_models:
            raise ValueError("best_dev selection requires one dev metric per model")
        return int(np.argmax(dev_metrics))
    raise ValueError(f"unknown selection policy {policy!r}")


def train(dataset, dev_set, config: TrainConfig, *, eval_metric=None,
          weights=None, batch_hook=None) -> TrainResult:
    """Run the full training loop for total_steps steps.

    Batches are drawn with a seeded per-epoch shuffle from the shared data
    stream, so all model copies see identical batches. At every epoch
    boundary each model is scored on the dev set (when given) and the best
    per-model dev checkpoint is retained. ``weights`` and ``batch_hook``
    exclude each other.
    """
    config.validate()
    if config.total_steps > 0 and len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    metric = eval_metric or (lambda dev, preds: metrics.accuracy(dev.labels, preds))
    if config.selection_policy == "best_dev" and (dev_set is None or len(dev_set) == 0):
        raise ValueError("best_dev selection requires a non-empty dev set")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != len(dataset):
            raise ValueError("weights length does not match the dataset")
        if batch_hook is not None:
            raise ValueError("train takes weights or a batch_hook, not both")

    ensemble = init_ensemble(config, dataset.num_features, dataset.num_classes)
    models = ensemble.models
    result = TrainResult(ensemble, config, best_params=(
        ensemble.params if dev_set is None else ensemble.params.copy()))
    best = np.full(len(models), -math.inf)
    scores = []
    data_rng = rngmod.substream(config.master_seed, "data_order")
    n = len(dataset)

    # A diverging run overflows before softmax's finite check raises
    # TrainingDiverged; that error, not NumPy's warning, reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        t = 0
        while t < config.total_steps:
            order = data_rng.permutation(n)
            for start in range(0, n, config.batch_size):
                if t >= config.total_steps:
                    break
                idx = order[start:start + config.batch_size]
                batch_w = None if weights is None else weights[idx]
                report = train_step(dataset.features[idx], dataset.labels[idx],
                                    ensemble, t, config, weights=batch_w,
                                    batch_hook=batch_hook)
                result.reports.append(report)
                t += 1

            if dev_set is not None:
                with mdl.evaluating(f"dev after epoch {len(scores)}"):
                    scores.append([float(metric(dev_set, mdl.predict(model, dev_set.features)))
                                   for model in models])
                for k, score in enumerate(scores[-1]):
                    if score > best[k]:
                        best[k] = score
                        result.best_params[k] = models[k].params

    if dev_set is not None:
        result.dev_scores = np.array(scores, dtype=np.float64).reshape(-1, len(models))
    return result


def make_plain_config(config: TrainConfig) -> TrainConfig:
    """The same configuration reduced to one model and no agreement loss."""
    return replace(config, num_models=1, gamma=0.0)
