"""Co-regularization trainer: several identically structured models trained
jointly on an averaged supervision loss, then additionally pulled toward an
aggregated soft target by a KL agreement loss after a warm-up phase.

The same engine also drives the single-model and pruning/relabeling
baselines through the ``weights`` and ``batch_hook`` parameters, so every
method shares one data pipeline and seeding scheme.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import models as mdl
from . import rng as rngmod
from .numeric import (PROB_FLOOR, AdamState, adam_step, floored_nll, kl_terms,
                      lr_at, softmax)

AGGREGATE_MODES = ("avg_prob", "avg_logit", "min_prob")
SELECTION_POLICIES = ("first", "best_dev")
# Widest hidden layer a config may ask for: the feed-forward width of
# BERT-large, far above what a NumPy MLP at desk scale needs. A wider entry
# is a typo, and one of 10**38 units would fail only when drawn.
MAX_HIDDEN_SIZE = 4096


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss."""


@dataclass
class TrainConfig:
    """All training hyperparameters.

    The engine accepts num_models == 1, which is how the plain baseline runs
    the identical pipeline; the co-regularization method's num_models >= 2 is
    a config rule (ExperimentConfig.from_mapping).
    """

    num_models: int = 2
    total_steps: int = 0
    warmup_pct: float = 30.0
    gamma: float = 1.0
    kl_eps: float = 1e-12
    batch_size: int = 64
    base_lr: float = 0.01
    aggregate_mode: str = "avg_prob"
    soft_target_gradient: bool = False
    selection_policy: str = "first"
    master_seed: int = 0
    hidden_sizes: tuple[int, ...] = (32,)
    dropout: float = 0.1

    def validate(self) -> None:
        if self.num_models < 1:
            raise ValueError("num_models must be >= 1")
        if not 0.0 <= self.warmup_pct <= 100.0:
            raise ValueError("warmup_pct must be in [0, 100]")
        if self.gamma < 0.0:
            raise ValueError("gamma must be >= 0")
        if self.kl_eps <= 0.0:
            raise ValueError("kl_eps must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.base_lr <= 0.0:
            raise ValueError("base_lr must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if any(not 1 <= h <= MAX_HIDDEN_SIZE for h in self.hidden_sizes):
            raise ValueError(f"hidden_sizes must be in [1, {MAX_HIDDEN_SIZE}]")
        if self.total_steps < 0:
            raise ValueError("total_steps must be >= 0")
        if self.aggregate_mode not in AGGREGATE_MODES:
            raise ValueError(f"unknown aggregate mode {self.aggregate_mode!r}")
        if self.selection_policy not in SELECTION_POLICIES:
            raise ValueError(f"unknown selection policy {self.selection_policy!r}")


def warmup_steps(config: TrainConfig) -> int:
    """Number of warm-up steps: ceil(warmup_pct/100 * total_steps).

    Computed in exact integer arithmetic on the float's own ratio, so grid
    values like 30% of 10 steps never round up through float noise.
    """
    num, den = float(config.warmup_pct).as_integer_ratio()
    return -(-num * config.total_steps // (den * 100))


@dataclass
class ModelEnsemble:
    """The jointly trained model copies with their optimizer and RNG state."""

    models: list[mdl.MlpModel]
    opt_states: list[AdamState]
    dropout_rngs: list[np.random.Generator]

    @property
    def num_models(self) -> int:
        return len(self.models)


def init_ensemble(config: TrainConfig, input_dim: int, num_classes: int) -> ModelEnsemble:
    """Build num_models copies of the architecture with distinct init seeds
    and private dropout streams, all derived from the master seed."""
    layer_sizes = (input_dim, *config.hidden_sizes, num_classes)
    seeds = [rngmod.substream_seed(config.master_seed, f"init.{k}")
             for k in range(config.num_models)]
    if len(set(seeds)) != len(seeds):
        raise RuntimeError("derived init seeds collide")
    models = [mdl.init_model(layer_sizes, config.dropout, seed) for seed in seeds]
    states = [AdamState.fresh(mdl.param_count(layer_sizes))
              for _ in range(config.num_models)]
    rngs = [rngmod.substream(config.master_seed, f"dropout.{k}")
            for k in range(config.num_models)]
    return ModelEnsemble(models, states, rngs)


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
        return np.mean(probs, axis=0)
    if mode == "avg_logit":
        return softmax(np.mean(logits, axis=0))
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
    return float(np.sum(kl_terms(qa[None, :, :], pa, eps)) / (num_models * batch))


def _softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """Row-wise gradient through softmax over the last axis: from dL/dp to
    dL/dlogits, for any leading (models, batch) shape."""
    inner = np.sum(dprobs * probs, axis=-1, keepdims=True)
    return probs * (dprobs - inner)


def _agreement_dlogits(probs: np.ndarray, logits: np.ndarray, q: np.ndarray,
                       inst_losses: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Gradient of the agreement loss w.r.t. each model's logits,
    shape (models, batch, classes).

    With soft_target_gradient off (default) the target q is treated as a
    constant of the step; otherwise the gradient also flows through the
    aggregation that produced q.
    """
    num_models, batch, _ = probs.shape
    eps = config.kl_eps
    scale = 1.0 / (num_models * batch)
    # Direct path: d/dp of q*log((q+eps)/(p+eps)) summed over models.
    dprobs = -scale * q[None, :, :] / (probs + eps)
    dq = None
    if config.soft_target_gradient:
        dq = scale * np.sum(np.log((q[None, :, :] + eps) / (probs + eps)), axis=0)
        dq += num_models * scale * q / (q + eps)
        if config.aggregate_mode == "avg_prob":
            dprobs = dprobs + dq[None, :, :] / num_models
        elif config.aggregate_mode == "min_prob":
            worst = np.argmax(inst_losses, axis=0)
            add = np.zeros_like(dprobs)
            add[worst, np.arange(batch)] = dq
            dprobs = dprobs + add
        # avg_logit: q's path bypasses the per-model probabilities and is
        # added in logit space below.
    dlogits = _softmax_vjp(probs, dprobs)
    if dq is not None and config.aggregate_mode == "avg_logit":
        dlogits = dlogits + _softmax_vjp(q, dq)[None, :, :] / num_models
    return dlogits


def compute_step_gradients(features, labels: np.ndarray,
                           ensemble: ModelEnsemble, t: int, config: TrainConfig,
                           *, weights: np.ndarray | None = None,
                           batch_hook=None):
    """Losses and per-model flat parameter gradients for one batch, without
    touching optimizer state.

    The gradients are those of the phase's objective: the averaged
    supervision loss during warm-up, the joint loss afterwards (with the
    soft target treated as a constant unless soft_target_gradient is on).
    Returns (LossReport, list of gradient vectors); the gradient list is
    empty when a hook prunes the whole batch. Everything between the
    per-model forwards and backwards runs once over (models, batch, classes)
    arrays.
    """
    y = np.asarray(labels, dtype=np.int64)
    n_rows = len(y)
    if n_rows == 0:
        raise ValueError("empty batch")
    num_models = ensemble.num_models
    w = np.ones(n_rows) if weights is None else np.asarray(weights, dtype=np.float64)

    logits = np.empty((num_models, n_rows, ensemble.models[0].layer_sizes[-1]))
    caches = [None] * num_models
    for k, model in enumerate(ensemble.models):
        logits[k], caches[k] = mdl.forward(model, features, train_mode=True,
                                           rng=ensemble.dropout_rngs[k])
    if not np.all(np.isfinite(logits)):
        raise TrainingDiverged(f"non-finite logits at step {t}")
    probs = softmax(logits)

    inst_losses = floored_nll(probs, y)

    keep = np.arange(n_rows)
    pruned = False
    if batch_hook is not None:
        keep, y = batch_hook(t, y, np.mean(inst_losses, axis=0), np.mean(probs, axis=0))
        keep = np.asarray(keep, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        inst_losses = floored_nll(probs, y)
        pruned = not np.array_equal(keep, np.arange(n_rows))

    warmup = t < warmup_steps(config)
    n_kept = len(keep)
    if n_kept == 0:
        # Nothing left to learn from this batch.
        return LossReport(t, (0.0,) * num_models, 0.0, 0.0, 0.0, warmup), []

    # The kept rows are gathered even when all are kept: the gathered arrays'
    # memory order fixes the summation order inside agreement_loss.
    kept_w = w[keep]
    kept_probs = probs[:, keep, :]
    kept_logits = logits[:, keep, :]
    kept_losses = inst_losses.take(keep, axis=1)  # C order, like floored_nll
    kept_y = y[keep]

    per_model_sup = np.sum(kept_w * kept_losses, axis=1) / n_kept
    task_loss = float(np.mean(per_model_sup))

    q = aggregate_targets(kept_probs, kept_logits, kept_losses, config.aggregate_mode)
    agg_loss = agreement_loss(q, kept_probs, config.kl_eps)

    joint_loss = task_loss + config.gamma * agg_loss
    if not (math.isfinite(task_loss) and math.isfinite(agg_loss)):
        raise TrainingDiverged(
            f"non-finite loss at step {t}: task={task_loss} agreement={agg_loss}")

    # Supervision gradient w.r.t. logits; rows where the probability floor is
    # active contribute no gradient (the clamped loss is locally constant).
    onehot = np.zeros_like(kept_probs[0])
    onehot[np.arange(n_kept), kept_y] = 1.0
    active = (kept_probs[:, np.arange(n_kept), kept_y] > PROB_FLOOR).astype(np.float64)
    sup_dlogits = (kept_probs - onehot[None, :, :])
    sup_dlogits *= (kept_w * active)[:, :, None] / n_kept

    dlogits = sup_dlogits / num_models
    if not (warmup or config.gamma == 0.0):
        dlogits = dlogits + config.gamma * _agreement_dlogits(
            kept_probs, kept_logits, q, kept_losses, config)
    if pruned:
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
    if not grads:
        return report
    lr = lr_at(config.base_lr, config.total_steps, t)
    for model, grad, state in zip(ensemble.models, grads, ensemble.opt_states):
        adam_step(model.params, grad, state, lr)
    return report


@dataclass
class Checkpoint:
    epoch: int
    score: float
    params: np.ndarray


@dataclass
class TrainResult:
    ensemble: ModelEnsemble
    config: TrainConfig
    reports: list[LossReport] = field(default_factory=list)
    # (model, epoch, split, metric, value); model is a model index as a
    # string, or "selected" for the selection policy's pick at that epoch.
    epoch_rows: list[tuple] = field(default_factory=list)
    best: list[Checkpoint] | None = None
    trajectories: np.ndarray | None = None  # (epochs, train rows) bool
    num_epochs: int = 0

    def best_dev_per_model(self) -> list[float] | None:
        if self.best is None:
            return None
        return [c.score for c in self.best]

    def model_with_best_params(self, index: int) -> mdl.MlpModel:
        """Copy of model ``index`` restored to its best dev checkpoint,
        or its final parameters when no dev set was used."""
        source = self.ensemble.models[index]
        params = self.best[index].params if self.best is not None else source.params
        return mdl.MlpModel(source.layer_sizes, source.dropout, source.seed,
                            params.copy())


def _default_metric(dataset, preds) -> float:
    return float(np.mean(preds == dataset.labels))


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
          metric_name: str = "accuracy", weights=None,
          batch_hook=None, track_trajectories: bool = False) -> TrainResult:
    """Run the full training loop for total_steps steps.

    Batches are drawn with a seeded per-epoch shuffle from the shared data
    stream, so all model copies see identical batches. At every epoch
    boundary each model is scored on the dev set (when given) and the best
    per-model dev checkpoint is retained.
    """
    config.validate()
    if config.total_steps > 0 and len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    metric = eval_metric if eval_metric is not None else _default_metric
    if config.selection_policy == "best_dev" and (dev_set is None or len(dev_set) == 0):
        raise ValueError("best_dev selection requires a non-empty dev set")
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape[0] != len(dataset):
            raise ValueError("weights length does not match the dataset")

    ensemble = init_ensemble(config, dataset.num_features, dataset.num_classes)
    result = TrainResult(ensemble, config)
    if dev_set is not None:
        result.best = [Checkpoint(-1, -math.inf, mdl.params_flat(m))
                       for m in ensemble.models]
    if config.total_steps == 0:
        return result

    data_rng = rngmod.substream(config.master_seed, "data_order")
    n = len(dataset)
    traj = [] if track_trajectories else None

    t = 0
    epoch = 0
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

        scores = _evaluate_epoch(result, dev_set, metric, metric_name, epoch)
        if traj is not None:
            preds = mdl.predict(ensemble.models[0], dataset.features)
            traj.append(preds == dataset.labels)
        for k, score in enumerate(scores):
            if score > result.best[k].score:
                result.best[k] = Checkpoint(
                    epoch, score, mdl.params_flat(ensemble.models[k]))
        epoch += 1

    result.num_epochs = epoch
    if traj is not None:
        result.trajectories = np.array(traj, dtype=bool)
    return result


def _evaluate_epoch(result, dev_set, metric, metric_name, epoch) -> list[float]:
    """Score every model, and the policy's pick, on the dev set, if any."""
    if dev_set is None:
        return []
    values = []
    for k, model in enumerate(result.ensemble.models):
        value = float(metric(dev_set, mdl.predict(model, dev_set.features)))
        values.append(value)
        result.epoch_rows.append((str(k), epoch, "dev", metric_name, value))
    chosen = select_index(values, result.config.selection_policy, len(values))
    result.epoch_rows.append(("selected", epoch, "dev", metric_name, values[chosen]))
    return values


def make_plain_config(config: TrainConfig) -> TrainConfig:
    """The same configuration reduced to one model and no agreement loss."""
    return replace(config, num_models=1, gamma=0.0)
