"""The batched joint step against the per-model reference in oracles.py.

After every step of a short run, every LossReport field must match the
reference to the bit; at the end so must every model's parameters, Adam
moments and dropout stream.
"""

import dataclasses

import numpy as np
import pytest

from coreglab import baselines, noiselab
from coreglab.datasets import LabeledDataset
from coreglab.numeric import adam_step, softmax
from coreglab.schema import ConfigError
from coreglab.trainer import (AGGREGATE_MODES, TrainConfig, TrainingDiverged,
                              aggregate_targets, compute_step_gradients,
                              init_ensemble, train_step, warmup_steps)
from oracles import (reference_adam_step, reference_agreement_dlogits,
                     reference_train_step, reference_warmup_steps)
from test_trainer import assert_models_view_rows, assert_train_refuses_weights_with

STEPS = 20
BATCH = 16
FEATURES = 5


def _config(**kwargs) -> TrainConfig:
    base = dict(num_models=2, total_steps=STEPS, warmup_pct=30.0, gamma=2.0,
                batch_size=BATCH, base_lr=0.05, hidden_sizes=(8,), dropout=0.0,
                master_seed=11)
    base.update(kwargs)
    return TrainConfig(**base)


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _assert_refused(config):
    """soft_target_gradient under avg_logit does nothing, so it is refused
    (test_avg_logit_soft_target_term_vanishes checks why)."""
    with pytest.raises(ConfigError, match=r"train\.soft_target_gradient .*"
                                          r"train\.aggregate_mode avg_logit"):
        config.validate()


def _assert_matches_reference(config, num_classes, *, weighted=False, hook=None):
    ens = init_ensemble(config, FEATURES, num_classes)
    ref = init_ensemble(config, FEATURES, num_classes)
    rng = np.random.default_rng(config.num_models * 100 + num_classes)
    for t in range(STEPS):
        X = 2.0 * rng.normal(size=(BATCH, FEATURES))
        y = rng.integers(0, num_classes, size=BATCH)
        w = rng.uniform(0.0, 1.0, size=BATCH) if weighted else None
        got = train_step(X, y, ens, t, config, weights=w, batch_hook=hook)
        exp = reference_train_step(X, y, ref, t, config, weights=w, batch_hook=hook)
        assert got == exp, t
        for field in dataclasses.fields(got):
            assert _bits(getattr(got, field.name)) == _bits(getattr(exp, field.name)), \
                (t, field.name)
    assert ens.params.tobytes() == ref.params.tobytes()
    assert ens.moments.tobytes() == ref.moments.tobytes()
    for k in range(config.num_models):
        assert ens.dropout_rngs[k].bit_generator.state == \
            ref.dropout_rngs[k].bit_generator.state
    # The optimizer wrote in place: each model and its layers still view
    # their row, so the rows compared above are the models' parameters.
    assert_models_view_rows(ens)


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("soft_target_gradient", [False, True])
@pytest.mark.parametrize("mode", AGGREGATE_MODES)
@pytest.mark.parametrize("num_models", [1, 2, 3])
def test_step_matches_reference(num_models, mode, soft_target_gradient, dropout):
    config = _config(num_models=num_models, aggregate_mode=mode,
                     soft_target_gradient=soft_target_gradient, dropout=dropout)
    if mode == "avg_logit" and soft_target_gradient:
        _assert_refused(config)
        return
    # 3 classes, and 9, where numpy's row sums switch to pairwise blocks.
    for num_classes in (3, 9):
        _assert_matches_reference(config, num_classes, weighted=True)


def _prune_some(t, labels, mean_losses, mean_probs):
    """Keeps the rows below the median loss, highest loss first (so out of
    row order)."""
    order = np.argsort(-mean_losses, kind="stable")
    return order[mean_losses[order] < np.median(mean_losses)], labels


HOOKS = {
    "none": None,
    "small_loss": baselines.make_small_loss_hook(baselines.PruneSchedule(60.0, STEPS)),
    "relabel": baselines.make_relabel_hook(baselines.PruneSchedule(60.0, STEPS)),
    "prune_some": _prune_some,
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("hook", sorted(HOOKS))
@pytest.mark.parametrize("num_models", [1, 2, 3])
def test_step_with_hooks_and_weights_matches_reference(num_models, hook, weighted):
    """A hooked step, or a weighted one, matches the reference; train
    refuses a hook together with weights."""
    for mode in AGGREGATE_MODES:
        config = _config(num_models=num_models, aggregate_mode=mode,
                         soft_target_gradient=True, dropout=0.1)
        if mode == "avg_logit":
            _assert_refused(config)
            continue
        if weighted and HOOKS[hook] is not None:
            assert_train_refuses_weights_with(HOOKS[hook], config)
            continue
        _assert_matches_reference(config, 4, weighted=weighted, hook=HOOKS[hook])


def test_avg_logit_soft_target_term_vanishes():
    """Why soft_target_gradient is refused under avg_logit: the softmax of the
    mean logits is the q that minimises the summed KL(q || p_k), so the
    reference step's term through q is zero up to KL_EPS, while under
    avg_prob the same term is of the size of the direct one."""
    rng = np.random.default_rng(21)
    for num_models in (2, 3, 4):
        logits = 3.0 * rng.normal(size=(num_models, 64, 4))
        probs, losses = softmax(logits), np.zeros((num_models, 64))
        targets = {"avg_logit": softmax(logits.mean(axis=0)), "avg_prob": probs.mean(axis=0)}
        terms = {}
        for mode, q in targets.items():
            on, off = (reference_agreement_dlogits(probs, q, losses, _config(
                num_models=num_models, aggregate_mode=mode, soft_target_gradient=flag))
                for flag in (True, False))
            terms[mode] = np.abs(on - off).max()
        assert terms["avg_logit"] < 1e-9, num_models
        assert terms["avg_prob"] > 1e-4, num_models


def test_warmup_steps_matches_fraction_reference():
    for pct in (0.0, 0.1, 12.5, 29.999, 30.0, 33.3, 70.0, 99.99, 100.0):
        for total in (0, 1, 7, 10, 333, 6400):
            config = _config(warmup_pct=pct, total_steps=total)
            assert warmup_steps(config) == reference_warmup_steps(config)


def test_adam_step_matches_reference_in_place():
    rng = np.random.default_rng(3)
    params = rng.normal(size=50)
    # One model's moments as the ensemble holds them: a (2, P) view of a
    # (2, M, P) block, whose rows are not adjacent in memory.
    block = np.zeros((2, 3, 50))
    moments = block[:, 1]
    ref_params, ref_moments = params.copy(), np.zeros((2, 50))
    for step in range(1, 31):
        grads = rng.normal(size=50) * 10.0 ** rng.integers(-6, 3)
        before = grads.copy()
        assert adam_step(params, grads, moments, step, 0.01) is None
        assert grads.tobytes() == before.tobytes()
        ref_params, ref_moments = reference_adam_step(ref_params, grads, ref_moments,
                                                      step, 0.01)
        assert params.tobytes() == ref_params.tobytes(), step
        # The update lands in the given view of the block, not in a fresh
        # array, and leaves the other models' moments alone.
        assert block[:, 1].tobytes() == ref_moments.tobytes(), step
        assert not block[:, [0, 2]].any()

def test_non_finite_logits_are_refused_inside_and_outside_the_step():
    """softmax's finite check is the step's only one, and the step reports
    it as divergence at its step; softmax's other callers, the audit's
    report among them, refuse such logits as divergence too."""
    config = _config()
    ens = init_ensemble(config, FEATURES, 3)
    ens.models[1].params[0] = np.nan
    X = np.ones((BATCH, FEATURES))
    y = np.zeros(BATCH, dtype=np.int64)
    with pytest.raises(TrainingDiverged, match="non-finite logits at step 3"):
        compute_step_gradients(X, y, ens, 3, config)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        noiselab.disagreement_report(ens, LabeledDataset(X, y, 3), config)
    logits = np.zeros((2, BATCH, 3))
    logits[0, 5, 1] = np.inf
    probs = np.full((2, BATCH, 3), 1.0 / 3.0)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        aggregate_targets(probs, logits, np.ones((2, BATCH)), "avg_logit")
