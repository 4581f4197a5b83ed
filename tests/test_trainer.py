import numpy as np
import pytest

from coreglab import numeric
from coreglab.datasets import LabeledDataset, gen_gaussian_mixture
from coreglab.models import (MlpModel, forward, params_flat, predict,
                             set_params_flat)
from coreglab.trainer import (AGGREGATE_MODES, ModelEnsemble, TrainConfig,
                              TrainingDiverged, aggregate_targets, agreement_loss,
                              compute_step_gradients, init_ensemble,
                              make_plain_config, select_index, train, train_step,
                              warmup_steps)
from oracles import (direct_agreement_loss, direct_aggregate, finite_diff_grad,
                     kl_divergence)

SOFTMAX_2_1 = (0.7310585786300049, 0.2689414213699951)
AGREEMENT_EXAMPLE = 0.020410997260044231


def small_config(**kwargs) -> TrainConfig:
    base = dict(num_models=2, total_steps=10, warmup_pct=30.0, gamma=1.0,
                batch_size=8, base_lr=0.01, hidden_sizes=(8,), dropout=0.0,
                master_seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def tiny_dataset(n=24, num_classes=3, num_features=4, seed=0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(n, num_features)),
                          rng.integers(0, num_classes, size=n), num_classes)


# ---------------------------------------------------------------- config


def test_config_validation():
    small_config().validate()
    small_config(num_models=1).validate()  # engine accepts M=1
    with pytest.raises(ValueError, match="num_models"):
        small_config(num_models=0).validate()
    with pytest.raises(ValueError, match="warmup_pct"):
        small_config(warmup_pct=101).validate()
    with pytest.raises(ValueError, match="gamma"):
        small_config(gamma=-0.5).validate()
    with pytest.raises(ValueError, match="batch_size"):
        small_config(batch_size=0).validate()
    with pytest.raises(ValueError, match="aggregate mode"):
        small_config(aggregate_mode="median").validate()
    with pytest.raises(ValueError, match="selection policy"):
        small_config(selection_policy="last").validate()
    with pytest.raises(ValueError, match="base_lr"):
        small_config(base_lr=0.0).validate()
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=1.5).validate()
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=-0.1).validate()
    with pytest.raises(ValueError, match="hidden_sizes"):
        small_config(hidden_sizes=(8, 0)).validate()


def test_train_rejects_invalid_config_before_first_step():
    steps = []

    def hook(t, labels, mean_losses, mean_probs):
        steps.append(t)
        return np.arange(len(labels)), labels

    for bad in ({"base_lr": 0.0}, {"dropout": 1.5}, {"hidden_sizes": (0,)}):
        with pytest.raises(ValueError):
            train(tiny_dataset(), None, small_config(**bad), batch_hook=hook)
    assert steps == []


def test_warmup_steps_exact_grid():
    # ceil(pct/100 * T) by integer ceiling division over the standard grid
    for total in (10, 100, 128, 777):
        for pct in (10, 30, 50, 70, 90):
            expected = -((-pct * total) // 100)
            got = warmup_steps(small_config(warmup_pct=float(pct), total_steps=total))
            assert got == expected, (pct, total)


def test_warmup_steps_no_float_drift():
    # 30% of 10 must be exactly 3: a naive 0.3*10 = 3.0000000000000004
    # would wrongly ceil to 4.
    assert warmup_steps(small_config(warmup_pct=30.0, total_steps=10)) == 3
    assert warmup_steps(small_config(warmup_pct=70.0, total_steps=10)) == 7
    assert warmup_steps(small_config(warmup_pct=0.0, total_steps=50)) == 0
    assert warmup_steps(small_config(warmup_pct=100.0, total_steps=50)) == 50


# ---------------------------------------------------------------- ensemble


def test_init_ensemble_distinct_models():
    ens = init_ensemble(small_config(num_models=3), input_dim=4, num_classes=3)
    assert ens.num_models == 3
    sizes = {m.layer_sizes for m in ens.models}
    assert sizes == {(4, 8, 3)}
    flats = [params_flat(m).tobytes() for m in ens.models]
    assert len(set(flats)) == 3
    seeds = {m.seed for m in ens.models}
    assert len(seeds) == 3


def test_init_ensemble_reproducible():
    a = init_ensemble(small_config(), 4, 3)
    b = init_ensemble(small_config(), 4, 3)
    for ma, mb in zip(a.models, b.models):
        assert params_flat(ma).tobytes() == params_flat(mb).tobytes()


# ---------------------------------------------------------------- aggregates


def aggregate_one(preds, logits, sup_losses, mode):
    """aggregate_targets on a batch of one instance: per-model rows become
    (models, 1, classes) stacks and the losses (models, 1)."""
    return aggregate_targets(np.asarray(preds, dtype=np.float64)[:, None, :],
                             np.asarray(logits, dtype=np.float64)[:, None, :],
                             np.asarray(sup_losses, dtype=np.float64)[:, None],
                             mode)[0]


def test_aggregate_avg_prob_example():
    q = aggregate_one([[0.8, 0.2], [0.4, 0.6]],
                      [[0.0, 0.0], [0.0, 0.0]], [0.1, 0.1], "avg_prob")
    np.testing.assert_allclose(q, [0.6, 0.4], rtol=1e-14)


def test_aggregate_avg_logit_example():
    q = aggregate_one([[0.5, 0.5], [0.5, 0.5]],
                      [[1.0, 0.0], [3.0, 2.0]], [0.1, 0.1], "avg_logit")
    np.testing.assert_allclose(q, SOFTMAX_2_1, rtol=1e-12)


def test_aggregate_min_prob_example():
    q = aggregate_one([[0.8, 0.2], [0.3, 0.7]],
                      [[0.0, 0.0], [0.0, 0.0]], [0.2, 0.9], "min_prob")
    np.testing.assert_allclose(q, [0.3, 0.7], rtol=1e-14)


def test_aggregate_min_prob_tie_goes_low():
    q = aggregate_one([[0.8, 0.2], [0.3, 0.7]],
                      [[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5], "min_prob")
    np.testing.assert_allclose(q, [0.8, 0.2], rtol=1e-14)


def test_aggregate_fixed_point_identical_preds():
    p = np.array([0.2, 0.5, 0.3])
    logits = np.log(p)
    for mode in AGGREGATE_MODES:
        q = aggregate_one([p, p, p], [logits, logits, logits],
                          [0.4, 0.4, 0.4], mode)
        np.testing.assert_allclose(q, p, rtol=1e-12)


def test_aggregate_unknown_mode():
    with pytest.raises(ValueError, match="aggregate mode"):
        aggregate_one([[0.5, 0.5]], [[0.0, 0.0]], [0.1], "median")


def test_aggregate_targets_matches_loop_reference():
    rng = np.random.default_rng(21)
    for trial in range(30):
        num_models = int(rng.integers(2, 5))
        n = int(rng.integers(1, 7))
        num_classes = int(rng.integers(2, 6))
        logits = rng.normal(size=(num_models, n, num_classes)) * 3
        probs = numeric.softmax(logits.reshape(-1, num_classes)).reshape(logits.shape)
        losses = rng.uniform(0.01, 3.0, size=(num_models, n))
        for mode in AGGREGATE_MODES:
            got = aggregate_targets(probs, logits, losses, mode)
            for i in range(n):
                expected = direct_aggregate(
                    [probs[k, i].tolist() for k in range(num_models)],
                    [logits[k, i].tolist() for k in range(num_models)],
                    [float(losses[k, i]) for k in range(num_models)], mode)
                np.testing.assert_allclose(got[i], expected, rtol=1e-10,
                                           err_msg=f"{mode} trial {trial}")


def test_aggregate_is_valid_distribution():
    rng = np.random.default_rng(22)
    for mode in AGGREGATE_MODES:
        for _ in range(50):
            num_models = int(rng.integers(2, 4))
            num_classes = int(rng.integers(2, 6))
            logits = rng.normal(size=(num_models, 3, num_classes)) * 4
            probs = numeric.softmax(
                logits.reshape(-1, num_classes)).reshape(logits.shape)
            losses = rng.uniform(0, 2, size=(num_models, 3))
            q = aggregate_targets(probs, logits, losses, mode)
            assert np.all(q >= 0)
            np.testing.assert_allclose(q.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------- agreement


def test_agreement_zero_on_consensus():
    p = np.array([[0.2, 0.8], [0.6, 0.4]])
    assert agreement_loss(p, np.stack([p, p, p]), 1e-12) == 0.0


def test_agreement_worked_example():
    preds = np.array([[[0.6, 0.4]], [[0.4, 0.6]]])
    q = np.array([[0.5, 0.5]])
    value = agreement_loss(q, preds, 1e-12)
    assert value == pytest.approx(AGREEMENT_EXAMPLE, rel=1e-12)
    assert value == pytest.approx(0.020411, abs=5e-7)


def test_agreement_copy_invariance():
    rng = np.random.default_rng(5)
    preds = numeric.softmax(rng.normal(size=(3, 4, 5)))
    q = np.mean(preds, axis=0)
    single = agreement_loss(q, preds, 1e-12)
    doubled = agreement_loss(np.concatenate([q, q]),
                             np.concatenate([preds, preds], axis=1), 1e-12)
    assert doubled == pytest.approx(single, rel=1e-12)


def test_agreement_matches_kl_sum():
    rng = np.random.default_rng(6)
    for _ in range(25):
        num_models = int(rng.integers(2, 5))
        n = int(rng.integers(1, 6))
        num_classes = int(rng.integers(2, 6))
        preds = numeric.softmax(rng.normal(size=(num_models, n, num_classes)) * 3)
        q = np.mean(preds, axis=0)
        via_kl = sum(kl_divergence(q[i], preds[k, i], 1e-9)
                     for k in range(num_models)
                     for i in range(n)) / (num_models * n)
        assert agreement_loss(q, preds, 1e-9) == pytest.approx(via_kl, rel=1e-12)


def test_agreement_matches_scalar_loop():
    rng = np.random.default_rng(7)
    preds = numeric.softmax(rng.normal(size=(3, 4, 4)) * 2)
    q = np.mean(preds, axis=0)
    expected = direct_agreement_loss(preds, q, 1e-12)
    assert agreement_loss(q, preds, 1e-12) == pytest.approx(expected, rel=1e-12)


def test_agreement_shape_errors():
    q = np.array([[0.5, 0.5]])
    with pytest.raises(ValueError, match="shape"):
        agreement_loss(q, np.ones((2, 3, 2)) / 2, 1e-12)
    with pytest.raises(ValueError, match="shape"):
        agreement_loss(q, np.ones((2, 1, 3)) / 3, 1e-12)


def test_agreement_single_instance_broadcast():
    # one instance: q is (1, classes) and the preds (models, 1, classes)
    value = agreement_loss(np.array([[0.5, 0.5]]),
                           np.array([[[0.6, 0.4]], [[0.4, 0.6]]]), 1e-12)
    assert value == pytest.approx(AGREEMENT_EXAMPLE, rel=1e-12)
    with pytest.raises(ValueError, match="shape"):
        agreement_loss(np.array([0.5, 0.5]),
                       np.array([[0.6, 0.4], [0.4, 0.6]]), 1e-12)


# ---------------------------------------------------------------- steps


def test_loss_report_identities():
    data = tiny_dataset()
    config = small_config(total_steps=12, gamma=2.5, warmup_pct=25.0)
    result = train(data, None, config)
    assert len(result.reports) == 12
    boundary = warmup_steps(config)
    for report in result.reports:
        assert report.task_loss == pytest.approx(
            np.mean(report.per_model_sup), abs=1e-9)
        assert report.joint_loss == pytest.approx(
            report.task_loss + config.gamma * report.agreement_loss, abs=1e-9)
        assert report.warmup == (report.step < boundary)
    # agreement is recorded on the last warm-up step too
    last_warm = result.reports[boundary - 1]
    assert last_warm.warmup
    assert last_warm.agreement_loss > 0.0


def test_gamma_zero_update_equals_warmup_update():
    data = tiny_dataset()
    batch = (data.features[:8], data.labels[:8])
    post = small_config(gamma=0.0, warmup_pct=0.0)
    warm = small_config(gamma=5.0, warmup_pct=100.0)
    ens_a = init_ensemble(post, 4, 3)
    ens_b = init_ensemble(warm, 4, 3)
    ra = train_step(*batch, ens_a, 0, post)
    rb = train_step(*batch, ens_b, 0, warm)
    assert not ra.warmup and rb.warmup
    for ma, mb in zip(ens_a.models, ens_b.models):
        assert params_flat(ma).tobytes() == params_flat(mb).tobytes()


def test_warmup_gradient_excludes_agreement():
    data = tiny_dataset()
    batch = (data.features[:8], data.labels[:8])
    with_gamma = small_config(gamma=7.0, warmup_pct=100.0)
    no_gamma = small_config(gamma=0.0, warmup_pct=100.0)
    _, grads_a = compute_step_gradients(*batch, init_ensemble(with_gamma, 4, 3),
                                        0, with_gamma)
    _, grads_b = compute_step_gradients(*batch, init_ensemble(no_gamma, 4, 3),
                                        0, no_gamma)
    for ga, gb in zip(grads_a, grads_b):
        assert ga.tobytes() == gb.tobytes()


def test_warmup_no_cross_model_gradients():
    # During warm-up, model 0's gradient is independent of model 1's weights.
    data = tiny_dataset()
    batch = (data.features[:8], data.labels[:8])
    config = small_config(gamma=3.0, warmup_pct=100.0)
    ens = init_ensemble(config, 4, 3)
    _, before = compute_step_gradients(*batch, ens, 0, config)
    set_params_flat(ens.models[1],
                    params_flat(ens.models[1]) + 0.37)
    _, after = compute_step_gradients(*batch, ens, 0, config)
    assert before[0].tobytes() == after[0].tobytes()
    assert before[1].tobytes() != after[1].tobytes()


def test_after_warmup_cross_model_gradients_appear():
    data = tiny_dataset()
    batch = (data.features[:8], data.labels[:8])
    config = small_config(gamma=3.0, warmup_pct=0.0)
    ens = init_ensemble(config, 4, 3)
    _, before = compute_step_gradients(*batch, ens, 0, config)
    set_params_flat(ens.models[1], params_flat(ens.models[1]) + 0.37)
    _, after = compute_step_gradients(*batch, ens, 0, config)
    assert before[0].tobytes() != after[0].tobytes()


def test_step_determinism():
    data = tiny_dataset()
    config = small_config(dropout=0.2, total_steps=10)

    def run():
        return train(data, None, config).reports

    first, second = run(), run()
    assert first == second


def test_single_model_warmup_gradient_scaling():
    # In warm-up each model's gradient is grad(own sup loss) / M.
    data = tiny_dataset()
    batch = (data.features[:8], data.labels[:8])
    config2 = small_config(num_models=2, warmup_pct=100.0)
    config1 = small_config(num_models=1, warmup_pct=100.0)
    _, grads2 = compute_step_gradients(*batch, init_ensemble(config2, 4, 3),
                                       0, config2)
    _, grads1 = compute_step_gradients(*batch, init_ensemble(config1, 4, 3),
                                       0, config1)
    np.testing.assert_allclose(grads2[0], grads1[0] / 2.0, rtol=1e-12)


def test_divergence_raises():
    data = tiny_dataset()
    config = small_config()
    ens = init_ensemble(config, 4, 3)
    bad_weights = np.full(8, np.inf)
    with pytest.raises(TrainingDiverged, match="non-finite"):
        compute_step_gradients(data.features[:8], data.labels[:8], ens, 0,
                               config, weights=bad_weights)


def test_empty_batch_rejected():
    config = small_config()
    ens = init_ensemble(config, 4, 3)
    with pytest.raises(ValueError, match="empty batch"):
        compute_step_gradients(np.empty((0, 4)), np.empty(0, dtype=int), ens, 0,
                               config)


def test_hook_can_prune_everything():
    data = tiny_dataset()
    config = small_config()
    ens = init_ensemble(config, 4, 3)
    before = [params_flat(m).copy() for m in ens.models]

    def drop_all(t, labels, mean_losses, mean_probs):
        return np.empty(0, dtype=int), labels

    report = train_step(data.features[:8], data.labels[:8], ens, 0, config,
                        batch_hook=drop_all)
    assert report.task_loss == 0.0
    for m, prev in zip(ens.models, before):
        assert params_flat(m).tobytes() == prev.tobytes()


# --------------------------------------------- gradients vs finite differences


def _fd_check(config, seed, *, frozen_q=True, loss_scale=1.0):
    """Compare compute_step_gradients with central differences on the full
    joint objective; with frozen_q the soft target is pinned at the base
    point, matching the default stop-gradient semantics."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    num_classes = int(rng.integers(2, 5))
    dim = int(rng.integers(2, 5))
    X = rng.normal(size=(n, dim)) * loss_scale
    y = rng.integers(0, num_classes, size=n)
    ens = init_ensemble(config, dim, num_classes)

    report, grads = compute_step_gradients(X, y, ens, warmup_steps(config), config)

    def batch_probs_logits():
        logits = np.stack([forward(m, X)[0] for m in ens.models])
        probs = numeric.softmax(logits.reshape(-1, num_classes)).reshape(logits.shape)
        return probs, logits

    probs0, logits0 = batch_probs_logits()
    losses0 = np.stack([
        -np.log(np.maximum(probs0[k, np.arange(n), y], numeric.PROB_FLOOR))
        for k in range(ens.num_models)])
    q0 = aggregate_targets(probs0, logits0, losses0, config.aggregate_mode)

    worst = 0.0
    for k in range(ens.num_models):
        base = params_flat(ens.models[k]).copy()

        def joint_loss(flat, k=k):
            set_params_flat(ens.models[k], flat)
            probs, logits = batch_probs_logits()
            losses = np.stack([
                -np.log(np.maximum(probs[m, np.arange(n), y], numeric.PROB_FLOOR))
                for m in range(ens.num_models)])
            task = float(np.mean([np.mean(losses[m])
                                  for m in range(ens.num_models)]))
            q = q0 if frozen_q else aggregate_targets(
                probs, logits, losses, config.aggregate_mode)
            value = task + config.gamma * agreement_loss(q, probs, numeric.KL_EPS)
            set_params_flat(ens.models[k], base)
            return value

        fd = finite_diff_grad(joint_loss, base, h=1e-5)
        denom = max(np.linalg.norm(fd), 1e-10)
        worst = max(worst, float(np.linalg.norm(grads[k] - fd) / denom))
    return worst


def test_gradients_match_finite_differences_frozen_target():
    for seed in range(5):
        config = small_config(num_models=2 + seed % 2, gamma=2.0, warmup_pct=0.0,
                              hidden_sizes=(4,), dropout=0.0, total_steps=10)
        assert _fd_check(config, seed) < 1e-4


def test_gradients_match_finite_differences_flow_through():
    for mode, seed in (("avg_prob", 11), ("avg_logit", 12), ("min_prob", 13)):
        config = small_config(num_models=2, gamma=2.0, warmup_pct=0.0,
                              hidden_sizes=(4,), dropout=0.0, total_steps=10,
                              aggregate_mode=mode, soft_target_gradient=True)
        assert _fd_check(config, seed, frozen_q=False) < 1e-4


# ---------------------------------------------------------------- train loop


def test_train_zero_steps_returns_init():
    data = tiny_dataset()
    config = small_config(total_steps=0)
    result = train(data, None, config)
    fresh = init_ensemble(config, data.num_features, data.num_classes)
    for got, exp in zip(result.ensemble.models, fresh.models):
        assert params_flat(got).tobytes() == params_flat(exp).tobytes()
    assert result.reports == []
    assert result.dev_scores is None
    # With a dev set and no epoch: an empty score matrix, and the initial
    # parameters as every model's checkpoint, which best_dev selection picks.
    dev = tiny_dataset(n=6, seed=2)
    result = train(data, dev, small_config(total_steps=0, selection_policy="best_dev"))
    assert result.dev_scores.shape == (0, config.num_models)
    for got, exp in zip(result.best_params, fresh.models):
        assert got.tobytes() == params_flat(exp).tobytes()
    assert result.selected_model().params.tobytes() == \
        params_flat(fresh.models[0]).tobytes()


def test_train_rejects_empty_dataset(hang_guard):
    empty = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3)
    with pytest.raises(ValueError, match="empty dataset"):
        train(empty, None, small_config())
    result = train(empty, empty, small_config(total_steps=0))
    assert result.reports == [] and result.dev_scores.shape == (0, 2)


def test_train_full_warmup_equals_gamma_zero():
    data = tiny_dataset(n=40)
    kwargs = dict(total_steps=15, batch_size=8, dropout=0.1, master_seed=3)
    full_warm = small_config(gamma=10.0, warmup_pct=100.0, **kwargs)
    no_gamma = small_config(gamma=0.0, warmup_pct=100.0, **kwargs)
    a = train(data, None, full_warm)
    b = train(data, None, no_gamma)
    for ma, mb in zip(a.ensemble.models, b.ensemble.models):
        assert params_flat(ma).tobytes() == params_flat(mb).tobytes()


def test_train_separable_data_converges():
    rng = np.random.default_rng(0)
    n = 120
    labels = np.arange(n) % 2
    feats = np.where(labels[:, None] == 1, 3.0, -3.0) + rng.normal(
        size=(n, 2)) * 0.2
    data = LabeledDataset(feats, labels, 2)
    config = small_config(num_models=2, total_steps=300, warmup_pct=20.0,
                          gamma=1.0, batch_size=16, base_lr=0.02,
                          hidden_sizes=(16,), dropout=0.0)
    result = train(data, None, config)
    for model in result.ensemble.models:
        assert np.mean(predict(model, feats) == labels) == 1.0
    assert result.reports[-1].agreement_loss < 1e-3


def test_train_dev_scores_shape():
    train_set = tiny_dataset(n=20, seed=1)
    dev = tiny_dataset(n=10, seed=2)
    config = small_config(total_steps=6, batch_size=10)  # 2 steps/epoch
    result = train(train_set, dev, config)
    assert result.dev_scores.shape == (3, config.num_models)
    assert result.dev_scores.dtype == np.float64
    # The last row scores the final parameters.
    for k, model in enumerate(result.ensemble.models):
        assert result.dev_scores[-1, k] == np.mean(
            predict(model, dev.features) == dev.labels)
    assert train(train_set, None, config).dev_scores is None


def _recording_predict(monkeypatch):
    """Record the parameters every predict call sees, in call order."""
    from coreglab import models

    seen = []
    original = models.predict

    def recording(model, features):
        seen.append(model.params.copy())
        return original(model, features)

    monkeypatch.setattr(models, "predict", recording)
    return seen


def test_train_best_checkpoint_is_first_max_dev(monkeypatch):
    # Scripted dev scores: model 0 peaks at epochs 1 and 2 (a tie), model 1
    # only at epoch 3; each checkpoint is taken at the first best epoch.
    script = iter([0.5, 0.1, 0.7, 0.2, 0.7, 0.3, 0.6, 0.9])
    seen = _recording_predict(monkeypatch)
    config = small_config(total_steps=8, batch_size=10)  # 4 epochs
    result = train(tiny_dataset(n=20, seed=1), tiny_dataset(n=10, seed=2), config,
                   eval_metric=lambda dataset, preds: next(script))
    assert result.dev_scores.tolist() == [[0.5, 0.1], [0.7, 0.2], [0.7, 0.3],
                                          [0.6, 0.9]]
    assert result.best_params[0].tobytes() == seen[2 * 1 + 0].tobytes()
    assert result.best_params[1].tobytes() == seen[2 * 3 + 1].tobytes()
    assert not np.shares_memory(result.best_params[1],
                                result.ensemble.models[1].params)


def test_train_best_checkpoint_is_max_dev():
    train_set = tiny_dataset(n=30, seed=4)
    dev = tiny_dataset(n=15, seed=5)
    for policy in ("first", "best_dev"):
        config = small_config(total_steps=12, batch_size=10, selection_policy=policy)
        result = train(train_set, dev, config)
        best_scores = result.dev_scores.max(axis=0)
        for k, params in enumerate(result.best_params):
            model = result.ensemble.models[k]
            restored = MlpModel(model.layer_sizes, model.dropout, model.seed, params)
            score = float(np.mean(predict(restored, dev.features) == dev.labels))
            assert score == best_scores[k]
        expected = best_scores[0] if policy == "first" else max(best_scores)
        restored = result.selected_model()
        score = float(np.mean(predict(restored, dev.features) == dev.labels))
        assert score == pytest.approx(expected)


@pytest.mark.parametrize("with_dev", [True, False])
def test_selected_model_wraps_a_copy_without_initialising(monkeypatch, with_dev):
    from coreglab import models

    dev = tiny_dataset(n=15, seed=5) if with_dev else None
    policy = "best_dev" if with_dev else "first"
    result = train(tiny_dataset(n=30, seed=4), dev,
                   small_config(total_steps=6, batch_size=10, selection_policy=policy))

    def refuse(*args, **kwargs):
        raise AssertionError("a restored model draws no initialisation")

    monkeypatch.setattr(models, "init_model", refuse)
    monkeypatch.setattr(models, "set_params_flat", refuse)
    chosen = int(np.argmax(result.dev_scores.max(axis=0))) if with_dev else 0
    model = result.ensemble.models[chosen]
    source = result.best_params[chosen]
    # Without a dev set the checkpoint is the model's own final buffer.
    assert (source is model.params) == (not with_dev)
    restored = result.selected_model()
    assert restored.params.tobytes() == source.tobytes()
    assert not np.shares_memory(restored.params, source)
    assert (restored.layer_sizes, restored.dropout, restored.seed) == \
        (model.layer_sizes, model.dropout, model.seed)


def test_train_best_dev_requires_dev():
    config = small_config(selection_policy="best_dev")
    with pytest.raises(ValueError, match="dev"):
        train(tiny_dataset(), None, config)


def test_train_weights_length_check():
    config = small_config()
    with pytest.raises(ValueError, match="weights"):
        train(tiny_dataset(n=24), None, config, weights=np.ones(10))


def test_train_trajectories_shape():
    data = tiny_dataset(n=20)
    config = small_config(total_steps=6, batch_size=10)
    result = train(data, None, config, track_trajectories=True)
    assert result.trajectories.shape == (3, 20)
    assert result.trajectories.dtype == bool


def test_train_zero_weight_instances_do_not_move_params():
    # weight 0 on an instance -> no gradient from it: train on [A; B] with B
    # zero-weighted equals training on A alone with the same batch contents.
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(8, 3))
    labels = rng.integers(0, 2, size=8)
    data = LabeledDataset(feats, labels, 2)
    config = small_config(num_models=1, total_steps=1, batch_size=8,
                          warmup_pct=100.0)
    ens_a = init_ensemble(config, 3, 2)
    ens_b = init_ensemble(config, 3, 2)
    weights = np.ones(8)
    weights[5] = 0.0
    train_step(feats, labels, ens_a, 0, config, weights=weights)

    flipped = labels.copy()
    flipped[5] = 1 - flipped[5]  # only the zero-weight row differs
    train_step(feats, flipped, ens_b, 0, config, weights=weights)
    assert params_flat(ens_a.models[0]).tobytes() == \
        params_flat(ens_b.models[0]).tobytes()


# ---------------------------------------------------------------- selection


def test_select_index_policies():
    assert select_index(None, "first", 2) == 0
    assert select_index([0.7, 0.9], "best_dev", 2) == 1
    assert select_index([0.8, 0.8], "best_dev", 2) == 0
    with pytest.raises(ValueError):
        select_index(None, "best_dev", 2)
    with pytest.raises(ValueError):
        select_index([0.5], "best_dev", 2)
    with pytest.raises(ValueError):
        select_index([0.5, 0.5], "oracle", 2)


def test_select_model_returns_member():
    config = small_config()
    ens = init_ensemble(config, 4, 3)
    assert ens.models[select_index([0.1, 0.9], "best_dev", ens.num_models)] \
        is ens.models[1]
    assert ens.models[select_index(None, "first", ens.num_models)] is ens.models[0]


def test_make_plain_config():
    config = small_config(num_models=4, gamma=9.0, dropout=0.3)
    plain = make_plain_config(config)
    assert plain.num_models == 1
    assert plain.gamma == 0.0
    assert plain.dropout == config.dropout
    assert plain.master_seed == config.master_seed


# --------------------------------------------------------- agreement knob


def test_gamma_reduces_model_disagreement():
    # Total-variation distance between the two models' predictive
    # distributions shrinks (median over seeds) as gamma grows.
    train_clean, _ = gen_gaussian_mixture(num_train=240, num_test=10, seed=77)
    rng = np.random.default_rng(78)
    labels = train_clean.labels.copy()
    flip = rng.choice(len(labels), size=72, replace=False)
    labels[flip] = (labels[flip] + 1 + rng.integers(
        0, train_clean.num_classes - 1, size=len(flip))) % train_clean.num_classes
    noisy = train_clean.with_labels(labels)

    def tv_for(gamma, seed):
        config = small_config(num_models=2, total_steps=90, warmup_pct=20.0,
                              gamma=gamma, batch_size=32, base_lr=0.02,
                              hidden_sizes=(16,), dropout=0.0, master_seed=seed)
        result = train(noisy, None, config)
        probs = [numeric.softmax(forward(m, noisy.features)[0])
                 for m in result.ensemble.models]
        return float(np.mean(np.sum(np.abs(probs[0] - probs[1]), axis=1) / 2))

    gammas = (0.0, 1.0, 5.0, 20.0)
    medians = [float(np.median([tv_for(g, seed) for seed in range(5)]))
               for g in gammas]
    assert all(a >= b - 1e-9 for a, b in zip(medians, medians[1:])), medians
