import numpy as np
import pytest

from coreglab.baselines import (InstanceWeights, PruneSchedule,
                                crossweigh_weights, fold_partition,
                                make_relabel_hook, make_small_loss_hook,
                                relabel, schedule_delta, small_loss_select,
                                train_plain)
from coreglab.datasets import LabeledDataset, gen_gaussian_mixture
from coreglab.models import params_flat, predict
from coreglab.rng import substream
from coreglab.trainer import TrainConfig, make_plain_config, train
from oracles import load_weights_csv


def small_config(**kwargs) -> TrainConfig:
    base = dict(num_models=1, total_steps=10, warmup_pct=100.0, gamma=0.0,
                batch_size=8, base_lr=0.01, hidden_sizes=(8,), dropout=0.0,
                master_seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


def tiny_dataset(n=24, num_classes=3, num_features=4, seed=0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(n, num_features)),
                          rng.integers(0, num_classes, size=n), num_classes)


# ---------------------------------------------------------------- schedule


def test_schedule_worked_examples():
    sched = PruneSchedule(8.0, 100)
    assert schedule_delta(sched, 50) == pytest.approx(4.0)
    assert schedule_delta(sched, 0) == 0.0
    assert schedule_delta(sched, 100) == 8.0


def test_schedule_grid_exact():
    for delta in (2.0, 5.0, 8.0):
        for total in (40, 100, 1000):
            sched = PruneSchedule(delta, total)
            quarter = total // 4
            assert schedule_delta(sched, quarter) == pytest.approx(
                delta * quarter / total, rel=1e-14)
            assert schedule_delta(sched, total // 2) == pytest.approx(
                delta / 2, rel=1e-14)
            assert schedule_delta(sched, total) == delta


def test_schedule_linear_nondecreasing():
    sched = PruneSchedule(5.0, 33)
    values = [schedule_delta(sched, t) for t in range(34)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # linearity: equally spaced steps give equally spaced deltas
    diffs = np.diff(values)
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)


def test_schedule_validation():
    with pytest.raises(ValueError):
        PruneSchedule(-1.0, 10)
    with pytest.raises(ValueError):
        PruneSchedule(101.0, 10)
    with pytest.raises(ValueError):
        PruneSchedule(5.0, 0)
    sched = PruneSchedule(5.0, 10)
    with pytest.raises(ValueError):
        schedule_delta(sched, 11)
    with pytest.raises(ValueError):
        schedule_delta(sched, -1)


# ---------------------------------------------------------------- selection


def test_small_loss_select_zero_delta_keeps_all():
    losses = np.array([3.0, 1.0, 2.0])
    np.testing.assert_array_equal(small_loss_select(losses, 0.0), [0, 1, 2])


def test_small_loss_select_quota_floor():
    # N=64 at 4% -> floor(2.56) = 2 pruned, 62 kept
    losses = np.arange(64, dtype=float)
    kept = small_loss_select(losses, 4.0)
    assert len(kept) == 62
    np.testing.assert_array_equal(kept, np.arange(62))


def test_small_loss_select_prunes_top_suffix():
    losses = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    kept = small_loss_select(losses, 40.0)  # floor(2) pruned
    np.testing.assert_array_equal(kept, [0, 1, 2])


def test_small_loss_select_tie_prunes_lower_index():
    losses = np.array([1.0, 1.0, 0.5, 1.0])
    kept = small_loss_select(losses, 25.0)  # quota 1
    np.testing.assert_array_equal(kept, [1, 2, 3])


def test_small_loss_select_exact_count_property():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 80))
        delta = float(rng.uniform(0, 100))
        losses = rng.normal(size=n)
        kept = small_loss_select(losses, delta)
        assert len(kept) == n - int(delta * n // 100)
        assert np.all(np.diff(kept) > 0)


def test_small_loss_select_errors():
    with pytest.raises(ValueError):
        small_loss_select(np.empty(0), 5.0)
    with pytest.raises(ValueError):
        small_loss_select(np.ones((2, 2)), 5.0)


# ---------------------------------------------------------------- relabel


def test_relabel_zero_delta_unchanged():
    labels = np.array([0, 1, 2])
    out = relabel(labels, [1.0, 2.0, 3.0], np.eye(3), 0.0)
    np.testing.assert_array_equal(out, labels)
    assert out is not labels


def test_relabel_takes_argmax():
    labels = np.array([0, 0, 0, 0])
    losses = np.array([0.1, 0.2, 0.3, 9.0])
    preds = np.tile([0.1, 0.7, 0.2], (4, 1))
    out = relabel(labels, losses, preds, 25.0)  # quota 1: index 3
    np.testing.assert_array_equal(out, [0, 0, 0, 1])


def test_relabel_same_label_consumes_quota():
    labels = np.array([1, 0])
    losses = np.array([5.0, 1.0])
    preds = np.array([[0.2, 0.8], [0.9, 0.1]])
    # quota 1 goes to index 0 whose argmax equals its old label
    out = relabel(labels, losses, preds, 50.0)
    np.testing.assert_array_equal(out, labels)


def test_relabel_matches_direct_reimplementation():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        num_classes = int(rng.integers(2, 5))
        labels = rng.integers(0, num_classes, size=n)
        losses = rng.normal(size=n)
        preds = rng.dirichlet(np.ones(num_classes), size=n)
        delta = float(rng.uniform(0, 100))

        quota = int(delta * n // 100)
        ranked = sorted(range(n), key=lambda i: (-losses[i], i))
        expected = labels.copy()
        for i in ranked[:quota]:
            expected[i] = int(np.argmax(preds[i]))

        np.testing.assert_array_equal(relabel(labels, losses, preds, delta),
                                      expected)


def test_relabel_alignment_errors():
    with pytest.raises(ValueError):
        relabel([0, 1], [1.0], np.eye(2), 0.0)
    with pytest.raises(ValueError):
        relabel([0, 1], [1.0, 2.0], np.eye(3), 0.0)


# ---------------------------------------------------------------- hooks


def test_small_loss_hook_end_to_end():
    sched = PruneSchedule(50.0, 10)
    hook = make_small_loss_hook(sched)
    losses = np.array([0.1, 5.0, 0.2, 4.0])
    keep, labels = hook(10, np.array([0, 1, 2, 0]), losses, None)
    np.testing.assert_array_equal(keep, [0, 2])
    np.testing.assert_array_equal(labels, [0, 1, 2, 0])


def test_relabel_hook_end_to_end():
    sched = PruneSchedule(50.0, 10)
    hook = make_relabel_hook(sched)
    losses = np.array([0.1, 5.0])
    preds = np.array([[0.9, 0.1], [0.2, 0.8]])
    keep, labels = hook(10, np.array([0, 0]), losses, preds)
    np.testing.assert_array_equal(keep, [0, 1])
    np.testing.assert_array_equal(labels, [0, 1])


def test_hooked_training_runs():
    data = tiny_dataset(n=32)
    config = small_config(total_steps=8)
    sched = PruneSchedule(20.0, config.total_steps)
    result = train(data, None, make_plain_config(config),
                   batch_hook=make_small_loss_hook(sched))
    assert len(result.reports) == 8
    result2 = train(data, None, make_plain_config(config),
                    batch_hook=make_relabel_hook(sched))
    assert len(result2.reports) == 8


# ---------------------------------------------------------------- weights


def test_instance_weights_validation():
    InstanceWeights(np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        InstanceWeights(np.array([1.5]))
    with pytest.raises(ValueError):
        InstanceWeights(np.array([-0.1]))
    with pytest.raises(ValueError):
        InstanceWeights(np.ones((2, 2)))


def test_instance_weights_ones():
    w = InstanceWeights(np.ones(5))
    np.testing.assert_array_equal(w.values, np.ones(5))


def test_instance_weights_csv_round_trip(tmp_path):
    """One row per instance, in order, named by its dataset id."""
    w = InstanceWeights(np.array([1.0, 0.7, 0.49, 0.0]))
    ids = np.array([40, 7, 12, 3])
    path = tmp_path / "weights.csv"
    w.save_csv(path, ids)
    loaded = load_weights_csv(path, ids)
    assert loaded.values.tobytes() == w.values.tobytes()
    assert path.read_text().splitlines() == ["id,weight", "40,1.0", "7,0.7",
                                             "12,0.49", "3,0.0"]


def test_instance_weights_load_rejects_bad_header(tmp_path):
    path = tmp_path / "weights.csv"
    path.write_text("instance,w\n0,1.0\n")
    with pytest.raises(ValueError, match="header"):
        load_weights_csv(path, [0])


# ---------------------------------------------------------------- plain


def test_train_plain_bitwise_equals_single_model_engine():
    data = tiny_dataset(n=40)
    dev = tiny_dataset(n=16, seed=9)
    config = small_config(num_models=2, gamma=4.0, total_steps=12,
                          dropout=0.1, master_seed=11)
    a = train_plain(data, dev, config)
    b = train(data, dev, make_plain_config(config))
    assert a.reports == b.reports
    assert a.dev_scores.tobytes() == b.dev_scores.tobytes()
    assert a.best_params[0].tobytes() == b.best_params[0].tobytes()
    assert params_flat(a.ensemble.models[0]).tobytes() == \
        params_flat(b.ensemble.models[0]).tobytes()


def test_train_plain_accepts_instance_weights():
    data = tiny_dataset(n=16)
    config = small_config(total_steps=4)
    weights = InstanceWeights(np.ones(16))
    result = train_plain(data, None, config, weights=weights)
    bare = train_plain(data, None, config)
    assert result.reports == bare.reports


def test_train_plain_converges_on_separable_data():
    rng = np.random.default_rng(3)
    n = 100
    labels = np.arange(n) % 2
    feats = np.where(labels[:, None] == 1, 2.5, -2.5) + rng.normal(
        size=(n, 2)) * 0.2
    data = LabeledDataset(feats, labels, 2)
    config = small_config(total_steps=200, batch_size=16, base_lr=0.02,
                          hidden_sizes=(16,))
    result = train_plain(data, None, config)
    assert np.mean(predict(result.ensemble.models[0], feats) == labels) == 1.0


# ---------------------------------------------------------------- crossweigh


def test_fold_partition_properties():
    rng = np.random.default_rng(4)
    for n, folds in ((10, 2), (11, 3), (50, 5)):
        parts = fold_partition(n, folds, rng)
        assert len(parts) == folds
        joined = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(joined, np.arange(n))
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


def test_fold_partition_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        fold_partition(10, 1, rng)
    with pytest.raises(ValueError):
        fold_partition(3, 4, rng)


@pytest.mark.parametrize("n, folds", [(10, 3), (23, 4), (7, 7)])
def test_crossweigh_trains_each_fold_on_the_other_rows_in_order(monkeypatch, n, folds):
    """Each fold model trains on the rows outside its reserved fold, in
    ascending order: the sorted np.setdiff1d complement, dtype included, also
    when the folds are uneven."""
    data = tiny_dataset(n=n, num_classes=2)
    config = small_config(total_steps=2)
    subsets = []
    original = LabeledDataset.subset

    def recording(dataset, indices):
        subsets.append(indices)
        return original(dataset, indices)

    monkeypatch.setattr(LabeledDataset, "subset", recording)
    crossweigh_weights(data, folds=folds, iterations=2, config=config)
    expected = [np.sort(np.setdiff1d(np.arange(n), reserved))
                for it in range(2)
                for reserved in fold_partition(
                    n, folds, substream(config.master_seed, f"crossweigh.{it}"))]
    assert len(subsets) == len(expected) == 2 * folds
    for got, want in zip(subsets, expected):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_crossweigh_weight_values_are_powers():
    data = tiny_dataset(n=20, num_classes=2)
    config = small_config(total_steps=5)
    weights = crossweigh_weights(data, folds=2, iterations=2, config=config,
                                 base_weight=0.7)
    assert len(weights.values) == 20
    legal = {round(0.7 ** c, 12) for c in range(3)}
    assert {round(float(w), 12) for w in weights.values} <= legal


def test_crossweigh_clean_easy_data_keeps_weight_one():
    # Strongly separated clusters with correct labels: out-of-fold models
    # agree with every label, so no instance is down-weighted.
    train_set, _ = gen_gaussian_mixture(num_train=80, num_test=10,
                                        num_classes=2, seed=5, class_sep=4.0,
                                        scale=0.3)
    config = small_config(total_steps=60, batch_size=16, base_lr=0.02,
                          hidden_sizes=(8,))
    weights = crossweigh_weights(train_set, folds=2, iterations=1, config=config)
    np.testing.assert_array_equal(weights.values, np.ones(80))


def test_crossweigh_flags_planted_wrong_label():
    train_set, _ = gen_gaussian_mixture(num_train=60, num_test=10,
                                        num_classes=2, seed=6, class_sep=4.0,
                                        scale=0.3)
    labels = train_set.labels.copy()
    labels[7] = 1 - labels[7]
    planted = train_set.with_labels(labels)
    config = small_config(total_steps=60, batch_size=16, base_lr=0.02,
                          hidden_sizes=(8,))
    weights = crossweigh_weights(planted, folds=3, iterations=2, config=config,
                                 base_weight=0.7)
    assert weights.values[7] == pytest.approx(0.7 ** 2)
    assert np.mean(weights.values == 1.0) > 0.9


def test_crossweigh_deterministic():
    data = tiny_dataset(n=18, num_classes=2)
    config = small_config(total_steps=4)
    a = crossweigh_weights(data, folds=3, iterations=1, config=config)
    b = crossweigh_weights(data, folds=3, iterations=1, config=config)
    assert a.values.tobytes() == b.values.tobytes()


def test_crossweigh_validation():
    data = tiny_dataset(n=10)
    config = small_config()
    with pytest.raises(ValueError):
        crossweigh_weights(data, folds=2, iterations=0, config=config)
    with pytest.raises(ValueError):
        crossweigh_weights(data, folds=2, iterations=1, config=config,
                           base_weight=0.0)
    with pytest.raises(ValueError):
        crossweigh_weights(data, folds=11, iterations=1, config=config)
