import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from coreglab import models, numeric
from coreglab.datasets import LabeledDataset, gen_gaussian_mixture
from coreglab.models import PREDICT_BLOCK_ROWS, WindowIds
from coreglab.noiselab import (SUSPECT_CSV_HEADER, FlipMask, NoiseSpec, auroc,
                               disagreement_report, inject_noise, noise_overfit_eval,
                               save_suspect_csv)
from coreglab.schema import ConfigError
from coreglab.trainer import AGGREGATE_MODES, TrainConfig, init_ensemble, train
from oracles import (ForgettingStats, first_learned_means, flip_flags,
                     forgetting_stats, load_flip_mask_csv, pairwise_auroc,
                     reference_disagreement_report, train_with_trajectories)


def tiny_dataset(n=30, num_classes=4, num_features=3, seed=0) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(n, num_features)),
                          rng.integers(0, num_classes, size=n), num_classes)


# ---------------------------------------------------------------- spec type


def test_noise_spec_validation():
    NoiseSpec(0.3, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(1.0, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(-0.1, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(0.1, seed=0, scheme="salt_and_pepper")
    with pytest.raises(ValueError, match="confusion"):
        NoiseSpec(0.1, seed=0, scheme="class_conditional")
    with pytest.raises(ValueError):
        NoiseSpec(0.1, seed=0, scheme="class_conditional",
                  confusion=np.array([[0.5, 0.6], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        NoiseSpec(0.1, seed=0, scheme="class_conditional",
                  confusion=np.ones((2, 3)) / 3)
    NoiseSpec(0.1, seed=0, scheme="class_conditional",
              confusion=np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_noise_spec_confusion_needs_class_conditional():
    """Only class_conditional reads a confusion table, so any other scheme
    refuses one, naming both keys, whatever its size; null stays allowed."""
    with pytest.raises(ConfigError, match=r"noise\.confusion .* noise\.scheme"):
        NoiseSpec(0.1, seed=0, confusion=np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert NoiseSpec(0.1, seed=0, confusion=None).confusion is None


def test_flip_mask_invariant():
    with pytest.raises(ValueError):
        FlipMask(np.array([0]), np.array([1]), np.array([1]), 5)
    mask = FlipMask(np.array([1, 3]), np.array([0, 2]), np.array([2, 0]), 5)
    assert len(mask) == 2
    np.testing.assert_array_equal(flip_flags(mask), [False, True, False, True, False])


def test_flip_mask_csv_round_trip(tmp_path):
    """The file names each flipped row by its dataset id, not its position."""
    mask = FlipMask(np.array([2, 7]), np.array([0, 1]), np.array([3, 2]), 10)
    ids = np.arange(500, 510) * 3
    path = tmp_path / "flips.csv"
    mask.save_csv(path, ids)
    assert path.read_text().splitlines() == ["id,original_label,noisy_label",
                                             "1506,0,3", "1521,1,2"]
    loaded = load_flip_mask_csv(path, ids)
    np.testing.assert_array_equal(loaded.indices, mask.indices)
    np.testing.assert_array_equal(loaded.original_labels, mask.original_labels)
    np.testing.assert_array_equal(loaded.noisy_labels, mask.noisy_labels)


# ---------------------------------------------------------------- injection


def test_inject_zero_rate_unchanged():
    data = tiny_dataset()
    noisy, mask = inject_noise(data, NoiseSpec(0.0, seed=1))
    np.testing.assert_array_equal(noisy.labels, data.labels)
    assert len(mask) == 0


def test_inject_flip_count_floor():
    data = tiny_dataset(n=1000)
    noisy, mask = inject_noise(data, NoiseSpec(0.0662, seed=2))
    assert len(mask) == 66
    assert int(np.sum(noisy.labels != data.labels)) == 66


def test_inject_flips_differ_from_original():
    data = tiny_dataset(n=200)
    noisy, mask = inject_noise(data, NoiseSpec(0.5, seed=3))
    assert len(mask) == 100
    assert np.all(mask.noisy_labels != mask.original_labels)
    np.testing.assert_array_equal(noisy.labels[mask.indices], mask.noisy_labels)
    np.testing.assert_array_equal(data.labels[mask.indices], mask.original_labels)


def test_inject_preserves_true_labels():
    """The mask is the record of the true labels: the noisy labels with the
    mask's original labels put back are the clean ones, and after a second
    injection undoing both masks, the last first, gives them back."""
    data = tiny_dataset(n=50)
    noisy, mask = inject_noise(data, NoiseSpec(0.2, seed=4))
    restored = noisy.labels.copy()
    restored[mask.indices] = mask.original_labels
    np.testing.assert_array_equal(restored, data.labels)
    renoised, remask = inject_noise(noisy, NoiseSpec(0.2, seed=5))
    restored = renoised.labels.copy()
    for m in (remask, mask):
        restored[m.indices] = m.original_labels
    np.testing.assert_array_equal(restored, data.labels)


def test_inject_shares_features_not_labels():
    data = tiny_dataset(n=50)
    clean = data.labels.copy()
    noisy, _ = inject_noise(data, NoiseSpec(0.2, seed=4))
    assert noisy.features is data.features
    noisy.labels[:] = 0
    np.testing.assert_array_equal(data.labels, clean)


def test_inject_on_narrow_labels_flips_as_on_int64():
    """Tagging labels are uint8: the flips, drawn as int64 and shifted past
    the original label in int64, are those of the same labels as int64, up to
    the top class 255, and the noisy copy keeps the narrow dtype."""
    labels = np.arange(1000) % 256
    results = []
    for dtype in (np.int64, np.uint8):
        data = LabeledDataset(np.zeros((1000, 1)), labels.astype(dtype), 256)
        noisy, mask = inject_noise(data, NoiseSpec(0.5, seed=8))
        assert noisy.labels.dtype == dtype and mask.noisy_labels.dtype == np.int64
        results.append((noisy.labels.tolist(), mask.indices.tolist(),
                        mask.original_labels.tolist(), mask.noisy_labels.tolist()))
    assert results[0] == results[1]
    assert max(results[1][3]) == 255


def test_inject_deterministic_and_seed_sensitive():
    data = tiny_dataset(n=120)
    a1, m1 = inject_noise(data, NoiseSpec(0.25, seed=6))
    a2, m2 = inject_noise(data, NoiseSpec(0.25, seed=6))
    b, m3 = inject_noise(data, NoiseSpec(0.25, seed=7))
    assert a1.labels.tobytes() == a2.labels.tobytes()
    np.testing.assert_array_equal(m1.indices, m2.indices)
    assert a1.labels.tobytes() != b.labels.tobytes() or \
        set(m1.indices) != set(m3.indices)


def test_inject_different_seeds_differ_on_large_sets():
    data = tiny_dataset(n=400)
    sets = []
    for seed in range(5):
        _, mask = inject_noise(data, NoiseSpec(0.05, seed=seed))
        sets.append(frozenset(int(i) for i in mask.indices))
    assert len(set(sets)) == 5


def test_inject_tiny_rate_flips_nothing_silently():
    """A rate that floors to no row flips none and warns of nothing: the
    empty mask is the record of it."""
    data = tiny_dataset(n=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        noisy, mask = inject_noise(data, NoiseSpec(0.05, seed=8))
    assert len(mask) == 0
    np.testing.assert_array_equal(noisy.labels, data.labels)


def test_inject_uniform_flip_hits_all_classes():
    data = tiny_dataset(n=2000, num_classes=4, seed=9)
    _, mask = inject_noise(data, NoiseSpec(0.5, seed=10))
    for old in range(4):
        news = mask.noisy_labels[mask.original_labels == old]
        assert set(int(x) for x in news) == set(range(4)) - {old}


def test_inject_class_conditional_follows_table():
    # class 0 always becomes 1; class 1 always stays 1 (no flip recorded)
    data = LabeledDataset(np.zeros((100, 2)),
                          np.array([0, 1] * 50), 2)
    conf = np.array([[0.0, 1.0], [0.0, 1.0]])
    spec = NoiseSpec(0.5, seed=11, scheme="class_conditional", confusion=conf)
    noisy, mask = inject_noise(data, spec)
    assert np.all(mask.original_labels == 0)
    assert np.all(mask.noisy_labels == 1)
    # unchanged draws (class-1 rows resampled to 1) are excluded from the mask
    assert len(mask) == int(np.sum(noisy.labels != data.labels))
    assert len(mask) < 50


def test_inject_class_conditional_table_must_fit_classes():
    spec = NoiseSpec(0.5, seed=0, scheme="class_conditional", confusion=[[1.0]])
    with pytest.raises(ValueError, match="3 classes"):
        inject_noise(tiny_dataset(num_classes=3), spec)


def test_inject_single_class_error():
    data = LabeledDataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError, match="2 classes"):
        inject_noise(data, NoiseSpec(0.5, seed=0))


# ---------------------------------------------------------- overfit protocol


def _overfit_fixture(seed=0):
    train_set, _ = gen_gaussian_mixture(num_train=120, num_test=10,
                                        num_classes=3, seed=seed)
    pool, _ = gen_gaussian_mixture(num_train=60, num_test=10, num_classes=3,
                                   seed=seed + 1000)
    _, mask = inject_noise(pool, NoiseSpec(0.5, seed=seed + 2000))
    return train_set, pool, mask


def test_noise_overfit_rows_shape():
    train_set, pool, mask = _overfit_fixture()
    config = TrainConfig(num_models=2, total_steps=6, batch_size=64,
                         warmup_pct=50.0, hidden_sizes=(8,), dropout=0.0,
                         master_seed=0)
    # One curve per distinct gamma, keyed in first-seen order.
    curves = noise_overfit_eval(train_set, pool, mask, (5.0, 0.0, 5.0), config)
    assert list(curves) == [5.0, 0.0]
    assert len(curves[0.0]) == len(curves[5.0]) > 0
    for curve in curves.values():
        assert all(0.0 <= value <= 1.0 for value in curve)


def test_noise_overfit_gamma_zero_reduces_to_baseline():
    train_set, pool, mask = _overfit_fixture(seed=1)
    config = TrainConfig(num_models=2, total_steps=4, batch_size=64,
                         warmup_pct=0.0, hidden_sizes=(8,), dropout=0.0,
                         master_seed=3)
    curves = noise_overfit_eval(train_set, pool, mask, (0.0,), config)
    assert list(curves) == [0.0]
    again = noise_overfit_eval(train_set, pool, mask, (0.0,), config)
    assert curves == again


def test_noise_overfit_reports_first_model_under_any_policy():
    # Selection never affects training: both policies report model 0's
    # clean-set score at every epoch. The union is the training rows, then
    # the flipped pool rows with their noisy labels; the clean set is those
    # rows with their original labels.
    train_set, pool, mask = _overfit_fixture(seed=4)
    config = TrainConfig(num_models=2, total_steps=6, batch_size=32,
                         warmup_pct=0.0, hidden_sizes=(8,), dropout=0.0,
                         master_seed=5)
    first = noise_overfit_eval(train_set, pool, mask, (0.0, 5.0), config)
    best = noise_overfit_eval(train_set, pool, mask, (0.0, 5.0),
                              replace(config, selection_policy="best_dev"))
    assert best == first
    flipped = pool.features[mask.indices]
    union = LabeledDataset(np.vstack([train_set.features, flipped]),
                           np.concatenate([train_set.labels, mask.noisy_labels]), 3)
    clean = LabeledDataset(flipped, pool.labels[mask.indices], 3)
    result = train(union, clean, replace(config, gamma=5.0))
    assert first[5.0] == result.dev_scores[:, 0].tolist()


def test_noise_overfit_rejects_overlap():
    # A pool that is the training set itself shares every flipped row.
    train_set, _, _ = _overfit_fixture(seed=2)
    _, mask = inject_noise(train_set, NoiseSpec(0.1, seed=7))
    config = TrainConfig(num_models=2, total_steps=2, hidden_sizes=(4,))
    with pytest.raises(ValueError, match="overlap"):
        noise_overfit_eval(train_set, train_set, mask, (0.0,), config)


# ---------------------------------------------------------------- forgetting


def test_forgetting_worked_examples():
    stats = forgetting_stats(np.array([[True], [True], [True]]))
    assert stats.first_learned[0] == 0
    assert stats.forgetting_count[0] == 0
    assert not stats.never_learned[0]

    stats = forgetting_stats(np.array([[False], [False], [False]]))
    assert stats.first_learned[0] == -1
    assert stats.forgetting_count[0] == 0
    assert stats.never_learned[0]

    stats = forgetting_stats(np.array([[True], [False], [True]]))
    assert stats.forgetting_count[0] == 1
    assert stats.first_learned[0] == 0


def test_forgetting_matches_enumeration():
    # every correctness bit-string of length <= 5, checked per instance
    for length in range(1, 6):
        for bits in itertools.product([False, True], repeat=length):
            traj = np.array(bits)[:, None]
            stats = forgetting_stats(traj)
            expected_first = bits.index(True) if any(bits) else -1
            expected_forget = sum(1 for a, b in zip(bits, bits[1:])
                                  if a and not b)
            assert stats.first_learned[0] == expected_first, bits
            assert stats.forgetting_count[0] == expected_forget, bits
            assert stats.never_learned[0] == (not any(bits)), bits


def test_forgetting_total_transitions_cross_check():
    rng = np.random.default_rng(13)
    traj = rng.random((12, 40)) < 0.5
    stats = forgetting_stats(traj)
    direct = int(np.sum(traj[:-1].astype(int) - traj[1:].astype(int) == 1))
    assert int(stats.forgetting_count.sum()) == direct


def test_forgetting_errors():
    with pytest.raises(ValueError):
        forgetting_stats(np.empty((0, 4)))
    with pytest.raises(ValueError):
        forgetting_stats(np.array([True, False]))


def test_first_learned_means_censoring():
    stats = ForgettingStats(first_learned=np.array([2, -1, 0, 1]),
                            forgetting_count=np.zeros(4, dtype=np.int64),
                            never_learned=np.array([False, True, False, False]))
    flagged = np.array([True, True, False, False])
    f_mean, u_mean = first_learned_means(stats, flagged, horizon=10)
    assert f_mean == pytest.approx((2 + 10) / 2)
    assert u_mean == pytest.approx(0.5)
    f_only, u_nan = first_learned_means(stats, np.ones(4, dtype=bool), 10)
    assert math.isnan(u_nan) and not math.isnan(f_only)
    with pytest.raises(ValueError):
        first_learned_means(stats, np.ones(3, dtype=bool), 10)


def test_memorization_delay_on_noisy_synthetic():
    # flipped instances take longer to fit than clean ones under plain training
    train_set, _ = gen_gaussian_mixture(num_train=300, num_test=10, seed=20)
    noisy, mask = inject_noise(train_set, NoiseSpec(0.3, seed=21))
    config = TrainConfig(num_models=1, total_steps=100, warmup_pct=100.0,
                         gamma=0.0, batch_size=32, base_lr=0.02,
                         hidden_sizes=(16,), dropout=0.0, master_seed=22)
    _, trajectories = train_with_trajectories(noisy, config)
    stats = forgetting_stats(trajectories)
    f_mean, u_mean = first_learned_means(stats, flip_flags(mask),
                                         horizon=len(trajectories))
    assert f_mean > u_mean


# ---------------------------------------------------------------- suspects


def test_disagreement_report_consensus_unflagged():
    data = tiny_dataset(n=20, num_classes=3)
    config = TrainConfig(num_models=2, total_steps=0, hidden_sizes=(8,),
                         dropout=0.0)
    # train to convergence on trivially easy labels so q matches the labels
    easy = LabeledDataset(np.eye(3)[data.labels] * 4.0, data.labels, 3)
    run_cfg = TrainConfig(num_models=2, total_steps=200, warmup_pct=20.0,
                          gamma=1.0, batch_size=10, base_lr=0.02,
                          hidden_sizes=(8,), dropout=0.0, master_seed=30)
    result = train(easy, None, run_cfg)
    report = disagreement_report(result.ensemble, easy, run_cfg)
    assert not report["flagged"].any()
    np.testing.assert_array_equal(report["prediction"], report["label"])


def test_disagreement_report_flags_and_ranks():
    data = tiny_dataset(n=15, num_classes=3, seed=31)
    config = TrainConfig(num_models=2, total_steps=0, hidden_sizes=(8,),
                         dropout=0.0, master_seed=31)
    ens = init_ensemble(config, data.num_features, data.num_classes)
    report = disagreement_report(ens, data, config)
    assert list(report) == SUSPECT_CSV_HEADER
    assert all(column.shape == (15,) for column in report.values())
    assert set(report["id"].tolist()) == set(range(15))
    losses = report["sup_loss"].tolist()
    assert losses == sorted(losses, reverse=True)
    np.testing.assert_array_equal(report["flagged"],
                                  report["prediction"] != report["label"])
    assert np.all(report["agreement_kl"] >= -1e-10)


def test_disagreement_report_detects_planted_flips():
    train_set, _ = gen_gaussian_mixture(num_train=200, num_test=10, seed=32)
    noisy, mask = inject_noise(train_set, NoiseSpec(0.2, seed=33))
    config = TrainConfig(num_models=2, total_steps=120, warmup_pct=30.0,
                         gamma=2.0, batch_size=32, base_lr=0.02,
                         hidden_sizes=(16,), dropout=0.0, master_seed=34)
    result = train(noisy, None, config)
    report = disagreement_report(result.ensemble, noisy, config)
    scores = np.empty(len(noisy))
    scores[report["id"]] = report["sup_loss"]
    assert auroc(scores, flip_flags(mask)) > 0.5


def test_save_suspect_csv(tmp_path):
    report = {"id": np.array([3, 0]), "label": np.array([1, 0]),
              "prediction": np.array([2, 0]), "flagged": np.array([True, False]),
              "agreement_kl": np.array([0.5, 0.0]), "sup_loss": np.array([1.25, 0.1])}
    path = tmp_path / "suspects.csv"
    save_suspect_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "id,label,prediction,flagged,agreement_kl,sup_loss"
    assert lines[1] == "3,1,2,1,0.5,1.25"
    assert lines[2] == "0,0,0,0,0.0,0.1"


B = PREDICT_BLOCK_ROWS


def _audit_set(form, rows, width, num_classes, seed):
    """Random rows of either feature form, with shuffled record ids."""
    rng = np.random.default_rng(seed)
    features = (rng.normal(size=(rows, width)) if form == "dense"
                else WindowIds(rng.integers(0, width, size=(rows, 3)), width))
    return LabeledDataset(features, rng.integers(0, num_classes, size=rows),
                          num_classes, ids=rng.permutation(rows) * 7 + 3)


@pytest.mark.parametrize("mode", AGGREGATE_MODES)
@pytest.mark.parametrize("num_models", [1, 2, 3])
@pytest.mark.parametrize("form", ["dense", "window_ids"])
@pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 2 * B + 1])
def test_blocked_report_equals_one_pass_over_all_rows(rows, form, num_models, mode):
    """Within one block every column matches the whole-split reference to
    the bit. Across blocks a one-row block's product may differ from the
    whole split's in the last bits, so the float columns are compared to a
    relative 1e-12 and the rest exactly."""
    config = TrainConfig(num_models=num_models, total_steps=0, hidden_sizes=(16,),
                         dropout=0.0, aggregate_mode=mode, master_seed=rows)
    data = _audit_set(form, rows, 40, 5, seed=rows + num_models)
    ens = init_ensemble(config, 40, 5)
    report = disagreement_report(ens, data, config)
    expected = reference_disagreement_report(ens, data, config)
    assert list(report) == list(expected) == SUSPECT_CSV_HEADER
    for name in SUSPECT_CSV_HEADER:
        got, want = report[name], expected[name]
        assert got.dtype == want.dtype and got.shape == want.shape == (rows,), name
        if rows <= B or name not in ("agreement_kl", "sup_loss"):
            assert got.tobytes() == want.tobytes(), name
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=name)


@pytest.mark.parametrize("blocks", [8, 16])
def test_report_memory_does_not_grow_with_rows(blocks):
    """Traced allocations while reporting on two and on four models stay
    under the float64 activations of four blocks at the hidden width; one
    forward over all rows needs more than that for a single hidden layer's
    activations, and so would the models' hidden buffers and scratches if
    each model had its own."""
    hidden = 256
    data = _audit_set("window_ids", blocks * B + 1, 50, 4, seed=6)
    for num_models in (2, 4):
        config = TrainConfig(num_models=num_models, total_steps=0,
                             hidden_sizes=(hidden,), dropout=0.0, master_seed=5)
        ens = init_ensemble(config, 50, 4)
        tracemalloc.start()
        try:
            disagreement_report(ens, data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * B * hidden * 8, num_models


@pytest.mark.parametrize("mode, checks_per_block",
                         [("avg_prob", 1), ("min_prob", 1), ("avg_logit", 2)])
def test_report_checks_each_block_of_logits_once(monkeypatch, mode, checks_per_block):
    """eval_blocks checks each block's stacked logits, and the report
    normalises them without checking them again; only avg_logit's softmax
    of the mean logits checks another array."""
    calls = []
    check = numeric.finite_logits

    def counting(logits, where=""):
        calls.append(where)
        return check(logits, where)

    # Both lookup sites: models imports the name, and softmax reads numeric's.
    monkeypatch.setattr(numeric, "finite_logits", counting)
    monkeypatch.setattr(models, "finite_logits", counting)
    config = TrainConfig(num_models=2, total_steps=0, hidden_sizes=(8,), dropout=0.0,
                         aggregate_mode=mode, master_seed=4)
    disagreement_report(init_ensemble(config, 40, 5),
                        _audit_set("dense", 3 * B + 1, 40, 5, seed=4), config)
    assert calls.count(" in evaluation") == 4
    assert len(calls) == 4 * checks_per_block


# ---------------------------------------------------------------- auroc


def test_auroc_perfect_and_inverted():
    scores = np.array([0.9, 0.8, 0.2, 0.1])
    flags = np.array([True, True, False, False])
    assert auroc(scores, flags) == 1.0
    assert auroc(-scores, flags) == 0.0


def test_auroc_random_scores_near_half():
    rng = np.random.default_rng(14)
    scores = rng.random(4000)
    flags = rng.random(4000) < 0.3
    assert abs(auroc(scores, flags) - 0.5) < 0.05


def test_auroc_tie_midpoint():
    # one tied positive/negative pair contributes half credit
    assert auroc(np.array([1.0, 1.0]), np.array([True, False])) == 0.5
    assert auroc(np.array([1.0, 1.0, 0.0]),
                 np.array([True, False, False])) == 0.75


def test_auroc_matches_pairwise_reference():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(5, 40))
        scores = rng.integers(0, 6, size=n).astype(float)  # force ties
        flags = rng.random(n) < 0.4
        if flags.all() or not flags.any():
            continue
        assert auroc(scores, flags) == pytest.approx(
            pairwise_auroc(scores.tolist(), flags.tolist()), rel=1e-12)


def test_auroc_errors():
    with pytest.raises(ValueError):
        auroc(np.array([1.0, 2.0]), np.array([True, True]))
    with pytest.raises(ValueError):
        auroc(np.array([1.0, 2.0]), np.array([False, False]))
    with pytest.raises(ValueError):
        auroc(np.array([1.0]), np.array([True, False]))
