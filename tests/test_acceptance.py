"""End-to-end acceptance suite.

Each test covers one numbered acceptance check and prints a visible
PASS/FAIL line (bypassing capture) so the run log doubles as a short
report. The empirical thresholds were pinned once against calibration
runs of the shipped protocol and are asserted as regressions here.
"""
import csv
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from coreglab import numeric
from coreglab.cli import main as cli_main
from coreglab.datasets import (TASKS, build_relation_dataset, build_tagging_dataset,
                               gen_gaussian_mixture, gen_tagging_corpus, make_metric)
from coreglab.experiment import (ExperimentConfig, run_audit, run_experiment,
                                 run_noise_analysis)
from coreglab.metrics import (Span, TagScheme, bio_decode, relation_micro_f1,
                              span_f1)
from coreglab.models import predict
from coreglab.noiselab import NoiseSpec, inject_noise
from coreglab.trainer import (TrainConfig, aggregate_targets, agreement_loss,
                              make_plain_config, train, warmup_steps)
from oracles import (direct_agreement_loss, direct_aggregate, first_learned_means,
                     flip_flags, forgetting_stats, gen_relation_corpus,
                     train_with_trajectories)
from test_trainer import _fd_check, small_config, tiny_dataset

# The noisy-label benchmark protocol used by the empirical checks below:
# a 4-class Gaussian-mixture task whose class signal lives in 2 of 50
# feature dimensions (the spare dimensions give the network room to
# memorize individual instances, which is the failure mode under study),
# 2000 train / 1000 dev / 500 test, 30% uniform label flips on train and
# dev, two jointly trained models, agreement weight 5, 30% warm-up,
# dev-based model selection.
PROTOCOL_DATA = {"train_size": 2000, "dev_size": 1000, "test_size": 500,
                 "num_classes": 4, "num_features": 50, "class_sep": 2.5}
PROTOCOL_TRAIN = {"num_models": 2, "gamma": 5.0, "warmup_pct": 30.0,
                  "batch_size": 64, "hidden_sizes": [32], "dropout": 0.1,
                  "base_lr": 0.005, "selection_policy": "best_dev"}
PROTOCOL_SEEDS = [1, 2, 3, 4, 5]
PROTOCOL_EPOCHS = 40
PROTOCOL_NOISE_RATE = 0.3


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        line = f"[{num:2d}] {'PASS' if ok else 'FAIL'}  {name}"
        if detail:
            line += f"  ({detail})"
        with capsys.disabled():
            print(line)

    return _report


def test_agreement_loss_exactness(report):
    rng = np.random.default_rng(20250815)
    modes = ("avg_prob", "avg_logit", "min_prob")
    worst = 0.0
    started = time.monotonic()
    for trial in range(1000):
        num_models = int(rng.integers(2, 5))
        num_classes = int(rng.integers(2, 6))
        batch = int(rng.integers(1, 9))
        if trial % 5 == 0:
            row = rng.dirichlet(np.ones(num_classes), size=batch)
            probs = np.broadcast_to(row, (num_models, batch, num_classes)).copy()
        else:
            probs = rng.dirichlet(np.ones(num_classes),
                                  size=(num_models, batch))
        logits = np.log(probs + 1e-9)
        losses = rng.uniform(0.1, 2.0, size=(num_models, batch))
        mode = modes[trial % 3]
        q = aggregate_targets(probs, logits, losses, mode)
        value = agreement_loss(q, probs, 1e-12)
        direct = direct_agreement_loss(probs, q, 1e-12)
        worst = max(worst, abs(value - direct))
        assert abs(value - direct) < 1e-10
        assert value >= -10.0 * 1e-12
        if trial % 5 == 0:
            assert abs(value) < 1e-12
    elapsed = time.monotonic() - started
    ok = worst < 1e-10 and elapsed < 5.0
    report(1, "agreement loss matches direct reference on 1000 configs",
           ok, f"worst |diff|={worst:.2e}, {elapsed:.2f}s")
    assert elapsed < 5.0


def test_gradient_fidelity(report):
    rng = np.random.default_rng(7)
    worst = 0.0
    started = time.monotonic()
    for trial in range(100):
        config = small_config(
            num_models=int(rng.integers(2, 4)),
            gamma=float(rng.choice([0.5, 1.0, 5.0])),
            warmup_pct=0.0,
            hidden_sizes=(int(rng.integers(3, 6)),),
            dropout=0.0,
            total_steps=10,
            aggregate_mode=("avg_prob", "avg_logit", "min_prob")[trial % 3])
        worst = max(worst, _fd_check(config, 1000 + trial, frozen_q=True))
    elapsed = time.monotonic() - started
    ok = worst < 1e-4 and elapsed < 30.0
    report(2, "joint-loss gradients match finite differences on 100 nets",
           ok, f"worst rel err={worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-4
    assert elapsed < 30.0


def test_aggregate_semantics(report):
    rng = np.random.default_rng(11)
    for _ in range(50):
        num_models = int(rng.integers(2, 5))
        num_classes = int(rng.integers(2, 5))
        batch = int(rng.integers(1, 6))
        probs = rng.dirichlet(np.ones(num_classes), size=(num_models, batch))
        logits = rng.normal(size=(num_models, batch, num_classes))
        losses = rng.uniform(0.0, 3.0, size=(num_models, batch))
        for mode in ("avg_prob", "avg_logit", "min_prob"):
            got = aggregate_targets(probs, logits, losses, mode)
            want = np.array([direct_aggregate(probs[:, i, :], logits[:, i, :],
                                              losses[:, i], mode)
                             for i in range(batch)])
            assert np.allclose(got, want, rtol=0, atol=1e-12), mode
        # fixed point: identical predictions aggregate to themselves
        same_p = np.broadcast_to(probs[0], probs.shape).copy()
        same_l = np.broadcast_to(logits[0], logits.shape).copy()
        for mode in ("avg_prob", "avg_logit", "min_prob"):
            q = aggregate_targets(same_p, same_l, losses, mode)
            target = (numeric.softmax(logits[0]) if mode == "avg_logit"
                      else probs[0])
            assert np.allclose(q, target, rtol=0, atol=1e-12), mode
    report(3, "soft-target aggregates match brute-force oracles", True,
           "avg_prob/avg_logit/min_prob + fixed point, 50 trials")


def test_schedule_exactness(report):
    from coreglab.baselines import PruneSchedule, schedule_delta
    T = 100
    for delta in (2.0, 5.0, 8.0):
        sched = PruneSchedule(delta, T)
        for t in (0, T // 4, T // 2, T):
            assert schedule_delta(sched, t) == delta * t / T
    for pct in (10.0, 30.0, 50.0, 70.0, 90.0):
        for total in (7, 10, 33, 100, 960):
            config = small_config(warmup_pct=pct, total_steps=total)
            assert warmup_steps(config) == -((-int(pct) * total) // 100)
    # the update rule flips exactly at the boundary step
    dataset = tiny_dataset(n=24)
    config = small_config(total_steps=10, warmup_pct=30.0, gamma=1.0)
    result = train(dataset, None, config,
                   eval_metric=make_metric("synthetic")[1])
    flags = [r.warmup for r in result.reports]
    assert flags == [True] * 3 + [False] * 7
    report(4, "prune fraction and warm-up boundary are exact", True,
           "delta grid x {0,T/4,T/2,T}; warm-up pct grid; boundary flip")


def _protocol_mapping(method, out_dir, **overrides):
    mapping = {
        "task": "synthetic",
        "method": method,
        "seeds": PROTOCOL_SEEDS,
        "output_dir": str(out_dir),
        "epochs": PROTOCOL_EPOCHS,
        "data": dict(PROTOCOL_DATA),
        "noise": {"rate": PROTOCOL_NOISE_RATE},
        "train": dict(PROTOCOL_TRAIN),
    }
    mapping.update(overrides)
    return mapping


def _median_test_accuracy(scores):
    return [float(value) for seed, split, _, value in scores
            if split == "test" and seed == "median"][0]


def _test_accuracy_by_seed(scores):
    return {seed: float(value) for seed, split, _, value in scores
            if split == "test" and seed != "median"}


# The baselines' single model: M=1 and no agreement term.
BASELINE_TRAIN = {**PROTOCOL_TRAIN, "num_models": 1, "gamma": 0.0}


@pytest.fixture(scope="module")
def coreg_protocol(tmp_path_factory):
    """The protocol's coreg run (M=2) as metrics.csv's rows, with its wall
    seconds; test_denoising_effect and test_more_models_help share it."""
    started = time.monotonic()
    scores = run_experiment(ExperimentConfig.from_mapping(
        _protocol_mapping("coreg", tmp_path_factory.mktemp("coreg"))))
    return scores, time.monotonic() - started


@pytest.fixture(scope="module")
def plain_protocol(tmp_path_factory):
    """The protocol's plain run as metrics.csv's rows, with its wall seconds;
    test_denoising_effect and test_hook_baselines_help share it."""
    started = time.monotonic()
    scores = run_experiment(ExperimentConfig.from_mapping(_protocol_mapping(
        "plain", tmp_path_factory.mktemp("plain"), train=BASELINE_TRAIN)))
    return scores, time.monotonic() - started


def test_denoising_effect(report, coreg_protocol, plain_protocol):
    (coreg, coreg_seconds), (plain, plain_seconds) = coreg_protocol, plain_protocol
    elapsed = coreg_seconds + plain_seconds
    margin = _median_test_accuracy(coreg) - _median_test_accuracy(plain)
    ok = margin >= 0.02 and elapsed < 60.0
    report(5, "co-regularization beats plain training on noisy labels",
           ok, f"median margin {100 * margin:+.2f}pp over 5 seeds, "
               f"{elapsed:.1f}s")
    assert margin > 0.0
    assert margin >= 0.02
    assert elapsed < 60.0


def test_noise_overfit_protocol(report, tmp_path):
    curves = run_noise_analysis(ExperimentConfig.from_mapping(
        _protocol_mapping("coreg", tmp_path / "noise", noise=None,
                          analysis={"gammas": [0.0, 1.0, 5.0, 20.0],
                                    "pool_size": 600,
                                    "pool_noise_rate": 0.5,
                                    "epochs": 30})))
    with open(curves, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    by: dict[tuple, list] = {}
    for _method, gamma, seed, epoch, _split, _metric, value in rows:
        by.setdefault((float(gamma), int(seed)), []).append(
            (int(epoch), float(value)))
    seeds = sorted({s for _g, s in by})
    gammas = sorted({g for g, _s in by})
    assert gammas == [0.0, 1.0, 5.0, 20.0]
    rise_fall = peak_beat = 0
    for seed in seeds:
        zero_curve = [v for _e, v in sorted(by[(0.0, seed)])]
        peak_zero = max(zero_curve)
        rise_fall += peak_zero > zero_curve[-1]
        best_positive = max(max(v for _e, v in by[(g, seed)])
                            for g in gammas if g > 0)
        peak_beat += best_positive > peak_zero
    ok = rise_fall >= 4 and peak_beat >= 4
    report(6, "clean-set curves: gamma=0 rises then falls; some gamma>0 "
              "peaks higher", ok,
           f"rise-fall {rise_fall}/5, higher-peak {peak_beat}/5")
    assert rise_fall >= 4
    assert peak_beat >= 4


def test_memorization_delay(report):
    delayed = 0
    details = []
    for seed in PROTOCOL_SEEDS:
        train_set, _ = gen_gaussian_mixture(
            num_train=PROTOCOL_DATA["train_size"], num_test=500,
            num_classes=4, num_features=PROTOCOL_DATA["num_features"],
            seed=20250401, class_sep=PROTOCOL_DATA["class_sep"])
        noisy, mask = inject_noise(
            train_set, NoiseSpec(rate=PROTOCOL_NOISE_RATE, seed=seed))
        config = make_plain_config(TrainConfig(
            num_models=2, total_steps=PROTOCOL_EPOCHS * 32, warmup_pct=30.0,
            gamma=5.0, batch_size=64, base_lr=0.005, hidden_sizes=(32,),
            dropout=0.1, master_seed=seed))
        _, trajectories = train_with_trajectories(noisy, config)
        stats = forgetting_stats(trajectories)
        flipped_mean, clean_mean = first_learned_means(
            stats, flip_flags(mask), horizon=trajectories.shape[0])
        delayed += flipped_mean > clean_mean
        details.append(round(flipped_mean - clean_mean, 1))
    ok = delayed >= 4
    report(7, "flipped labels are learned later than clean ones under "
              "plain training", ok,
           f"{delayed}/5 seeds, epoch gaps {details}")
    assert delayed >= 4


def test_bio_and_metric_oracles(report):
    from oracles import reference_bio_decode
    scheme = TagScheme(("A", "B"))
    checked = 0
    for length in range(0, 7):
        for combo in itertools.product(range(len(scheme)), repeat=length):
            got = [(scheme.entity_types[s.label], s.start, s.end)
                   for s in bio_decode(combo)]
            assert got == reference_bio_decode([scheme.tags[i] for i in combo])
            checked += 1
    gold = [Span("PER", 0, 1), Span("ORG", 3, 3)]
    pred = [Span("PER", 0, 1)]
    rep = span_f1([gold], [pred])
    assert (rep.precision, rep.recall) == (1.0, 0.5)
    assert rep.f1 == pytest.approx(2.0 / 3.0, rel=0, abs=1e-15)
    rel = relation_micro_f1([0, 2, 0], [0, 0, 2], negative_class=2)
    assert (rel.tp, rel.fp, rel.fn) == (1, 1, 1)
    assert rel.f1 == 0.5
    report(8, "span decoding matches exhaustive reference; metric worked "
              "examples exact", True, f"{checked} tag sequences")


def test_label_audit_ranking(report, tmp_path):
    _report_path, score = run_audit(ExperimentConfig.from_mapping(
        _protocol_mapping("coreg", tmp_path / "audit", seeds=[1])))
    ok = score is not None and score > 0.8
    report(9, "disagreement ranking recovers injected flips", ok,
           f"AUROC={score:.4f}" if score is not None else "no score")
    assert score is not None
    assert score > 0.5  # direction, independent of the pinned threshold
    assert score > 0.8  # pinned after calibration


def test_rerun_determinism(report, tmp_path):
    config = {
        "task": "synthetic",
        "method": "coreg",
        "seeds": [1, 2],
        "epochs": 2,
        "data": {"train_size": 60, "dev_size": 20, "test_size": 20,
                 "num_classes": 3},
        "noise": {"rate": 0.2},
        "train": {"num_models": 2, "batch_size": 32, "hidden_sizes": [4],
                  "dropout": 0.1},
    }
    runner = CliRunner()
    outputs = []
    for name in ("a", "b"):
        config_path = tmp_path / f"{name}.yaml"
        config_path.write_text(yaml.safe_dump(
            {**config, "output_dir": str(tmp_path / name)}))
        result = runner.invoke(cli_main, ["train", str(config_path)])
        assert result.exit_code == 0, result.output
        outputs.append(tmp_path / name)
    same = True
    for rel in ("metrics.csv", "seed_1/epoch_log.csv", "seed_2/epoch_log.csv",
                "seed_1/flips.csv", "seed_2/flips.csv"):
        same &= (outputs[0] / rel).read_bytes() == (outputs[1] / rel).read_bytes()
    report(10, "identical config and seed produce byte-identical CSVs", same,
           "metrics.csv, epoch logs, flip masks")
    assert same


def test_more_models_help(report, tmp_path, coreg_protocol):
    """The paper's framework trains several models; on the protocol, four
    co-regularized models beat two. Calibrated at 30% flips: M=4 beat M=2 in
    5 of 5 seeds (test accuracy 0.828/0.846/0.834/0.840/0.838 against
    0.796/0.844/0.820/0.820/0.804), seed 2 by one test row, so the pinned
    bound is 4 of 5. The M=2 run is the shared protocol run."""
    started = time.monotonic()
    four = run_experiment(ExperimentConfig.from_mapping(_protocol_mapping(
        "coreg", tmp_path / "m4", train={**PROTOCOL_TRAIN, "num_models": 4})))
    elapsed = coreg_protocol[1] + time.monotonic() - started
    accuracy = {num_models: _test_accuracy_by_seed(scores)
                for num_models, scores in ((2, coreg_protocol[0]), (4, four))}
    wins = sum(accuracy[4][seed] > accuracy[2][seed] for seed in PROTOCOL_SEEDS)
    report(11, "four co-regularized models beat two on noisy labels", wins >= 4,
           f"{wins}/5 seeds, {elapsed:.1f}s")
    assert wins >= 4


def test_hook_baselines_help(report, tmp_path, plain_protocol):
    """Each hook baseline beats plain training on the protocol at 30% flips
    (M=1, no agreement term, best-dev selection) once its schedule reaches
    the flip rate, delta_max 30: on median test accuracy, and seed for seed
    in at least 4 of 5 seeds. Calibrated test accuracy for seeds 1-5:
    plain 0.762/0.814/0.782/0.766/0.736 (median 0.766); small_loss
    0.780/0.814/0.824/0.784/0.794 (median 0.794, +2.8pp), 4 of 5 seeds as
    seed 2 ties, the narrowest win 9 test rows (seed 1); relabel
    0.812/0.834/0.832/0.828/0.816 (median 0.828, +6.2pp), 5 of 5 seeds, the
    narrowest win 10 test rows (seed 2). The plain run is the shared one."""
    started = time.monotonic()
    accuracy = {"plain": _test_accuracy_by_seed(plain_protocol[0])}
    median = {"plain": _median_test_accuracy(plain_protocol[0])}
    for method in ("small_loss", "relabel"):
        scores = run_experiment(ExperimentConfig.from_mapping(_protocol_mapping(
            method, tmp_path / method, train=BASELINE_TRAIN,
            baseline={"delta_max": 30.0})))
        accuracy[method], median[method] = (_test_accuracy_by_seed(scores),
                                            _median_test_accuracy(scores))
    elapsed = plain_protocol[1] + time.monotonic() - started
    wins = {method: sum(accuracy[method][seed] > accuracy["plain"][seed]
                        for seed in PROTOCOL_SEEDS)
            for method in ("small_loss", "relabel")}
    ok = all(median[m] > median["plain"] and wins[m] >= 4 for m in wins)
    report(15, "small-loss pruning and relabeling beat plain training", ok,
           ", ".join(f"{m} median {100 * (median[m] - median['plain']):+.2f}pp, "
                     f"{wins[m]}/5 seeds" for m in wins) + f", {elapsed:.1f}s")
    for method in wins:
        assert median[method] > median["plain"], method
        assert wins[method] >= 4, method


# The relation check: a templated corpus (oracles.gen_relation_corpus, 300
# filler words) of 3,000 sentences at seed 7, the first 2,000 the training
# rows and the last 1,000 the clean test rows; 30% uniform flips on the
# training rows only; 30 epochs, batch 64, hidden 32, base_lr 0.005, 30%
# warm-up, no dev set, model 0 scored.
RELATION_SEEDS = [1, 2, 3, 4]
RELATION_TRAIN = {"batch_size": 64, "base_lr": 0.005, "hidden_sizes": (32,),
                  "warmup_pct": 30.0}
RELATION_EPOCHS = 30
RELATION_GAMMA = 20.0


def _flipped_run(train_rows, seed, epochs, **train_keys):
    """Train for ``epochs`` on train_rows with 30% uniform flips at ``seed``;
    returns model 0 and its memorized share: the flipped training rows it
    predicts with their noisy label."""
    noisy, mask = inject_noise(train_rows, NoiseSpec(rate=PROTOCOL_NOISE_RATE, seed=seed))
    steps = epochs * math.ceil(len(train_rows) / train_keys["batch_size"])
    result = train(noisy, None, TrainConfig(total_steps=steps, master_seed=seed,
                                            **train_keys))
    model = result.ensemble.models[0]
    memorized = np.mean(predict(model, noisy.features[mask.indices]) == mask.noisy_labels)
    return model, float(memorized)


def test_relation_denoising_effect(report):
    """On the relation task, two co-regularized models (gamma 20) beat one
    plain model in test micro-F1 and memorize fewer flipped labels.
    Calibrated on seeds 1-8 (plain / coreg micro-F1):
    0.798/0.825, 0.849/0.883, 0.812/0.842, 0.800/0.833, 0.827/0.857,
    0.796/0.845, 0.835/0.868, 0.816/0.845, margins 0.027 to 0.049, with the
    memorized share lower in 8 of 8 (plain 0.17-0.25, coreg 0.14-0.20).
    Gamma 15 and 30 also beat plain in 8 of 8. The pinned bound is a 0.02
    margin in 3 of the 4 seeds run here, and a lower memorized share in all
    4."""
    started = time.monotonic()
    instances, schema = gen_relation_corpus(3000, seed=7)
    rows, _ = build_relation_dataset(instances, schema)
    train_rows, test_rows = rows.subset(range(2000)), rows.subset(range(2000, 3000))

    def score(model):
        return TASKS["relation"].score(schema, test_rows, predict(model, test_rows.features))

    wins = lower = 0
    details = []
    for seed in RELATION_SEEDS:
        (plain, plain_memorized), (coreg, coreg_memorized) = (
            _flipped_run(train_rows, seed, RELATION_EPOCHS, num_models=num_models,
                         gamma=gamma, **RELATION_TRAIN)
            for num_models, gamma in ((1, 0.0), (2, RELATION_GAMMA)))
        margin = score(coreg) - score(plain)
        wins += margin >= 0.02
        lower += coreg_memorized < plain_memorized
        details.append(f"{margin:+.3f}")
    elapsed = time.monotonic() - started
    ok = wins >= 3 and lower == len(RELATION_SEEDS)
    report(12, "co-regularization beats plain training on noisy relation labels",
           ok, f"margins {details}, lower memorized share {lower}/"
               f"{len(RELATION_SEEDS)}, {elapsed:.1f}s")
    assert wins >= 3
    assert lower == len(RELATION_SEEDS)


# The tagging check trains with RELATION_TRAIN's keys on a corpus of 900
# sentences over 150 filler words: the first 500 train, the last 400 test.
TAGGING_SEEDS = [1, 2, 3, 4]
TAGGING_SENTENCES = (500, 400)
TAGGING_FILLERS = 150
TAGGING_EPOCHS = 12
TAGGING_GAMMA = 20.0


def test_tagging_denoising_effect(report):
    """On the tagging task, two co-regularized models (gamma 20) beat one
    plain model in test span F1 and memorize fewer flipped tags.
    Calibrated on seeds 1-8 (plain / coreg span F1):
    0.706/0.829, 0.703/0.810, 0.729/0.855, 0.706/0.842, 0.758/0.906,
    0.697/0.845, 0.750/0.884, 0.691/0.854, margins 0.107 to 0.163, with the
    memorized share lower in 8 of 8 (plain 0.19-0.22, coreg 0.05-0.06).
    Gamma 10 also beat plain in 4 of 4 (margins 0.097-0.115); gamma 40 did
    not (-0.006 to +0.008). The pinned bound is a 0.05 margin in 3 of the 4
    seeds run here, and a lower memorized share in all 4."""
    started = time.monotonic()
    sentences, scheme = gen_tagging_corpus(sum(TAGGING_SENTENCES), seed=11,
                                           num_fillers=TAGGING_FILLERS)
    rows, _ = build_tagging_dataset(sentences, scheme, window=1)
    # Rows follow the sentences in order, and groups number the sentences.
    cut = int(np.searchsorted(rows.groups, TAGGING_SENTENCES[0]))
    train_rows, test_rows = rows.subset(range(cut)), rows.subset(range(cut, len(rows)))

    def score(model):
        return TASKS["tagging"].score(scheme, test_rows, predict(model, test_rows.features))

    wins = lower = 0
    details = []
    for seed in TAGGING_SEEDS:
        (plain, plain_memorized), (coreg, coreg_memorized) = (
            _flipped_run(train_rows, seed, TAGGING_EPOCHS, num_models=num_models,
                         gamma=gamma, **RELATION_TRAIN)
            for num_models, gamma in ((1, 0.0), (2, TAGGING_GAMMA)))
        margin = score(coreg) - score(plain)
        wins += margin >= 0.05
        lower += coreg_memorized < plain_memorized
        details.append(f"{margin:+.3f}")
    elapsed = time.monotonic() - started
    ok = wins >= 3 and lower == len(TAGGING_SEEDS)
    report(13, "co-regularization beats plain training on noisy tags",
           ok, f"margins {details}, lower memorized share {lower}/"
               f"{len(TAGGING_SEEDS)}, {elapsed:.1f}s")
    assert wins >= 3
    assert lower == len(TAGGING_SEEDS)


def test_audit_identifies_noise_better_with_coreg(report, tmp_path):
    """The paper's premise that noisy labels are identifiable in training:
    on the protocol at 30% flips, the audit of coreg's two agreeing models
    ranks the flipped rows above the clean ones better than one plain
    model's audit, seed for seed."""
    scores = {method: [run_audit(ExperimentConfig.from_mapping(_protocol_mapping(
                  method, tmp_path / f"{method}_{seed}", seeds=[seed])))[1]
                       for seed in (1, 2, 3)]
              for method in ("coreg", "plain")}
    wins = sum(c > p for c, p in zip(scores["coreg"], scores["plain"]))
    report(14, "coreg's audit ranks the flips above plain's", wins == 3,
           f"{wins}/3 seeds, AUROC coreg {[round(s, 4) for s in scores['coreg']]}, "
           f"plain {[round(s, 4) for s in scores['plain']]}")
    assert wins == 3
