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
from coreglab.datasets import gen_gaussian_mixture, make_metric
from coreglab.experiment import (ExperimentConfig, run_audit, run_experiment,
                                 run_noise_analysis)
from coreglab.metrics import (Span, TagScheme, bio_decode, relation_micro_f1,
                              span_f1)
from coreglab.noiselab import (NoiseSpec, first_learned_means,
                               forgetting_stats, inject_noise)
from coreglab.trainer import (TrainConfig, aggregate_targets, agreement_loss,
                              make_plain_config, train, warmup_steps)
from oracles import direct_agreement_loss, direct_aggregate, flip_flags
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


def _median_test_accuracy(manifest):
    return [float(r["value"]) for r in manifest.metric_rows
            if r["split"] == "test" and r["seed"] == "median"][0]


def test_denoising_effect(report, tmp_path):
    started = time.monotonic()
    coreg = run_experiment(ExperimentConfig.from_mapping(
        _protocol_mapping("coreg", tmp_path / "coreg")))
    plain = run_experiment(ExperimentConfig.from_mapping(
        _protocol_mapping("plain", tmp_path / "plain",
                          train={**PROTOCOL_TRAIN, "num_models": 1,
                                 "gamma": 0.0})))
    elapsed = time.monotonic() - started
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
        train_set, held = gen_gaussian_mixture(
            num_train=PROTOCOL_DATA["train_size"], num_test=500,
            num_classes=4, num_features=PROTOCOL_DATA["num_features"],
            seed=20250401, class_sep=PROTOCOL_DATA["class_sep"])
        noisy, mask = inject_noise(
            train_set, NoiseSpec(rate=PROTOCOL_NOISE_RATE, seed=seed))
        config = make_plain_config(TrainConfig(
            num_models=2, total_steps=PROTOCOL_EPOCHS * 32, warmup_pct=30.0,
            gamma=5.0, batch_size=64, base_lr=0.005, hidden_sizes=(32,),
            dropout=0.1, master_seed=seed))
        result = train(noisy, held, config,
                       eval_metric=make_metric("synthetic")[1],
                       track_trajectories=True)
        stats = forgetting_stats(result.trajectories)
        flipped_mean, clean_mean = first_learned_means(
            stats, flip_flags(mask), horizon=result.trajectories.shape[0])
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
    symbols = scheme.tags
    checked = 0
    for length in range(0, 7):
        for combo in itertools.product(range(len(symbols)), repeat=length):
            tags = [symbols[i] for i in combo]
            assert bio_decode(tags) == reference_bio_decode(tags)
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
