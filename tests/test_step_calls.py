"""The joint step's call structure, as the benchmark's traced run counts it.

bench/workloads.py fixes how many times each traced step function runs per
optimizer step (forward, backward and Adam once per model, dropout once per
model and hidden layer, softmax and the learning rate once). The functions
are wrapped here as bench/tracing.py wraps them, at every coreglab module
attribute bound to them, so a step change that would fail the traced
benchmark run fails this test first. The tagging workload's inputs are built
here too, so a change to the sentences bench/ reads fails here first.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from coreglab.datasets import LabeledDataset, load_tag_scheme, read_conll
from coreglab.trainer import TrainConfig, train

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
STEP_FUNCTIONS = ("models.forward", "models.backward", "numeric.adam_step",
                  "numeric.softmax", "numeric.lr_at", "numeric.dropout_mask")
STEPS = 7


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


def _benchmark_counts(steps: int, num_models: int, hidden: int) -> dict:
    """One run seed's counts of the step functions, with no evaluation."""
    counts = WORKLOADS._common_counts(1, steps, num_models, hidden, 0, 0)
    return {name: counts[name] for name in STEP_FUNCTIONS}


@pytest.fixture
def calls(monkeypatch) -> Counter:
    """Calls per step function, wrapped for the test's duration."""
    counter = Counter()
    modules = [module for name, module in sys.modules.items()
               if name == "coreglab" or name.startswith("coreglab.")]
    for name in STEP_FUNCTIONS:
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module(f"coreglab.{module_name}"), attr)

        def counted(*args, _name=name, _original=original, **kwargs):
            counter[_name] += 1
            return _original(*args, **kwargs)

        sites = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, counted)
                    sites += 1
        assert sites, name
    return counter


@pytest.mark.parametrize("hidden", [0, 1, 2])
@pytest.mark.parametrize("num_models", [1, 2, 3])
def test_step_call_counts_match_benchmark(calls, num_models, hidden):
    rng = np.random.default_rng(num_models * 10 + hidden)
    data = LabeledDataset(rng.normal(size=(50, 6)), rng.integers(0, 3, size=50), 3)
    config = TrainConfig(num_models=num_models, total_steps=STEPS, gamma=1.0,
                         warmup_pct=30.0, batch_size=16, hidden_sizes=(8,) * hidden,
                         dropout=0.1, master_seed=5)
    train(data, None, config)
    assert {name: calls[name] for name in STEP_FUNCTIONS} == \
        _benchmark_counts(STEPS, num_models, hidden)


def test_benchmark_tagging_inputs_build(tmp_path):
    """bench/workloads.py reads each generated sentence's .tokens, slices the
    corpus and writes each slice with write_conll: its tagging inputs build,
    and each split file holds its slice's sentences."""
    plans = WORKLOADS.make_inputs("tagging_eval", 1, tmp_path, "smoke")
    size = WORKLOADS.SIZES["tagging_eval"]["smoke"]
    assert len(plans) == size["seeds"]
    assert all(plan.config_path.exists() for plan in plans)
    scheme = load_tag_scheme(tmp_path / "schema.json")
    for split in ("train", "dev", "test"):
        assert sum(1 for _ in read_conll(tmp_path / f"{split}.conll", scheme)) == size[split]
