"""Per-layer tracing for the coreglab benchmark.

Run as a script, this is the traced counterpart of ``coreglab train``:

    PYTHONPATH=src python3 bench/tracing.py CONFIG SPANS_JSON

It wraps the functions the per-layer metrics need from outside the package,
at every module attribute that refers to them (``trainer`` imports
``softmax``, ``adam_step`` and ``lr_at`` by name and ``models`` imports
``dropout_mask``, so wrapping only ``numeric`` would miss those calls). Each
call records a span (name, start, end, parent) in memory; the spans are
written to SPANS_JSON when the run ends, also when it fails.

Imported, :func:`summarize` turns such a file into the per-layer metrics.
"""

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# The functions wrapped in the traced run, as "<module>.<attribute>". The
# scorer returned by datasets.make_metric is wrapped too, as "datasets.metric".
TRACED = (
    "trainer.train", "trainer.train_step", "trainer.aggregate_targets",
    "trainer.agreement_loss",
    "models.forward", "models.backward", "models.predict", "models.params_flat",
    "models.set_params_flat", "models.save_model",
    "numeric.adam_step", "numeric.softmax", "numeric.dropout_mask", "numeric.lr_at",
    "datasets.read_conll", "datasets.build_tagging_dataset",
    "datasets.gen_gaussian_mixture", "datasets.make_metric",
    "metrics.bio_decode", "metrics.span_f1", "metrics.accuracy",
    "noiselab.inject_noise",
    "baselines.crossweigh_weights", "baselines.train_plain",
    "experiment.load_config", "experiment.build_task_data",
    "experiment.run_experiment",
)

# The functions that produce the splits, whichever the task.
LOADERS = ("datasets.read_conll", "datasets.build_tagging_dataset",
           "datasets.gen_gaussian_mixture")

# Per-layer metrics: (name, unit, note). The note names the end-to-end
# metric and workload the layer metric should move, or, for a count the
# config fixes, what it must equal (checked exactly on every traced run).
# Every metric here is measured on every workload; per-function times that
# only some workloads exercise are reported in DETAILS instead.
LAYER_METRICS = (
    ("trainer.train.calls", "count", "exact: seeds x trainings per seed (folds x iterations + 1 on crossweigh_folds)"),
    ("trainer.train_step.calls", "count", "exact: steps x seeds"),
    ("trainer.train_step.self_s", "s", "run_s, examples_per_s: coreg_protocol first, then crossweigh_folds, barely tagging_eval"),
    ("trainer.train_step.p50_us", "us", "run_s, examples_per_s: coreg_protocol first, then crossweigh_folds"),
    ("trainer.train_step.p99_us", "us", "run_s, examples_per_s: coreg_protocol first, then crossweigh_folds"),
    ("trainer.aggregate_targets.s", "s", "run_s on coreg_protocol"),
    ("trainer.agreement_loss.s", "s", "run_s on coreg_protocol"),
    ("trainer.epoch_eval.s", "s", "run_s on tagging_eval (predict and scorer under trainer.train)"),
    ("models.forward.calls", "count", "exact: M x steps (training forwards; those inside predict count there)"),
    ("models.forward.s", "s", "run_s on coreg_protocol"),
    ("models.backward.calls", "count", "exact: M x steps"),
    ("models.backward.s", "s", "run_s on coreg_protocol"),
    ("models.predict.calls", "count", "exact: epochs x M dev evaluations + dev and test per seed"),
    ("models.predict.rows", "count", "exact: rows predicted"),
    ("models.predict.s", "s", "run_s on tagging_eval"),
    ("models.param_copies", "count", "run_s on coreg_protocol (params_flat + set_params_flat calls)"),
    ("models.param_copies_per_step", "copies/step", "run_s on coreg_protocol; about 2M today, about 0 with stacked parameters"),
    ("models.save_model.s", "s", "run_s on every workload, small share"),
    ("numeric.adam_step.calls", "count", "exact: M x steps"),
    ("numeric.adam_step.s", "s", "run_s on coreg_protocol and crossweigh_folds"),
    ("numeric.softmax.calls", "count", "exact: steps"),
    ("numeric.softmax.s", "s", "run_s on coreg_protocol and crossweigh_folds"),
    ("numeric.dropout_mask.calls", "count", "exact: M x steps x hidden layers"),
    ("numeric.dropout_mask.s", "s", "run_s on coreg_protocol and crossweigh_folds"),
    ("numeric.lr_at.calls", "count", "exact: steps"),
    ("datasets.load_splits.s", "s", "setup_s on tagging_eval (read_conll + build_tagging_dataset; gen_gaussian_mixture elsewhere)"),
    ("datasets.feature_bytes", "B", "peak_rss_mb and setup_s on tagging_eval (rows x width x 8 over the three splits)"),
    ("datasets.metric.calls", "count", "exact: scorer calls"),
    ("datasets.metric.rows", "count", "exact: rows scored"),
    ("datasets.metric.s", "s", "run_s on tagging_eval"),
    ("metrics.bio_decode.calls", "count", "exact: 2 x sentences per tagging score, 0 elsewhere"),
    ("metrics.scoring.s", "s", "run_s on tagging_eval (bio_decode + span_f1; accuracy elsewhere)"),
    ("noiselab.inject_noise.calls", "count", "exact: 2 x seeds"),
    ("noiselab.inject_noise.s", "s", "run_s on every workload, small share"),
    ("baselines.crossweigh_weights.calls", "count", "exact: seeds on crossweigh_folds, 0 elsewhere"),
    ("baselines.train_plain.calls", "count", "exact: seeds on crossweigh_folds, 0 elsewhere"),
    ("experiment.load_config.s", "s", "setup_s on every workload"),
    ("experiment.build_task_data.s", "s", "setup_s on every workload"),
    ("experiment.run_experiment.self_s", "s", "run_s on every workload (writes, noise and selection outside child spans)"),
    ("trace.overhead_s", "s", "traced run minus the untraced run_s, both at reference speed; not paid by users"),
)

# Per-function times reported beside the metrics; None where the workload
# never calls the function.
DETAILS = ("datasets.read_conll.s", "datasets.build_tagging_dataset.s",
           "datasets.gen_gaussian_mixture.s", "metrics.span_f1.s",
           "metrics.accuracy.s", "baselines.crossweigh_weights.s")


class Tracer:
    """Spans kept as parallel lists; a span's parent is the innermost span
    open when it started (-1 at the top)."""

    def __init__(self):
        self.names, self.parents, self.starts, self.ends, self.rows = [], [], [], [], []
        self.counters = {}
        self._stack = [-1]

    def wrap(self, name, fn, rows=None, after=None):
        """``fn`` recording a span per call. ``rows(*args)`` gives the rows a
        call handles; ``after(result)`` returns what the caller receives."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        row_counts, stack, clock = self.rows, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            row_counts.append(rows(*args) if rows is not None else 0)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            return result if after is None else after(result)

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"name": self.names, "parent": self.parents,
                       "start_ns": self.starts, "end_ns": self.ends,
                       "rows": self.rows, "counters": self.counters}, fh)


def install(tracer: Tracer) -> None:
    """Replace every module attribute bound to a traced function."""
    import coreglab
    from coreglab import (baselines, cli, datasets, experiment, metrics, models,
                          noiselab, numeric, rng, trainer)

    modules = (coreglab, baselines, cli, datasets, experiment, metrics, models,
               noiselab, numeric, rng, trainer)

    def feature_bytes(task):
        tracer.counters["datasets.feature_bytes"] = sum(
            split.features.shape[0] * split.features.shape[1] * 8
            for split in (task.train, task.dev, task.test))
        return task

    def traced_scorer(pair):
        name, fn = pair
        return name, tracer.wrap("datasets.metric", fn,
                                 rows=lambda dataset, preds: len(dataset))

    hooks = {
        "models.predict": {"rows": lambda model, features: len(features)},
        "datasets.make_metric": {"after": traced_scorer},
        "experiment.build_task_data": {"after": feature_bytes},
    }
    for name in TRACED:
        module_name, attr = name.split(".")
        original = getattr(sys.modules[f"coreglab.{module_name}"], attr)
        wrapper = tracer.wrap(name, original, **hooks.get(name, {}))
        sites = 0
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"no lookup site found for {name}")


def _seconds(ns: int) -> float:
    return ns / 1e9


def summarize(trace: dict) -> tuple[dict, dict, dict]:
    """(per-layer metrics, detail times, call counts) from a spans file."""
    names, parents = trace["name"], trace["parent"]
    durations = [end - start for start, end in zip(trace["start_ns"], trace["end_ns"])]
    child_ns = [0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_ns[parent] += durations[i]
    calls = Counter()
    total = defaultdict(int)
    self_ns = defaultdict(int)
    for i, name in enumerate(names):
        parent = names[parents[i]] if parents[i] >= 0 else None
        if name == "models.forward" and parent == "models.predict":
            name = "models.forward.eval"  # inside predict; counted there
        calls[name] += 1
        total[name] += durations[i]
        self_ns[name] += durations[i] - child_ns[i]
        if name in ("models.predict", "datasets.metric"):
            calls[f"{name}.rows"] += trace["rows"][i]
            if parent == "trainer.train":
                total["trainer.epoch_eval"] += durations[i]
        if name.startswith("metrics.") and not (parent or "").startswith("metrics."):
            total["metrics.scoring"] += durations[i]
    steps = sorted(durations[i] for i, name in enumerate(names)
                   if name == "trainer.train_step")
    if len(steps) > 1:
        quantiles = statistics.quantiles(steps, n=100)
    else:
        quantiles = [steps[0] if steps else 0] * 99
    copies = calls["models.params_flat"] + calls["models.set_params_flat"]

    metrics = {
        "trainer.train.calls": calls["trainer.train"],
        "trainer.train_step.calls": calls["trainer.train_step"],
        "trainer.train_step.self_s": _seconds(self_ns["trainer.train_step"]),
        "trainer.train_step.p50_us": quantiles[49] / 1e3,
        "trainer.train_step.p99_us": quantiles[98] / 1e3,
        "trainer.aggregate_targets.s": _seconds(total["trainer.aggregate_targets"]),
        "trainer.agreement_loss.s": _seconds(total["trainer.agreement_loss"]),
        "trainer.epoch_eval.s": _seconds(total["trainer.epoch_eval"]),
        "models.param_copies": copies,
        "models.param_copies_per_step": copies / max(1, calls["trainer.train_step"]),
        "models.save_model.s": _seconds(total["models.save_model"]),
        "datasets.load_splits.s": _seconds(sum(total[name] for name in LOADERS)),
        "datasets.feature_bytes": trace["counters"].get("datasets.feature_bytes", 0),
        "metrics.scoring.s": _seconds(total["metrics.scoring"]),
        "experiment.load_config.s": _seconds(total["experiment.load_config"]),
        "experiment.build_task_data.s": _seconds(total["experiment.build_task_data"]),
        "experiment.run_experiment.self_s": _seconds(self_ns["experiment.run_experiment"]),
    }
    for name in ("models.forward", "models.backward", "models.predict",
                 "numeric.adam_step", "numeric.softmax", "numeric.dropout_mask",
                 "datasets.metric", "noiselab.inject_noise"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.s"] = _seconds(total[name])
    for name in ("models.predict", "datasets.metric"):
        metrics[f"{name}.rows"] = calls[f"{name}.rows"]
    for name in ("numeric.lr_at", "metrics.bio_decode", "baselines.crossweigh_weights",
                 "baselines.train_plain"):
        metrics[f"{name}.calls"] = calls[name]

    details = {}
    for key in DETAILS:
        name = key.rsplit(".", 1)[0]
        details[key] = _seconds(total[name]) if calls[name] else None
    return metrics, details, dict(calls)


def main(argv) -> None:
    config_path, spans_path = argv
    from coreglab import cli

    tracer = Tracer()
    install(tracer)
    try:
        cli.main(["train", config_path], prog_name="coreglab", standalone_mode=False)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
