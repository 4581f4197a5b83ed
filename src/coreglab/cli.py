"""Command-line surface for the training lab.

Exit codes: 0 success, 1 config error, 2 data error, 3 training divergence.
Relative output paths resolve under the COREGLAB_OUTPUT_ROOT environment
variable when it is set.
"""

import functools
import sys
import zipfile

import click

from . import datasets, experiment, noiselab, trainer
from . import models as mdl


def _fail(exc, code: int):
    click.echo(f"error: {exc}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except experiment.ConfigError as exc:
            _fail(exc, 1)
        except (datasets.DataError, FileNotFoundError) as exc:
            _fail(exc, 2)
        except trainer.TrainingDiverged as exc:
            _fail(exc, 3)

    return wrapper


@click.group()
def main():
    """Train noise-robust classifiers with multi-model co-regularization,
    run denoising baselines, and analyze label noise."""


@main.command()
@click.argument("config_path", type=click.Path())
@_guarded
def train(config_path):
    """Run the experiment described by a config file."""
    config = experiment.load_config(config_path)
    manifest = experiment.run_experiment(config)
    run_dir = experiment.resolve_output_dir(config.output_dir)
    click.echo(f"run directory: {run_dir}")
    for row in manifest.metric_rows:
        if row["seed"] == "median":
            click.echo(f"median {row['split']} {row['metric']}: "
                       f"{repr(float(row['value']))}")


@main.command("analyze-noise")
@click.argument("config_path", type=click.Path())
@_guarded
def analyze_noise(config_path):
    """Run the noise-overfit protocol over the configured gamma grid."""
    config = experiment.load_config(config_path)
    curves = experiment.run_noise_analysis(config)
    click.echo(f"curves: {curves}")


@main.command("audit-labels")
@click.argument("config_path", type=click.Path())
@_guarded
def audit_labels(config_path):
    """Rank training instances by how strongly the models dispute their
    labels; scores the ranking against injected flips when noise is on."""
    config = experiment.load_config(config_path)
    report, score = experiment.run_audit(config)
    click.echo(f"report: {report}")
    click.echo("auroc: n/a" if score is None else f"auroc: {repr(score)}")


@main.command("export-curves")
@click.argument("run_dir", type=click.Path())
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Destination CSV (default: <run_dir>/curves.csv).")
@_guarded
def export_curves(run_dir, out_path):
    """Bundle a run's epoch logs into one long-format CSV."""
    target = experiment.export_curves(run_dir, out_path)
    click.echo(f"curves: {target}")


MIXTURE_DEFAULTS = {key: spec[1] for key, spec in datasets.MIXTURE_KEYS.items()}


@main.command("gen-synthetic")
@click.option("--task", type=click.Choice(["synthetic", "tagging"]),
              default="synthetic", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--train-size", default=MIXTURE_DEFAULTS["train_size"], show_default=True)
@click.option("--dev-size", default=MIXTURE_DEFAULTS["dev_size"], show_default=True)
@click.option("--test-size", default=MIXTURE_DEFAULTS["test_size"], show_default=True)
@click.option("--num-classes", default=MIXTURE_DEFAULTS["num_classes"], show_default=True)
@click.option("--num-features", default=MIXTURE_DEFAULTS["num_features"], show_default=True)
@click.option("--class-sep", default=MIXTURE_DEFAULTS["class_sep"], show_default=True)
@click.option("--scale", default=MIXTURE_DEFAULTS["scale"], show_default=True)
@click.option("--sentences", default=200, show_default=True,
              help="Corpus size for the tagging task.")
@_guarded
def gen_synthetic(task, out_dir, seed, train_size, dev_size, test_size,
                  num_classes, num_features, class_sep, scale, sentences):
    """Generate a synthetic dataset: a Gaussian-mixture classification task
    or a templated tagging corpus."""
    out = experiment.resolve_output_dir(out_dir)
    if task == "synthetic":
        schema, suffix, unit = None, "jsonl", "instances"
        given = dict(train_size=train_size, dev_size=dev_size, test_size=test_size,
                     num_classes=num_classes, num_features=num_features,
                     class_sep=class_sep, scale=scale, data_seed=seed)
        splits = datasets.mixture_splits(**{
            key: experiment._typed(given, key, *spec)
            for key, spec in datasets.MIXTURE_KEYS.items()})
    else:
        suffix, unit = "conll", "sentences"
        given = {"sentences": sentences, "seed": seed}
        instances, schema = datasets.gen_tagging_corpus(
            experiment._typed(given, "sentences", int, 200, 1, "--"),
            experiment._typed(given, "seed", int, 0, 0, "--"))
        n_eval = max(1, len(instances) // 10)
        cut = len(instances) - 2 * n_eval
        splits = instances[:cut], instances[cut:cut + n_eval], instances[cut + n_eval:]
    out.mkdir(parents=True, exist_ok=True)
    if schema is not None:
        datasets.save_tag_scheme(schema, out / "schema.json")
    for name, part in zip(("train", "dev", "test"), splits):
        datasets.write_records(task, out / f"{name}.{suffix}", part, schema)
        click.echo(f"wrote {out / f'{name}.{suffix}'} ({len(part)} {unit})")
    if schema is not None:
        click.echo(f"wrote {out / 'schema.json'}")


@main.command("inject-noise")
@click.option("--task", type=click.Choice(datasets.TASKS),
              default="synthetic", show_default=True)
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--mask-out", "mask_path", type=click.Path(), default=None,
              help="Flip-mask CSV (default: <output>.flips.csv).")
@click.option("--rate", required=True, type=float)
@click.option("--scheme", type=click.Choice(list(noiselab.NOISE_SCHEMES)),
              default="uniform_flip", show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--schema", "schema_path", type=click.Path(), default=None)
@_guarded
def inject_noise_cmd(task, input_path, output_path, mask_path, rate, scheme,
                     seed, schema_path):
    """Flip a seeded fraction of labels in a dataset file and record which."""
    try:
        spec = noiselab.NoiseSpec(rate=rate, seed=seed, scheme=scheme)
    except ValueError as exc:
        raise experiment.ConfigError(str(exc)) from exc
    if task != "synthetic" and schema_path is None:
        raise experiment.ConfigError(f"{task} noise requires --schema")
    schema = datasets.load_schema(task, schema_path)
    records, labeled = datasets.read_labeled(task, input_path, schema)
    if labeled.num_classes < 2:
        raise datasets.DataError(f"{input_path}: labels span {labeled.num_classes} "
                                 "class; flipping needs at least 2")
    noisy, mask = noiselab.inject_noise(labeled, spec)
    datasets.write_records(task, output_path,
                           datasets.relabel(task, records, noisy.labels), schema)
    mask_target = mask_path if mask_path is not None else f"{output_path}.flips.csv"
    mask.save_csv(mask_target)
    click.echo(f"flipped {len(mask)} of {mask.num_instances} labels")
    click.echo(f"wrote {output_path}")
    click.echo(f"mask: {mask_target}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--task", type=click.Choice(datasets.TASKS),
              default="synthetic", show_default=True)
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--schema", "schema_path", type=click.Path(), default=None)
@click.option("--vocab", "vocab_path", type=click.Path(), default=None)
@click.option("--window", default=1, show_default=True)
@click.option("--num-classes", default=None, type=int)
@_guarded
def evaluate(model_path, task, data_path, schema_path, vocab_path, window,
             num_classes):
    """Score a saved model on a dataset file."""
    try:
        model = mdl.load_model(model_path)
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise datasets.DataError(f"cannot load model {model_path}: {exc}") from exc
    if task != "synthetic" and (schema_path is None or vocab_path is None):
        raise experiment.ConfigError(f"{task} evaluation requires --schema and --vocab")
    schema = datasets.load_schema(task, schema_path)
    vocab = None if schema is None else datasets.load_vocab(vocab_path)
    dataset, _ = datasets.load_split(task, data_path, schema, vocab, window=window,
                                     num_classes=num_classes)
    name, fn = datasets.make_metric(task, schema=schema)
    try:
        preds = mdl.predict(model, dataset.features)
    except ValueError as exc:
        raise datasets.DataError(f"model/data mismatch: {exc}") from exc
    click.echo(f"{name}: {repr(float(fn(dataset, preds)))}")


if __name__ == "__main__":
    main()
