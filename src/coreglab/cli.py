"""Command-line surface for the training lab.

Exit codes: 0 success, 1 config error, 2 data error (an unreadable input or
an unwritable output path included), 3 training divergence.
A relative config output_dir or gen-synthetic --out resolves under the
COREGLAB_OUTPUT_ROOT environment variable when it is set; every other path
(inject-noise, export-curves, evaluate) resolves against the working directory.
"""

import functools
import sys
import zipfile

import click

from . import datasets, experiment, noiselab, trainer
from . import models as mdl
from .schema import check


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
        except (datasets.DataError, OSError) as exc:
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
              help="Copy to this CSV, outside the run (default: copy nothing "
                   "and print the run's curves.csv).")
@_guarded
def export_curves(run_dir, out_path):
    """Copy the curves.csv that every train and analyze-noise run saves: the
    "selected" score per gamma, seed and epoch, in long format."""
    target = experiment.export_curves(run_dir, out_path)
    click.echo(f"curves: {target}")


def _mixture_options(command):
    """One option per synthetic data key, with the key's default; --seed
    gives data_seed."""
    for key, spec in reversed(datasets.MIXTURE_KEYS.items()):
        if key != "data_seed":
            command = click.option(f"--{key.replace('_', '-')}", default=spec.default,
                                   show_default=True)(command)
    return command


@main.command("gen-synthetic")
@click.option("--task", type=click.Choice(["synthetic", "tagging"]),
              default="synthetic", show_default=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@_mixture_options
@click.option("--sentences", default=datasets.TAGGING_SENTENCES.default,
              show_default=True, help="Corpus size for the tagging task.")
@_guarded
def gen_synthetic(task, out_dir, seed, sentences, **mixture):
    """Generate a synthetic dataset: a Gaussian-mixture classification task
    or a templated tagging corpus."""
    out = experiment.resolve_output_dir(out_dir)
    # --seed, the generator seed of either task, is checked as data_seed.
    seed = check("--seed", seed, datasets.MIXTURE_KEYS["data_seed"])
    if task == "synthetic":
        schema, suffix, unit = None, "jsonl", "instances"
        splits = datasets.mixture_splits(**{
            key: check(f"--{key.replace('_', '-')}", value, datasets.MIXTURE_KEYS[key])
            for key, value in mixture.items()}, data_seed=seed)
    else:
        suffix, unit = "conll", "sentences"
        instances, schema = datasets.gen_tagging_corpus(
            check("--sentences", sentences, datasets.TAGGING_SENTENCES), seed)
        n_eval = max(1, len(instances) // 10)
        cut = len(instances) - 2 * n_eval
        splits = instances[:cut], instances[cut:cut + n_eval], instances[cut + n_eval:]
    out.mkdir(parents=True, exist_ok=True)
    if schema is not None:
        datasets.save_tag_scheme(schema, out / "schema.json")
    for name, part in zip(("train", "dev", "test"), splits):
        datasets.TASKS[task].write_records(out / f"{name}.{suffix}", part, schema)
        click.echo(f"wrote {out / f'{name}.{suffix}'} ({len(part)} {unit})")
    if schema is not None:
        click.echo(f"wrote {out / 'schema.json'}")


@main.command("inject-noise")
@click.option("--task", type=click.Choice(tuple(datasets.TASKS)),
              default="synthetic", show_default=True)
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--mask-out", "mask_path", type=click.Path(), default=None,
              help="Flip-mask CSV (default: <output>.flips.csv).")
@click.option("--rate", required=True, type=float)
@click.option("--seed", default=0, show_default=True)
@click.option("--schema", "schema_path", type=click.Path(), default=None)
@_guarded
def inject_noise_cmd(task, input_path, output_path, mask_path, rate, seed,
                     schema_path):
    """Flip a seeded fraction of labels in a dataset file, each to another
    class drawn uniformly, and record which."""
    spec = noiselab.NoiseSpec(rate=rate, seed=seed)
    record = datasets.TASKS[task]
    if record.from_files and schema_path is None:
        raise experiment.ConfigError(f"{task} noise requires --schema")
    schema = record.load_schema(schema_path) if record.from_files else None
    records, labeled = record.read_labeled(input_path, schema)
    try:
        noisy, mask = noiselab.inject_noise(labeled, spec)
    except experiment.ConfigError as exc:  # the file's labels span too few classes
        raise datasets.DataError(f"{input_path}: {exc}") from exc
    record.write_records(output_path, record.relabel(records, noisy.labels), schema)
    mask_target = mask_path if mask_path is not None else f"{output_path}.flips.csv"
    mask.save_csv(mask_target, labeled.ids)
    click.echo(f"flipped {len(mask)} of {mask.num_instances} labels")
    click.echo(f"wrote {output_path}")
    click.echo(f"mask: {mask_target}")


@main.command()
@click.option("--model", "model_path", required=True, type=click.Path())
@click.option("--task", type=click.Choice(tuple(datasets.TASKS)),
              default="synthetic", show_default=True)
@click.option("--data", "data_path", required=True, type=click.Path())
@click.option("--schema", "schema_path", type=click.Path(), default=None)
@click.option("--vocab", "vocab_path", type=click.Path(), default=None)
@_guarded
def evaluate(model_path, task, data_path, schema_path, vocab_path):
    """Score a saved model on a dataset file. The model's layer sizes give
    the tagging window and the synthetic task's number of classes; an empty
    file, or a schema with another number of classes, is a data error."""
    try:
        model = mdl.load_model(model_path)
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise datasets.DataError(f"cannot load model {model_path}: {exc}") from exc
    record = datasets.TASKS[task]
    if record.from_files and (schema_path is None or vocab_path is None):
        raise experiment.ConfigError(f"{task} evaluation requires --schema and --vocab")
    schema = record.load_schema(schema_path) if record.from_files else None
    vocab = datasets.load_vocab(vocab_path) if record.from_files else None
    outputs = model.layer_sizes[-1]
    dataset, _ = record.load_split(data_path, schema, vocab, num_classes=outputs,
                                   window=record.window(model.layer_sizes[0], vocab))
    if not len(dataset):
        raise datasets.DataError(f"{data_path}: empty data file")
    if dataset.num_classes != outputs:
        raise datasets.DataError(f"model/data mismatch: the model has {outputs} "
                                 f"outputs, the data {dataset.num_classes} classes")
    name, fn = datasets.make_metric(task, schema=schema)
    try:
        preds = mdl.predict(model, dataset.features)
    except ValueError as exc:
        raise datasets.DataError(f"model/data mismatch: {exc}") from exc
    click.echo(f"{name}: {repr(float(fn(dataset, preds)))}")


if __name__ == "__main__":
    main()
