"""Byte identity of two source trees, as one command.

Runs one committed matrix of coreglab commands in each tree and reports
every artifact and every command result that differs:

    python tools/samebytes.py --parent DIR --change DIR
    python tools/samebytes.py --against REV    # REV by `git archive`; the
                                               # change is this working tree

A tree is a directory holding ``src/coreglab`` and ``bench/workloads.py``.
Each tree runs on its own PYTHONPATH (its ``src``, plus its ``bench`` for
the benchmark's ``make_inputs``), so each writes the workload inputs with
its own code, and those inputs are compared too. Every case of the matrix
runs in a fresh directory at one shared path, the same for both trees,
since a run manifest's ``config_hash`` covers the config's absolute paths.

Compared:
- every file a case leaves, byte for byte, but ``manifest.json`` with
  ``wall_clock_sec`` zeroed;
- every command's exit code, stdout and stderr, with the tree's path
  replaced by ``<tree>``.

Prints one line per file or command that differs, then a summary, and exits
1 if anything differs, 0 if nothing does. Commands run one at a time, with
OpenBLAS on one thread; the full matrix takes a few minutes per tree pair.
"""

import argparse
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COMMAND_TIMEOUT_S = 900

# Writes a benchmark workload's inputs as bench/run.py does; argv: name,
# seed, output directory, scale.
MAKE_INPUTS = ("import sys; from pathlib import Path; import workloads; "
               "workloads.make_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), "
               "sys.argv[4])")

WORKLOADS = ("coreg_protocol", "crossweigh_folds", "tagging_eval")
METHODS = ("coreg", "plain", "small_loss", "relabel", "crossweigh")
AGGREGATE_MODES = ("avg_prob", "avg_logit", "min_prob")

# A small synthetic task and run, shared by the cases below.
SMALL_DATA = {"train_size": 240, "dev_size": 80, "test_size": 80, "num_classes": 4,
              "num_features": 20, "class_sep": 2.5, "data_seed": 5}
SMALL_TRAIN = {"num_models": 2, "batch_size": 32, "hidden_sizes": [16], "gamma": 5.0,
               "base_lr": 0.01}


class Case:
    """The commands of one matrix case, run in its directory ``here``: each
    ``cli`` or ``python`` call runs one process and records its result."""

    def __init__(self, here: Path, env: dict, tree: Path):
        self.here, self.env, self.tree = here, env, tree
        self.commands = []

    def _run(self, label, argv):
        proc = subprocess.run(argv, cwd=self.here, env=self.env, capture_output=True,
                              text=True, errors="replace", timeout=COMMAND_TIMEOUT_S)
        tree = str(self.tree)
        self.commands.append({"command": label, "code": proc.returncode,
                              "stdout": proc.stdout.replace(tree, "<tree>"),
                              "stderr": proc.stderr.replace(tree, "<tree>")})
        return proc.returncode

    def cli(self, *args):
        args = [str(a) for a in args]
        return self._run(" ".join(["coreglab", *args]),
                         [sys.executable, "-m", "coreglab.cli", *args])

    def python(self, label, code, *args):
        return self._run(label, [sys.executable, "-c", code, *map(str, args)])

    def write(self, name, text):
        path = self.here / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        return name

    def config(self, name, **mapping):
        """A config file; JSON is YAML, so the CLI reads it as written."""
        return self.write(name, json.dumps(mapping, indent=1, sort_keys=True) + "\n")


def _workload(name, seed, scale="full", limit=None):
    def body(case):
        case.python(f"make_inputs {name} {seed} {scale}", MAKE_INPUTS, name, seed,
                    case.here, scale)
        for config in sorted(case.here.glob("config_*.yaml"))[:limit]:
            case.cli("train", config.name)
    return f"workload_{name}_{seed}", body


def _methods(case):
    """The five methods at M=3 through every train option a default run
    leaves off."""
    for method in METHODS:
        case.cli("train", case.config(
            f"{method}.yaml", task="synthetic", method=method, seeds=[1, 2], epochs=10,
            output_dir=f"run_{method}", data=SMALL_DATA, noise={"rate": 0.3},
            train={**SMALL_TRAIN, "num_models": 3, "hidden_sizes": [16, 8],
                   "dropout": 0.3, "aggregate_mode": "min_prob",
                   "soft_target_gradient": True, "selection_policy": "best_dev"},
            baseline={"folds": 3, "delta_max": 30.0}))


def _audit(case):
    for models in (2, 3):
        for mode in AGGREGATE_MODES:
            case.cli("audit-labels", case.config(
                f"audit_{models}_{mode}.yaml", task="synthetic", seeds=[1], epochs=10,
                output_dir=f"run_{models}_{mode}", data=SMALL_DATA,
                noise={"rate": 0.3, "seed": 4},
                train={**SMALL_TRAIN, "num_models": models, "aggregate_mode": mode}))


def _other_methods(case):
    """audit-labels trains each baseline method; analyze-noise, which sweeps
    coreg's gamma, refuses one."""
    for method in METHODS[1:]:
        case.cli("audit-labels", case.config(
            f"audit_{method}.yaml", task="synthetic", method=method, seeds=[1], epochs=10,
            output_dir=f"run_{method}", data=SMALL_DATA, noise={"rate": 0.3, "seed": 4},
            train=SMALL_TRAIN, baseline={"folds": 3, "delta_max": 30.0}))
    case.cli("analyze-noise", case.config(
        "analysis_plain.yaml", task="synthetic", method="plain", seeds=[1], epochs=10,
        output_dir="run_analysis_plain", data=SMALL_DATA, train=SMALL_TRAIN,
        analysis={"pool_size": 120}))


def _paths(case):
    """Paths no other case reaches: class-conditional noise, the soft-target
    gradient under avg_prob, a rerun with fewer seeds into a used run
    directory (its cleanup leaves no seed_2/), and crossweigh fold models
    that stop mid-epoch (129 rows in 2 folds at batch 64)."""
    small = {"task": "synthetic", "seeds": [1, 2], "epochs": 10, "data": SMALL_DATA}
    confusion = [[0.0, 0.5, 0.25, 0.25], [0.5, 0.0, 0.25, 0.25],
                 [0.25, 0.25, 0.0, 0.5], [0.25, 0.25, 0.5, 0.0]]
    case.cli("train", case.config(
        "class_conditional.yaml", **small, output_dir="run_class_conditional",
        train=SMALL_TRAIN, noise={"rate": 0.3, "scheme": "class_conditional",
                                  "confusion": confusion}))
    case.cli("train", case.config(
        "soft_avg_prob.yaml", **small, output_dir="run_soft_avg_prob",
        noise={"rate": 0.3}, train={**SMALL_TRAIN, "soft_target_gradient": True}))
    for seeds in ([1, 2], [1]):
        case.cli("train", case.config(
            f"rerun_{len(seeds)}.yaml", **{**small, "seeds": seeds}, output_dir="run_rerun",
            train=SMALL_TRAIN))
    case.cli("train", case.config(
        "partial_epoch.yaml", **{**small, "seeds": [1], "epochs": 5,
                                 "data": {**SMALL_DATA, "train_size": 129}},
        method="crossweigh", output_dir="run_partial_epoch",
        train={**SMALL_TRAIN, "num_models": 1, "batch_size": 64}, baseline={"folds": 2}))


def _analysis(case):
    for name, gammas in (("grid", [0.0, 1.0, 5.0, 20.0]), ("repeat", [1.0, 0.0, 1.0])):
        case.cli("analyze-noise", case.config(
            f"{name}.yaml", task="synthetic", seeds=[1, 2], epochs=10,
            output_dir=f"run_{name}", data=SMALL_DATA, noise={"rate": 0.3},
            train=SMALL_TRAIN, analysis={"gammas": gammas, "pool_size": 120}))
        case.cli("export-curves", f"run_{name}", "--out", f"{name}_curves.csv")


def _synthetic(case):
    sizes = [f"--{key.replace('_', '-')}={value}" for key, value in SMALL_DATA.items()
             if key != "data_seed"]
    case.cli("gen-synthetic", "--out", "data", "--seed", SMALL_DATA["data_seed"], *sizes)
    case.cli("inject-noise", "--input", "data/train.jsonl", "--output",
             "data/noisy.jsonl", "--rate", "0.3", "--seed", "7")
    case.cli("train", case.config("train.yaml", task="synthetic", seeds=[1, 2], epochs=10,
                                  output_dir="run", data=SMALL_DATA,
                                  noise={"rate": 0.3}, train=SMALL_TRAIN))
    case.cli("evaluate", "--model", "run/seed_1/model.npz", "--data", "data/test.jsonl")
    case.cli("export-curves", "run")
    case.cli("export-curves", "run", "--out", "curves.csv")


def _file_task(case, task, data, suffix):
    """gen-synthetic's or the tool's files in data/: noise, a coreg run, its
    evaluation and a label audit."""
    schema = "data/schema.json"
    case.cli("inject-noise", "--task", task, "--input", f"data/train.{suffix}",
             "--output", f"data/noisy.{suffix}", "--rate", "0.2", "--seed", "3",
             "--schema", schema)
    for command, run in (("train", "run"), ("audit-labels", "run_audit")):
        case.cli(command, case.config(
            f"{run}.yaml", task=task, seeds=[1], epochs=6, output_dir=run,
            data=data, noise={"rate": 0.2}, train=SMALL_TRAIN))
    case.cli("evaluate", "--task", task, "--model", "run/seed_1/model.npz", "--data",
             f"data/test.{suffix}", "--schema", schema, "--vocab", "run/vocab.json")


def _tagging(case):
    case.cli("gen-synthetic", "--task", "tagging", "--out", "data", "--sentences", 200,
             "--seed", 3)
    data = {f"{split}_path": f"data/{split}.conll" for split in ("train", "dev", "test")}
    _file_task(case, "tagging", {**data, "schema_path": "data/schema.json", "window": 1},
               "conll")
    case.write("data/unknown_tag.conll", "w01 B-PER\nw02 B-MISC\n")
    case.cli("evaluate", "--task", "tagging", "--model", "run/seed_1/model.npz",
             "--data", "data/unknown_tag.conll", "--schema", "data/schema.json",
             "--vocab", "run/vocab.json")
    case.cli("evaluate", "--task", "tagging", "--model", "run/seed_1/model.npz",
             "--data", "data/test.conll")
    # An audit run saves no curves.csv.
    case.cli("export-curves", "run_audit")


RELATION_SCHEMA = {"relations": ["none", "founded", "born_in"], "negative": "none",
                   "entity_types": ["PER", "ORG", "LOC"]}
# Each label's subject type, object type and trigger words; a none sentence
# joins a person and an organisation by a word that states no relation.
RELATION_TEMPLATES = {"none": ("PER", "ORG", ["met", "visited"]),
                      "founded": ("PER", "ORG", ["founded", "started"]),
                      "born_in": ("PER", "LOC", ["born", "raised"])}


def _relation_records(count, seed):
    """``count`` templated relation records: fillers, the subject, a trigger
    word, the object, fillers."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        label = rng.choice(sorted(RELATION_TEMPLATES))
        subj_type, obj_type, triggers = RELATION_TEMPLATES[label]
        tokens = [f"w{rng.randrange(12)}" for _ in range(rng.randint(1, 3))]
        subj = len(tokens)
        tokens += [f"{subj_type.lower()}{rng.randrange(5)}", rng.choice(triggers)]
        obj = len(tokens)
        tokens.append(f"{obj_type.lower()}{rng.randrange(5)}")
        tokens += [f"w{rng.randrange(12)}" for _ in range(rng.randint(0, 2))]
        records.append({"tokens": tokens, "subj": [subj, subj], "subj_type": subj_type,
                        "obj": [obj, obj], "obj_type": obj_type, "label": label})
    return records


def _jsonl(records):
    return "".join(json.dumps(record) + "\n" for record in records)


def _relation(case):
    case.write("data/schema.json", json.dumps(RELATION_SCHEMA))
    for split, count, seed in (("train", 160, 1), ("dev", 50, 2), ("test", 50, 3)):
        case.write(f"data/{split}.jsonl", _jsonl(_relation_records(count, seed)))
    data = {f"{split}_path": f"data/{split}.jsonl" for split in ("train", "dev", "test")}
    _file_task(case, "relation", {**data, "schema_path": "data/schema.json"}, "jsonl")
    # A label the schema does not name, and one that is not a string.
    good = _relation_records(1, 4)
    for name, label in (("unknown_label", "married_to"), ("list_label", ["founded"])):
        bad = case.write(f"data/{name}.jsonl", _jsonl(good + [{**good[0], "label": label}]))
        case.cli("train", case.config(
            f"{name}.yaml", task="relation", method="plain", seeds=[1], epochs=1,
            output_dir=f"run_{name}", data={**data, "train_path": bad,
                                            "schema_path": "data/schema.json"}))
        case.cli("evaluate", "--task", "relation", "--model", "run/seed_1/model.npz",
                 "--data", bad, "--schema", "data/schema.json", "--vocab", "run/vocab.json")


def _errors(case):
    """The documented error exits: 1 for a config error, 2 for a data error,
    3 for divergence, each with the files it leaves."""
    small = {"task": "synthetic", "seeds": [1], "epochs": 1, "data": SMALL_DATA,
             "train": SMALL_TRAIN}
    case.cli("train", "missing.yaml")
    case.cli("train", case.write("not_yaml.yaml", "seeds: [1\n"))
    case.cli("train", case.config("method.yaml", **small, output_dir="run_method",
                                  method="coteach"))
    case.cli("train", case.config("no_table.yaml", **small, output_dir="run_no_table",
                                  noise={"rate": 0.3, "scheme": "class_conditional"}))
    case.cli("train", case.config(
        "table_size.yaml", **small, output_dir="run_table_size",
        noise={"rate": 0.3, "scheme": "class_conditional",
               "confusion": [[0.0, 1.0], [1.0, 0.0]]}))
    # A confusion table only class_conditional reads.
    case.cli("train", case.config(
        "uniform_table.yaml", **small, output_dir="run_uniform_table",
        noise={"rate": 0.3, "confusion": [[0.25] * 4] * 4}))
    case.cli("audit-labels", case.config(
        "soft_logit.yaml", **{**small, "train": {**SMALL_TRAIN, "aggregate_mode": "avg_logit",
                                                  "soft_target_gradient": True}},
        output_dir="run_soft_logit"))
    case.cli("train", case.config("diverges.yaml", **{
        **small, "train": {**SMALL_TRAIN, "base_lr": 1e200}}, output_dir="run_diverges"))
    case.write("a_file", "")
    case.cli("train", case.config("out_is_file.yaml", **small, output_dir="a_file"))
    case.cli("train", case.config("ok.yaml", **small, output_dir="run_ok"))
    case.write("wide.jsonl", _jsonl([{"features": [0.0] * 3, "label": 0}]))
    case.cli("evaluate", "--model", "run_ok/seed_1/model.npz", "--data", "wide.jsonl")
    case.write("not_a_model.npz", "not an archive\n")
    case.cli("evaluate", "--model", "not_a_model.npz", "--data", "wide.jsonl")
    case.write("empty.jsonl", "")
    case.cli("inject-noise", "--input", "empty.jsonl", "--output", "out.jsonl",
             "--rate", "0.3")
    case.cli("inject-noise", "--input", "wide.jsonl", "--output", "out.jsonl",
             "--mask-out", "out.jsonl", "--rate", "0.3")
    case.cli("inject-noise", "--input", "wide.jsonl", "--output", "out.jsonl",
             "--rate", "1.5")
    (case.here / "empty_run").mkdir()
    case.cli("export-curves", "empty_run")
    case.cli("gen-synthetic", "--task", "tagging", "--out", "gen", "--sentences", 2)
    case.cli("gen-synthetic", "--task", "relation", "--out", "gen")


MATRIX = [
    *(_workload(name, seed) for name in WORKLOADS for seed in (1, 2)),
    ("methods", _methods), ("audit", _audit), ("other_methods", _other_methods),
    ("analysis", _analysis), ("paths", _paths),
    ("synthetic", _synthetic), ("tagging", _tagging), ("relation", _relation),
    ("errors", _errors),
]


def _env(tree: Path) -> dict:
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONPATH", "COREGLAB_OUTPUT_ROOT")}
    env.update(PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "bench")]),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    return env


def run_matrix(tree: Path, shared: Path, results: Path, matrix=MATRIX) -> None:
    """Run every case in ``tree``, each in a fresh ``shared`` directory, and
    keep what it left as results/<case>/files and results/<case>/commands.json."""
    tree = tree.resolve()
    for name, body in matrix:
        if shared.exists():
            shutil.rmtree(shared)
        shared.mkdir(parents=True)
        case = Case(shared, _env(tree), tree)
        body(case)
        (results / name).mkdir(parents=True)
        shared.rename(results / name / "files")
        (results / name / "commands.json").write_text(
            json.dumps(case.commands, indent=1) + "\n")
        print(f"{tree}: {name}: {len(case.commands)} commands", file=sys.stderr)


def _normalised(path: Path) -> bytes:
    """A file's bytes, with a manifest's wall clock zeroed."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        data = re.sub(rb'"wall_clock_sec": [^,\n}]*', b'"wall_clock_sec": 0', data)
    return data


def _files(directory: Path) -> dict:
    return {path.relative_to(directory).as_posix(): path
            for path in sorted(directory.rglob("*")) if path.is_file()}


def _show(text: str) -> str:
    return repr(text if len(text) <= 300 else text[:300] + "...")


def compare(parent: Path, change: Path) -> list:
    """One line per file or command that differs between two run_matrix
    results."""
    lines = []
    for name in sorted({p.name for p in parent.iterdir()} | {p.name for p in change.iterdir()}):
        if not (parent / name).is_dir() or not (change / name).is_dir():
            side = "parent" if (parent / name).is_dir() else "change"
            lines.append(f"case {name}: only in {side}")
            continue
        files = [_files(root / name / "files") for root in (parent, change)]
        for path in sorted(files[0].keys() | files[1].keys()):
            if path not in files[1]:
                lines.append(f"file {name}/{path}: only in parent")
            elif path not in files[0]:
                lines.append(f"file {name}/{path}: only in change")
            elif _normalised(files[0][path]) != _normalised(files[1][path]):
                lines.append(f"file {name}/{path}: bytes differ")
        commands = [json.loads((root / name / "commands.json").read_text())
                    for root in (parent, change)]
        if len(commands[0]) != len(commands[1]):
            lines.append(f"case {name}: {len(commands[0])} commands in parent, "
                         f"{len(commands[1])} in change")
        for i, (old, new) in enumerate(zip(*commands)):
            where = f"command {name} #{i} `{old['command']}`"
            if old["command"] != new["command"]:
                lines.append(f"{where}: the change ran `{new['command']}`")
                continue
            for key in ("code", "stdout", "stderr"):
                if old[key] != new[key]:
                    shown = str if key == "code" else _show
                    lines.append(f"{where}: {key} {shown(old[key])} -> {shown(new[key])}")
    return lines


def count(results: Path) -> tuple:
    """(files, commands) in run_matrix results."""
    cases = [case for case in results.iterdir() if case.is_dir()]
    return (sum(len(_files(case / "files")) for case in cases),
            sum(len(json.loads((case / "commands.json").read_text())) for case in cases))


def export(rev: str, target: Path) -> None:
    """The tree of commit ``rev`` of this repository, by `git archive`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="the tree to compare against")
    parser.add_argument("--change", type=Path, default=REPO,
                        help="the changed tree (default: this working tree)")
    parser.add_argument("--against", metavar="REV",
                        help="export REV of this repository as the parent")
    parser.add_argument("--work", type=Path, default=None,
                        help="keep the shared run path and both trees' results here "
                             "(a new directory; default: a temporary one, removed)")
    args = parser.parse_args(argv)
    if (args.parent is None) == (args.against is None):
        parser.error("give exactly one of --parent and --against")
    work = args.work
    if work is None:
        work = Path(tempfile.mkdtemp(prefix="samebytes-"))
    else:
        work.mkdir(parents=True)
    work = work.resolve()
    try:
        parent = args.parent
        if args.against is not None:
            parent = work / "parent_tree"
            export(args.against, parent)
        for label, tree in (("parent", parent), ("change", args.change)):
            run_matrix(tree, work / "case", work / label)
        lines = compare(work / "parent", work / "change")
        files, commands = count(work / "parent")
        for line in lines:
            print(line)
        print(f"{len(lines)} differences over {files} files and {commands} commands "
              f"of the parent")
        return 1 if lines else 0
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
