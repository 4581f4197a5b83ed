"""Dataset containers, file formats, and synthetic task generators.

File formats:
- CoNLL column files: blank-line-separated sentences, one token per line,
  first column the token, last column the BIO tag symbol.
- Relation records: one JSON object per line with tokens, inclusive
  subject/object spans plus entity types, and a relation label name.
- Feature records: one JSON object per line with a dense feature vector,
  an integer label and optionally an integer id; used by the synthetic
  classification task.
- Schema files: JSON naming the label vocabulary (for relation data also
  the negative label and the entity types; for tagging the entity types).

Every CSV and JSON artifact a run writes goes through write_csv and
write_json, the one copy of each format.
"""

import csv
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from . import models as mdl
from .schema import Key, check

TASKS = ("synthetic", "relation", "tagging")


class DataError(Exception):
    """A dataset file is missing, malformed, or inconsistent."""


def _open_data(path):
    """Open a data file for reading; an unreadable path is a DataError."""
    try:
        return open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _data_lines(path):
    """(line number, line) pairs of a data file, newlines stripped; a file
    that cannot be opened or decoded is a DataError."""
    with _open_data(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: cannot decode: {exc}") from exc
    return enumerate(text.split("\n"), start=1)


def write_csv(path, header, rows) -> None:
    """A CSV artifact: the header, then each row, with "\n" line endings and
    the values as given (callers format floats with repr)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """A JSON artifact: indented by 2, keys sorted, ending in a newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, what: str, build):
    """``build`` applied to a JSON file's object; a file that does not parse,
    is not an object, or that ``build`` refuses is a DataError naming it."""
    with _open_data(path) as fh:
        try:
            raw = json.load(fh)
            if not isinstance(raw, dict):
                raise TypeError("the file must be a JSON object")
            return build(raw)
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: bad {what}: {exc}") from exc


@dataclass
class LabeledDataset:
    """Feature rows with integer labels.

    Features are a dense float64 (rows, features) matrix or models.WindowIds,
    tagging's one-hot windows kept as (rows, 2*window+1) column indices;
    num_features is the dense width either way, and subset, with_labels and
    concat_datasets keep the form. groups map each row to a sentence for
    span-level scoring of tagging tasks. Features are
    read-only once a dataset is built: with_labels shares them between the
    datasets it relates.
    """

    features: np.ndarray | mdl.WindowIds
    labels: np.ndarray
    num_classes: int
    ids: np.ndarray | None = None
    groups: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.features, mdl.WindowIds):
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2:
                raise ValueError("features must be a 2-D matrix")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError("labels must align with feature rows")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")
        if self.ids is None:
            self.ids = np.arange(n, dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
            if self.ids.shape != (n,):
                raise ValueError("ids must align with feature rows")
        if self.groups is not None:
            self.groups = np.asarray(self.groups, dtype=np.int64)
            if self.groups.shape != (n,):
                raise ValueError("groups must align with feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return mdl.feature_width(self.features)

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            self.features[idx], self.labels[idx], self.num_classes,
            ids=self.ids[idx],
            groups=None if self.groups is None else self.groups[idx])

    def with_labels(self, labels) -> "LabeledDataset":
        """Copy with replaced labels, sharing the feature matrix."""
        return LabeledDataset(self.features, labels, self.num_classes,
                              ids=self.ids.copy(),
                              groups=None if self.groups is None else self.groups.copy())


def concat_datasets(first: LabeledDataset, second: LabeledDataset) -> LabeledDataset:
    """Row-wise concatenation; ids are renumbered to stay unique."""
    if first.num_classes != second.num_classes:
        raise ValueError("datasets disagree on the class count")
    if first.num_features != second.num_features:
        raise ValueError("datasets disagree on the feature width")
    if type(first.features) is not type(second.features):
        raise ValueError("datasets disagree on the feature form")
    if isinstance(first.features, mdl.WindowIds):
        features = mdl.WindowIds(np.vstack([first.features.ids, second.features.ids]),
                                 first.num_features)
    else:
        features = np.vstack([first.features, second.features])
    return LabeledDataset(features, np.concatenate([first.labels, second.labels]),
                          first.num_classes)


# A schema file's list of relation labels or entity types.
_NAMES = Key([str])


@dataclass(frozen=True)
class RelationSchema:
    """Relation label vocabulary with its designated negative label, plus
    the entity types legal in subject/object positions."""

    relations: tuple[str, ...]
    negative: str
    entity_types: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relation labels")
        if len(set(self.entity_types)) != len(self.entity_types):
            raise ValueError("duplicate entity types")
        if self.negative not in self.relations:
            raise ValueError("negative label must be one of the relations")
        object.__setattr__(self, "_index",
                           {name: i for i, name in enumerate(self.relations)})

    def label_index(self, name: str) -> int:
        if name not in self._index:
            raise ValueError(f"unknown relation label {name!r}")
        return self._index[name]

    @property
    def negative_index(self) -> int:
        return self._index[self.negative]

    @classmethod
    def load(cls, path) -> "RelationSchema":
        return read_json(path, "relation schema", lambda raw: cls(
            check("relations", raw["relations"], _NAMES), raw["negative"],
            check("entity_types", raw["entity_types"], _NAMES)))


def _is_tokens(value) -> bool:
    """Whether a parsed JSON value is a list of strings, the empty one and
    empty strings included: a sentence or a vocabulary."""
    return isinstance(value, list) and all(isinstance(t, str) for t in value)


def save_vocab(vocab: mdl.Vocab, path) -> None:
    write_json(path, {"tokens": vocab.tokens()})


def load_vocab(path) -> mdl.Vocab:
    def build(raw):
        if not _is_tokens(raw["tokens"]):
            raise TypeError("tokens must be a list of strings")
        return mdl.Vocab(raw["tokens"])

    return read_json(path, "vocabulary file", build)


def load_tag_scheme(path) -> metrics.TagScheme:
    return read_json(path, "tagging schema", lambda raw: metrics.TagScheme(
        check("entity_types", raw["entity_types"], _NAMES)))


def save_tag_scheme(scheme: metrics.TagScheme, path) -> None:
    write_json(path, {"entity_types": scheme.entity_types})


def read_conll(path, scheme: metrics.TagScheme) -> list[mdl.TaggingInstance]:
    """Parse a CoNLL column file into tagging instances, preserving order."""
    instances: list[mdl.TaggingInstance] = []
    tokens: list[str] = []
    tags: list[int] = []

    def flush():
        if tokens:
            instances.append(mdl.TaggingInstance(list(tokens), list(tags),
                                                 uid=len(instances)))
            tokens.clear()
            tags.clear()

    for lineno, raw in _data_lines(path):
        line = raw.rstrip("\n")
        if not line.strip():
            flush()
            continue
        cols = line.split()
        if len(cols) < 2:
            raise DataError(f"{path}:{lineno}: expected token and tag columns")
        try:
            tag = scheme.index(cols[-1])
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
        tokens.append(cols[0])
        tags.append(tag)
    flush()
    return instances


def write_conll(path, instances, scheme: metrics.TagScheme) -> None:
    with open(path, "w") as fh:
        for s, inst in enumerate(instances):
            if s:
                fh.write("\n")
            for token, tag in zip(inst.tokens, inst.tags):
                fh.write(f"{token} {scheme.symbol(tag)}\n")


_RELATION_KEYS = ("tokens", "subj", "subj_type", "obj", "obj_type", "label")


def _is_int(value, least=None) -> bool:
    """Whether a parsed JSON value is an integer (a bool is not), and at
    least ``least`` when that is given."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and (least is None or value >= least))


def _record_id(rec: dict, seen: set, where: str) -> int:
    """A record's id, by default its position among the records before it:
    an integer that no earlier record has, added to ``seen``."""
    uid = rec.get("id", len(seen))
    if not _is_int(uid):
        raise DataError(f"{where}: id must be an integer, got {uid!r}")
    if uid in seen:
        raise DataError(f"{where}: duplicate id {uid}")
    seen.add(uid)
    return uid


def _jsonl_records(path):
    """(where, record, id) of each non-blank line of a JSONL file, which must
    hold a JSON object; ``where`` names the line for errors."""
    seen = set()
    for lineno, raw in _data_lines(path):
        line = raw.strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: invalid record: {exc}") from exc
        if not isinstance(rec, dict):
            raise DataError(f"{where}: invalid record: not a JSON object")
        yield where, rec, _record_id(rec, seen, where)


def read_relation_jsonl(path, schema: RelationSchema) -> list[mdl.SentenceInstance]:
    """Parse line-delimited relation records; every error names the line."""
    instances = []
    for where, rec, uid in _jsonl_records(path):
        missing = [k for k in _RELATION_KEYS if k not in rec]
        if missing:
            raise DataError(f"{where}: missing fields {missing}")
        tokens = rec["tokens"]
        if not _is_tokens(tokens):
            raise DataError(f"{where}: tokens must be a list of strings")
        try:
            label = schema.label_index(rec["label"])
        except (TypeError, ValueError) as exc:
            raise DataError(f"{where}: {exc}") from exc
        for role in ("subj", "obj"):
            span = rec[role]
            if not (isinstance(span, list) and len(span) == 2
                    and all(_is_int(end) for end in span)):
                raise DataError(f"{where}: {role} span must be two integers")
            if rec[f"{role}_type"] not in schema.entity_types:
                raise DataError(f"{where}: unknown entity type {rec[f'{role}_type']!r}")
        try:
            inst = mdl.SentenceInstance(tokens, tuple(rec["subj"]), rec["subj_type"],
                                        tuple(rec["obj"]), rec["obj_type"], label)
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
        inst.uid = uid
        instances.append(inst)
    return instances


def write_relation_jsonl(path, instances, schema: RelationSchema) -> None:
    with open(path, "w") as fh:
        for inst in instances:
            rec = {"id": int(inst.uid), "tokens": list(inst.tokens),
                   "subj": list(inst.subj_span), "subj_type": inst.subj_type,
                   "obj": list(inst.obj_span), "obj_type": inst.obj_type,
                   "label": schema.relations[inst.label]}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_feature_jsonl(path, num_classes: int | None = None) -> LabeledDataset:
    """Parse line-delimited dense feature records into a dataset; ids, when
    given, are distinct integers, and default to the record's position.
    Keys other than features, label and id are ignored."""
    feats, labels, ids = [], [], []
    for where, rec, uid in _jsonl_records(path):
        try:
            feats.append([float(v) for v in rec["features"]])
            label = rec["label"]
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{where}: invalid record: {exc}") from exc
        ids.append(uid)
        if not _is_int(label, 0):
            raise DataError(f"{where}: label must be a non-negative "
                            f"integer, got {label!r}")
        labels.append(label)
        if len(feats[-1]) != len(feats[0]):
            raise DataError(f"{where}: inconsistent feature width")
    if not feats:
        return LabeledDataset(np.empty((0, 0)), np.empty(0, np.int64),
                              num_classes or 1)
    top = max(labels)
    if num_classes is None:
        num_classes = top + 1
    elif top >= num_classes:
        raise DataError(f"{path}: label {top} outside {num_classes} classes")
    return LabeledDataset(np.array(feats), np.array(labels), num_classes,
                          ids=np.array(ids))


def write_feature_jsonl(path, dataset: LabeledDataset) -> None:
    with open(path, "w") as fh:
        for i in range(len(dataset)):
            rec = {"id": int(dataset.ids[i]),
                   "features": [float(v) for v in dataset.features[i]],
                   "label": int(dataset.labels[i])}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def build_relation_dataset(instances, schema: RelationSchema,
                           vocab: mdl.Vocab | None = None):
    """Mask entities, featurize sentences, and stack them into a dataset.
    Builds the vocabulary from the masked corpus when none is given."""
    masked = [mdl.entity_mask(inst) for inst in instances]
    if vocab is None:
        vocab = mdl.Vocab(sorted({tok for sent in masked for tok in sent}))
    features = (np.stack([mdl.featurize_sentence(sent, vocab) for sent in masked])
                if masked else np.zeros((0, len(vocab))))
    labels = np.array([inst.label for inst in instances], dtype=np.int64)
    ids = np.array([inst.uid for inst in instances], dtype=np.int64)
    return LabeledDataset(features, labels, len(schema.relations), ids=ids), vocab


def build_tagging_dataset(instances, scheme: metrics.TagScheme,
                          vocab: mdl.Vocab | None = None, window: int = 1):
    """One row per token: windowed one-hot features with the BIO tag index
    as the label; groups record the source sentence.

    A row is 2*window+1 one-hot blocks of len(vocab) columns, one per token
    in [position-window, position+window], with <pad> outside the sentence.
    It is kept as WindowIds: the column of each block's one,
    slot*len(vocab) + the token's vocabulary id.
    """
    if vocab is None:
        vocab = mdl.Vocab(sorted({tok for inst in instances for tok in inst.tokens}))
    lengths = np.array([len(inst.tokens) for inst in instances], dtype=np.int64)
    groups = np.repeat(np.arange(len(instances)), lengths)
    labels = np.array([tag for inst in instances for tag in inst.tags], dtype=np.int64)
    # Every sentence padded by `window` <pad> ids on both sides, so the token
    # in slot j of row r's window sits at padded[r + 2*window*groups[r] + j].
    pad = [vocab.pad_index] * window
    index = vocab.index
    padded = []
    for inst in instances:
        padded += pad
        padded += [index(tok) for tok in inst.tokens]
        padded += pad
    padded = np.array(padded, dtype=np.int64)
    slots = np.arange(2 * window + 1)
    first = np.arange(len(labels)) + 2 * window * groups
    ids = slots * len(vocab) + padded[first[:, None] + slots]
    features = mdl.WindowIds(ids, len(slots) * len(vocab))
    return LabeledDataset(features, labels, len(scheme), groups=groups), vocab


def make_metric(task: str, *, schema: RelationSchema | metrics.TagScheme | None = None):
    """(metric name, scorer) for a task; scorers map (dataset, preds) to a
    float so training can evaluate any split uniformly. ``schema`` is the
    task's schema as load_schema returns it."""
    if task == "synthetic":
        return "accuracy", lambda dataset, preds: metrics.accuracy(dataset.labels, preds)
    if task == "relation":
        if schema is None:
            raise ValueError("relation metric needs the schema")
        neg = schema.negative_index

        def rel_fn(dataset, preds):
            return metrics.relation_micro_f1(dataset.labels, preds, neg).f1

        return "f1", rel_fn
    if task == "tagging":
        if schema is None:
            raise ValueError("tagging metric needs the tag scheme")

        def tag_fn(dataset, preds):
            if dataset.groups is None:
                raise ValueError("tagging dataset lacks sentence groups")
            # One stable sort groups the rows by sentence in np.unique order,
            # keeping each sentence's rows in their original order.
            order = np.argsort(dataset.groups, kind="stable")
            bounds = np.flatnonzero(np.diff(dataset.groups[order])) + 1
            edges = [0, *bounds.tolist(), len(order)] if len(order) else [0]
            tags = schema.tags
            gold = [tags[i] for i in dataset.labels[order].tolist()]
            pred = [tags[i] for i in np.asarray(preds)[order].tolist()]
            golds, predicted = [], []
            for start, stop in zip(edges, edges[1:]):
                golds.append(metrics.bio_decode(gold[start:stop]))
                predicted.append(metrics.bio_decode(pred[start:stop]))
            return metrics.span_f1(golds, predicted).f1

        return "f1", tag_fn
    raise ValueError(f"unknown task {task!r}")


# The task dispatch: the one place that maps a task name to its formats, for
# the experiment runner and the command line. Each function names the format
# functions through this module's globals at call time, never through a table
# built at import, so a caller that rebinds one (as a tracer does) sees every
# call.

def load_schema(task: str, path):
    """The label schema of a file task (RelationSchema or TagScheme); None
    for the synthetic task, whose labels are plain class indices."""
    if task == "synthetic":
        return None
    return RelationSchema.load(path) if task == "relation" else load_tag_scheme(path)


def load_split(task: str, path, schema, vocab: mdl.Vocab | None = None, *,
               window: int = 1, num_classes: int | None = None):
    """One split file as (dataset, vocab); file tasks build the vocabulary
    from it when none is given, the synthetic task has none."""
    if task == "synthetic":
        return read_feature_jsonl(path, num_classes), None
    if task == "relation":
        return build_relation_dataset(read_relation_jsonl(path, schema), schema, vocab)
    return build_tagging_dataset(read_conll(path, schema), schema, vocab, window=window)


def read_labeled(task: str, path, schema):
    """A file's records and a dataset of their flat label vector, one label
    per record (per token for tagging), in file order."""
    if task == "synthetic":
        dataset = read_feature_jsonl(path)
        return dataset, dataset
    if task == "relation":
        records = read_relation_jsonl(path, schema)
        labels, num_classes = [r.label for r in records], len(schema.relations)
    else:
        records = read_conll(path, schema)
        labels, num_classes = [t for r in records for t in r.tags], len(schema)
    return records, LabeledDataset(np.zeros((len(labels), 1)), labels, num_classes)


def relabel(task: str, records, labels):
    """read_labeled's records with a new flat label vector."""
    if task == "synthetic":
        return records.with_labels(labels)
    if task == "relation":
        return [replace(r, label=label) for r, label in zip(records, labels.tolist())]
    parts = np.split(labels, np.cumsum([len(r.tags) for r in records])[:-1])
    return [replace(r, tags=part.tolist()) for r, part in zip(records, parts)]


def write_records(task: str, path, records, schema=None) -> None:
    """Write records in the task's file format: a dataset as feature JSONL,
    relation or tagging instances with the schema's label names."""
    if task == "synthetic":
        write_feature_jsonl(path, records)
    elif task == "relation":
        write_relation_jsonl(path, records, schema)
    else:
        write_conll(path, records, schema)


# The synthetic task's data keys, the arguments of mixture_splits.
MIXTURE_KEYS = {"train_size": Key(int, 2000, least=1), "dev_size": Key(int, 500, least=1),
                "test_size": Key(int, 500, least=1), "num_classes": Key(int, 4, least=2),
                "num_features": Key(int, 2, least=2), "class_sep": Key(float, 2.5),
                "scale": Key(float, 1.0), "data_seed": Key(int, 20250401, least=0)}
_FILE_KEYS = {f"{name}_path": Key(str, required=True)
              for name in ("train", "dev", "test", "schema")}
# The config's data block of each task; window is the tagging token-window
# radius.
DATA_KEYS = {"synthetic": MIXTURE_KEYS, "relation": _FILE_KEYS,
             "tagging": {**_FILE_KEYS, "window": Key(int, 1, least=0)}}


def mixture_splits(train_size, dev_size, test_size, num_classes, num_features,
                   class_sep, scale, data_seed):
    """(train, dev, test) of one Gaussian-mixture draw; dev and test split
    the held-out part of the draw."""
    train, held_out = gen_gaussian_mixture(train_size, dev_size + test_size, num_classes,
                                           num_features, data_seed, class_sep, scale)
    return (train, held_out.subset(np.arange(dev_size)),
            held_out.subset(np.arange(dev_size, len(held_out))))


def gen_gaussian_mixture(num_train: int = MIXTURE_KEYS["train_size"].default,
                         num_test: int = MIXTURE_KEYS["test_size"].default,
                         num_classes: int = MIXTURE_KEYS["num_classes"].default,
                         num_features: int = MIXTURE_KEYS["num_features"].default,
                         seed: int = 0,
                         class_sep: float = MIXTURE_KEYS["class_sep"].default,
                         scale: float = MIXTURE_KEYS["scale"].default):
    """Synthetic classification task: class means spaced on a circle of
    radius class_sep, unit-scaled Gaussian clouds, balanced labels.
    Returns (train, test)."""
    check("num_classes", num_classes, MIXTURE_KEYS["num_classes"])
    check("num_features", num_features, MIXTURE_KEYS["num_features"])
    rng = np.random.default_rng(seed)
    angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
    means = np.zeros((num_classes, num_features))
    means[:, 0] = class_sep * np.cos(angles)
    means[:, 1] = class_sep * np.sin(angles)

    def draw(n):
        labels = (np.arange(n) % num_classes)[rng.permutation(n)]
        feats = means[labels] + scale * rng.standard_normal((n, num_features))
        return LabeledDataset(feats, labels, num_classes)

    return draw(num_train), draw(num_test)


TAGGING_ENTITY_TYPES = ("PER", "ORG", "LOC")
# The tagging corpus size, gen-synthetic's --sentences: at least one
# sentence for each of train, dev and test.
TAGGING_SENTENCES = Key(int, 200, least=3)


def gen_tagging_corpus(num_sentences: int = TAGGING_SENTENCES.default, seed: int = 0,
                       num_fillers: int = 32):
    """Synthetic tagging task: templated sentences over a vocabulary of
    num_fillers filler words plus 6 names for each of 3 entity types (50
    tokens by default; a large num_fillers gives a realistic-scale
    vocabulary without a download). Returns (instances, scheme)."""
    scheme = metrics.TagScheme(TAGGING_ENTITY_TYPES)
    fillers = np.array([f"w{i:02d}" for i in range(num_fillers)])
    names = {etype: [f"{etype.lower()}{i}" for i in range(6)]
             for etype in TAGGING_ENTITY_TYPES}
    rng = np.random.default_rng(seed)
    instances = []
    for s in range(num_sentences):
        tokens: list[str] = []
        tags: list[int] = []

        def add_fillers(count):
            for tok in rng.choice(fillers, size=count):
                tokens.append(str(tok))
                tags.append(scheme.index("O"))

        add_fillers(int(rng.integers(2, 5)))
        for _ in range(int(rng.integers(1, 3))):
            etype = TAGGING_ENTITY_TYPES[int(rng.integers(len(TAGGING_ENTITY_TYPES)))]
            span_len = int(rng.integers(1, 3))
            mention = rng.choice(names[etype], size=span_len, replace=False)
            tokens.append(str(mention[0]))
            tags.append(scheme.index(f"B-{etype}"))
            for tok in mention[1:]:
                tokens.append(str(tok))
                tags.append(scheme.index(f"I-{etype}"))
            add_fillers(int(rng.integers(1, 4)))
        instances.append(mdl.TaggingInstance(tokens, tags, uid=s))
    return instances, scheme
