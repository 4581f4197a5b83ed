"""Dataset containers, file formats, text featurization, and synthetic task
generators.

The one module that turns text into feature rows: it holds the vocabulary,
the relation and tagging records and the entity masking, and both text
builders take every token's id in one pass (_token_ids).

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

Each task is described in one place, its record in TASKS: its data keys,
its splits, file formats and scorer, and a saved model's token window.
Record methods name this module's functions at call time, so a caller that
rebinds one (as the benchmark's tracer does) sees every call.

Every CSV and JSON artifact a run writes goes through write_csv and
write_json, the one copy of each format.
"""

import csv
import json
import os
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

import numpy as np

from . import metrics
from . import models as mdl
from .schema import Key, check

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
    """A JSON artifact: indented by 2, keys sorted, ending in a newline; written
    to <name>.tmp and renamed over path, so a killed process leaves no half file."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        # Name the artifact, not the temp file that is removed below.
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        # Only a failed write or rename leaves it.
        if os.path.isfile(tmp):
            os.remove(tmp)


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
    num_features is the dense width either way, and subset and with_labels
    keep the form. The noise-overfit protocol takes dense rows only. groups
    map each row to a sentence for span-level scoring of tagging tasks.
    Features are read-only once a dataset is built: with_labels shares them
    between the datasets it relates.
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

    def __len__(self) -> int:
        return len(self.relations)

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


UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"


class Vocab:
    """Dense token -> index map with <pad> and <unk> first, then the given
    tokens in first-seen order."""

    def __init__(self, tokens):
        self._index = {}
        for tok in (PAD_TOKEN, UNK_TOKEN, *tokens):
            self._index.setdefault(tok, len(self._index))

    def __len__(self) -> int:
        return len(self._index)

    def index(self, token: str) -> int:
        return self._index.get(token, self._index[UNK_TOKEN])

    @property
    def pad_index(self) -> int:
        return self._index[PAD_TOKEN]

    def tokens(self) -> list[str]:
        return list(self._index)


def subj_mask_token(entity_type: str) -> str:
    return f"[SUBJ-{entity_type}]"


def obj_mask_token(entity_type: str) -> str:
    return f"[OBJ-{entity_type}]"


@dataclass
class SentenceInstance:
    """One relation-classification example: a sentence with subject and
    object entity spans (inclusive indices) and a relation label index."""

    tokens: list[str]
    subj_span: tuple[int, int]
    subj_type: str
    obj_span: tuple[int, int]
    obj_type: str
    label: int
    uid: int = -1

    def __post_init__(self):
        n = len(self.tokens)
        _check_span(self.subj_span, n, "subj")
        _check_span(self.obj_span, n, "obj")
        (s0, s1), (o0, o1) = self.subj_span, self.obj_span
        if s0 <= o1 and o0 <= s1:
            raise ValueError("subject and object spans overlap")


@dataclass
class TaggingInstance:
    """One tagging example: tokens with one tag index per token."""

    tokens: list[str]
    tags: list[int]
    uid: int = -1

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError("tokens and tags must have the same length")


def _check_span(span, n_tokens, name):
    start, end = span
    if not (0 <= start <= end < n_tokens):
        raise ValueError(f"{name} span {span} out of range for {n_tokens} tokens")


def entity_mask(instance: SentenceInstance) -> list[str]:
    """Replace the subject span with [SUBJ-TYPE] and the object span with
    [OBJ-TYPE], each collapsed to a single token; other tokens unchanged.
    The spans are in range and disjoint, as the instance checks when built."""
    spans = sorted(
        [(*instance.subj_span, subj_mask_token(instance.subj_type)),
         (*instance.obj_span, obj_mask_token(instance.obj_type))]
    )
    out = []
    cursor = 0
    for start, end, mask in spans:
        out.extend(instance.tokens[cursor:start])
        out.append(mask)
        cursor = end + 1
    out.extend(instance.tokens[cursor:])
    return out


def save_vocab(vocab: Vocab, path) -> None:
    write_json(path, {"tokens": vocab.tokens()})


def load_vocab(path) -> Vocab:
    def build(raw):
        if not _is_tokens(raw["tokens"]):
            raise TypeError("tokens must be a list of strings")
        return Vocab(raw["tokens"])

    return read_json(path, "vocabulary file", build)


def load_tag_scheme(path) -> metrics.TagScheme:
    return read_json(path, "tagging schema", lambda raw: metrics.TagScheme(
        check("entity_types", raw["entity_types"], _NAMES)))


def save_tag_scheme(scheme: metrics.TagScheme, path) -> None:
    write_json(path, {"entity_types": scheme.entity_types})


def read_conll(path, scheme: metrics.TagScheme) -> list[TaggingInstance]:
    """Parse a CoNLL column file into tagging instances, preserving order."""
    instances: list[TaggingInstance] = []
    tokens: list[str] = []
    tags: list[int] = []
    # A blank line after the file's last closes a sentence that runs to its end.
    for lineno, line in chain(_data_lines(path), [(None, "")]):
        if not line.strip():
            if tokens:
                instances.append(TaggingInstance(tokens, tags, uid=len(instances)))
                tokens, tags = [], []
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


def read_relation_jsonl(path, schema: RelationSchema) -> list[SentenceInstance]:
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
            instances.append(SentenceInstance(
                tokens, tuple(rec["subj"]), rec["subj_type"], tuple(rec["obj"]),
                rec["obj_type"], label, uid))
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from exc
    return instances


def _write_jsonl(path, records) -> None:
    with open(path, "w") as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def write_relation_jsonl(path, instances, schema: RelationSchema) -> None:
    _write_jsonl(path, ({"id": int(inst.uid), "tokens": list(inst.tokens),
                         "subj": list(inst.subj_span), "subj_type": inst.subj_type,
                         "obj": list(inst.obj_span), "obj_type": inst.obj_type,
                         "label": schema.relations[inst.label]} for inst in instances))


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
    _write_jsonl(path, ({"id": int(dataset.ids[i]),
                         "features": [float(v) for v in dataset.features[i]],
                         "label": int(dataset.labels[i])} for i in range(len(dataset))))


def _token_ids(sentences, vocab: Vocab | None):
    """The given vocabulary, else one of the sentences' sorted distinct tokens;
    every token's id in one flat array; and each sentence's length."""
    tokens = [tok for sent in sentences for tok in sent]
    vocab = Vocab(sorted(set(tokens))) if vocab is None else vocab
    ids = np.fromiter(map(vocab.index, tokens), dtype=np.int64, count=len(tokens))
    return vocab, ids, np.array([len(sent) for sent in sentences], dtype=np.int64)


def build_relation_dataset(instances, schema: RelationSchema,
                           vocab: Vocab | None = None):
    """Mask entities and stack each sentence's token counts, divided by its
    length, into a dataset; the vocabulary defaults to the masked corpus's."""
    masked = [entity_mask(inst) for inst in instances]
    vocab, ids, lengths = _token_ids(masked, vocab)
    counts = np.zeros((len(masked), len(vocab)))
    np.add.at(counts, (np.repeat(np.arange(len(masked)), lengths), ids), 1.0)
    counts /= lengths[:, None]
    labels = [inst.label for inst in instances]
    return LabeledDataset(counts, labels, len(schema),
                          ids=[inst.uid for inst in instances]), vocab


def build_tagging_dataset(instances, scheme: metrics.TagScheme,
                          vocab: Vocab | None = None, window: int = 1):
    """One row per token: windowed one-hot features with the BIO tag index
    as the label; groups record the source sentence.

    A row is 2*window+1 one-hot blocks of len(vocab) columns, one per token
    in [position-window, position+window], with <pad> outside the sentence.
    It is kept as WindowIds: the column of each block's one,
    slot*len(vocab) + the token's vocabulary id.
    """
    vocab, ids, lengths = _token_ids([inst.tokens for inst in instances], vocab)
    groups = np.repeat(np.arange(len(instances)), lengths)
    labels = np.array([tag for inst in instances for tag in inst.tags], dtype=np.int64)
    # Every sentence padded by `window` <pad> ids on both sides, so the token
    # in slot j of row r's window sits at padded[r + 2*window*groups[r] + j].
    first = np.arange(len(ids)) + 2 * window * groups
    padded = np.full(len(ids) + 2 * window * len(instances), vocab.pad_index)
    padded[first + window] = ids
    slots = np.arange(2 * window + 1)
    features = mdl.WindowIds(slots * len(vocab) + padded[first[:, None] + slots],
                             len(slots) * len(vocab))
    return LabeledDataset(features, labels, len(scheme), groups=groups), vocab


def make_metric(task: str, *, schema: RelationSchema | metrics.TagScheme | None = None):
    """(metric name, scorer) for a task; the scorer maps (dataset, preds) to a
    float. ``schema`` is the task's schema as its record's load_schema returns it."""
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if TASKS[task].from_files and schema is None:
        raise ValueError(f"the {task} metric needs the task's schema")
    return TASKS[task].metric, partial(TASKS[task].score, schema)


# The synthetic task's data keys, the arguments of mixture_splits.
MIXTURE_KEYS = {"train_size": Key(int, 2000, least=1), "dev_size": Key(int, 500, least=1),
                "test_size": Key(int, 500, least=1), "num_classes": Key(int, 4, least=2),
                "num_features": Key(int, 2, least=2), "class_sep": Key(float, 2.5),
                "scale": Key(float, 1.0), "data_seed": Key(int, 20250401, least=0)}
_SPLITS = ("train", "dev", "test")


class _Task:
    """A task's record. By default its splits are train, dev and test files
    under a schema file, featurized with the training split's vocabulary and
    scored by F1; subclasses give the file formats and the score."""

    data_keys = {f"{name}_path": Key(str, required=True) for name in (*_SPLITS, "schema")}
    from_files = True
    metric = "f1"

    def splits(self, data):
        """(train, dev, test, schema, vocab) of the config's data block."""
        schema, vocab, splits = self.load_schema(data["schema_path"]), None, []
        for split in _SPLITS:
            dataset, vocab = self.load_split(data[f"{split}_path"], schema, vocab,
                                             window=data.get("window"))
            splits.append(dataset)
        for split, name, dataset in zip(_SPLITS, ("training", "dev", "test"), splits):
            if len(dataset) == 0:
                raise DataError(f"{data[split + '_path']}: empty {name} split")
        return (*splits, schema, vocab)

    def _labeled(self, records, labels, schema, ids=None):
        return records, LabeledDataset(np.zeros((len(labels), 1)), labels, len(schema), ids)

    def window(self, width, vocab):
        return 0


class _SyntheticTask(_Task):
    data_keys = MIXTURE_KEYS
    from_files = False
    metric = "accuracy"

    def splits(self, data):
        return (*mixture_splits(**data), None, None)

    def load_split(self, path, schema, vocab=None, *, window=None, num_classes=None):
        return read_feature_jsonl(path, num_classes), None

    def read_labeled(self, path, schema):
        dataset = read_feature_jsonl(path)
        return dataset, dataset

    def relabel(self, records, labels):
        return records.with_labels(labels)

    def write_records(self, path, records, schema=None):
        write_feature_jsonl(path, records)

    def score(self, schema, dataset, preds):
        return metrics.accuracy(dataset.labels, preds)


class _RelationTask(_Task):
    def load_schema(self, path):
        return RelationSchema.load(path)

    def load_split(self, path, schema, vocab=None, *, window=None, num_classes=None):
        return build_relation_dataset(read_relation_jsonl(path, schema), schema, vocab)

    def read_labeled(self, path, schema):
        records = read_relation_jsonl(path, schema)
        return self._labeled(records, [r.label for r in records], schema,
                             [r.uid for r in records])

    def relabel(self, records, labels):
        return [replace(r, label=label) for r, label in zip(records, labels.tolist())]

    def write_records(self, path, records, schema=None):
        write_relation_jsonl(path, records, schema)

    def score(self, schema, dataset, preds):
        return metrics.relation_micro_f1(dataset.labels, preds, schema.negative_index).f1


class _TaggingTask(_Task):
    # window is the token-window radius.
    data_keys = {**_Task.data_keys, "window": Key(int, 1, least=0)}

    def load_schema(self, path):
        return load_tag_scheme(path)

    def load_split(self, path, schema, vocab=None, *, window=None, num_classes=None):
        return build_tagging_dataset(read_conll(path, schema), schema, vocab, window=window)

    def read_labeled(self, path, schema):
        records = read_conll(path, schema)
        return self._labeled(records, [t for r in records for t in r.tags], schema)

    def relabel(self, records, labels):
        parts = np.split(labels, np.cumsum([len(r.tags) for r in records])[:-1])
        return [replace(r, tags=part.tolist()) for r, part in zip(records, parts)]

    def write_records(self, path, records, schema=None):
        write_conll(path, records, schema)

    def score(self, schema, dataset, preds):
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

    def window(self, width, vocab):
        # A model reads rows of 2*window+1 blocks of len(vocab) columns.
        blocks, rest = divmod(width, len(vocab))
        if rest or blocks % 2 == 0:
            raise DataError(
                f"model/vocabulary mismatch: the model's input width {width} is not "
                f"an odd number of blocks of the vocabulary's {len(vocab)} tokens")
        return (blocks - 1) // 2


TASKS = {"synthetic": _SyntheticTask(), "relation": _RelationTask(),
         "tagging": _TaggingTask()}


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
            tokens.extend(map(str, rng.choice(fillers, size=count)))
            tags.extend([scheme.index("O")] * count)

        add_fillers(int(rng.integers(2, 5)))
        for _ in range(int(rng.integers(1, 3))):
            etype = TAGGING_ENTITY_TYPES[int(rng.integers(len(TAGGING_ENTITY_TYPES)))]
            span_len = int(rng.integers(1, 3))
            mention = rng.choice(names[etype], size=span_len, replace=False)
            tokens.extend(map(str, mention))
            tags.extend([scheme.index(f"B-{etype}")]
                        + [scheme.index(f"I-{etype}")] * (span_len - 1))
            add_fillers(int(rng.integers(1, 4)))
        instances.append(TaggingInstance(tokens, tags, uid=s))
    return instances, scheme
