"""Dataset containers, file formats, text featurization, and synthetic task
generators.

The one module that turns text into feature rows: it holds the vocabulary,
the relation and tagging records and the entity masking.
build_relation_dataset takes every token's id in one pass;
build_tagging_dataset maps each sentence's tokens to ids as it reads it.

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

Data files are read one line at a time, never whole. A tagging sentence is a
(tokens, tag ids) pair throughout. read_conll streams a CoNLL file into a
split's rows one sentence at a time, so a loaded token costs only its row of
the split's narrow per-row arrays; the sentences inject-noise holds cost one
pointer a token, since read_labeled makes equal tokens one string.
Errors name the file and line, also when a line does not decode.

Each task is described in one place, its record in TASKS: its data keys,
its splits, file formats and scorer, and a saved model's token window.
Record methods name this module's functions at call time, so a caller that
rebinds one (as the benchmark's tracer does) sees every call.

Every CSV and JSON artifact a run writes goes through write_csv and
write_json, the one copy of each format.
"""

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from . import metrics
from . import models as mdl
from .files import replacing
from .schema import Key, check

class DataError(Exception):
    """A dataset file is missing, malformed, or inconsistent."""


def _open_data(path):
    """Open a data file for reading; an unreadable path is a DataError."""
    try:
        return open(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _decode_error(path, exc):
    """The DataError of a file that does not decode. The reader's own error
    counts its byte position from the chunk it was decoding, so the file is
    read again, undecodable bytes escaped, to name the first line that does
    not decode and the position within it."""
    with open(path, errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode(fh.encoding, "surrogateescape").decode(fh.encoding)
            except UnicodeDecodeError as line_exc:
                return DataError(f"{path}:{lineno}: cannot decode: {line_exc}")
    return DataError(f"{path}: cannot decode: {exc}")


def write_csv(path, header, rows) -> None:
    """A CSV artifact: the header, then each row, with "\n" line endings and
    the values as given (callers format floats with repr); written whole
    (files.replacing), so a killed process leaves no half file."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """A JSON artifact: indented by 2, keys sorted, ending in a newline; written
    whole (files.replacing), so a killed process leaves no half file."""
    with replacing(path) as fh:
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
    num_features is the dense width either way, and subset and with_labels
    keep the form. The noise-overfit protocol takes dense rows only. groups
    map each row to a sentence for span-level scoring of tagging tasks.
    Features, ids and groups are read-only once a dataset is built:
    with_labels shares them between the datasets it relates. Labels, ids and
    groups keep the dtype of an integer array they are given (tagging holds
    them narrow), and anything else becomes int64.
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
        self.labels = _integers(self.labels)
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
            self.ids = _integers(self.ids)
            if self.ids.shape != (n,):
                raise ValueError("ids must align with feature rows")
        if self.groups is not None:
            self.groups = _integers(self.groups)
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
        """Copy with replaced labels, sharing the features, ids and groups."""
        return LabeledDataset(self.features, labels, self.num_classes,
                              ids=self.ids, groups=self.groups)


def _integers(values) -> np.ndarray:
    """An integer array as it is, anything else as an int64 array."""
    if isinstance(values, np.ndarray) and np.issubdtype(values.dtype, np.integer):
        return values
    return np.asarray(values, dtype=np.int64)


# A schema file's list of relation labels or entity types.
_NAMES = Key([str])


@dataclass(frozen=True)
class RelationSchema:
    """Relation label vocabulary with its designated negative label, plus
    the entity types legal in subject/object positions. Its two label
    tables: ``relations`` (id -> name) and ``relation_ids`` (name -> id)."""

    relations: tuple[str, ...]
    negative: str
    entity_types: tuple[str, ...]
    relation_ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.relations)) != len(self.relations):
            raise ValueError("duplicate relation labels")
        if len(set(self.entity_types)) != len(self.entity_types):
            raise ValueError("duplicate entity types")
        if self.negative not in self.relations:
            raise ValueError("negative label must be one of the relations")
        object.__setattr__(self, "relation_ids",
                           {name: i for i, name in enumerate(self.relations)})

    def __len__(self) -> int:
        return len(self.relations)

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
        # Endless, so every ids call can draw <unk>'s index from this one.
        self._unks = repeat(self._index[UNK_TOKEN])

    def __len__(self) -> int:
        return len(self._index)

    def ids(self, tokens):
        """Each token's index, or <unk>'s index for a token the vocabulary
        lacks, looked up by map in C."""
        return map(self._index.get, tokens, self._unks)

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


class Sentence(NamedTuple):
    """A held tagging sentence: tokens with one tag index per token. It is a
    (tokens, tags) pair, the form read_conll yields as a plain tuple."""

    tokens: list[str]
    tags: list[int]


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


def read_conll(path, scheme: metrics.TagScheme):
    """Each sentence of a CoNLL column file as a (tokens, tag ids) tuple of
    fresh lists, in file order, read one line at a time; an error names the
    line. The file closes when the sentences run out or are dropped."""
    tokens: list[str] = []
    tags: list[int] = []
    with _open_data(path) as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                cols = line.split()
                if not cols:
                    if tokens:
                        yield tokens, tags
                        tokens, tags = [], []
                    continue
                if len(cols) < 2:
                    raise DataError(f"{path}:{lineno}: expected token and tag columns")
                if (tag := scheme.tag_ids.get(cols[-1])) is None:
                    raise DataError(f"{path}:{lineno}: unknown tag symbol {cols[-1]!r}")
                tokens.append(cols[0])
                tags.append(tag)
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc
    # A sentence that runs to the end of the file.
    if tokens:
        yield tokens, tags


def write_conll(path, sentences, scheme: metrics.TagScheme) -> None:
    with replacing(path) as fh:
        for s, (tokens, tags) in enumerate(sentences):
            if s:
                fh.write("\n")
            for token, tag in zip(tokens, tags):
                fh.write(f"{token} {scheme.tags[tag]}\n")


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
    """(where, record, id) of each non-blank line of a JSONL file, read one
    line at a time, which must hold a JSON object; ``where`` names the line
    for errors."""
    seen = set()
    with _open_data(path) as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
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
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from exc


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
        name = rec["label"]
        label = schema.relation_ids.get(name) if isinstance(name, str) else None
        if label is None:
            raise DataError(f"{where}: unknown relation label {name!r}")
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
    with replacing(path) as fh:
        fh.writelines(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def write_relation_jsonl(path, instances, schema: RelationSchema) -> None:
    _write_jsonl(path, ({"id": int(inst.uid), "tokens": list(inst.tokens),
                         "subj": list(inst.subj_span), "subj_type": inst.subj_type,
                         "obj": list(inst.obj_span), "obj_type": inst.obj_type,
                         "label": schema.relations[inst.label]} for inst in instances))


def read_feature_jsonl(path, num_classes: int | None = None) -> LabeledDataset:
    """Parse line-delimited dense feature records into a dataset; ids, when
    given, are distinct integers, and default to the record's position.
    Features are a list of finite JSON numbers: a string, a boolean, NaN
    and Infinity are data errors. Keys other than features, label and id
    are ignored."""
    feats, labels, ids = [], [], []
    for where, rec, uid in _jsonl_records(path):
        try:
            values, label = rec["features"], rec["label"]
        except KeyError as exc:
            raise DataError(f"{where}: invalid record: {exc}") from exc
        if not isinstance(values, list):
            raise DataError(f"{where}: features must be a list, got {values!r}")
        for value in values:
            if type(value) not in (int, float):
                raise DataError(f"{where}: features must be numbers, got {value!r}")
        try:
            feats.append([float(v) for v in values])
        except OverflowError as exc:
            raise DataError(f"{where}: invalid record: {exc}") from exc
        if not all(map(math.isfinite, feats[-1])):
            raise DataError(f"{where}: features must be finite, got "
                            f"{next(v for v in feats[-1] if not math.isfinite(v))}")
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


def build_relation_dataset(instances, schema: RelationSchema,
                           vocab: Vocab | None = None):
    """Mask entities and stack each sentence's token counts, divided by its
    length, into a dataset; the vocabulary defaults to the masked corpus's
    sorted distinct tokens. Every token's id is taken in one flat pass."""
    masked = [entity_mask(inst) for inst in instances]
    if vocab is None:
        vocab = Vocab(sorted(set(chain.from_iterable(masked))))
    lengths = np.fromiter(map(len, masked), dtype=np.int64, count=len(masked))
    ids = np.fromiter(vocab.ids(chain.from_iterable(masked)), dtype=np.int32,
                      count=int(lengths.sum()))
    counts = np.zeros((len(masked), len(vocab)))
    np.add.at(counts, (np.repeat(np.arange(len(masked)), lengths), ids), 1.0)
    counts /= lengths[:, None]
    labels = [inst.label for inst in instances]
    return LabeledDataset(counts, labels, len(schema),
                          ids=[inst.uid for inst in instances]), vocab


def build_tagging_dataset(sentences, scheme: metrics.TagScheme,
                          vocab: Vocab | None = None, window: int = 1):
    """One row per token of (tokens, tag ids) sentences, read once: windowed
    one-hot features with the BIO tag index as the label; groups record the
    source sentence. The vocabulary defaults to the sentences' sorted
    distinct tokens.

    A row is 2*window+1 one-hot blocks of len(vocab) columns, one per token
    in [position-window, position+window], with <pad> outside the sentence.
    It is kept as WindowIds: the column of each block's one, slot*len(vocab)
    + the token's vocabulary id. Window ids and labels take the narrowest
    unsigned dtype that holds their largest value (uint8 up to 256 columns
    or tags), row ids and groups int32. No token string is kept, except one
    per distinct token while the vocabulary is built.
    """
    if vocab is None:
        # A token's provisional id is its first-seen position: the dict calls
        # its own len for a token it lacks, then stores that as the id.
        seen = defaultdict()
        seen.default_factory = seen.__len__
        ids_of = partial(map, seen.__getitem__)
    else:
        ids_of = vocab.ids
    # The lists point at shared ints, the vocabulary's ids and the scheme's
    # tag ids, not at an int per token, until they become the arrays below.
    lengths, token_ids, labels = [], [], []
    for tokens, tags in sentences:
        lengths.append(len(tokens))
        token_ids += ids_of(tokens)
        labels += tags
    rows, slots = len(token_ids), 2 * window + 1
    if len(labels) != rows:
        raise ValueError("tokens and tags must have the same length")
    token_ids = np.fromiter(token_ids, np.int32, rows)
    labels = np.fromiter(labels, np.min_scalar_type(len(scheme) - 1), rows)
    if vocab is None:
        vocab = Vocab(sorted(seen))
        token_ids = np.fromiter(vocab.ids(seen), np.int32, len(seen))[token_ids]
    id_type = np.min_scalar_type(slots * len(vocab) - 1)
    groups = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    # Every sentence padded by `window` <pad> ids on both sides, so the token
    # in slot j of row r's window sits at padded[r + 2*window*groups[r] + j].
    # Positions stay int64: a wrapped position would index padded silently.
    first = np.multiply(groups, 2 * window, dtype=np.int64)
    first += np.arange(rows)
    padded = np.full(rows + 2 * window * len(lengths), vocab.pad_index, dtype=id_type)
    padded[first + window] = token_ids
    window_ids = np.empty((rows, slots), dtype=id_type)
    for slot in range(slots):
        np.add(padded[first + slot], slot * len(vocab), out=window_ids[:, slot])
    features = mdl.WindowIds(window_ids, slots * len(vocab))
    return LabeledDataset(features, labels, len(scheme),
                          ids=np.arange(rows, dtype=np.int32), groups=groups), vocab


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
        return records, LabeledDataset(np.zeros((len(labels), 0)), labels, len(schema), ids)

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
        negative = schema.relation_ids[schema.negative]
        return metrics.relation_micro_f1(dataset.labels, preds, negative).f1


class _TaggingTask(_Task):
    # window is the token-window radius. One of 256 already spans 2*256+1 =
    # 513 tokens, more than BERT's 512-token input, so a wider one is a typo.
    data_keys = {**_Task.data_keys, "window": Key(int, 1, least=0, most=256)}

    def load_schema(self, path):
        return load_tag_scheme(path)

    def load_split(self, path, schema, vocab=None, *, window=None, num_classes=None):
        return build_tagging_dataset(read_conll(path, schema), schema, vocab,
                                     window=window)

    def read_labeled(self, path, schema):
        # Equal tokens are one string, so a held token costs one pointer.
        distinct: dict[str, str] = {}
        records = [Sentence(list(map(distinct.setdefault, tokens, tokens)), tags)
                   for tokens, tags in read_conll(path, schema)]
        return self._labeled(records, [t for r in records for t in r.tags], schema)

    def relabel(self, records, labels):
        parts = np.split(labels, np.cumsum([len(r.tags) for r in records])[:-1])
        return [Sentence(r.tokens, part.tolist()) for r, part in zip(records, parts)]

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
        # span_f1 pulls each sentence's gold, then its predicted spans, from
        # these generators, so one sentence pair is decoded at a time; the
        # sequences decoded stay in bio_decode's bounded memo.
        return metrics.span_f1(
            (metrics.bio_decode(gold[a:b]) for a, b in zip(edges, edges[1:])),
            (metrics.bio_decode(pred[a:b]) for a, b in zip(edges, edges[1:]))).f1

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
        feats = rng.standard_normal((n, num_features))
        feats *= scale
        feats += means[labels]
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
    vocabulary without a download). Returns (Sentences, scheme). The words
    are drawn by index, so the corpus holds one string per word."""
    scheme = metrics.TagScheme(TAGGING_ENTITY_TYPES)
    fillers = [f"w{i:02d}" for i in range(num_fillers)]
    names = {etype: [f"{etype.lower()}{i}" for i in range(6)]
             for etype in TAGGING_ENTITY_TYPES}
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(num_sentences):
        tokens: list[str] = []
        tags: list[int] = []

        def add_fillers(count):
            tokens.extend(fillers[i] for i in rng.choice(num_fillers, size=count).tolist())
            tags.extend([scheme.tag_ids["O"]] * count)

        add_fillers(int(rng.integers(2, 5)))
        for _ in range(int(rng.integers(1, 3))):
            etype = TAGGING_ENTITY_TYPES[int(rng.integers(len(TAGGING_ENTITY_TYPES)))]
            span_len = int(rng.integers(1, 3))
            mention = rng.choice(len(names[etype]), size=span_len, replace=False)
            tokens.extend(names[etype][i] for i in mention.tolist())
            tags.extend([scheme.tag_ids[f"B-{etype}"]]
                        + [scheme.tag_ids[f"I-{etype}"]] * (span_len - 1))
            add_fillers(int(rng.integers(1, 4)))
        sentences.append(Sentence(tokens, tags))
    return sentences, scheme
