import ast
import json
import re
from pathlib import Path

import numpy as np
import pytest

from coreglab.datasets import (TAGGING_ENTITY_TYPES, TASKS, UNK_TOKEN, DataError,
                               MIXTURE_KEYS, LabeledDataset, RelationSchema,
                               SentenceInstance, TaggingInstance, Vocab,
                               build_relation_dataset, build_tagging_dataset,
                               entity_mask, gen_gaussian_mixture,
                               gen_tagging_corpus, load_tag_scheme, load_vocab,
                               make_metric, mixture_splits, read_conll,
                               read_feature_jsonl, read_relation_jsonl,
                               save_tag_scheme, save_vocab, write_conll,
                               write_csv, write_feature_jsonl, write_json,
                               write_relation_jsonl)
from coreglab.metrics import TagScheme, bio_decode
from coreglab.models import WindowIds
from coreglab.trainer import TrainConfig, train
from oracles import (densify, featurize_sentence, featurize_token_window,
                     reference_tagging_f1, reference_window_ids, save_relation_schema)


# ---------------------------------------------------------------- container


def test_labeled_dataset_basics():
    data = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2)
    assert len(data) == 3
    assert data.num_features == 2
    np.testing.assert_array_equal(data.ids, [0, 1, 2])


def test_labeled_dataset_validation():
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros(3), np.array([0, 1, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, -1, 1]), 2)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2,
                       ids=np.array([1, 2]))
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2,
                       groups=np.array([0]))


def test_labeled_dataset_subset():
    data = LabeledDataset(np.arange(8).reshape(4, 2), np.array([0, 1, 0, 1]), 2,
                          groups=np.array([0, 0, 1, 1]))
    sub = data.subset([2, 0])
    np.testing.assert_array_equal(sub.features, [[4, 5], [0, 1]])
    np.testing.assert_array_equal(sub.labels, [0, 0])
    np.testing.assert_array_equal(sub.ids, [2, 0])
    np.testing.assert_array_equal(sub.groups, [1, 0])


def test_with_labels_replaces_only_the_labels():
    data = LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 1]), 2,
                          ids=np.array([5, 6, 7]), groups=np.array([0, 0, 1]))
    noisy = data.with_labels(np.array([1, 1, 0]))
    np.testing.assert_array_equal(noisy.labels, [1, 1, 0])
    np.testing.assert_array_equal(data.labels, [0, 1, 1])
    assert noisy.features is data.features and noisy.num_classes == 2
    np.testing.assert_array_equal(noisy.ids, data.ids)
    np.testing.assert_array_equal(noisy.groups, data.groups)
    noisy.ids[:] = 0
    np.testing.assert_array_equal(data.ids, [5, 6, 7])


def test_window_id_rows_keep_their_form():
    """subset and with_labels keep window ids as ids, with the dense width
    as num_features."""
    ids = WindowIds([[0, 3], [1, 4], [2, 5]], 6)
    data = LabeledDataset(ids, [0, 1, 0], 2, groups=[0, 0, 1])
    assert len(data) == 3 and data.num_features == 6
    part = data.subset([2, 0])
    assert isinstance(part.features, WindowIds) and part.num_features == 6
    np.testing.assert_array_equal(part.features.ids, [[2, 5], [0, 3]])
    noisy = data.with_labels([1, 1, 0])
    assert noisy.features is ids


# ---------------------------------------------------------------- schemas


def test_relation_schema():
    schema = RelationSchema(("no_relation", "founded", "works_at"),
                            "no_relation", ("PER", "ORG"))
    assert schema.label_index("founded") == 1
    assert schema.negative_index == 0
    with pytest.raises(ValueError, match="unknown relation"):
        schema.label_index("born_in")
    with pytest.raises(ValueError):
        RelationSchema(("a", "a"), "a", ())
    with pytest.raises(ValueError):
        RelationSchema(("a", "b"), "c", ())
    with pytest.raises(ValueError, match="duplicate entity types"):
        RelationSchema(("a", "b"), "a", ("PER", "ORG", "PER"))


def test_relation_schema_round_trip(tmp_path):
    schema = RelationSchema(("no_relation", "founded"), "no_relation",
                            ("PER", "ORG"))
    path = tmp_path / "schema.json"
    save_relation_schema(schema, path)
    loaded = RelationSchema.load(path)
    assert loaded.relations == schema.relations
    assert loaded.negative == schema.negative
    assert loaded.entity_types == schema.entity_types


def test_relation_schema_load_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"relations": ["a"]}))
    with pytest.raises(DataError, match="schema"):
        RelationSchema.load(path)


def test_vocab_round_trip(tmp_path):
    vocab = Vocab(["[SUBJ-PER]", "beta", "alpha"])
    path = tmp_path / "vocab.json"
    save_vocab(vocab, path)
    # The one JSON writer sorts keys; a vocabulary file has one, so its bytes
    # are those of the unsorted format it had before.
    assert path.read_text() == (
        '{\n  "tokens": [\n    "<pad>",\n    "<unk>",\n    "[SUBJ-PER]",\n'
        '    "beta",\n    "alpha"\n  ]\n}\n')
    loaded = load_vocab(path)
    assert loaded.tokens() == vocab.tokens()
    assert loaded.index("beta") == vocab.index("beta")
    path.write_text(json.dumps({"words": []}))
    with pytest.raises(DataError):
        load_vocab(path)


def test_tag_scheme_round_trip(tmp_path):
    scheme = TagScheme(["PER", "LOC"])
    path = tmp_path / "tags.json"
    save_tag_scheme(scheme, path)
    loaded = load_tag_scheme(path)
    assert loaded.tags == scheme.tags
    path.write_text(json.dumps({"types": []}))
    with pytest.raises(DataError):
        load_tag_scheme(path)


def test_tag_scheme_refuses_duplicate_entity_types():
    with pytest.raises(ValueError, match="duplicate entity types"):
        TagScheme(["PER", "ORG", "PER"])


RELATION_SCHEMA = {"relations": ["none", "founded"], "negative": "none",
                   "entity_types": ["PER", "ORG"]}


@pytest.mark.parametrize("load, content, message", [
    (load_tag_scheme, {"entity_types": "PER"},
     "entity_types must be a list of non-empty strings: 'PER' is not a list"),
    (load_tag_scheme, {"entity_types": ["PER", ""]}, "entity_types must be a list"),
    (load_tag_scheme, {"entity_types": ["PER", 3]}, "entity_types must be a list"),
    (load_tag_scheme, {"entity_types": ["PER", ["ORG"]]}, "entity_types must be a list"),
    (load_tag_scheme, {"entity_types": ["PER", "PER"]}, "duplicate entity types"),
    (RelationSchema.load, {**RELATION_SCHEMA, "relations": "ab", "negative": "a"},
     "relations must be a list of non-empty strings: 'ab' is not a list"),
    (RelationSchema.load, {**RELATION_SCHEMA, "entity_types": "PER"},
     "entity_types must be a list"),
    (RelationSchema.load, {**RELATION_SCHEMA, "relations": ["none", None]},
     "relations must be a list"),
    (load_vocab, {"tokens": "abc"}, "tokens must be a list of strings"),
    (load_vocab, {"tokens": ["a", 1]}, "tokens must be a list of strings"),
    (load_vocab, ["a", "b"], "bad vocabulary file"),
    (RelationSchema.load, {**RELATION_SCHEMA, "entity_types": ["PER", "PER"]},
     "duplicate entity types"),
    (load_tag_scheme, [], "bad tagging schema: the file must be a JSON object"),
    (RelationSchema.load, 1.5, "bad relation schema: the file must be a JSON object"),
    (load_vocab, "abc", "bad vocabulary file: the file must be a JSON object"),
])
def test_schema_and_vocab_files_refuse_what_is_not_a_list(tmp_path, load, content,
                                                           message):
    """A string where a list of names or tokens belongs is no longer read
    as its characters; each refusal is a DataError naming the file."""
    path = tmp_path / "file.json"
    path.write_text(json.dumps(content))
    with pytest.raises(DataError, match=re.escape(f"{path}: bad ")) as info:
        load(path)
    assert message in str(info.value)


def test_load_vocab_reads_every_saved_vocab(tmp_path):
    """A relation sentence may hold the empty string as a token, so a saved
    vocabulary may too; the empty list is a vocabulary of the specials."""
    path = tmp_path / "vocab.json"
    for tokens in (["", "a"], []):
        save_vocab(Vocab(tokens), path)
        assert load_vocab(path).tokens() == Vocab(tokens).tokens()


@pytest.mark.parametrize("bad_id", ["abc", 1.5, True, None, [1]])
def test_both_record_readers_share_the_id_rule(tmp_path, bad_id):
    """The same bad id gets the same message from both JSONL readers."""
    messages = []
    for name, record, read in (
            ("feat.jsonl", {"features": [0.0], "label": 0}, read_feature_jsonl),
            ("rel.jsonl", _founder_record(), lambda path: read_relation_jsonl(
                path, _schema()))):
        path = tmp_path / name
        path.write_text(json.dumps({**record, "id": bad_id}) + "\n")
        with pytest.raises(DataError) as info:
            read(path)
        messages.append(str(info.value).removeprefix(f"{path}:1: "))
    assert messages == [f"id must be an integer, got {bad_id!r}"] * 2


# ---------------------------------------------------------------- artifact writers


def test_write_csv_exact_bytes(tmp_path):
    path = tmp_path / "a.csv"
    write_csv(path, ["id", "value"], [])
    assert path.read_bytes() == b"id,value\n"
    write_csv(path, ["id", "value"], [(0, repr(0.1)), (1, "a,b")])
    assert path.read_bytes() == b'id,value\n0,0.1\n1,"a,b"\n'


def test_write_json_exact_bytes(tmp_path):
    path = tmp_path / "a.json"
    write_json(path, {"b": [1, None], "a": {"d": 2.5, "c": "x"}})
    assert path.read_bytes() == (b'{\n  "a": {\n    "c": "x",\n    "d": 2.5\n  },\n'
                                 b'  "b": [\n    1,\n    null\n  ]\n}\n')


def test_write_json_failed_write_leaves_no_file(tmp_path):
    """A payload that JSON cannot encode fails partway through the write,
    which leaves neither the file nor its <name>.tmp."""
    with pytest.raises(TypeError):
        write_json(tmp_path / "a.json", {"a": [1, object()]})
    assert list(tmp_path.iterdir()) == []


SRC = Path(__file__).resolve().parent.parent / "src" / "coreglab"


def test_artifacts_have_one_writer():
    """csv.writer and json.dump are called in src/ only inside write_csv and
    write_json, so every CSV and JSON artifact has one format."""
    calls = []

    def visit(node, path, owner):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and (node.func.value.id, node.func.attr) in {("csv", "writer"),
                                                             ("json", "dump")}):
            calls.append((path.name, owner, node.func.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    assert calls == [("datasets.py", "write_csv", "writer"),
                     ("datasets.py", "write_json", "dump")]


# ---------------------------------------------------------------- conll


CONLL_FIXTURE = """\
Alice B-PER
visited O
Acme B-ORG
Corp I-ORG

Bob B-PER
"""


def test_read_conll_fixture(tmp_path):
    path = tmp_path / "data.conll"
    path.write_text(CONLL_FIXTURE)
    scheme = TagScheme(["PER", "ORG"])
    instances = read_conll(path, scheme)
    assert len(instances) == 2
    assert instances[0].tokens == ["Alice", "visited", "Acme", "Corp"]
    assert [scheme.tags[t] for t in instances[0].tags] == \
        ["B-PER", "O", "B-ORG", "I-ORG"]
    assert instances[1].tokens == ["Bob"]
    assert instances[0].uid == 0 and instances[1].uid == 1


def test_read_conll_empty(tmp_path):
    path = tmp_path / "empty.conll"
    path.write_text("")
    assert read_conll(path, TagScheme(["PER"])) == []


def test_read_conll_round_trip(tmp_path):
    scheme = TagScheme(["PER", "ORG"])
    path = tmp_path / "in.conll"
    path.write_text(CONLL_FIXTURE)
    instances = read_conll(path, scheme)
    out = tmp_path / "out.conll"
    write_conll(out, instances, scheme)
    again = read_conll(out, scheme)
    assert [(i.tokens, i.tags) for i in again] == \
        [(i.tokens, i.tags) for i in instances]


def test_read_conll_errors(tmp_path):
    scheme = TagScheme(["PER"])
    bad_tag = tmp_path / "bad.conll"
    bad_tag.write_text("Alice B-LOC\n")
    with pytest.raises(DataError, match=r"bad\.conll:1"):
        read_conll(bad_tag, scheme)
    one_col = tmp_path / "cols.conll"
    one_col.write_text("Alice B-PER\nBob\n")
    with pytest.raises(DataError, match=r"cols\.conll:2"):
        read_conll(one_col, scheme)


# ---------------------------------------------------------------- relation


def _schema():
    return RelationSchema(("no_relation", "founded"), "no_relation",
                          ("PER", "ORG"))


def _founder_record():
    return {"id": 0, "tokens": ["Bill", "Gates", "founded", "Microsoft"],
            "subj": [0, 1], "subj_type": "PER", "obj": [3, 3],
            "obj_type": "ORG", "label": "founded"}


def test_read_relation_jsonl_fixture(tmp_path):
    path = tmp_path / "rel.jsonl"
    path.write_text(json.dumps(_founder_record()) + "\n")
    instances = read_relation_jsonl(path, _schema())
    assert len(instances) == 1
    inst = instances[0]
    assert inst.label == 1
    # masking collapses each entity span to its typed placeholder
    assert entity_mask(inst) == ["[SUBJ-PER]", "founded", "[OBJ-ORG]"]


def test_read_relation_jsonl_empty(tmp_path):
    path = tmp_path / "rel.jsonl"
    path.write_text("\n\n")
    assert read_relation_jsonl(path, _schema()) == []


def test_relation_jsonl_round_trip(tmp_path):
    instances = [
        SentenceInstance(["Bill", "Gates", "founded", "Microsoft"], (0, 1),
                         "PER", (3, 3), "ORG", 1, uid=0),
        SentenceInstance(["Acme", "met", "Bob"], (0, 0), "ORG", (2, 2), "PER",
                         0, uid=1),
    ]
    path = tmp_path / "rel.jsonl"
    write_relation_jsonl(path, instances, _schema())
    again = read_relation_jsonl(path, _schema())
    assert again == instances


def test_read_relation_jsonl_errors(tmp_path):
    schema = _schema()
    cases = [
        ("not json", "invalid record"),
        (json.dumps({"tokens": ["a"]}), "missing fields"),
        (json.dumps({**_founder_record(), "label": "knows"}), "unknown relation"),
        (json.dumps({**_founder_record(), "subj": [0, 9]}), "subj span"),
        (json.dumps({**_founder_record(), "obj": [3]}), "obj span"),
        (json.dumps({**_founder_record(), "subj_type": "GPE"}),
         "unknown entity type"),
    ]
    # The first record's id is one the second neither has nor takes by
    # position, so each second line fails for its own reason.
    for i, (line, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.jsonl"
        path.write_text(json.dumps({**_founder_record(), "id": 5}) + "\n" + line + "\n")
        with pytest.raises(DataError, match=f"bad{i}\\.jsonl:2"):
            read_relation_jsonl(path, schema)
        with pytest.raises(DataError, match=message):
            read_relation_jsonl(path, schema)


def test_read_relation_jsonl_rejects_duplicate_ids(tmp_path):
    """An explicit id, or the position a record without one takes, that an
    earlier record already holds is refused at its line."""
    schema = _schema()
    for ids in ((7, 7), (1, None), (None, 0)):
        records = [_founder_record() for _ in ids]
        for record, uid in zip(records, ids):
            if uid is None:
                del record["id"]
            else:
                record["id"] = uid
        path = tmp_path / "rel.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DataError, match=r"rel\.jsonl:2: duplicate id"):
            read_relation_jsonl(path, schema)


# ---------------------------------------------------------------- features


def test_feature_jsonl_round_trip(tmp_path):
    data = LabeledDataset(np.array([[0.5, -1.0], [2.0, 3.5]]),
                          np.array([1, 0]), 3, ids=np.array([4, 2]))
    path = tmp_path / "feat.jsonl"
    write_feature_jsonl(path, data)
    assert [sorted(json.loads(line)) for line in path.read_text().splitlines()] == [
        ["features", "id", "label"]] * 2
    loaded = read_feature_jsonl(path, num_classes=3)
    assert loaded.features.tobytes() == data.features.tobytes()
    np.testing.assert_array_equal(loaded.labels, data.labels)
    np.testing.assert_array_equal(loaded.ids, data.ids)
    assert loaded.num_classes == 3


def test_feature_jsonl_ignores_true_label(tmp_path):
    """A file written with the former true_label key loads as before, the
    key ignored like any other extra key: the class count comes from label
    alone, and a true_label of any value is no error."""
    path = tmp_path / "feat.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in [
        {"features": [0.0], "label": 1, "true_label": 5},
        {"features": [1.0], "label": 0, "true_label": "x", "note": [1]}]))
    loaded = read_feature_jsonl(path)
    np.testing.assert_array_equal(loaded.labels, [1, 0])
    assert loaded.num_classes == 2
    assert not hasattr(loaded, "true_labels")


def test_feature_jsonl_errors(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"features": [1.0]}\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:1"):
        read_feature_jsonl(path)
    path.write_text('{"features": [1.0], "label": 0}\n'
                    '{"features": [1.0, 2.0], "label": 0}\n')
    with pytest.raises(DataError, match="width"):
        read_feature_jsonl(path)
    path.write_text('{"features": [1.0], "label": 5}\n')
    with pytest.raises(DataError, match="outside"):
        read_feature_jsonl(path, num_classes=2)


def test_feature_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    loaded = read_feature_jsonl(path, num_classes=4)
    assert len(loaded) == 0
    assert loaded.num_classes == 4


# ---------------------------------------------------------------- builders


def test_build_relation_dataset():
    schema = _schema()
    instances = [
        SentenceInstance(["Bill", "Gates", "founded", "Microsoft"], (0, 1),
                         "PER", (3, 3), "ORG", 1, uid=10),
        SentenceInstance(["Acme", "met", "Bob"], (0, 0), "ORG", (2, 2), "PER",
                         0, uid=11),
    ]
    data, vocab = build_relation_dataset(instances, schema)
    assert len(data) == 2
    assert data.num_classes == 2
    np.testing.assert_array_equal(data.labels, [1, 0])
    np.testing.assert_array_equal(data.ids, [10, 11])
    assert {"[SUBJ-PER]", "[OBJ-ORG]"} <= set(vocab.tokens())
    assert "Bill" not in vocab.tokens()  # masked away before the vocab is built
    # a shared vocab reproduces the same features
    again, _ = build_relation_dataset(instances, schema, vocab=vocab)
    assert again.features.tobytes() == data.features.tobytes()


def _random_relations(rng, count, words):
    """Relation instances over ``words`` with repeated tokens and spans of
    one or more tokens, subject and object in either order."""
    instances = []
    for uid in range(count):
        n = int(rng.integers(2, 12))
        tokens = [str(w) for w in rng.choice(words, size=n)]
        cut = int(rng.integers(1, n))
        first = (int(rng.integers(0, cut)), cut - 1)
        second = (cut, int(rng.integers(cut, n)))
        subj, obj = (first, second) if uid % 2 else (second, first)
        instances.append(SentenceInstance(tokens, subj, "PER", obj, "ORG",
                                          int(rng.integers(0, 2)), uid=uid))
    return instances


def test_build_relation_dataset_matches_per_sentence_featurizer():
    """Every relation row is bit for bit the per-sentence featurizer's row of
    the masked sentence: under the built vocabulary, under a given one that
    lacks most tokens (unknowns), and for no instances at all."""
    schema = _schema()
    rng = np.random.default_rng(4)
    words = [f"w{i}" for i in range(30)]
    train = [SentenceInstance(["a", "a", "a", "Ann", "a", "Acme"], (3, 3), "PER",
                              (5, 5), "ORG", 1, uid=0),  # one-token spans
             SentenceInstance(["Acme", "b"], (1, 1), "PER", (0, 0), "ORG", 0, uid=1),
             *_random_relations(rng, 200, words[:20])]
    dev = _random_relations(rng, 100, words)
    _, built = build_relation_dataset(train, schema)
    given = Vocab(["a", *words[:5], "[SUBJ-PER]"])
    for instances, vocab in ((train, None), (train, built), (dev, built), (dev, given),
                             ([], built), ([], None)):
        data, used = build_relation_dataset(instances, schema, vocab)
        assert vocab is None or used is vocab
        expected = (np.stack([featurize_sentence(entity_mask(inst), used)
                              for inst in instances])
                    if instances else np.zeros((0, len(used))))
        assert data.features.dtype == expected.dtype
        assert data.features.shape == expected.shape
        assert data.features.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(data.labels, [inst.label for inst in instances])
        np.testing.assert_array_equal(data.ids, [inst.uid for inst in instances])
    assert len(build_relation_dataset([], schema)[1]) == 2  # <pad> and <unk>


def test_build_tagging_dataset():
    scheme = TagScheme(["PER"])
    instances = [TaggingInstance(["a", "per0"], [0, 1], uid=0),
                 TaggingInstance(["b"], [0], uid=1)]
    data, vocab = build_tagging_dataset(instances, scheme, window=1)
    assert len(data) == 3  # one row per token
    assert data.num_classes == len(scheme)
    np.testing.assert_array_equal(data.labels, [0, 1, 0])
    np.testing.assert_array_equal(data.groups, [0, 0, 1])
    assert data.num_features == 3 * len(vocab)


def test_build_tagging_dataset_empty():
    scheme = TagScheme(["PER"])
    data, vocab = build_tagging_dataset([], scheme, vocab=Vocab(["a"]))
    assert len(data) == 0
    assert data.num_features == 3 * len(vocab)


@pytest.mark.parametrize("window", [0, 1, 2])
def test_build_tagging_dataset_matches_row_oracle(window):
    """Each row is the per-token oracle's window, and the ids are those of one
    padded id list grown sentence by sentence."""
    corpus, scheme = gen_tagging_corpus(num_sentences=120, seed=6)
    train = [TaggingInstance(["a", "per0", "b", "a", "c"], [0, 1, 0, 0, 0]),
             TaggingInstance(["b"], [0]),  # shorter than the window
             TaggingInstance([], []),  # no rows, but takes group number 2
             TaggingInstance(["per0", "a"], [1, 0])]
    # Under the vocab of train and corpus, "zzz" and "per9" are unknown tokens.
    test = [TaggingInstance(["zzz", "a", "per9"], [0, 0, 1])]
    _, vocab = build_tagging_dataset(train + corpus, scheme, window=window)
    width = (2 * window + 1) * len(vocab)
    for instances in (train, test, corpus, []):
        data, same = build_tagging_dataset(instances, scheme, vocab, window=window)
        assert same is vocab
        assert data.features.ids.tobytes() == reference_window_ids(
            instances, vocab, window).tobytes()
        rows = [featurize_token_window(inst, pos, window, vocab)
                for inst in instances for pos in range(len(inst.tokens))]
        expected = np.stack(rows) if rows else np.zeros((0, width))
        assert data.features.shape == (len(expected), 2 * window + 1)
        assert data.num_features == width
        dense = densify(data.features)
        assert dense.shape == expected.shape
        assert dense.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(
            data.labels, [tag for inst in instances for tag in inst.tags])
        np.testing.assert_array_equal(
            data.groups, [s for s, inst in enumerate(instances) for _ in inst.tokens])
    data, _ = build_tagging_dataset(test, scheme, vocab, window=window)
    assert densify(data.features)[0, window * len(vocab) + vocab.index(UNK_TOKEN)] == 1.0


# ---------------------------------------------------------------- metrics


def test_make_metric_synthetic():
    name, fn = make_metric("synthetic")
    assert name == "accuracy"
    data = LabeledDataset(np.zeros((4, 2)), np.array([0, 1, 1, 0]), 2)
    assert fn(data, np.array([0, 1, 0, 0])) == pytest.approx(0.75)


def test_make_metric_relation():
    name, fn = make_metric("relation", schema=_schema())
    assert name == "f1"
    data = LabeledDataset(np.zeros((3, 2)), np.array([1, 1, 0]), 2)
    assert fn(data, np.array([1, 0, 1])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        make_metric("relation")


def test_make_metric_tagging():
    scheme = TagScheme(["PER"])
    name, fn = make_metric("tagging", schema=scheme)
    assert name == "f1"
    # two sentences: (B-PER, I-PER) and (O,)
    data = LabeledDataset(np.zeros((3, 2)), np.array([1, 2, 0]), len(scheme),
                          groups=np.array([0, 0, 1]))
    perfect = fn(data, np.array([1, 2, 0]))
    assert perfect == 1.0
    # predicting only the first token shortens the span: exact match fails
    assert fn(data, np.array([1, 0, 0])) == 0.0
    with pytest.raises(ValueError):
        make_metric("tagging")
    with pytest.raises(ValueError, match="unknown task"):
        make_metric("parsing")
    flat = LabeledDataset(np.zeros((3, 2)), np.array([1, 2, 0]), len(scheme))
    with pytest.raises(ValueError, match="groups"):
        fn(flat, np.array([1, 2, 0]))


def test_make_metric_tagging_matches_per_sentence_reference(monkeypatch):
    from coreglab import metrics

    scheme = TagScheme(["PER", "LOC"])
    name, fn = make_metric("tagging", schema=scheme)
    rng = np.random.default_rng(8)
    # Unsorted, non-contiguous sentence ids with interleaved rows; also none.
    for n in (0, *rng.integers(1, 60, size=19)):
        groups = rng.choice([7, 2, 40, 13, 5, 91], size=n)
        labels = rng.integers(0, len(scheme), size=n)
        preds = rng.integers(0, len(scheme), size=n)
        data = LabeledDataset(np.zeros((n, 1)), labels, len(scheme), groups=groups)
        decoded = []
        monkeypatch.setattr(metrics, "bio_decode",
                            lambda tags: decoded.append(tags) or bio_decode(tags))
        got = fn(data, preds)
        monkeypatch.undo()
        assert got == reference_tagging_f1(scheme, groups, labels, preds)
        assert len(decoded) == 2 * len(np.unique(groups))


# ---------------------------------------------------------------- task dispatch


def _task_file(tmp_path, task):
    """A small file in the task's format, and its schema (None for synthetic)."""
    path = tmp_path / "split.data"
    if task == "synthetic":
        train, _ = gen_gaussian_mixture(num_train=12, num_test=1, num_classes=3, seed=2)
        write_feature_jsonl(path, train)
        return path, None
    if task == "relation":
        instances = [
            SentenceInstance(["Bill", "Gates", "founded", "Microsoft"], (0, 1),
                             "PER", (3, 3), "ORG", 1, uid=4),
            SentenceInstance(["Acme", "met", "Bob"], (0, 0), "ORG", (2, 2), "PER",
                             0, uid=9)]
        write_relation_jsonl(path, instances, _schema())
        return path, _schema()
    instances, scheme = gen_tagging_corpus(num_sentences=5, seed=3)
    write_conll(path, instances, scheme)
    return path, scheme


@pytest.mark.parametrize("task", TASKS)
def test_relabel_round_trip(tmp_path, task):
    """Records written back with their own flat labels reproduce the file;
    new labels read back in the same flat order."""
    path, schema = _task_file(tmp_path, task)
    record = TASKS[task]
    records, labeled = record.read_labeled(path, schema)
    same = tmp_path / "same.data"
    record.write_records(same, record.relabel(records, labeled.labels), schema)
    assert same.read_bytes() == path.read_bytes()
    new_labels = (labeled.labels + 1) % labeled.num_classes
    changed = tmp_path / "changed.data"
    record.write_records(changed, record.relabel(records, new_labels), schema)
    _, again = record.read_labeled(changed, schema)
    np.testing.assert_array_equal(again.labels, new_labels)


def test_mixture_splits_match_generator():
    keys = dict(train_size=30, dev_size=7, test_size=5, num_classes=3,
                num_features=4, class_sep=1.5, scale=0.5, data_seed=9)
    assert set(keys) == set(MIXTURE_KEYS)
    train, dev, test = mixture_splits(**keys)
    ref_train, held_out = gen_gaussian_mixture(num_train=30, num_test=12,
                                               num_classes=3, num_features=4,
                                               seed=9, class_sep=1.5, scale=0.5)
    for got, ref in ((train, ref_train), (dev, held_out.subset(np.arange(7))),
                     (test, held_out.subset(np.arange(7, 12)))):
        assert got.features.tobytes() == ref.features.tobytes()
        np.testing.assert_array_equal(got.labels, ref.labels)


# ---------------------------------------------------------------- generators


def test_gen_gaussian_mixture_shapes_and_balance():
    train, test = gen_gaussian_mixture(num_train=200, num_test=40,
                                       num_classes=4, seed=3)
    assert len(train) == 200 and len(test) == 40
    assert train.num_features == 2
    counts = np.bincount(train.labels, minlength=4)
    np.testing.assert_array_equal(counts, [50, 50, 50, 50])


def test_gen_gaussian_mixture_deterministic():
    a, _ = gen_gaussian_mixture(num_train=50, num_test=10, seed=4)
    b, _ = gen_gaussian_mixture(num_train=50, num_test=10, seed=4)
    c, _ = gen_gaussian_mixture(num_train=50, num_test=10, seed=5)
    assert a.features.tobytes() == b.features.tobytes()
    assert a.features.tobytes() != c.features.tobytes()


def test_gen_gaussian_mixture_separation():
    train, _ = gen_gaussian_mixture(num_train=400, num_test=10, num_classes=4,
                                    seed=6, class_sep=4.0, scale=0.5)
    # nearest-centroid classification should be nearly perfect at this ratio
    means = np.stack([train.features[train.labels == c].mean(axis=0)
                      for c in range(4)])
    dists = np.linalg.norm(train.features[:, None, :] - means[None], axis=2)
    assert np.mean(np.argmin(dists, axis=1) == train.labels) > 0.99


def test_gen_gaussian_mixture_errors():
    with pytest.raises(ValueError):
        gen_gaussian_mixture(num_classes=1)
    with pytest.raises(ValueError):
        gen_gaussian_mixture(num_features=1)


def test_gen_tagging_corpus_default_fillers():
    """The default filler count is the 32-word corpus, token for token, as
    it was drawn before the count became a parameter."""
    default, _ = gen_tagging_corpus(num_sentences=2, seed=4)
    assert [(i.tokens, i.tags) for i in default] == [
        (["w30", "w28", "w16", "w30", "loc2", "w09", "w12", "org2", "org1", "w07",
          "w17", "w10"], [0, 0, 0, 0, 5, 0, 0, 3, 4, 0, 0, 0]),
        (["w01", "w15", "w28", "w13", "loc5", "loc4", "w31", "w18", "w29"],
         [0, 0, 0, 0, 5, 6, 0, 0, 0])]
    more, _ = gen_tagging_corpus(num_sentences=2, seed=4, num_fillers=1000)
    assert any(int(tok[1:]) >= 32 for inst in more for tok in inst.tokens
               if tok[0] == "w")


def test_tagging_at_realistic_vocabulary_size():
    """A ~20k-token vocabulary without a download: its window ids take
    rows x (2w+1) x 8 bytes, not the rows x (2w+1)|V| x 8 of dense one-hots,
    and a training step runs on them."""
    instances, scheme = gen_tagging_corpus(num_sentences=4000, seed=1,
                                           num_fillers=100_000)
    data, vocab = build_tagging_dataset(instances, scheme, window=1)
    assert len(vocab) > 20_000
    assert data.features.ids.nbytes <= len(data) * 3 * 8
    result = train(data, None, TrainConfig(total_steps=1))
    assert len(result.reports) == 1 and np.isfinite(result.reports[0].joint_loss)


def test_gen_tagging_corpus():
    instances, scheme = gen_tagging_corpus(num_sentences=50, seed=7)
    assert len(instances) == 50
    assert scheme.entity_types == list(TAGGING_ENTITY_TYPES)
    again, _ = gen_tagging_corpus(num_sentences=50, seed=7)
    assert [(i.tokens, i.tags) for i in again] == \
        [(i.tokens, i.tags) for i in instances]
    for inst in instances:
        assert len(inst.tokens) == len(inst.tags)
        spans = bio_decode([scheme.tags[t] for t in inst.tags])
        assert 1 <= len(spans) <= 2
        for span in spans:
            mention = inst.tokens[span.start:span.end + 1]
            assert all(tok.startswith(span.label.lower()) for tok in mention)
