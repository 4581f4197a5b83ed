"""The config schema: the checker's error text, a property test that draws
config mappings from the key tables themselves, and ones that draw schema,
vocabulary and data file contents for the commands that read them."""

import json
import math
from dataclasses import replace

import pytest
from click.testing import CliRunner

from coreglab import baselines, datasets, noiselab, trainer
from coreglab.cli import main
from coreglab.experiment import ANALYSIS_KEYS, TOP_KEYS, ConfigError, ExperimentConfig
from coreglab.schema import Key, check, check_block
from oracles import EVAL_FILES, inject_noise_args, write_eval_files

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.mark.parametrize("key, value, message", [
    (Key(float, least=0, most=1, open_most=True), 1.0, r"^k must be in \[0, 1\)$"),
    (Key(float, least=0, open_least=True), 0.0, r"^k must be > 0$"),
    (Key(int, most=3), 4, r"^k must be <= 3$"),
    (Key(int), 2.5, r"^k must be an integer: 2\.5 is not a whole number$"),
    (Key(int), True, r"^k must be an integer: True is a boolean"),
    (Key(float), math.nan, r"^k must be a finite number: nan is not finite$"),
    (Key([int], least=1), [2, 0], r"^k must be >= 1$"),
    (Key([int], nonempty=True), [], r"^k must be a non-empty list$"),
    (Key([float]), "15", r"^k must be a list of finite numbers: '15' is not a list$"),
    (Key(str), 0, r"^k must be a non-empty string: 0 is not"),
    (Key(str), "", r"^k must be a non-empty string"),
    (Key(bool), "false", r"^k must be true or false"),
    (Key(("a", "b")), "c", r"^k must be one of a, b: unknown k 'c'$"),
])
def test_check_names_the_key_and_the_rule(key, value, message):
    with pytest.raises(ConfigError, match=message):
        check("k", value, key)


def test_check_types_and_keeps_values_in_range():
    assert check("k", "3", Key(int, least=3)) == 3
    assert type(check("k", 2, Key(float))) is float
    assert check("k", [1, "2"], Key([int])) == (1, 2)
    assert check("k", 0.0, Key(float, least=0, most=1, open_most=True)) == 0.0


def test_check_block_defaults_required_and_unknown_keys():
    table = {"a": Key(int, 1), "b": Key(int), "c": Key(str, required=True)}
    assert check_block("blk", {"c": "x"}, table) == {"a": 1, "b": None, "c": "x"}
    assert check_block("blk", {"b": None, "c": "x"}, table)["b"] is None
    with pytest.raises(ConfigError, match=r"^blk\.c is required$"):
        check_block("blk", {"c": None}, table)
    with pytest.raises(ConfigError, match=r"^blk\.a must be an integer"):
        check_block("blk", {"a": None, "c": "x"}, table)
    with pytest.raises(ConfigError, match=r"^unknown blk keys: 1, z$"):
        check_block("blk", {"c": "x", "z": 0, 1: 0}, table)
    with pytest.raises(ConfigError, match=r"^blk must be a mapping$"):
        check_block("blk", [], table)


# ---------------------------------------------------------------- property

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


def _numbers(key: Key):
    edges = [bound + step for bound in (key.least, key.most) if bound is not None
             for step in (-1, -0.5, 0, 0.5, 1)]
    return st.one_of(st.integers(-5, 5000), st.floats(-10.0, 200.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, "7", "x", *edges]))


def _values(key: Key):
    """Values for one key: in and out of its range, of its kind and of
    others, booleans, NaN and infinities among them."""
    kind = key.kind
    if isinstance(kind, dict):
        return _mappings(kind) | JUNK
    if isinstance(kind, list):
        return st.lists(_values(replace(key, kind=kind[0])), max_size=4) | JUNK
    if isinstance(kind, tuple):
        return st.sampled_from(kind) | JUNK
    if kind in (int, float):
        return _numbers(key) | JUNK
    if kind is bool:
        return st.booleans() | JUNK
    if kind is str:
        return st.text(max_size=6) | JUNK
    if kind is dict:
        return st.sampled_from([{}, {"x": 1}]) | JUNK
    # The confusion table: square, ragged, stochastic or not.
    return st.one_of(
        st.sampled_from([[[0.0, 1.0], [1.0, 0.0]], [[0.5, 0.5], [0.5, 0.5]],
                         [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]],
                         [[1.0]], [[0.5, 0.6], [0.5, 0.5]], [[1.0, 0.0]],
                         [[1e308, 1e308], [0.0, 1.0]], [[0.0], [1.0, 0.0]]]),
        st.lists(st.lists(st.floats(allow_nan=True), max_size=3), max_size=3), JUNK)


def _mappings(table: dict):
    """A block with any subset of the table's keys, and now and then an
    unknown key."""
    known = st.fixed_dictionaries({}, optional={name: _values(key)
                                                for name, key in table.items()})
    unknown = st.dictionaries(st.sampled_from(["typo", 3]), JUNK, max_size=1)
    return st.builds(lambda a, b: {**b, **a}, known, unknown)


BLOCKS = {"": TOP_KEYS, "train": trainer.TRAIN_KEYS, "noise": noiselab.NOISE_KEYS,
          "baseline": baselines.BASELINE_KEYS, "analysis": ANALYSIS_KEYS,
          **{f"data:{task}": record.data_keys for task, record in datasets.TASKS.items()}}
TABLES = tuple(BLOCKS.values())
# One key of one block set to a drawn value; a data key of any task, so a
# key the configured task never reads turns up too.
EDITS = st.sampled_from([(block.split(":")[0], name, key)
                         for block, table in BLOCKS.items()
                         for name, key in table.items()]).flatmap(
    lambda edit: st.tuples(st.just(edit[:2]), _values(edit[2])))
BASES = st.sampled_from([
    {"data": {"train_size": 30, "dev_size": 5, "test_size": 5}},
    {"task": "tagging", "data": {f"{split}_path": "x" for split in
                                 ("train", "dev", "test", "schema")}},
    {"task": "relation", "data": {f"{split}_path": "x" for split in
                                  ("train", "dev", "test", "schema")}},
    {"method": "plain", "train": {"num_models": 1}, "noise": {"rate": 0.2}},
])


def _config(base: dict, edits: list, unknown: dict) -> dict:
    """A valid config with a few keys set to drawn values."""
    raw = {"seeds": [1, 2], "output_dir": "run", **base, **unknown}
    for (block, name), value in edits:
        if not block:
            raw[name] = value
        elif isinstance(raw.setdefault(block, {}), dict):
            raw[block] = {**raw[block], name: value}
    return raw


@hypothesis.settings(max_examples=500, deadline=None, derandomize=True)
@hypothesis.given(st.builds(_config, BASES, st.lists(EDITS, max_size=3),
                            st.sampled_from([{}] * 8 + [{"typo": 1}, {3: None}])))
def test_from_mapping_returns_or_raises_config_error(raw):
    try:
        config = ExperimentConfig.from_mapping(raw)
    except ConfigError:
        return
    config.train.validate()
    assert config.analysis["epochs"] >= 1
    assert set(config.data) == set(datasets.TASKS[config.task].data_keys)
    assert set(config.noise) in (set(), set(config.seeds))


def test_every_key_has_a_default_in_range_or_none():
    """A default is what a config that leaves the key out runs with, so it
    passes its own key's check."""
    for table in TABLES:
        for name, key in table.items():
            if key.default is not None:
                check(name, key.default, key)
            assert not (key.required and key.default is not None), name


# ---------------------------------------------------------------- data files

# A name list as a schema or vocabulary file may hold it: names the data
# uses, duplicates, empty names, numbers and nesting, or a bare string.
WORDS = ["PER", "ORG", "LOC", "none", "founded", "Ann", "ran"]
NAMES = st.one_of(
    st.lists(st.sampled_from(WORDS), max_size=4),
    st.lists(st.sampled_from([*WORDS, "", 0, 1.5, None, ["PER"], {"PER": 1}]),
             max_size=4),
    st.sampled_from(["PER", "ab", ""]), JUNK)
FILE_VALUES = {"entity_types": NAMES, "relations": NAMES, "tokens": NAMES,
               "negative": st.sampled_from(["none", "founded"]) | JUNK}


def _file(good: dict):
    """A file's content, as often as not the good one with any of its keys
    drawn anew, else junk (a mapping that lacks the keys among it)."""
    edits = st.fixed_dictionaries({}, optional={key: FILE_VALUES[key] for key in good})
    edited = st.builds(lambda edit: {**good, **edit}, edits)
    # Not `edited | JUNK`, which would draw from JUNK's branches seven times
    # in eight.
    return st.sampled_from([edited, JUNK]).flatmap(lambda strategy: strategy)


FILES = st.sampled_from(["tagging", "relation"]).flatmap(lambda task: st.tuples(
    st.just(task), _file(EVAL_FILES[task][0]), _file(EVAL_FILES[task][1])))


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("files")


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
@hypothesis.given(FILES)
def test_schema_and_vocab_files_run_or_exit_cleanly(file_dir, files):
    """evaluate and inject-noise over any schema and vocabulary file either
    run or end in an exit code with an `error:` line, never a traceback."""
    task, schema, vocab = files
    _run_or_exit_cleanly(write_eval_files(file_dir, task, schema=schema, vocab=vocab),
                         inject_noise_args(file_dir, task))


def _run_or_exit_cleanly(*commands):
    """Each command line exits 0, or 1 or 2 with an `error:` line, and
    raises nothing but SystemExit."""
    for args in commands:
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1, 2), (args, result.output)
        assert result.exit_code == 0 or "error:" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, result.exception)


def _content(line):
    """A file of up to five drawn lines, the last with or without its newline."""
    return st.builds(lambda lines, end: "\n".join(lines) + end,
                     st.lists(line, max_size=5), st.sampled_from(["\n", ""]))


# A line of text that is no record, tabs, a non-ASCII letter and CR among it.
TEXT_LINE = st.text(st.sampled_from(" \tAnB-IO_\u00e90{\r"), max_size=6)
# A CoNLL line: a token, maybe CoNLL03's POS and chunk columns, and a tag
# symbol, known or not; a token alone; a blank or -DOCSTART- line; or text.
CONLL_LINE = st.one_of(
    st.builds(lambda token, middle, tag: " ".join([token, *middle, tag]),
              st.sampled_from(["Ann", "ran", "-X-"]),
              st.lists(st.sampled_from(["NNP", "-X-", "B-NP"]), max_size=2),
              st.sampled_from(["O", "B-PER", "I-PER", "B-ORG", "I-LOC",
                               "X-PER", "B-", "I", "b-per"])),
    st.sampled_from(["Ann", "", "  ", "-DOCSTART- -X- -X- O", "-DOCSTART-"]),
    TEXT_LINE)


def _record_line(goods: list, values: dict):
    """A JSONL line: as often as not a good record, else one with a key or
    two left out and any of its keys drawn anew, JSON that is no object, or
    text that is no JSON."""
    good = st.sampled_from(goods)
    edited = st.builds(
        lambda record, dropped, edit: {**{k: v for k, v in record.items()
                                          if k not in dropped}, **edit},
        good, st.sets(st.sampled_from(sorted(goods[0])), max_size=2),
        st.fixed_dictionaries({}, optional=values))
    other = JUNK.map(json.dumps) | TEXT_LINE
    bad = st.sampled_from([edited.map(json.dumps), other]).flatmap(lambda s: s)
    return st.sampled_from([good.map(json.dumps), bad]).flatmap(lambda s: s)


IDS = st.integers(-1, 2) | JUNK
SPANS = st.lists(st.integers(-1, 4) | st.sampled_from([0.0, True, "0", None]),
                 min_size=2, max_size=2) | JUNK
TYPES = st.sampled_from(["PER", "ORG", "LOC"]) | JUNK
RELATION_VALUES = {
    "tokens": st.lists(st.sampled_from(["Ann", "founded", "Acme", ""]), max_size=4) | JUNK,
    "subj": SPANS, "obj": SPANS, "subj_type": TYPES, "obj_type": TYPES,
    "label": st.sampled_from(["founded", "none", "PER"]) | JUNK, "id": IDS}
FEATURE_VALUES = {
    "features": st.lists(st.floats(allow_nan=True, allow_infinity=True)
                         | st.sampled_from([10**400, -10**400, True, "1", None, [0.5]]),
                         max_size=3) | JUNK,
    "label": st.integers(-1, 4) | JUNK, "id": IDS}
# Good records of both relation labels and of all three synthetic classes,
# so inject-noise, which needs two classes, runs on some files.
DATA = st.one_of(
    st.tuples(st.just("tagging"), _content(CONLL_LINE)),
    st.tuples(st.just("relation"), _content(_record_line(
        [json.loads(line) for line in EVAL_FILES["relation"][3].splitlines()],
        RELATION_VALUES))),
    st.tuples(st.just("synthetic"), _content(_record_line(
        [{"features": [0.5 * label, 1.0], "label": label} for label in range(3)],
        FEATURE_VALUES))))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(DATA)
def test_data_files_run_or_exit_cleanly(file_dir, drawn):
    """evaluate and inject-noise over any CoNLL, relation JSONL or feature
    JSONL file either run or end in an exit code with an `error:` line,
    never a traceback."""
    task, data = drawn
    _run_or_exit_cleanly(write_eval_files(file_dir, task, data=data),
                         inject_noise_args(file_dir, task))
