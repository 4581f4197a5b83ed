"""Evaluation metrics: BIO span decoding, span-level F1 counted one sentence
at a time, relation micro-F1, and accuracy.

bio_decode keeps the spans of each distinct tag id sequence it has decoded,
up to _DECODED_CAP sequences per process, because the tagging scorer decodes
the same dev gold tags after every epoch. An entry holds about 360 bytes on
the generated CoNLL corpus (1,122 for random 14-tag id sequences, so about
9 MiB at the cap); on 2 vCPUs (Python 3.11, NumPy 2.4) a miss costs 8-15 us
and a hit 0.4-0.8 us. Each call still returns a fresh list."""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    """A decoded span; label is the entity type's index in the TagScheme."""
    label: int
    start: int
    end: int  # inclusive


@dataclass(frozen=True)
class F1Report:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int) -> "F1Report":
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        return cls(tp, fp, fn, precision, recall, f1)


class TagScheme:
    """BIO tag layout: id 0 is O, 2k+1 is B and 2k+2 is I of entity type k,
    in ``entity_types`` order. Its two tables, ``tags`` (id -> symbol) and
    ``tag_ids`` (symbol -> id), serve the file boundary; scoring reads ids.
    An entity type holds no whitespace, which would split a CoNLL tag."""

    def __init__(self, entity_types):
        self.entity_types = list(entity_types)
        if len(set(self.entity_types)) != len(self.entity_types):
            raise ValueError("duplicate entity types")
        self.tags = ["O"]
        for etype in self.entity_types:
            if etype.split() != [etype]:
                raise ValueError(f"entity type {etype!r} holds whitespace")
            self.tags.append(f"B-{etype}")
            self.tags.append(f"I-{etype}")
        self.tag_ids = {tag: i for i, tag in enumerate(self.tags)}

    def __len__(self) -> int:
        return len(self.tags)


# Spans of each tag sequence decoded so far: tuple(tags) -> tuple of Spans.
# Past the cap, sequences are decoded without being kept, so the memo stays
# bounded on any stream of sentences; 8,192 holds every distinct sequence of
# a run over a few thousand dev and test sentences.
_DECODED: dict[tuple, tuple[Span, ...]] = {}
_DECODED_CAP = 8192


def bio_decode(tags: Sequence[int]) -> list[Span]:
    """Decode one sentence's tag ids, in TagScheme's layout, into Spans: B
    always starts a span; I continues a span of its own type, and an orphan
    I starts a new one; O closes any open span. A sequence decoded before is
    looked up in the memo above, and the caller always gets a fresh list, so
    changing it changes no later result."""
    key = tuple(tags)
    known = _DECODED.get(key)
    if known is not None:
        return list(known)
    spans = []
    open_type = None
    open_start = -1
    for i, tag in enumerate(key):
        etype = (tag - 1) // 2 if tag else None
        if tag % 2 or etype != open_type:
            if open_type is not None:
                spans.append(Span(open_type, open_start, i - 1))
            open_type, open_start = etype, i
    if open_type is not None:
        spans.append(Span(open_type, open_start, len(key) - 1))
    if len(_DECODED) < _DECODED_CAP:
        _DECODED[key] = tuple(spans)
    return spans


def span_f1(gold: Iterable[Sequence[Span]],
            pred: Iterable[Sequence[Span]]) -> F1Report:
    """Micro-averaged exact-match span F1 over aligned per-sentence span lists.

    Reads one gold and one predicted sentence at a time, so any iterables,
    generators included, keep only that pair alive; unequal lengths raise
    ValueError. A predicted span is a true positive iff its type, start and
    end all match a gold span of the same sentence, with each gold span
    matched at most once.
    """
    tp = num_gold = num_pred = 0
    for gold_spans, pred_spans in zip(gold, pred, strict=True):
        num_gold += len(gold_spans)
        num_pred += len(pred_spans)
        if gold_spans == pred_spans:
            tp += len(gold_spans)
            continue
        unmatched = list(gold_spans)
        for span in pred_spans:
            if span in unmatched:
                unmatched.remove(span)
                tp += 1
    return F1Report.from_counts(tp, num_pred - tp, num_gold - tp)


def relation_micro_f1(gold, pred, negative_class: int) -> F1Report:
    """Positive-class micro F1: the negative class never counts as tp or fp;
    a gold positive predicted negative is a false negative."""
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    if gold.shape != pred.shape:
        raise ValueError("gold and pred label lists are not aligned")
    tp = int(np.sum((gold == pred) & (gold != negative_class)))
    fp = int(np.sum((pred != negative_class) & (pred != gold)))
    fn = int(np.sum((gold != negative_class) & (pred != gold)))
    return F1Report.from_counts(tp, fp, fn)


def accuracy(gold, pred) -> float:
    gold = np.asarray(gold)
    pred = np.asarray(pred)
    if gold.shape != pred.shape:
        raise ValueError("gold and pred label lists are not aligned")
    if gold.size == 0:
        raise ValueError("empty label lists")
    return float(np.mean(gold == pred))
