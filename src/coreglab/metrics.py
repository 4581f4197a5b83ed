"""Evaluation metrics: BIO span decoding, span-level F1 counted one sentence
at a time, relation micro-F1, and accuracy.

bio_decode keeps the spans of each distinct tag sequence it has decoded, up
to _DECODED_CAP sequences per process, because the tagging scorer decodes
the same dev gold tags after every epoch. An entry holds about 0.35 KiB on
the generated CoNLL corpus (1.1 KiB for random 14-tag sequences, so about
9 MiB at the cap). Each call still returns a fresh list."""

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    label: str
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
    """BIO tag layout: index 0 = O, then B-X, I-X per entity type in order.
    Its two tables: ``tags`` (id -> symbol) and ``tag_ids`` (symbol -> id)."""

    def __init__(self, entity_types):
        self.entity_types = list(entity_types)
        if len(set(self.entity_types)) != len(self.entity_types):
            raise ValueError("duplicate entity types")
        self.tags = ["O"]
        for etype in self.entity_types:
            self.tags.append(f"B-{etype}")
            self.tags.append(f"I-{etype}")
        self.tag_ids = {tag: i for i, tag in enumerate(self.tags)}

    def __len__(self) -> int:
        return len(self.tags)


# Well-formed BIO symbols parsed so far: symbol -> (starts a span, entity
# type or None). A tag scheme has two symbols per entity type plus O; the cap
# only bounds the memo for callers that stream arbitrary symbols.
_BIO_SYMBOLS = {"O": (False, None)}
_BIO_SYMBOLS_CAP = 1024


# Spans of each tag sequence decoded so far: tuple(tags) -> tuple of Spans.
# Past the cap, sequences are decoded without being kept, so the memo stays
# bounded on any stream of sentences; 8,192 holds every distinct sequence of
# a run over a few thousand dev and test sentences.
_DECODED: dict[tuple, tuple[Span, ...]] = {}
_DECODED_CAP = 8192


def bio_decode(tags: list[str]) -> list[Span]:
    """Decode a BIO tag sequence into typed spans.

    B-X always starts a span; I-X continues a same-type span, and an orphan
    I-X (no open span of type X) starts a new one; O closes any open span.
    A sequence decoded before is looked up in the memo above (at most
    _DECODED_CAP sequences, up to about 1 KiB each), and the caller always
    gets a fresh list, so changing it changes no later result. A sequence
    with an unknown symbol raises every time and is never kept.
    """
    key = tuple(tags)
    known = _DECODED.get(key)
    if known is not None:
        return list(known)
    spans = []
    open_type = None
    open_start = -1
    for i, tag in enumerate(key):
        parsed = _BIO_SYMBOLS.get(tag)
        if parsed is None:
            if tag[:2] not in ("B-", "I-") or len(tag) < 3:
                raise ValueError(f"unknown tag symbol {tag!r} at position {i}")
            parsed = (tag[0] == "B", tag[2:])
            if len(_BIO_SYMBOLS) < _BIO_SYMBOLS_CAP:
                _BIO_SYMBOLS[tag] = parsed
        begins, etype = parsed
        if begins or etype != open_type:
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
