import itertools
from dataclasses import astuple

import numpy as np
import pytest

from coreglab.metrics import (F1Report, Span, TagScheme, accuracy, bio_decode,
                              relation_micro_f1, span_f1)
from oracles import bio_encode, reference_bio_decode, reference_span_f1


def test_bio_decode_worked_example():
    spans = bio_decode(["B-PER", "I-PER", "O", "B-ORG"])
    assert spans == [Span("PER", 0, 1), Span("ORG", 3, 3)]


def test_bio_decode_empty():
    assert bio_decode([]) == []


def test_bio_decode_orphan_inside_starts_span():
    assert bio_decode(["I-PER", "I-PER"]) == [Span("PER", 0, 1)]
    assert bio_decode(["O", "I-ORG"]) == [Span("ORG", 1, 1)]


def test_bio_decode_adjacent_b_tags_split():
    assert bio_decode(["B-PER", "B-PER"]) == [Span("PER", 0, 0), Span("PER", 1, 1)]


def test_bio_decode_type_switch_closes_span():
    assert bio_decode(["B-PER", "I-ORG"]) == [Span("PER", 0, 0), Span("ORG", 1, 1)]


def test_bio_decode_unknown_symbol():
    with pytest.raises(ValueError, match="position 1"):
        bio_decode(["O", "X-PER"])
    with pytest.raises(ValueError):
        bio_decode(["B-"])
    with pytest.raises(ValueError):
        bio_decode(["I"])


def test_bio_decode_reports_first_unknown_symbol():
    with pytest.raises(ValueError,
                       match=r"^unknown tag symbol 'X-PER' at position 1$"):
        bio_decode(["O", "X-PER", "B-", "X-PER"])


def test_bio_decode_symbol_memo_is_bounded():
    from coreglab import metrics

    types = [f"T{i}" for i in range(2 * metrics._BIO_SYMBOLS_CAP)]
    spans = bio_decode([f"B-{t}" for t in types])
    assert spans == [Span(t, i, i) for i, t in enumerate(types)]
    assert len(metrics._BIO_SYMBOLS) <= metrics._BIO_SYMBOLS_CAP


@pytest.fixture
def memo(monkeypatch):
    """bio_decode's memo of decoded sequences, empty for this test."""
    from coreglab import metrics

    monkeypatch.setattr(metrics, "_DECODED", {})
    return metrics._DECODED


def test_bio_decode_returns_a_fresh_list(memo):
    """A caller that changes the returned list changes no later result."""
    tags = ["B-PER", "I-PER", "O", "B-ORG"]
    first = bio_decode(tags)
    first.append(Span("LOC", 5, 5))
    bio_decode(tags).clear()
    assert bio_decode(tags) == [Span("PER", 0, 1), Span("ORG", 3, 3)]
    assert len(memo) == 1


def test_bio_decode_list_and_tuple_decode_alike(memo):
    tags = ["I-ORG", "I-ORG", "B-ORG", "O", "I-PER"]
    spans = [Span("ORG", 0, 1), Span("ORG", 2, 2), Span("PER", 4, 4)]
    assert bio_decode(tags) == spans
    assert bio_decode(tuple(tags)) == spans
    assert bio_decode(tuple(tags[::-1])) == [Span("PER", 0, 0), Span("ORG", 2, 4)]


def test_bio_decode_bad_sequence_raises_every_time(memo):
    """An error is never kept: the same bad sequence raises on each call,
    naming the same position."""
    for _ in range(3):
        with pytest.raises(ValueError,
                           match=r"^unknown tag symbol 'X-PER' at position 2$"):
            bio_decode(["O", "B-PER", "X-PER"])
    assert memo == {}


def test_bio_decode_memo_is_bounded(memo, monkeypatch):
    """Past the cap, sequences are decoded without being kept, and every
    result, kept or not, still matches the enumeration oracle."""
    from coreglab import metrics

    monkeypatch.setattr(metrics, "_DECODED_CAP", 50)
    rng = np.random.default_rng(4)
    symbols = np.array(["O", "B-PER", "I-PER", "B-ORG", "I-ORG"])
    sequences = [symbols[rng.integers(0, len(symbols), size=14)].tolist()
                 for _ in range(3 * metrics._DECODED_CAP)]
    for _ in range(2):
        for tags in sequences:
            got = [(s.label, s.start, s.end) for s in bio_decode(tags)]
            assert got == reference_bio_decode(tags), tags
    assert len(memo) == metrics._DECODED_CAP


def test_bio_decode_matches_enumeration_one_type():
    symbols = ["O", "B-PER", "I-PER"]
    for tags in itertools.product(symbols, repeat=6):
        got = [(s.label, s.start, s.end) for s in bio_decode(list(tags))]
        assert got == reference_bio_decode(list(tags)), tags


def test_bio_round_trip_on_enumeration():
    symbols = ["O", "B-PER", "I-PER", "B-ORG", "I-ORG"]
    for length in range(5):
        for tags in itertools.product(symbols, repeat=length):
            spans = bio_decode(list(tags))
            again = bio_decode(bio_encode(spans, length))
            assert again == spans, tags


def test_bio_encode_errors():
    with pytest.raises(ValueError, match="out of range"):
        bio_encode([Span("PER", 0, 3)], 3)
    with pytest.raises(ValueError, match="overlap"):
        bio_encode([Span("PER", 0, 1), Span("ORG", 1, 2)], 3)


def test_tag_scheme_layout():
    scheme = TagScheme(["PER", "ORG"])
    assert scheme.tags == ["O", "B-PER", "I-PER", "B-ORG", "I-ORG"]
    assert len(scheme) == 5
    assert scheme.tag_ids["I-ORG"] == 4
    assert scheme.tags[0] == "O"
    assert [scheme.tags[i] for i in [1, 0, 2]] == ["B-PER", "O", "I-PER"]
    assert "B-LOC" not in scheme.tag_ids


def test_span_f1_perfect():
    gold = [[Span("PER", 0, 1)], [Span("ORG", 2, 2)]]
    report = span_f1(gold, [list(s) for s in gold])
    assert (report.tp, report.fp, report.fn) == (2, 0, 0)
    assert report.f1 == 1.0


def test_span_f1_no_predictions():
    report = span_f1([[Span("PER", 0, 0)]], [[]])
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_span_f1_half_recall():
    gold = [[Span("PER", 0, 1), Span("ORG", 3, 4)]]
    pred = [[Span("PER", 0, 1)]]
    report = span_f1(gold, pred)
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.f1 == pytest.approx(2 / 3)


def test_span_f1_exact_match_only():
    gold = [[Span("PER", 0, 2)]]
    # wrong end, wrong type, wrong start: all three count as fp + fn
    for bad in (Span("PER", 0, 1), Span("ORG", 0, 2), Span("PER", 1, 2)):
        report = span_f1(gold, [[bad]])
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_span_f1_duplicate_gold_matched_once():
    gold = [[Span("PER", 0, 0), Span("PER", 0, 0)]]
    pred = [[Span("PER", 0, 0)]]
    report = span_f1(gold, pred)
    assert (report.tp, report.fp, report.fn) == (1, 0, 1)


def test_span_f1_repeated_span_in_one_sentence():
    gold = [[Span("PER", 0, 0), Span("PER", 0, 0), Span("ORG", 1, 1)]]
    for pred, counts in (([[Span("PER", 0, 0)]], (1, 0, 2)),
                         ([[Span("PER", 0, 0)] * 3], (2, 1, 1))):
        report = span_f1(gold, pred)
        assert (report.tp, report.fp, report.fn) == counts
        assert astuple(report) == reference_span_f1(gold, pred)


def test_span_f1_same_span_in_another_sentence_does_not_match():
    gold = [[Span("PER", 0, 1)], []]
    pred = [[], [Span("PER", 0, 1)]]
    report = span_f1(gold, pred)
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)
    assert astuple(report) == reference_span_f1(gold, pred)


def test_span_f1_matches_reference_on_random_spans():
    rng = np.random.default_rng(5)
    # A small pool makes repeats and cross-sentence coincidences common.
    pool = [Span(label, start, end) for label in ("PER", "ORG")
            for start in range(3) for end in range(start, 3)]

    def draw(n):
        return [[pool[i] for i in rng.integers(0, len(pool), size=rng.integers(0, 4))]
                for _ in range(n)]

    for n in rng.integers(0, 6, size=200):
        gold, pred = draw(n), draw(n)
        expected = reference_span_f1(gold, pred)
        assert astuple(span_f1(gold, pred)) == expected
        # Generators, which have no len(), as the tagging scorer passes.
        assert astuple(span_f1((s for s in gold), (s for s in pred))) == expected


def test_span_f1_alignment_check():
    for gold, pred in (([[]], [[], []]), ([[], []], [[]])):
        with pytest.raises(ValueError):
            span_f1(gold, pred)
        with pytest.raises(ValueError):
            span_f1((s for s in gold), (s for s in pred))


def test_span_f1_swap_symmetry():
    gold = [[Span("PER", 0, 1)], [Span("ORG", 0, 0), Span("PER", 2, 3)]]
    pred = [[Span("PER", 0, 1), Span("ORG", 4, 4)], [Span("PER", 2, 3)]]
    fwd = span_f1(gold, pred)
    rev = span_f1(pred, gold)
    assert fwd.precision == rev.recall
    assert fwd.recall == rev.precision
    assert fwd.f1 == rev.f1


def test_relation_f1_all_negative():
    report = relation_micro_f1([0, 0], [0, 0], negative_class=0)
    assert (report.tp, report.fp, report.fn) == (0, 0, 0)
    assert report.f1 == 0.0


def test_relation_f1_worked_example():
    report = relation_micro_f1([1, 1, 0], [1, 0, 1], negative_class=0)
    assert (report.tp, report.fp, report.fn) == (1, 1, 1)
    assert report.f1 == pytest.approx(0.5)


def test_relation_f1_perfect_with_positive():
    report = relation_micro_f1([1, 0, 2], [1, 0, 2], negative_class=0)
    assert report.f1 == 1.0


def test_relation_f1_wrong_positive_double_counts():
    # gold r1 predicted r2: one fp (spurious r2) and one fn (missed r1)
    report = relation_micro_f1([1], [2], negative_class=0)
    assert (report.tp, report.fp, report.fn) == (0, 1, 1)


def test_relation_f1_swap_symmetry():
    gold = [1, 2, 0, 1, 0]
    pred = [1, 0, 2, 2, 0]
    fwd = relation_micro_f1(gold, pred, negative_class=0)
    rev = relation_micro_f1(pred, gold, negative_class=0)
    assert fwd.precision == rev.recall
    assert fwd.recall == rev.precision


def test_relation_f1_alignment_check():
    with pytest.raises(ValueError):
        relation_micro_f1([0, 1], [0], negative_class=0)


def test_f1_report_bounds_property():
    import numpy as np
    rng = np.random.default_rng(8)
    for _ in range(200):
        tp, fp, fn = (int(x) for x in rng.integers(0, 10, size=3))
        report = F1Report.from_counts(tp, fp, fn)
        assert 0.0 <= report.precision <= 1.0
        assert 0.0 <= report.recall <= 1.0
        # harmonic mean never exceeds the max (up to rounding)
        assert 0.0 <= report.f1 <= max(report.precision, report.recall) + 1e-12


def test_accuracy():
    assert accuracy([1, 2, 3], [1, 2, 0]) == pytest.approx(2 / 3)
    assert accuracy([0], [0]) == 1.0
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1, 2], [1])
