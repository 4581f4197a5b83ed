"""Independent reference implementations used as test oracles, and the
helpers only tests need.

Each oracle deliberately takes a different algorithmic route than the
library code it checks (candidate enumeration instead of a state machine,
plain Python loops instead of vectorized numpy), so agreement between the two
is meaningful evidence rather than a tautology. The training-dynamics
statistics, the relation corpus and the helpers at the end (finite
differences, scalar losses, BIO encoding, artifact readers and writers)
serve the tests alone; the library never calls them.
"""

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


def reference_bio_decode(tags):
    """Span extraction by candidate enumeration.

    A triple (start, end, etype) is a span iff:
      * position `start` opens a span of type etype: the tag is B-etype, or it
        is I-etype with no same-type span running into it from the left;
      * every later position through `end` carries I-etype;
      * the span is maximal: position end+1 (if any) is not I-etype.
    Spans are returned in start order, matching reading order.
    """
    n = len(tags)

    def opens(i, etype):
        if tags[i] == f"B-{etype}":
            return True
        if tags[i] != f"I-{etype}":
            return False
        return i == 0 or tags[i - 1] not in (f"B-{etype}", f"I-{etype}")

    found = []
    for start in range(n):
        for end in range(start, n):
            for etype in _types_in(tags):
                if not opens(start, etype):
                    continue
                if any(tags[i] != f"I-{etype}" for i in range(start + 1, end + 1)):
                    continue
                if end + 1 < n and tags[end + 1] == f"I-{etype}":
                    continue
                found.append((etype, start, end))
    return sorted(found, key=lambda s: s[1])


def _types_in(tags):
    return sorted({tag[2:] for tag in tags if tag != "O"})


def reference_span_f1(gold, pred):
    """Exact-match span F1 sentence by sentence, as (tp, fp, fn, precision,
    recall, f1): a per-sentence multiset intersection, each gold span
    matched at most once."""
    if len(gold) != len(pred):
        raise ValueError("gold and pred sentence lists are not aligned")
    tp = fp = fn = 0
    for gold_spans, pred_spans in zip(gold, pred):
        g = Counter(gold_spans)
        p = Counter(pred_spans)
        matched = sum((g & p).values())
        tp += matched
        fp += sum(p.values()) - matched
        fn += sum(g.values()) - matched
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return tp, fp, fn, precision, recall, f1


def reference_tagging_f1(scheme, groups, labels, preds):
    """Span F1 with each sentence's rows found by a scan over all rows, one
    sentence at a time in ascending id order, decoded by enumeration."""
    golds, predicted = [], []
    for g in np.unique(groups):
        rows = np.flatnonzero(groups == g)
        golds.append(reference_bio_decode([scheme.tags[int(i)] for i in labels[rows]]))
        predicted.append(reference_bio_decode([scheme.tags[int(i)] for i in preds[rows]]))
    return reference_span_f1(golds, predicted)[-1]


def vocab_index(vocab, token):
    """A token's id, or <unk>'s id for a token the vocabulary lacks: its
    position in the vocabulary's token list, found by a scan."""
    from coreglab.datasets import UNK_TOKEN
    tokens = vocab.tokens()
    return tokens.index(token if token in tokens else UNK_TOKEN)


def featurize_token_window(tokens, position, window, vocab):
    """One token's row: concatenated one-hot vectors for tokens in
    [position-window, position+window], with <pad> one-hots outside the
    sentence."""
    n = len(tokens)
    if not 0 <= position < n:
        raise ValueError(f"position {position} out of range")
    size = len(vocab)
    vec = np.zeros((2 * window + 1) * size)
    for slot, pos in enumerate(range(position - window, position + window + 1)):
        if 0 <= pos < n:
            idx = vocab_index(vocab, tokens[pos])
        else:
            idx = vocab.pad_index
        vec[slot * size + idx] = 1.0
    return vec


def featurize_sentence(tokens, vocab):
    """A relation row one token at a time: a bag-of-tokens vector of counts
    divided by the token count."""
    if len(tokens) == 0:
        raise ValueError("cannot featurize an empty token list")
    vec = np.zeros(len(vocab))
    for tok in tokens:
        vec[vocab_index(vocab, tok)] += 1.0
    return vec / len(tokens)


def reference_window_ids(sentences, vocab, window):
    """Tagging window ids of (tokens, tags) sentences from one padded id list
    grown sentence by sentence: each sentence's ids between `window` <pad>
    ids on each side, so row r's window starts at
    padded[r + 2*window*sentence(r)]."""
    pad = [vocab.pad_index] * window
    padded, groups = [], []
    for s, (tokens, _) in enumerate(sentences):
        padded += pad + [vocab_index(vocab, tok) for tok in tokens] + pad
        groups += [s] * len(tokens)
    slots = np.arange(2 * window + 1)
    first = np.arange(len(groups)) + 2 * window * np.array(groups, dtype=np.int64)
    return slots * len(vocab) + np.array(padded, dtype=np.int64)[first[:, None] + slots]


def densify(features):
    """The dense 0/1 matrix that models.WindowIds stand for, one entry at a
    time."""
    dense = np.zeros((len(features), features.width))
    for r, row in enumerate(features.ids.tolist()):
        for col in row:
            dense[r, col] = 1.0
    return dense


def direct_agreement_loss(probs, targets, eps):
    """Triple-loop scalar KL agreement: mean over models and instances of
    sum_j q_j * log((q_j + eps) / (p_j + eps))."""
    num_models, n, num_classes = np.asarray(probs).shape
    total = 0.0
    for k in range(num_models):
        for i in range(n):
            for j in range(num_classes):
                q = float(targets[i][j])
                p = float(probs[k][i][j])
                total += q * math.log((q + eps) / (p + eps))
    return total / (num_models * n)


def direct_softmax(logits):
    shifted = [z - max(logits) for z in logits]
    exps = [math.exp(z) for z in shifted]
    denom = sum(exps)
    return [e / denom for e in exps]


def direct_aggregate(probs, logits, losses, mode):
    """Per-instance soft-target aggregation by explicit loops."""
    num_models = len(probs)
    num_classes = len(probs[0])
    if mode == "avg_prob":
        return [sum(probs[k][j] for k in range(num_models)) / num_models
                for j in range(num_classes)]
    if mode == "avg_logit":
        mean_logits = [sum(logits[k][j] for k in range(num_models)) / num_models
                       for j in range(num_classes)]
        return direct_softmax(mean_logits)
    if mode == "min_prob":
        worst = max(range(num_models), key=lambda k: (losses[k], -k))
        return list(probs[worst])
    raise ValueError(mode)


def pairwise_auroc(scores, flags):
    """AUROC by direct pair counting: P(score_pos > score_neg) + half-credit
    for ties, over all positive/negative pairs."""
    pos = [s for s, f in zip(scores, flags) if f]
    neg = [s for s, f in zip(scores, flags) if not f]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------- joint step
#
# The per-model joint step as it stood before the step was batched over the
# model axis: one Python loop per model for the loss, the softmax VJP and the
# dlogits, np.stack to join them, a zero-filled scatter for every batch, a
# Fraction-based warm-up count, a concatenating backward, a textbook Adam,
# and the parameters copied out of and back into each model every step. The
# library's step must match it to the bit.


def reference_warmup_steps(config):
    from fractions import Fraction

    return math.ceil(Fraction(config.warmup_pct) * config.total_steps / 100)


def reference_backward(model, cache, dlogits):
    """Layer gradients joined by np.concatenate, weights then bias. Each
    hidden layer's ReLU mask is pre > 0 on its pre-activation, recomputed
    from the layer's cached input and its weights rather than read off the
    cached activation as backward reads it. WindowIds inputs are densified."""
    from coreglab.models import WindowIds

    inputs = [densify(h) if isinstance(h, WindowIds) else h for h in cache.layer_inputs]
    dz = np.atleast_2d(np.asarray(dlogits, dtype=np.float64))
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = inputs[i].T @ dz
        grads_b[i] = np.sum(dz, axis=0)
        if i == 0:
            break
        pre = inputs[i - 1] @ model.weights[i - 1] + model.biases[i - 1]
        da = dz @ model.weights[i].T
        if cache.drop_masks[i - 1] is not None:
            da = da * cache.drop_masks[i - 1]
        dz = da * (pre > 0.0)
    return np.concatenate(
        [np.concatenate([w.ravel(), b]) for w, b in zip(grads_w, grads_b)])


def reference_adam_step(params, grads, moments, step, lr):
    """Textbook Adam update number ``step`` (1-based) from the (2, P) first
    and second ``moments``: (new params, new (2, P) moments), both fresh."""
    from coreglab.numeric import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

    m = ADAM_BETA1 * moments[0] + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * moments[1] + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    new_p = params - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_p, np.stack([m, v])


def _reference_nll(probs, labels):
    picked = np.maximum(probs[np.arange(len(labels)), labels], 1e-12)
    return -np.log(picked)


def _reference_softmax_vjp(probs, dprobs):
    inner = np.sum(dprobs * probs, axis=1, keepdims=True)
    return probs * (dprobs - inner)


def reference_agreement_dlogits(probs, q, inst_losses, config):
    from coreglab.numeric import KL_EPS as eps

    num_models, batch, _ = probs.shape
    scale = 1.0 / (num_models * batch)
    dprobs = -scale * q[None, :, :] / (probs + eps)
    if config.soft_target_gradient:
        dq = scale * np.sum(np.log((q[None, :, :] + eps) / (probs + eps)), axis=0)
        dq += num_models * scale * q / (q + eps)
        if config.aggregate_mode == "avg_prob":
            dprobs = dprobs + dq[None, :, :] / num_models
        elif config.aggregate_mode == "min_prob":
            worst = np.argmax(inst_losses, axis=0)
            add = np.zeros_like(dprobs)
            add[worst, np.arange(batch)] = dq
            dprobs = dprobs + add
    dlogits = np.stack([_reference_softmax_vjp(probs[k], dprobs[k])
                        for k in range(num_models)])
    if config.soft_target_gradient and config.aggregate_mode == "avg_logit":
        dq = scale * np.sum(np.log((q[None, :, :] + eps) / (probs + eps)), axis=0)
        dq += num_models * scale * q / (q + eps)
        dlogits = dlogits + _reference_softmax_vjp(q, dq)[None, :, :] / num_models
    return dlogits


def reference_train_step(features, labels, ensemble, t, config, *, weights=None,
                         batch_hook=None):
    """One joint step, model by model; updates ``ensemble`` in place and
    returns the LossReport."""
    from coreglab import models as mdl
    from coreglab.numeric import KL_EPS, PROB_FLOOR, lr_at, softmax
    from coreglab.trainer import LossReport, aggregate_targets, agreement_loss

    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n_rows = X.shape[0]
    num_models = ensemble.num_models
    w = np.ones(n_rows) if weights is None else np.asarray(weights, dtype=np.float64)
    outs, caches = [], []
    for k, model in enumerate(ensemble.models):
        out, cache = mdl.forward(model, X, rng=ensemble.dropout_rngs[k])
        outs.append(out)
        caches.append(cache)
    logits = np.stack(outs)
    probs = softmax(logits)
    inst_losses = np.stack([_reference_nll(probs[k], y) for k in range(num_models)])
    keep = np.arange(n_rows)
    if batch_hook is not None:
        keep, y = batch_hook(t, y, np.mean(inst_losses, axis=0), np.mean(probs, axis=0))
        keep = np.asarray(keep, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        inst_losses = np.stack([_reference_nll(probs[k], y) for k in range(num_models)])
    warmup = t < reference_warmup_steps(config)
    n_kept = len(keep)
    kept_w = w[keep]
    kept_probs = probs[:, keep, :]
    kept_logits = logits[:, keep, :]
    kept_losses = inst_losses[:, keep]
    kept_y = y[keep]
    per_model_sup = np.array(
        [float(np.sum(kept_w * kept_losses[k]) / n_kept) for k in range(num_models)])
    task_loss = float(np.mean(per_model_sup))
    q = aggregate_targets(kept_probs, kept_logits, kept_losses, config.aggregate_mode)
    agg_loss = agreement_loss(q, kept_probs, KL_EPS)
    joint_loss = task_loss + config.gamma * agg_loss
    onehot = np.zeros_like(kept_probs[0])
    onehot[np.arange(n_kept), kept_y] = 1.0
    active = (kept_probs[:, np.arange(n_kept), kept_y] > PROB_FLOOR).astype(np.float64)
    sup_dlogits = (kept_probs - onehot[None, :, :])
    sup_dlogits *= (kept_w * active)[:, :, None] / n_kept
    agg_dlogits = None
    if not (warmup or config.gamma == 0.0):
        agg_dlogits = reference_agreement_dlogits(kept_probs, q, kept_losses, config)
    grads = []
    for k, model in enumerate(ensemble.models):
        d_kept = sup_dlogits[k] / num_models
        if agg_dlogits is not None:
            d_kept = d_kept + config.gamma * agg_dlogits[k]
        dlogits = np.zeros((n_rows, kept_probs.shape[2]))
        dlogits[keep] = d_kept
        grads.append(reference_backward(model, caches[k], dlogits))
    lr = lr_at(config.base_lr, config.total_steps, t)
    for k, model in enumerate(ensemble.models):
        new_params, ensemble.moments[:, k] = reference_adam_step(
            mdl.params_flat(model), grads[k], ensemble.moments[:, k], t + 1, lr)
        mdl.set_params_flat(model, new_params)
    return LossReport(t, tuple(per_model_sup), task_loss, agg_loss, joint_loss, warmup)


# ---------------------------------------------------------------- label audit
#
# The suspect-label report as it stood before it ran in row blocks: one
# forward per model over the whole split, every model's logits and
# probabilities held at once. It uses the library's formulas, so within one
# row block the blocked report must match it to the bit.


def reference_disagreement_report(ensemble, dataset, config):
    """The SUSPECT_CSV_HEADER columns from one pass over all rows, ranked by
    descending mean supervision loss (stable)."""
    from coreglab import models as mdl
    from coreglab.noiselab import SUSPECT_CSV_HEADER
    from coreglab.numeric import KL_EPS, floored_nll, kl_terms, label_probs, softmax
    from coreglab.trainer import aggregate_targets

    y = dataset.labels
    logits = np.stack([mdl.forward(m, dataset.features)[0] for m in ensemble.models])
    probs = softmax(logits)
    inst_losses = floored_nll(label_probs(probs, y))
    q = aggregate_targets(probs, logits, inst_losses, config.aggregate_mode)
    per_kl = np.mean(np.sum(kl_terms(q[None, :, :], probs, KL_EPS), axis=2), axis=0)
    sup = np.mean(inst_losses, axis=0)
    preds = np.argmax(q, axis=1)
    order = np.argsort(-sup, kind="stable")
    return dict(zip(SUSPECT_CSV_HEADER, (dataset.ids[order], y[order], preds[order],
                                         preds[order] != y[order], per_kl[order],
                                         sup[order])))


# ------------------------------------------------------- training dynamics
#
# Delayed memorization (Arpit et al. 2017) and forgetting events (Toneva et
# al. 2019): model 0's per-epoch correctness on its own training rows, and
# per-instance statistics over it. The tests assert the paper's premise with
# them; no command reports them.


def train_with_trajectories(dataset, config):
    """train(dataset) with model 0's per-epoch correctness on the training
    rows, recorded by the dev scoring that train runs after every epoch with
    the training rows as the dev set; returns (result, (epochs, rows) bool)."""
    from coreglab.trainer import train

    correct = []

    def record(dev, preds):
        correct.append(preds == dev.labels)
        return float(np.mean(correct[-1]))

    result = train(dataset, dataset, config, eval_metric=record)
    trajectories = np.array(correct[::config.num_models], dtype=bool)
    return result, trajectories.reshape(-1, len(dataset))


@dataclass(frozen=True)
class ForgettingStats:
    """Per-instance training-dynamics summary over an epoch-by-instance
    correctness matrix: the first epoch predicted correctly (-1 if never),
    the number of correct-to-incorrect transitions, and a never-learned flag."""

    first_learned: np.ndarray
    forgetting_count: np.ndarray
    never_learned: np.ndarray


def forgetting_stats(trajectories) -> ForgettingStats:
    traj = np.asarray(trajectories, dtype=bool)
    if traj.ndim != 2 or traj.shape[0] < 1:
        raise ValueError("trajectories must be a non-empty (epochs, instances) matrix")
    learned = traj.any(axis=0)
    first = np.where(learned, np.argmax(traj, axis=0), -1).astype(np.int64)
    if traj.shape[0] >= 2:
        forgets = np.sum(traj[:-1] & ~traj[1:], axis=0).astype(np.int64)
    else:
        forgets = np.zeros(traj.shape[1], dtype=np.int64)
    return ForgettingStats(first, forgets, ~learned)


def first_learned_means(stats: ForgettingStats, flagged, horizon: int):
    """Mean first-learned epoch for flagged vs. unflagged instances;
    never-learned instances count as ``horizon`` (censoring at the end of
    training). Returns (flagged_mean, unflagged_mean)."""
    flags = np.asarray(flagged, dtype=bool)
    if flags.shape != stats.first_learned.shape:
        raise ValueError("flag vector must align with the stats")
    censored = np.where(stats.never_learned, horizon, stats.first_learned)
    censored = censored.astype(np.float64)
    flagged_mean = float(np.mean(censored[flags])) if flags.any() else math.nan
    rest = ~flags
    unflagged_mean = float(np.mean(censored[rest])) if rest.any() else math.nan
    return flagged_mean, unflagged_mean


# ---------------------------------------------------------- relation corpus
#
# A templated relation corpus on which the relation task shows the paper's
# effect at desk scale: every positive sentence names its relation by one of
# six trigger words between the two entities, and a `none` sentence has the
# entity types of a random positive relation but no trigger. Each relation
# maps to its (subject, object) entity types.

RELATION_ENTITY_TYPES = {
    "founded": ("PER", "ORG"), "born_in": ("PER", "LOC"),
    "located_in": ("ORG", "LOC"), "employee_of": ("PER", "ORG"),
}


def gen_relation_corpus(num_sentences, seed, num_fillers=300):
    """(SentenceInstances, RelationSchema): half the sentences `none`, the
    rest one of the relations of RELATION_ENTITY_TYPES, each with 6 trigger
    words; 20 one-token names per entity type. A sentence is 2-5 fillers,
    the subject, 0-2 fillers, the trigger (none for `none`), 0-2 fillers,
    the object and 1-4 fillers, each filler drawn from num_fillers words.
    Record ids are positions."""
    from coreglab.datasets import RelationSchema, SentenceInstance

    relations = ("none", *RELATION_ENTITY_TYPES)
    schema = RelationSchema(relations, "none", ("PER", "ORG", "LOC"))
    names = {etype: [f"{etype.lower()}{i}" for i in range(20)]
             for etype in schema.entity_types}
    triggers = {rel: [f"{rel}_{i}" for i in range(6)] for rel in RELATION_ENTITY_TYPES}
    rng = np.random.default_rng(seed)
    instances = []
    for uid in range(num_sentences):
        label = 0 if rng.random() < 0.5 else int(rng.integers(1, len(relations)))
        relation = relations[label or int(rng.integers(1, len(relations)))]
        subj_type, obj_type = RELATION_ENTITY_TYPES[relation]

        def fillers(least, most):
            count = int(rng.integers(least, most + 1))
            return [f"w{i}" for i in rng.integers(num_fillers, size=count)]

        tokens = fillers(2, 5)
        subj = len(tokens)
        tokens.append(names[subj_type][int(rng.integers(20))])
        tokens += fillers(0, 2)
        if label:
            tokens.append(triggers[relation][int(rng.integers(6))])
        tokens += fillers(0, 2)
        obj = len(tokens)
        tokens.append(names[obj_type][int(rng.integers(20))])
        tokens += fillers(1, 4)
        instances.append(SentenceInstance(tokens, (subj, subj), subj_type, (obj, obj),
                                          obj_type, label, uid))
    return instances, schema


# ------------------------------------------------------------ test helpers

# Default smoothing constant added to both arguments of kl_divergence.
KL_EPS_DEFAULT = 1e-12


def finite_diff_grad(loss_fn, params, h=1e-5):
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(params, dtype=np.float64).copy()
    grad = np.zeros_like(x)
    for j in range(x.size):
        orig = x[j]
        x[j] = orig + h
        f_plus = loss_fn(x)
        x[j] = orig - h
        f_minus = loss_fn(x)
        x[j] = orig
        if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
            raise ValueError(f"non-finite loss evaluation at coordinate {j}")
        grad[j] = (f_plus - f_minus) / (2.0 * h)
    return grad


def cross_entropy(probs, labels):
    """Mean negative log probability of the labeled class.

    ``probs`` is one distribution or a (batch, classes) stack; ``labels`` the
    matching class indices. Probabilities are floored at PROB_FLOOR before the
    log so the loss stays finite.
    """
    from coreglab.numeric import floored_nll, label_probs

    p = np.asarray(probs, dtype=np.float64)
    if p.ndim == 1:
        p = p[None, :]
    y = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if p.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("empty batch")
    if p.shape[0] != y.shape[0]:
        raise ValueError("probs/labels batch size mismatch")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise ValueError("label out of range")
    return float(np.mean(floored_nll(label_probs(p, y))))


def kl_divergence(q, p, eps=KL_EPS_DEFAULT):
    """Smoothed KL divergence sum_j q_j * log((q_j + eps) / (p_j + eps)).

    ``eps`` keeps the ratio finite when an entry of ``p`` is zero. The value
    is exactly 0 when q == p componentwise, and can dip a few multiples of
    eps below zero because the smoothing is applied without renormalizing.
    """
    from coreglab.numeric import kl_terms

    qa = np.asarray(q, dtype=np.float64)
    pa = np.asarray(p, dtype=np.float64)
    if qa.shape != pa.shape:
        raise ValueError("distribution length mismatch")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float(np.sum(kl_terms(qa, pa, eps)))


def bio_encode(spans, length):
    """Inverse of bio_decode for non-overlapping spans."""
    tags = ["O"] * length
    for span in spans:
        if not 0 <= span.start <= span.end < length:
            raise ValueError(f"span {span} out of range for length {length}")
        if any(tags[i] != "O" for i in range(span.start, span.end + 1)):
            raise ValueError(f"span {span} overlaps another span")
        tags[span.start] = f"B-{span.label}"
        for i in range(span.start + 1, span.end + 1):
            tags[i] = f"I-{span.label}"
    return tags


def load_flip_mask_csv(path, ids):
    """The FlipMask that FlipMask.save_csv wrote to ``path`` for a dataset
    whose rows have these ids."""
    from coreglab.noiselab import FLIP_CSV_HEADER, FlipMask

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != FLIP_CSV_HEADER:
            raise ValueError(f"unexpected flip file header: {header!r}")
        rows = [(int(r[0]), int(r[1]), int(r[2])) for r in reader]
    position = {int(uid): i for i, uid in enumerate(ids)}
    idx = np.array([position[r[0]] for r in rows], dtype=np.int64)
    orig = np.array([r[1] for r in rows], dtype=np.int64)
    noisy = np.array([r[2] for r in rows], dtype=np.int64)
    return FlipMask(idx, orig, noisy, len(ids))


def flip_flags(mask):
    """A FlipMask as one flag per instance, True where its label was flipped."""
    flags = np.zeros(mask.num_instances, dtype=bool)
    flags[mask.indices] = True
    return flags


def save_relation_schema(schema, path):
    """Write a RelationSchema as the JSON file RelationSchema.load reads."""
    from coreglab.datasets import write_json

    write_json(path, {"relations": list(schema.relations), "negative": schema.negative,
                      "entity_types": list(schema.entity_types)})


def load_weights_csv(path, ids):
    """The float64 weight vector that a crossweigh run wrote as weights.csv at
    ``path`` for a dataset whose rows have these ids, which it must list in
    order."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["id", "weight"]:
            raise ValueError(f"unexpected weight file header: {header!r}")
        pairs = [(int(row[0]), float(row[1])) for row in reader]
    if [uid for uid, _ in pairs] != [int(uid) for uid in ids]:
        raise ValueError("the weight file does not list the dataset's ids in order")
    return np.array([w for _, w in pairs], dtype=np.float64)


# Per task: a schema, a vocabulary, the layer sizes of a model that fits them,
# and a data file, all of which `coreglab evaluate` and `inject-noise` accept.
# The tagging model has the 7 outputs of three entity types, and its input is
# a window of 3 blocks of the vocabulary's 4 tokens (2 plus <pad> and <unk>).
EVAL_FILES = {
    "synthetic": (None, None, [2, 3], '{"features": [0.0, 1.0], "label": 0}\n'),
    "tagging": ({"entity_types": ["PER", "ORG", "LOC"]}, {"tokens": ["Ann", "ran"]},
                [12, 7], "Ann B-PER\nran O\n"),
    "relation": ({"relations": ["none", "founded"], "negative": "none",
                  "entity_types": ["PER", "ORG"]},
                 {"tokens": ["[SUBJ-PER]", "founded", "[OBJ-ORG]"]}, [5, 2],
                 "".join(json.dumps({"tokens": ["Ann", "founded", "Acme"],
                                     "subj": [0, 0], "subj_type": "PER", "obj": [2, 2],
                                     "obj_type": "ORG", "label": label}) + "\n"
                         for label in ("founded", "none"))),
}


def write_eval_files(directory, task, **replaced):
    """Write EVAL_FILES' model, data and (for file tasks) schema.json and
    vocab.json into ``directory``, with ``replaced`` contents in place of the
    schema, vocab or data; returns the `evaluate` command line."""
    from coreglab.models import init_model, save_model

    schema, vocab, layers, data = EVAL_FILES[task]
    contents = {"schema": schema, "vocab": vocab, "data": data, **replaced}
    save_model(init_model(layers, dropout=0.0, seed=0), directory / "model.npz")
    (directory / "data").write_text(contents["data"])
    args = ["evaluate", "--task", task, "--model", str(directory / "model.npz"),
            "--data", str(directory / "data")]
    for name in ("schema", "vocab") if task != "synthetic" else ():
        (directory / f"{name}.json").write_text(json.dumps(contents[name]))
        args += [f"--{name}", str(directory / f"{name}.json")]
    return args


def inject_noise_args(directory, task):
    """The `inject-noise` command line over write_eval_files' data and schema."""
    return ["inject-noise", "--task", task, "--input", str(directory / "data"),
            "--output", str(directory / "noisy"), "--rate", "0.5",
            "--schema", str(directory / "schema.json")]
