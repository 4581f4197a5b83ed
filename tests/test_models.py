import tracemalloc
import warnings

import numpy as np
import pytest

from coreglab.datasets import (PAD_TOKEN, UNK_TOKEN, RelationSchema, SentenceInstance,
                               Vocab, build_relation_dataset, entity_mask,
                               obj_mask_token, subj_mask_token)
from coreglab.models import (PREDICT_BLOCK_ROWS, MlpModel, WindowIds, backward,
                             eval_blocks, evaluating, feature_width, forward,
                             init_model, load_model, param_count, params_flat,
                             predict, save_model, set_params_flat)
from coreglab.numeric import TrainingDiverged, softmax
from coreglab.rng import substream
from oracles import (densify, featurize_token_window, finite_diff_grad,
                     reference_backward, vocab_index)


def test_vocab_specials_first():
    vocab = Vocab(["apple", "banana"])
    assert vocab.pad_index == 0
    tokens = [PAD_TOKEN, UNK_TOKEN, "apple", "banana"]
    assert list(vocab.ids(tokens)) == [vocab_index(vocab, t) for t in tokens] == [0, 1, 2, 3]


def test_vocab_unknown_falls_back():
    vocab = Vocab(["apple"])
    tokens = ["zebra", "apple", "", UNK_TOKEN]
    assert list(vocab.ids(tokens)) == [vocab_index(vocab, t) for t in tokens] == [1, 2, 1, 1]
    assert vocab.tokens() == [PAD_TOKEN, UNK_TOKEN, "apple"]


def test_vocab_deduplicates():
    vocab = Vocab(["a", "a", "b", "a"])
    assert len(vocab) == 4  # pad, unk, a, b


def test_vocab_tokens_round_trip():
    vocab = Vocab(["[SUBJ-PER]", "x", "y"])
    rebuilt = Vocab(vocab.tokens())
    assert rebuilt.tokens() == vocab.tokens()
    assert len(rebuilt) == len(vocab)


def test_mask_token_forms():
    assert subj_mask_token("PER") == "[SUBJ-PER]"
    assert obj_mask_token("ORG") == "[OBJ-ORG]"


def test_entity_mask_basic():
    inst = SentenceInstance(
        tokens=["Alice", "works", "at", "Acme", "Corp"],
        subj_span=(0, 0), subj_type="PER",
        obj_span=(3, 4), obj_type="ORG", label=1)
    assert entity_mask(inst) == ["[SUBJ-PER]", "works", "at", "[OBJ-ORG]"]


def test_entity_mask_object_first():
    inst = SentenceInstance(
        tokens=["Acme", "hired", "Bob"],
        subj_span=(2, 2), subj_type="PER",
        obj_span=(0, 0), obj_type="ORG", label=0)
    assert entity_mask(inst) == ["[OBJ-ORG]", "hired", "[SUBJ-PER]"]


def test_entity_mask_errors():
    with pytest.raises(ValueError, match="out of range"):
        entity_mask(SentenceInstance(["a", "b"], (0, 2), "PER", (1, 1), "ORG", 0))
    with pytest.raises(ValueError, match="overlap"):
        entity_mask(SentenceInstance(["a", "b", "c"], (0, 1), "PER", (1, 2),
                                     "ORG", 0))


def test_featurize_sentence_counts():
    """A relation row holds each token's count divided by the masked
    sentence's length, unknown tokens counted at <unk>."""
    schema = RelationSchema(("none",), "none", ("PER", "ORG"))
    inst = SentenceInstance(["a", "a", "Ann", "b", "zzz", "Acme"], (2, 2), "PER",
                            (5, 5), "ORG", 0)
    vocab = Vocab(["a", "b", subj_mask_token("PER"), obj_mask_token("ORG")])
    data, _ = build_relation_dataset([inst], schema, vocab)
    vec = data.features[0]
    assert vec.shape == (len(vocab),)
    assert vec[vocab_index(vocab, "a")] == pytest.approx(2 / 6)
    assert vec[vocab_index(vocab, "b")] == pytest.approx(1 / 6)
    assert vec[vocab_index(vocab, UNK_TOKEN)] == pytest.approx(1 / 6)
    assert vec[vocab_index(vocab, "[SUBJ-PER]")] == pytest.approx(1 / 6)
    assert vec[vocab_index(vocab, "[OBJ-ORG]")] == pytest.approx(1 / 6)
    assert vec.sum() == pytest.approx(1.0)


def test_featurize_token_window_layout():
    vocab = Vocab(["a", "b"])
    vec = featurize_token_window(["a", "b"], 0, 1, vocab)
    size = len(vocab)
    assert vec.shape == (3 * size,)
    # left slot is out of sentence -> pad one-hot
    assert vec[0 * size + vocab.pad_index] == 1.0
    assert vec[1 * size + vocab_index(vocab, "a")] == 1.0
    assert vec[2 * size + vocab_index(vocab, "b")] == 1.0
    assert vec.sum() == 3.0


def test_featurize_token_window_position_check():
    vocab = Vocab(["a"])
    with pytest.raises(ValueError):
        featurize_token_window(["a"], 1, 1, vocab)


def test_param_count():
    assert param_count((2, 2, 2)) == 12
    assert param_count((5, 3)) == 18
    assert param_count((4, 8, 3)) == 4 * 8 + 8 + 8 * 3 + 3


def test_init_model_deterministic_and_seed_sensitive():
    m1 = init_model((4, 8, 3), 0.1, seed=5)
    m2 = init_model((4, 8, 3), 0.1, seed=5)
    m3 = init_model((4, 8, 3), 0.1, seed=6)
    assert params_flat(m1).tobytes() == params_flat(m2).tobytes()
    assert params_flat(m1).tobytes() != params_flat(m3).tobytes()


def test_init_model_bias_zero_and_bounds():
    model = init_model((10, 7, 2), 0.0, seed=0)
    for bias in model.biases:
        assert np.all(bias == 0.0)
    for w, fan_in in zip(model.weights, (10, 7)):
        limit = np.sqrt(6.0 / fan_in)
        assert np.all(np.abs(w) <= limit)


def test_init_model_errors():
    with pytest.raises(ValueError):
        init_model((4,), 0.0, 0)
    with pytest.raises(ValueError):
        init_model((4, 0, 2), 0.0, 0)
    with pytest.raises(ValueError):
        init_model((4, 2), 1.0, 0)


def _hand_model():
    # Layer by layer: the row-major weights, then the bias.
    return MlpModel(layer_sizes=(2, 2, 2), dropout=0.0, seed=0,
                    params=np.array([1.0, -1.0, 0.5, 2.0, 0.1, -0.2,
                                     1.0, 0.0, 1.0, 1.0, 0.0, 0.5]))


def test_forward_hand_computed():
    # hidden pre-activation: [2.1, 2.8] -> relu unchanged
    # logits: [2.1 + 2.8, 2.8] + [0, 0.5] = [4.9, 3.3]
    logits, _ = forward(_hand_model(), np.array([[1.0, 2.0]]))
    np.testing.assert_allclose(logits, [[4.9, 3.3]], rtol=1e-14)


def test_forward_batch_matches_single():
    model = init_model((3, 5, 2), 0.0, seed=1)
    xs = np.random.default_rng(2).normal(size=(4, 3))
    batch_logits, _ = forward(model, xs)
    for i in range(4):
        single, _ = forward(model, xs[i:i + 1])
        np.testing.assert_allclose(batch_logits[i:i + 1], single, rtol=1e-12)


def test_forward_eval_ignores_dropout_and_rng():
    model = init_model((3, 16, 2), 0.5, seed=3)
    x = np.ones((1, 3))
    a, _ = forward(model, x)
    b, _ = forward(model, x)
    assert a.tobytes() == b.tobytes()


def test_forward_train_mode_dropout_zero_consumes_no_rng():
    model = init_model((3, 16, 2), 0.0, seed=3)
    rng = substream(0, "dropout.0")
    before = rng.bit_generator.state
    forward(model, np.ones((1, 3)), rng=rng)
    assert rng.bit_generator.state == before


def test_forward_shape_check():
    model = init_model((3, 4, 2), 0.0, seed=0)
    with pytest.raises(ValueError, match="feature length"):
        forward(model, np.ones((1, 5)))
    with pytest.raises(ValueError, match="matrix"):
        forward(model, np.ones(3))
    with pytest.raises(ValueError, match="matrix"):
        predict(model, np.ones(3))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    for trial in range(10):
        sizes = (3, rng.integers(2, 6), rng.integers(2, 5))
        model = init_model(tuple(int(s) for s in sizes), 0.0, seed=trial)
        x = rng.normal(size=(2, 3))
        direction = rng.normal(size=(2, int(sizes[-1])))

        logits, cache = forward(model, x)
        grad = backward(model, cache, direction)

        base = params_flat(model)

        def loss_fn(flat, model=model, x=x, direction=direction):
            probe = init_model(model.layer_sizes, 0.0, seed=0)
            set_params_flat(probe, flat)
            out, _ = forward(probe, x)
            return float(np.sum(out * direction))

        fd = finite_diff_grad(loss_fn, base, h=1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
        set_params_flat(model, base)


def test_backward_respects_dropout_mask():
    model = init_model((4, 32, 3), 0.5, seed=9)
    x = np.random.default_rng(5).normal(size=(3, 4))
    rng = substream(1, "dropout.0")
    logits, cache = forward(model, x, rng=rng)
    grad = backward(model, cache, np.ones_like(logits))

    # Replaying the same dropout stream gives identical logits and gradients.
    rng2 = substream(1, "dropout.0")
    logits2, cache2 = forward(model, x, rng=rng2)
    grad2 = backward(model, cache2, np.ones_like(logits2))
    assert logits.tobytes() == logits2.tobytes()
    assert grad.tobytes() == grad2.tobytes()


def test_backward_stale_cache():
    m1 = init_model((2, 3, 2), 0.0, seed=0)
    m2 = init_model((2, 3, 2), 0.0, seed=1)
    logits, cache = forward(m1, np.ones((1, 2)))
    with pytest.raises(ValueError, match="stale"):
        backward(m2, cache, np.ones((1, 2)))


def test_backward_dlogits_shape_check():
    model = init_model((2, 3, 2), 0.0, seed=0)
    _, cache = forward(model, np.ones((2, 2)))
    with pytest.raises(ValueError):
        backward(model, cache, np.ones((3, 2)))
    with pytest.raises(ValueError):
        backward(model, cache, np.ones(2))


def test_params_flat_round_trip():
    model = init_model((4, 6, 3), 0.2, seed=7)
    flat = params_flat(model)
    assert flat.shape == (param_count((4, 6, 3)),)
    other = init_model((4, 6, 3), 0.2, seed=8)
    set_params_flat(other, flat)
    assert params_flat(other).tobytes() == flat.tobytes()
    # the copy is deep: mutating the source vector leaves the model intact
    flat[0] += 1.0
    assert params_flat(other)[0] != flat[0]


def test_set_params_flat_length_check():
    model = init_model((2, 2), 0.0, seed=0)
    with pytest.raises(ValueError):
        set_params_flat(model, np.zeros(5))


def test_predict_matches_argmax_softmax():
    model = init_model((3, 8, 4), 0.0, seed=11)
    xs = np.random.default_rng(6).normal(size=(10, 3))
    preds = predict(model, xs)
    logits, _ = forward(model, xs)
    expected = np.array([int(np.argmax(softmax(row))) for row in logits])
    np.testing.assert_array_equal(preds, expected)


def _rows(form, rows, width, seed):
    rng = np.random.default_rng(seed)
    if form == "dense":
        return rng.normal(size=(rows, width))
    return WindowIds(rng.integers(0, width, size=(rows, 3)), width)


B = PREDICT_BLOCK_ROWS


@pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1])
@pytest.mark.parametrize("form", ["dense", "window_ids"])
def test_blocked_predict_equals_one_forward(form, rows):
    """At hidden depths 0 to 2 and for 1 to 3 models, every model's row of
    each block's evaluation logits equals forward's over that block to the
    bit; the blocks cover the rows in order, an empty split yields none, and
    every block's logits are a view of one buffer. Predictions, not logits,
    are compared with one forward over all rows: a one-row block's product
    may differ from the whole split's in the last bits."""
    features = _rows(form, rows, 40, seed=rows + 1)
    for hidden in ((), (16,), (16, 8)):
        for count in (1, 2, 3):
            models = [init_model((40, *hidden, 5), 0.0, seed=rows + k)
                      for k in range(count)]
            blocks, first = [], None
            for block, logits in eval_blocks(models, features):
                blocks.append(block)
                assert logits.base is not None
                first = logits.base if first is None else first
                assert logits.base is first
                assert logits.shape == (count, len(features[block]), 5)
                assert logits.flags.c_contiguous
                for model, row in zip(models, logits):
                    assert row.tobytes() == forward(model, features[block])[0].tobytes()
            assert blocks == [slice(start, start + B) for start in range(0, rows, B)]
        expected = np.argmax(forward(models[0], features)[0], axis=1)
        preds = predict(models[0], features)
        assert preds.dtype == expected.dtype and preds.shape == (rows,)
        np.testing.assert_array_equal(preds, expected)


@pytest.mark.parametrize("rows", [0, 1, B + 1])
@pytest.mark.parametrize("form", ["dense", "window_ids"])
def test_predict_checks_width_for_any_row_count(form, rows):
    """The width is checked before the first block, against every model."""
    model = init_model((40, 16, 5), 0.0, seed=0)
    narrow = init_model((39, 16, 5), 0.0, seed=0)
    features = _rows(form, rows, 39, seed=1)
    with pytest.raises(ValueError, match="feature length 39 != input size 40"):
        predict(model, features)
    for models in ([model], [narrow, model]):
        with pytest.raises(ValueError, match="feature length 39 != input size 40"):
            next(eval_blocks(models, features))


def test_diverging_block_names_its_evaluation():
    """A row of 1e308s in the last block only overflows that block's logits:
    the evaluation raises TrainingDiverged naming what it evaluated, without
    NumPy's overflow warnings."""
    model = init_model((40, 16, 5), 0.0, seed=2)
    features = _rows("dense", B + 1, 40, seed=3)
    features[B] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDiverged,
                           match="^non-finite logits in evaluation of dev$"):
            with evaluating("dev"):
                predict(model, features)
    assert np.all(np.isfinite(forward(model, features[:B])[0]))


@pytest.mark.parametrize("blocks", [8, 16])
def test_predict_memory_does_not_grow_with_rows(blocks):
    """Traced allocations while predicting stay under a bound set by the
    block and the hidden width (the float64 activations of four blocks),
    not by the row count; one forward over all rows needs more than that
    for a single hidden layer's activations."""
    hidden = 256
    model = init_model((50, hidden, 4), 0.0, seed=3)
    features = _rows("window_ids", blocks * B + 1, 50, seed=4)
    tracemalloc.start()
    try:
        predict(model, features)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * B * hidden * 8


def test_save_load_round_trip(tmp_path):
    model = init_model((5, 9, 3), 0.25, seed=13)
    path = tmp_path / "model.npz"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.layer_sizes == model.layer_sizes
    assert loaded.dropout == model.dropout
    assert loaded.seed == model.seed
    assert params_flat(loaded).tobytes() == params_flat(model).tobytes()


def _assert_views_alias_params(model):
    assert model.params.dtype == np.float64
    assert model.params.flags.c_contiguous
    assert model.params.shape == (param_count(model.layer_sizes),)
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        assert w.shape == (model.layer_sizes[i], model.layer_sizes[i + 1])
        assert b.shape == (model.layer_sizes[i + 1],)
        assert np.shares_memory(w, model.params)
        assert np.shares_memory(b, model.params)
    # The buffer is laid out as params_flat: each layer's weights, then bias.
    joined = np.concatenate([np.concatenate([w.ravel(), b])
                             for w, b in zip(model.weights, model.biases)])
    assert joined.tobytes() == model.params.tobytes()
    # A write to the buffer is seen by the layers.
    model.params[:] = np.arange(model.params.size)
    assert model.weights[0][0, 1] == 1.0
    assert model.biases[-1][-1] == model.params.size - 1


def test_layers_are_views_of_params_after_init():
    _assert_views_alias_params(init_model((4, 6, 5, 3), 0.1, seed=2))


def test_layers_are_views_of_params_when_built_from_a_buffer():
    buffer = np.arange(12, dtype=np.float64)
    model = MlpModel((2, 2, 2), dropout=0.0, seed=0, params=buffer)
    # A float64 vector is wrapped, not copied.
    assert model.params is buffer
    np.testing.assert_array_equal(model.weights[1], [[6, 7], [8, 9]])
    np.testing.assert_array_equal(model.biases[0], [4, 5])
    _assert_views_alias_params(model)
    # A vector of another dtype (as an archive may hold) is converted once.
    narrow = MlpModel((2, 2, 2), dropout=0.0, seed=0,
                      params=np.arange(12, dtype=np.float32))
    assert narrow.params.dtype == np.float64
    _assert_views_alias_params(narrow)


@pytest.mark.parametrize("sizes, dropout, params, match", [
    ((2, 2, 2), 0.0, np.zeros(11), "12 parameters"),
    ((2, 2, 2), 0.0, np.zeros((2, 6)), "12 parameters"),
    ((2, 3, 2), 0.0, np.zeros(12), "17 parameters"),
    ((2,), 0.0, np.zeros(0), "at least input and output"),
    ((2, 0, 2), 0.0, np.zeros(2), "positive"),
    ((2, 2), 1.5, np.zeros(6), "dropout"),
    ((2, 2), float("nan"), np.zeros(6), "dropout"),
])
def test_model_constructor_checks_sizes_dropout_and_buffer(sizes, dropout, params,
                                                           match):
    with pytest.raises(ValueError, match=match):
        MlpModel(sizes, dropout=dropout, seed=0, params=params)


def test_layers_are_views_of_params_after_load(tmp_path):
    path = tmp_path / "model.npz"
    save_model(init_model((5, 4, 3), 0.0, seed=1), path)
    _assert_views_alias_params(load_model(path))


def test_load_model_wraps_the_archive_without_initialising(tmp_path, monkeypatch):
    from coreglab import models

    path = tmp_path / "model.npz"
    saved = init_model((5, 4, 3), 0.2, seed=1)
    save_model(saved, path)

    def refuse(*args, **kwargs):
        raise AssertionError("a loaded model draws no initialisation")

    monkeypatch.setattr(models, "init_model", refuse)
    monkeypatch.setattr(models, "set_params_flat", refuse)
    loaded = load_model(path)
    assert loaded.params.tobytes() == saved.params.tobytes()
    assert (loaded.layer_sizes, loaded.dropout, loaded.seed) == ((5, 4, 3), 0.2, 1)


def test_set_params_flat_writes_buffer_in_place():
    model = init_model((3, 4, 2), 0.0, seed=0)
    buffer = model.params
    flat = np.random.default_rng(1).normal(size=buffer.size)
    set_params_flat(model, flat)
    assert model.params is buffer
    assert buffer.tobytes() == flat.tobytes()
    # Deep copy: later changes to the source reach neither buffer nor views.
    expected = flat.copy()
    flat[:] = 0.0
    assert model.params.tobytes() == expected.tobytes()
    assert not np.shares_memory(params_flat(model), model.params)
    _assert_views_alias_params(model)


def test_backward_returns_fresh_vector_in_params_layout():
    model = init_model((3, 4, 2), 0.0, seed=0)
    logits, cache = forward(model, np.ones((2, 3)))
    grad = backward(model, cache, np.ones_like(logits))
    assert grad.shape == model.params.shape
    assert not np.shares_memory(grad, model.params)
    # Bias gradients of the output layer sit last: the sum of dlogits rows.
    np.testing.assert_array_equal(grad[-2:], [2.0, 2.0])


# ------------------------------------------------------------ window ids


def _tagging_rows(window):
    from coreglab.datasets import build_tagging_dataset, gen_tagging_corpus
    instances, scheme = gen_tagging_corpus(num_sentences=40, seed=window)
    data, _ = build_tagging_dataset(instances, scheme, window=window)
    return data


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("hidden", [(), (32,), (32, 16)])
@pytest.mark.parametrize("window", [0, 1, 2])
def test_window_ids_match_dense_path(window, hidden, dropout):
    """Gather-sum forward and bincount backward on window ids equal the
    dense one-hot products bit for bit: train and eval logits, gradients."""
    data = _tagging_rows(window)
    model = init_model((data.num_features, *hidden, data.num_classes), dropout,
                       seed=window)
    batch = np.random.default_rng(5).choice(len(data), size=64, replace=False)
    ids = data.features[batch]
    dense = densify(ids)
    dlogits = np.random.default_rng(6).normal(size=(64, data.num_classes))
    outputs = []
    for features in (ids, dense):
        logits, cache = forward(model, features, rng=substream(7, "dropout.0"))
        grad = backward(model, cache, dlogits)
        evaluated, _ = forward(model, data.features if features is ids
                               else densify(data.features))
        outputs.append((logits.tobytes(), grad.tobytes(), evaluated.tobytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("form", ["dense", "window_ids"])
def test_forward_and_backward_write_only_their_own_arrays(form, dropout):
    """forward builds its logits and activations in place, and backward
    applies the masks in place: neither may write into the parameters, the
    features, dlogits or the cache, so a second backward on one cache
    returns the same gradient bit for bit."""
    data = _tagging_rows(1)
    features = data.features[np.arange(24)]
    if form == "dense":
        features = densify(features)
    raw = features if form == "dense" else features.ids
    model = init_model((data.num_features, 8, 6, data.num_classes), dropout, seed=2)
    params_before, raw_before = model.params.copy(), raw.copy()
    logits, cache = forward(model, features, rng=substream(3, "dropout.0"))
    assert cache.layer_inputs[0] is features
    owned = [logits, *cache.layer_inputs[1:],
             *(mask for mask in cache.drop_masks if mask is not None)]
    assert len(owned) == 3 + 2 * (dropout > 0)
    for array in owned:
        assert not np.shares_memory(array, model.params)
        assert not np.shares_memory(array, raw)
    dlogits = np.random.default_rng(4).normal(size=logits.shape)
    cached = [a.copy() for a in owned[1:]]
    before = dlogits.copy()
    first = backward(model, cache, dlogits)
    second = backward(model, cache, dlogits)
    assert first.tobytes() == second.tobytes()
    assert dlogits.tobytes() == before.tobytes()
    for array, copy in zip(owned[1:], cached):
        assert array.tobytes() == copy.tobytes()
    assert model.params.tobytes() == params_before.tobytes()
    assert raw.tobytes() == raw_before.tobytes()


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_backward_matches_reference_at_relu_edges(dropout):
    """backward reads each ReLU mask off the cached activation, and
    reference_backward recomputes it as pre > 0; their gradients agree to the
    bit on pre-activations of exactly -0.0 and +0.0, on positive units that
    dropout zeroed, and with no dropout, over window ids and dense rows. The
    first hidden layer puts, in every row, unit 0 at a pre-activation of
    exactly -0.0 and unit 1 at exactly +0.0 (gather-sums of signed zeros),
    unit 2 above zero and unit 3 below it."""
    ids = WindowIds(np.array([[0, 3], [1, 4], [2, 5], [0, 5], [1, 3], [2, 4]] * 4), 6)
    model = init_model((6, 4, 3, 2), dropout, seed=3)
    weight, bias = model.weights[0], model.biases[0]
    weight[:, 0], bias[0] = -0.0, -0.0
    weight[:, 1], bias[1] = 0.0, 0.0
    weight[:, 2], bias[2] = np.linspace(0.1, 0.6, 6), 0.25
    weight[:, 3], bias[3] = -np.linspace(0.1, 0.6, 6), -0.25
    pre = weight[ids.ids[:, 0]] + weight[ids.ids[:, 1]] + bias
    assert np.all(pre[:, :2] == 0.0)
    assert np.signbit(pre[:, 0]).all() and not np.signbit(pre[:, 1]).any()
    assert np.all(pre[:, 2] > 0.0) and np.all(pre[:, 3] < 0.0)
    dlogits = np.random.default_rng(9).normal(size=(len(ids), 2))
    for features in (ids, densify(ids)):
        _, cache = forward(model, features, rng=substream(4, "dropout.0"))
        if dropout:
            dropped = cache.drop_masks[0][:, 2] == 0.0
            assert dropped.any() and not dropped.all()
        else:
            assert cache.drop_masks == [None, None]
        grad = backward(model, cache, dlogits)
        assert grad.tobytes() == reference_backward(model, cache, dlogits).tobytes()


def test_backward_on_window_ids_matches_finite_differences():
    vocab_size, slots, rows = 5, 3, 6
    rng = np.random.default_rng(8)
    ids = WindowIds(np.arange(slots) * vocab_size
                    + rng.integers(vocab_size, size=(rows, slots)), slots * vocab_size)
    for hidden in ((), (4,), (4, 3)):
        model = init_model((ids.width, *hidden, 3), 0.0, seed=len(hidden))
        # Nonzero biases keep every hidden pre-activation off the ReLU kink.
        set_params_flat(model, rng.normal(size=model.params.size))
        direction = rng.normal(size=(rows, 3))
        _, cache = forward(model, ids)
        grad = backward(model, cache, direction)

        def loss_fn(flat, model=model, direction=direction):
            probe = init_model(model.layer_sizes, 0.0, seed=0)
            set_params_flat(probe, flat)
            return float(np.sum(forward(probe, ids)[0] * direction))

        fd = finite_diff_grad(loss_fn, params_flat(model), h=1e-6)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
def test_window_ids_dtype_does_not_change_the_bytes(hidden):
    """Logits and gradients on window ids equal those on the same ids as
    int32, byte for byte, in every integer dtype that holds them: uint8 and
    uint16 below 256 columns, uint16 above."""
    rng = np.random.default_rng(len(hidden))
    for vocab_size, dtypes in ((7, (np.uint8, np.uint16, np.int64)),
                               (150, (np.uint16, np.int64))):
        slots, rows = 3, 20
        ids = np.arange(slots) * vocab_size + rng.integers(vocab_size, size=(rows, slots))
        model = init_model((slots * vocab_size, *hidden, 3), 0.0, seed=5)
        dlogits = rng.normal(size=(rows, 3))
        results = []
        for dtype in (np.int32, *dtypes):
            features = WindowIds(ids.astype(dtype), slots * vocab_size)
            assert features.ids.dtype == dtype
            logits, cache = forward(model, features)
            results.append((logits.tobytes(), backward(model, cache, dlogits).tobytes()))
        assert all(result == results[0] for result in results[1:])


def test_window_ids_refuse_non_integer_ids():
    """A float id would be truncated and a bool read as 0 or 1."""
    for bad in ([[0.7, 1.9]], np.array([[True, False]])):
        with pytest.raises(ValueError, match="window ids must be integers"):
            WindowIds(bad, 6)


def test_window_ids_rows_and_checks():
    ids = WindowIds([[0, 4], [1, 5], [2, 3]], 6)
    assert ids.shape == (3, 2) and len(ids) == 3 and ids.ids.dtype == np.int64
    picked = ids[np.array([2, 0])]
    assert isinstance(picked, WindowIds) and picked.width == 6
    np.testing.assert_array_equal(picked.ids, [[2, 3], [0, 4]])
    assert feature_width(ids) == 6 and feature_width(np.zeros((2, 4))) == 4
    with pytest.raises(ValueError, match="rows, slots"):
        WindowIds([0, 1], 6)
    for bad in ([[0, 6]], [[-1, 0]]):
        with pytest.raises(ValueError, match=r"\[0, 6\)"):
            WindowIds(bad, 6)


def test_forward_checks_window_width_not_just_id_range():
    """Ids of a narrower window are all in range of a wider model's weights;
    the carried width still refuses them."""
    model = init_model((9, 4, 2), 0.0, seed=0)
    with pytest.raises(ValueError, match="feature length 3 != input size 9"):
        forward(model, WindowIds([[0], [2]], 3))


def test_forward_reads_integer_matrix_as_dense():
    """Only WindowIds take the id path: an integer-valued matrix is dense."""
    model = init_model((3, 4, 2), 0.0, seed=0)
    x = np.array([[0, 2, 1], [1, 1, 0]])
    assert forward(model, x)[0].tobytes() == forward(model, x.astype(float))[0].tobytes()
