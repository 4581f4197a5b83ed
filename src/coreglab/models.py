"""Desk-scale task models: vocab, sentence featurizer, entity masking, and
an MLP with exact manual forward/backward.

The classifier is a plain feed-forward ReLU network over explicit features,
in one of two forms: a dense matrix (bag of tokens for sentence
classification, the synthetic task's vectors), or WindowIds, the one-hot
token windows of tagging kept as their column indices, on which layer 1
sums weight rows and scatters its gradient. It stands in for any larger
backbone: the training framework only needs forward logits and parameter
gradients.
"""

from dataclasses import dataclass, field

import numpy as np

from .numeric import dropout_mask

UNK_TOKEN = "<unk>"
PAD_TOKEN = "<pad>"


class Vocab:
    """Dense token -> index map with <unk>/<pad> and any extra specials first."""

    def __init__(self, tokens, extra_specials=()):
        self._index = {}
        for tok in (PAD_TOKEN, UNK_TOKEN, *extra_specials):
            if tok not in self._index:
                self._index[tok] = len(self._index)
        for tok in tokens:
            if tok not in self._index:
                self._index[tok] = len(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, token: str) -> bool:
        return token in self._index

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
    [OBJ-TYPE], each collapsed to a single token; other tokens unchanged."""
    n = len(instance.tokens)
    _check_span(instance.subj_span, n, "subject")
    _check_span(instance.obj_span, n, "object")
    s0, s1 = instance.subj_span
    o0, o1 = instance.obj_span
    if s0 <= o1 and o0 <= s1:
        raise ValueError("subject and object spans overlap")
    spans = sorted(
        [(s0, s1, subj_mask_token(instance.subj_type)),
         (o0, o1, obj_mask_token(instance.obj_type))]
    )
    out = []
    cursor = 0
    for start, end, mask in spans:
        out.extend(instance.tokens[cursor:start])
        out.append(mask)
        cursor = end + 1
    out.extend(instance.tokens[cursor:])
    return out


def featurize_sentence(tokens: list[str], vocab: Vocab) -> np.ndarray:
    """Normalized bag-of-tokens vector: counts divided by token count."""
    if len(tokens) == 0:
        raise ValueError("cannot featurize an empty token list")
    vec = np.zeros(len(vocab))
    for tok in tokens:
        vec[vocab.index(tok)] += 1.0
    return vec / len(tokens)


class WindowIds:
    """One-hot feature rows kept as their column indices: row r stands for
    the 0/1 row of ``width`` columns with ones at ``ids[r]``, a row of the
    (rows, slots) int64 matrix ``ids``. ``shape``, ``len`` and indexing act
    on rows and slots as on a matrix; ``width`` is what a model's input size
    must match."""

    def __init__(self, ids, width: int):
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2:
            raise ValueError(f"window ids must be a (rows, slots) matrix, "
                             f"got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= width):
            raise ValueError(f"window ids must lie in [0, {width})")
        self.ids = ids
        self.width = int(width)

    @property
    def shape(self) -> tuple[int, int]:
        return self.ids.shape

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, rows) -> "WindowIds":
        return WindowIds(self.ids[rows], self.width)


def feature_width(features) -> int:
    """The dense column count of either feature form."""
    return features.width if isinstance(features, WindowIds) else features.shape[1]


@dataclass
class MlpModel:
    """Feed-forward ReLU classifier built around one flat parameter buffer.

    ``params`` is a contiguous float64 vector holding every parameter layer
    by layer, the row-major (fan_in, fan_out) weight matrix first and then
    the bias: the layout of params_flat and of backward's gradient. The
    model wraps the given vector without copying it when it is already such
    a vector; ``weights[i]`` and ``biases[i]`` are reshaped views into it, so
    an in-place write to ``params`` (as adam_step and set_params_flat make)
    is what the layers see. The constructor checks the sizes, the dropout
    rate and the buffer length, so a loaded file is checked as a fresh model.
    """

    layer_sizes: tuple[int, ...]
    dropout: float
    seed: int
    params: np.ndarray = field(repr=False, compare=False)
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        expected = param_count(self.layer_sizes)
        if self.params.shape != (expected,):
            raise ValueError(f"parameter vector of shape {self.params.shape} does "
                             f"not hold the {expected} parameters of the layer sizes")
        self.weights, self.biases = _layer_views(self.params, self.layer_sizes)


@dataclass
class ForwardCache:
    model: MlpModel
    inputs: np.ndarray | WindowIds
    layer_inputs: list[np.ndarray] = field(default_factory=list)
    relu_masks: list[np.ndarray] = field(default_factory=list)
    drop_masks: list = field(default_factory=list)


def param_count(layer_sizes) -> int:
    return sum((a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def _layer_views(flat: np.ndarray, layer_sizes):
    """Per-layer (weight, bias) views into a flat vector in params layout."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        n_w = fan_in * fan_out
        weights.append(flat[offset:offset + n_w].reshape(fan_in, fan_out))
        offset += n_w
        biases.append(flat[offset:offset + fan_out])
        offset += fan_out
    return weights, biases


def init_model(layer_sizes, dropout: float, seed: int) -> MlpModel:
    """He-uniform initialized MLP; the same seed reproduces the same weights.
    Each layer's weights are drawn straight into its view of the buffer."""
    model = MlpModel(layer_sizes, dropout, seed, np.zeros(param_count(layer_sizes)))
    rng = np.random.default_rng(seed)
    for fan_in, weight in zip(model.layer_sizes, model.weights):
        limit = np.sqrt(6.0 / fan_in)
        weight[:] = rng.uniform(-limit, limit, size=weight.shape)
    return model


def _times(h, weight: np.ndarray) -> np.ndarray:
    """h @ weight. For WindowIds (layer 1 only) that is the sum of the
    indexed weight rows, added slot by slot as the dense product adds them."""
    if not isinstance(h, WindowIds):
        return h @ weight
    out = weight.take(h.ids[:, 0], axis=0)
    for slot in range(1, h.ids.shape[1]):
        out += weight.take(h.ids[:, slot], axis=0)
    return out


def forward(model: MlpModel, features, train_mode: bool = False,
            rng: np.random.Generator | None = None):
    """Compute (batch, classes) logits and a cache for backward from a
    (batch, features) matrix or WindowIds.

    Dropout is applied to hidden activations only when train_mode is on and
    the model's rate is nonzero; evaluation consumes no RNG state.
    """
    x = features
    if not isinstance(x, WindowIds):
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"features must be a (batch, features) matrix, "
                             f"got shape {x.shape}")
    width = feature_width(x)
    if width != model.layer_sizes[0]:
        raise ValueError(f"feature length {width} != input size {model.layer_sizes[0]}")
    cache = ForwardCache(model, x)
    h = x
    n_layers = len(model.weights)
    for i in range(n_layers - 1):
        cache.layer_inputs.append(h)
        z = _times(h, model.weights[i]) + model.biases[i]
        a = np.maximum(z, 0.0)
        cache.relu_masks.append(z > 0.0)
        if train_mode and model.dropout > 0.0:
            if rng is None:
                raise ValueError("train_mode with dropout requires an rng")
            mask = dropout_mask(a.size, model.dropout, rng).reshape(a.shape)
            a = a * mask
            cache.drop_masks.append(mask)
        else:
            cache.drop_masks.append(None)
        h = a
    cache.layer_inputs.append(h)
    return _times(h, model.weights[-1]) + model.biases[-1], cache


def backward(model: MlpModel, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of sum(logits * dlogits) w.r.t. all parameters, as one freshly
    allocated flat vector in the layout of ``model.params``; each layer's
    gradient is written straight into its view of that vector. For WindowIds
    layer 1's weight gradient is one bincount that adds each row's dz into
    the weight rows it indexed."""
    if cache.model is not model:
        raise ValueError("stale cache: it was produced by a different model")
    d = np.asarray(dlogits, dtype=np.float64)
    if d.shape != (cache.inputs.shape[0], model.layer_sizes[-1]):
        raise ValueError("dlogits shape does not match the cached forward")
    grad = np.empty(model.params.size)
    grads_w, grads_b = _layer_views(grad, model.layer_sizes)
    dz = d
    for i in range(len(model.weights) - 1, -1, -1):
        h = cache.layer_inputs[i]
        if isinstance(h, WindowIds):
            fan_out = dz.shape[1]
            bins = (h.ids[:, :, None] * fan_out + np.arange(fan_out)).ravel()
            spread = np.repeat(dz, h.shape[1], axis=0).ravel()
            sums = np.bincount(bins, weights=spread, minlength=grads_w[i].size)
            grads_w[i][:] = sums.reshape(grads_w[i].shape)
        else:
            np.matmul(h.T, dz, out=grads_w[i])
        np.sum(dz, axis=0, out=grads_b[i])
        if i == 0:
            break
        da = dz @ model.weights[i].T
        if cache.drop_masks[i - 1] is not None:
            da = da * cache.drop_masks[i - 1]
        dz = da * cache.relu_masks[i - 1]
    return grad


def params_flat(model: MlpModel) -> np.ndarray:
    """A copy of the model's parameter buffer."""
    return model.params.copy()


def set_params_flat(model: MlpModel, flat: np.ndarray) -> None:
    """Copy ``flat`` into the model's parameter buffer in place. The weight
    and bias views see the new values; ``flat`` itself is not aliased, so
    changing it afterwards leaves the model intact."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.size != model.params.size:
        raise ValueError("flat parameter vector has the wrong length")
    model.params[:] = flat.reshape(-1)


def predict(model: MlpModel, features) -> np.ndarray:
    """Argmax class per row, evaluation mode (no dropout)."""
    logits, _ = forward(model, features)
    return np.argmax(logits, axis=1)


def save_model(model: MlpModel, path) -> None:
    np.savez(path, layer_sizes=np.array(model.layer_sizes, dtype=np.int64),
             dropout=model.dropout, seed=model.seed, params=model.params)


def load_model(path) -> MlpModel:
    """The model save_model wrote to ``path``, built around the archive's
    parameter vector and checked by the MlpModel constructor."""
    with np.load(path) as blob:
        return MlpModel(blob["layer_sizes"], float(blob["dropout"]),
                        int(blob["seed"]), blob["params"])
