"""Desk-scale task model: an MLP with exact manual forward/backward over
the feature rows that datasets builds.

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

from .numeric import DROPOUT, dropout_mask
from .schema import check

# Rows per evaluation forward in predict: at a hidden width of 256 one
# block's float64 activations are 2 MiB, whatever the split's size.
PREDICT_BLOCK_ROWS = 1024


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
    is what the layers see. ``layout`` holds, once per model, where each
    layer sits in that vector; the views and backward's fresh gradient
    vectors are sliced by it. The constructor checks the sizes, the dropout
    rate and the buffer length, so a loaded file is checked as a fresh model.
    """

    layer_sizes: tuple[int, ...]
    dropout: float
    seed: int
    params: np.ndarray = field(repr=False, compare=False)
    weights: list[np.ndarray] = field(init=False, repr=False, compare=False)
    biases: list[np.ndarray] = field(init=False, repr=False, compare=False)
    layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.layer_sizes = tuple(int(s) for s in self.layer_sizes)
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least input and output layer sizes")
        if any(s <= 0 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        check("dropout", self.dropout, DROPOUT)
        self.params = np.ascontiguousarray(self.params, dtype=np.float64)
        expected = param_count(self.layer_sizes)
        if self.params.shape != (expected,):
            raise ValueError(f"parameter vector of shape {self.params.shape} does "
                             f"not hold the {expected} parameters of the layer sizes")
        self.layout = _param_layout(self.layer_sizes)
        self.weights = [self.params[w].reshape(shape) for w, shape, _ in self.layout]
        self.biases = [self.params[b] for _, _, b in self.layout]


@dataclass
class ForwardCache:
    model: MlpModel
    inputs: np.ndarray | WindowIds
    layer_inputs: list[np.ndarray] = field(default_factory=list)
    relu_masks: list[np.ndarray] = field(default_factory=list)
    drop_masks: list = field(default_factory=list)


def param_count(layer_sizes) -> int:
    return sum((a + 1) * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))


def _param_layout(layer_sizes) -> tuple:
    """Per layer, where its parameters sit in a flat vector in params layout:
    (weight slice, weight shape, bias slice)."""
    layout = []
    offset = 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bias_at = offset + fan_in * fan_out
        layout.append((slice(offset, bias_at), (fan_in, fan_out),
                       slice(bias_at, bias_at + fan_out)))
        offset = bias_at + fan_out
    return tuple(layout)


def init_model(layer_sizes, dropout: float, seed: int) -> MlpModel:
    """He-uniform initialized MLP; the same seed reproduces the same weights.
    Each layer's weights are drawn straight into its view of the buffer."""
    model = MlpModel(layer_sizes, dropout, seed, np.zeros(param_count(layer_sizes)))
    rng = np.random.default_rng(seed)
    for fan_in, weight in zip(model.layer_sizes, model.weights):
        limit = np.sqrt(6.0 / fan_in)
        weight[:] = rng.uniform(-limit, limit, size=weight.shape)
    return model


def _affine(h, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """h @ weight + bias, with the bias added in place to the fresh product.
    For WindowIds (layer 1 only) the product is the sum of the indexed weight
    rows, added slot by slot as the dense product adds them."""
    if isinstance(h, WindowIds):
        out = weight.take(h.ids[:, 0], axis=0)
        for slot in range(1, h.ids.shape[1]):
            out += weight.take(h.ids[:, slot], axis=0)
    else:
        out = h @ weight
    out += bias
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
        h = _affine(h, model.weights[i], model.biases[i])
        cache.relu_masks.append(h > 0.0)
        np.maximum(h, 0.0, out=h)
        mask = None
        if train_mode and model.dropout > 0.0:
            if rng is None:
                raise ValueError("train_mode with dropout requires an rng")
            mask = dropout_mask(h.size, model.dropout, rng).reshape(h.shape)
            h *= mask
        cache.drop_masks.append(mask)
    cache.layer_inputs.append(h)
    return _affine(h, model.weights[-1], model.biases[-1]), cache


def backward(model: MlpModel, cache: ForwardCache, dlogits: np.ndarray) -> np.ndarray:
    """Gradient of sum(logits * dlogits) w.r.t. all parameters, as one freshly
    allocated flat vector in the layout of ``model.params``; each layer's
    gradient is written straight into its view of that vector, sliced by
    ``model.layout``. For WindowIds layer 1's weight gradient is one bincount
    that adds each row's dz into the weight rows it indexed."""
    if cache.model is not model:
        raise ValueError("stale cache: it was produced by a different model")
    dz = np.asarray(dlogits, dtype=np.float64)
    if dz.shape != (cache.inputs.shape[0], model.layer_sizes[-1]):
        raise ValueError("dlogits shape does not match the cached forward")
    grad = np.empty(model.params.size)
    for i in range(len(model.weights) - 1, -1, -1):
        h = cache.layer_inputs[i]
        w_at, (fan_in, fan_out), b_at = model.layout[i]
        if isinstance(h, WindowIds):
            bins = (h.ids[:, :, None] * fan_out + np.arange(fan_out)).ravel()
            spread = np.repeat(dz, h.shape[1], axis=0).ravel()
            grad[w_at] = np.bincount(bins, weights=spread, minlength=fan_in * fan_out)
        else:
            np.matmul(h.T, dz, out=grad[w_at].reshape(fan_in, fan_out))
        np.add.reduce(dz, axis=0, out=grad[b_at])
        if i == 0:
            break
        # A fresh product, so the masks below never write into dlogits.
        dz = dz @ model.weights[i].T
        if cache.drop_masks[i - 1] is not None:
            dz *= cache.drop_masks[i - 1]
        dz *= cache.relu_masks[i - 1]
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


def row_blocks(rows: int):
    """The slices of PREDICT_BLOCK_ROWS rows that a whole-split evaluation
    walks; an empty split is one empty block, so forward still checks it."""
    return (slice(start, start + PREDICT_BLOCK_ROWS)
            for start in range(0, max(rows, 1), PREDICT_BLOCK_ROWS))


def predict(model: MlpModel, features) -> np.ndarray:
    """Argmax class per row, evaluation mode (no dropout), one forward per
    block of row_blocks, so the activations held at once are bounded by the
    block and the widest layer, not by the split. The argmaxes equal those
    of one forward over all rows; the logits may differ in the last bits,
    since BLAS takes another path for a one-row product."""
    out = np.empty(len(features), dtype=np.intp)
    for block in row_blocks(len(features)):
        np.argmax(forward(model, features[block])[0], axis=1, out=out[block])
    return out


def save_model(model: MlpModel, path) -> None:
    np.savez(path, layer_sizes=np.array(model.layer_sizes, dtype=np.int64),
             dropout=model.dropout, seed=model.seed, params=model.params)


def load_model(path) -> MlpModel:
    """The model save_model wrote to ``path``, built around the archive's
    parameter vector and checked by the MlpModel constructor."""
    with np.load(path) as blob:
        return MlpModel(blob["layer_sizes"], float(blob["dropout"]),
                        int(blob["seed"]), blob["params"])
