"""Desk-scale task model: an MLP with exact manual forward/backward over
the feature rows that datasets builds.

The classifier is a plain feed-forward ReLU network over explicit features, in
one of two forms: a dense matrix (bag of tokens for sentence classification,
the synthetic task's vectors), or WindowIds, the one-hot token windows of
tagging kept as their column indices, on which layer 1 sums weight rows and
scatters its gradient. It stands in for any larger backbone: the training
framework only needs forward logits and parameter gradients. forward caches
each layer's input and each dropout mask, and backward reads each ReLU mask
off a cached activation. Evaluation (eval_blocks) runs the same layer
arithmetic (_affine) for every model over fixed row blocks, into buffers
allocated once per whole-split evaluation, keeping nothing for backward.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .files import replacing
from .numeric import DROPOUT, TrainingDiverged, dropout_mask, finite_logits
from .schema import check

# Rows per block of a whole-split evaluation, and so of eval_blocks'
# buffers: at a hidden width of 256 a hidden layer's buffer is 2 MiB,
# whatever the split's size.
PREDICT_BLOCK_ROWS = 1024


class WindowIds:
    """One-hot feature rows kept as their column indices: row r stands for
    the 0/1 row of ``width`` columns with ones at ``ids[r]``, a row of the
    (rows, slots) integer matrix ``ids``, kept in the integer dtype it is
    given (datasets builds the narrowest unsigned one that holds width - 1;
    forward and backward give the same bytes in any). ``shape``, ``len`` and
    indexing act on rows and slots as on a matrix; ``width`` is what a
    model's input size must match."""

    def __init__(self, ids, width: int):
        ids = np.asarray(ids)
        if not np.issubdtype(ids.dtype, np.integer):
            raise ValueError(f"window ids must be integers, got dtype {ids.dtype}")
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
    """What backward reads: the model (to refuse a stale cache), each layer's
    input (the features, then each hidden activation after ReLU and dropout)
    and each hidden layer's dropout mask (None when no dropout ran)."""

    model: MlpModel
    layer_inputs: list
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


def _affine(h, weight: np.ndarray, bias: np.ndarray, out=None,
            scratch=None) -> np.ndarray:
    """h @ weight + bias, written into ``out`` (a fresh array when None), with
    the bias added in place to the product. For WindowIds (layer 1 only) the
    product is the sum of the indexed weight rows, added slot by slot as the
    dense product adds them, each later slot taken into ``scratch``. The
    takes use mode="clip", which never clips (a WindowIds checks its ids when
    it is built) and, unlike the default, writes into ``out`` unbuffered."""
    if isinstance(h, WindowIds):
        out = weight.take(h.ids[:, 0], axis=0, out=out, mode="clip")
        for slot in range(1, h.ids.shape[1]):
            out += weight.take(h.ids[:, slot], axis=0, out=scratch, mode="clip")
    else:
        out = np.matmul(h, weight, out=out)
    out += bias
    return out


def _inputs(model: MlpModel, features):
    """features as the forwards take them: WindowIds, or a float64 (batch,
    features) matrix; either must be as wide as the model's input layer."""
    x = features
    if not isinstance(x, WindowIds):
        x = np.asarray(features, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"features must be a (batch, features) matrix, "
                             f"got shape {x.shape}")
    width = feature_width(x)
    if width != model.layer_sizes[0]:
        raise ValueError(f"feature length {width} != input size {model.layer_sizes[0]}")
    return x


def forward(model: MlpModel, features, rng: np.random.Generator | None = None):
    """Compute (batch, classes) logits and a cache for backward from a
    (batch, features) matrix or WindowIds.

    Dropout is applied to hidden activations exactly when a stream ``rng``
    is given and the model's rate is nonzero. Without one, the logits are
    those of eval_blocks, the evaluation forward, which keeps no cache.
    """
    h = _inputs(model, features)
    cache = ForwardCache(model, [h])
    for weight, bias in zip(model.weights[:-1], model.biases[:-1]):
        h = _affine(h, weight, bias)
        np.maximum(h, 0.0, out=h)
        mask = None
        if rng is not None and model.dropout > 0.0:
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
    that adds each row's dz into the weight rows it indexed; its bins are
    formed in int64, so no id * fan_out product wraps in a narrower dtype."""
    if cache.model is not model:
        raise ValueError("stale cache: it was produced by a different model")
    dz = np.asarray(dlogits, dtype=np.float64)
    if dz.shape != (len(cache.layer_inputs[0]), model.layer_sizes[-1]):
        raise ValueError("dlogits shape does not match the cached forward")
    grad = np.empty(model.params.size)
    for i in range(len(model.weights) - 1, -1, -1):
        h = cache.layer_inputs[i]
        w_at, (fan_in, fan_out), b_at = model.layout[i]
        if isinstance(h, WindowIds):
            bins = np.multiply(h.ids[:, :, None], fan_out, dtype=np.int64)
            bins = (bins + np.arange(fan_out)).ravel()
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
        # The ReLU mask: a kept unit's activation is positive exactly when its
        # pre-activation was (dropout scales by 1 / (1 - rate) >= 1), and a
        # dropped unit's dz is already a signed zero, which 0 or 1 keeps.
        dz *= h > 0.0
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


def eval_blocks(models, features):
    """Per block of PREDICT_BLOCK_ROWS rows of a split, (row slice, logits):
    a (models, rows, classes) view of every model's evaluation-mode logits.
    The models share their layer sizes. The feature width is checked against
    each before the first block, so an empty split is checked and yields
    nothing. The buffers are allocated once per call (one per hidden layer,
    shared by the models, a WindowIds slot's scratch and the logits), so a
    block's logits overwrite the last block's. Each model runs forward's
    arithmetic without dropout, so its logits equal forward's over the block
    bit for bit, and keeps nothing for backward. Non-finite logits are a
    TrainingDiverged, not NumPy's overflow warning."""
    x = features
    for model in models:
        x = _inputs(model, x)
    rows, sizes = min(len(x), PREDICT_BLOCK_ROWS), models[0].layer_sizes
    hidden = [np.empty((rows, width)) for width in sizes[1:-1]]
    scratch = np.empty((rows, sizes[1]))
    flat = np.empty(len(models) * rows * sizes[-1])
    for start in range(0, len(x), PREDICT_BLOCK_ROWS):
        block = slice(start, start + PREDICT_BLOCK_ROWS)
        inputs = x[block]
        n = len(inputs)
        # Contiguous at every block size, as a fresh (models, n, classes) stack.
        logits = flat[:len(models) * n * sizes[-1]].reshape(len(models), n, sizes[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            for model, out in zip(models, logits):
                h = inputs
                for weight, bias, buf in zip(model.weights, model.biases, (*hidden, out)):
                    if h is not inputs:
                        np.maximum(h, 0.0, out=h)
                    h = _affine(h, weight, bias, buf[:n], scratch[:n])
        yield block, finite_logits(logits, " in evaluation")


@contextmanager
def evaluating(what: str):
    """Names what an evaluation inside evaluates in the TrainingDiverged it
    raises: "non-finite logits in evaluation of <what>"."""
    try:
        yield
    except TrainingDiverged as exc:
        raise TrainingDiverged(f"{exc} of {what}") from exc


def predict(model: MlpModel, features) -> np.ndarray:
    """Argmax class per row over eval_blocks, so the activations held at once
    are bounded by the block and the widest layer, not by the split, and are
    allocated once per call, not per block. The argmaxes equal those of one
    forward over all rows; the logits may differ in the last bits, since
    BLAS takes another path for a one-row product."""
    out = np.empty(len(features), dtype=np.intp)
    for block, logits in eval_blocks([model], features):
        np.argmax(logits[0], axis=1, out=out[block])
    return out


def save_model(model: MlpModel, path) -> None:
    """The model as an .npz archive at path, written whole (files.replacing);
    through the open file, since np.savez adds .npz to a name without it."""
    with replacing(path, "wb") as fh:
        np.savez(fh, layer_sizes=np.array(model.layer_sizes, dtype=np.int64),
                 dropout=model.dropout, seed=model.seed, params=model.params)


def load_model(path) -> MlpModel:
    """The model save_model wrote to ``path``, built around the archive's
    parameter vector and checked by the MlpModel constructor."""
    with np.load(path) as blob:
        return MlpModel(blob["layer_sizes"], float(blob["dropout"]),
                        int(blob["seed"]), blob["params"])
