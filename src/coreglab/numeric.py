"""Dense numeric kernels: softmax, losses, the learning-rate schedule, Adam,
dropout; and the one divergence rule, that logits must be finite.

Everything here is a pure function over float64 arrays except adam_step,
which updates a parameter vector and its (2, P) moments in place. Reductions
call the ufunc's reduce (np.add.reduce, not np.sum) in numpy's fixed order,
so results are bitwise reproducible. Matrices are C-order float64 ndarrays.
"""

import numpy as np

from .schema import Key

# The inverted-dropout rate: the config's train.dropout and every model's.
DROPOUT = Key(float, 0.1, least=0, most=1, open_most=True)

# Floor applied to predicted probabilities before log in the supervision loss,
# so confident wrong predictions yield a large finite loss instead of inf.
PROB_FLOOR = 1e-12

# Smoothing added to both sides of the KL ratio in the agreement loss, so a
# zero probability yields a large finite term instead of inf or nan.
KL_EPS = 1e-12

# Adam's decay rates for the first and second moments and its denominator
# epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Non-finite logits in a forward, or a non-finite loss in a step."""


def finite_logits(logits, where: str = "") -> np.ndarray:
    """The logits as float64, or TrainingDiverged("non-finite logits<where>")
    when any is not finite: the check of softmax and every evaluation forward."""
    z = np.asarray(logits, dtype=np.float64)
    if not np.logical_and.reduce(np.isfinite(z), axis=None):
        raise TrainingDiverged(f"non-finite logits{where}")
    return z


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalize logits into probability distributions over the last axis.

    Works over any leading axes: a vector, a (batch, classes) matrix or a
    (models, batch, classes) stack. Implemented with max-subtraction, so it is
    invariant under adding a constant to all logits. The output keeps the
    memory order of a float64 input (a transposed stack stays transposed),
    since each step writes elementwise in the input's order.
    """
    return _normalize(finite_logits(logits))


def _normalize(z: np.ndarray) -> np.ndarray:
    """softmax of float64 logits that finite_logits has already checked."""
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def label_probs(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """p_label per row, (..., batch) for probs of shape (..., batch, classes)."""
    # C order, so that reductions over the pick and its floored_nll sum in
    # the same order as one row at a time.
    return np.ascontiguousarray(probs[..., np.arange(len(labels)), labels])


def floored_nll(picked: np.ndarray) -> np.ndarray:
    """Supervision loss -log(max(p_label, PROB_FLOOR)) of label_probs' pick."""
    return -np.log(np.maximum(picked, PROB_FLOOR))


def kl_terms(q: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """The smoothed KL's elementwise terms q * log((q + eps) / (p + eps)),
    broadcast over any leading axes; callers reduce them."""
    return q * np.log((q + eps) / (p + eps))


def lr_at(base_lr: float, total_steps: int, t: int) -> float:
    """Linear decay from base_lr at step 0 to exactly 0 at total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be at least 1")
    if t < 0 or t > total_steps:
        raise ValueError(f"step {t} outside [0, {total_steps}]")
    return base_lr * (1.0 - t / total_steps)


def adam_step(params: np.ndarray, grads: np.ndarray, moments: np.ndarray,
              step: int, lr: float) -> None:
    """One bias-corrected Adam update of ``params`` and ``moments`` in place.

    ``params`` is the caller's float64 buffer (as ``MlpModel.params``) and
    ``moments`` its (2, P) first and second moments (as a view of
    ``ModelEnsemble.moments``); both are overwritten, ``grads`` is only read.
    Bias correction is over ``step``, the 1-based update count. The
    arithmetic runs on the moments and two scratch vectors in the operation
    order of the textbook form ``p - lr * m_hat / (sqrt(v_hat) + eps)``, so
    every bit matches it.
    """
    g = np.asarray(grads, dtype=np.float64)
    if params.shape != g.shape or moments.shape != (2, *params.shape):
        raise ValueError("params/grads/moments shape mismatch")
    m, v = moments
    scratch = (1.0 - ADAM_BETA1) * g
    m *= ADAM_BETA1
    m += scratch
    np.multiply(1.0 - ADAM_BETA2, g, out=scratch)
    scratch *= g
    v *= ADAM_BETA2
    v += scratch
    np.divide(m, 1.0 - ADAM_BETA1 ** step, out=scratch)  # m_hat
    scratch *= lr
    denom = v / (1.0 - ADAM_BETA2 ** step)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(scratch, denom, out=scratch)
    params -= scratch


def dropout_mask(length: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not DROPOUT.admits(rate):
        raise ValueError(f"dropout rate must be {DROPOUT.bounds()}")
    return np.multiply(rng.random(length) >= rate, 1.0 / (1.0 - rate))
