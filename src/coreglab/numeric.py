"""Dense numeric kernels: softmax, losses, the learning-rate schedule, Adam,
dropout.

Everything here is a pure function over numpy float64 arrays. Reductions go
through numpy's fixed deterministic summation, so results are bitwise
reproducible run to run. Matrices are plain C-order float64 ndarrays.
"""

from dataclasses import dataclass

import numpy as np

# Floor applied to predicted probabilities before log in the supervision loss,
# so confident wrong predictions yield a large finite loss instead of inf.
PROB_FLOOR = 1e-12

# Adam's decay rates for the first and second moments and its denominator
# epsilon.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def softmax(logits: np.ndarray) -> np.ndarray:
    """Normalize logits into a probability distribution.

    Works on a single vector or row-wise on a 2-D batch. Implemented with
    max-subtraction, so it is invariant under adding a constant to all logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    z = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def floored_nll(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Supervision loss -log(max(p_label, PROB_FLOOR)) per row, for probs of
    shape (..., batch, classes); returned in C order, so that reductions over
    it sum in the same order as one row at a time."""
    picked = np.ascontiguousarray(probs[..., np.arange(len(labels)), labels])
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


@dataclass
class AdamState:
    """Adam moment buffers for one flat parameter vector."""

    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray

    @classmethod
    def fresh(cls, size: int) -> "AdamState":
        return cls(0, np.zeros(size), np.zeros(size))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update. Returns new params and state.

    Pure: ``params``, ``grads`` and ``state`` are not modified, and the new
    parameter vector and moments are fresh arrays, so a caller that keeps its
    parameters in a buffer (as ``MlpModel.params``) copies the result back.
    The arithmetic runs in place on those fresh arrays and one scratch
    vector, in the operation order of the textbook form
    ``p - lr * m_hat / (sqrt(v_hat) + eps)``, so every bit matches it.
    """
    p = np.asarray(params, dtype=np.float64)
    g = np.asarray(grads, dtype=np.float64)
    if p.shape != g.shape or p.shape != state.first_moment.shape:
        raise ValueError("params/grads/state shape mismatch")
    step = state.step + 1
    scratch = (1.0 - ADAM_BETA1) * g
    m = ADAM_BETA1 * state.first_moment
    m += scratch
    np.multiply(1.0 - ADAM_BETA2, g, out=scratch)
    scratch *= g
    v = ADAM_BETA2 * state.second_moment
    v += scratch
    np.divide(m, 1.0 - ADAM_BETA1 ** step, out=scratch)  # m_hat
    scratch *= lr
    new_p = v / (1.0 - ADAM_BETA2 ** step)  # v_hat
    np.sqrt(new_p, out=new_p)
    new_p += ADAM_EPS
    np.divide(scratch, new_p, out=scratch)
    np.subtract(p, scratch, out=new_p)
    return new_p, AdamState(step, m, v)


def dropout_mask(length: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = rng.random(length) >= rate
    return keep.astype(np.float64) / (1.0 - rate)
