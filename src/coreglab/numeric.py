"""Dense numeric kernels: softmax, losses, Adam, dropout, finite differences.

Everything here is a pure function over numpy float64 arrays. Reductions go
through numpy's fixed deterministic summation, so results are bitwise
reproducible run to run. Matrices are plain C-order float64 ndarrays.
"""

import math
from dataclasses import dataclass

import numpy as np

# Floor applied to predicted probabilities before log in the supervision loss,
# so confident wrong predictions yield a large finite loss instead of inf.
PROB_FLOOR = 1e-12

# Default smoothing constant added to both arguments of the agreement KL.
KL_EPS_DEFAULT = 1e-12


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


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log probability of the labeled class.

    ``probs`` is one distribution or a (batch, classes) stack; ``labels`` the
    matching class indices. Probabilities are floored at PROB_FLOOR before the
    log so the loss stays finite.
    """
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
    return float(np.mean(floored_nll(p, y)))


def floored_nll(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Supervision loss -log(max(p_label, PROB_FLOOR)) per row, for probs of
    shape (..., batch, classes); returned in C order, so that reductions over
    it sum in the same order as one row at a time."""
    picked = np.ascontiguousarray(probs[..., np.arange(len(labels)), labels])
    return -np.log(np.maximum(picked, PROB_FLOOR))


def kl_divergence(q: np.ndarray, p: np.ndarray, eps: float = KL_EPS_DEFAULT) -> float:
    """Smoothed KL divergence sum_j q_j * log((q_j + eps) / (p_j + eps)).

    ``eps`` keeps the ratio finite when an entry of ``p`` is zero. The value
    is exactly 0 when q == p componentwise, and can dip a few multiples of
    eps below zero because the smoothing is applied without renormalizing.
    """
    qa = np.asarray(q, dtype=np.float64)
    pa = np.asarray(p, dtype=np.float64)
    if qa.shape != pa.shape:
        raise ValueError("distribution length mismatch")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return float(np.sum(kl_terms(qa, pa, eps)))


def kl_terms(q: np.ndarray, p: np.ndarray, eps: float) -> np.ndarray:
    """The smoothed KL's elementwise terms q * log((q + eps) / (p + eps)),
    broadcast over any leading axes; callers reduce them."""
    return q * np.log((q + eps) / (p + eps))


@dataclass(frozen=True)
class LrSchedule:
    """Linear decay from base_lr at step 0 to exactly 0 at total_steps."""

    base_lr: float
    total_steps: int

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.total_steps < 1:
            raise ValueError("total_steps must be at least 1")


def lr_at(schedule: LrSchedule, t: int) -> float:
    if t < 0 or t > schedule.total_steps:
        raise ValueError(f"step {t} outside [0, {schedule.total_steps}]")
    return schedule.base_lr * (1.0 - t / schedule.total_steps)


@dataclass
class AdamState:
    """Adam moment buffers for one flat parameter vector."""

    step: int
    first_moment: np.ndarray
    second_moment: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8

    @classmethod
    def fresh(cls, size: int, beta1: float = 0.9, beta2: float = 0.999,
              eps_opt: float = 1e-8) -> "AdamState":
        return cls(0, np.zeros(size), np.zeros(size), beta1, beta2, eps_opt)


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
    scratch = (1.0 - state.beta1) * g
    m = state.beta1 * state.first_moment
    m += scratch
    np.multiply(1.0 - state.beta2, g, out=scratch)
    scratch *= g
    v = state.beta2 * state.second_moment
    v += scratch
    np.divide(m, 1.0 - state.beta1 ** step, out=scratch)  # m_hat
    scratch *= lr
    new_p = v / (1.0 - state.beta2 ** step)  # v_hat
    np.sqrt(new_p, out=new_p)
    new_p += state.eps_opt
    np.divide(scratch, new_p, out=scratch)
    np.subtract(p, scratch, out=new_p)
    return new_p, AdamState(step, m, v, state.beta1, state.beta2, state.eps_opt)


def dropout_mask(length: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask: 0 with probability rate, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = rng.random(length) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def finite_diff_grad(loss_fn, params: np.ndarray, h: float = 1e-5) -> np.ndarray:
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
