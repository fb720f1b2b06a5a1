"""Dense float64 numerics underneath the triple translator.

Hand-derived building blocks: weighted cross-entropy fused with its softmax
gradient, an LSTM cell with stacked gate weights and exact backward,
bias-corrected Adam, global-norm clipping, and a central-difference gradient
checker that serves as the independent oracle for every backward pass in the
package.

All public operations work on float64 numpy arrays, validate their inputs,
and are pure functions: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid  # numerically stable logistic

__all__ = [
    "AdamState",
    "GATES",
    "LstmCache",
    "LstmWeights",
    "Params",
    "adam_step",
    "clip_global_norm",
    "global_norm",
    "grad_check_fd",
    "lstm_cell",
    "lstm_cell_backward",
    "make_rng",
    "sigmoid",
    "uniform_init",
    "weighted_cross_entropy",
]

# A parameter set is a named collection of float64 arrays. Iteration order is
# the canonical order fixed by whoever built the dict; Adam and the gradient
# checker walk it as-is, which keeps every update bit-deterministic.
Params = dict[str, np.ndarray]

LOG_FLOOR = 1e-12  # floor inside ln() so exact zeros stay finite


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator: a given seed yields the same stream on any platform."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def uniform_init(shape, rng: np.random.Generator, scale: float = 0.08) -> np.ndarray:
    """Uniform(-scale, scale) init used for all non-embedding weights."""
    return rng.uniform(-scale, scale, size=shape)


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def weighted_cross_entropy(
    probs: np.ndarray, target: int, weight: float
) -> tuple[float, np.ndarray]:
    """Loss -weight*ln(probs[target] + floor) and its logits gradient.

    The returned row is the gradient with respect to the *logits* that
    produced ``probs`` through a softmax, i.e. the fused form
    weight * (probs - onehot(target)). The log floor only matters when the
    target probability is exactly 0; it does not enter the gradient.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError(f"probs must be 1-d, got shape {probs.shape}")
    require_finite(probs, "probs")
    if not 0 <= target < probs.size:
        raise ValueError(f"target {target} out of range [0, {probs.size})")
    loss = -weight * math.log(probs[target] + LOG_FLOOR)
    grad = weight * probs
    grad[target] -= weight
    return loss, grad


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

# Row-block order of the stacked gate matrix and bias: input, forget and output
# gates, then the candidate. Checkpoints store one array per gate, suffixed
# `W_i` ... `b_g` in this order.
GATES = ("i", "f", "o", "g")


@dataclass
class LstmWeights:
    """Standard no-peephole LSTM cell weights with the four gates stacked.

    W is (4 * hidden_dim, input_dim + hidden_dim) and acts on the
    concatenation [x; h_prev]; b is (4 * hidden_dim,). Row blocks follow
    GATES. The forget-gate bias starts at 1.0 so cells remember by default.
    """

    input_dim: int
    hidden_dim: int
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        rows = 4 * self.hidden_dim
        for key, want in (("W", (rows, self.input_dim + self.hidden_dim)), ("b", (rows,))):
            shape = getattr(self, key).shape
            if shape != want:
                raise ValueError(f"LstmWeights.{key}: shape {shape}, expected {want}")

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        scale: float = 0.08,
        forget_bias: float = 1.0,
    ) -> "LstmWeights":
        rows = 4 * hidden_dim
        W = uniform_init((rows, input_dim + hidden_dim), rng, scale)
        b = uniform_init(rows, rng, scale)
        b[hidden_dim:2 * hidden_dim] = forget_bias
        return cls(input_dim, hidden_dim, W, b)

    def to_dict(self, prefix: str) -> Params:
        return {f"{prefix}.W": self.W, f"{prefix}.b": self.b}

    @classmethod
    def from_dict(cls, params: Params, prefix: str) -> "LstmWeights":
        W = np.asarray(params[f"{prefix}.W"], dtype=np.float64)
        b = np.asarray(params[f"{prefix}.b"], dtype=np.float64)
        hidden = b.shape[0] // 4
        return cls(W.shape[1] - hidden, hidden, W, b)

    def gate_arrays(self, prefix: str) -> Params:
        """One array per gate, keyed `{prefix}.W_i` ... `{prefix}.b_g`."""
        blocks = [slice(k * self.hidden_dim, (k + 1) * self.hidden_dim) for k in range(4)]
        out = {f"{prefix}.W_{g}": self.W[s] for g, s in zip(GATES, blocks)}
        out.update({f"{prefix}.b_{g}": self.b[s] for g, s in zip(GATES, blocks)})
        return out

    @classmethod
    def from_gate_arrays(cls, params: Params, prefix: str) -> "LstmWeights":
        """Inverse of gate_arrays: stack the per-gate blocks."""
        ws = [np.asarray(params[f"{prefix}.W_{g}"], dtype=np.float64) for g in GATES]
        bs = [np.asarray(params[f"{prefix}.b_{g}"], dtype=np.float64) for g in GATES]
        for g, w, b in zip(GATES, ws, bs):
            if w.ndim != 2 or w.shape != ws[0].shape or b.shape != (w.shape[0],):
                raise ValueError(f"{prefix}: gate {g} shapes {w.shape}/{b.shape} do not stack")
        return cls.from_dict(
            {f"{prefix}.W": np.concatenate(ws), f"{prefix}.b": np.concatenate(bs)}, prefix
        )


@dataclass
class LstmCache:
    """Forward intermediates; exactly what the backward pass needs."""

    z: np.ndarray       # [x; h_prev]
    c_prev: np.ndarray
    i: np.ndarray
    f: np.ndarray
    o: np.ndarray
    g: np.ndarray
    c: np.ndarray
    tc: np.ndarray      # tanh(c)


def lstm_cell(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w: LstmWeights
) -> tuple[np.ndarray, np.ndarray, LstmCache]:
    """One LSTM step: sigmoid input/forget/output gates, tanh candidate.

    c = f*c_prev + i*g,  h = o*tanh(c). Returns (h, c, cache), where the
    cache suffices for exact gradients w.r.t. x, h_prev, c_prev and weights.
    """
    if x.shape != (w.input_dim,):
        raise ValueError(f"lstm_cell: x has shape {x.shape}, expected ({w.input_dim},)")
    if h_prev.shape != (w.hidden_dim,) or c_prev.shape != (w.hidden_dim,):
        raise ValueError(
            f"lstm_cell: state shapes {h_prev.shape}/{c_prev.shape}, "
            f"expected ({w.hidden_dim},)"
        )
    n = w.hidden_dim
    z = np.concatenate([x, h_prev])
    pre = w.W @ z + w.b
    ifo = sigmoid(pre[:3 * n])
    i, f, o = ifo[:n], ifo[n:2 * n], ifo[2 * n:]
    g = np.tanh(pre[3 * n:])
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return h, c, LstmCache(z, c_prev, i, f, o, g, c, tc)


def lstm_cell_backward(
    dh: np.ndarray, dc: np.ndarray, cache: LstmCache, w: LstmWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Params]:
    """Exact backward for one lstm_cell step.

    dh, dc are the upstream gradients on the step's h and c outputs.
    Returns (dx, dh_prev, dc_prev, dw) with dw keyed like
    LstmWeights.to_dict("") without the prefix dot.
    """
    i, f, o, g, tc = cache.i, cache.f, cache.o, cache.g, cache.tc
    dc_total = dc + dh * o * (1.0 - tc * tc)
    d_pre = np.concatenate([
        (dc_total * g) * i * (1.0 - i),
        (dc_total * cache.c_prev) * f * (1.0 - f),
        (dh * tc) * o * (1.0 - o),
        (dc_total * i) * (1.0 - g * g),
    ])
    dz = w.W.T @ d_pre
    n_in = w.input_dim
    return dz[:n_in], dz[n_in:], dc_total * f, {"W": np.outer(d_pre, cache.z), "b": d_pre}


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """Adam moments, step counter and hyperparameters.

    m and v mirror the parameter dict shapes exactly; t increases by one per
    adam_step call.
    """

    m: Params
    v: Params
    t: int
    lr: float
    beta1: float
    beta2: float
    eps: float

    @classmethod
    def init(
        cls,
        params: Params,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> "AdamState":
        zeros = lambda: {k: np.zeros_like(v) for k, v in params.items()}  # noqa: E731
        return cls(zeros(), zeros(), 0, lr, beta1, beta2, eps)


def _check_same_shapes(a: Params, b: Params, what: str) -> None:
    if a.keys() != b.keys():
        raise ValueError(f"{what}: key sets differ: {sorted(a)} vs {sorted(b)}")
    for k in a:
        if a[k].shape != b[k].shape:
            raise ValueError(f"{what}: shape mismatch at {k}: {a[k].shape} vs {b[k].shape}")


def adam_step(
    params: Params, grads: Params, state: AdamState
) -> tuple[Params, AdamState]:
    """One bias-corrected Adam update. Pure: inputs are left untouched."""
    _check_same_shapes(params, grads, "adam_step params/grads")
    _check_same_shapes(params, state.m, "adam_step params/state")
    t = state.t + 1
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    new_params: Params = {}
    new_m: Params = {}
    new_v: Params = {}
    for k, p in params.items():
        g = grads[k]
        m = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[k] + (1.0 - state.beta2) * (g * g)
        new_params[k] = p - state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
        new_m[k] = m
        new_v[k] = v
    return new_params, AdamState(new_m, new_v, t, state.lr, state.beta1, state.beta2, state.eps)


def global_norm(grads: Params) -> float:
    """L2 norm over every element of every array in the dict."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return math.sqrt(total)


def clip_global_norm(grads: Params, max_norm: float) -> Params:
    """Scale all gradients by max_norm/norm when the global norm exceeds it."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = global_norm(grads)
    if norm <= max_norm:
        return dict(grads)
    scale = max_norm / norm
    return {k: g * scale for k, g in grads.items()}


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def grad_check_fd(loss_and_grad, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_and_grad(params) -> (loss, grads)`` must be deterministic; params
    is either one float64 array or a dict of named arrays, and grads mirrors
    it. Every coordinate is perturbed by +/-eps and the relative error
    |a - n| / max(|a|, |n|, 1e-8) is returned at its maximum.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    single = isinstance(params, np.ndarray)
    pdict: Params = {"param": params} if single else dict(params)

    def call(p: Params):
        loss, grads = loss_and_grad(p["param"] if single else p)
        if not np.isfinite(loss):
            raise ValueError("loss_and_grad returned a non-finite loss")
        return float(loss), ({"param": grads} if single else grads)

    _, analytic = call(pdict)
    worst = 0.0
    for name, base in pdict.items():
        base = np.asarray(base, dtype=np.float64)
        grad = np.asarray(analytic[name], dtype=np.float64)
        for idx in range(base.size):
            bumped = dict(pdict)
            plus = base.copy()
            plus.flat[idx] += eps
            bumped[name] = plus
            loss_plus, _ = call(bumped)
            minus = base.copy()
            minus.flat[idx] -= eps
            bumped[name] = minus
            loss_minus, _ = call(bumped)
            numeric = (loss_plus - loss_minus) / (2.0 * eps)
            a = float(grad.flat[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    return worst
