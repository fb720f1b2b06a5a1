"""Dense float64 numerics underneath the triple translator.

Hand-derived building blocks: weighted cross-entropy fused with its softmax
gradient, an LSTM cell over LstmWeights(W, b) (gates stacked) with exact
backward, a padded, length-masked LSTM sequence scan with exact backward,
bias-corrected Adam, global-norm clipping, and a central-difference gradient
checker that serves as the independent oracle for every backward pass in the
package. The cross-entropy takes optional leading batch axes, the cell one.
The cell activates its sigmoid gates and its tanh candidate with one
np.tanh call, through sigmoid(x) = (1 + tanh(x/2)) / 2, so numpy is the
only dependency.

All public operations work on float64 numpy arrays, validate their inputs,
and are deterministic: identical inputs give bit-identical outputs. They are
pure, except three that write in place: lstm_sequence_backward writes the
weight gradients into the LstmWeights it is given, clip_global_norm scales
the gradient arrays, and adam_step updates one flat parameter vector and its
Adam state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Adam",
    "GATES",
    "LstmCache",
    "LstmSequenceCache",
    "LstmWeights",
    "Params",
    "adam_step",
    "as_int",
    "clip_global_norm",
    "global_norm",
    "grad_check_fd",
    "lstm_cell",
    "lstm_cell_backward",
    "lstm_sequence",
    "lstm_sequence_backward",
    "make_rng",
    "uniform_init",
    "weighted_cross_entropy",
]

# A named collection of float64 arrays, in the order whoever built the dict
# chose: the gradient checker's dict form, and the named views of a model's
# parameter vector.
Params = dict[str, np.ndarray]

LOG_FLOOR = 1e-12  # floor inside ln() so exact zeros stay finite


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator: a given seed yields the same stream on any platform."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_int(name: str, value) -> int:
    """``value`` as an int: ints and numpy integers pass, bools and floats do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def uniform_init(shape, rng: np.random.Generator, scale: float = 0.08) -> np.ndarray:
    """Uniform(-scale, scale) init used for all non-embedding weights."""
    return rng.uniform(-scale, scale, size=shape)


def require_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite values")
    return a


def weighted_cross_entropy(probs: np.ndarray, target, weight):
    """Loss -weight*ln(probs[target] + floor) and its logits gradient.

    The returned row is the gradient with respect to the *logits* that
    produced ``probs`` through a softmax, i.e. the fused form
    weight * (probs - onehot(target)). The log floor only matters when the
    target probability is exactly 0; it does not enter the gradient.

    probs may carry leading batch axes, (..., n_classes); target then has
    the leading shape, weight broadcasts to it, and the loss is an array of
    that shape instead of a float.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim < 1:
        raise ValueError(f"probs must have a class axis, got shape {probs.shape}")
    require_finite(probs, "probs")
    target = np.asarray(target)
    if target.shape != probs.shape[:-1]:
        raise ValueError(f"target shape {target.shape}, expected {probs.shape[:-1]}")
    n = probs.shape[-1]
    if ((target < 0) | (target >= n)).any():
        raise ValueError(f"target {target} out of range [0, {n})")
    weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), target.shape)
    rows = np.indices(target.shape, sparse=True)
    loss = -weight * np.log(probs[(*rows, target)] + LOG_FLOOR)
    grad = weight[..., None] * probs
    grad[(*rows, target)] -= weight
    return (float(loss) if probs.ndim == 1 else loss), grad


# ---------------------------------------------------------------------------
# LSTM cell
# ---------------------------------------------------------------------------

# Row-block order of the stacked gate matrix and bias: input, forget and output
# gates, then the candidate.
GATES = ("i", "f", "o", "g")


@dataclass
class LstmWeights:
    """Standard no-peephole LSTM cell weights with the four gates stacked.

    W is (4 * hidden_dim, input_dim + hidden_dim) and acts on the
    concatenation [x; h_prev]; b is (4 * hidden_dim,). Row blocks follow
    GATES. Both dimensions are read off these shapes.
    """

    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        n = self.b.size // 4
        if (n < 1 or self.b.shape != (4 * n,) or self.W.ndim != 2
                or self.W.shape[0] != 4 * n or self.W.shape[1] <= n):
            raise ValueError(f"LstmWeights: W of shape {self.W.shape} and b of shape "
                             f"{self.b.shape} do not stack four gates")

    @property
    def hidden_dim(self) -> int:
        return self.b.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.W.shape[1] - self.hidden_dim

    @classmethod
    def init(
        cls, input_dim: int, hidden_dim: int, rng: np.random.Generator, scale: float = 0.08
    ) -> "LstmWeights":
        """Uniform(-scale, scale) draws, W then b, with the forget bias set."""
        rows = 4 * hidden_dim
        w = cls(uniform_init((rows, input_dim + hidden_dim), rng, scale),
                uniform_init(rows, rng, scale))
        w.init_forget_bias()
        return w

    def init_forget_bias(self) -> None:
        """Set the forget-gate block of b to 1.0, so cells remember by default."""
        self.b[self.hidden_dim:2 * self.hidden_dim] = 1.0


@dataclass
class LstmCache:
    """Forward intermediates of one lstm_cell call; exactly what the
    backward pass needs."""

    z: np.ndarray       # [x; h_prev]
    c_prev: np.ndarray
    gates: np.ndarray   # (4, [B,] H): activated i, f, o, g, gate-major
    tc: np.ndarray      # tanh(c)


@dataclass
class LstmSequenceCache:
    """Forward intermediates of one lstm_sequence call, time-major."""

    X: np.ndarray            # (T, G, B, D) inputs
    h: np.ndarray            # (T + 1, G, B, H): h0, then each step's state
    c: np.ndarray            # (T + 1, G, B, H): zeros, then each step's cell
    gates: np.ndarray        # (T, 4, G, B, H): activated gates, gate-major
    tc: np.ndarray           # (T, G, B, H): tanh of each step's new cell
    live: np.ndarray | None  # (T, B): step t of row b is inside its length
    n_full: int              # steps for which every row is live


# The cell's pointwise work runs on gate-major arrays (4, ..., H), so each
# gate and the three sigmoid gates together are contiguous blocks. The
# sigmoids come from sigmoid(x) = (1 + tanh(x/2)) / 2, so one tanh call
# activates all four blocks. Unlike 1 / (1 + exp(-x)), tanh cannot overflow,
# so the step needs no np.errstate, which costs microseconds per call at
# batch size 1.


def _cell_update(gates, c_prev, tc=None, c=None, h=None):
    """Activate gate-major pre-activations in place; returns (tanh(c), c, h),
    written into the given arrays when there are any."""
    gates[:3] *= 0.5
    np.tanh(gates, out=gates)
    gates[:3] *= 0.5
    gates[:3] += 0.5
    c = np.multiply(gates[1], c_prev, out=c)
    c += gates[0] * gates[3]
    tc = np.tanh(c, out=tc)
    return tc, c, np.multiply(gates[2], tc, out=h)


def _gate_derivs(gates: np.ndarray, tc: np.ndarray, axis: int = 0):
    """Local derivatives of activated gates, laid out like them: i(1-i),
    f(1-f), o(1-o), 1-g^2; and o * (1 - tanh(c)^2), the path from h back
    to c. `axis` is the gate axis of `gates`."""
    derivs = np.empty_like(gates)
    g4, d4 = gates.swapaxes(0, axis), derivs.swapaxes(0, axis)
    np.multiply(g4[:3], 1.0 - g4[:3], out=d4[:3])
    np.subtract(1.0, g4[3] * g4[3], out=d4[3])
    return derivs, g4[2] * (1.0 - tc * tc)


def _pre_grad(dh, dc, gates, c_prev, tc, derivs, o_dtc, d_pre) -> np.ndarray:
    """Write the gate-major pre-activation gradient of one step into d_pre
    and return the gradient reaching the step's new cell state."""
    dc_total = dc + dh * o_dtc
    np.multiply(dc_total, gates[3], out=d_pre[0])
    np.multiply(dc_total, c_prev, out=d_pre[1])
    np.multiply(dh, tc, out=d_pre[2])
    np.multiply(dc_total, gates[0], out=d_pre[3])
    d_pre *= derivs
    return dc_total


def lstm_cell(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w: LstmWeights
) -> tuple[np.ndarray, np.ndarray, LstmCache]:
    """One LSTM step: sigmoid input/forget/output gates, tanh candidate.

    c = f*c_prev + i*g,  h = o*tanh(c). Returns (h, c, cache), where the
    cache suffices for exact gradients w.r.t. x, h_prev, c_prev and weights.
    x is (input_dim,) or a batch (B, input_dim); the states match it.
    """
    lead = x.shape[:-1]
    if x.shape[-1:] != (w.input_dim,) or len(lead) > 1:
        raise ValueError(f"lstm_cell: x has shape {x.shape}, expected ([B,] {w.input_dim})")
    if h_prev.shape != lead + (w.hidden_dim,) or c_prev.shape != h_prev.shape:
        raise ValueError(
            f"lstm_cell: state shapes {h_prev.shape}/{c_prev.shape}, "
            f"expected {lead + (w.hidden_dim,)}"
        )
    z = np.concatenate([x, h_prev], axis=-1)
    # (4H,) or (B, 4H) -> gate-major (4, H) or (4, B, H)
    gates = (z @ w.W.T + w.b).reshape(lead + (4, w.hidden_dim)).swapaxes(0, -2)
    tc, c, h = _cell_update(gates, c_prev)
    return h, c, LstmCache(z, c_prev, gates, tc)


def lstm_cell_backward(
    dh: np.ndarray, dc: np.ndarray, cache: LstmCache, w: LstmWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray, Params]:
    """Exact backward for one lstm_cell step.

    dh, dc are the upstream gradients on the step's h and c outputs.
    Returns (dx, dh_prev, dc_prev, dw) with dw keyed by LstmWeights'
    fields, W and b; over a batch, dw sums the rows.
    """
    n_in = w.input_dim
    d_pre = np.empty(cache.gates.shape)
    dc_total = _pre_grad(dh, dc, cache.gates, cache.c_prev, cache.tc,
                         *_gate_derivs(cache.gates, cache.tc), d_pre)
    d_rows = d_pre.swapaxes(0, -2).reshape(-1, 4 * w.hidden_dim)
    z_rows = cache.z.reshape(-1, cache.z.shape[-1])
    dz = (d_rows @ w.W).reshape(cache.z.shape)
    dw = {"W": d_rows.T @ z_rows, "b": d_rows.sum(axis=0)}
    return dz[..., :n_in], dz[..., n_in:], dc_total * cache.gates[1], dw


def lstm_sequence(
    X: np.ndarray,
    ws: Sequence[LstmWeights],
    h0: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> tuple[np.ndarray, LstmSequenceCache]:
    """Run G independent LSTMs in lockstep over a padded, time-major batch.

    X is (T, G, B, input_dim) and LSTM ws[g] reads X[:, g]; all share their
    dimensions. The input half of every pre-activation is one GEMM per LSTM
    over all T*B positions, so each step only multiplies h (G, B, H) by the
    recurrent halves of W. Row b is live for its first lengths[b] steps
    (all T when lengths is None); after that its h and c stay frozen, so
    the last output step holds every row's final state. The cells start
    from h0 (G, B, H), zeros when None, and zero cell states.
    Returns (hs (T, G, B, H), cache).
    """
    T, G, B, d = X.shape
    n = ws[0].hidden_dim
    if T < 1 or len(ws) != G or any((w.input_dim, w.hidden_dim) != (d, n) for w in ws):
        raise ValueError(f"lstm_sequence: X of shape {X.shape} does not fit {len(ws)} LSTM(s)")
    h = np.zeros((T + 1, G, B, n))
    if h0 is not None:
        h[0] = h0
    c = np.zeros((T + 1, G, B, n))
    gates = np.empty((T, 4, G, B, n))
    for g, w in enumerate(ws):
        proj = X[:, g].reshape(T * B, d) @ w.W[:, :d].T + w.b
        gates[:, :, g] = proj.reshape(T, B, 4, n).transpose(0, 2, 1, 3)
    w_h = np.empty((4, G, n, n))  # w_h[k, g] maps h of LSTM g to gate k
    for g, w in enumerate(ws):
        w_h[:, g] = w.W[:, d:].reshape(4, n, n).transpose(0, 2, 1)
    tc = np.empty((T, G, B, n))
    if lengths is None:
        live, n_full = None, T
    else:
        live, n_full = np.arange(T)[:, None] < lengths, int(lengths.min())
    for t in range(T):
        gates[t] += h[t] @ w_h
        _cell_update(gates[t], c[t], tc[t], c[t + 1], h[t + 1])
        if t >= n_full:
            frozen = ~live[t][:, None]
            np.copyto(c[t + 1], c[t], where=frozen)
            np.copyto(h[t + 1], h[t], where=frozen)
    return h[1:], LstmSequenceCache(X, h, c, gates, tc, live, n_full)


def lstm_sequence_backward(
    dhs: np.ndarray, cache: LstmSequenceCache, ws: Sequence[LstmWeights],
    dws: Sequence[LstmWeights],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact backward for lstm_sequence.

    dhs (T, G, B, H) is the upstream gradient on every output step. Writes
    each LSTM's weight gradients into dws[g], shaped like ws[g], and returns
    (dX (T, G, B, input_dim), dh0 (G, B, H)). A step past a row's end passes
    its gradient straight to the step before and its pre-activation gradient
    is exactly zero, so padding adds nothing to dX or dws. The
    pre-activation gradients of all steps fill one buffer, and each LSTM's
    dW and dX are GEMMs over it.
    """
    T, G, B, n = dhs.shape
    d = ws[0].input_dim
    gates = cache.gates
    derivs, o_dtc = _gate_derivs(gates, cache.tc, axis=1)
    d_pre = np.empty((T, 4, G, B, n))
    w_hT = np.empty((4, G, n, n))  # w_hT[k, g] maps gate k's gradient back to h
    for g, w in enumerate(ws):
        w_hT[:, g] = w.W[:, d:].reshape(4, n, n)
    dh = np.zeros((G, B, n))
    dc = np.zeros((G, B, n))
    for t in range(T - 1, -1, -1):
        dh += dhs[t]
        dp = d_pre[t]
        dc_total = _pre_grad(dh, dc, gates[t], cache.c[t], cache.tc[t], derivs[t], o_dtc[t], dp)
        dh_new = (dp @ w_hT).sum(axis=0)
        dc_new = dc_total * gates[t, 1]
        if t >= cache.n_full:
            frozen = ~cache.live[t][:, None]
            dp[:, :, frozen[:, 0]] = 0.0
            np.copyto(dh_new, dh, where=frozen)
            np.copyto(dc_new, dc, where=frozen)
        dh, dc = dh_new, dc_new
    dX = np.empty(cache.X.shape)
    for g, (w, dw) in enumerate(zip(ws, dws)):
        rows = d_pre[:, :, g].transpose(0, 2, 1, 3).reshape(T * B, 4 * n)
        dX[:, g] = (rows @ w.W[:, :d]).reshape(T, B, d)
        np.matmul(rows.T, cache.X[:, g].reshape(T * B, d), out=dw.W[:, :d])
        np.matmul(rows.T, cache.h[:-1, g].reshape(T * B, n), out=dw.W[:, d:])
        rows.sum(axis=0, out=dw.b)
    return dX, dh


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


class Adam:
    """Adam's state over one flat parameter vector of `size` values: the
    moments m and v, the step count t, the hyperparameters, and two scratch
    vectors that adam_step computes in."""

    def __init__(self, size: int, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.scratch = np.empty((2, size))


def adam_step(params: np.ndarray, grads: np.ndarray, state: Adam) -> None:
    """One bias-corrected Adam update of the flat vector params, in place.

    params, state.m, state.v and state.t change; grads does not. Every
    element goes through b1*m + (1-b1)*g, b2*v + (1-b2)*(g*g) and
    p - lr*(m/c1) / (sqrt(v/c2) + eps) in that order, so the result has the
    bits those expressions give with temporaries.
    """
    if not params.shape == grads.shape == state.m.shape:
        raise ValueError(f"adam_step: shape mismatch: params {params.shape}, "
                         f"grads {grads.shape}, state {state.m.shape}")
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= state.beta1
    m += np.multiply(grads, 1.0 - state.beta1, out=a)
    v *= state.beta2
    np.multiply(grads, grads, out=a)
    a *= 1.0 - state.beta2
    v += a
    np.divide(v, c2, out=a)
    np.sqrt(a, out=a)
    a += state.eps
    np.divide(m, c1, out=b)
    b *= state.lr
    b /= a
    params -= b


def global_norm(grads: Iterable[np.ndarray]) -> float:
    """L2 norm over every element of every array, summed array by array."""
    total = 0.0
    for g in grads:
        total += float((g * g).sum())
    return math.sqrt(total)


def clip_global_norm(grads: Iterable[np.ndarray], max_norm: float) -> float:
    """Scale the gradient arrays in place by max_norm/norm when their global
    norm exceeds max_norm. Returns the global norm before clipping."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    grads = list(grads)
    norm = global_norm(grads)
    if norm > max_norm:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def grad_check_fd(loss_and_grad, params, eps: float = 1e-5) -> float:
    """Compare analytic gradients against central finite differences.

    ``loss_and_grad(params) -> (loss, grads)`` must be deterministic; params
    is either one float64 array or a dict of named arrays, and grads mirrors
    it with finite values. Every coordinate is perturbed by +/-eps and the
    relative error |a - n| / max(|a|, |n|, 1e-8) is returned at its maximum.
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
        grad = require_finite(np.asarray(analytic[name], dtype=np.float64), f"gradient {name}")
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
