"""Dense float64 numerics underneath the triple translator.

Hand-derived building blocks: LSTM weights, LstmWeights(W, b) with the gates
stacked; one forward-only LSTM step over a batch, lstm_cell; one padded,
length-masked LSTM sequence scan, lstm_sequence, with the package's one LSTM
backward, lstm_sequence_backward; Adam in Kingma and Ba's efficient form;
global-norm clipping; and a central-difference gradient checker over one array,
the independent oracle for every backward pass. check_fields checks every
config's fields by their declared types. The loss, a cross-entropy, is not
here: model._loss_and_grads forms it and its logits gradient from the
log-probs. The LSTM activates its sigmoid gates and its tanh candidate with one
np.tanh call, through sigmoid(x) = (1 + tanh(x/2)) / 2, so numpy is the only
dependency.

All public operations work on float64 numpy arrays, validate their inputs,
and are deterministic: identical inputs give bit-identical outputs. They are
pure, except four that write in place: lstm_sequence_backward writes the
weight gradients into the LstmWeights it is given, add_rows scatter-adds rows
into a table, clip_global_norm scales the gradient vector, and adam_step
updates one flat parameter vector and its Adam state, one cache-sized block
of ADAM_BLOCK elements at a time.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

__all__ = [
    "ADAM_BLOCK",
    "Adam",
    "GATES",
    "LstmSequenceCache",
    "LstmWeights",
    "adam_step",
    "add_rows",
    "as_int",
    "check_fields",
    "clip_global_norm",
    "grad_check_fd",
    "lstm_cell",
    "lstm_sequence",
    "lstm_sequence_backward",
    "make_rng",
    "uniform_init",
]


def make_rng(seed: int) -> np.random.Generator:
    """PCG64 generator: a given seed, an integer >= 0, yields the same stream
    on any platform."""
    if as_int("seed", seed) < 0:
        raise ValueError("seed must be >= 0")
    return np.random.Generator(np.random.PCG64(int(seed)))


def as_int(name: str, value) -> int:
    """``value`` as an int: ints and numpy integers pass, bools and floats do not."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """A real number that is not a bool; numpy floats and integers count."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_fields(config, positive: Sequence[str] = ()) -> None:
    """Check the dataclass ``config``'s fields by declared type, in order: an
    int goes through as_int and must be >= 1 (``seed`` >= 0); a bool must be
    a bool; a float must be a real number, not a bool, and positive and
    finite if named in ``positive``. No value is converted but by as_int.
    Other fields are the caller's to check."""
    for f in fields(config):
        name, value = f.name, getattr(config, f.name)
        kind = getattr(f.type, "__name__", f.type)
        if kind == "int":
            setattr(config, name, value := as_int(name, value))
            low = 0 if name == "seed" else 1
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
        elif kind == "bool" and not isinstance(value, bool):
            raise ValueError(f"{name} must be a bool, got {value!r}")
        elif kind == "float":
            if not _is_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if name in positive and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def uniform_init(shape, rng: np.random.Generator, scale: float = 0.08) -> np.ndarray:
    """Uniform(-scale, scale) init used for all non-embedding weights."""
    return rng.uniform(-scale, scale, size=shape)


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


def lstm_cell(
    x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w: LstmWeights
) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step over a batch: sigmoid input/forget/output gates, tanh
    candidate, c = f*c_prev + i*g and h = o*tanh(c).

    x is (B, input_dim) and the states are (B, hidden_dim). Returns (h, c).
    The step has no backward of its own: training differentiates every LSTM
    through lstm_sequence_backward.
    """
    if x.ndim != 2 or x.shape[1] != w.input_dim:
        raise ValueError(f"lstm_cell: x has shape {x.shape}, expected (B, {w.input_dim})")
    if h_prev.shape != (len(x), w.hidden_dim) or c_prev.shape != h_prev.shape:
        raise ValueError(
            f"lstm_cell: state shapes {h_prev.shape}/{c_prev.shape}, "
            f"expected {(len(x), w.hidden_dim)}"
        )
    z = np.concatenate([x, h_prev], axis=1)
    # (B, 4H) -> gate-major (4, B, H)
    gates = (z @ w.W.T + w.b).reshape(len(x), 4, w.hidden_dim).swapaxes(0, 1)
    _, c, h = _cell_update(gates, c_prev)
    return h, c


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
    # Local derivatives of the activated gates, laid out like them: i(1-i),
    # f(1-f), o(1-o), 1-g^2; and o * (1 - tanh(c)^2), the path from h to c.
    derivs = np.empty_like(gates)
    np.multiply(gates[:, :3], 1.0 - gates[:, :3], out=derivs[:, :3])
    np.subtract(1.0, gates[:, 3] * gates[:, 3], out=derivs[:, 3])
    o_dtc = gates[:, 2] * (1.0 - cache.tc * cache.tc)
    d_pre = np.empty((T, 4, G, B, n))
    w_hT = np.empty((4, G, n, n))  # w_hT[k, g] maps gate k's gradient back to h
    for g, w in enumerate(ws):
        w_hT[:, g] = w.W[:, d:].reshape(4, n, n)
    dh = np.zeros((G, B, n))
    dc = np.zeros((G, B, n))
    for t in range(T - 1, -1, -1):
        dh += dhs[t]
        gt, dp = gates[t], d_pre[t]
        dc_total = dc + dh * o_dtc[t]  # the gradient reaching step t's new cell
        np.multiply(dc_total, gt[3], out=dp[0])
        np.multiply(dc_total, cache.c[t], out=dp[1])
        np.multiply(dh, cache.tc[t], out=dp[2])
        np.multiply(dc_total, gt[0], out=dp[3])
        dp *= derivs[t]
        dh_new = (dp @ w_hT).sum(axis=0)
        dc_new = dc_total * gt[1]
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


# Elements per block of adam_step. Adam's six arrays take 6 * 8 bytes per
# element, so a block of them (768 KB) stays in a 2 MB L2 cache between the
# update's passes, where whole vectors of CLI-default size do not.
ADAM_BLOCK = 16_384


class Adam:
    """Adam's state over one flat parameter vector of `size` values: the
    moments m and v, the step count t, the hyperparameters of adam_step's
    update p - step*m / (sqrt(v) + eps_hat), and two scratch rows of one block
    each, min(size, ADAM_BLOCK), that adam_step computes in."""

    def __init__(self, size: int, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.scratch = np.empty((2, min(size, ADAM_BLOCK)))


def adam_step(params: np.ndarray, grads: np.ndarray, state: Adam) -> None:
    """One bias-corrected Adam update of the flat vector params, in place.

    params, state.m, state.v and state.t change; grads does not. Every
    element goes through b1*m + (1-b1)*g, b2*v + (1-b2)*(g*g) and
    p - step*m / (sqrt(v) + eps_hat), bit for bit as with temporaries: the
    textbook p - lr*(m/c1) / (sqrt(v/c2) + eps) with its bias corrections
    folded into step and eps_hat (Kingma and Ba, ICLR 2015, Section 2).
    Blocks of ADAM_BLOCK elements stay in cache from the first pass to the
    last; elements do not mix, so blocking moves no bit.
    """
    if not params.shape == grads.shape == state.m.shape:
        raise ValueError(f"adam_step: shape mismatch: params {params.shape}, "
                         f"grads {grads.shape}, state {state.m.shape}")
    state.t += 1
    c1 = 1.0 - state.beta1**state.t
    c2 = 1.0 - state.beta2**state.t
    step, eps_hat = state.lr * math.sqrt(c2) / c1, state.eps * math.sqrt(c2)
    for lo in range(0, params.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        p, g, m, v = params[block], grads[block], state.m[block], state.v[block]
        a, b = state.scratch[:, :p.size]
        m *= state.beta1
        m += np.multiply(g, 1.0 - state.beta1, out=a)
        v *= state.beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - state.beta2
        v += a
        np.sqrt(v, out=a)
        a += eps_hat
        np.multiply(m, step, out=b)
        b /= a
        p -= b


def add_rows(table: np.ndarray, ids: np.ndarray, rows: np.ndarray) -> None:
    """table[ids[i]] += rows[i] for each i in order, repeats included, as one
    np.add.at on flat element indices of the C-contiguous table: the same
    additions in the same order as on whole rows, and faster for more than a
    handful of rows. Unlike the other operations it does not check its
    inputs: its callers index tables they built themselves."""
    dim = table.shape[1]
    np.add.at(table.reshape(-1), (ids.reshape(-1, 1) * dim + np.arange(dim)).ravel(),
              rows.ravel())


def clip_global_norm(vec: np.ndarray, max_norm: float) -> float:
    """Scale the gradient vector in place by max_norm/norm when its L2 norm
    exceeds max_norm. Returns the norm before clipping.

    The sum of squares is numpy's own loop, not a BLAS dot: OpenBLAS splits
    a long dot across its threads, so its bits would follow the thread count.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    norm = math.sqrt(float(np.einsum("i,i->", vec, vec)))
    if norm > max_norm:
        vec *= max_norm / norm
    return norm


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------


def grad_check_fd(loss_and_grad, param: np.ndarray, eps: float = 1e-5) -> float:
    """Compare an analytic gradient against central finite differences.

    ``loss_and_grad(p) -> (loss, grad)`` must be deterministic; param is one
    float64 array, and grad must be finite and shaped like it. Every
    coordinate is perturbed by +/-eps and the relative error
    |a - n| / max(|a|, |n|, 1e-8) is returned at its maximum.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")

    def call(p: np.ndarray):
        loss, grad = loss_and_grad(p)
        if not np.isfinite(loss):
            raise ValueError("loss_and_grad returned a non-finite loss")
        return float(loss), grad

    base = np.asarray(param, dtype=np.float64)
    grad = np.asarray(call(param)[1], dtype=np.float64)
    if not np.isfinite(grad).all():
        raise ValueError("gradient contains non-finite values")
    if grad.shape != base.shape:
        raise ValueError(f"gradient of shape {grad.shape} for a parameter of shape {base.shape}")
    worst = 0.0
    for idx in range(base.size):
        plus = base.copy()
        plus.flat[idx] += eps
        minus = base.copy()
        minus.flat[idx] -= eps
        numeric = (call(plus)[0] - call(minus)[0]) / (2.0 * eps)
        a = float(grad.flat[idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst
