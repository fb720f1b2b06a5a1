#!/usr/bin/env python3
"""A tour of the numeric building blocks and the gradient-checking oracle.

Everything the network does reduces to a handful of float64 primitives. The
LSTM has one exact backward, over a sequence scan, and the
finite-difference checker is the referee: if an analytic gradient drifts
from central differences, something is wrong.
"""

import numpy as np

from text2triple.numerics import (
    GATES,
    LstmWeights,
    grad_check_fd,
    lstm_cell,
    lstm_sequence,
    lstm_sequence_backward,
    make_rng,
)

rng = make_rng(0)

print("== one LSTM step over a batch of two ==")
w = LstmWeights.init(input_dim=3, hidden_dim=4, rng=rng, scale=0.5)
print(f"stacked gates {GATES}: W {w.W.shape} acts on [x; h_prev], b {w.b.shape}")
x, h0, c0 = rng.standard_normal((2, 3)), rng.standard_normal((2, 4)), rng.standard_normal((2, 4))
h, c = lstm_cell(x, h0, c0, w)
print("h:", np.round(h, 4), sep="\n")
print("c:", np.round(c, 4), sep="\n")

print("\n== a sequence scan and its exact backward ==")
# three rows of four steps, time-major: X is (T, LSTMs, B, input_dim)
X = rng.standard_normal((4, 1, 3, 3))
proj = rng.standard_normal((4, 1, 3, 4))  # loss = sum(proj * hs)


def loss_and_grads(X, W, b):
    weights = LstmWeights(W, b)
    hs, cache = lstm_sequence(X, (weights,))
    dw = LstmWeights(np.empty_like(W), np.empty_like(b))
    dX, _ = lstm_sequence_backward(proj, cache, (weights,), (dw,))
    return float((proj * hs).sum()), {"X": dX, "W": dw.W, "b": dw.b}


base = {"X": X, "W": w.W, "b": w.b}
for name in base:  # the checker perturbs one array, the others stay put
    def loss_and_grad(a, name=name):
        value, grads = loss_and_grads(**{**base, name: a})
        return value, grads[name]

    err = grad_check_fd(loss_and_grad, base[name], eps=1e-5)
    print(f"{name:>2} {base[name].shape}: max relative error vs central differences {err:.2e}")
