#!/usr/bin/env python3
"""A tour of the numeric building blocks and the gradient-checking oracle.

Everything the network does reduces to a handful of float64 primitives. Each
one ships with a hand-derived backward pass, and the finite-difference
checker is the referee: if an analytic gradient drifts from central
differences, something is wrong.
"""

import numpy as np

from text2triple.numerics import (
    GATES,
    LstmWeights,
    grad_check_fd,
    lstm_cell,
    lstm_cell_backward,
    make_rng,
    weighted_cross_entropy,
)

rng = make_rng(0)

print("== weighted cross-entropy and its fused gradient ==")
logits = np.array([0.2, 1.3, -0.5])
probs = np.exp(logits - logits.max())
probs /= probs.sum()
loss, grad = weighted_cross_entropy(probs, target=1, weight=1.0)
print(f"softmax {np.round(probs, 4)}")
print(f"loss {loss:.4f}, gradient w.r.t. logits {np.round(grad, 4)}\n")

print("== one LSTM cell, forward and exact backward ==")
w = LstmWeights.init(input_dim=3, hidden_dim=4, rng=rng, scale=0.5)
print(f"stacked gates {GATES}: W {w.W.shape} acts on [x; h_prev], b {w.b.shape}")
x, h0, c0 = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
h, c, cache = lstm_cell(x, h0, c0, w)
print("h:", np.round(h, 4))
print("c:", np.round(c, 4))

proj_h, proj_c = rng.standard_normal(4), rng.standard_normal(4)


def loss_and_grad(params):
    weights = LstmWeights(params["w.W"], params["w.b"])
    h_out, c_out, cch = lstm_cell(params["x"], params["h0"], params["c0"], weights)
    value = float(proj_h @ h_out + proj_c @ c_out)
    dx, dh, dc, dw = lstm_cell_backward(proj_h, proj_c, cch, weights)
    grads = {"x": dx, "h0": dh, "c0": dc}
    grads.update({f"w.{k}": v for k, v in dw.items()})
    return value, grads


params = {"x": x, "h0": h0, "c0": c0, "w.W": w.W, "w.b": w.b}
err = grad_check_fd(loss_and_grad, params, eps=1e-5)
print(f"max relative error vs central differences: {err:.2e}")
print("every input and weight coordinate agrees with the oracle.")
