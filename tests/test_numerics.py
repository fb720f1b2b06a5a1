"""Numerics building blocks against independent oracles."""

import math

import numpy as np
import pytest

from text2triple.numerics import (
    AdamState,
    LstmWeights,
    adam_step,
    clip_global_norm,
    global_norm,
    grad_check_fd,
    lstm_cell,
    lstm_cell_backward,
    make_rng,
    uniform_init,
    weighted_cross_entropy,
)


def zero_weights(n_in, hidden):
    return LstmWeights(n_in, hidden, np.zeros((4 * hidden, n_in + hidden)), np.zeros(4 * hidden))


class TestWeightedCrossEntropy:
    def test_onehot_correct_is_zero(self):
        probs = np.array([0.0, 1.0, 0.0])
        loss, _ = weighted_cross_entropy(probs, 1, 1.0)
        assert abs(loss) < 1e-9

    def test_uniform_four_classes(self):
        loss, _ = weighted_cross_entropy(np.full(4, 0.25), 2, 1.0)
        assert abs(loss - math.log(4)) < 1e-9
        assert abs(loss - 1.386294) < 1e-6

    def test_zero_weight_annihilates(self):
        loss, grad = weighted_cross_entropy(np.array([0.2, 0.8]), 0, 0.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros(2))

    def test_grad_is_fused_softmax_form(self):
        probs = np.array([0.1, 0.6, 0.3])
        _, grad = weighted_cross_entropy(probs, 1, 2.0)
        np.testing.assert_allclose(grad, 2.0 * (probs - np.array([0, 1, 0])), atol=1e-15)

    def test_weight_linearity(self):
        rng = make_rng(3)
        e = np.exp(rng.standard_normal(5))
        probs = e / e.sum()
        for w1, w2 in [(0.3, 0.7), (1.5, 2.5), (0.0, 1.0)]:
            l1, _ = weighted_cross_entropy(probs, 2, w1)
            l2, _ = weighted_cross_entropy(probs, 2, w2)
            l12, _ = weighted_cross_entropy(probs, 2, w1 + w2)
            assert abs(l12 - (l1 + l2)) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            weighted_cross_entropy(np.array([1.0]), 3, 1.0)


class TestLstmCell:
    def test_zero_everything(self):
        w = zero_weights(3, 2)
        h, c, _ = lstm_cell(np.zeros(3), np.zeros(2), np.zeros(2), w)
        np.testing.assert_array_equal(h, np.zeros(2))
        np.testing.assert_array_equal(c, np.zeros(2))

    def test_zero_weights_carry_half_cell(self):
        # sigmoid(0)=0.5 and tanh(0)=0 give c = 0.5*c_prev, h = 0.5*tanh(0.5*c_prev)
        w = zero_weights(3, 4)
        c_prev = np.array([1.0, -2.0, 0.5, 3.0])
        h, c, _ = lstm_cell(np.zeros(3), np.zeros(4), c_prev, w)
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_gate_order(self):
        # row blocks are input, forget, output, candidate: i~0, f~1, o~0
        # keep the cell and close the output whatever the candidate is
        w = zero_weights(3, 4)
        w.b[:] = np.concatenate([np.full(4, -50.0), np.full(4, 50.0),
                                 np.full(4, -50.0), np.full(4, 0.7)])
        c_prev = np.array([1.0, -2.0, 0.5, 3.0])
        h, c, _ = lstm_cell(np.ones(3), np.ones(4), c_prev, w)
        np.testing.assert_allclose(c, c_prev, atol=1e-12)
        np.testing.assert_allclose(h, np.zeros(4), atol=1e-12)

    def test_dimension_mismatch(self):
        w = zero_weights(3, 2)
        with pytest.raises(ValueError, match="lstm_cell"):
            lstm_cell(np.zeros(4), np.zeros(2), np.zeros(2), w)

    def test_forget_bias_init(self):
        w = LstmWeights.init(3, 5, make_rng(0))
        assert w.W.shape == (20, 8) and w.b.shape == (20,)
        np.testing.assert_array_equal(w.b[5:10], np.ones(5))
        assert (np.abs(w.W) <= 0.08).all()

    def test_init_matches_per_gate_draws(self):
        # one stacked draw equals eight per-gate draws in gate order, so
        # seeds give the same networks as the per-gate layout did
        rng = make_rng(7)
        per_gate = [uniform_init((3, 8), rng) for _ in range(4)]
        per_gate += [uniform_init(3, rng) for _ in range(4)]
        per_gate[5] = np.ones(3)
        w = LstmWeights.init(5, 3, make_rng(7))
        for got, want in zip(w.gate_arrays("w").values(), per_gate):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("hidden", [4, 8])
    def test_backward_matches_finite_differences(self, hidden):
        rng = make_rng(41 + hidden)
        n_in = 5
        w = LstmWeights.init(n_in, hidden, rng, scale=0.5)
        base = {
            "x": rng.standard_normal(n_in),
            "h_prev": rng.standard_normal(hidden),
            "c_prev": rng.standard_normal(hidden),
            **{k: v.copy() for k, v in w.to_dict("w").items()},
        }
        proj_h = rng.standard_normal(hidden)
        proj_c = rng.standard_normal(hidden)

        def loss_and_grad(p):
            weights = LstmWeights.from_dict(p, "w")
            h, c, cache = lstm_cell(p["x"], p["h_prev"], p["c_prev"], weights)
            loss = float(proj_h @ h + proj_c @ c)
            dx, dh_prev, dc_prev, dw = lstm_cell_backward(proj_h, proj_c, cache, weights)
            grads = {"x": dx, "h_prev": dh_prev, "c_prev": dc_prev}
            grads.update({f"w.{k}": v for k, v in dw.items()})
            return loss, grads

        assert grad_check_fd(loss_and_grad, base, eps=1e-5) < 1e-6


class TestAdam:
    def test_zero_grad_keeps_params(self):
        params = {"w": np.array([1.0, 2.0])}
        state = AdamState.init(params, lr=0.1)
        new, state2 = adam_step(params, {"w": np.zeros(2)}, state)
        np.testing.assert_array_equal(new["w"], params["w"])
        assert state2.t == 1

    def test_first_step_is_minus_lr_times_sign(self):
        # hand recurrence: m-hat = g, v-hat = g^2, step = -lr*g/(|g|+eps)
        for g in (0.5, 3.0, -0.25):
            params = {"w": np.array([1.0])}
            state = AdamState.init(params, lr=1e-3)
            new, _ = adam_step(params, {"w": np.array([g])}, state)
            update = float(new["w"][0] - 1.0)
            assert abs(update + 1e-3 * math.copysign(1.0, g)) < 1e-8

    def test_deterministic(self):
        rng = make_rng(7)
        params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
        grads = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
        s0 = AdamState.init(params)
        out1, s1 = adam_step(params, grads, s0)
        out2, s2 = adam_step(params, grads, s0)
        for k in params:
            assert (out1[k] == out2[k]).all()
            assert (s1.m[k] == s2.m[k]).all()

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(2)}
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(params, {"w": np.zeros(3)}, AdamState.init(params))

    def test_inputs_not_mutated(self):
        params = {"w": np.ones(2)}
        grads = {"w": np.ones(2)}
        state = AdamState.init(params)
        adam_step(params, grads, state)
        np.testing.assert_array_equal(params["w"], np.ones(2))
        np.testing.assert_array_equal(state.m["w"], np.zeros(2))


class TestClipGlobalNorm:
    def test_scales_when_over(self):
        grads = {"a": np.array([6.0]), "b": np.array([8.0])}  # norm 10
        clipped = clip_global_norm(grads, 5.0)
        np.testing.assert_allclose(clipped["a"], [3.0], rtol=1e-15)
        np.testing.assert_allclose(clipped["b"], [4.0], rtol=1e-15)

    def test_untouched_when_under(self):
        grads = {"a": np.array([3.0])}
        np.testing.assert_array_equal(clip_global_norm(grads, 5.0)["a"], [3.0])

    def test_zero_grads_unchanged(self):
        grads = {"a": np.zeros(4)}
        np.testing.assert_array_equal(clip_global_norm(grads, 5.0)["a"], np.zeros(4))

    def test_global_norm_value(self):
        assert abs(global_norm({"a": np.array([3.0, 4.0])}) - 5.0) < 1e-15


class TestGradCheckFd:
    def test_quadratic_is_exact(self):
        def f(w):
            return float(w**2), 2.0 * w

        assert grad_check_fd(f, np.array(3.0), eps=1e-4) < 1e-8

    def test_detects_corrupted_gradient(self):
        def f(w):
            return float(w**2), 2.0 * (2.0 * w)  # doubled gradient

        err = grad_check_fd(f, np.array(3.0), eps=1e-4)
        assert abs(err - 0.5) < 1e-6

    def test_rejects_non_finite_loss(self):
        with pytest.raises(ValueError, match="non-finite"):
            grad_check_fd(lambda w: (float("nan"), w), np.array(1.0), eps=1e-4)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            grad_check_fd(lambda w: (0.0, w), np.array(1.0), eps=0.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).uniform(-1, 1, 10)
        b = make_rng(99).uniform(-1, 1, 10)
        assert (a == b).all()
