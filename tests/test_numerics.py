"""Numerics building blocks against independent oracles."""

import math
import warnings

import numpy as np
import pytest

from text2triple.numerics import (
    ADAM_BLOCK,
    Adam,
    LstmWeights,
    adam_step,
    clip_global_norm,
    grad_check_fd,
    lstm_cell,
    lstm_sequence,
    lstm_sequence_backward,
    make_rng,
    uniform_init,
)


def zero_weights(n_in, hidden):
    return LstmWeights(np.zeros((4 * hidden, n_in + hidden)), np.zeros(4 * hidden))


class TestLstmCell:
    def test_zero_everything(self):
        w = zero_weights(3, 2)
        h, c = lstm_cell(np.zeros((1, 3)), np.zeros((1, 2)), np.zeros((1, 2)), w)
        np.testing.assert_array_equal(h, np.zeros((1, 2)))
        np.testing.assert_array_equal(c, np.zeros((1, 2)))

    def test_zero_weights_carry_half_cell(self):
        # sigmoid(0)=0.5 and tanh(0)=0 give c = 0.5*c_prev, h = 0.5*tanh(0.5*c_prev)
        w = zero_weights(3, 4)
        c_prev = np.array([[1.0, -2.0, 0.5, 3.0]])
        h, c = lstm_cell(np.zeros((1, 3)), np.zeros((1, 4)), c_prev, w)
        np.testing.assert_allclose(c, 0.5 * c_prev, atol=1e-15)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * c_prev), atol=1e-15)

    def test_gate_order(self):
        # row blocks are input, forget, output, candidate: i~0, f~1, o~0
        # keep the cell and close the output whatever the candidate is
        w = zero_weights(3, 4)
        w.b[:] = np.concatenate([np.full(4, -50.0), np.full(4, 50.0),
                                 np.full(4, -50.0), np.full(4, 0.7)])
        c_prev = np.array([[1.0, -2.0, 0.5, 3.0]])
        h, c = lstm_cell(np.ones((1, 3)), np.ones((1, 4)), c_prev, w)
        np.testing.assert_allclose(c, c_prev, atol=1e-12)
        np.testing.assert_allclose(h, np.zeros((1, 4)), atol=1e-12)

    def test_activations_match_scalar_oracles(self):
        # each pre-activation x reaches all four gates of its own batch row;
        # the scan's cache holds the activated gates
        rng = make_rng(14)
        x = np.concatenate([
            [-np.inf, np.inf, 0.0, -0.0],
            np.linspace(-1e3, 1e3, 2001),
            np.linspace(-40.0, 40.0, 1601),
            np.geomspace(1e-300, 1e3, 400),
            -np.geomspace(1e-300, 1e3, 400),
            rng.standard_normal(2000) * 5.0,
        ])
        w = LstmWeights(np.array([[1.0, 0.0]] * 4), np.zeros(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gates = lstm_sequence(x[None, None, :, None], (w,))[1].gates[0, :, 0, :, 0]

        def logistic(v):
            if v < 0:  # math.exp(-v) overflows below -709
                e = math.exp(v)
                return e / (1.0 + e)
            return 1.0 / (1.0 + math.exp(-v))

        oracle = np.array([logistic(v) for v in x])
        for k in range(3):
            np.testing.assert_allclose(gates[k], oracle, rtol=0, atol=2.3e-16)
        np.testing.assert_array_equal(gates[3], np.tanh(x))
        assert ((gates[:3] >= 0.0) & (gates[:3] <= 1.0)).all()

    def test_dimension_mismatch(self):
        w = zero_weights(3, 2)
        with pytest.raises(ValueError, match="lstm_cell"):
            lstm_cell(np.zeros((1, 4)), np.zeros((1, 2)), np.zeros((1, 2)), w)
        with pytest.raises(ValueError, match="lstm_cell"):  # batches only
            lstm_cell(np.zeros(3), np.zeros(2), np.zeros(2), w)
        with pytest.raises(ValueError, match="lstm_cell"):
            lstm_cell(np.zeros((2, 3)), np.zeros((1, 2)), np.zeros((1, 2)), w)

    def test_forget_bias_init(self):
        w = LstmWeights.init(3, 5, make_rng(0))
        assert w.W.shape == (20, 8) and w.b.shape == (20,)
        np.testing.assert_array_equal(w.b[5:10], np.ones(5))
        assert (np.abs(w.W) <= 0.08).all()

    @pytest.mark.parametrize("W_shape, b_shape", [
        ((20, 8), (19,)),      # b is not four gates
        ((16, 8), (20,)),      # W rows disagree with b
        ((20, 5), (20,)),      # no input columns
        ((20,), (20,)),        # W is not a matrix
        ((20, 8), (4, 5)),     # b is not a vector
        ((0, 3), (0,)),        # no hidden units
    ])
    def test_rejects_shapes_that_do_not_stack_four_gates(self, W_shape, b_shape):
        with pytest.raises(ValueError, match="do not stack four gates"):
            LstmWeights(np.zeros(W_shape), np.zeros(b_shape))

    def test_dimensions_are_read_off_the_shapes(self):
        w = zero_weights(3, 5)
        assert (w.input_dim, w.hidden_dim) == (3, 5)

    def test_init_matches_per_gate_draws(self):
        # one stacked draw equals eight per-gate draws in gate order, so
        # seeds give the same networks as the per-gate layout did
        rng = make_rng(7)
        per_gate = [uniform_init((3, 8), rng) for _ in range(4)]
        per_gate += [uniform_init(3, rng) for _ in range(4)]
        per_gate[5] = np.ones(3)
        w = LstmWeights.init(5, 3, make_rng(7))
        for got, want in zip(np.split(w.W, 4) + np.split(w.b, 4), per_gate):
            np.testing.assert_array_equal(got, want)


class TestBatchedLstm:
    def test_sequence_equals_cell_loop_and_freezes_past_length(self):
        rng = make_rng(12)
        ws = (LstmWeights.init(3, 4, rng, scale=0.5), LstmWeights.init(3, 4, rng, scale=0.5))
        lengths = np.array([5, 2, 4])
        X = rng.standard_normal((5, 2, 3, 3))
        h0 = rng.standard_normal((2, 3, 4))
        hs, _ = lstm_sequence(X, ws, h0=h0, lengths=lengths)
        for g in range(2):
            for b, n in enumerate(lengths):
                h, c = h0[g, b][None], np.zeros((1, 4))
                for t in range(5):
                    if t < n:
                        h, c = lstm_cell(X[t, g, b][None], h, c, ws[g])
                    np.testing.assert_allclose(hs[t, g, b], h[0], rtol=0, atol=1e-14)

    def test_sequence_backward_matches_finite_differences(self):
        rng = make_rng(13)
        ws = (LstmWeights.init(3, 4, rng, scale=0.5), LstmWeights.init(3, 4, rng, scale=0.5))
        lengths = np.array([4, 1, 3])
        proj = rng.standard_normal((4, 2, 3, 4))
        base = {"X": rng.standard_normal((4, 2, 3, 3)), "h0": rng.standard_normal((2, 3, 4)),
                "a.W": ws[0].W, "a.b": ws[0].b, "b.W": ws[1].W, "b.b": ws[1].b}

        def loss_and_grads(p):
            pair = (LstmWeights(p["a.W"], p["a.b"]), LstmWeights(p["b.W"], p["b.b"]))
            hs, cache = lstm_sequence(p["X"], pair, h0=p["h0"], lengths=lengths)
            da, db = (LstmWeights(np.full_like(w.W, np.nan), np.full_like(w.b, np.nan))
                      for w in pair)  # every entry must be written
            dX, dh0 = lstm_sequence_backward(proj, cache, pair, (da, db))
            grads = {"X": dX, "h0": dh0, "a.W": da.W, "a.b": da.b, "b.W": db.W, "b.b": db.b}
            return float((proj * hs).sum()), grads

        for name in base:  # one array at a time, the others held at base
            def loss_and_grad(a, name=name):
                loss, grads = loss_and_grads({**base, name: a})
                return loss, grads[name]

            assert grad_check_fd(loss_and_grad, base[name], eps=1e-5) < 1e-6, name
        # padded steps take no gradient at all
        _, grads = loss_and_grads(base)
        for b, n in enumerate(lengths):
            assert (grads["X"][n:, :, b] == 0.0).all()


class TestAdam:
    def test_zero_grad_keeps_params(self):
        params = np.array([1.0, 2.0])
        state = Adam(2, lr=0.1)
        adam_step(params, np.zeros(2), state)
        np.testing.assert_array_equal(params, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_is_minus_lr_times_sign(self):
        # hand recurrence: m-hat = g, v-hat = g^2, step = -lr*g/(|g|+eps)
        for g in (0.5, 3.0, -0.25):
            params = np.array([1.0])
            adam_step(params, np.array([g]), Adam(1, lr=1e-3))
            update = float(params[0] - 1.0)
            assert abs(update + 1e-3 * math.copysign(1.0, g)) < 1e-8

    def test_in_place_update_equals_the_expressions_bit_for_bit(self):
        # One element, less than a block, one block, a block and one, and
        # three blocks with a ragged fourth; several steps each.
        b1, b2 = 0.8, 0.99
        for n in (1, 1000, ADAM_BLOCK, ADAM_BLOCK + 1, 3 * ADAM_BLOCK + 17):
            rng = make_rng(7)
            state = Adam(n, lr=3e-3, beta1=b1, beta2=b2, eps=1e-7)
            assert state.scratch.shape == (2, min(n, ADAM_BLOCK))
            state.t = 4
            state.m[:] = rng.standard_normal(n)
            state.v[:] = rng.random(n)
            p = rng.standard_normal(n)
            m, v, want = state.m.copy(), state.v.copy(), p.copy()
            for t in (5, 6, 7):
                g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
                g0 = g.copy()
                c1, c2 = 1.0 - b1**t, 1.0 - b2**t
                step, eps_hat = 3e-3 * math.sqrt(c2) / c1, 1e-7 * math.sqrt(c2)
                m = b1 * m + (1.0 - b1) * g0
                v = b2 * v + (1.0 - b2) * (g0 * g0)
                want = want - step * m / (np.sqrt(v) + eps_hat)
                adam_step(p, g, state)
                assert state.t == t
                np.testing.assert_array_equal(g, g0)
                assert p.tobytes() == want.tobytes(), (n, t)
                assert state.m.tobytes() == m.tobytes(), (n, t)
                assert state.v.tobytes() == v.tobytes(), (n, t)

    def test_follows_the_textbook_form_over_many_steps(self):
        # Folding the bias corrections into step and eps_hat changes only the
        # rounding: over 200 steps of gradients from 1e-8 (where eps matters)
        # to 1e2, the parameters (|p| < 8) stay within a few ulps of
        # p - lr*(m/c1) / (sqrt(v/c2) + eps). A wrong correction moves them by
        # about lr.
        n, lr, b1, b2, eps = ADAM_BLOCK + 1000, 1e-3, 0.9, 0.999, 1e-8
        rng = make_rng(11)
        p = rng.standard_normal(n)
        state = Adam(n, lr=lr, beta1=b1, beta2=b2, eps=eps)
        want, m, v = p.copy(), np.zeros(n), np.zeros(n)
        for t in range(1, 201):
            g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, n)
            adam_step(p, g, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            want = want - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
        assert np.abs(p - want).max() < 1e-14

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(np.zeros(2), np.zeros(3), Adam(2))
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(np.zeros(3), np.zeros(3), Adam(2))


class TestClipGlobalNorm:
    def test_scales_when_over(self):
        vec = np.array([6.0, 8.0])  # norm 10
        view = vec[1:]
        assert clip_global_norm(vec, 5.0) == 10.0
        np.testing.assert_allclose(vec, [3.0, 4.0], rtol=1e-15)
        np.testing.assert_allclose(view, [4.0], rtol=1e-15)

    def test_untouched_when_under(self):
        vec = np.array([3.0, 0.0])
        assert clip_global_norm(vec, 5.0) == 3.0
        np.testing.assert_array_equal(vec, [3.0, 0.0])

    def test_zero_grads_unchanged(self):
        vec = np.zeros(4)
        assert clip_global_norm(vec, 5.0) == 0.0
        np.testing.assert_array_equal(vec, np.zeros(4))

    def test_bad_max_norm_rejected(self):
        with pytest.raises(ValueError, match="max_norm"):
            clip_global_norm(np.ones(2), 0.0)


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

    def test_rejects_non_finite_gradient(self):
        # a NaN would otherwise vanish from the maximum, since max(0.0, nan) is 0.0
        with pytest.raises(ValueError, match="gradient contains non-finite values"):
            grad_check_fd(lambda w: (0.0, np.array([0.0, np.nan])), np.zeros(2), eps=1e-4)

    def test_rejects_gradient_of_another_shape(self):
        with pytest.raises(ValueError, match="gradient of shape"):
            grad_check_fd(lambda w: (0.0, np.zeros(3)), np.zeros((3, 1)), eps=1e-4)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            grad_check_fd(lambda w: (0.0, w), np.array(1.0), eps=0.0)


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(99).uniform(-1, 1, 10)
        b = make_rng(99).uniform(-1, 1, 10)
        assert (a == b).all()
