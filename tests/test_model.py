"""Encoder/decoder forward-backward, inference and checkpoints."""

import hashlib
import logging
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import nan_gradient_on_call, rewrite_checkpoint_header

from text2triple import model
from text2triple.corpus import AnnotatedExample, Dataset, Triple
from text2triple.model import (
    CheckpointError,
    DecodeResult,
    ModelConfig,
    ModelParams,
    decode_step,
    encode,
    forward_loss,
    init_decoder_state,
    load_checkpoint,
    save_checkpoint,
    train,
    translate_beam,
    translate_greedy,
)
from text2triple.embeddings import TransEConfig, decoder_init_table, transe_train
from text2triple.numerics import grad_check_fd, make_rng, uniform_init
from text2triple.synthetic import make_hard_world
from text2triple.vocab import BOS_ID, TripleVocab, build_kg_vocab, build_word_vocab

TINY = ModelConfig(
    word_dim=8, kg_dim=8, enc_hidden=8, dec_hidden=16,
    use_attention=True, max_src_len=16, seed=0,
)


def tiny_vocabs(n_words=20, n_entities=6, n_predicates=3):
    words = tuple(f"w{i}" for i in range(n_words - 3))
    word_vocab = build_word_vocab([list(words)])
    tvocab = TripleVocab(
        tuple(f"ent:{i}" for i in range(n_entities)),
        tuple(f"rel:{i}" for i in range(n_predicates)),
    )
    return word_vocab, tvocab


def tiny_params(config=TINY, seed=0, n_words=20, n_targets=10):
    return ModelParams.init(config, n_words, n_targets, make_rng(seed))


def random_example(rng, word_vocab, tvocab, length=5):
    tokens = tuple(
        word_vocab.tokens[int(rng.integers(3, len(word_vocab)))]
        for _ in range(length)
    )
    gold = Triple(
        tvocab.entities[int(rng.integers(len(tvocab.entities)))],
        tvocab.predicates[int(rng.integers(len(tvocab.predicates)))],
        tvocab.entities[int(rng.integers(len(tvocab.entities)))],
    )
    return AnnotatedExample(tokens, gold, f"rand:{int(rng.integers(1 << 30))}")


class TestModelConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("batch_size", 0, "batch_size must be >= 1"),
        ("epochs", -3, "epochs must be >= 1"),
        ("epochs", 0, "epochs must be >= 1"),
        ("patience", 0, "patience must be >= 1"),
        ("lr", -1.0, "lr must be positive"),
        ("lr", 0.0, "lr must be positive"),
        ("clip_norm", -1.0, "clip_norm must be positive"),
        ("adam_eps", 0.0, "adam_eps must be positive"),
        ("beta1", 1.0, r"beta1 must be in \[0, 1\)"),
        ("beta1", -0.1, r"beta1 must be in \[0, 1\)"),
        ("beta2", 1.5, r"beta2 must be in \[0, 1\)"),
        ("lr", float("nan"), "lr must be positive"),
        ("lr", float("inf"), "lr must be positive and finite"),
        ("adam_eps", float("inf"), "adam_eps must be positive and finite"),
        ("seed", -1, "seed must be >= 0"),
        ("step_weights", (-1.0, 1.0, 1.0), "step_weights must be finite and >= 0"),
        ("step_weights", (0.0, 0.0, 0.0), "with at least one > 0"),
        ("step_weights", (float("nan"), 1.0, 1.0), "step_weights must be finite"),
        ("step_weights", (1.0, float("inf"), 1.0), "step_weights must be finite"),
        ("use_attention", "no", "use_attention must be a bool, got 'no'"),
        ("use_kg_init", 1, "use_kg_init must be a bool, got 1"),
        ("lr", True, "lr must be a real number, got True"),
        ("clip_norm", "5", "clip_norm must be a real number, got '5'"),
    ])
    def test_nonsense_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig(**{field: value})

    def test_edges_accepted(self):
        config = ModelConfig(batch_size=1, epochs=1, patience=1, beta1=0.0, beta2=0.0)
        assert config.batch_size == 1

    @pytest.mark.parametrize("field, value", [
        ("enc_hidden", 4.0),
        ("word_dim", "8"),
        ("max_src_len", None),
        ("batch_size", True),
        ("seed", 1.5),
    ])
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer, got {value!r}"):
            ModelConfig(**{field: value})

    def test_numpy_integers_become_ints(self):
        config = ModelConfig(word_dim=np.int64(8), seed=np.int32(3))
        assert type(config.word_dim) is int and type(config.seed) is int
        assert config == ModelConfig(word_dim=8, seed=3)


class TestParamLayout:
    @pytest.mark.parametrize("attention", [True, False])
    def test_init_and_flat_dict_follow_the_layout(self, attention):
        config = ModelConfig(word_dim=8, kg_dim=6, enc_hidden=5, dec_hidden=7,
                             use_attention=attention)
        params = ModelParams.init(config, 20, 10, make_rng(0))
        flat = params.to_dict()
        assert [(k, v.shape) for k, v in flat.items()] == model._param_layout(config, 20, 10)
        assert ("attn_w" in flat) is attention
        assert (params.attn_w is None) is not attention
        # the named arrays are views that tile the one vector, in layout order
        assert all(np.shares_memory(v, params.vec) for v in flat.values())
        np.testing.assert_array_equal(np.concatenate([v.ravel() for v in flat.values()]),
                                      params.vec)

    @pytest.mark.parametrize("size_delta, dtype", [(-1, np.float64), (1, np.float64),
                                                   (0, np.float32)])
    def test_vector_that_does_not_fit_the_layout_rejected(self, size_delta, dtype):
        layout = model._param_layout(TINY, 20, 10)
        n = sum(math.prod(shape) for _, shape in layout)
        with pytest.raises(ValueError, match=rf"dtype {np.dtype(dtype)} and shape "
                                             rf"\({n + size_delta},\), expected float64 "
                                             rf"and \({n},\) for this layout"):
            ModelParams.view(np.zeros(n + size_delta, dtype=dtype), layout)

    @pytest.mark.parametrize("which", ["word", "kg"])
    def test_init_table_of_the_wrong_shape_rejected(self, which):
        table = np.zeros((20 if which == "word" else 10, 7))
        with pytest.raises(ValueError, match=rf"^{which} init table shape \(\d+, 7\), "
                                             rf"expected \(\d+, 8\)$"):
            ModelParams.init(TINY, 20, 10, make_rng(0), **{f"{which}_init": table})

    def test_copy_owns_its_vector(self):
        params = tiny_params()
        copy = params.copy()
        copy.out_b[0] += 1.0
        assert not np.shares_memory(copy.vec, params.vec)
        assert copy.vec[-10] == params.vec[-10] + 1.0


class TestEncode:
    def test_shape_contract(self):
        params = tiny_params()
        for T in (1, 3, 7):
            enc = encode(list(range(T)), params, TINY)
            assert enc.H.shape == (1, T, 2 * TINY.enc_hidden)
            assert enc.final.shape == (1, 2 * TINY.enc_hidden)
            assert enc.pad is None

    def test_zero_params_give_zero_states(self):
        params = tiny_params()
        zero = params.like(np.zeros(params.vec.size))
        enc = encode([1, 2, 3], zero, TINY)
        np.testing.assert_array_equal(enc.H, np.zeros_like(enc.H))

    def test_reversal_swaps_directional_roles(self):
        # Swapping the fwd/bwd weight blocks and reversing the input mirrors
        # H: encode(rev x, swapped).H[t] == swap_halves(encode(x).H[T-1-t]).
        params = tiny_params(seed=3)
        params_swapped = params.copy()
        for a, b in (("enc_fwd", "enc_bwd"), ("enc_bwd", "enc_fwd")):
            getattr(params_swapped, a).W[...] = getattr(params, b).W
            getattr(params_swapped, a).b[...] = getattr(params, b).b
        src = [4, 9, 2]
        h = TINY.enc_hidden
        enc = encode(src, params, TINY)
        H, final = enc.H[0], enc.final[0]
        enc_rev = encode(src[::-1], params_swapped, TINY)
        T = len(src)
        for t in range(T):
            mirrored = np.concatenate([H[T - 1 - t, h:], H[T - 1 - t, :h]])
            np.testing.assert_allclose(enc_rev.H[0, t], mirrored, atol=1e-12)
        np.testing.assert_allclose(
            enc_rev.final[0], np.concatenate([final[h:], final[:h]]), atol=1e-12
        )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            encode([], tiny_params(), TINY)

    def test_long_input_truncated(self):
        params = tiny_params()
        enc = encode(list(range(3)) * 10, params, TINY)  # 30 > max_src_len 16
        assert enc.H.shape[1] == TINY.max_src_len


class TestAttend:
    """model._attention, the attention every decoder path runs."""

    @staticmethod
    def attend(dec_hidden, enc):
        alpha, ctx = model._attention(dec_hidden[None, None], enc)
        return ctx[0, 0], alpha[0, 0]

    def test_singleton_weight_one(self):
        params = tiny_params()
        enc = encode([5], params, TINY)
        ctx, weights = self.attend(make_rng(0).standard_normal(16), enc)
        np.testing.assert_allclose(weights, [1.0], atol=1e-15)
        np.testing.assert_allclose(ctx, enc.H[0, 0], atol=1e-15)

    def test_identical_rows_uniform(self):
        params = tiny_params()
        enc = encode([5], params, TINY)
        row = enc.H[0, 0]
        enc.H = np.stack([row, row, row])[None]
        enc.AH = enc.H @ params.attn_w.T
        ctx, weights = self.attend(make_rng(1).standard_normal(16), enc)
        np.testing.assert_allclose(weights, np.full(3, 1 / 3), atol=1e-12)
        np.testing.assert_allclose(ctx, row, atol=1e-12)

    def test_matches_scalar_recomputation(self):
        rng = make_rng(7)
        params = tiny_params(seed=7)
        enc = encode([1, 2, 3], params, TINY)
        dec_hidden = rng.standard_normal(16)
        ctx, weights = self.attend(dec_hidden, enc)
        # scalar oracle
        H = enc.H[0]
        scores = [float(dec_hidden @ (params.attn_w @ H[t])) for t in range(3)]
        exps = [math.exp(s - max(scores)) for s in scores]
        w_oracle = [e / sum(exps) for e in exps]
        ctx_oracle = sum(w * H[t] for t, w in enumerate(w_oracle))
        np.testing.assert_allclose(weights, w_oracle, atol=1e-12)
        np.testing.assert_allclose(ctx, ctx_oracle, atol=1e-12)
        assert abs(weights.sum() - 1.0) < 1e-12


class TestDecodeStep:
    def setup_method(self):
        self.word_vocab, self.tvocab = tiny_vocabs()
        self.params = tiny_params()
        self.enc = encode([3, 4, 5], self.params, TINY)
        self.state = init_decoder_state(self.enc, self.params)

    def test_out_of_mask_mass_exactly_zero(self):
        for step in (1, 2, 3):
            logp, _, _ = decode_step(
                step, BOS_ID, self.state, self.enc, self.params, TINY, self.tvocab
            )
            mask = self.tvocab.step_mask(step)
            assert (np.exp(logp[~mask]) == 0.0).all()

    def test_zero_params_uniform_over_mask(self):
        zero = self.params.like(np.zeros(self.params.vec.size))
        enc = encode([1, 2], zero, TINY)
        state = init_decoder_state(enc, zero)
        for step, size in ((1, 6), (2, 3), (3, 6)):
            logp, _, _ = decode_step(step, BOS_ID, state, enc, zero, TINY, self.tvocab)
            mask = self.tvocab.step_mask(step)
            np.testing.assert_allclose(np.exp(logp[mask]), np.full(size, 1 / size),
                                       atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = make_rng(17)
        for trial in range(10):
            params = tiny_params(seed=trial)
            enc = encode([int(rng.integers(20)) for _ in range(4)], params, TINY)
            state = init_decoder_state(enc, params)
            for step in (1, 2, 3):
                logp, state, _ = decode_step(
                    step, BOS_ID, state, enc, params, TINY, self.tvocab
                )
                mask = self.tvocab.step_mask(step)
                assert abs(np.exp(logp[mask]).sum() - 1.0) < 1e-9

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            decode_step(4, BOS_ID, self.state, self.enc, self.params, TINY, self.tvocab)


def _step1_logprobs(path, params, word_vocab, tvocab):
    """Step-1 log-probabilities as each decoding path computes them."""
    tokens = ("w1", "w4", "w2")
    if path == "decode_step":
        enc = encode([word_vocab.id_of(t) for t in tokens], params, TINY)
        return decode_step(1, BOS_ID, init_decoder_state(enc, params), enc, params, TINY,
                           tvocab)[0]
    if path == "greedy":
        return translate_greedy(tokens, params, word_vocab, tvocab, TINY).step_logprobs[0]
    if path == "beam":
        beam = translate_beam(tokens, params, word_vocab, tvocab, TINY, 4)
        return [r.step_logprobs[0] for r in beam]
    step1_only = ModelConfig(**{**vars(TINY), "step_weights": (1.0, 0.0, 0.0)})
    ex = AnnotatedExample(tokens, Triple("ent:2", "rel:0", "ent:1"), "t")
    return forward_loss(ex, params, step1_only, word_vocab, tvocab)[0]


class TestStartSymbol:
    @pytest.mark.parametrize("path", ["decode_step", "greedy", "beam", "loss"])
    def test_step1_reads_the_bos_target_row(self, path):
        # the BOS target is row 0 of dec_embed; row 2 is the second entity
        # (and the word vocab's BOS id)
        word_vocab, tvocab = tiny_vocabs()
        params = tiny_params(seed=4)
        base = _step1_logprobs(path, params, word_vocab, tvocab)
        for row, changes in ((tvocab.bos_id, True), (2, False)):
            bumped = params.copy()
            bumped.dec_embed[row] += 0.5
            got = _step1_logprobs(path, bumped, word_vocab, tvocab)
            assert (not np.array_equal(got, base)) == changes, row


class TestForwardLoss:
    def setup_method(self):
        self.word_vocab, self.tvocab = tiny_vocabs()

    def test_uniform_model_loss_value(self):
        # all-zero params mean uniform within each mask: loss = 2 ln E + ln P
        params = tiny_params()
        zero = params.like(np.zeros(params.vec.size))
        ex = AnnotatedExample(("w0", "w1"), Triple("ent:0", "rel:1", "ent:3"), "t")
        loss, _ = forward_loss(ex, zero, TINY, self.word_vocab, self.tvocab)
        assert abs(loss - (2 * math.log(6) + math.log(3))) < 1e-9

    def test_eq1_consistency_loss_equals_stepwise_logprobs(self):
        # forward_loss must equal minus the sum of the three decode_step gold
        # log-probs under teacher forcing
        rng = make_rng(23)
        for trial in range(100):
            params = tiny_params(seed=trial)
            ex = random_example(rng, self.word_vocab, self.tvocab)
            loss, _ = forward_loss(ex, params, TINY, self.word_vocab, self.tvocab)
            from text2triple.vocab import encode_sentence
            enc = encode(encode_sentence(ex.tokens, self.word_vocab), params, TINY)
            state = init_decoder_state(enc, params)
            gold = self.tvocab.encode_triple(*ex.gold)
            prev = BOS_ID
            total = 0.0
            for step in (1, 2, 3):
                logp, state, _ = decode_step(step, prev, state, enc, params, TINY,
                                             self.tvocab)
                total += float(logp[gold[step - 1]])
                prev = gold[step - 1]
            assert abs(loss - (-total)) < 1e-9

    def test_step_weights_scale_per_slot_terms(self):
        params = tiny_params()
        ex = AnnotatedExample(("w0", "w1"), Triple("ent:0", "rel:1", "ent:3"), "t")
        full, _ = forward_loss(ex, params, TINY, self.word_vocab, self.tvocab)
        cfgs = [
            ModelConfig(**{**vars(TINY), "step_weights": (1.0, 0.0, 0.0)}),
            ModelConfig(**{**vars(TINY), "step_weights": (0.0, 1.0, 0.0)}),
            ModelConfig(**{**vars(TINY), "step_weights": (0.0, 0.0, 1.0)}),
        ]
        parts = [forward_loss(ex, params, c, self.word_vocab, self.tvocab)[0]
                 for c in cfgs]
        assert abs(full - sum(parts)) < 1e-9

    def test_gold_outside_vocab_rejected(self):
        params = tiny_params()
        ex = AnnotatedExample(("w0",), Triple("nope", "rel:0", "ent:0"), "t")
        with pytest.raises(ValueError, match="vocabulary"):
            forward_loss(ex, params, TINY, self.word_vocab, self.tvocab)

    @pytest.mark.parametrize("attention", [True, False])
    def test_full_model_gradients_match_finite_differences(self, attention):
        config = ModelConfig(
            word_dim=4, kg_dim=4, enc_hidden=4, dec_hidden=6,
            use_attention=attention, max_src_len=8, seed=0,
        )
        word_vocab, tvocab = tiny_vocabs(n_words=8, n_entities=3, n_predicates=2)
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(5))
        ex = AnnotatedExample(
            ("w0", "w2", "w4"), Triple("ent:1", "rel:0", "ent:2"), "t"
        )

        def loss_and_grad(vec):
            loss, grads = forward_loss(ex, params.like(vec), config, word_vocab, tvocab)
            return loss, np.concatenate([g.ravel() for g in grads.values()])

        # eps=1e-4 keeps central-difference cancellation noise well under the
        # 1e-3 bound; tighter eps drowns tiny gradient components in noise.
        err = grad_check_fd(loss_and_grad, params.vec, eps=1e-4)
        assert err < 1e-3

    def test_repeated_tokens_accumulate_embedding_grads(self):
        # duplicate source ids must not lose gradient mass (np.add.at path)
        word_vocab, tvocab = tiny_vocabs(n_words=6, n_entities=3, n_predicates=2)
        config = ModelConfig(word_dim=4, kg_dim=4, enc_hidden=4, dec_hidden=6,
                             use_attention=True, seed=0)
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(1))
        ex = AnnotatedExample(("w0", "w0", "w0"), Triple("ent:0", "rel:1", "ent:1"), "t")

        def loss_and_grad(vec):
            loss, grads = forward_loss(ex, params.like(vec), config, word_vocab, tvocab)
            return loss, np.concatenate([g.ravel() for g in grads.values()])

        assert grad_check_fd(loss_and_grad, params.vec, eps=1e-4) < 1e-3


class TestInference:
    def setup_method(self):
        self.word_vocab, self.tvocab = tiny_vocabs()
        self.params = tiny_params(seed=2)

    def test_greedy_respects_masks(self):
        result = translate_greedy(("w0", "w3"), self.params, self.word_vocab,
                                  self.tvocab, TINY)
        assert self.tvocab.is_entity_id(result.ids[0])
        assert self.tvocab.is_predicate_id(result.ids[1])
        assert self.tvocab.is_entity_id(result.ids[2])

    def test_masking_safety_many_random_models(self):
        rng = make_rng(99)
        for trial in range(50):
            params = tiny_params(seed=1000 + trial)
            tokens = tuple(
                self.word_vocab.tokens[int(rng.integers(3, len(self.word_vocab)))]
                for _ in range(int(rng.integers(1, 8)))
            )
            result = translate_greedy(tokens, params, self.word_vocab, self.tvocab, TINY)
            assert self.tvocab.is_entity_id(result.ids[0])
            assert self.tvocab.is_predicate_id(result.ids[1])
            assert self.tvocab.is_entity_id(result.ids[2])

    def test_attention_rows_sum_to_one(self):
        result = translate_greedy(("w0", "w1", "w2"), self.params, self.word_vocab,
                                  self.tvocab, TINY)
        assert result.attention.shape == (3, 3)
        np.testing.assert_allclose(result.attention.sum(axis=1), 1.0, atol=1e-9)

    def test_no_attention_no_rows_and_H_independent(self):
        config = ModelConfig(word_dim=8, kg_dim=8, enc_hidden=8, dec_hidden=16,
                             use_attention=False, seed=0)
        params = ModelParams.init(config, len(self.word_vocab),
                                  self.tvocab.n_targets, make_rng(4))
        result = translate_greedy(("w0", "w1"), params, self.word_vocab,
                                  self.tvocab, config)
        assert result.attention is None
        # decode depends on H only through the bridged final state
        enc = encode([3, 4], params, config)
        state = init_decoder_state(enc, params)
        logp_ref, _, _ = decode_step(1, BOS_ID, state, enc, params, config, self.tvocab)
        enc.H = enc.H + 1e3  # clobber per-step states, keep final
        logp_same, _, _ = decode_step(1, BOS_ID, state, enc, params, config, self.tvocab)
        np.testing.assert_array_equal(logp_ref, logp_same)

    def test_unk_tokens_flagged(self):
        result = translate_greedy(("zzz", "qqq"), self.params, self.word_vocab,
                                  self.tvocab, TINY)
        assert result.n_unk == 2
        assert isinstance(result, DecodeResult)

    def test_batch_counts_its_cut_sources_in_one_warning(self, caplog):
        # 130 sentences over max_src_len=16 fill three decoding batches, yet
        # the cut is reported once. Each row's UNK count covers the whole
        # sentence, and its attention is cropped to the cut, as when it is
        # decoded alone.
        rng = make_rng(7)
        known = self.word_vocab.tokens[3:]
        sentences = [
            tuple("zzz" if rng.random() < 0.2 else known[int(rng.integers(len(known)))]
                  for _ in range(int(rng.integers(17, 30))))
            for _ in range(130)
        ]
        assert len(sentences) > 2 * model.DECODE_BATCH
        with caplog.at_level(logging.WARNING, logger="text2triple.model"):
            batched = model.translate_greedy_batch(sentences, self.params, self.word_vocab,
                                                   self.tvocab, TINY)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["truncated 130 of 130 input sources to max_src_len=16"]
        for tokens, got in zip(sentences, batched):
            alone = translate_greedy(tokens, self.params, self.word_vocab, self.tvocab, TINY)
            assert got.ids == alone.ids
            assert got.n_unk == alone.n_unk == tokens.count("zzz")
            assert got.attention.shape == (3, TINY.max_src_len)
            np.testing.assert_allclose(got.attention, alone.attention, rtol=0, atol=1e-12)

    def test_beam_width_one_equals_greedy(self):
        tokens = ("w1", "w2", "w3")
        greedy = translate_greedy(tokens, self.params, self.word_vocab, self.tvocab, TINY)
        beam = translate_beam(tokens, self.params, self.word_vocab, self.tvocab, TINY, 1)
        assert len(beam) == 1
        assert beam[0].ids == greedy.ids
        assert beam[0].step_logprobs == greedy.step_logprobs
        assert beam[0].total_logprob == greedy.total_logprob
        assert beam[0].attention.tobytes() == greedy.attention.tobytes()

    def test_beam_exhaustive_equivalence(self):
        # width 6*3*6=108 covers the whole sequence space
        tokens = ("w2", "w5")
        beam = translate_beam(tokens, self.params, self.word_vocab, self.tvocab,
                              TINY, 108)
        # exhaustive oracle via decode_step
        from text2triple.vocab import encode_sentence
        enc = encode(encode_sentence(tokens, self.word_vocab), self.params, TINY)
        state0 = init_decoder_state(enc, self.params)
        best_total, best_ids = -np.inf, None
        logp1, state1, _ = decode_step(1, BOS_ID, state0, enc, self.params, TINY,
                                       self.tvocab)
        for y1 in np.flatnonzero(self.tvocab.step_mask(1)):
            logp2, state2, _ = decode_step(2, int(y1), state1, enc, self.params, TINY,
                                           self.tvocab)
            for y2 in np.flatnonzero(self.tvocab.step_mask(2)):
                logp3, _, _ = decode_step(3, int(y2), state2, enc, self.params, TINY,
                                          self.tvocab)
                for y3 in np.flatnonzero(self.tvocab.step_mask(3)):
                    total = float(logp1[y1] + logp2[y2] + logp3[y3])
                    ids = (int(y1), int(y2), int(y3))
                    if total > best_total or (total == best_total and ids < best_ids):
                        best_total, best_ids = total, ids
        assert beam[0].ids == best_ids
        assert abs(beam[0].total_logprob - best_total) < 1e-9
        assert len(beam) == 108

    def test_beam_rows_follow_their_own_paths(self):
        # Each hypothesis carries the log-probs and attention rows that
        # decode_step gives when fed that hypothesis's own ids.
        tokens = ("w3", "w1", "w4")
        beam = translate_beam(tokens, self.params, self.word_vocab, self.tvocab, TINY, 5)
        enc = encode([self.word_vocab.id_of(t) for t in tokens], self.params, TINY)
        for r in beam:
            state, prev = init_decoder_state(enc, self.params), BOS_ID
            for k, step in enumerate((1, 2, 3)):
                logp, state, alpha = decode_step(step, prev, state, enc, self.params, TINY,
                                                 self.tvocab)
                prev = r.ids[k]
                assert abs(logp[prev] - r.step_logprobs[k]) <= 1e-12
                np.testing.assert_allclose(r.attention[k], alpha, rtol=0, atol=1e-12)

    def test_beam_sorted_non_increasing(self):
        beam = translate_beam(("w0",), self.params, self.word_vocab, self.tvocab,
                              TINY, 25)
        totals = [r.total_logprob for r in beam]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_beam_bad_width(self):
        with pytest.raises(ValueError):
            translate_beam(("w0",), self.params, self.word_vocab, self.tvocab, TINY, 0)


class TestTrain:
    def small_world(self):
        word_vocab, tvocab = tiny_vocabs(n_words=12, n_entities=4, n_predicates=2)
        rng = make_rng(55)
        examples = []
        for i in range(6):
            ex = random_example(rng, word_vocab, tvocab, length=4)
            examples.append(AnnotatedExample(ex.tokens, ex.gold, f"tr:{i}"))
        return word_vocab, tvocab, examples

    def config(self, **kw):
        base = dict(word_dim=6, kg_dim=6, enc_hidden=6, dec_hidden=8,
                    use_attention=True, seed=1, epochs=3, batch_size=2, patience=5)
        base.update(kw)
        return ModelConfig(**base)

    def test_single_example_memorized(self):
        word_vocab, tvocab, examples = self.small_world()
        dataset = Dataset(train=[examples[0]])
        config = self.config(epochs=200, batch_size=1, lr=5e-3)
        result = train(dataset, word_vocab, tvocab, config)
        loss, _ = forward_loss(examples[0], result.params, config, word_vocab, tvocab)
        assert loss < 0.01

    def test_every_minibatch_writes_one_gradient_buffer(self, monkeypatch):
        real = model._loss_and_grads
        buffers = []

        def recording(*args, out=None, **kwargs):
            buffers.append(out.vec)
            return real(*args, out=out, **kwargs)

        monkeypatch.setattr(model, "_loss_and_grads", recording)
        word_vocab, tvocab, examples = self.small_world()
        result = train(Dataset(train=examples), word_vocab, tvocab, self.config())
        assert len(buffers) == 9  # 3 epochs of 3 batches
        assert all(vec is buffers[0] for vec in buffers)
        assert not np.shares_memory(buffers[0], result.params.vec)

    def test_kg_init_flag_without_a_table_rejected(self):
        word_vocab, tvocab, examples = self.small_world()
        with pytest.raises(ValueError, match="^use_kg_init set but no kg_init table provided$"):
            train(Dataset(train=examples), word_vocab, tvocab, self.config(use_kg_init=True))

    def test_same_seed_identical_logs_and_params(self):
        word_vocab, tvocab, examples = self.small_world()
        dataset = Dataset(train=examples[:4], dev=examples[4:])
        r1 = train(dataset, word_vocab, tvocab, self.config())
        r2 = train(dataset, word_vocab, tvocab, self.config())
        assert [(s.epoch, s.train_loss, s.dev_f1) for s in r1.log] == [
            (s.epoch, s.train_loss, s.dev_f1) for s in r2.log
        ]
        assert r1.params.vec.tobytes() == r2.params.vec.tobytes()

    def test_pretrained_tables_copied_where_covered(self):
        word_vocab, tvocab, examples = self.small_world()
        rng = make_rng(77)
        word_init = rng.standard_normal((len(word_vocab), 6))
        kg_init = rng.standard_normal((tvocab.n_targets, 6))
        config = self.config(use_word_init=True, use_kg_init=True, epochs=1)
        dataset = Dataset(train=examples[:4])
        result = train(dataset, word_vocab, tvocab, config,
                       word_init=word_init, kg_init=kg_init)
        assert result.params is not None
        # initialization contract: tables equal the provided ones row-for-row
        params0 = ModelParams.init(config, len(word_vocab), tvocab.n_targets,
                                   make_rng(config.seed), word_init, kg_init)
        np.testing.assert_array_equal(params0.enc_embed, word_init)
        np.testing.assert_array_equal(params0.dec_embed, kg_init)

    def test_missing_init_table_rejected(self):
        word_vocab, tvocab, examples = self.small_world()
        with pytest.raises(ValueError, match="word_init"):
            train(Dataset(train=examples[:2]), word_vocab, tvocab,
                  self.config(use_word_init=True))

    def test_oov_gold_dropped_and_counted(self):
        word_vocab, tvocab, examples = self.small_world()
        bad = AnnotatedExample(("w0",), Triple("ent:0", "rel:0", "unknown"), "bad:1")
        result = train(Dataset(train=examples[:3] + [bad]), word_vocab, tvocab,
                       self.config(epochs=1))
        assert result.dropped_oov == 1

    def test_truncation_warned_once(self, caplog):
        word_vocab, tvocab, examples = self.small_world()
        long = [AnnotatedExample(ex.tokens * 5, ex.gold, f"long:{i}")
                for i, ex in enumerate(examples[:3])]           # 20 > max_src_len 16
        config = self.config(epochs=2, max_src_len=16)
        with caplog.at_level(logging.WARNING, logger="text2triple.model"):
            result = train(Dataset(train=long + examples[3:]), word_vocab, tvocab, config)
        assert len(result.log) == 2
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "truncated 3 of 6 training sources to max_src_len=16" in warnings[0]

    def test_non_finite_gradient_aborts_with_last_good_params(self, monkeypatch):
        word_vocab, tvocab, examples = self.small_world()
        nan_gradient_on_call(monkeypatch, 2)  # the loss stays finite; the norm does not
        result = train(Dataset(train=examples), word_vocab, tvocab, self.config())
        assert result.aborted
        assert result.log == []  # stopped in epoch 1, at batch 2 of 3
        assert np.isfinite(result.params.vec).all()

    def test_diverging_forward_pass_aborts(self):
        # Batch 1's Adam step throws the parameters near 1e300, so the next
        # forward pass overflows to NaN logits.
        word_vocab, tvocab, examples = self.small_world()
        with np.errstate(all="ignore"):
            result = train(Dataset(train=examples), word_vocab, tvocab,
                           self.config(lr=1e300))
        assert result.aborted
        assert result.log == []
        assert np.isfinite(result.params.vec).all()

    def test_empty_train_rejected(self):
        word_vocab, tvocab, _ = self.small_world()
        with pytest.raises(ValueError, match="empty"):
            train(Dataset(), word_vocab, tvocab, self.config())


# SHA-256 of the checkpoint that train writes on the hard world, one per run.
# They pin every bit of the training trajectory: init draws, gradients,
# clipping and Adam. The digests hold for numpy 2.4.6 with OpenBLAS at any
# thread count; another BLAS or numpy build may round differently.
TRAJECTORY_DIGESTS = {
    "attention": "a5724e6267d88e87d23ce8ec3c6290efea4a25dc4d50f5f8da21666af870ea05",
    "no attention": "03592e5b84410592ceb19483cbe2900e277c34eb5506bee476ebb0aa03a66b82",
    "A+W+G": "0dba08e1532d63aea728c487036c573a2f3955f534af6634c8fe0f3151ce6d32",
    "CLI defaults": "9b45786212b837af10e516b3b87785548f11341b127e5aca293abc7d6a7b2ec6",
}


def trajectory_world():
    world = make_hard_world(seed=17, word_dim=16)
    word_vocab = build_word_vocab([list(ex.tokens) for ex in world.train])
    return world, word_vocab, build_kg_vocab(world.kg.triples)


def save_trajectory(run, world, path):
    """Train the pinned ``run`` on ``trajectory_world()`` and save its checkpoint."""
    world, word_vocab, tvocab = world
    dataset = Dataset(train=world.train, dev=world.dev)
    small = dict(word_dim=16, kg_dim=16, enc_hidden=16, dec_hidden=32, seed=1,
                 epochs=20, batch_size=4, patience=35, lr=3e-3)
    tables = {}
    if run == "CLI defaults":
        config, dataset = ModelConfig(seed=0, epochs=3), Dataset(train=world.train)
    elif run == "A+W+G":
        config = ModelConfig(**small, use_word_init=True, use_kg_init=True)
        emb = transe_train(world.kg, TransEConfig(dim=16, epochs=30, seed=17))
        rng = make_rng(1001)
        tables["word_init"] = np.vstack([
            world.word_vectors[tok] if tok in world.word_vectors else uniform_init(16, rng)
            for tok in word_vocab.tokens
        ])
        tables["kg_init"] = decoder_init_table(emb, tvocab, 16, rng)[0]
    else:
        config = ModelConfig(**small, use_attention=run == "attention")
    result = train(dataset, word_vocab, tvocab, config, **tables)
    save_checkpoint(path, result.params, config, word_vocab, tvocab)


class TestTrainingTrajectory:
    @pytest.fixture(scope="class")
    def world(self):
        return trajectory_world()

    @pytest.mark.parametrize("run", sorted(TRAJECTORY_DIGESTS))
    def test_checkpoint_digest_pinned(self, run, world, tmp_path):
        path = tmp_path / "m.ckpt"
        save_trajectory(run, world, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == TRAJECTORY_DIGESTS[run]

    def test_clipping_run_does_not_depend_on_blas_threads(self, tmp_path):
        # The attention run clips 22 of its 260 batches over a 14,725-scalar
        # gradient, long enough for OpenBLAS to split a dot across threads.
        script = ("import sys; sys.path.insert(0, sys.argv[1]); import test_model as t; "
                  "t.save_trajectory('attention', t.trajectory_world(), sys.argv[2])")
        saved = []
        for threads in ("1", "2"):
            path = tmp_path / f"threads{threads}.ckpt"
            proc = subprocess.run(
                [sys.executable, "-c", script, str(Path(__file__).parent), str(path)],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
            )
            assert proc.returncode == 0, proc.stderr
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]


def _set_array(array, **changes):
    def edit(header):
        for entry in header["arrays"]:
            if entry["name"] == array:
                entry.update(changes)
        return header
    return edit


def _without(key):
    def edit(header):
        del header[key]
        return header
    return edit


def _config(**changes):
    def edit(header):
        header["config"].update(changes)
        return header
    return edit


def _symbol(key, index, value):
    def edit(header):
        header[key][index] = value
        return header
    return edit


def _gate_biases_resized(header):
    # same payload size and checksum, but two gate biases change size
    _set_array("enc_fwd.b_i", shape=[4])(header)
    return _set_array("enc_fwd.b_f", shape=[12])(header)


def _encoder_reshaped(header):
    # 4 * (8 * 16) + 4 * 8 values reread as hidden 4, input 29: the gates
    # stack, but the LSTM no longer fits the configured dimensions
    for g in "ifog":
        _set_array(f"enc_fwd.W_{g}", shape=[4, 33])(header)
        _set_array(f"enc_fwd.b_{g}", shape=[4])(header)
    return header


def _input_forget_swapped(header):
    # same shapes, so only the names tell the two gates apart
    _set_array("enc_fwd.W_i", name="swap")(header)
    _set_array("enc_fwd.W_f", name="enc_fwd.W_i")(header)
    return _set_array("swap", name="enc_fwd.W_f")(header)


HEADER_DEFECTS = {
    "list header": (lambda header: list(header), "not a JSON object"),
    "no arrays": (_without("arrays"), "lacks arrays"),
    "no config": (_without("config"), "lacks config"),
    "string shape": (_set_array("out_b", shape="10"), "malformed array table"),
    "string dimension": (_set_array("out_b", shape=["10"]), "malformed array table"),
    "negative dimension": (_set_array("out_b", shape=[-10]), "malformed array table"),
    "unknown config key": (_config(bogus=1), "config keys"),
    "non-string entity": (_symbol("entities", 1, 7), r"m\.ckpt: entity symbol 7 is not a string"),
    "non-string word": (_symbol("words", 3, None),
                        r"m\.ckpt: word vocab token None is not a string"),
    "missing config key": (
        lambda header: {**header, "config": {k: v for k, v in header["config"].items()
                                             if k != "seed"}},
        "config keys",
    ),
    "bad config value": (_config(word_dim="8"), r"m\.ckpt: "),
    "string flag": (_config(use_attention="no"),
                    r"m\.ckpt: use_attention must be a bool, got 'no'"),
    "integer flag": (_config(use_attention=1), r"m\.ckpt: use_attention must be a bool, got 1"),
    "null flag": (_config(use_word_init=None),
                  r"m\.ckpt: use_word_init must be a bool, got None"),
    "boolean rate": (_config(lr=True), r"m\.ckpt: lr must be a real number, got True"),
    "string beta": (_config(beta1="0.5"), r"m\.ckpt: beta1 must be a real number, got '0\.5'"),
    "float dimension": (
        _config(enc_hidden=float(TINY.enc_hidden)),
        r"m\.ckpt: enc_hidden must be an integer, got 8\.0",
    ),
    "missing gate": (
        _set_array("enc_fwd.W_g", name="enc_fwd.W_x"),
        r"entry 4: found \('enc_fwd.W_x', \(8, 16\)\), expected \('enc_fwd.W_g', \(8, 16\)\)",
    ),
    "gate shapes": (
        _gate_biases_resized,
        r"entry 5: found \('enc_fwd.b_i', \(4,\)\), expected \('enc_fwd.b_i', \(8,\)\)",
    ),
    "LSTM dimensions": (
        _encoder_reshaped,
        r"entry 1: found \('enc_fwd.W_i', \(4, 33\)\), expected \('enc_fwd.W_i', \(8, 16\)\)",
    ),
    "swapped gates": (
        _input_forget_swapped,
        r"entry 1: found \('enc_fwd.W_f', \(8, 16\)\), expected \('enc_fwd.W_i', ",
    ),
}


class TestCheckpoint:
    def roundtrip_setup(self, tmp_path):
        word_vocab, tvocab = tiny_vocabs()
        params = tiny_params(seed=6)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, params, TINY, word_vocab, tvocab)
        return path, params, word_vocab, tvocab

    def test_bit_identical_roundtrip(self, tmp_path):
        path, params, word_vocab, tvocab = self.roundtrip_setup(tmp_path)
        loaded, config, wv, tv = load_checkpoint(path)
        assert loaded.vec.tobytes() == params.vec.tobytes()
        assert [(k, v.shape) for k, v in loaded.to_dict().items()] == [
            (k, v.shape) for k, v in params.to_dict().items()]
        assert config == TINY
        assert wv.tokens == word_vocab.tokens
        assert tv.entities == tvocab.entities

    def test_params_that_do_not_fit_the_config_rejected(self):
        word_vocab, tvocab = tiny_vocabs()
        params = tiny_params(n_targets=tvocab.n_targets + 1)
        with pytest.raises(ValueError, match="^parameter shapes do not fit the config "
                                             "and vocabularies$"):
            model.checkpoint_bytes(params, TINY, word_vocab, tvocab)

    def test_save_is_deterministic(self, tmp_path):
        word_vocab, tvocab = tiny_vocabs()
        params = tiny_params(seed=6)
        save_checkpoint(tmp_path / "a.ckpt", params, TINY, word_vocab, tvocab)
        save_checkpoint(tmp_path / "b.ckpt", params, TINY, word_vocab, tvocab)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_truncated_file_rejected(self, tmp_path):
        path, *_ = self.roundtrip_setup(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["bit 1 of byte 12 flipped", "cut inside the header"])
    def test_header_length_past_end_of_file(self, damage, tmp_path):
        path, *_ = self.roundtrip_setup(tmp_path)
        data = bytearray(path.read_bytes())
        if damage.startswith("bit"):
            data[12] ^= 0x02
        else:
            del data[40:]
        path.write_bytes(bytes(data))
        (hlen,) = struct.unpack_from("<Q", data, 8)
        with pytest.raises(CheckpointError, match=f"header length {hlen} runs past the end "
                                                  f"of the {len(data)}-byte file"):
            load_checkpoint(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path, *_ = self.roundtrip_setup(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        f = tmp_path / "junk"
        f.write_bytes(b"hello world")
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            load_checkpoint(f)

    def test_bytes_pinned(self, tmp_path):
        # fixed from the per-gate LSTM layout: pins both the init draws and
        # the on-disk array order (enc_fwd.W_i ... enc_fwd.b_g, ...)
        path, *_ = self.roundtrip_setup(tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "42bd0915910b1484462014ce9205309e979fa925ba196434d7d3c0ccb69d4a14"
        )

    def test_vocab_size_mismatch_rejected(self, tmp_path):
        # shrink the declared word list: embedding shape no longer matches
        path, *_ = self.roundtrip_setup(tmp_path)

        def edit(header):
            header["words"] = header["words"][:-2]
            return header

        rewrite_checkpoint_header(path, path, edit)
        with pytest.raises(CheckpointError, match="inconsistent"):
            load_checkpoint(path)

    def test_extra_array_rejected(self, tmp_path):
        # a well-formed extra array, with its bytes and checksum
        path, *_ = self.roundtrip_setup(tmp_path)
        data = path.read_bytes()
        (hlen,) = struct.unpack_from("<Q", data, 8)
        extra = np.ones(2).tobytes()

        def edit(header):
            header["arrays"].append({"name": "extra", "shape": [2]})
            header["payload_sha256"] = hashlib.sha256(data[16 + hlen:] + extra).hexdigest()
            return header

        rewrite_checkpoint_header(path, path, edit)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CheckpointError, match=r"entry 31: found \('extra', \(2,\)\), "
                                                  r"expected nothing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
    def test_header_defect_raises_checkpoint_error(self, defect, tmp_path):
        edit, message = HEADER_DEFECTS[defect]
        path, *_ = self.roundtrip_setup(tmp_path)
        rewrite_checkpoint_header(path, path, edit)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
