"""The batched forward/backward core against the per-example path it replaced.

The functions between the two rulers below are the per-example encoder,
decoder step and `_loss_and_grads` that training ran before every minibatch
became one padded pass, kept as the oracle. The oracle steps its LSTMs
through its own one-example cell and exact cell backward, so it shares no
LSTM code with the batched core it checks. Agreement is norm-wise
relative: max|batched - oracle| <= 1e-10 * max|oracle| for the loss and for
every gradient array (sums run in another order, so the bits may differ).
"""

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pytest

from text2triple import model
from text2triple.corpus import AnnotatedExample, Triple
from text2triple.model import (
    ModelConfig,
    ModelParams,
    forward_loss,
    translate_beam,
    translate_greedy,
    translate_greedy_batch,
)
from text2triple.numerics import LstmWeights, add_rows, make_rng
from text2triple.synthetic import make_hard_world
from text2triple.vocab import (
    PAD_ID,
    TripleVocab,
    build_kg_vocab,
    build_word_vocab,
    encode_sentence,
)

logger = logging.getLogger(__name__)

# ---------------------------------------------------------------------------
# Oracle: the per-example path
# ---------------------------------------------------------------------------


@dataclass
class EncoderOutputs:
    """One sentence's encoder outputs, unbatched."""

    H: np.ndarray          # (T, 2*enc_hidden): [fwd_h[t]; bwd_h[t]]
    final: np.ndarray      # (2*enc_hidden,): [fwd_h[T-1]; bwd_h[0]]
    AH: np.ndarray | None  # unused by the oracle, which projects H itself


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.float64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))  # 1 / (1 + exp(-x)), without overflow


def lstm_cell(x: np.ndarray, h_prev: np.ndarray, c_prev: np.ndarray, w: LstmWeights):
    """One LSTM step on one example: c = f*c_prev + i*g, h = o*tanh(c), with
    W's row blocks in the order i, f, o, g. Returns (h, c, cache)."""
    z = np.concatenate([x, h_prev])
    i, f, o, g = (w.W @ z + w.b).reshape(4, w.hidden_dim)
    i, f, o, g = _sigmoid(i), _sigmoid(f), _sigmoid(o), np.tanh(g)
    c = f * c_prev + i * g
    tc = np.tanh(c)
    return o * tc, c, (z, c_prev, i, f, o, g, tc)


def lstm_cell_backward(dh: np.ndarray, dc: np.ndarray, cache, w: LstmWeights):
    """Exact backward of one lstm_cell step, given the upstream gradients on
    its h and c. Returns (dx, dh_prev, dc_prev, dW, db)."""
    z, c_prev, i, f, o, g, tc = cache
    dc = dc + dh * o * (1.0 - tc * tc)
    d_pre = np.concatenate([
        dc * g * i * (1.0 - i),
        dc * c_prev * f * (1.0 - f),
        dh * tc * o * (1.0 - o),
        dc * i * (1.0 - g * g),
    ])
    dz = w.W.T @ d_pre
    return dz[:w.input_dim], dz[w.input_dim:], dc * f, np.outer(d_pre, z), d_pre


def _run_lstm(xs: np.ndarray, w: LstmWeights):
    """Run a unidirectional LSTM over rows of xs; returns (hiddens, caches)."""
    h, c = _zeros(w.hidden_dim), _zeros(w.hidden_dim)
    hs = np.empty((xs.shape[0], w.hidden_dim))
    caches = []
    for t in range(xs.shape[0]):
        h, c, cache = lstm_cell(xs[t], h, c, w)
        hs[t] = h
        caches.append(cache)
    return hs, caches


def _encode_full(src_ids: Sequence[int], params: ModelParams, config: ModelConfig):
    if len(src_ids) == 0:
        raise ValueError("cannot encode an empty sentence")
    if len(src_ids) > config.max_src_len:
        logger.warning(
            "truncating source of length %d to max_src_len=%d",
            len(src_ids), config.max_src_len,
        )
        src_ids = list(src_ids)[: config.max_src_len]
    src_ids = list(src_ids)
    xs = params.enc_embed[src_ids]                      # (T, word_dim)
    fwd_h, fwd_caches = _run_lstm(xs, params.enc_fwd)
    bwd_in = xs[::-1]
    bwd_h_rev, bwd_caches_rev = _run_lstm(bwd_in, params.enc_bwd)
    bwd_h = bwd_h_rev[::-1]                             # bwd_h[t] = state at position t
    bwd_caches = bwd_caches_rev[::-1]
    H = np.concatenate([fwd_h, bwd_h], axis=1)
    final = np.concatenate([fwd_h[-1], bwd_h[0]])
    enc = EncoderOutputs(H=H, final=final, AH=None)
    cache = {"src_ids": src_ids, "fwd_caches": fwd_caches, "bwd_caches": bwd_caches}
    return enc, cache


def init_decoder_state(
    enc: EncoderOutputs, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Bridge the concatenated final encoder state to the decoder's initial
    hidden state; the initial cell is zeros."""
    h0 = params.bridge_w @ enc.final + params.bridge_b
    return h0, _zeros(params.bridge_w.shape[0])


def _softmax1d(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def _masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log-softmax restricted to mask; off-mask entries are exactly -inf."""
    out = np.full(logits.shape, -np.inf)
    sel = logits[mask]
    m = sel.max()
    out[mask] = (sel - m) - math.log(np.exp(sel - m).sum())
    return out


def _step_forward(
    step: int,
    prev_id: int,
    state: tuple[np.ndarray, np.ndarray],
    enc: EncoderOutputs,
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
):
    """Shared forward for one decoder step; returns everything the backward
    pass needs."""
    if step not in (1, 2, 3):
        raise ValueError(f"invalid decoding step {step}")
    x = params.dec_embed[prev_id]
    h, c, cell_cache = lstm_cell(x, state[0], state[1], params.dec_lstm)
    if config.use_attention:
        AH = enc.H @ params.attn_w.T        # (T, dec_hidden)
        scores = AH @ h
        alpha = _softmax1d(scores)
        ctx = alpha @ enc.H
        feat = np.concatenate([h, ctx])
    else:
        AH, alpha = None, None
        feat = h
    logits = params.out_w @ feat + params.out_b
    logp = _masked_log_softmax(logits, tvocab.step_mask(step))
    return {
        "prev_id": prev_id,
        "cell_cache": cell_cache,
        "h": h,
        "alpha": alpha,
        "AH": AH,
        "feat": feat,
        "logp": logp,
        "state": (h, c),
    }


def _loss_and_grads(
    src_ids: Sequence[int],
    gold_ids: tuple[int, int, int],
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
) -> tuple[float, dict[str, np.ndarray]]:
    """Teacher-forced loss -sum_k log p(y_k | y_<k, X) and exact grads."""
    enc, enc_cache = _encode_full(src_ids, params, config)
    src_ids = enc_cache["src_ids"]
    T = len(src_ids)
    nh = config.enc_hidden

    state = init_decoder_state(enc, params)
    prevs = (tvocab.bos_id, gold_ids[0], gold_ids[1])
    steps = []
    loss = 0.0
    dlogits_list = []
    for k in range(3):
        fwd = _step_forward(k + 1, prevs[k], state, enc, params, config, tvocab)
        state = fwd["state"]
        # Cross-entropy -ln p[gold] and its logits gradient p - onehot(gold).
        gold = gold_ids[k]
        probs = np.exp(fwd["logp"])
        loss -= math.log(probs[gold])
        dlogits = probs
        dlogits[gold] -= 1.0
        steps.append(fwd)
        dlogits_list.append(dlogits)

    grads = {k: np.zeros_like(v) for k, v in params.to_dict().items()}
    dH = np.zeros_like(enc.H)
    ds_next = _zeros(config.dec_hidden)
    dc_next = _zeros(config.dec_hidden)
    for k in (2, 1, 0):
        fwd = steps[k]
        dlogits = dlogits_list[k]
        grads["out_w"] += np.outer(dlogits, fwd["feat"])
        grads["out_b"] += dlogits
        dfeat = params.out_w.T @ dlogits
        if config.use_attention:
            ds = dfeat[: config.dec_hidden].copy()
            dctx = dfeat[config.dec_hidden:]
            alpha, AH, h = fwd["alpha"], fwd["AH"], fwd["h"]
            dalpha = enc.H @ dctx
            dH += np.outer(alpha, dctx)
            dscores = alpha * (dalpha - float(alpha @ dalpha))
            ds += AH.T @ dscores
            grads["attn_w"] += np.outer(h, dscores @ enc.H)
            dH += np.outer(dscores, params.attn_w.T @ h)
        else:
            ds = dfeat.copy()
        ds += ds_next
        dx, ds_next, dc_next, dW, db = lstm_cell_backward(
            ds, dc_next, fwd["cell_cache"], params.dec_lstm
        )
        grads["dec_lstm.W"] += dW
        grads["dec_lstm.b"] += db
        grads["dec_embed"][fwd["prev_id"]] += dx

    # Bridge and encoder final state.
    ds0 = ds_next
    grads["bridge_w"] += np.outer(ds0, enc.final)
    grads["bridge_b"] += ds0
    dfinal = params.bridge_w.T @ ds0
    dfh = dH[:, :nh].copy()
    dbh = dH[:, nh:].copy()
    dfh[T - 1] += dfinal[:nh]
    dbh[0] += dfinal[nh:]

    dx_enc = np.zeros((T, config.word_dim))
    carry_h, carry_c = _zeros(nh), _zeros(nh)
    for t in range(T - 1, -1, -1):
        dx, carry_h, carry_c, dW, db = lstm_cell_backward(
            dfh[t] + carry_h, carry_c, enc_cache["fwd_caches"][t], params.enc_fwd
        )
        grads["enc_fwd.W"] += dW
        grads["enc_fwd.b"] += db
        dx_enc[t] += dx
    carry_h, carry_c = _zeros(nh), _zeros(nh)
    for t in range(T):  # backward LSTM processed positions T-1..0
        dx, carry_h, carry_c, dW, db = lstm_cell_backward(
            dbh[t] + carry_h, carry_c, enc_cache["bwd_caches"][t], params.enc_bwd
        )
        grads["enc_bwd.W"] += dW
        grads["enc_bwd.b"] += db
        dx_enc[t] += dx
    np.add.at(grads["enc_embed"], src_ids, dx_enc)
    return loss, grads


# ---------------------------------------------------------------------------
# End of oracle
# ---------------------------------------------------------------------------

RTOL = 1e-10


def close(batched, oracle) -> bool:
    batched, oracle = np.asarray(batched), np.asarray(oracle)
    return float(np.abs(batched - oracle).max()) <= RTOL * max(float(np.abs(oracle).max()), 1e-300)


def tiny_config(attention: bool, max_src_len: int = 16) -> ModelConfig:
    return ModelConfig(
        word_dim=6, kg_dim=5, enc_hidden=7, dec_hidden=9,
        use_attention=attention, max_src_len=max_src_len, seed=0,
    )


def tiny_vocab() -> TripleVocab:
    return TripleVocab(
        tuple(f"ent:{i}" for i in range(5)), tuple(f"rel:{i}" for i in range(3))
    )


def random_batch(rng, lengths, n_words, tvocab):
    sources = [[int(rng.integers(3, n_words)) for _ in range(n)] for n in lengths]
    gold = np.array([
        (int(rng.integers(1, 6)), int(rng.integers(6, 9)), int(rng.integers(1, 6)))
        for _ in lengths
    ])
    return sources, gold


def oracle_mean(sources, gold, params, config, tvocab):
    """Mean loss and gradients of the per-example oracle over a batch."""
    total, acc = 0.0, None
    for src, g in zip(sources, gold):
        loss, grads = _loss_and_grads(src, tuple(int(v) for v in g), params, config, tvocab)
        total += loss
        acc = grads if acc is None else {k: acc[k] + grads[k] for k in acc}
    return total / len(sources), {k: v / len(sources) for k, v in acc.items()}


BATCHES = {
    "one row": [5],
    "equal lengths": [4, 4, 4],
    "mixed lengths": [6, 1, 3, 9],
    "truncated rows": [3, 14, 11, 2],   # 14 and 11 are cut at max_src_len=10
}


class TestLossParity:
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_batched_equals_per_example_mean(self, attention, batch):
        config = tiny_config(attention, max_src_len=10)
        tvocab = tiny_vocab()
        n_words = 12
        params = ModelParams.init(config, n_words, tvocab.n_targets, make_rng(3))
        sources, gold = random_batch(make_rng(len(batch)), BATCHES[batch], n_words, tvocab)
        loss, grads = model._loss_and_grads(sources, gold, params, config, tvocab)
        grads = grads.to_dict()
        want_loss, want = oracle_mean(sources, gold, params, config, tvocab)
        assert list(grads) == list(want) == list(params.to_dict())
        assert close(loss, want_loss), (loss, want_loss)
        for key in want:
            assert grads[key].shape == want[key].shape, key
            assert close(grads[key], want[key]), key

    def test_forward_loss_is_a_batch_of_one(self):
        config = tiny_config(True)
        tvocab = tiny_vocab()
        word_vocab = build_word_vocab([[f"w{i}" for i in range(9)]])
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(4))
        ex = AnnotatedExample(("w1", "w7", "w3"), Triple("ent:2", "rel:0", "ent:4"), "t")
        loss, grads = forward_loss(ex, params, config, word_vocab, tvocab)
        src = encode_sentence(ex.tokens, word_vocab)
        want_loss, want = _loss_and_grads(src, tvocab.encode_triple(*ex.gold), params,
                                          config, tvocab)
        assert close(loss, want_loss)
        assert all(close(grads[k], want[k]) for k in want)


class TestPadding:
    def test_padded_positions_add_exactly_zero_gradient(self):
        # The short rows are padded with PAD_ID. Whatever the PAD embedding
        # holds, no output or gradient may change by a single bit, and the
        # PAD row itself receives exactly zero gradient.
        config = tiny_config(True)
        tvocab = tiny_vocab()
        params = ModelParams.init(config, 12, tvocab.n_targets, make_rng(8))
        sources, gold = random_batch(make_rng(9), [7, 2, 5], 12, tvocab)
        loss, grads = model._loss_and_grads(sources, gold, params, config, tvocab)
        assert (grads.enc_embed[PAD_ID] == 0.0).all()
        padded = params.copy()
        padded.enc_embed[PAD_ID] = 1e3
        loss2, grads2 = model._loss_and_grads(sources, gold, padded, config, tvocab)
        assert loss2 == loss
        np.testing.assert_array_equal(grads2.vec, grads.vec)

    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("width", [1, 4])
    def test_decoding_does_not_read_the_pad_embedding(self, attention, width):
        # The encoder LSTMs run on through padding, so their states there
        # follow the PAD row; no decoded id, log-prob or attention weight may.
        config = tiny_config(attention)
        tvocab = tiny_vocab()
        params = ModelParams.init(config, 12, tvocab.n_targets, make_rng(4))
        sources, _ = random_batch(make_rng(5), [1, 5, 2], 12, tvocab)

        def decoded(p):
            return [[(r.ids, r.step_logprobs, None if r.attention is None else r.attention.tobytes())
                     for r in hyps] for hyps in model._decode(sources, [0, 0, 0], p, config,
                                                              tvocab, width)]

        want = decoded(params)
        for fill in (1e3, 1e300, -1e300, np.nan):
            padded = params.copy()
            padded.enc_embed[PAD_ID] = fill
            assert decoded(padded) == want, fill

    def test_row_results_do_not_depend_on_batch_mates(self):
        # Greedy decoding of a row is the same whether it is padded in a
        # batch or decoded alone.
        config = tiny_config(True)
        word_vocab = build_word_vocab([[f"w{i}" for i in range(9)]])
        tvocab = tiny_vocab()
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(2))
        sentences = [("w1",), ("w2", "w3", "w4", "w5", "w6"), ("w7", "w8")]
        batched = translate_greedy_batch(sentences, params, word_vocab, tvocab, config)
        for tokens, got in zip(sentences, batched):
            alone = translate_greedy(tokens, params, word_vocab, tvocab, config)
            assert got.ids == alone.ids
            np.testing.assert_allclose(got.step_logprobs, alone.step_logprobs,
                                       rtol=0, atol=1e-12)
            assert got.attention.shape == (3, len(tokens))
            np.testing.assert_allclose(got.attention, alone.attention, rtol=0, atol=1e-12)


class TestGradientBuffer:
    @pytest.mark.parametrize("attention", [True, False])
    @pytest.mark.parametrize("batch", ["equal lengths", "mixed lengths"])
    def test_buffer_contents_do_not_reach_the_gradients(self, attention, batch):
        # Only the two embedding views are zeroed before they are accumulated
        # into; every other view must be overwritten whole, so NaN left in
        # the buffer reaches nothing.
        config = tiny_config(attention, max_src_len=10)
        tvocab = tiny_vocab()
        params = ModelParams.init(config, 12, tvocab.n_targets, make_rng(5))
        sources, gold = random_batch(make_rng(6), BATCHES[batch], 12, tvocab)
        want_loss, want = model._loss_and_grads(sources, gold, params, config, tvocab)
        for fill in (0.0, np.nan):
            out = params.like(np.full(params.vec.size, fill))
            loss, grads = model._loss_and_grads(sources, gold, params, config, tvocab, out=out)
            assert grads.vec is out.vec
            assert loss == want_loss
            assert grads.vec.tobytes() == want.vec.tobytes()

    @pytest.mark.parametrize("attention", [True, False])
    def test_one_buffer_for_two_batches_equals_two_fresh_calls(self, attention):
        # The first batch reads words the second does not, so an embedding
        # gradient carried over would show.
        config = tiny_config(attention)
        tvocab = tiny_vocab()
        params = ModelParams.init(config, 12, tvocab.n_targets, make_rng(7))
        first = random_batch(make_rng(12), [6, 1, 3, 9], 12, tvocab)
        second = random_batch(make_rng(13), [2, 5], 12, tvocab)
        assert {w for s in first[0] for w in s} - {w for s in second[0] for w in s}
        assert {int(i) for i in first[1].flat} - {int(i) for i in second[1].flat}
        out = params.like(np.empty(params.vec.size))
        for sources, gold in (first, second):
            loss, grads = model._loss_and_grads(sources, gold, params, config, tvocab, out=out)
            want_loss, want = model._loss_and_grads(sources, gold, params, config, tvocab)
            assert loss == want_loss
            assert grads.vec.tobytes() == want.vec.tobytes()

    def test_flat_scatter_adds_like_add_at_on_rows(self):
        # Repeated ids, addends of mixed magnitude and a nonzero table, so
        # any change in the order of the additions would show in the bits.
        rng = make_rng(3)
        ids = rng.integers(0, 5, (3, 4))
        rows = rng.standard_normal((3, 4, 6)) * 10.0 ** rng.integers(-8, 8, (3, 4, 6))
        want = rng.standard_normal((5, 6))
        got = want.copy()
        np.add.at(want, ids, rows)
        add_rows(got, ids, rows)
        assert got.tobytes() == want.tobytes()


class TestBeamBatch:
    def test_ties_break_toward_lower_id_sequences(self):
        # zero weights make every sequence equally likely, so the beam keeps
        # the lexicographically smallest ones, in order
        config = tiny_config(True)
        word_vocab = build_word_vocab([[f"w{i}" for i in range(9)]])
        tvocab = tiny_vocab()
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(0))
        zero = params.like(np.zeros(params.vec.size))
        beam = translate_beam(("w1", "w2"), zero, word_vocab, tvocab, config, 7)
        assert [r.ids for r in beam] == [
            (1, 6, 1), (1, 6, 2), (1, 6, 3), (1, 6, 4), (1, 6, 5), (1, 7, 1), (1, 7, 2)
        ]
        assert len({r.total_logprob for r in beam}) == 1

    def test_ties_across_paths_break_toward_lower_id_sequences(self):
        # Only out_b is nonzero and it favours entity id 2, so (1, p, 2) and
        # (2, p, 1) tie though their first steps do not. The full-width beam
        # must list all 75 triples by total, then by id sequence.
        config = tiny_config(True)
        word_vocab = build_word_vocab([[f"w{i}" for i in range(9)]])
        tvocab = tiny_vocab()
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(0))
        biased = params.like(np.zeros(params.vec.size))
        biased.out_b[2] = 1.0
        enc = model.encode(encode_sentence(("w1",), word_vocab), biased, config)
        state0 = model.init_decoder_state(enc, biased)
        logp1, state1, _ = model.decode_step(1, tvocab.bos_id, state0, enc, biased, config,
                                             tvocab)
        totals = {}
        for s in range(1, 6):
            logp2, state2, _ = model.decode_step(2, s, state1, enc, biased, config, tvocab)
            for p in range(6, 9):
                logp3, _, _ = model.decode_step(3, p, state2, enc, biased, config, tvocab)
                for o in range(1, 6):
                    totals[s, p, o] = float(logp1[s]) + float(logp2[p]) + float(logp3[o])
        assert logp1[1] != logp1[2] and totals[1, 6, 2] == totals[2, 6, 1]
        beam = translate_beam(("w1",), biased, word_vocab, tvocab, config, 75)
        assert [r.ids for r in beam] == sorted(totals, key=lambda ids: (-totals[ids], ids))

    @pytest.mark.parametrize("attention", [True, False])
    def test_batched_beam_equals_single_sentence(self, attention):
        # Mixed lengths, so all rows but the longest are padded. There are
        # 5*3*5 = 75 triples, so width 100 keeps every one of them.
        config = tiny_config(attention)
        word_vocab = build_word_vocab([[f"w{i}" for i in range(9)]])
        tvocab = tiny_vocab()
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(21))
        rng = make_rng(22)
        sentences = [tuple(f"w{int(rng.integers(9))}" for _ in range(n))
                     for n in (6, 1, 3, 9, 2, 5, 3)]
        sources = [encode_sentence(tokens, word_vocab) for tokens in sentences]
        for width in (2, 4, 100):
            batched = model._decode(sources, [0] * len(sources), params, config, tvocab, width)
            assert len(batched) == len(sentences)
            for tokens, hyps in zip(sentences, batched):
                alone = translate_beam(tokens, params, word_vocab, tvocab, config, width)
                assert len(hyps) == min(width, 75)
                assert [r.ids for r in hyps] == [r.ids for r in alone]
                for got, want in zip(hyps, alone):
                    np.testing.assert_allclose(got.step_logprobs, want.step_logprobs,
                                               rtol=0, atol=1e-12)
                    assert abs(got.total_logprob - want.total_logprob) <= 1e-12
                    if attention:
                        assert got.attention.shape == (3, len(tokens))
                        np.testing.assert_allclose(got.attention, want.attention,
                                                   rtol=0, atol=1e-12)
                    else:
                        assert got.attention is None and want.attention is None


class TestHardWorldDecoding:
    @pytest.fixture(scope="class")
    def trained(self):
        world = make_hard_world(seed=17, word_dim=16)
        word_vocab = build_word_vocab([list(ex.tokens) for ex in world.train])
        tvocab = build_kg_vocab(world.kg.triples)
        config = ModelConfig(word_dim=16, kg_dim=16, enc_hidden=16, dec_hidden=32,
                             use_attention=True, seed=1, epochs=5, batch_size=4, lr=3e-3)
        from text2triple.corpus import Dataset
        result = model.train(Dataset(train=world.train), word_vocab, tvocab, config)
        return world, word_vocab, tvocab, config, result.params

    def test_batched_greedy_equals_single_sentence(self, trained):
        world, word_vocab, tvocab, config, params = trained
        tokens = [ex.tokens for ex in world.test]
        assert len({len(t) for t in tokens}) > 1
        batched = translate_greedy_batch(tokens, params, word_vocab, tvocab, config)
        assert len(batched) == len(tokens)
        for toks, got in zip(tokens, batched):
            alone = translate_greedy(toks, params, word_vocab, tvocab, config)
            assert got.ids == alone.ids and got.triple == alone.triple
            assert got.n_unk == alone.n_unk
            np.testing.assert_allclose(got.step_logprobs, alone.step_logprobs,
                                       rtol=0, atol=1e-12)

    def test_beam_width_one_equals_greedy(self, trained):
        world, word_vocab, tvocab, config, params = trained
        for ex in world.test[:20]:
            greedy = translate_greedy(ex.tokens, params, word_vocab, tvocab, config)
            (beam,) = translate_beam(ex.tokens, params, word_vocab, tvocab, config, 1)
            assert beam.ids == greedy.ids
            assert beam.step_logprobs == greedy.step_logprobs
            assert beam.total_logprob == greedy.total_logprob
            assert beam.attention.tobytes() == greedy.attention.tobytes()
