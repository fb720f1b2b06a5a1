"""The sentence-to-triple network and its training loop.

Architecture: a bidirectional LSTM encoder over word embeddings, an affine
bridge from the concatenated final encoder state to the decoder's initial
hidden state, and a single-layer LSTM decoder that runs exactly three steps.
At step k the output logits are masked to the slot's sub-vocabulary
(entities / predicates / entities), so the emitted sequence is always a
well-formed triple. Multiplicative attention over the encoder states is
optional, as is initializing the embedding tables from pre-trained word
vectors (encoder) and TransE vectors (decoder).

The parameters are stated once, by `_param_layout`, and live in one float64
vector; `ModelParams` names views into it. Initialization fills the vector
with one draw, the gradients fill a vector with the same views (`train`
keeps one such vector for the whole run), Adam and clipping update them in
place, and a checkpoint's payload is its bytes: `load_checkpoint` checks the
header's config and vocabularies, then its array table, then the payload.

Gradients are hand-derived and exact. Every LSTM runs forward as a
`numerics.lstm_sequence` scan and backward through `lstm_sequence_backward`;
decoding steps the decoder with the forward-only `lstm_cell`. The loss, the
cross-entropy of the three steps summed, and its logits gradient are formed
from the log-probs in `_loss_and_grads`. The gradients of `forward_loss` come
as a dict of arrays named as in `ModelParams.to_dict`. `grad_check_fd` in
`numerics` is the independent oracle. Training is mini-batch Adam with
global-norm clipping, teacher forcing, per-epoch dev evaluation,
best-checkpoint keeping and patience-based early stopping. Everything is
deterministic given the seed.

One batched core serves every caller. A batch of B sources is padded to its
longest row, T ids. Both encoder LSTMs run in one scan over the (T, B)
batch, the backward one over each row reversed, and each row's final
states are read at its last real step. Padded positions hold exact zeros,
attention gives them weight exactly 0, and the backward pass gives them
gradient exactly 0. Training runs one padded forward/backward pass per
minibatch (under teacher forcing the three decoder steps are one
sequence). One loop, `_decode`, decodes: beam search over chunks of
DECODE_BATCH sources, each step running all their live hypotheses as one
batch, with greedy decoding as its width-1 case. Dev scoring and
`translate_greedy_batch` (the `eval` and `ablation` sub-commands) decode
many sources at once; `translate_greedy`, `translate_beam`, `encode`,
`init_decoder_state`, `decode_step` (the step-by-step reference) and
`forward_loss` are batches of one. Every path turns decoder states into
log-probabilities through one readout, `_readout`: attention, the output
layer and the log-softmax masked to each step's slot. Sentences come in
through `_sources` (ids, UNK counts and one warning per call for the
sources that `_encode_batch` cuts to max_src_len), and every decoded row,
greedy or beam, goes out as a `DecodeResult` through `_result`, whose total
is the sum of its three log-probs.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
import time
from dataclasses import asdict, dataclass, field, fields
from itertools import zip_longest
from typing import ClassVar, Sequence

import numpy as np

from .corpus import AnnotatedExample, Dataset, Triple
from .numerics import (
    Adam,
    LstmWeights,
    adam_step,
    add_rows,
    check_fields,
    clip_global_norm,
    lstm_cell,
    lstm_sequence,
    lstm_sequence_backward,
    make_rng,
    uniform_init,
)
from .vocab import PAD_ID, UNK_ID, TripleVocab, WordVocab, decode_triple, encode_sentence
from .vocab import write_files

__all__ = [
    "DecodeResult",
    "EncoderOutputs",
    "EpochStats",
    "ModelConfig",
    "ModelParams",
    "TrainResult",
    "checkpoint_bytes",
    "decode_step",
    "encode",
    "forward_loss",
    "init_decoder_state",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "translate_beam",
    "translate_greedy",
    "translate_greedy_batch",
]

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"TX2TCKPT"
CHECKPOINT_VERSION = 3


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt or inconsistent."""


@dataclass
class ModelConfig:
    """Dimensions, ablation flags and training hyperparameters.

    FLAGS maps each ablation letter to its flag field. All off is the plain
    Seq2Seq configuration, all on the full model.
    """

    FLAGS: ClassVar[dict] = {"A": "use_attention", "W": "use_word_init", "G": "use_kg_init"}

    word_dim: int = 64
    kg_dim: int = 64
    enc_hidden: int = 64
    dec_hidden: int = 128
    use_attention: bool = True
    use_word_init: bool = False
    use_kg_init: bool = False
    max_src_len: int = 64
    seed: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    clip_norm: float = 5.0
    epochs: int = 50
    batch_size: int = 8
    patience: int = 10

    def __post_init__(self):
        check_fields(self, positive=("lr", "adam_eps"))
        if not self.clip_norm > 0:  # inf never clips
            raise ValueError("clip_norm must be positive")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")

    def flag_label(self) -> str:
        """Ablation row label: 'Seq2Seq' when all flags are off, else S+..."""
        on = [letter for letter, name in self.FLAGS.items() if getattr(self, name)]
        return "S+" + "+".join(on) if on else "Seq2Seq"


Layout = Sequence[tuple[str, tuple[int, ...]]]


def _param_layout(config: ModelConfig, n_words: int, n_targets: int) -> Layout:
    """Every trainable array as (name, shape), in canonical order. Each LSTM
    is stacked, name.W (4H, D+H) and name.b (4H,); only LSTM arrays have
    dotted names. attn_w exists iff attention is on."""
    eh, dh = config.enc_hidden, config.dec_hidden

    def lstm(name: str, n_in: int, n: int):
        return [(f"{name}.W", (4 * n, n_in + n)), (f"{name}.b", (4 * n,))]

    return [
        ("enc_embed", (n_words, config.word_dim)),
        *lstm("enc_fwd", config.word_dim, eh),
        *lstm("enc_bwd", config.word_dim, eh),
        ("dec_embed", (n_targets, config.kg_dim)),
        *lstm("dec_lstm", config.kg_dim, dh),
        *([("attn_w", (dh, 2 * eh))] if config.use_attention else []),
        ("bridge_w", (dh, 2 * eh)),
        ("bridge_b", (dh,)),
        ("out_w", (n_targets, dh + (2 * eh if config.use_attention else 0))),
        ("out_b", (n_targets,)),
    ]


@dataclass(frozen=True)
class ModelParams:
    """All trainable tensors, as named views into one float64 vector `vec`.
    `layout` (not compared or shown) is the _param_layout they were viewed
    with, which `like`, `to_dict` and checkpoint_bytes read; an LSTM field
    holds the layout's name.W and name.b."""

    vec: np.ndarray
    enc_embed: np.ndarray
    enc_fwd: LstmWeights
    enc_bwd: LstmWeights
    dec_embed: np.ndarray
    dec_lstm: LstmWeights
    attn_w: np.ndarray | None        # None when attention is off
    bridge_w: np.ndarray
    bridge_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    layout: Layout = field(compare=False, repr=False)

    @classmethod
    def view(cls, vec: np.ndarray, layout: Layout) -> "ModelParams":
        """Named views into vec, which must be a float64 vector holding
        exactly the layout's values."""
        if vec.dtype != np.float64 or vec.shape != (_size(layout),):
            raise ValueError(f"parameter vector of dtype {vec.dtype} and shape {vec.shape}, "
                             f"expected float64 and ({_size(layout)},) for this layout")
        arrays = {"attn_w": None, **_views(vec, layout)}
        for lstm in [name.split(".")[0] for name in arrays if name.endswith(".W")]:
            arrays[lstm] = LstmWeights(arrays.pop(f"{lstm}.W"), arrays.pop(f"{lstm}.b"))
        return cls(vec, layout=layout, **arrays)

    @classmethod
    def init(
        cls,
        config: ModelConfig,
        n_words: int,
        n_targets: int,
        rng: np.random.Generator,
        word_init: np.ndarray | None = None,
        kg_init: np.ndarray | None = None,
    ) -> "ModelParams":
        """One Uniform(-0.08, 0.08) draw over the vector, which is the same
        stream as one draw per array in _param_layout's order; then each
        LSTM's forget bias is set and any provided pre-trained embedding
        table is copied row-for-row."""
        layout = _param_layout(config, n_words, n_targets)
        params = cls.view(uniform_init(_size(layout), rng), layout)
        for lstm in (v for v in vars(params).values() if isinstance(v, LstmWeights)):
            lstm.init_forget_bias()
        for what, table, embed in (("word", word_init, params.enc_embed),
                                   ("kg", kg_init, params.dec_embed)):
            if table is not None:
                if table.shape != embed.shape:
                    raise ValueError(f"{what} init table shape {table.shape}, "
                                     f"expected {embed.shape}")
                embed[...] = table
        return params

    def to_dict(self) -> dict[str, np.ndarray]:
        """The views flat, named and ordered as in the layout."""
        return _views(self.vec, self.layout)

    def like(self, vec: np.ndarray) -> "ModelParams":
        """The same named views into another vector."""
        return self.view(vec, self.layout)

    def copy(self) -> "ModelParams":
        return self.like(self.vec.copy())


def _size(layout: Layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


def _views(vec: np.ndarray, layout: Layout) -> dict[str, np.ndarray]:
    """vec cut into the layout's arrays, by name in layout order."""
    views, pos = {}, 0
    for name, shape in layout:
        n = math.prod(shape)
        views[name] = vec[pos:pos + n].reshape(shape)
        pos += n
    return views


@dataclass
class DecodeResult:
    """One decoded triple with per-step log-probabilities and attention."""

    ids: tuple[int, int, int]
    triple: Triple
    step_logprobs: tuple[float, float, float]
    total_logprob: float
    attention: np.ndarray | None     # (3, T) rows summing to 1, iff attention
    n_unk: int                       # source tokens that mapped to UNK


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    dev_f1: float | None
    seconds: float


@dataclass
class TrainResult:
    params: ModelParams
    log: list[EpochStats]
    best_dev_f1: float | None
    aborted: bool = False
    dropped_oov: int = 0


# ---------------------------------------------------------------------------
# The batched core
# ---------------------------------------------------------------------------
#
# Training, dev scoring, eval, translate and beam search all run the same
# padded batch of B sources. Inside the LSTM scans the encoder is time-major,
# (T, direction, B, .); attention reads it batch-major, (B, T, .). Position t
# of row b is padding when t is past that source's length: the LSTMs run on
# there, but no final state is read from it, its encoder states are exact
# zeros, attention gives it weight exactly 0, and its gradients are exactly
# 0. The single-sentence functions below are B=1 views of this core.

DECODE_BATCH = 64  # sources per decoding chunk, each with up to `width` hypotheses


@dataclass
class EncoderOutputs:
    """A padded batch of B encoded sources, T positions each: per-position
    concatenated hidden states, the concatenated final states, the padding
    mask and the states' attention projection."""

    H: np.ndarray            # (B, T, 2*enc_hidden); exact zeros on padding
    final: np.ndarray        # (B, 2*enc_hidden): [fwd state at end; bwd state at start]
    pad: np.ndarray | None   # (B, 1, T), True on padding; None when no row is padded
    AH: np.ndarray | None    # (B, T, dec_hidden) = H @ attn_w.T, iff attention


def _sources(token_lists: Sequence[Sequence[str]], word_vocab: WordVocab, config: ModelConfig,
             what: str) -> tuple[list[list[int]], list[int]]:
    """Each sentence's word ids and its UNK count, over the whole sentence.
    The sources longer than max_src_len are counted in one warning; each
    batch's _encode_batch cuts them."""
    sources = [encode_sentence(tokens, word_vocab) for tokens in token_lists]
    n_cut = sum(len(s) > config.max_src_len for s in sources)
    if n_cut:
        logger.warning("truncated %d of %d %s sources to max_src_len=%d",
                       n_cut, len(sources), what, config.max_src_len)
    return sources, [s.count(UNK_ID) for s in sources]


def _encode_batch(sources: Sequence[Sequence[int]], params: ModelParams, config: ModelConfig):
    """Bidirectional encoder over a batch of id lists, each cut to
    max_src_len; returns (enc, cache).

    Both LSTMs run in one scan over all T steps. The backward one reads
    each row reversed, so it too meets the row's padding last, and both
    final states of row b are its states at step lengths[b] - 1. H is
    exactly zero on padding, so nothing the PAD embedding holds reaches
    attention.
    """
    sources = [list(s[:config.max_src_len]) for s in sources]
    lengths = [len(s) for s in sources]
    if min(lengths) < 1:
        raise ValueError("cannot encode an empty sentence")
    B, T, nh = len(sources), max(lengths), config.enc_hidden
    # both_ids[t, 0, b] / [t, 1, b]: the word the forward / backward LSTM reads at step t
    both_ids = np.full((T, 2, B), PAD_ID)
    for b, s in enumerate(sources):
        both_ids[:len(s), 0, b] = s
        both_ids[:len(s), 1, b] = s[::-1]
    live = np.arange(T)[:, None] < np.array(lengths)                # (T, B)
    pad = ~live.T if min(lengths) < T else None                     # (B, T)
    hs, lstm_cache = lstm_sequence(params.enc_embed[both_ids], (params.enc_fwd, params.enc_bwd))
    H = np.zeros((B, T, 2 * nh))
    H[:, :, :nh] = hs[:, 0].transpose(1, 0, 2)
    if pad is not None:
        H[pad] = 0.0
    for b, n in enumerate(lengths):
        H[b, :n, nh:] = hs[n - 1::-1, 1, b]
    enc = EncoderOutputs(
        H=H,
        final=hs[np.array(lengths) - 1, :, np.arange(B)].reshape(B, 2 * nh),
        pad=None if pad is None else pad[:, None, :],
        AH=(H.reshape(B * T, 2 * nh) @ params.attn_w.T).reshape(B, T, -1)
        if config.use_attention else None,
    )
    return enc, (both_ids, lengths, live, lstm_cache)


def _bridge(final: np.ndarray, params: ModelParams) -> np.ndarray:
    return final @ params.bridge_w.T + params.bridge_b


def _attention(q: np.ndarray, enc: EncoderOutputs) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative attention of queries q (B, K, dec_hidden) over enc.H:
    weights (B, K, T), exactly 0 on padding, and contexts (B, K, 2*enc_hidden)."""
    scores = q @ enc.AH.transpose(0, 2, 1)
    if enc.pad is not None:
        scores = np.where(enc.pad, -np.inf, scores)
    e = np.exp(scores - scores.max(axis=2, keepdims=True))
    alpha = e / e.sum(axis=2, keepdims=True)
    return alpha, alpha @ enc.H


def _masked_log_softmax(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis restricted to mask; off-mask entries
    are exactly -inf."""
    x = np.where(mask, logits, -np.inf)
    x -= x.max(axis=-1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=-1, keepdims=True))


def _readout(S: np.ndarray, mask: np.ndarray, enc: EncoderOutputs, params: ModelParams,
             config: ModelConfig):
    """The output layer over decoder states S (B, K, dec_hidden): (log-probs
    (B, K, n_targets) masked to `mask`, which broadcasts against them,
    attention (B, K, T) or None, the output layer's input (B*K, feat))."""
    B, K, _ = S.shape
    feat, alpha = S, None
    if config.use_attention:
        alpha, ctx = _attention(S, enc)
        feat = np.concatenate([S, ctx], axis=2)
    feat2 = feat.reshape(B * K, -1)
    logits = (feat2 @ params.out_w.T + params.out_b).reshape(B, K, -1)
    return _masked_log_softmax(logits, mask), alpha, feat2


def encode(src_ids: Sequence[int], params: ModelParams, config: ModelConfig) -> EncoderOutputs:
    """Bidirectional encoder pass over one sentence, as a batch of one.
    H[0, t] concatenates the forward and backward hidden states at position
    t; `final` concatenates the two last outputs; AH is H projected by
    attn_w, once per sentence, when attention is on."""
    return _encode_batch([src_ids], params, config)[0]


def init_decoder_state(
    enc: EncoderOutputs, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Bridge the concatenated final encoder state of encode's one sentence
    to the decoder's initial hidden state; the initial cell is zeros."""
    return _bridge(enc.final[0], params), np.zeros(params.bridge_w.shape[0])


def decode_step(
    step: int,
    prev_id: int,
    state: tuple[np.ndarray, np.ndarray],
    enc: EncoderOutputs,
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray | None]:
    """One decoder step: log-probability row over the full target space
    (probability mass outside the step's mask is exactly zero), the new
    recurrent state, and the attention row when attention is enabled.

    prev_id is the target id emitted at the step before; step 1 ignores it
    and reads the BOS target, tvocab.bos_id. The decoders step whole batches
    of hypotheses in _decode; this one-row step is their step-by-step
    reference.
    """
    prev = tvocab.bos_id if step == 1 else prev_id
    h, c = lstm_cell(params.dec_embed[[prev]], state[0][None], state[1][None], params.dec_lstm)
    logp, alpha, _ = _readout(h[:, None], tvocab.step_mask(step), enc, params, config)
    return logp[0, 0], (h[0], c[0]), None if alpha is None else alpha[0, 0]


# ---------------------------------------------------------------------------
# Loss and exact gradients
# ---------------------------------------------------------------------------


def _loss_and_grads(
    sources: Sequence[Sequence[int]],
    gold: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
    out: ModelParams | None = None,
) -> tuple[float, ModelParams]:
    """Teacher-forced loss -sum_k log p(y_k | y_<k, X) averaged over a
    batch of sources with gold target ids (B, 3), and its exact gradients,
    written into `out` (params' layout over another vector) when given, else
    into a fresh vector; returns (loss, the gradients).

    The two embedding views are zeroed and then accumulated into; every
    other view is overwritten whole by a GEMM or a sum, so whatever `out`
    held before does not reach the result.
    """
    enc, (both_ids, lengths, live, enc_cache) = _encode_batch(sources, params, config)
    T, B = live.shape
    nh, dh = config.enc_hidden, config.dec_hidden
    grads = params.like(np.empty(params.vec.size)) if out is None else out
    grads.enc_embed.fill(0.0)
    grads.dec_embed.fill(0.0)

    # The decoder's three inputs are known under teacher forcing, so it runs
    # as one sequence and the output layer as one GEMM over all B*3 steps.
    prev = np.stack([np.full(B, tvocab.bos_id), gold[:, 0], gold[:, 1]])  # (3, B)
    dec_h, dec_cache = lstm_sequence(
        params.dec_embed[prev][:, None], (params.dec_lstm,), h0=_bridge(enc.final, params)
    )
    S = dec_h[:, 0].transpose(1, 0, 2)                                  # (B, 3, dh)
    logp, alpha, feat2 = _readout(S, tvocab.step_masks, enc, params, config)
    # Cross-entropy and its logits gradient p - onehot(gold), from the
    # log-probs, so a non-finite forward pass reaches train's abort.
    at_gold = (np.arange(B)[:, None], np.arange(3), gold)
    losses = -logp[at_gold]
    dlogits = np.exp(logp)
    dlogits[at_gold] -= 1.0
    scale = 1.0 / B
    dlogits *= scale
    dlogits2 = dlogits.reshape(B * 3, -1)

    np.matmul(dlogits2.T, feat2, out=grads.out_w)
    dlogits2.sum(axis=0, out=grads.out_b)
    dfeat = dlogits @ params.out_w                                      # (B, 3, feat)
    d_hs = np.zeros((T, 2, B, nh))     # dL/d(encoder outputs), in scan order
    if config.use_attention:
        dctx = dfeat[:, :, dh:]
        dalpha = dctx @ enc.H.transpose(0, 2, 1)
        dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=2, keepdims=True))
        dS = dfeat[:, :, :dh] + dscores @ enc.AH
        np.matmul(S.reshape(B * 3, dh).T, (dscores @ enc.H).reshape(B * 3, 2 * nh),
                  out=grads.attn_w)
        dH = alpha.transpose(0, 2, 1) @ dctx + dscores.transpose(0, 2, 1) @ (S @ params.attn_w)
        d_hs[:, 0] = dH[:, :, :nh].transpose(1, 0, 2)
        for b, n in enumerate(lengths):
            d_hs[:n, 1, b] = dH[b, n - 1::-1, nh:]
    else:
        dS = dfeat
    dx_dec, dh0 = lstm_sequence_backward(
        dS.transpose(1, 0, 2)[:, None], dec_cache, (params.dec_lstm,), (grads.dec_lstm,)
    )
    dh0 = dh0[0]
    add_rows(grads.dec_embed, prev, dx_dec[:, 0])

    # Bridge, then the encoder: each row's final state feeds its last real
    # step of both scans. Past it the upstream gradient is exactly 0, so
    # nothing flows back from padded steps.
    np.matmul(dh0.T, enc.final, out=grads.bridge_w)
    dh0.sum(axis=0, out=grads.bridge_b)
    dfinal = dh0 @ params.bridge_w
    d_hs[np.array(lengths) - 1, :, np.arange(B)] += dfinal.reshape(B, 2, nh)
    dx_enc, _ = lstm_sequence_backward(
        d_hs, enc_cache, (params.enc_fwd, params.enc_bwd), (grads.enc_fwd, grads.enc_bwd)
    )
    valid = np.broadcast_to(live[:, None, :], both_ids.shape)
    add_rows(grads.enc_embed, both_ids[valid], dx_enc[valid])
    return float(losses.sum()) * scale, grads


def _gold_ids(example: AnnotatedExample, tvocab: TripleVocab) -> tuple[int, int, int]:
    gold = example.gold
    try:
        return tvocab.encode_triple(gold.subject, gold.predicate, gold.object)
    except KeyError as exc:
        raise ValueError(f"{example.source_id}: gold triple outside vocabulary: {exc}")


def forward_loss(
    example: AnnotatedExample,
    params: ModelParams,
    config: ModelConfig,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and exact gradients, named as in ModelParams.to_dict, for one
    example under teacher forcing."""
    sources, _ = _sources([example.tokens], word_vocab, config, "input")
    gold = np.array([_gold_ids(example, tvocab)])
    loss, grads = _loss_and_grads(sources, gold, params, config, tvocab)
    return loss, grads.to_dict()


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _result(ids: np.ndarray, logps: np.ndarray, attention: np.ndarray | None, n_unk: int,
            tvocab: TripleVocab) -> DecodeResult:
    """A decoded row, greedy or beam: its three target ids and their log-probs,
    whose sum is its total."""
    ids = tuple(int(i) for i in ids)
    logps = tuple(float(v) for v in logps)
    return DecodeResult(ids, Triple(*decode_triple(ids, tvocab)), logps, sum(logps),
                        attention, n_unk)


def _decode(sources: Sequence[Sequence[int]], n_unks: Sequence[int], params: ModelParams,
            config: ModelConfig, tvocab: TripleVocab, width: int) -> list[list[DecodeResult]]:
    """Beam search by summed log-probability over the three steps, in chunks
    of DECODE_BATCH sources with up to `width` live hypotheses each; every
    step runs the chunk's (B, K) hypotheses as one batch. Returns each
    source's hypotheses, best first: total descending, ties toward lower id
    sequences. Width 1 is greedy decoding: each step takes the first
    maximum, the lowest id on ties. Attention rows are cropped to each
    source's encoded length."""
    out = []
    for start in range(0, len(sources), DECODE_BATCH):
        enc, (_, lengths, _, _) = _encode_batch(sources[start:start + DECODE_BATCH],
                                                params, config)
        B = len(lengths)
        rows = np.arange(B)[:, None]
        # The live hypotheses, (B, K), kept in id-sequence order until step 3;
        # the LSTM state holds them as B*K rows.
        h = _bridge(enc.final, params)
        c = np.zeros_like(h)
        token = np.full((B, 1), tvocab.bos_id)
        totals = np.zeros((B, 1))
        ids = np.empty((B, 1, 3), dtype=np.int64)
        logps = np.empty((B, 1, 3))
        attn = np.empty((B, 1, 3, enc.H.shape[1])) if config.use_attention else None
        for k, step in enumerate((1, 2, 3)):
            K = token.shape[1]
            h, c = lstm_cell(params.dec_embed[token.ravel()], h, c, params.dec_lstm)
            mask = tvocab.step_mask(step)
            logp, alpha, _ = _readout(h.reshape(B, K, -1), mask, enc, params, config)
            if width == 1:  # every row is its own parent
                token = logp.argmax(axis=2)
                picked = logp[rows, 0, token]
            else:
                # A stable sort of the flat (parent, token) candidates breaks
                # ties toward lower id sequences; off-mask ones are -inf.
                cand = (totals[:, :, None] + logp).reshape(B, -1)
                keep = np.argsort(-cand, axis=1, kind="stable")[:, :min(width, K * mask.sum())]
                if step < 3:
                    keep.sort(axis=1)
                totals = cand[rows, keep]
                parent, token = np.divmod(keep, logp.shape[2])
                picked = logp[rows, parent, token]
                state_rows = (rows * K + parent).ravel()
                h, c = h[state_rows], c[state_rows]
                ids, logps = ids[rows, parent], logps[rows, parent]
                if attn is not None:
                    attn, alpha = attn[rows, parent], alpha[rows, parent]
            ids[:, :, k] = token
            logps[:, :, k] = picked
            if attn is not None:
                attn[:, :, k] = alpha
        for b, n in enumerate(lengths):
            out.append([_result(ids[b, k], logps[b, k],
                                None if attn is None else attn[b, k, :, :n],
                                n_unks[start + b], tvocab) for k in range(ids.shape[1])])
    return out


def translate_greedy_batch(
    token_lists: Sequence[Sequence[str]],
    params: ModelParams,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
    config: ModelConfig,
) -> list[DecodeResult]:
    """translate_greedy for many sentences, decoded in padded batches."""
    results = _decode(*_sources(token_lists, word_vocab, config, "input"), params, config,
                      tvocab, 1)
    return [hyps[0] for hyps in results]


def translate_greedy(
    tokens: Sequence[str],
    params: ModelParams,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
    config: ModelConfig,
) -> DecodeResult:
    """Argmax at each of the three steps, feeding predictions forward.

    Ties break toward the lowest target id. UNK-heavy inputs still decode;
    the result carries the UNK count.
    """
    return translate_greedy_batch([tokens], params, word_vocab, tvocab, config)[0]


def translate_beam(
    tokens: Sequence[str],
    params: ModelParams,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
    config: ModelConfig,
    width: int,
) -> list[DecodeResult]:
    """Beam search over the three fixed steps by summed log-probability.

    Results come back sorted by total log-probability, non-increasing, ties
    toward lower id sequences. A width of at least |entities|^2*|predicates|
    makes the top hypothesis the exhaustive argmax. Width 1 is exactly
    translate_greedy.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    return _decode(*_sources([tokens], word_vocab, config, "input"), params, config, tvocab,
                   width)[0]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(
    dataset: Dataset,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
    config: ModelConfig,
    word_init: np.ndarray | None = None,
    kg_init: np.ndarray | None = None,
) -> TrainResult:
    """Mini-batch Adam on the teacher-forced loss.

    Shuffling, init and everything downstream draw from config.seed only.
    Examples whose gold triple falls outside the target vocabulary are
    dropped up front and counted; sources longer than max_src_len are
    counted once, up front. Each minibatch is one padded forward/backward
    pass. After each epoch the dev split is scored by exact match, which
    equals F1 since every example gets a prediction; the best-dev
    checkpoint is kept and training stops early after `patience` epochs
    without improvement (or at a perfect dev score). A non-finite batch
    loss aborts training and the last good parameters are returned.
    """
    if not dataset.train:
        raise ValueError("training split is empty")
    if config.use_word_init and word_init is None:
        raise ValueError("use_word_init set but no word_init table provided")
    if config.use_kg_init and kg_init is None:
        raise ValueError("use_kg_init set but no kg_init table provided")

    rng = make_rng(config.seed)
    params = ModelParams.init(
        config, len(word_vocab), tvocab.n_targets, rng,
        word_init=word_init if config.use_word_init else None,
        kg_init=kg_init if config.use_kg_init else None,
    )

    kept = [ex for ex in dataset.train if tvocab.has_triple_symbols(*ex.gold)]
    dropped = len(dataset.train) - len(kept)
    if dropped:
        logger.warning("dropped %d training examples with out-of-vocabulary gold", dropped)
    if not kept:
        raise ValueError("no training examples left after out-of-vocabulary filtering")
    sources, _ = _sources([ex.tokens for ex in kept], word_vocab, config, "training")
    golds = np.array([_gold_ids(ex, tvocab) for ex in kept])
    dev_sources = _sources([ex.tokens for ex in dataset.dev], word_vocab, config, "dev")

    state = Adam(params.vec.size, lr=config.lr, beta1=config.beta1,
                 beta2=config.beta2, eps=config.adam_eps)
    grads_out = params.like(np.empty(params.vec.size))  # every minibatch's gradients
    best_params: ModelParams | None = None
    best_f1: float | None = None
    bad_epochs = 0
    log: list[EpochStats] = []
    aborted = False
    n = len(sources)

    # The finite-loss check below reports a diverging run; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, config.epochs + 1):
            t0 = time.perf_counter()
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, config.batch_size):
                batch = order[start:start + config.batch_size]
                batch_loss, grads = _loss_and_grads(
                    [sources[j] for j in batch], golds[batch], params, config, tvocab,
                    out=grads_out,
                )
                grad_norm = clip_global_norm(grads.vec, config.clip_norm)
                if not math.isfinite(batch_loss) or not math.isfinite(grad_norm):
                    logger.error("non-finite loss at epoch %d; keeping last good params", epoch)
                    aborted = True
                    break
                adam_step(params.vec, grads.vec, state)
                epoch_loss += batch_loss * len(batch)
            if aborted:
                break
            train_loss = epoch_loss / n
            dev_f1 = None
            if dataset.dev:
                results = _decode(*dev_sources, params, config, tvocab, 1)
                dev_f1 = sum(hyps[0].triple == ex.gold
                             for hyps, ex in zip(results, dataset.dev)) / len(dataset.dev)
            log.append(EpochStats(epoch, train_loss, dev_f1, time.perf_counter() - t0))
            logger.info(
                "epoch %d: train_loss=%.4f dev_f1=%s", epoch, train_loss,
                "n/a" if dev_f1 is None else f"{dev_f1:.4f}",
            )
            if dev_f1 is not None:
                if best_f1 is None or dev_f1 > best_f1:
                    best_f1 = dev_f1
                    best_params = params.copy()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                if best_f1 >= 1.0 or bad_epochs >= config.patience:
                    break

    final = params if best_params is None else best_params
    return TrainResult(
        params=final, log=log, best_dev_f1=best_f1, aborted=aborted, dropped_oov=dropped
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def checkpoint_bytes(
    params: ModelParams,
    config: ModelConfig,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
) -> bytes:
    """Binary checkpoint: magic, JSON header, little-endian float64 payload.

    The header's array table is _param_layout's, entry for entry, so the
    payload is the parameter vector. The format has no timestamps, so
    identical inputs give identical bytes and load(save(x)) round-trips bit
    for bit.
    """
    if list(params.layout) != _param_layout(config, len(word_vocab), tvocab.n_targets):
        raise ValueError("parameter shapes do not fit the config and vocabularies")
    payload = params.vec.astype("<f8", copy=False).tobytes()
    header = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "words": list(word_vocab.tokens),
        "entities": list(tvocab.entities),
        "predicates": list(tvocab.predicates),
        "arrays": _array_table(params.layout),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def save_checkpoint(path, params: ModelParams, config: ModelConfig, word_vocab: WordVocab,
                    tvocab: TripleVocab) -> None:
    """Write checkpoint_bytes to path."""
    write_files({path: checkpoint_bytes(params, config, word_vocab, tvocab)})


def _array_table(layout: Layout) -> list[dict]:
    """The header's array table: one {"name", "shape"} entry per layout entry."""
    return [{"name": name, "shape": list(shape)} for name, shape in layout]


_HEADER_KEYS = ("arrays", "config", "entities", "payload_sha256", "predicates", "words")
_CONFIG_KEYS = {f.name for f in fields(ModelConfig)}


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, WordVocab, TripleVocab]:
    """Read a checkpoint: header, then array table, then payload.

    The table must be the one checkpoint_bytes writes for the _param_layout
    that the header's config and vocabs fix, compared as JSON entry for
    entry. Every defect in the file raises CheckpointError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 8 or not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", data, off)
    off += 8
    if off + hlen > len(data):
        raise CheckpointError(
            f"{path}: header length {hlen} runs past the end of the {len(data)}-byte file"
        )
    try:
        header = json.loads(data[off:off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    off += hlen
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint version {header.get('version')}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    missing = [k for k in _HEADER_KEYS if k not in header]
    if missing:
        raise CheckpointError(f"{path}: header lacks {', '.join(missing)}")
    unknown = sorted(header.keys() - {"version", *_HEADER_KEYS})
    if unknown:
        raise CheckpointError(f"{path}: header has unknown keys {', '.join(unknown)}")
    cfg_dict = header["config"]
    keys = cfg_dict.keys() if isinstance(cfg_dict, dict) else set()
    if keys != _CONFIG_KEYS:
        raise CheckpointError(f"{path}: config keys differ from ModelConfig fields: unexpected "
                              f"{sorted(keys - _CONFIG_KEYS)}, missing {sorted(_CONFIG_KEYS - keys)}")
    try:
        config = ModelConfig(**cfg_dict)
        word_vocab = WordVocab(tuple(header["words"]))
        tvocab = TripleVocab(tuple(header["entities"]), tuple(header["predicates"]))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    layout = _param_layout(config, len(word_vocab), tvocab.n_targets)
    # compared as JSON text, so a dimension 32.0 or true is not the 32 or 1 it equals
    table = header["arrays"]
    found = ([json.dumps(e, sort_keys=True) for e in table] if isinstance(table, list)
             else [f"{json.dumps(table, sort_keys=True)} (not a list)"])
    want = [json.dumps(e, sort_keys=True) for e in _array_table(layout)]
    if found != want:
        i, got, expected = next(
            (i, f, w) for i, (f, w) in enumerate(zip_longest(found, want)) if f != w
        )
        raise CheckpointError(
            f"{path}: array table inconsistent with config and vocab at entry {i}: "
            f"found {got or 'nothing'}, expected {expected or 'nothing'}"
        )
    payload, size = data[off:], 8 * _size(layout)
    if len(payload) != size:
        raise CheckpointError(f"{path}: truncated payload ({len(payload)} bytes, expected {size})")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch")
    vec = np.frombuffer(payload, "<f8").astype(np.float64)
    params = ModelParams.view(vec, layout)
    return params, config, word_vocab, tvocab
