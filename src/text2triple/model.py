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
with one draw, the gradients fill a vector with the same views, Adam and
clipping update them in place, and a checkpoint's payload is its bytes.

Gradients are hand-derived and exact; `grad_check_fd` in `numerics` is the
independent oracle. Training is mini-batch Adam with global-norm clipping,
teacher forcing, per-epoch dev evaluation, best-checkpoint keeping and
patience-based early stopping. Everything is deterministic given the seed.

One batched core serves every caller. A batch of B sources is padded to its
longest row, T ids. Both encoder LSTMs run in one scan over the (T, B)
batch, the backward one over each row reversed; a length mask freezes each
row's state past its end, so the last step holds every final state.
Attention gives padded positions weight exactly 0, and the backward pass
gives them gradient exactly 0. Training runs one padded forward/backward
pass per minibatch (under teacher forcing the three decoder steps are one
sequence). Dev scoring, `translate_greedy_batch` (the `eval` and `ablation`
sub-commands) decode greedily in batches of DECODE_BATCH sources; beam
search runs each step's live hypotheses as one batch; `encode`,
`init_decoder_state`, `decode_step`, `translate_greedy` and `forward_loss`
are batches of one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
import time
from dataclasses import asdict, dataclass, fields
from itertools import zip_longest
from typing import Sequence, get_type_hints

import numpy as np

from .corpus import AnnotatedExample, Dataset, Triple
from .numerics import (
    GATES,
    Adam,
    LstmWeights,
    Params,
    adam_step,
    as_int,
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
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, corrupt or inconsistent."""


@dataclass
class ModelConfig:
    """Dimensions, ablation flags and training hyperparameters.

    Flags: use_attention (A), use_word_init (W), use_kg_init (G). All off is
    the plain Seq2Seq configuration, all on the full model.
    """

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
    step_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        sizes = ("word_dim", "kg_dim", "enc_hidden", "dec_hidden", "max_src_len",
                 "epochs", "batch_size", "patience")
        for name in (*sizes, "seed"):
            setattr(self, name, as_int(name, getattr(self, name)))
        for name in sizes:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("lr", "clip_norm", "adam_eps"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1)")
        self.step_weights = tuple(float(w) for w in self.step_weights)
        if len(self.step_weights) != 3:
            raise ValueError("step_weights must have exactly 3 entries")

    def flag_label(self) -> str:
        """Ablation row label: 'Seq2Seq' when all flags are off, else S+..."""
        flags = (("A", self.use_attention), ("W", self.use_word_init), ("G", self.use_kg_init))
        on = [name for name, flag in flags if flag]
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
    """All trainable tensors, as named views into one float64 vector `vec`,
    laid out in _param_layout's order. `to_dict` gives the views flat and
    named, an LSTM field as name.W and name.b."""

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

    @classmethod
    def view(cls, vec: np.ndarray, layout: Layout) -> "ModelParams":
        """Named views into vec, which must be a float64 vector holding
        exactly the layout's values."""
        if vec.dtype != np.float64 or vec.shape != (_size(layout),):
            raise ValueError(f"parameter vector of dtype {vec.dtype} and shape {vec.shape}, "
                             f"expected float64 and ({_size(layout)},) for this layout")
        arrays, pos = {}, 0
        for name, shape in layout:
            n = math.prod(shape)
            arrays[name] = vec[pos:pos + n].reshape(shape)
            pos += n
        return cls(vec, **{
            name: LstmWeights(arrays[f"{name}.W"], arrays[f"{name}.b"])
            if name in _LSTM_FIELDS else arrays.get(name)
            for name in _ARRAY_FIELDS
        })

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
        for name in _LSTM_FIELDS:
            getattr(params, name).init_forget_bias()
        for what, table, embed in (("word", word_init, params.enc_embed),
                                   ("kg", kg_init, params.dec_embed)):
            if table is not None:
                if table.shape != embed.shape:
                    raise ValueError(f"{what} init table shape {table.shape}, "
                                     f"expected {embed.shape}")
                embed[...] = table
        return params

    def to_dict(self) -> Params:
        """The views by name, in layout order; attn_w is absent when it is None."""
        d: Params = {}
        for name in _ARRAY_FIELDS:
            value = getattr(self, name)
            if name in _LSTM_FIELDS:
                d[f"{name}.W"], d[f"{name}.b"] = value.W, value.b
            elif value is not None:
                d[name] = value
        return d

    def like(self, vec: np.ndarray) -> "ModelParams":
        """The same named views into another vector."""
        return self.view(vec, [(k, v.shape) for k, v in self.to_dict().items()])

    def copy(self) -> "ModelParams":
        return self.like(self.vec.copy())


def _size(layout: Layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


_ARRAY_FIELDS = tuple(f.name for f in fields(ModelParams))[1:]
_LSTM_FIELDS = tuple(name for name, kind in get_type_hints(ModelParams).items()
                     if kind is LstmWeights)


@dataclass
class EncoderOutputs:
    """Per-step concatenated hidden states, the concatenated final state
    and the states' attention projection."""

    H: np.ndarray          # (T, 2*enc_hidden): [fwd_h[t]; bwd_h[t]]
    final: np.ndarray      # (2*enc_hidden,): [fwd_h[T-1]; bwd_h[0]]
    AH: np.ndarray | None  # (T, dec_hidden) = H @ attn_w.T, iff attention


@dataclass
class DecodeResult:
    """One decoded triple with per-step log-probabilities and attention."""

    ids: tuple[int, int, int]
    triple: Triple
    step_logprobs: tuple[float, float, float]
    total_logprob: float
    attention: np.ndarray | None     # (3, T) rows summing to 1, iff attention
    n_unk: int = 0                   # source tokens that mapped to UNK


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
# of row b is padding when t is past that source's length: the LSTMs freeze
# the row's state there, attention gives it weight exactly 0, and its
# gradients are exactly 0. The single-sentence functions below are B=1 views
# of this core.

DECODE_BATCH = 64  # sources per greedy-decoding batch


@dataclass
class _EncodedBatch:
    H: np.ndarray            # (B, T, 2*enc_hidden); finite filler on padding
    final: np.ndarray        # (B, 2*enc_hidden): [fwd state at end; bwd state at start]
    pad: np.ndarray | None   # (B, 1, T), True on padding; None when no row is padded
    AH: np.ndarray | None    # (B, T, dec_hidden) = H @ attn_w.T, iff attention


def _clip_sources(sources: Sequence[Sequence[int]], max_len: int) -> tuple[list[list[int]], int]:
    """Cut every source to max_len ids; returns them and how many were cut."""
    return [list(s[:max_len]) for s in sources], sum(len(s) > max_len for s in sources)


def _encode_batch(sources: Sequence[Sequence[int]], params: ModelParams, config: ModelConfig):
    """Bidirectional encoder over a batch of id lists; returns (enc, cache).

    Both LSTMs run in one scan. The backward one reads each row reversed,
    so it too meets the row's padding last.
    """
    sources, n_cut = _clip_sources(sources, config.max_src_len)
    if n_cut:
        logger.warning("truncating %d source(s) to max_src_len=%d", n_cut, config.max_src_len)
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
    padded = min(lengths) < T
    hs, lstm_cache = lstm_sequence(
        params.enc_embed[both_ids], (params.enc_fwd, params.enc_bwd),
        lengths=np.array(lengths) if padded else None,
    )
    H = np.zeros((B, T, 2 * nh))
    H[:, :, :nh] = hs[:, 0].transpose(1, 0, 2)
    for b, n in enumerate(lengths):
        H[b, :n, nh:] = hs[n - 1::-1, 1, b]
    enc = _EncodedBatch(
        H=H,
        final=np.concatenate([hs[-1, 0], hs[-1, 1]], axis=1),
        pad=~live.T[:, None, :] if padded else None,
        AH=(H.reshape(B * T, 2 * nh) @ params.attn_w.T).reshape(B, T, -1)
        if config.use_attention else None,
    )
    return enc, (both_ids, lengths, live, lstm_cache)


def _batch_of_one(enc: EncoderOutputs) -> _EncodedBatch:
    """A single sentence's encoder outputs as a batch of one."""
    return _EncodedBatch(enc.H[None], enc.final[None], None,
                         None if enc.AH is None else enc.AH[None])


def _bridge(final: np.ndarray, params: ModelParams) -> np.ndarray:
    return final @ params.bridge_w.T + params.bridge_b


def _attention(q: np.ndarray, enc: _EncodedBatch) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative attention of queries q (B, K, dec_hidden) over enc.H:
    weights (B, K, T), exactly 0 on padding, and contexts (B, K, 2*enc_hidden).
    A batch of one encoding broadcasts against K queries of many rows."""
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


def _decode_batch_step(
    step: int,
    prev_ids: np.ndarray,
    state: tuple[np.ndarray, np.ndarray],
    enc: _EncodedBatch,
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
):
    """One decoder step for B rows: (logp (B, n_targets), new state,
    attention (B, T) or None). Step 1 reads the BOS target, not prev_ids."""
    if step not in (1, 2, 3):
        raise ValueError(f"invalid decoding step {step}")
    if step == 1:
        prev_ids = np.full(len(state[0]), tvocab.bos_id)
    h, c, _ = lstm_cell(params.dec_embed[prev_ids], state[0], state[1], params.dec_lstm)
    feat, alpha = h, None
    if config.use_attention:
        alpha, ctx = _attention(h[:, None, :], enc)
        alpha = alpha[:, 0]
        feat = np.concatenate([h, ctx[:, 0]], axis=1)
    logits = feat @ params.out_w.T + params.out_b
    return _masked_log_softmax(logits, tvocab.step_mask(step)), (h, c), alpha


def encode(src_ids: Sequence[int], params: ModelParams, config: ModelConfig) -> EncoderOutputs:
    """Bidirectional encoder pass. H[t] concatenates the forward and backward
    hidden states at position t; `final` concatenates the two last outputs;
    AH is H projected by attn_w, once per sentence, when attention is on."""
    enc, _ = _encode_batch([src_ids], params, config)
    return EncoderOutputs(H=enc.H[0], final=enc.final[0],
                          AH=None if enc.AH is None else enc.AH[0])


def init_decoder_state(
    enc: EncoderOutputs, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Bridge the concatenated final encoder state to the decoder's initial
    hidden state; the initial cell is zeros."""
    return _bridge(enc.final, params), np.zeros(params.bridge_w.shape[0])


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
    and reads the BOS target, tvocab.bos_id.
    """
    logp, (h, c), alpha = _decode_batch_step(
        step, np.array([prev_id]), (state[0][None], state[1][None]), _batch_of_one(enc),
        params, config, tvocab,
    )
    return logp[0], (h[0], c[0]), None if alpha is None else alpha[0]


# ---------------------------------------------------------------------------
# Loss and exact gradients
# ---------------------------------------------------------------------------


def _loss_and_grads(
    sources: Sequence[Sequence[int]],
    gold: np.ndarray,
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
) -> tuple[float, ModelParams]:
    """Teacher-forced loss -sum_k w_k log p(y_k | y_<k, X) averaged over a
    batch of sources with gold target ids (B, 3), and its exact gradients,
    written into a fresh vector with params' layout."""
    enc, (both_ids, lengths, live, enc_cache) = _encode_batch(sources, params, config)
    T, B = live.shape
    nh, dh = config.enc_hidden, config.dec_hidden
    grads = ModelParams.view(np.zeros(params.vec.size), _param_layout(
        config, params.enc_embed.shape[0], params.out_b.shape[0]))

    # The decoder's three inputs are known under teacher forcing, so it runs
    # as one sequence and the output layer as one GEMM over all B*3 steps.
    prev = np.stack([np.full(B, tvocab.bos_id), gold[:, 0], gold[:, 1]])  # (3, B)
    dec_h, dec_cache = lstm_sequence(
        params.dec_embed[prev][:, None], (params.dec_lstm,), h0=_bridge(enc.final, params)
    )
    S = dec_h[:, 0].transpose(1, 0, 2)                                  # (B, 3, dh)
    if config.use_attention:
        alpha, ctx = _attention(S, enc)
        feat = np.concatenate([S, ctx], axis=2)
    else:
        feat = S
    feat2 = feat.reshape(B * 3, -1)
    logits = (feat2 @ params.out_w.T + params.out_b).reshape(B, 3, -1)
    logp = _masked_log_softmax(logits, np.stack([tvocab.step_mask(k) for k in (1, 2, 3)]))
    # Weighted cross-entropy and its logits gradient w * (p - onehot(gold)),
    # from the log-probs, so a non-finite forward pass reaches train's abort.
    w = np.asarray(config.step_weights)
    at_gold = (np.arange(B)[:, None], np.arange(3), gold)
    losses = -w * logp[at_gold]
    dlogits = w[:, None] * np.exp(logp)
    dlogits[at_gold] -= w
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
    np.add.at(grads.dec_embed, prev, dx_dec[:, 0])

    # Bridge, then the encoder: the final state feeds the last forward step
    # and the last step of the reversed backward scan.
    np.matmul(dh0.T, enc.final, out=grads.bridge_w)
    dh0.sum(axis=0, out=grads.bridge_b)
    dfinal = dh0 @ params.bridge_w
    d_hs[-1] += dfinal.reshape(B, 2, nh).transpose(1, 0, 2)
    dx_enc, _ = lstm_sequence_backward(
        d_hs, enc_cache, (params.enc_fwd, params.enc_bwd), (grads.enc_fwd, grads.enc_bwd)
    )
    valid = np.broadcast_to(live[:, None, :], both_ids.shape)
    np.add.at(grads.enc_embed, both_ids[valid], dx_enc[valid])
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
) -> tuple[float, Params]:
    """Loss and exact gradients, named as in ModelParams.to_dict, for one
    example under teacher forcing."""
    src_ids = encode_sentence(example.tokens, word_vocab)
    gold = np.array([_gold_ids(example, tvocab)])
    loss, grads = _loss_and_grads([src_ids], gold, params, config, tvocab)
    return loss, grads.to_dict()


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _prepare_source(
    tokens: Sequence[str], word_vocab: WordVocab
) -> tuple[list[int], int]:
    src_ids = encode_sentence(tokens, word_vocab)
    return src_ids, sum(1 for i in src_ids if i == UNK_ID)


def _greedy_decode(
    sources: Sequence[Sequence[int]],
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
) -> list[tuple[tuple[int, int, int], tuple[float, float, float], np.ndarray | None]]:
    """Greedy decoding in batches of DECODE_BATCH sources; per source the
    target ids, their log-probs and the (3, T) attention rows (or None)."""
    out = []
    for start in range(0, len(sources), DECODE_BATCH):
        chunk = sources[start:start + DECODE_BATCH]
        enc, _ = _encode_batch(chunk, params, config)
        B = len(chunk)
        state = (_bridge(enc.final, params), np.zeros((B, config.dec_hidden)))
        prev = None  # step 1 reads BOS
        ids = np.empty((B, 3), dtype=np.int64)
        logps = np.empty((B, 3))
        attn = np.empty((B, 3, enc.H.shape[1])) if config.use_attention else None
        for k, step in enumerate((1, 2, 3)):
            logp, state, alpha = _decode_batch_step(
                step, prev, state, enc, params, config, tvocab
            )
            prev = logp.argmax(axis=1)  # first max wins: lowest id on ties
            ids[:, k] = prev
            logps[:, k] = logp[np.arange(B), prev]
            if attn is not None:
                attn[:, k] = alpha
        for b, src in enumerate(chunk):
            n = min(len(src), config.max_src_len)
            out.append((
                tuple(int(i) for i in ids[b]),
                tuple(float(v) for v in logps[b]),
                None if attn is None else attn[b, :, :n],
            ))
    return out


def translate_greedy_batch(
    token_lists: Sequence[Sequence[str]],
    params: ModelParams,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
    config: ModelConfig,
) -> list[DecodeResult]:
    """translate_greedy for many sentences, decoded in padded batches."""
    prepared = [_prepare_source(tokens, word_vocab) for tokens in token_lists]
    decoded = _greedy_decode([src for src, _ in prepared], params, config, tvocab)
    return [
        DecodeResult(
            ids=ids,
            triple=Triple(*decode_triple(list(ids), tvocab)),
            step_logprobs=logps,
            total_logprob=float(sum(logps)),
            attention=attn,
            n_unk=n_unk,
        )
        for (ids, logps, attn), (_, n_unk) in zip(decoded, prepared)
    ]


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
    makes the top hypothesis the exhaustive argmax. Each step runs the live
    hypotheses as one batch.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    src_ids, n_unk = _prepare_source(tokens, word_vocab)
    enc, _ = _encode_batch([src_ids], params, config)
    state = (_bridge(enc.final, params), np.zeros((1, config.dec_hidden)))
    # Live hypotheses, one row each.
    totals = np.zeros(1)
    ids = np.zeros((1, 0), dtype=np.int64)
    logps = np.zeros((1, 0))
    attn = np.zeros((1, 0, enc.H.shape[1]))
    for step in (1, 2, 3):
        prev = ids[:, -1] if step > 1 else None
        logp, state, alpha = _decode_batch_step(step, prev, state, enc, params, config, tvocab)
        allowed = np.flatnonzero(tvocab.step_mask(step))
        K, V = len(totals), len(allowed)
        cand = (totals[:, None] + logp[:, allowed]).ravel()
        parent = np.repeat(np.arange(K), V)
        token = np.tile(allowed, K)
        # by total descending, then by id sequence ascending
        keep = np.lexsort((token, *ids[parent].T[::-1], -cand))[:width]
        parent, token = parent[keep], token[keep]
        totals = cand[keep]
        ids = np.column_stack([ids[parent], token])
        logps = np.column_stack([logps[parent], logp[parent, token]])
        state = (state[0][parent], state[1][parent])
        if alpha is not None:
            attn = np.concatenate([attn[parent], alpha[parent][:, None]], axis=1)
    return [
        DecodeResult(
            ids=tuple(int(i) for i in ids[k]),
            triple=Triple(*decode_triple(list(ids[k]), tvocab)),
            step_logprobs=tuple(float(v) for v in logps[k]),
            total_logprob=float(totals[k]),
            attention=attn[k] if config.use_attention else None,
            n_unk=n_unk,
        )
        for k in range(len(totals))
    ]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _dev_exact_match(
    sources: Sequence[Sequence[int]],
    golds: Sequence[Triple],
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
) -> float:
    """Exact-match fraction; equals F1 when every example gets a prediction."""
    decoded = _greedy_decode(sources, params, config, tvocab)
    correct = sum(
        Triple(*decode_triple(list(ids), tvocab)) == gold
        for (ids, _, _), gold in zip(decoded, golds)
    )
    return correct / len(golds)


def _prepare_split(examples, word_vocab: WordVocab, config: ModelConfig, split: str):
    """Encode a split's sources once, cut to max_src_len with one warning."""
    sources, n_cut = _clip_sources(
        [encode_sentence(ex.tokens, word_vocab) for ex in examples], config.max_src_len
    )
    if n_cut:
        logger.warning("truncated %d of %d %s sources to max_src_len=%d",
                       n_cut, len(sources), split, config.max_src_len)
    return sources


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
    dropped up front and counted; sources longer than max_src_len are cut
    once, up front. Each minibatch is one padded forward/backward pass.
    After each epoch the dev split is scored by exact match; the best-dev
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
    sources = _prepare_split(kept, word_vocab, config, "training")
    golds = np.array([_gold_ids(ex, tvocab) for ex in kept])
    dev_sources = _prepare_split(dataset.dev, word_vocab, config, "dev")
    dev_golds = [ex.gold for ex in dataset.dev]

    state = Adam(params.vec.size, lr=config.lr, beta1=config.beta1,
                 beta2=config.beta2, eps=config.adam_eps)
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
                    [sources[j] for j in batch], golds[batch], params, config, tvocab
                )
                grad_norm = clip_global_norm(grads.to_dict().values(), config.clip_norm)
                if not math.isfinite(batch_loss) or not math.isfinite(grad_norm):
                    logger.error("non-finite loss at epoch %d; keeping last good params", epoch)
                    aborted = True
                    break
                adam_step(params.vec, grads.vec, state)
                epoch_loss += batch_loss * len(batch)
            if aborted:
                break
            train_loss = epoch_loss / n
            dev_f1 = (
                _dev_exact_match(dev_sources, dev_golds, params, config, tvocab)
                if dev_sources
                else None
            )
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


def _checkpoint_layout(config: ModelConfig, n_words: int, n_targets: int) -> Layout:
    """The v1 checkpoint's array table, each entry (name, shape).

    It is _param_layout with each LSTM array split into its row blocks by
    gate, name_i name_f name_o name_g. The blocks' bytes in turn are the
    stacked array's, so the payload is the bytes of _param_layout's arrays.
    """
    table = []
    for name, shape in _param_layout(config, n_words, n_targets):
        if "." in name:
            table += [(f"{name}_{g}", (shape[0] // len(GATES), *shape[1:])) for g in GATES]
        else:
            table.append((name, shape))
    return table


def checkpoint_bytes(
    params: ModelParams,
    config: ModelConfig,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
) -> bytes:
    """Binary checkpoint: magic, JSON header, raw float64 payload.

    The format has no timestamps, so identical inputs give identical bytes
    and load(save(x)) round-trips bit for bit.
    """
    layout = _param_layout(config, len(word_vocab), tvocab.n_targets)
    if [(k, v.shape) for k, v in params.to_dict().items()] != layout:
        raise ValueError("parameter shapes do not fit the config and vocabularies")
    payload = params.vec.astype("<f8", copy=False).tobytes()
    header = {
        "version": CHECKPOINT_VERSION,
        "precision": "float64",
        "config": asdict(config),
        "words": list(word_vocab.tokens),
        "entities": list(tvocab.entities),
        "predicates": list(tvocab.predicates),
        "arrays": [{"name": k, "shape": list(shape)} for k, shape in
                   _checkpoint_layout(config, len(word_vocab), tvocab.n_targets)],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<Q", len(blob)) + blob + payload


def save_checkpoint(path, params: ModelParams, config: ModelConfig, word_vocab: WordVocab,
                    tvocab: TripleVocab) -> None:
    """Write checkpoint_bytes to path."""
    write_files({path: checkpoint_bytes(params, config, word_vocab, tvocab)})


_HEADER_KEYS = ("arrays", "config", "entities", "payload_sha256", "predicates", "words")
_CONFIG_KEYS = {f.name for f in fields(ModelConfig)}


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, WordVocab, TripleVocab]:
    """Read a checkpoint, validating version, integrity and the array table.

    The table must equal the layout that the header's config and vocabs
    imply, entry for entry. Every defect in the file raises CheckpointError.
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
    entries = header["arrays"]
    if not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("name"), str)
        and isinstance(e.get("shape"), list)
        and all(type(n) is int and n >= 0 for n in e["shape"])
        for e in entries
    ):
        raise CheckpointError(f"{path}: malformed array table (each entry needs a "
                              f"name and a list of non-negative int dimensions)")
    payload = data[off:]
    expect = sum(8 * math.prod(a["shape"]) for a in entries)
    if len(payload) != expect:
        raise CheckpointError(
            f"{path}: truncated payload ({len(payload)} bytes, expected {expect})"
        )
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch")

    cfg_dict = header["config"]
    if not isinstance(cfg_dict, dict) or cfg_dict.keys() != _CONFIG_KEYS:
        raise CheckpointError(f"{path}: config keys differ from ModelConfig fields")
    try:
        config = ModelConfig(**{**cfg_dict, "step_weights": tuple(cfg_dict["step_weights"])})
        word_vocab = WordVocab(tuple(header["words"]))
        tvocab = TripleVocab(tuple(header["entities"]), tuple(header["predicates"]))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    layout = _checkpoint_layout(config, len(word_vocab), tvocab.n_targets)
    found = [(e["name"], tuple(e["shape"])) for e in entries]
    if found != layout:
        i, got, want = next(
            (i, f, w) for i, (f, w) in enumerate(zip_longest(found, layout)) if f != w
        )
        raise CheckpointError(
            f"{path}: array table inconsistent with config and vocab at entry {i}: "
            f"found {got or 'nothing'}, expected {want or 'nothing'}"
        )
    # The table is _checkpoint_layout's, so the payload is the parameter vector.
    vec = np.frombuffer(payload, "<f8").astype(np.float64)
    params = ModelParams.view(vec, _param_layout(config, len(word_vocab), tvocab.n_targets))
    return params, config, word_vocab, tvocab
