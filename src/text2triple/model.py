"""The sentence-to-triple network and its training loop.

Architecture: a bidirectional LSTM encoder over word embeddings, an affine
bridge from the concatenated final encoder state to the decoder's initial
hidden state, and a single-layer LSTM decoder that runs exactly three steps.
At step k the output logits are masked to the slot's sub-vocabulary
(entities / predicates / entities), so the emitted sequence is always a
well-formed triple. Multiplicative attention over the encoder states is
optional, as is initializing the embedding tables from pre-trained word
vectors (encoder) and TransE vectors (decoder).

Gradients are hand-derived and exact; `grad_check_fd` in `numerics` is the
independent oracle. Training is mini-batch Adam with global-norm clipping,
teacher forcing, per-epoch dev evaluation, best-checkpoint keeping and
patience-based early stopping. Everything is deterministic given the seed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .corpus import AnnotatedExample, Dataset, Triple
from .numerics import (
    AdamState,
    LstmWeights,
    Params,
    adam_step,
    clip_global_norm,
    global_norm,
    lstm_cell,
    lstm_cell_backward,
    make_rng,
    uniform_init,
    weighted_cross_entropy,
)
from .vocab import BOS_ID, UNK_ID, TripleVocab, WordVocab, decode_triple, encode_sentence

__all__ = [
    "DecodeResult",
    "EncoderOutputs",
    "EpochStats",
    "ModelConfig",
    "ModelParams",
    "TrainResult",
    "attend",
    "decode_step",
    "encode",
    "forward_loss",
    "init_decoder_state",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "translate_beam",
    "translate_greedy",
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
        for name in ("word_dim", "kg_dim", "enc_hidden", "dec_hidden", "max_src_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        self.step_weights = tuple(float(w) for w in self.step_weights)
        if len(self.step_weights) != 3:
            raise ValueError("step_weights must have exactly 3 entries")

    def flag_label(self) -> str:
        """Ablation row label: 'Seq2Seq' when all flags are off, else S+..."""
        flags = [
            name
            for name, on in (
                ("A", self.use_attention),
                ("W", self.use_word_init),
                ("G", self.use_kg_init),
            )
            if on
        ]
        return "S+" + "+".join(flags) if flags else "Seq2Seq"


@dataclass
class ModelParams:
    """All trainable tensors. `to_dict` fixes the canonical flat order used
    by the optimizer and the gradient checker."""

    enc_embed: np.ndarray            # (|V_w|, word_dim)
    enc_fwd: LstmWeights
    enc_bwd: LstmWeights
    dec_embed: np.ndarray            # (n_targets, kg_dim)
    dec_lstm: LstmWeights
    attn_w: np.ndarray | None        # (dec_hidden, 2*enc_hidden), iff attention
    bridge_w: np.ndarray             # (dec_hidden, 2*enc_hidden)
    bridge_b: np.ndarray             # (dec_hidden,)
    out_w: np.ndarray                # (n_targets, feat_dim)
    out_b: np.ndarray                # (n_targets,)

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
        """Uniform(-0.08, 0.08) everywhere except forget biases (1.0) and any
        provided pre-trained embedding tables, which are copied row-for-row."""
        enc_embed = uniform_init((n_words, config.word_dim), rng)
        enc_fwd = LstmWeights.init(config.word_dim, config.enc_hidden, rng)
        enc_bwd = LstmWeights.init(config.word_dim, config.enc_hidden, rng)
        dec_embed = uniform_init((n_targets, config.kg_dim), rng)
        dec_lstm = LstmWeights.init(config.kg_dim, config.dec_hidden, rng)
        attn_w = (
            uniform_init((config.dec_hidden, 2 * config.enc_hidden), rng)
            if config.use_attention
            else None
        )
        bridge_w = uniform_init((config.dec_hidden, 2 * config.enc_hidden), rng)
        bridge_b = uniform_init(config.dec_hidden, rng)
        feat_dim = config.dec_hidden + (2 * config.enc_hidden if config.use_attention else 0)
        out_w = uniform_init((n_targets, feat_dim), rng)
        out_b = uniform_init(n_targets, rng)
        if word_init is not None:
            if word_init.shape != enc_embed.shape:
                raise ValueError(
                    f"word init table shape {word_init.shape}, expected {enc_embed.shape}"
                )
            enc_embed = word_init.copy()
        if kg_init is not None:
            if kg_init.shape != dec_embed.shape:
                raise ValueError(
                    f"kg init table shape {kg_init.shape}, expected {dec_embed.shape}"
                )
            dec_embed = kg_init.copy()
        return cls(
            enc_embed, enc_fwd, enc_bwd, dec_embed, dec_lstm,
            attn_w, bridge_w, bridge_b, out_w, out_b,
        )

    def to_dict(self) -> Params:
        d: Params = {"enc_embed": self.enc_embed}
        d.update(self.enc_fwd.to_dict("enc_fwd"))
        d.update(self.enc_bwd.to_dict("enc_bwd"))
        d["dec_embed"] = self.dec_embed
        d.update(self.dec_lstm.to_dict("dec_lstm"))
        if self.attn_w is not None:
            d["attn_w"] = self.attn_w
        d["bridge_w"] = self.bridge_w
        d["bridge_b"] = self.bridge_b
        d["out_w"] = self.out_w
        d["out_b"] = self.out_b
        return d

    @classmethod
    def from_dict(cls, d: Params) -> "ModelParams":
        return cls(
            enc_embed=np.asarray(d["enc_embed"], dtype=np.float64),
            enc_fwd=LstmWeights.from_dict(d, "enc_fwd"),
            enc_bwd=LstmWeights.from_dict(d, "enc_bwd"),
            dec_embed=np.asarray(d["dec_embed"], dtype=np.float64),
            dec_lstm=LstmWeights.from_dict(d, "dec_lstm"),
            attn_w=np.asarray(d["attn_w"], dtype=np.float64) if "attn_w" in d else None,
            bridge_w=np.asarray(d["bridge_w"], dtype=np.float64),
            bridge_b=np.asarray(d["bridge_b"], dtype=np.float64),
            out_w=np.asarray(d["out_w"], dtype=np.float64),
            out_b=np.asarray(d["out_b"], dtype=np.float64),
        )

    def copy(self) -> "ModelParams":
        return ModelParams.from_dict({k: v.copy() for k, v in self.to_dict().items()})


@dataclass
class EncoderOutputs:
    """Per-step concatenated hidden states and the concatenated final state."""

    H: np.ndarray        # (T, 2*enc_hidden): [fwd_h[t]; bwd_h[t]]
    final: np.ndarray    # (2*enc_hidden,): [fwd_h[T-1]; bwd_h[0]]


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
# Forward pieces
# ---------------------------------------------------------------------------


def _zeros(n: int) -> np.ndarray:
    return np.zeros(n, dtype=np.float64)


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
    enc = EncoderOutputs(H=H, final=final)
    cache = {"src_ids": src_ids, "fwd_caches": fwd_caches, "bwd_caches": bwd_caches}
    return enc, cache


def encode(src_ids: Sequence[int], params: ModelParams, config: ModelConfig) -> EncoderOutputs:
    """Bidirectional encoder pass. H[t] concatenates the forward and backward
    hidden states at position t; `final` concatenates the two last outputs."""
    enc, _ = _encode_full(src_ids, params, config)
    return enc


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


def attend(
    dec_hidden: np.ndarray, enc: EncoderOutputs, attn_w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Multiplicative attention: scores[t] = dec_hidden . (attn_w @ H[t]).

    Returns (context, weights); weights softmax to 1 and the context is
    their weighted average of the encoder states.
    """
    scores = (enc.H @ attn_w.T) @ dec_hidden
    weights = _softmax1d(scores)
    return weights @ enc.H, weights


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
    recurrent state, and the attention row when attention is enabled."""
    fwd = _step_forward(step, prev_id, state, enc, params, config, tvocab)
    return fwd["logp"], fwd["state"], fwd["alpha"]


# ---------------------------------------------------------------------------
# Loss and exact gradients
# ---------------------------------------------------------------------------


def _loss_and_grads(
    src_ids: Sequence[int],
    gold_ids: tuple[int, int, int],
    params: ModelParams,
    config: ModelConfig,
    tvocab: TripleVocab,
) -> tuple[float, Params]:
    """Teacher-forced loss -sum_k w_k log p(y_k | y_<k, X) and exact grads."""
    enc, enc_cache = _encode_full(src_ids, params, config)
    src_ids = enc_cache["src_ids"]
    T = len(src_ids)
    nh = config.enc_hidden

    state = init_decoder_state(enc, params)
    prevs = (BOS_ID, gold_ids[0], gold_ids[1])
    steps = []
    loss = 0.0
    dlogits_list = []
    for k in range(3):
        fwd = _step_forward(k + 1, prevs[k], state, enc, params, config, tvocab)
        state = fwd["state"]
        probs = np.exp(fwd["logp"])
        step_loss, dlogits = weighted_cross_entropy(
            probs, gold_ids[k], config.step_weights[k]
        )
        loss += step_loss
        steps.append(fwd)
        dlogits_list.append(dlogits)

    grads: Params = {k: np.zeros_like(v) for k, v in params.to_dict().items()}
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
        dx, ds_next, dc_next, dw = lstm_cell_backward(
            ds, dc_next, fwd["cell_cache"], params.dec_lstm
        )
        for key, val in dw.items():
            grads[f"dec_lstm.{key}"] += val
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
        dx, carry_h, carry_c, dw = lstm_cell_backward(
            dfh[t] + carry_h, carry_c, enc_cache["fwd_caches"][t], params.enc_fwd
        )
        for key, val in dw.items():
            grads[f"enc_fwd.{key}"] += val
        dx_enc[t] += dx
    carry_h, carry_c = _zeros(nh), _zeros(nh)
    for t in range(T):  # backward LSTM processed positions T-1..0
        dx, carry_h, carry_c, dw = lstm_cell_backward(
            dbh[t] + carry_h, carry_c, enc_cache["bwd_caches"][t], params.enc_bwd
        )
        for key, val in dw.items():
            grads[f"enc_bwd.{key}"] += val
        dx_enc[t] += dx
    np.add.at(grads["enc_embed"], src_ids, dx_enc)
    return loss, grads


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
    """Loss and exact gradients for one example under teacher forcing."""
    src_ids = encode_sentence(example.tokens, word_vocab)
    return _loss_and_grads(src_ids, _gold_ids(example, tvocab), params, config, tvocab)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------


def _prepare_source(
    tokens: Sequence[str], word_vocab: WordVocab
) -> tuple[list[int], int]:
    src_ids = encode_sentence(tokens, word_vocab)
    return src_ids, sum(1 for i in src_ids if i == UNK_ID)


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
    src_ids, n_unk = _prepare_source(tokens, word_vocab)
    enc = encode(src_ids, params, config)
    state = init_decoder_state(enc, params)
    prev = BOS_ID
    ids: list[int] = []
    logps: list[float] = []
    attn_rows = []
    for step in (1, 2, 3):
        logp, state, alpha = decode_step(step, prev, state, enc, params, config, tvocab)
        best = int(np.argmax(logp))  # first max wins: lowest id on ties
        ids.append(best)
        logps.append(float(logp[best]))
        if alpha is not None:
            attn_rows.append(alpha)
        prev = best
    triple = Triple(*decode_triple(ids, tvocab))
    return DecodeResult(
        ids=tuple(ids),
        triple=triple,
        step_logprobs=tuple(logps),
        total_logprob=float(sum(logps)),
        attention=np.vstack(attn_rows) if attn_rows else None,
        n_unk=n_unk,
    )


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
    makes the top hypothesis the exhaustive argmax.
    """
    if width < 1:
        raise ValueError("beam width must be >= 1")
    src_ids, n_unk = _prepare_source(tokens, word_vocab)
    enc = encode(src_ids, params, config)
    state0 = init_decoder_state(enc, params)
    # Hypothesis: (total_logprob, ids, state, step_logps, attn_rows)
    hyps = [(0.0, (), state0, (), ())]
    for step in (1, 2, 3):
        expansions = []
        for total, ids, state, logps, attn in hyps:
            prev = ids[-1] if ids else BOS_ID
            logp, new_state, alpha = decode_step(
                step, prev, state, enc, params, config, tvocab
            )
            new_attn = attn + (alpha,) if alpha is not None else ()
            for idx in np.flatnonzero(logp > -np.inf):
                idx = int(idx)
                expansions.append((
                    total + float(logp[idx]),
                    ids + (idx,),
                    new_state,
                    logps + (float(logp[idx]),),
                    new_attn,
                ))
        expansions.sort(key=lambda e: (-e[0], e[1]))
        hyps = expansions[:width]
    results = []
    for total, ids, _, logps, attn in hyps:
        results.append(DecodeResult(
            ids=ids,
            triple=Triple(*decode_triple(list(ids), tvocab)),
            step_logprobs=logps,
            total_logprob=total,
            attention=np.vstack(attn) if attn else None,
            n_unk=n_unk,
        ))
    return results


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _dev_exact_match(
    dev: Sequence[AnnotatedExample],
    params: ModelParams,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
    config: ModelConfig,
) -> float:
    """Exact-match fraction; equals F1 when every example gets a prediction."""
    correct = 0
    for ex in dev:
        pred = translate_greedy(ex.tokens, params, word_vocab, tvocab, config).triple
        if pred == ex.gold:
            correct += 1
    return correct / len(dev)


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
    dropped up front and counted. After each epoch the dev split is scored
    by exact match; the best-dev checkpoint is kept and training stops
    early after `patience` epochs without improvement (or at a perfect dev
    score). A non-finite batch loss aborts training and the last good
    parameters are returned.
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

    prepared = []
    dropped = 0
    for ex in dataset.train:
        if not tvocab.has_triple_symbols(*ex.gold):
            dropped += 1
            continue
        prepared.append((encode_sentence(ex.tokens, word_vocab), _gold_ids(ex, tvocab)))
    if dropped:
        logger.warning("dropped %d training examples with out-of-vocabulary gold", dropped)
    if not prepared:
        raise ValueError("no training examples left after out-of-vocabulary filtering")

    state = AdamState.init(
        params.to_dict(), lr=config.lr, beta1=config.beta1,
        beta2=config.beta2, eps=config.adam_eps,
    )
    best_params = params
    best_f1: float | None = None
    bad_epochs = 0
    log: list[EpochStats] = []
    aborted = False
    n = len(prepared)

    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            batch_loss = 0.0
            acc: Params | None = None
            for j in batch:
                src_ids, gold_ids = prepared[j]
                loss, grads = _loss_and_grads(src_ids, gold_ids, params, config, tvocab)
                batch_loss += loss
                if acc is None:
                    acc = grads
                else:
                    for key in acc:
                        acc[key] += grads[key]
            scale = 1.0 / len(batch)
            batch_loss *= scale
            grads = {k: v * scale for k, v in acc.items()}
            if not math.isfinite(batch_loss) or not math.isfinite(global_norm(grads)):
                logger.error("non-finite loss at epoch %d; keeping last good params", epoch)
                aborted = True
                break
            grads = clip_global_norm(grads, config.clip_norm)
            new_flat, state = adam_step(params.to_dict(), grads, state)
            params = ModelParams.from_dict(new_flat)
            epoch_loss += batch_loss * len(batch)
        if aborted:
            break
        train_loss = epoch_loss / n
        dev_f1 = (
            _dev_exact_match(dataset.dev, params, word_vocab, tvocab, config)
            if dataset.dev
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

    final = best_params if best_f1 is not None else params
    return TrainResult(
        params=final, log=log, best_dev_f1=best_f1, aborted=aborted, dropped_oov=dropped
    )


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(
    path,
    params: ModelParams,
    config: ModelConfig,
    word_vocab: WordVocab,
    tvocab: TripleVocab,
) -> None:
    """Binary checkpoint: magic, JSON header, raw float64 payload.

    The format has no timestamps, so identical inputs write identical bytes
    and load(save(x)) round-trips bit for bit.
    """
    import hashlib
    import json
    import struct

    flat: Params = {}  # to_dict keys an LSTM `name.W`, `name.b`; on disk it is split per gate
    for key, arr in params.to_dict().items():
        lstm, _, leaf = key.partition(".")
        if leaf == "W":
            flat.update(getattr(params, lstm).gate_arrays(lstm))
        elif leaf != "b":
            flat[key] = arr
    payload = b"".join(
        np.ascontiguousarray(v, dtype=np.float64).tobytes() for v in flat.values()
    )
    header = {
        "version": CHECKPOINT_VERSION,
        "precision": "float64",
        "config": asdict(config),
        "words": list(word_vocab.tokens),
        "entities": list(tvocab.entities),
        "predicates": list(tvocab.predicates),
        "arrays": [{"name": k, "shape": list(v.shape)} for k, v in flat.items()],
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(payload)


_HEADER_KEYS = ("arrays", "config", "entities", "payload_sha256", "predicates", "words")
_CONFIG_KEYS = {f.name for f in fields(ModelConfig)}


def load_checkpoint(path) -> tuple[ModelParams, ModelConfig, WordVocab, TripleVocab]:
    """Read a checkpoint, validating version, integrity and shape consistency.

    Every defect in the file raises CheckpointError.
    """
    import hashlib
    import json
    import struct

    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(CHECKPOINT_MAGIC) + 8 or not data.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a checkpoint file")
    off = len(CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", data, off)
    off += 8
    if off + hlen > len(data):
        raise CheckpointError(f"{path}: truncated header")
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

    flat: Params = {}
    pos = 0
    for entry in entries:
        shape = tuple(entry["shape"])
        nbytes = 8 * math.prod(shape)
        flat[entry["name"]] = (
            np.frombuffer(payload[pos:pos + nbytes], dtype="<f8").reshape(shape).copy()
        )
        pos += nbytes

    cfg_dict = header["config"]
    if not isinstance(cfg_dict, dict) or cfg_dict.keys() != _CONFIG_KEYS:
        raise CheckpointError(f"{path}: config keys differ from ModelConfig fields")
    try:
        config = ModelConfig(**{**cfg_dict, "step_weights": tuple(cfg_dict["step_weights"])})
        word_vocab = WordVocab(tuple(header["words"]))
        tvocab = TripleVocab(tuple(header["entities"]), tuple(header["predicates"]))
        for lstm in ("enc_fwd", "enc_bwd", "dec_lstm"):
            flat.update(LstmWeights.from_gate_arrays(flat, lstm).to_dict(lstm))
        params = ModelParams.from_dict(flat)
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing array {exc.args[0]}") from exc
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc

    eh, dh = config.enc_hidden, config.dec_hidden
    feat_dim = dh + (2 * eh if config.use_attention else 0)
    checks = [
        (params.enc_embed.shape, (len(word_vocab), config.word_dim), "encoder embedding"),
        (params.dec_embed.shape, (tvocab.n_targets, config.kg_dim), "decoder embedding"),
        (params.out_w.shape, (tvocab.n_targets, feat_dim), "output projection"),
        (params.out_b.shape, (tvocab.n_targets,), "output bias"),
        (params.bridge_w.shape, (dh, 2 * eh), "bridge"),
        (params.bridge_b.shape, (dh,), "bridge bias"),
        (params.enc_fwd.W.shape, (4 * eh, config.word_dim + eh), "forward encoder LSTM"),
        (params.enc_bwd.W.shape, (4 * eh, config.word_dim + eh), "backward encoder LSTM"),
        (params.dec_lstm.W.shape, (4 * dh, config.kg_dim + dh), "decoder LSTM"),
    ]
    if config.use_attention:
        if params.attn_w is None:
            raise CheckpointError(f"{path}: attention enabled but no attn_w tensor")
        checks.append((params.attn_w.shape, (dh, 2 * eh), "attention"))
    for got, want, what in checks:
        if got != want:
            raise CheckpointError(f"{path}: {what} shape {got} inconsistent with {want}")
    return params, config, word_vocab, tvocab
