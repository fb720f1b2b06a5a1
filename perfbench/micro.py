"""timeit micro-runs of public kernels at the criterion-09 dimensions.

Each result is the median microseconds per call over several repeats, with
the call's floating-point operation count worked out from the shapes (the
matrix products plus one operation per elementwise arithmetic step;
transcendental functions count as one). Each kernel's run is one operation
of the benchmark. A kernel whose public names are gone after a refactor
reads 0 and is listed with the names, so a rewrite of the LSTM layer does
not break the benchmark; a kernel that is there but raises is a failed
operation, and fails the run.
"""

from __future__ import annotations

import os
import statistics
import timeit

from text2triple import model, numerics
from text2triple.vocab import BOS_ID

from inputs import CRITERION09, HardSetup

SOURCE_LEN = 10      # tokens in the micro-run sentence, near the hard world's mean
REPEATS = 5


def _per_call_us(fn, budget_s: float = 0.05) -> float:
    """Median microseconds per call over REPEATS runs of about budget_s each."""
    timer = timeit.Timer(fn)
    single = min(timer.repeat(repeat=3, number=1))
    number = max(1, int(budget_s / max(single, 1e-7)))
    return statistics.median(timer.repeat(repeat=REPEATS, number=number)) / number * 1e6


def lstm_flops(d: int, h: int) -> int:
    return 8 * h * (d + h) + 4 * h + 4 * 3 * h + 4 * h  # gates, bias, activations, c and h


def lstm_backward_flops(d: int, h: int) -> int:
    return 8 * h * (d + h) + 4 * h * (d + h) + 20 * h    # dz, weight outers, gate grads


def decode_step_flops(cfg: model.ModelConfig, n_targets: int, src_len: int) -> int:
    dh, e2 = cfg.dec_hidden, 2 * cfg.enc_hidden
    flops = lstm_flops(cfg.kg_dim, dh)
    feat = dh
    if cfg.use_attention:
        flops += 2 * src_len * e2 * dh + 2 * src_len * dh + 3 * src_len + 2 * src_len * e2
        feat += e2
    return flops + 2 * n_targets * feat + n_targets + 3 * n_targets


def run(setup: HardSetup, seed: int, scratch_dir, rec) -> tuple[dict[str, tuple], dict[str, str]]:
    """Returns ({metric: (value, unit)}, {unavailable kernel: reason}).
    Counts each kernel as an operation of ``rec``."""
    metrics: dict[str, tuple] = {}
    unavailable: dict[str, str] = {}
    rng = numerics.make_rng(seed + 7)
    cfg = model.ModelConfig(**CRITERION09, seed=seed)
    n_words, n_targets = len(setup.word_vocab), setup.tvocab.n_targets

    def guarded(name: str, needs, body, keys) -> None:
        missing = [f"{mod.__name__}.{attr}" for mod, attr in needs if not hasattr(mod, attr)]
        if missing:
            unavailable[name] = "names not found: " + ", ".join(missing)
        else:
            rec.attempted += 1
            try:
                body()
            except Exception as exc:  # a kernel that raises is a failed operation
                rec.fail(f"micro {name}: {type(exc).__name__}: {exc}")
        for key, unit in keys:
            metrics.setdefault(key, (0.0, unit))

    def lstm_pair():
        d, h = cfg.word_dim, cfg.enc_hidden
        w = numerics.LstmWeights.init(d, h, rng)
        x, h0, c0 = rng.normal(size=d), rng.normal(size=h), rng.normal(size=h)
        metrics["numerics.lstm_cell.us"] = (_per_call_us(
            lambda: numerics.lstm_cell(x, h0, c0, w)), "us")
        metrics["numerics.lstm_cell.flops"] = (lstm_flops(d, h), "flop")
        _, _, cache = numerics.lstm_cell(x, h0, c0, w)
        dh, dc = rng.normal(size=h), rng.normal(size=h)
        metrics["numerics.lstm_cell_backward.us"] = (_per_call_us(
            lambda: numerics.lstm_cell_backward(dh, dc, cache, w)), "us")
        metrics["numerics.lstm_cell_backward.flops"] = (lstm_backward_flops(d, h), "flop")

    def adam():
        params = model.ModelParams.init(cfg, n_words, n_targets, rng).to_dict()
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        state = numerics.AdamState.init(params, lr=cfg.lr)
        metrics["numerics.adam_step.us"] = (_per_call_us(
            lambda: numerics.adam_step(params, grads, state)), "us")
        metrics["numerics.adam_step.flops"] = (10 * sum(v.size for v in params.values()), "flop")

    def decode(attention: bool):
        def body():
            c = model.ModelConfig(**{**CRITERION09, "use_attention": attention}, seed=seed)
            params = model.ModelParams.init(c, n_words, n_targets, rng)
            src = [int(i) for i in rng.integers(3, n_words, size=SOURCE_LEN)]
            enc = model.encode(src, params, c)
            state = model.init_decoder_state(enc, params)
            key = "model.decode_step_attn" if attention else "model.decode_step_noattn"
            metrics[f"{key}.us"] = (_per_call_us(
                lambda: model.decode_step(1, BOS_ID, state, enc, params, c, setup.tvocab)), "us")
            metrics[f"{key}.flops"] = (decode_step_flops(c, n_targets, SOURCE_LEN), "flop")
        return body

    def checkpoint():
        params = model.ModelParams.init(cfg, n_words, n_targets, rng)
        path = os.path.join(scratch_dir, "micro.ckpt")
        save = lambda: model.save_checkpoint(path, params, cfg, setup.word_vocab, setup.tvocab)  # noqa: E731
        metrics["model.save_checkpoint.ms"] = (_per_call_us(save, 0.2) / 1e3, "ms")
        metrics["model.load_checkpoint.ms"] = (
            _per_call_us(lambda: model.load_checkpoint(path), 0.2) / 1e3, "ms")
        metrics["model.checkpoint_bytes"] = (os.path.getsize(path), "bytes")
        os.remove(path)

    def timed(prefix):
        return ((f"{prefix}.us", "us"), (f"{prefix}.flops", "flop"))

    decoding = ((model, "ModelParams"), (model, "encode"), (model, "init_decoder_state"),
                (model, "decode_step"))
    guarded("numerics.lstm_cell", ((numerics, "LstmWeights"), (numerics, "lstm_cell"),
                                   (numerics, "lstm_cell_backward")), lstm_pair,
            timed("numerics.lstm_cell") + timed("numerics.lstm_cell_backward"))
    guarded("numerics.adam_step", ((model, "ModelParams"), (numerics, "AdamState"),
                                   (numerics, "adam_step")), adam, timed("numerics.adam_step"))
    guarded("model.decode_step_attn", decoding, decode(True), timed("model.decode_step_attn"))
    guarded("model.decode_step_noattn", decoding, decode(False),
            timed("model.decode_step_noattn"))
    guarded("model.checkpoint", ((model, "ModelParams"), (model, "save_checkpoint"),
                                 (model, "load_checkpoint")), checkpoint,
            (("model.save_checkpoint.ms", "ms"), ("model.load_checkpoint.ms", "ms"),
             ("model.checkpoint_bytes", "bytes")))
    return metrics, unavailable
