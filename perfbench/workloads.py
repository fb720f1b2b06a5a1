"""The three workloads: set-up, one round of timed operations, output checks.

Each workload is a closed loop with one client: ``round`` issues its
operations one after another, each only once the previous one returned.
Every operation is timed on its own, and its output is checked outside the
timed region. An operation that raises, or whose output fails a check,
counts as failed.

Every workload has three jobs, which fill the same three end-to-end slots
(``jobs``). Each slot is the median over the run's operations, in units of
the reference kernel's duration (see ``Recorder``); the summary also gives
the raw medians, per second and in ms:

========  ===============================  ===============================  =============================
workload  primary_per_ref                  secondary_per_ref                single_ref
========  ===============================  ===============================  =============================
train     training examples, criterion-09  training examples at the train   one ``forward_loss`` call
          setup (``train_examples``)       sub-command's default config     (one example's loss and grads)
infer     ``eval`` sentences: greedy,      ``translate_beam`` sentences     one ``translate`` call:
          evaluate, error_taxonomy         at a fixed width                 tokenize, translate_greedy
prep      ``distant_supervise`` sentences  ``transe_train`` triples         one ``link_prediction_eval``
          over the 20k-triple KG           (epochs x |KG|)                  query, both sides ranked
========  ===============================  ===============================  =============================
"""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from text2triple import corpus, embeddings, model, numerics, scoring, vocab
from text2triple.corpus import Dataset
from text2triple.scoring import ErrorCategory
from text2triple.vocab import BOS_ID

from inputs import CRITERION09, Sizes, hard_setup, infer_test_set, prep_inputs


_REF_W = np.full((16, 16), 0.01)
_REF_TABLE = np.linspace(-1.0, 1.0, 600 * 64).reshape(600, 64)
_REF_ROW = np.linspace(0.5, -0.5, 64)


def interpreter_kernel() -> float:
    """Fixed work in the mix most of the library does: interpreter loops
    over dicts and lists, and numpy calls on 16-wide vectors."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        table[i % 97] = acc
        acc += i * i % 7
    h = np.ones(16)
    for _ in range(60):
        h = np.tanh(_REF_W @ h + 0.1)
    return acc + float(h[0])


def array_kernel() -> float:
    """Fixed work in the mix of link prediction: whole-table numpy
    arithmetic and row reductions over a 600 x 64 table."""
    acc = 0.0
    for _ in range(3):
        diff = _REF_ROW - _REF_TABLE
        acc += float(np.sqrt((diff * diff).sum(axis=1)).min())
        acc += float(np.abs(_REF_TABLE + _REF_ROW).sum(axis=1).max())
    return acc


def kernel_s(kernel) -> float:
    """Seconds for one run of a reference kernel, the faster of two. The
    library never runs these kernels, so no change to it changes them."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


# A round figure near interpreter_kernel's duration on the 2-core x86-64
# machine the benchmark was tuned on (0.33-0.65 ms with Python 3.11,
# depending on the machine's speed state). It turns set-up time in
# reference units back into seconds; only ratios between runs matter.
NOMINAL_REFERENCE_S = 0.4e-3


def setup_reference_s() -> float:
    """The interpreter kernel's duration for bracketing one set-up: the
    median of several runs, as a set-up has no neighbours to average with."""
    return statistics.median(kernel_s(interpreter_kernel) for _ in range(9))


class Recorder:
    """Timings per operation kind, operation counts and check tallies.

    The speed of a shared machine flips between states for seconds to
    minutes (about 1.7 times slower in the slow one), and not every kind of
    code slows by the same factor. So each operation is bracketed by runs of
    a reference kernel with the operation's instruction mix. Its time in
    reference units, seconds over the mean of the two brackets, cancels the
    change; the end-to-end figures are read from it (see ``Job``).
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)     # seconds
        self.refs: dict[str, list[float]] = defaultdict(list)        # bracket seconds
        self.calls: dict[str, list[float]] = defaultdict(list)       # seconds per call
        self.attempted = 0
        self.failed = 0
        self.checks: Counter = Counter()       # check name -> times evaluated
        self.failures: list[str] = []
        self.tracer = None

    def op(self, kind: str, fn, check=None, kernel=interpreter_kernel):
        """Run fn once, timed and bracketed by kernel; then run
        check(output, expect) untimed.

        ``expect(name, ok, detail)`` records one check. Returns fn's output,
        or None when it raised.
        """
        self.attempted += 1
        span = nullcontext() if self.tracer is None else self.tracer.span("bench." + kind)
        before = kernel_s(kernel)
        try:
            with span:
                t0 = time.perf_counter()
                out = fn()
                dt = time.perf_counter() - t0
        except Exception as exc:  # a raising operation is a failed operation
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.refs[kind].append((before + kernel_s(kernel)) / 2)
        self.samples[kind].append(dt)
        if check is not None:
            problems = []

            def expect(name: str, ok: bool, detail: str = "") -> None:
                self.checks[name] += 1
                if not ok:
                    problems.append(f"{kind}: check {name} failed {detail}".rstrip())

            check(out, expect)
            if problems:
                self.fail("; ".join(problems))
        return out

    def one_at_a_time(self, kind: str, fn, items) -> list:
        """fn(item) for each item in turn, each call timed into calls[kind]."""
        outputs = []
        for item in items:
            t0 = time.perf_counter()
            outputs.append(fn(item))
            self.calls[kind].append(time.perf_counter() - t0)
        return outputs

    def add_counts(self, other: "Recorder") -> None:
        """Take over another recorder's operation counts and check tallies."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.checks.update(other.checks)
        self.failures = (self.failures + other.failures)[:20]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


# Single-item calls are timed in groups: a group of sequential calls lasts
# long enough for its reference brackets to describe the machine's speed
# during it, which they do not for one call of well under a millisecond.
GROUPS_PER_ROUND = 4


def _groups(items: list) -> list[list]:
    if len(items) % GROUPS_PER_ROUND:
        raise ValueError(f"{len(items)} items do not split into {GROUPS_PER_ROUND} groups")
    size = len(items) // GROUPS_PER_ROUND
    return [items[i:i + size] for i in range(0, len(items), size)]


@dataclass(frozen=True)
class Job:
    """A timed operation kind and how its figures are read.

    Each operation handles ``items`` items. A rate job's figure is items per
    unit of time; a latency job's (``latency=True``, operations that make
    one call per item in turn) is time per item. ``values`` gives them per
    second or in ms, ``normalized`` per reference-kernel duration or in
    reference-kernel durations.
    """

    name: str
    kind: str
    items: int
    latency: bool = False

    def _figures(self, durations: list[float], scale: float) -> list[float]:
        if self.latency:
            return [d / self.items * scale for d in durations]
        return [self.items / d for d in durations]

    def values(self, rec: Recorder) -> list[float]:
        return self._figures(rec.samples[self.kind], 1e3)

    def normalized(self, rec: Recorder) -> list[float]:
        return self._figures(
            [dt / ref for dt, ref in zip(rec.samples[self.kind], rec.refs[self.kind])], 1.0)


def samples_for_percentile(q: int) -> int:
    """Samples needed for ten of them to lie beyond the q-th percentile."""
    return math.ceil(1000 / (100 - q))


def percentile_ms(samples: list[float], q: int) -> float:
    """The q-th percentile in ms; raises with too few samples to place it."""
    if len(samples) < samples_for_percentile(q):
        raise ValueError(f"{len(samples)} samples are too few for a p{q}")
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


def _well_formed(result: model.DecodeResult, tvocab: vocab.TripleVocab) -> bool:
    s, p, o = result.triple
    return (
        len(result.ids) == 3
        and tvocab.has_entity(s) and tvocab.has_predicate(p) and tvocab.has_entity(o)
        and tuple(vocab.decode_triple(list(result.ids), tvocab)) == tuple(result.triple)
    )


def _check_training(epochs: int):
    def check(result: model.TrainResult, expect) -> None:
        losses = [e.train_loss for e in result.log]
        expect("train.not_aborted", not result.aborted)
        expect("train.all_epochs_run", len(losses) == epochs, f"{len(losses)} of {epochs}")
        expect("train.no_dropped_examples", result.dropped_oov == 0, str(result.dropped_oov))
        expect("train.loss_finite", all(math.isfinite(v) for v in losses), str(losses))
        expect("train.loss_decreases", len(losses) >= 2 and losses[-1] < losses[0], str(losses))
    return check


class Train:
    """``model.train`` on the hard world, fixed epochs, empty dev split."""

    name = "train"
    min_rounds = 1

    def setup(self, seed: int, sizes: Sizes, rec: Recorder, scratch: str) -> None:
        self.hard = hard = hard_setup(seed)
        self.sizes = sizes
        self.dataset = Dataset(train=hard.train)
        self.c09 = model.ModelConfig(**CRITERION09, seed=seed, epochs=sizes.train_epochs)
        # The train sub-command's defaults when no config file is given.
        self.cli_default = model.ModelConfig(seed=seed, epochs=sizes.default_epochs)
        rng = numerics.make_rng(seed + 5)
        self.params = model.ModelParams.init(
            self.c09, len(hard.word_vocab), hard.tvocab.n_targets, rng,
            word_init=hard.word_init, kg_init=hard.kg_init,
        )

    def round(self, rec: Recorder, index: int) -> None:
        h, s = self.hard, self.sizes
        n = len(self.dataset.train)
        rec.op("train_c09", lambda: model.train(
            self.dataset, h.word_vocab, h.tvocab, self.c09,
            word_init=h.word_init, kg_init=h.kg_init,
        ), _check_training(s.train_epochs))
        rec.op("train_default", lambda: model.train(
            self.dataset, h.word_vocab, h.tvocab, self.cli_default,
        ), _check_training(s.default_epochs))
        param_keys = set(self.params.to_dict())

        def check_grads(out, expect) -> None:
            for loss, grads in out:
                expect("forward_loss.loss_finite", math.isfinite(loss) and loss > 0, str(loss))
                expect("forward_loss.grads_cover_params", set(grads) == param_keys)
                expect("forward_loss.grads_finite",
                       all(np.isfinite(g).all() for g in grads.values()))

        def one(ex):
            return model.forward_loss(ex, self.params, self.c09, h.word_vocab, h.tvocab)

        for group in _groups(self.dataset.train):
            rec.op("forward_loss", lambda group=group: rec.one_at_a_time(
                "forward_loss", one, group), check_grads)

    def jobs(self) -> tuple[Job, Job, Job]:
        n = len(self.dataset.train)
        return (Job("train_examples", "train_c09", n * self.sizes.train_epochs),
                Job("train_default_examples", "train_default", n * self.sizes.default_epochs),
                Job("forward_loss", "forward_loss", len(_groups(self.dataset.train)[0]),
                    latency=True))

    def layer_extras(self, rec: Recorder) -> dict[str, float]:
        return {}

    def verify(self, rec: Recorder) -> None:
        pass


class Infer:
    """Decode from a saved and reloaded checkpoint: eval, beam and translate."""

    name = "infer"
    P99_SAMPLES = samples_for_percentile(99)

    def setup(self, seed: int, sizes: Sizes, rec: Recorder, scratch: str) -> None:
        self.hard = h = hard_setup(seed)
        self.sizes = sizes
        cfg = model.ModelConfig(**CRITERION09, seed=seed, epochs=sizes.ckpt_epochs)
        trained = model.train(Dataset(train=h.train), h.word_vocab, h.tvocab, cfg,
                              word_init=h.word_init, kg_init=h.kg_init)
        path = os.path.join(scratch, "infer.ckpt")

        def round_trip():
            model.save_checkpoint(path, trained.params, cfg, h.word_vocab, h.tvocab)
            return model.load_checkpoint(path)

        def check_reload(out, expect) -> None:
            params, config, wv, tv = out
            saved, loaded = trained.params.to_dict(), params.to_dict()
            expect("checkpoint.reload_bit_exact",
                   saved.keys() == loaded.keys()
                   and all(np.array_equal(saved[k], loaded[k]) for k in saved)
                   and config == cfg and wv.tokens == h.word_vocab.tokens
                   and (tv.entities, tv.predicates) == (h.tvocab.entities, h.tvocab.predicates))

        loaded = rec.op("checkpoint_round_trip", round_trip, check_reload)
        os.remove(path)
        if loaded is None:
            raise RuntimeError("checkpoint round trip failed")
        self.params, self.config, self.word_vocab, self.tvocab = loaded
        self.test = infer_test_set(h, seed, sizes)
        self.tokens = [vocab.tokenize(line) for line in self.test.lines]
        self.beam_tokens = self.tokens[:sizes.beam_sentences]
        self.translate_lines = self.test.lines[:sizes.translate_sentences]
        # Enough untraced rounds for the translate p99 of a traced run.
        self.min_rounds = math.ceil(self.P99_SAMPLES / len(self.translate_lines))
        self.first_eval: list | None = None
        self.last_eval: list | None = None
        self.last_errors = 0

    def _greedy(self, tokens):
        return model.translate_greedy(tokens, self.params, self.word_vocab, self.tvocab,
                                      self.config)

    def round(self, rec: Recorder, index: int) -> None:
        tv, golds = self.tvocab, self.test.golds

        def eval_pass():
            results = [self._greedy(toks) for toks in self.tokens]
            preds = [r.triple for r in results]
            report = scoring.evaluate(preds, golds)
            errors = scoring.error_taxonomy(preds, golds, tv, self.test.kg)
            return results, report, errors

        def check_eval(out, expect) -> None:
            results, report, errors = out
            triples = [r.triple for r in results]
            expect("eval.well_formed", all(_well_formed(r, tv) for r in results))
            correct = sum(p == g for p, g in zip(triples, golds))
            expect("eval.correct_count", report.n_correct == correct, f"{report.n_correct}")
            expect("eval.errors_cover_misses",
                   sum(errors.values()) == len(golds) - correct, str(errors))
            oov_ent = sum(not (tv.has_entity(g.subject) and tv.has_entity(g.object))
                          for g in golds)
            expect("eval.oov_entity_count", errors[ErrorCategory.OOV_ENTITY] == oov_ent)
            if self.first_eval is None:
                self.first_eval = triples
            expect("eval.deterministic", triples == self.first_eval)
            self.last_eval = triples
            self.last_errors = sum(errors.values())

        rec.op("eval", eval_pass, check_eval)

        width = self.sizes.beam_width

        def check_beam(out, expect) -> None:
            full = min(width, len(tv.entities) ** 2 * len(tv.predicates))
            expect("beam.width", all(len(hyps) == full for hyps in out))
            expect("beam.well_formed", all(_well_formed(r, tv) for hyps in out for r in hyps))
            expect("beam.sorted", all(
                all(a.total_logprob >= b.total_logprob for a, b in zip(hyps, hyps[1:]))
                for hyps in out))

        rec.op("beam", lambda: [
            model.translate_beam(toks, self.params, self.word_vocab, tv, self.config, width)
            for toks in self.beam_tokens
        ], check_beam)

        def check_group(out, expect) -> None:
            for i, result in out:
                expect("translate.well_formed", _well_formed(result, tv))
                expect("translate.matches_eval", self.last_eval is not None
                       and result.triple == self.last_eval[i])

        def translate(numbered):
            i, line = numbered
            return i, self._greedy(vocab.tokenize(line))

        for group in _groups(list(enumerate(self.translate_lines))):
            rec.op("translate", lambda group=group: rec.one_at_a_time(
                "translate", translate, group), check_group)

    def jobs(self) -> tuple[Job, Job, Job]:
        return (Job("eval_sent", "eval", len(self.tokens)),
                Job("beam_sent", "beam", len(self.beam_tokens)),
                Job("translate", "translate", len(_groups(self.translate_lines)[0]),
                    latency=True))

    def layer_extras(self, rec: Recorder) -> dict[str, float]:
        return {
            "model.translate_p99_ms": percentile_ms(rec.calls["translate"], 99),
            "scoring.error_taxonomy.errors": self.last_errors,
        }

    def verify(self, rec: Recorder) -> None:
        """Beam search against greedy (width 1) and against exhaustive
        search (full width) on a sample of sentences."""
        tv, cfg, params = self.tvocab, self.config, self.params
        n_ent, n_pred = len(tv.entities), len(tv.predicates)
        ent_ids = [tv.entity_id(e) for e in tv.entities]
        pred_ids = [tv.predicate_id(p) for p in tv.predicates]

        def exhaustive(tokens):
            enc = model.encode(vocab.encode_sentence(tokens, self.word_vocab), params, cfg)
            lp1, st1, _ = model.decode_step(1, BOS_ID, model.init_decoder_state(enc, params),
                                            enc, params, cfg, tv)
            best = None
            for s in ent_ids:
                lp2, st2, _ = model.decode_step(2, s, st1, enc, params, cfg, tv)
                for p in pred_ids:
                    lp3, _, _ = model.decode_step(3, p, st2, enc, params, cfg, tv)
                    for o in ent_ids:
                        total = 0.0 + float(lp1[s])
                        total += float(lp2[p])
                        total += float(lp3[o])
                        key = (-total, (s, p, o))
                        best = key if best is None or key < best else best
            return best[1]

        for tokens in self.tokens[:3]:
            def check_narrow(out, expect, tokens=tokens) -> None:
                expect("beam.width1_equals_greedy", out[0].ids == self._greedy(tokens).ids)

            rec.op("verify_beam_width1", lambda tokens=tokens: model.translate_beam(
                tokens, params, self.word_vocab, tv, cfg, 1), check_narrow)
        for tokens in self.tokens[:2]:
            def check_full(out, expect, tokens=tokens) -> None:
                expect("beam.full_width_equals_exhaustive", out[0].ids == exhaustive(tokens))

            rec.op("verify_beam_full", lambda tokens=tokens: model.translate_beam(
                tokens, params, self.word_vocab, tv, cfg, n_ent * n_ent * n_pred), check_full)


class Prep:
    """Distant supervision over a ~20k-triple KG, then TransE and link prediction."""

    name = "prep"
    min_rounds = 1

    def setup(self, seed: int, sizes: Sizes, rec: Recorder, scratch: str) -> None:
        self.inputs = prep_inputs(seed, sizes)
        self.sizes = sizes
        self.transe = embeddings.TransEConfig(epochs=sizes.transe_epochs, lr=0.1, seed=seed)
        self.n_entities = len(self.inputs.transe_kg.entity_list())
        self.aligned = Counter()

    def round(self, rec: Recorder, index: int) -> None:
        inp = self.inputs
        batch_no = index % len(inp.batches)
        batch = inp.batches[batch_no]

        def check_align(out, expect) -> None:
            examples, report = out
            want_examples, want_report = inp.expected[batch_no]
            expect("align.examples_equal_planted", examples == want_examples,
                   f"{len(examples)} vs {len(want_examples)}")
            expect("align.ambiguity_report_equals_planted", report == want_report,
                   f"{len(report)} vs {len(want_report)}")
            self.aligned.update(sentences=len(batch), examples=len(examples),
                                ambiguous=len(report))

        rec.op("align", lambda: corpus.distant_supervise(inp.kg, batch), check_align)

        def check_transe(out, expect) -> None:
            tables = (out.entity_table, out.relation_table)
            expect("transe.finite", all(np.isfinite(t).all() for t in tables))
            norms = np.linalg.norm(out.entity_table, axis=1)
            expect("transe.unit_entities", bool(np.allclose(norms, 1.0)))

        emb = rec.op("transe", lambda: embeddings.transe_train(inp.transe_kg, self.transe),
                     check_transe)
        if emb is None:
            return
        random_mean = (self.n_entities + 1) / 2
        ranks: list[float] = []

        def check_queries(out, expect) -> None:
            ranks.extend(mean_rank for mean_rank, _ in out)
            expect("linkpred.rank_in_range", all(1 <= r <= self.n_entities for r in ranks))
            if len(ranks) == len(inp.queries):
                expect("linkpred.mean_rank_below_random", statistics.fmean(ranks) < random_mean,
                       f"{statistics.fmean(ranks):.1f} vs {random_mean:.1f}")

        for group in _groups(inp.queries):
            rec.op("linkpred", lambda group=group: rec.one_at_a_time(
                "linkpred", lambda query: embeddings.link_prediction_eval(emb, [query]), group),
                check_queries, kernel=array_kernel)

    def jobs(self) -> tuple[Job, Job, Job]:
        triples = len(self.inputs.transe_kg.triples) * self.sizes.transe_epochs
        return (Job("align_sent", "align", self.sizes.prep_batch),
                Job("transe_triples", "transe", triples),
                Job("linkpred", "linkpred", len(_groups(self.inputs.queries)[0]), latency=True))

    def layer_extras(self, rec: Recorder) -> dict[str, float]:
        n = self.aligned["sentences"]
        return {
            "corpus.align_yield": self.aligned["examples"] / n if n else 0.0,
            "corpus.ambiguous_ratio": self.aligned["ambiguous"] / n if n else 0.0,
        }

    def verify(self, rec: Recorder) -> None:
        pass


WORKLOADS = {w.name: w for w in (Train, Infer, Prep)}
