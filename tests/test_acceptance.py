"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Full-corpus F1 numbers are not reproducible at desk scale; these are the
property-based and scaled-down trend checks that gate the build. Every
tolerance is pinned here.
"""

import statistics
import time

import numpy as np

from conftest import TABLE1_SENTENCE, run_cli
from text2triple.corpus import (
    AnnotatedExample,
    Dataset,
    KnowledgeGraph,
    Triple,
    distant_supervise,
)
from text2triple import model
from text2triple.embeddings import (
    TransEConfig,
    decoder_init_table,
    link_prediction_eval,
    transe_score,
    transe_train,
)
from text2triple.model import (
    ModelConfig,
    ModelParams,
    decode_step,
    encode,
    forward_loss,
    init_decoder_state,
    train,
    translate_beam,
    translate_greedy,
)
from text2triple.numerics import grad_check_fd, make_rng, uniform_init
from text2triple.scoring import evaluate
from text2triple.synthetic import make_easy_world, make_hard_world
from text2triple.vocab import TripleVocab, build_kg_vocab, build_word_vocab
from text2triple.vocab import encode_sentence


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def _tiny_setup():
    config = ModelConfig(
        word_dim=8, kg_dim=8, enc_hidden=8, dec_hidden=16,
        use_attention=True, max_src_len=16, seed=0,
    )
    word_vocab = build_word_vocab([[f"w{i}" for i in range(17)]])
    tvocab = TripleVocab(
        tuple(f"ent:{i}" for i in range(6)), tuple(f"rel:{i}" for i in range(3))
    )
    return config, word_vocab, tvocab


def _word_init_table(word_vocab, vectors, dim, rng):
    return np.vstack([
        vectors[tok] if tok in vectors else uniform_init(dim, rng)
        for tok in word_vocab.tokens
    ])


def test_criterion_01_gradient_exactness():
    """FD check over every parameter group of the tiny full model, on the
    batched training path over a padded batch whose rows differ in length."""
    start = time.perf_counter()
    config, word_vocab, tvocab = _tiny_setup()
    assert len(word_vocab) == 20
    params = ModelParams.init(config, len(word_vocab), tvocab.n_targets, make_rng(1))
    batch = [
        AnnotatedExample(("w0", "w4", "w8", "w12", "w16"),
                         Triple("ent:2", "rel:1", "ent:5"), "acc1"),
        AnnotatedExample(("w3", "w9"), Triple("ent:0", "rel:2", "ent:4"), "acc1b"),
        AnnotatedExample(("w5", "w1", "w14"), Triple("ent:3", "rel:0", "ent:3"), "acc1c"),
    ]
    sources = [encode_sentence(ex.tokens, word_vocab) for ex in batch]
    gold = np.array([tvocab.encode_triple(*ex.gold) for ex in batch])

    def loss_and_grad(vec):
        loss, grads = model._loss_and_grads(sources, gold, params.like(vec), config, tvocab)
        return loss, grads.vec

    err = grad_check_fd(loss_and_grad, params.vec, eps=1e-4)
    elapsed = time.perf_counter() - start
    _report(1, "gradient exactness", err < 1e-3 and elapsed < 60.0,
            f"max rel err {err:.2e} (< 1e-3), {elapsed:.1f}s (< 60s)")


def test_criterion_02_memorization():
    """Full model memorizes the 60-sentence synthetic corpus."""
    start = time.perf_counter()
    world = make_easy_world(n_entities=12, n_predicates=4, n_sentences=60,
                            seed=42, word_dim=64)
    word_vocab = build_word_vocab([list(ex.tokens) for ex in world.train])
    tvocab = build_kg_vocab(world.kg.triples)
    emb = transe_train(world.kg, TransEConfig(dim=64, epochs=100, seed=42))
    rng = make_rng(43)
    word_init = _word_init_table(word_vocab, world.word_vectors, 64, rng)
    kg_init, _ = decoder_init_table(emb, tvocab, 64, rng)
    config = ModelConfig(
        word_dim=64, kg_dim=64, enc_hidden=64, dec_hidden=128,
        use_attention=True, use_word_init=True, use_kg_init=True,
        seed=42, epochs=300, batch_size=8, patience=60,
    )
    # dev re-uses the training pairs under fresh ids so training can stop
    # as soon as the corpus is fully memorized
    dev = [AnnotatedExample(ex.tokens, ex.gold, f"dev:{i}")
           for i, ex in enumerate(world.train)]
    result = train(Dataset(train=world.train, dev=dev), word_vocab, tvocab, config,
                   word_init=word_init, kg_init=kg_init)
    correct = sum(
        1 for ex in world.train
        if translate_greedy(ex.tokens, result.params, word_vocab, tvocab,
                            config).triple == ex.gold
    )
    acc = correct / len(world.train)
    elapsed = time.perf_counter() - start
    _report(2, "memorization", acc >= 0.95 and elapsed < 300.0,
            f"train exact-match {acc:.3f} (>= 0.95) after {len(result.log)} epochs, "
            f"{elapsed:.0f}s (< 300s)")


def test_criterion_03_masking_safety():
    """1000 decodes from random params never violate the slot partition."""
    config, word_vocab, tvocab = _tiny_setup()
    rng = make_rng(7)
    violations = 0
    n_decodes = 0
    for trial in range(100):
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets,
                                  make_rng(5000 + trial))
        for _ in range(10):
            tokens = tuple(
                word_vocab.tokens[int(rng.integers(3, len(word_vocab)))]
                for _ in range(int(rng.integers(1, 9)))
            )
            result = translate_greedy(tokens, params, word_vocab, tvocab, config)
            n_decodes += 1
            if not (tvocab.is_entity_id(result.ids[0])
                    and tvocab.is_predicate_id(result.ids[1])
                    and tvocab.is_entity_id(result.ids[2])):
                violations += 1
    _report(3, "masking safety", n_decodes == 1000 and violations == 0,
            f"{violations} partition violations in {n_decodes} random decodes")


def test_criterion_04_beam_exhaustive_equivalence():
    """Beam width 108 equals exhaustive argmax on the 6x3x6 toy vocab."""
    config, word_vocab, tvocab = _tiny_setup()
    worst_gap = 0.0
    ok = True
    for trial in range(5):
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets,
                                  make_rng(900 + trial))
        tokens = ("w1", "w5", "w9")
        beam = translate_beam(tokens, params, word_vocab, tvocab, config, width=108)
        enc = encode(encode_sentence(tokens, word_vocab), params, config)
        state0 = init_decoder_state(enc, params)
        best_total, best_ids = -np.inf, None
        logp1, state1, _ = decode_step(1, tvocab.bos_id, state0, enc, params, config, tvocab)
        for y1 in np.flatnonzero(tvocab.step_mask(1)):
            logp2, state2, _ = decode_step(2, int(y1), state1, enc, params, config,
                                           tvocab)
            for y2 in np.flatnonzero(tvocab.step_mask(2)):
                logp3, _, _ = decode_step(3, int(y2), state2, enc, params, config,
                                          tvocab)
                for y3 in np.flatnonzero(tvocab.step_mask(3)):
                    total = float(logp1[y1] + logp2[y2] + logp3[y3])
                    ids = (int(y1), int(y2), int(y3))
                    if total > best_total or (total == best_total and ids < best_ids):
                        best_total, best_ids = total, ids
        gap = abs(beam[0].total_logprob - best_total)
        worst_gap = max(worst_gap, gap)
        ok = ok and beam[0].ids == best_ids and gap < 1e-9
    _report(4, "beam/exhaustive equivalence", ok,
            f"top-1 sequence identical, log-prob gap {worst_gap:.1e} (< 1e-9)")


def test_criterion_05_loss_consistency():
    """forward_loss equals minus the summed stepwise gold log-probs."""
    config, word_vocab, tvocab = _tiny_setup()
    rng = make_rng(13)
    worst = 0.0
    for trial in range(100):
        params = ModelParams.init(config, len(word_vocab), tvocab.n_targets,
                                  make_rng(2000 + trial))
        tokens = tuple(
            word_vocab.tokens[int(rng.integers(3, len(word_vocab)))]
            for _ in range(int(rng.integers(1, 8)))
        )
        gold = Triple(
            tvocab.entities[int(rng.integers(6))],
            tvocab.predicates[int(rng.integers(3))],
            tvocab.entities[int(rng.integers(6))],
        )
        ex = AnnotatedExample(tokens, gold, f"c5:{trial}")
        loss, _ = forward_loss(ex, params, config, word_vocab, tvocab)
        enc = encode(encode_sentence(tokens, word_vocab), params, config)
        state = init_decoder_state(enc, params)
        gold_ids = tvocab.encode_triple(*gold)
        prev, total = tvocab.bos_id, 0.0
        for step in (1, 2, 3):
            logp, state, _ = decode_step(step, prev, state, enc, params, config, tvocab)
            total += float(logp[gold_ids[step - 1]])
            prev = gold_ids[step - 1]
        worst = max(worst, abs(loss - (-total)))
    _report(5, "teacher-forced loss consistency", worst < 1e-9,
            f"max |loss + sum log p| = {worst:.1e} over 100 instances (< 1e-9)")


def test_criterion_06_transe_sanity():
    """Toy 4-entity/2-relation KG trains to high hits@1; exact-zero scores."""
    start = time.perf_counter()
    kg = KnowledgeGraph(frozenset({
        Triple("a", "r1", "b"), Triple("c", "r1", "d"),
        Triple("a", "r2", "c"), Triple("b", "r2", "d"),
    }))
    emb = transe_train(kg, TransEConfig(dim=8, margin=1.0, lr=0.05, epochs=200, seed=0))
    _, hits = link_prediction_eval(emb, sorted(kg.triples))
    elapsed = time.perf_counter() - start
    rng = make_rng(3)
    exact_zero = True
    for _ in range(20):
        h = rng.standard_normal(8)
        r = rng.standard_normal(8)
        t = h + r
        exact_zero = exact_zero and transe_score(h, r, t, "L2") == 0.0
    _report(6, "TransE sanity", hits >= 0.9 and elapsed < 30.0 and exact_zero,
            f"hits@1 {hits:.2f} (>= 0.9) in {elapsed:.1f}s (< 30s); "
            f"h+r=t scores exactly 0: {exact_zero}")


def test_criterion_07_evaluator_oracle():
    """5 golds, 4 predictions, 3 correct: P=0.75, R=0.6, F1=2/3."""
    golds = [Triple(f"s{i}", f"p{i}", f"o{i}") for i in range(5)]
    preds = [golds[0], golds[1], golds[2], Triple("x", "y", "z"), None]
    report = evaluate(preds, golds)
    f1_oracle = 2 * 0.75 * 0.6 / (0.75 + 0.6)
    ok = (
        abs(report.precision - 0.75) < 1e-9
        and abs(report.recall - 0.6) < 1e-9
        and abs(report.f1 - f1_oracle) < 1e-9
        and round(report.f1, 6) == 0.666667
    )
    _report(7, "evaluator oracle", ok,
            f"P={report.precision:.6f} R={report.recall:.6f} F1={report.f1:.6f}")


def test_criterion_08_distant_supervision():
    """The capital-city sentence aligns to exactly its KG triple."""
    kg = KnowledgeGraph(
        frozenset({Triple("dbr:Germany", "dbo:capital", "dbr:Berlin")}),
        {"dbr:Germany": (("germany",),), "dbr:Berlin": (("berlin",),)},
    )
    sentence = ["berlin", "is", "the", "capital", "city", "of", "germany"]
    examples, ambiguous = distant_supervise(kg, [sentence])
    ok = (
        len(examples) == 1
        and not ambiguous
        and examples[0].gold == Triple("dbr:Germany", "dbo:capital", "dbr:Berlin")
        and examples[0].tokens == tuple(sentence)
    )
    detail = (f"{len(examples)} example(s), gold "
              f"{examples[0].gold if examples else None}")
    _report(8, "distant supervision", ok, detail)


def test_criterion_09_ablation_trend():
    """Median exact-match over 5 seeds: full model >= plain Seq2Seq."""
    world = make_hard_world(seed=17, word_dim=16)
    word_vocab = build_word_vocab([list(ex.tokens) for ex in world.train])
    tvocab = build_kg_vocab(world.kg.triples)
    emb = transe_train(world.kg, TransEConfig(dim=16, epochs=150, seed=17))
    dataset = Dataset(train=world.train, dev=world.dev)

    def run(flags: str, seed: int) -> float:
        config = ModelConfig(
            word_dim=16, kg_dim=16, enc_hidden=16, dec_hidden=32,
            use_attention="A" in flags, use_word_init="W" in flags,
            use_kg_init="G" in flags,
            seed=seed, epochs=250, batch_size=4, patience=35, lr=3e-3,
        )
        rng = make_rng(seed + 1000)
        word_init = (
            _word_init_table(word_vocab, world.word_vectors, 16, rng)
            if "W" in flags else None
        )
        kg_init = decoder_init_table(emb, tvocab, 16, rng)[0] if "G" in flags else None
        result = train(dataset, word_vocab, tvocab, config,
                       word_init=word_init, kg_init=kg_init)
        preds = [
            translate_greedy(ex.tokens, result.params, word_vocab, tvocab,
                             config).triple
            for ex in world.test
        ]
        return evaluate(preds, [ex.gold for ex in world.test]).f1

    seeds = (1, 2, 3, 4, 5)
    plain = [run("", s) for s in seeds]
    full = [run("AWG", s) for s in seeds]
    med_plain, med_full = statistics.median(plain), statistics.median(full)
    _report(9, "ablation trend", med_full >= med_plain,
            f"median F1 full(A+W+G)={med_full:.3f} >= Seq2Seq={med_plain:.3f} "
            f"(per-seed full={[f'{v:.3f}' for v in full]}, "
            f"plain={[f'{v:.3f}' for v in plain]})")


def test_criterion_10_subcommand_determinism(table1_dir, tmp_path):
    """Every sub-command, run twice with the same seed, emits identical bytes."""
    kg = str(table1_dir / "kg.tsv")
    trainf = str(table1_dir / "train.jsonl")

    def outputs_of(tag):
        d = tmp_path / tag
        d.mkdir()
        blobs = {}
        proc = run_cli("build-vocab", "--corpus", trainf, "--kg", kg,
                       "--out", str(d / "vocab"))
        assert proc.returncode == 0, proc.stderr
        blobs["build-vocab.stdout"] = proc.stdout
        for f in ("words.vocab", "entities.vocab", "predicates.vocab"):
            blobs[f] = (d / "vocab" / f).read_bytes()
        proc = run_cli("kg-embed", "--kg", kg, "--dim", "8", "--epochs", "25",
                       "--seed", "3", "--out", str(d / "emb"))
        assert proc.returncode == 0, proc.stderr
        blobs["kg-embed.stdout"] = proc.stdout
        for f in ("entities.vec", "relations.vec", "manifest.json"):
            blobs[f] = (d / "emb" / f).read_bytes()
        proc = run_cli("ds-align", "--kg", kg,
                       "--surface-forms", str(table1_dir / "surface.tsv"),
                       "--sentences", str(table1_dir / "sentences.txt"),
                       "--out", str(d / "ds.jsonl"),
                       "--ambiguity-report", str(d / "amb.jsonl"))
        assert proc.returncode == 0, proc.stderr
        blobs["ds-align.stdout"] = proc.stdout
        blobs["ds.jsonl"] = (d / "ds.jsonl").read_bytes()
        proc = run_cli("train", "--config", str(table1_dir / "model.cfg"),
                       "--train", trainf, "--epochs", "12", "--seed", "11",
                       "--out", str(d / "m.ckpt"), "--log", str(d / "m.log"))
        assert proc.returncode == 0, proc.stderr
        blobs["m.ckpt"] = (d / "m.ckpt").read_bytes()
        blobs["m.log"] = (d / "m.log").read_bytes()
        proc = run_cli("eval", "--checkpoint", str(d / "m.ckpt"), "--test", trainf,
                       "--kg", kg, "--report", str(d / "report.tsv"))
        assert proc.returncode == 0, proc.stderr
        blobs["eval.stdout"] = proc.stdout
        blobs["report.tsv"] = (d / "report.tsv").read_bytes()
        proc = run_cli("translate", "--checkpoint", str(d / "m.ckpt"),
                       "--text", TABLE1_SENTENCE)
        assert proc.returncode == 0, proc.stderr
        blobs["translate.stdout"] = proc.stdout
        return blobs

    first = outputs_of("run1")
    second = outputs_of("run2")
    mismatched = [k for k in first if first[k] != second[k]]
    _report(10, "sub-command determinism", not mismatched,
            f"{len(first)} artifacts byte-compared across "
            f"build-vocab/kg-embed/ds-align/train/eval/translate; "
            f"mismatches: {mismatched or 'none'}")
