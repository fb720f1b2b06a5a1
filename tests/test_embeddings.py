"""TransE scoring/training, negative sampling and vector-file loading."""

import dataclasses
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from text2triple import embeddings
from text2triple.corpus import KnowledgeGraph, Triple
from text2triple.embeddings import (
    KgEmbeddings,
    KgRows,
    TransEConfig,
    decoder_init_table,
    kg_embedding_files,
    link_prediction_eval,
    load_kg_embeddings,
    negative_sample,
    read_vector_file,
    transe_score,
    transe_train,
    vector_text,
    word_init_table,
)
from text2triple.numerics import make_rng
from text2triple.synthetic import make_hard_world
from text2triple.vocab import TripleVocab, build_kg_vocab, build_word_vocab, write_files


def write_kg_embeddings(emb, out_dir, config):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_files({out_dir / name: text for name, text in kg_embedding_files(emb, config).items()})


class TestTransEScore:
    def test_exact_translation_scores_zero(self):
        assert transe_score([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], "L2") == 0.0

    def test_l2_hand_value(self):
        s = transe_score([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], "L2")
        assert abs(s - math.sqrt(2)) < 1e-12
        assert abs(s - 1.414214) < 1e-6

    def test_l1_hand_value(self):
        assert transe_score([0.0, 0.0], [1.0, 1.0], [0.0, 0.0], "L1") == 2.0

    def test_translation_invariance(self):
        rng = make_rng(11)
        for norm in ("L1", "L2"):
            h, r, t, c = (rng.standard_normal(6) for _ in range(4))
            assert abs(
                transe_score(h + c, r, t + c, norm) - transe_score(h, r, t, norm)
            ) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            transe_score([1.0], [1.0, 2.0], [1.0], "L2")


def two_entity_kg():
    return KnowledgeGraph(frozenset({Triple("A", "r", "B")}))


def oracle_negative_sample(triple, kg, rng):
    """The per-triple sampler that ``negative_sample`` replaced: a scalar coin
    and a scalar entity draw per candidate, up to 100 candidates, then a
    uniform pick among the enumerated valid corruptions."""
    entities = kg.entity_list()
    if len(entities) < 2:
        raise ValueError("negative sampling needs at least 2 entities")
    for _ in range(100):
        head_side = bool(rng.integers(2) == 0)
        ent = entities[int(rng.integers(len(entities)))]
        cand = (
            Triple(ent, triple.predicate, triple.object)
            if head_side
            else Triple(triple.subject, triple.predicate, ent)
        )
        if cand not in kg.triples:
            return cand
    valid = [
        cand
        for ent in entities
        for cand in (
            Triple(ent, triple.predicate, triple.object),
            Triple(triple.subject, triple.predicate, ent),
        )
        if cand not in kg.triples
    ]
    if not valid:
        raise ValueError(f"no valid corruption exists for {triple}")
    return valid[int(rng.integers(len(valid)))]


def triple_rows(triples, vocab):
    """(len(triples), 3) (head, relation, tail) rows of ``vocab``."""
    ids = [(vocab.entity_rows[s], vocab.predicate_rows[p], vocab.entity_rows[o])
           for s, p, o in triples]
    return np.array(ids, dtype=np.intp).reshape(-1, 3)


def sample_triples(batch, kg, rng):
    """``negative_sample`` on Triples: the batch goes in as rows of the KG's
    own vocab and each returned (head, tail) row pair comes back as a Triple
    with its positive's predicate."""
    kg_rows = KgRows.of(kg)
    vocab = kg_rows.vocab
    ends = negative_sample(triple_rows(batch, vocab), kg_rows, rng)
    return [Triple(vocab.entities[h], tr.predicate, vocab.entities[t])
            for (h, t), tr in zip(ends.tolist(), batch, strict=True)]


class TestNegativeSample:
    def test_two_entity_outcomes(self):
        kg = two_entity_kg()
        seen = set(sample_triples([Triple("A", "r", "B")] * 50, kg, make_rng(0)))
        # (A,r,B) itself is filtered; only the reflexive corruptions remain
        assert seen == {Triple("B", "r", "B"), Triple("A", "r", "A")}

    def test_deterministic_sequence(self):
        kg = two_entity_kg()
        batch = [Triple("A", "r", "B")] * 5
        assert sample_triples(batch, kg, make_rng(9)) == sample_triples(batch, kg, make_rng(9))

    def test_never_returns_kg_member(self):
        rng = make_rng(1)
        entities = [f"e{i}" for i in range(10)]
        triples = set()
        while len(triples) < 25:
            s = entities[int(rng.integers(10))]
            o = entities[int(rng.integers(10))]
            triples.add(Triple(s, "r", o))
        kg = KnowledgeGraph(frozenset(triples))
        pool = sorted(kg.triples)
        batch = [pool[int(rng.integers(len(pool)))] for _ in range(1000)]
        negs = sample_triples(batch, kg, rng)
        assert len(negs) == len(batch)
        for pos, neg in zip(batch, negs):
            assert neg not in kg.triples
            assert neg.predicate == pos.predicate
            assert neg.subject == pos.subject or neg.object == pos.object

    def test_predicate_never_altered(self):
        # a negative is only its (head, tail) rows: it keeps its positive's relation
        kg_rows = KgRows.of(two_entity_kg())
        batch = triple_rows([Triple("A", "r", "B")] * 20, kg_rows.vocab)
        ends = negative_sample(batch, kg_rows, make_rng(2))
        assert ends.shape == (20, 2) and ends.dtype == np.intp

    def test_no_valid_corruption_rejected(self):
        # complete graph over 2 entities for relation r: nothing to corrupt to
        kg = KnowledgeGraph(frozenset({
            Triple("A", "r", "B"), Triple("B", "r", "A"),
            Triple("A", "r", "A"), Triple("B", "r", "B"),
        }))
        with pytest.raises(ValueError, match="corruption"):
            sample_triples([Triple("A", "r", "B")], kg, make_rng(0))

    def test_single_entity_rejected(self):
        kg = KnowledgeGraph(frozenset({Triple("A", "r", "A")}))
        with pytest.raises(ValueError, match="entities"):
            sample_triples([Triple("A", "r", "A")], kg, make_rng(0))

    def test_fallback_lists_head_then_tail_corruption_per_entity(self):
        # Entity c gives (a, r, b) both a valid head and a valid tail
        # corruption, so their order shows in the pick.
        kg_rows = KgRows.of(KnowledgeGraph(frozenset({Triple("a", "r", "b"),
                                                      Triple("b", "r", "c")})))
        valid = [(0, 0), (1, 1), (2, 1), (0, 2)]  # the ends of aa, bb, cb, ac
        for seed in range(20):
            pick = embeddings._any_corruption([0, 0, 1], kg_rows, make_rng(seed))
            assert pick == valid[int(make_rng(seed).integers(4))]


def one_relation_kg(n_entities, keep, relation="r"):
    """One relation over entities e00.., holding each (s, o) pair keep accepts."""
    ents = [f"e{i:02d}" for i in range(n_entities)]
    return frozenset(Triple(s, relation, o) for s in ents for o in ents if keep(s, o))


def random_kg(n_entities, n_triples, relations, seed):
    rng = make_rng(seed)
    triples = set()
    while len(triples) < n_triples:
        s, o = (f"e{int(rng.integers(n_entities)):02d}" for _ in range(2))
        triples.add(Triple(s, relations[int(rng.integers(len(relations)))], o))
    return frozenset(triples)


# Near-complete: r over 30 entities misses only (e00, e01) and (e05, e07).
# Triples in those heads' rows or those tails' columns have one or two valid
# corruptions among 60 candidates, so about one in five rejects 100 draws
# and enumerates; every other triple has none and would raise.
NEAR_COMPLETE_HOLES = {("e00", "e01"), ("e05", "e07")}
# Partly complete: sparse r triples beside a relation q complete over the
# same 8 entities, whose one pooled triple raises wherever a batch holds it.
RAISING_Q = Triple("e00", "q", "e01")


def negative_sample_cases():
    """name -> (KG, the triples a batch is drawn from)."""
    sparse_r = random_kg(8, 20, ("r",), seed=6)
    cases = {
        "sparse": (random_kg(40, 60, ("r0", "r1", "r2"), seed=4), None),
        "dense": (random_kg(8, 48, ("r",), seed=5), None),
        "near-complete": (
            one_relation_kg(30, lambda s, o: (s, o) not in NEAR_COMPLETE_HOLES),
            lambda tr: any(tr.subject == s or tr.object == o for s, o in NEAR_COMPLETE_HOLES),
        ),
        "partly-complete": (sparse_r | one_relation_kg(8, lambda s, o: True, "q"),
                            lambda tr: tr in sparse_r or tr == RAISING_Q),
        "complete": (one_relation_kg(3, lambda s, o: True), None),
        "single-entity": (one_relation_kg(1, lambda s, o: True), None),
    }
    return {name: (KnowledgeGraph(triples), [tr for tr in sorted(triples) if not keep or keep(tr)])
            for name, (triples, keep) in cases.items()}


def test_kg_rows_follow_sorted_symbols():
    # "s" is only a subject, "o" only an object, and (m, q, m) a self-loop
    kg = KnowledgeGraph(frozenset({Triple("s", "r", "m"), Triple("m", "q", "o"),
                                   Triple("m", "q", "m"), Triple("s", "q", "o")}))
    kg_rows = KgRows.of(kg)
    assert kg_rows.vocab == build_kg_vocab(kg.triples)
    assert kg_rows.vocab.entities == kg.entity_list() == ("m", "o", "s")
    assert kg_rows.ids.tolist() == triple_rows(sorted(kg.triples), kg_rows.vocab).tolist()
    assert kg_rows.ids.tolist() == [[0, 0, 0], [0, 0, 1], [2, 0, 1], [2, 1, 0]]
    assert kg_rows.codes == {0, 1, 13, 15}  # (h*2 + r)*3 + t
    assert kg_rows.bounds.tolist() == [2, 3] * 100
    larger = KnowledgeGraph(random_kg(8, 20, ("r0", "r1"), seed=6))
    rows = KgRows.of(larger)
    assert rows.ids.tolist() == triple_rows(sorted(larger.triples), rows.vocab).tolist()


def sampled(sample):
    """sample()'s negatives, or the ValueError it raised, as a comparable value."""
    try:
        return sample()
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestNegativeSampleMatchesPerTriple:
    """``negative_sample`` on a batch against the per-triple oracle: the same
    negatives or the same error, and the generator left in the same state."""

    CASES = negative_sample_cases()
    ERRORS = {
        "complete": "ValueError: no valid corruption exists",
        "partly-complete": f"ValueError: no valid corruption exists for {RAISING_Q}",
        "single-entity": "ValueError: negative sampling needs at least 2 entities",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batches_match_per_triple_oracle(self, name, monkeypatch):
        kg, pool = self.CASES[name]
        fallbacks, raised = [], 0
        enumerate_valid = embeddings._any_corruption
        monkeypatch.setattr(embeddings, "_any_corruption",
                            lambda triple, *rest: fallbacks.append(triple)
                            or enumerate_valid(triple, *rest))
        pick = make_rng(100)
        for size in range(1, 41):
            batch = [pool[int(pick.integers(len(pool)))] for _ in range(size)]
            batched, looped = make_rng(size), make_rng(size)
            got = sampled(lambda: sample_triples(batch, kg, batched))
            want = sampled(lambda: [oracle_negative_sample(tr, kg, looped) for tr in batch])
            assert got == want, f"batch of {size}"
            assert batched.integers(2**63) == looped.integers(2**63), f"batch of {size}"
            if isinstance(got, str):
                assert got.startswith(self.ERRORS[name])
                raised += 1
            else:
                assert len(got) == size
        if name == "partly-complete":
            assert 0 < raised < 40  # some batches raise, after negatives for earlier triples
        else:
            assert raised == (40 if name in self.ERRORS else 0)
        if name == "near-complete":
            assert len(fallbacks) >= 10  # the 100-draw enumeration really ran

    @pytest.mark.parametrize("bound", [2, 3, 30, 1000, 2**31, 2**32 - 1])
    def test_tiled_bounds_draw_like_alternating_scalars(self, bound):
        # negative_sample depends on this numpy identity for its stream; its
        # bounds are a prefix of KgRows.bounds
        tiled, scalar = make_rng(bound), make_rng(bound)
        values = tiled.integers(0, np.tile((2, bound), 25)).tolist()
        assert values == [int(scalar.integers(b)) for _ in range(25) for b in (2, bound)]
        assert tiled.integers(2**63) == scalar.integers(2**63)


def rectangle_embeddings():
    """Four unit-norm entities forming a rectangle; both relations are exact
    translations and every corruption sits at distance >= sqrt(2)."""
    x = y = 1.0 / math.sqrt(2)
    dim = 4
    ents = ("a", "b", "c", "d")
    table = np.zeros((4, dim))
    table[0, :2] = (-x, -y)
    table[1, :2] = (x, -y)
    table[2, :2] = (-x, y)
    table[3, :2] = (x, y)
    rels = ("r1", "r2")
    rtable = np.zeros((2, dim))
    rtable[0, 0] = 2 * x
    rtable[1, 1] = 2 * y
    return KgEmbeddings(TripleVocab(ents, rels), table, rtable, "L2")


def rectangle_kg():
    return KnowledgeGraph(frozenset({
        Triple("a", "r1", "b"), Triple("c", "r1", "d"),
        Triple("a", "r2", "c"), Triple("b", "r2", "d"),
    }))


def stacked(emb):
    """The ``(E + R, d)`` table of ``emb``'s entity rows, then its relation rows."""
    return np.concatenate([emb.entity_table, emb.relation_table])


def train_from(kg, config, table):
    """TransE epochs from a start table on the rows of ``KgRows.of(kg)``, on
    a fresh generator of ``config.seed``; ``table`` itself is left as it is."""
    return embeddings._transe_epochs(KgRows.of(kg), table.copy(), config,
                                     make_rng(config.seed))


class TestTransETrain:
    def test_satisfied_margin_leaves_tables_unchanged(self):
        emb = rectangle_embeddings()
        config = TransEConfig(dim=4, margin=1.0, epochs=1, seed=3)
        out = train_from(rectangle_kg(), config, stacked(emb))
        assert (out.entity_table == emb.entity_table).all()
        assert (out.relation_table == emb.relation_table).all()

    def test_toy_cycle_reaches_high_hits(self):
        # Undirected 4-entity cycle over 2 relations (a-b-d-c-a): exactly
        # translation-representable, unlike a single-relation directed cycle
        # whose residual sum forces ||r|| below the mean positive score.
        kg = rectangle_kg()
        config = TransEConfig(dim=8, margin=1.0, lr=0.05, epochs=200, seed=0)
        emb = transe_train(kg, config)
        _, hits = link_prediction_eval(emb, sorted(kg.triples))
        assert hits >= 0.9

    def test_same_seed_bit_identical(self):
        kg = rectangle_kg()
        config = TransEConfig(dim=8, epochs=20, seed=12)
        e1 = transe_train(kg, config)
        e2 = transe_train(kg, config)
        assert (e1.entity_table == e2.entity_table).all()
        assert (e1.relation_table == e2.relation_table).all()

    def test_entity_rows_unit_norm_after_training(self):
        kg = rectangle_kg()
        emb = transe_train(kg, TransEConfig(dim=8, epochs=30, seed=4))
        norms = np.linalg.norm(emb.entity_table, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_empty_kg_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            transe_train(KnowledgeGraph(frozenset()), TransEConfig(dim=4))

    @pytest.mark.parametrize("field, value, message", [
        ("lr", -1.0, "lr must be positive"),
        ("lr", 0.0, "lr must be positive"),
        ("lr", math.inf, "lr must be positive and finite"),
        ("margin", math.inf, "margin must be positive and finite"),
        ("margin", math.nan, "margin must be positive and finite"),
        ("epochs", -1, "epochs must be >= 1"),
        ("epochs", 0, "epochs must be >= 1"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("dim", True, "dim must be an integer, got True"),
        ("epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("batch_size", 8.0, "batch_size must be an integer, got 8.0"),
        ("seed", False, "seed must be an integer, got False"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", -4, "seed must be >= 0"),
        ("margin", True, "margin must be a real number, got True"),
        ("lr", "0.1", "lr must be a real number, got '0.1'"),
        ("norm", "L3", r"norm must be one of \('L1', 'L2'\), got 'L3'"),
    ])
    def test_nonsense_config_rejected(self, field, value, message):
        with pytest.raises((TypeError, ValueError), match=message):
            TransEConfig(**{field: value})

    def test_numpy_integers_become_ints(self):
        config = TransEConfig(dim=np.int64(4), seed=np.int32(3))
        assert type(config.dim) is int and type(config.seed) is int


def oracle_transe_train(kg, config, table=None, sample=oracle_negative_sample):
    """The per-triple TransE loop that ``transe_train`` replaced: a negative
    from ``sample``, score, hinge and a dict update per touched row, one
    triple at a time. ``table``, an ``(E + R, d)`` table on the KG's own
    rows, replaces the random start. The gradient and the renormalization
    take the L2 norm by ``_score_rows``, the rule ``transe_train`` uses."""

    def l2(row):
        return max(float(embeddings._score_rows(row[None, :], "L2")[0]), 1e-12)

    def norm_grad(diff, norm):
        if norm == "L1":
            return np.sign(diff)
        return diff / l2(diff)

    tv = build_kg_vocab(kg.triples)
    ents, rels = tv.entities, tv.predicates
    rng = make_rng(config.seed)
    if table is not None:
        ent_table, rel_table = table[:len(ents)].copy(), table[len(ents):].copy()
    else:
        bound = 6.0 / math.sqrt(config.dim)
        ent_table = rng.uniform(-bound, bound, (len(ents), config.dim))
        rel_table = rng.uniform(-bound, bound, (len(rels), config.dim))
        rel_table /= np.maximum(np.linalg.norm(rel_table, axis=1, keepdims=True), 1e-12)
        ent_table /= np.maximum(np.linalg.norm(ent_table, axis=1, keepdims=True), 1e-12)
    eidx = {s: i for i, s in enumerate(ents)}
    ridx = {s: i for i, s in enumerate(rels)}

    triples = sorted(kg.triples)
    n = len(triples)
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            ent_upd, rel_upd = {}, {}

            def bump(upd, idx, vec):
                upd[idx] = upd[idx] + vec if idx in upd else vec

            for j in order[start:start + config.batch_size]:
                pos = triples[j]
                neg = sample(pos, kg, rng)
                h, r, t = eidx[pos.subject], ridx[pos.predicate], eidx[pos.object]
                hn, tn = eidx[neg.subject], eidx[neg.object]
                v_pos = ent_table[h] + rel_table[r] - ent_table[t]
                v_neg = ent_table[hn] + rel_table[r] - ent_table[tn]
                s_pos = float(embeddings._score_rows(v_pos[None, :], config.norm)[0])
                s_neg = float(embeddings._score_rows(v_neg[None, :], config.norm)[0])
                hinge = config.margin + s_pos - s_neg
                if hinge <= 0.0:
                    continue
                epoch_loss += hinge
                g_pos = norm_grad(v_pos, config.norm)
                g_neg = norm_grad(v_neg, config.norm)
                bump(ent_upd, h, g_pos)
                bump(ent_upd, t, -g_pos)
                bump(rel_upd, r, g_pos - g_neg)
                bump(ent_upd, hn, -g_neg)
                bump(ent_upd, tn, g_neg)
            for idx, g in rel_upd.items():
                rel_table[idx] -= config.lr * g
            for idx, g in sorted(ent_upd.items()):
                row = ent_table[idx] - config.lr * g
                ent_table[idx] = row / l2(row)
        if not math.isfinite(epoch_loss):
            raise RuntimeError(f"TransE loss became non-finite at epoch {epoch + 1}")
    return KgEmbeddings(TripleVocab(ents, rels), ent_table, rel_table, config.norm)


def assert_same_tables(got, want):
    assert got.vocab == want.vocab
    for a, b in ((got.entity_table, want.entity_table),
                 (got.relation_table, want.relation_table)):
        assert np.array_equal(a, b)
        assert a.tobytes() == b.tobytes()  # sign of zero included


TRANSE_ENTITIES = [f"e{i}" for i in range(6)]


@st.composite
def transe_cases(draw):
    """Small KGs (two or more entities, up to 3 relations) with a config and,
    half the time, a start table on the KG's own rows that holds exact zeros
    of both signs."""
    ents = st.sampled_from(TRANSE_ENTITIES)
    triples = draw(st.frozensets(
        st.builds(Triple, ents, st.sampled_from(["r0", "r1", "r2"]), ents), max_size=12,
    )) | {Triple("e0", "r0", "e1")}
    kg = KnowledgeGraph(triples)
    config = TransEConfig(
        dim=draw(st.sampled_from([1, 2, 5])),
        margin=draw(st.sampled_from([0.5, 1.0, 4.0])),
        lr=draw(st.sampled_from([0.01, 0.1, 0.5])),
        epochs=draw(st.integers(1, 4)),
        batch_size=draw(st.sampled_from([1, 3, 64])),  # 64 > |KG|: one batch
        norm=draw(st.sampled_from(["L1", "L2"])),
        seed=draw(st.integers(0, 2**16)),
    )
    table = None
    if draw(st.booleans()):
        rng = make_rng(config.seed + 1)
        tv = build_kg_vocab(kg.triples)
        table = rng.standard_normal((len(tv.entities) + len(tv.predicates), config.dim))
        table[rng.random(table.shape) < 0.2] = 0.0
        table[rng.random(table.shape) < 0.2] = -0.0
    return kg, config, table


@settings(max_examples=150, deadline=None, derandomize=True)
@given(transe_cases())
def test_transe_train_matches_per_triple_loop(case):
    kg, config, table = case
    got = transe_train(kg, config) if table is None else train_from(kg, config, table)
    assert_same_tables(got, oracle_transe_train(kg, config, table=table))


class TestTransEFastPath:
    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_matches_loop_on_hard_world(self, norm):
        # the TransE run behind criterion 09's G init, at another seed
        kg = make_hard_world(seed=3, word_dim=16).kg
        config = TransEConfig(dim=16, epochs=150, norm=norm, seed=3)
        assert_same_tables(transe_train(kg, config), oracle_transe_train(kg, config))

    @pytest.mark.parametrize("train", [train_from, oracle_transe_train],
                             ids=["batched", "loop"])
    def test_overflowing_hinge_raises(self, train):
        # entries of ~1e308 square to inf, so every hinge is inf - inf = NaN
        emb = rectangle_embeddings()
        signs = np.where(make_rng(0).random(emb.entity_table.shape) < 0.5, -1.0, 1.0)
        table = np.vstack([1e308 * signs, np.full(emb.relation_table.shape, 1e308)])
        config = TransEConfig(dim=emb.dim, epochs=1, seed=3)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite at epoch 1"):
            train(rectangle_kg(), config, table)

    def test_negatives_drawn_per_triple_in_loop_order(self, monkeypatch):
        # Also the call shape perfbench's smoke run checks on traced prep:
        # one negative_sample call per span of NEGATIVE_SPAN triples rounded
        # down to whole minibatches (here the whole 4-triple epoch), one
        # entity_list call per negative_sample call, and no other
        # entity_list call in transe_train.
        batches, looped, lists = [], [], []
        original, entity_list = embeddings.negative_sample, KnowledgeGraph.entity_list

        def recording(batch, kg_rows, rng):
            ents, rels = kg_rows.vocab.entities, kg_rows.vocab.predicates
            batches.append([Triple(ents[h], rels[r], ents[t]) for h, r, t in batch.tolist()])
            return original(batch, kg_rows, rng)

        def oracle_recording(triple, kg, rng):
            looped.append(triple)
            return oracle_negative_sample(triple, kg, rng)

        def counting(kg):
            lists.append(len(batches))
            return entity_list(kg)

        monkeypatch.setattr(embeddings, "negative_sample", recording)
        monkeypatch.setattr(KnowledgeGraph, "entity_list", counting)
        kg = rectangle_kg()
        config = TransEConfig(dim=4, epochs=3, batch_size=3, seed=8)
        transe_train(kg, config)
        assert lists == [1, 2, 3]  # each inside its own negative_sample call
        oracle_transe_train(kg, config, sample=oracle_recording)
        assert [len(batch) for batch in batches] == [4] * 3  # one call per epoch
        assert sum(batches, []) == looped and len(looped) == 3 * len(kg.triples)

    @pytest.mark.parametrize("norm", ["L1", "L2"])
    def test_short_spans_match_loop_on_hard_world(self, norm, monkeypatch):
        # NEGATIVE_SPAN = 7 at batch size 3 rounds down to spans of 6
        # triples: two minibatches per negative_sample call, and a short
        # last span in each epoch
        sizes, original = [], embeddings.negative_sample

        def recording(batch, kg_rows, rng):
            sizes.append(len(batch))
            return original(batch, kg_rows, rng)

        monkeypatch.setattr(embeddings, "NEGATIVE_SPAN", 7)
        monkeypatch.setattr(embeddings, "negative_sample", recording)
        kg = make_hard_world(seed=3, word_dim=16).kg
        n = len(kg.triples)
        assert n % 6
        config = TransEConfig(dim=16, epochs=4, batch_size=3, norm=norm, seed=3)
        assert_same_tables(transe_train(kg, config), oracle_transe_train(kg, config))
        assert sizes == ([6] * (n // 6) + [n % 6]) * 4

    def test_logs_one_summary_line(self, caplog):
        kg = rectangle_kg()
        with caplog.at_level(logging.INFO, logger="text2triple.embeddings"):
            transe_train(kg, TransEConfig(dim=4, epochs=3, seed=2))
        records = [r for r in caplog.records if r.levelno == logging.INFO]
        assert len(records) == 1
        assert re.fullmatch(r"transe: 3 epochs over 4 triples in \d+\.\d{3} s \(\d+ triples/s\), "
                            r"\d+\.\d% of hinges active in the last epoch",
                            records[0].getMessage())

    def test_logged_share_counts_active_hinges(self, caplog):
        # a satisfied margin activates no hinge; margin 10 activates every one
        for margin, share in ((1.0, "0.0%"), (10.0, "100.0%")):
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="text2triple.embeddings"):
                train_from(rectangle_kg(), TransEConfig(dim=4, margin=margin, epochs=1, seed=3),
                           stacked(rectangle_embeddings()))
            assert caplog.records[-1].getMessage().endswith(
                f" {share} of hinges active in the last epoch")


class TestLinkPrediction:
    def test_perfect_embeddings_rank_one(self):
        emb = rectangle_embeddings()
        mean_rank, hits = link_prediction_eval(emb, sorted(rectangle_kg().triples))
        assert mean_rank == 1.0
        assert hits == 1.0

    def test_random_embeddings_mean_rank_near_expectation(self):
        # uniform rank over |E|=10 entities has expectation (|E|+1)/2 = 5.5
        rng = make_rng(31)
        ents = tuple(f"e{i}" for i in range(10))
        ranks = []
        for trial in range(60):
            table = rng.standard_normal((10, 6))
            emb = KgEmbeddings(TripleVocab(ents, ("r",)), table, rng.standard_normal((1, 6)), "L2")
            triples = [Triple(ents[int(rng.integers(10))], "r",
                              ents[int(rng.integers(10))]) for _ in range(10)]
            mean_rank, _ = link_prediction_eval(emb, triples)
            ranks.append(mean_rank)
        assert abs(np.mean(ranks) - 5.5) < 0.5

    def test_unknown_symbol_rejected(self):
        emb = rectangle_embeddings()
        with pytest.raises(ValueError, match="embedding"):
            link_prediction_eval(emb, [Triple("nope", "r1", "b")])

    def test_every_symbol_resolved_before_scoring(self):
        # The tables are gone (rebound past the frozen guard), so scoring any
        # triple would raise TypeError.
        emb = rectangle_embeddings()
        for name in ("entity_table", "relation_table"):
            object.__setattr__(emb, name, None)
        triples = sorted(rectangle_kg().triples) + [Triple("a", "r1", "nope")]
        with pytest.raises(ValueError, match="^symbol 'nope' has no embedding$"):
            link_prediction_eval(emb, triples)

    @pytest.mark.parametrize("triple", [Triple("r1", "r1", "a"), Triple("a", "b", "c")],
                             ids=["relation-as-entity", "entity-as-relation"])
    def test_symbol_in_the_wrong_table_rejected(self, triple):
        emb = rectangle_embeddings()
        with pytest.raises(ValueError, match="has no embedding"):
            link_prediction_eval(emb, [triple])

    def test_single_entity_rejected(self):
        emb = KgEmbeddings(TripleVocab(("a",), ("r",)), np.ones((1, 2)), np.ones((1, 2)), "L2")
        with pytest.raises(ValueError, match="entities"):
            link_prediction_eval(emb, [Triple("a", "r", "a")])

    def test_no_triples_rejected(self):
        with pytest.raises(ValueError, match="at least one triple"):
            link_prediction_eval(rectangle_embeddings(), [])


def oracle_link_ranks(emb, triples):
    """The per-query loop that ``_link_ranks`` replaced: the direct distance
    from each query to every entity, one (E, d) pass per query. Row i holds
    triple i's tail rank, then its head rank."""
    E = emb.entity_table
    erows, prows = emb.vocab.entity_rows, emb.vocab.predicate_rows
    ranks = []
    for tr in triples:
        h, t = erows[tr.subject], erows[tr.object]
        r = emb.relation_table[prows[tr.predicate]]
        tail_scores = embeddings._score_rows(E[h] + r - E, emb.norm)
        head_scores = embeddings._score_rows(E + r - E[t], emb.norm)
        ranks.append((1 + int((tail_scores < tail_scores[t]).sum()),
                      1 + int((head_scores < head_scores[h]).sum())))
    return np.array(ranks)


@st.composite
def link_cases(draw):
    """Random tables holding exact zeros of both signs, and 1, chunk - 1,
    chunk or chunk + 1 query triples over them."""
    norm = draw(st.sampled_from(["L1", "L2"]))
    n_ents, n_rels = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    dim = draw(st.sampled_from([1, 2, 5, 16]))
    chunk = embeddings.LINK_CHUNK
    n_triples = draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1]))
    rng = make_rng(draw(st.integers(0, 2**16)))
    tables = [rng.standard_normal((n, dim)) for n in (n_ents, n_rels)]
    for table in tables:
        table[rng.random(table.shape) < 0.2] = 0.0
        table[rng.random(table.shape) < 0.2] = -0.0
    ents = tuple(f"e{i}" for i in range(n_ents))
    rels = tuple(f"r{i}" for i in range(n_rels))
    triples = [Triple(ents[s], rels[p], ents[o]) for s, p, o in zip(
        *(rng.integers(n, size=n_triples) for n in (n_ents, n_rels, n_ents)))]
    return KgEmbeddings(TripleVocab(ents, rels), *tables, norm), triples


@settings(max_examples=120, deadline=None, derandomize=True)
@given(link_cases())
@example((rectangle_embeddings(), sorted(rectangle_kg().triples)))
def test_link_ranks_match_per_query_loop(case):
    """L1 evaluates the loop's own expressions, so its ranks are equal by
    construction. L2 ranks by ||e||^2 - 2e.a, whose rounding differs from
    the direct distance's: only entities whose distances are equal to within
    rounding may rank differently, and in the seeded cases none does. The
    rectangle, whose ranks are all 1, is one explicit case."""
    emb, triples = case
    ranks = embeddings._link_ranks(emb, triples)
    assert ranks.shape == (len(triples), 2)
    assert np.array_equal(ranks, oracle_link_ranks(emb, triples))


def load_word_vectors(path, vocab, dim, rng):
    """A word-vector file read and made into an encoder table, as train does."""
    return word_init_table(*read_vector_file(path, dim), vocab, rng)


class TestWordVectors:
    def vocab(self):
        return build_word_vocab([["berlin", "germany", "capital"]])

    def test_full_coverage_copies_rows(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text(
            "berlin 1 2\ngermany 3 4\ncapital 5 6\n", encoding="utf-8"
        )
        v = self.vocab()
        table, coverage = load_word_vectors(f, v, 2, make_rng(0))
        assert coverage == 1.0
        np.testing.assert_array_equal(table[v.id_of("berlin")], [1.0, 2.0])
        np.testing.assert_array_equal(table[v.id_of("capital")], [5.0, 6.0])

    def test_empty_file_random_fallback(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("")
        table, coverage = load_word_vectors(f, self.vocab(), 4, make_rng(0))
        assert coverage == 0.0
        assert table.shape == (6, 4)
        assert (np.abs(table) <= 0.08).all()

    def test_mixed_dims_rejected_with_line(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("berlin 1 2\ngermany 3 4 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=":2"):
            load_word_vectors(f, self.vocab(), 2, make_rng(0))

    def test_header_line_accepted(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("2 2\nberlin 1 2\ngermany 3 4\n", encoding="utf-8")
        table, coverage = load_word_vectors(f, self.vocab(), 2, make_rng(0))
        assert abs(coverage - 2 / 3) < 1e-12

    @pytest.mark.parametrize("count", [1, 3])
    def test_header_count_mismatch_rejected(self, tmp_path, count):
        f = tmp_path / "w.vec"
        f.write_text(f"{count} 2\nberlin 1 2\ngermany 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"w\.vec:1: header says {count} rows, file has 2"):
            load_word_vectors(f, self.vocab(), 2, make_rng(0))

    def test_header_dim_mismatch_rejected(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("1 5\nberlin 1 2 3 4 5\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            load_word_vectors(f, self.vocab(), 2, make_rng(0))

    @pytest.mark.parametrize("text, dim", [
        ("a b\nberlin 1 2\n", 2),
        ("berlin 1\ngermany 2\n", 1),  # a two-field first line is always the header
    ], ids=["letters", "one-dim row"])
    def test_non_integer_header_rejected_with_line(self, tmp_path, text, dim):
        f = tmp_path / "w.vec"
        f.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=r"w\.vec:1: header") as info:
            load_word_vectors(f, self.vocab(), dim, make_rng(0))
        assert len(str(info.value).splitlines()) == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, bad):
        f = tmp_path / "w.vec"
        f.write_text(f"berlin 1 2\ngermany 3 {bad}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"w\.vec:2: non-finite"):
            load_word_vectors(f, self.vocab(), 2, make_rng(0))

    def test_non_numeric_value_rejected_with_line(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("germany 3 4\nberlin 1 x\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"w\.vec:2: non-numeric vector value"):
            load_word_vectors(f, self.vocab(), 2, make_rng(0))

    def test_first_duplicate_wins(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("berlin 1 2\nberlin 3 4\n", encoding="utf-8")
        v = self.vocab()
        table, _ = load_word_vectors(f, v, 2, make_rng(0))
        np.testing.assert_array_equal(table[v.id_of("berlin")], [1.0, 2.0])

    def test_reserved_rows_stay_random(self, tmp_path):
        f = tmp_path / "w.vec"
        f.write_text("berlin 9 9\n", encoding="utf-8")
        table, _ = load_word_vectors(f, self.vocab(), 2, make_rng(0))
        assert (np.abs(table[:3]) <= 0.08).all()


class TestFrozenKgEmbeddings:
    @pytest.mark.parametrize("name", ["entity_table", "relation_table", "entity_sq_norms"])
    def test_arrays_are_read_only(self, name):
        array = getattr(rectangle_embeddings(), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0

    @pytest.mark.parametrize("name", ["vocab", "entity_table", "relation_table", "norm",
                                      "entity_sq_norms"])
    def test_fields_cannot_be_reassigned(self, name):
        emb = rectangle_embeddings()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(emb, name, None)

    def test_norms_computed_once(self, monkeypatch):
        emb = rectangle_embeddings()
        calls = []
        einsum = np.einsum

        def counting_einsum(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting_einsum)
        triples = sorted(rectangle_kg().triples)
        for i in range(50):
            link_prediction_eval(emb, [triples[i % len(triples)]])
        assert calls == ["ij,ij->i"]

    def test_norms_equal_a_fresh_einsum_bit_for_bit(self):
        rng = make_rng(8)
        table = rng.standard_normal((40, 16))
        table[rng.random(table.shape) < 0.2] = -0.0
        emb = KgEmbeddings(TripleVocab(tuple(f"e{i}" for i in range(40)), ("r",)),
                           table, rng.standard_normal((1, 16)), "L2")
        assert emb.entity_sq_norms.tobytes() == np.einsum("ij,ij->i", table, table).tobytes()

    def test_views_taken_before_construction_cannot_write_the_tables(self):
        table = np.ones((2, 3))
        view = table[:]
        emb = KgEmbeddings(TripleVocab(("a", "b"), ("r",)), table, np.ones((1, 3)), "L2")
        assert emb.entity_sq_norms.tolist() == [3.0, 3.0]
        view[0] = 5.0
        assert emb.entity_table.tolist() == [[1.0] * 3] * 2
        assert emb.entity_sq_norms.tolist() == [3.0, 3.0]


class TestKgEmbeddingIo:
    def test_unknown_norm_rejected(self):
        with pytest.raises(ValueError, match="norm must be one of"):
            KgEmbeddings(TripleVocab(("a",), ("r",)), np.ones((1, 2)), np.ones((1, 2)), "L3")

    @pytest.mark.parametrize("shapes", [((2, 2), (1, 2)), ((1, 2), (1, 3)), ((1, 2), (2, 2))],
                             ids=["entity-rows", "widths", "relation-rows"])
    def test_table_shapes_must_fit_the_vocab(self, shapes):
        tables = list(map(np.ones, shapes))
        with pytest.raises(ValueError, match="one row per symbol"):
            KgEmbeddings(TripleVocab(("a",), ("r",)), *tables, "L2")
        assert all(t.flags.writeable for t in tables)  # a refused table is left as it was

    def test_roundtrip_exact(self, tmp_path):
        kg = rectangle_kg()
        config = TransEConfig(dim=8, epochs=10, seed=5)
        emb = transe_train(kg, config)
        write_kg_embeddings(emb, tmp_path / "emb", config)
        loaded = load_kg_embeddings(tmp_path / "emb")
        assert loaded.vocab == emb.vocab
        assert (loaded.entity_table == emb.entity_table).all()
        assert (loaded.relation_table == emb.relation_table).all()
        assert loaded.norm == emb.norm

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected_with_line(self, tmp_path, bad):
        kg = rectangle_kg()
        config = TransEConfig(dim=2, epochs=1, seed=5)
        out = tmp_path / "emb"
        write_kg_embeddings(transe_train(kg, config), out, config)
        lines = (out / "relations.vec").read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].rsplit(" ", 1)[0] + " " + bad
        (out / "relations.vec").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"relations\.vec:2: non-finite"):
            load_kg_embeddings(out)

    def saved(self, tmp_path):
        config = TransEConfig(dim=2, epochs=1, seed=5)
        out = tmp_path / "emb"
        write_kg_embeddings(transe_train(rectangle_kg(), config), out, config)
        return out

    def test_non_numeric_value_rejected_with_line(self, tmp_path):
        out = self.saved(tmp_path)
        lines = (out / "entities.vec").read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].rsplit(" ", 1)[0] + " x"
        (out / "entities.vec").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"entities\.vec:3: non-numeric vector value"):
            load_kg_embeddings(out)

    def test_non_integer_header_rejected_with_line(self, tmp_path):
        out = self.saved(tmp_path)
        lines = (out / "relations.vec").read_text(encoding="utf-8").splitlines()
        lines[0] = "a b"
        (out / "relations.vec").write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"relations\.vec:1: header"):
            load_kg_embeddings(out)

    def test_short_file_rejected_by_header_count(self, tmp_path):
        # a ring over 16 entities; the file loses its last 3 rows
        kg = KnowledgeGraph(frozenset(
            Triple(f"e{i:02d}", "r", f"e{(i + 1) % 16:02d}") for i in range(16)
        ))
        config = TransEConfig(dim=4, epochs=1, seed=5)
        out = tmp_path / "emb"
        write_kg_embeddings(transe_train(kg, config), out, config)
        path = out / "entities.vec"
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "16 4"
        path.write_text("\n".join(lines[:-3]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"entities\.vec:1: header says 16 rows, file has 13$"):
            load_kg_embeddings(out)

    def test_headerless_file_wider_than_manifest_dim_rejected_with_line(self, tmp_path):
        out = self.saved(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        (out / "manifest.json").write_text(json.dumps({**manifest, "dim": 1}), encoding="utf-8")
        path = out / "entities.vec"
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        assert header.split()[1] == "2"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"entities\.vec:1: expected 1 vector values, got 2$"):
            load_kg_embeddings(out)

    def test_empty_file_rejected(self, tmp_path):
        out = self.saved(tmp_path)
        (out / "relations.vec").write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match=r"relations\.vec: no vectors found"):
            load_kg_embeddings(out)

    @pytest.mark.parametrize("name, kind", [("entities.vec", "entity"),
                                            ("relations.vec", "predicate")])
    def test_repeated_symbol_rejected_naming_file_and_symbol(self, tmp_path, name, kind):
        out = self.saved(tmp_path)
        path = out / name
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        repeated = rows[1].split()[0]
        rows.append(rows[1])
        dim = header.split()[1]
        path.write_text("\n".join([f"{len(rows)} {dim}", *rows]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_kg_embeddings(out)
        assert str(info.value) == f"{path}: duplicate {kind} symbol {repeated!r}"

    def test_save_is_deterministic(self, tmp_path):
        kg = rectangle_kg()
        config = TransEConfig(dim=4, epochs=5, seed=6)
        for name in ("one", "two"):
            write_kg_embeddings(transe_train(kg, config), tmp_path / name, config)
        for fname in ("entities.vec", "relations.vec", "manifest.json"):
            assert (tmp_path / "one" / fname).read_bytes() == (
                tmp_path / "two" / fname
            ).read_bytes()


class TestVectorFiles:
    def test_write_read_roundtrip_exact(self, tmp_path):
        table = make_rng(4).normal(0.0, 1.0, (5, 3))
        table[0] = (1.0 / 3.0, -0.0, 5e-324)
        table[1] = (1e300, -2.5e-17, 123456789.0)
        symbols = ("b", "a", "ent:x_y", "rel:z", "b")
        write_files({tmp_path / "t.vec": vector_text(symbols, table)})
        read_symbols, read_table = read_vector_file(tmp_path / "t.vec", 3)
        assert read_symbols == symbols
        assert read_table.tobytes() == table.tobytes()

    def test_every_row_kept_in_file_order(self, tmp_path):
        f = tmp_path / "t.vec"
        f.write_text("z 1 2\na 3 4\nz 5 6\n", encoding="utf-8")
        symbols, table = read_vector_file(f)
        assert symbols == ("z", "a", "z")
        np.testing.assert_array_equal(table, [[1, 2], [3, 4], [5, 6]])

    def test_empty_file_has_no_rows(self, tmp_path):
        f = tmp_path / "t.vec"
        f.write_text("", encoding="utf-8")
        symbols, table = read_vector_file(f, 4)
        assert symbols == () and table.shape == (0, 4)

    def test_table_must_fit_symbols(self):
        with pytest.raises(ValueError, match="does not fit"):
            vector_text(("a", "b"), np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", ["New York", "a\x0cb", "a\u2028b", ""])
    def test_unserializable_symbol_rejected_before_writing(self, bad):
        with pytest.raises(ValueError, match="not serializable"):
            vector_text(("a", bad), np.zeros((2, 2)))


class TestDecoderInit:
    def test_vectors_land_on_target_ids(self):
        emb = rectangle_embeddings()
        tvocab = build_kg_vocab(rectangle_kg().triples)
        table, coverage = decoder_init_table(emb, tvocab, 4, make_rng(0))
        assert coverage == 1.0
        assert table.shape == (tvocab.n_targets, 4)
        for sym in tvocab.entities:
            np.testing.assert_array_equal(table[tvocab.entity_id(sym)], emb.entity_vec(sym))
        for sym in tvocab.predicates:
            np.testing.assert_array_equal(
                table[tvocab.predicate_id(sym)], emb.relation_vec(sym)
            )
        assert (np.abs(table[tvocab.bos_id]) <= 0.08).all()  # BOS row random

    def test_dim_mismatch_rejected(self):
        emb = rectangle_embeddings()
        tvocab = build_kg_vocab(rectangle_kg().triples)
        with pytest.raises(ValueError, match="dim"):
            decoder_init_table(emb, tvocab, 8, make_rng(0))
