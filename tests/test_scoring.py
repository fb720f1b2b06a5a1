"""Strict exact-match scoring and the error taxonomy."""

from collections import Counter

import pytest

from text2triple import scoring
from text2triple.corpus import KnowledgeGraph, Triple
from text2triple.scoring import (
    ErrorCategory,
    error_taxonomy,
    evaluate,
    format_ablation_grid,
    format_report,
    report_records,
)
from text2triple.numerics import make_rng
from text2triple.synthetic import make_hard_world
from text2triple.vocab import TripleVocab, build_kg_vocab

TABLE1 = Triple("dbr:Germany", "dbo:capital", "dbr:Berlin")


class TestExactMatch:
    def test_identical(self):
        assert evaluate([TABLE1], [TABLE1]).n_correct == 1

    def test_wrong_predicate_fails(self):
        pred = Triple("dbr:Germany", "dbo:largestCity", "dbr:Berlin")
        assert evaluate([pred], [TABLE1]).n_correct == 0

    def test_capital_city_gold(self):
        pred = Triple("dbr:Germany", "dbo:capital", "dbr:Berlin")
        assert evaluate([pred], [TABLE1]).n_correct == 1


def t(i):
    return Triple(f"s{i}", f"p{i}", f"o{i}")


class TestEvaluate:
    def test_all_correct(self):
        golds = [t(i) for i in range(4)]
        report = evaluate(list(golds), golds)
        assert report.precision == report.recall == report.f1 == 1.0

    def test_no_predictions(self):
        golds = [t(i) for i in range(3)]
        report = evaluate([None, None, None], golds)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic_oracle(self):
        # 5 golds, 4 predictions, 3 correct: P=3/4, R=3/5, F1=2PR/(P+R)=2/3
        golds = [t(i) for i in range(5)]
        preds = [t(0), t(1), t(2), Triple("x", "y", "z"), None]
        report = evaluate(preds, golds)
        assert abs(report.precision - 0.75) < 1e-12
        assert abs(report.recall - 0.6) < 1e-12
        assert abs(report.f1 - 0.666667) < 1e-6
        assert abs(report.f1 - 2 * 0.75 * 0.6 / (0.75 + 0.6)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([None], [t(0), t(1)])

    def test_permutation_invariant(self):
        golds = [t(i) for i in range(6)]
        preds = [t(0), t(9), t(2), None, t(4), t(8)]
        base = evaluate(preds, golds)
        rng = make_rng(3)
        for _ in range(10):
            perm = rng.permutation(6)
            shuffled = evaluate([preds[i] for i in perm], [golds[i] for i in perm])
            assert (shuffled.precision, shuffled.recall, shuffled.f1) == (
                base.precision, base.recall, base.f1,
            )

    def test_one_prediction_per_example_reduces_to_accuracy(self):
        golds = [t(i) for i in range(8)]
        preds = [t(i) if i % 2 == 0 else t(i + 100) for i in range(8)]
        report = evaluate(preds, golds)
        assert report.precision == report.recall == report.f1 == 0.5


def make_vocab():
    return TripleVocab(
        ("e:a", "e:b", "e:c", "e:d"), ("p:r1", "p:r2")
    )


class TestErrorTaxonomy:
    def test_oov_entity(self):
        golds = [Triple("e:unknown", "p:r1", "e:b")]
        counts = error_taxonomy([t(0)], golds, make_vocab())
        assert counts[ErrorCategory.OOV_ENTITY] == 1

    def test_oov_predicate(self):
        golds = [Triple("e:a", "p:unknown", "e:b")]
        counts = error_taxonomy([t(0)], golds, make_vocab())
        assert counts[ErrorCategory.OOV_PREDICATE] == 1

    def test_overlapping_relation(self):
        kg = KnowledgeGraph(frozenset({
            Triple("e:a", "p:r1", "e:b"),
            Triple("e:a", "p:r2", "e:b"),
        }))
        golds = [Triple("e:a", "p:r1", "e:b")]
        preds = [Triple("e:a", "p:r2", "e:b")]  # right pair, wrong predicate
        counts = error_taxonomy(preds, golds, make_vocab(), kg)
        assert counts[ErrorCategory.OVERLAPPING_RELATION] == 1

    def test_wrong_predicate_without_overlap(self):
        kg = KnowledgeGraph(frozenset({Triple("e:a", "p:r1", "e:b")}))
        golds = [Triple("e:a", "p:r1", "e:b")]
        preds = [Triple("e:a", "p:r2", "e:b")]
        counts = error_taxonomy(preds, golds, make_vocab(), kg)
        assert counts[ErrorCategory.WRONG_PREDICATE] == 1

    def test_single_slot_errors(self):
        golds = [Triple("e:a", "p:r1", "e:b")] * 3
        preds = [
            Triple("e:c", "p:r1", "e:b"),
            Triple("e:a", "p:r2", "e:b"),
            Triple("e:a", "p:r1", "e:c"),
        ]
        counts = error_taxonomy(preds, golds, make_vocab())
        assert counts[ErrorCategory.WRONG_SUBJECT] == 1
        assert counts[ErrorCategory.WRONG_PREDICATE] == 1
        assert counts[ErrorCategory.WRONG_OBJECT] == 1

    def test_counts_sum_to_incorrect(self):
        rng = make_rng(8)
        tv = make_vocab()
        ents, preds_v = tv.entities, tv.predicates
        golds, preds = [], []
        for _ in range(200):
            golds.append(Triple(
                ents[int(rng.integers(4))], preds_v[int(rng.integers(2))],
                ents[int(rng.integers(4))],
            ))
            if rng.integers(5) == 0:
                preds.append(None)
            else:
                preds.append(Triple(
                    ents[int(rng.integers(4))], preds_v[int(rng.integers(2))],
                    ents[int(rng.integers(4))],
                ))
        counts = error_taxonomy(preds, golds, tv)
        n_wrong = sum(
            1 for p, g in zip(preds, golds) if p != g
        )
        assert sum(counts.values()) == n_wrong

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="^2 predictions vs 1 golds$"):
            error_taxonomy([t(0), t(1)], [t(0)], make_vocab())

    def test_counts_are_the_per_example_categories(self):
        # The hard world's KG, a vocabulary without its first entity and
        # predicate, and against each test gold: an abstention, every KG
        # triple and the gold under every predicate. Every category occurs.
        world = make_hard_world(seed=17, word_dim=16)
        full = build_kg_vocab(world.kg.triples)
        tv = TripleVocab(full.entities[1:], full.predicates[1:])
        preds, golds = [], []
        for gold in (ex.gold for ex in world.test):
            for pred in (None, *sorted(world.kg.triples),
                         *(gold._replace(predicate=p) for p in full.predicates)):
                preds.append(pred)
                golds.append(gold)
        per_example = Counter(scoring._category(p, g, tv, world.kg)
                              for p, g in zip(preds, golds))
        counts = error_taxonomy(preds, golds, tv, world.kg)
        assert list(counts) == list(ErrorCategory)
        assert counts == {cat: per_example[cat] for cat in ErrorCategory}
        assert all(counts.values())
        assert per_example[None] == sum(p == g for p, g in zip(preds, golds))


class TestRendering:
    def test_report_records_fixed_order(self):
        report = evaluate([t(0)], [t(0)])
        report.error_counts = error_taxonomy([t(0)], [t(0)], make_vocab())
        recs = report_records(report)
        assert recs[0] == "n_gold\t1"
        assert recs[3] == "precision\t1.000000"
        assert any(r.startswith("error.OOV_ENTITY\t") for r in recs)

    def test_format_report_contains_f1(self):
        text = format_report(evaluate([t(0), None], [t(0), t(1)]))
        assert "F1" in text and "0.666667" in text

    def test_ablation_grid_single_config(self):
        text = format_ablation_grid({"Seq2Seq": {"toy": [0.5]}})
        assert "Seq2Seq" in text and "0.5000" in text
        assert len(text.splitlines()) == 2  # header + one row, no per-seed block

    def test_ablation_grid_medians_and_per_seed(self):
        grid = {
            "Seq2Seq": {"toy": [0.2, 0.4, 0.3]},
            "S+A+W+G": {"toy": [0.6, 0.5, 0.7]},
        }
        text = format_ablation_grid(grid)
        assert "0.3000" in text  # median of first row
        assert "0.6000" in text  # median of second row
        assert "per-seed values:" in text
        assert "[0.2000, 0.4000, 0.3000]" in text
