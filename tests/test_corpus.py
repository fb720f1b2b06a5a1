"""Dataset files, distant supervision and the Dataset container."""

import json

import pytest

from text2triple.corpus import (
    AnnotatedExample,
    DataError,
    Dataset,
    KnowledgeGraph,
    Triple,
    distant_supervise,
    load_examples,
    load_kg_file,
    examples_text,
    load_surface_forms,
)
from text2triple import corpus, vocab
from text2triple.embeddings import KgRows, TransEConfig, transe_train
from text2triple.numerics import make_rng

TABLE1 = Triple("dbr:Germany", "dbo:capital", "dbr:Berlin")
TABLE1_TOKENS = ["berlin", "is", "the", "capital", "city", "of", "germany"]


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def test_data_error_is_the_vocab_class():
    assert DataError is vocab.DataError and issubclass(DataError, ValueError)


class TestLoadExamples:
    def test_single_pair(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_jsonl(f, [{"tokens": TABLE1_TOKENS, "triple": list(TABLE1)}])
        examples = load_examples(f)
        assert len(examples) == 1
        assert examples[0].gold == TABLE1
        assert examples[0].tokens == tuple(TABLE1_TOKENS)

    def test_empty_file_is_empty_dataset(self, tmp_path):
        f = tmp_path / "d.jsonl"
        f.write_text("")
        assert load_examples(f) == []

    def test_two_element_triple_rejected_with_line(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_jsonl(f, [
            {"tokens": ["a"], "triple": ["s", "p", "o"]},
            {"tokens": ["b"], "triple": ["s", "p"]},
        ])
        with pytest.raises(DataError, match=":2"):
            load_examples(f)

    def test_bad_json_reports_line(self, tmp_path):
        f = tmp_path / "d.jsonl"
        f.write_text('{"tokens": ["a"], "triple": ["s","p","o"]}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            load_examples(f)

    def test_missing_tokens_rejected(self, tmp_path):
        f = tmp_path / "d.jsonl"
        write_jsonl(f, [{"triple": ["s", "p", "o"]}])
        with pytest.raises(DataError, match="tokens"):
            load_examples(f)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_examples(tmp_path / "missing.jsonl")

    @pytest.mark.parametrize("value, source_id", [(0, "0"), (1, "1"), ("a", "a"),
                                                  (None, "d.jsonl:2")])
    def test_id_kept_as_its_string(self, value, source_id, tmp_path):
        f = tmp_path / "d.jsonl"
        write_jsonl(f, [{"tokens": ["a"], "triple": ["s", "p", "o"]},
                        {"id": value, "tokens": ["b"], "triple": ["s", "p", "o"]}])
        assert [ex.source_id for ex in load_examples(f)] == ["d.jsonl:1", source_id]

    @pytest.mark.parametrize("value", ["", False, True, [1], 1.5, {}])
    def test_id_neither_string_nor_integer_rejected_with_line(self, value, tmp_path):
        f = tmp_path / "d.jsonl"
        write_jsonl(f, [{"id": "x", "tokens": ["a"], "triple": ["s", "p", "o"]},
                        {"id": value, "tokens": ["b"], "triple": ["s", "p", "o"]}])
        with pytest.raises(DataError) as err:
            load_examples(f)
        assert str(err.value) == f"{f}:2: 'id' must be a non-empty string or an integer"

    def test_train_and_dev_with_id_zero_clash(self, tmp_path):
        splits = {}
        for name in ("train", "dev"):
            write_jsonl(tmp_path / name, [{"id": 0, "tokens": ["a"], "triple": ["s", "p", "o"]}])
            splits[name] = load_examples(tmp_path / name)
        with pytest.raises(ValueError, match="source_id '0' appears in both train and dev"):
            Dataset(**splits)

    def test_roundtrip_save_load(self, tmp_path):
        ex = AnnotatedExample(("a", "b"), Triple("s", "p", "o"), "src:1")
        (tmp_path / "d.jsonl").write_text(examples_text([ex]), encoding="utf-8")
        assert load_examples(tmp_path / "d.jsonl") == [ex]


class TestKgFiles:
    def test_kg_tsv(self, tmp_path):
        f = tmp_path / "kg.tsv"
        f.write_text("dbr:Germany\tdbo:capital\tdbr:Berlin\n")
        assert load_kg_file(f) == frozenset({TABLE1})

    def test_kg_bad_arity(self, tmp_path):
        f = tmp_path / "kg.tsv"
        f.write_text("a\tb\n")
        with pytest.raises(DataError, match=":1"):
            load_kg_file(f)

    def test_surface_forms(self, tmp_path):
        f = tmp_path / "sf.tsv"
        f.write_text("dbr:Berlin\tBerlin\ndbr:Berlin\tthe German capital\n")
        forms = load_surface_forms(f)
        assert forms["dbr:Berlin"] == (("berlin",), ("the", "german", "capital"))


def make_kg():
    return KnowledgeGraph(
        frozenset({TABLE1}),
        {"dbr:Germany": (("germany",),), "dbr:Berlin": (("berlin",),)},
    )


class TestKgVocab:
    def test_one_vocab_for_entity_list_and_transe(self, monkeypatch):
        built = []

        def counting(triples):
            built.append(triples)
            return vocab.build_kg_vocab(triples)

        monkeypatch.setattr(corpus, "build_kg_vocab", counting)
        kg = KnowledgeGraph(frozenset({TABLE1, Triple("dbr:Berlin", "dbo:country",
                                                      "dbr:Germany")}))
        assert kg.entity_list() == kg.vocab.entities == ("dbr:Berlin", "dbr:Germany")
        assert kg.vocab == vocab.build_kg_vocab(kg.triples)
        assert KgRows.of(kg).vocab is kg.vocab
        config = TransEConfig(dim=2, epochs=1, seed=3)
        transe_train(kg, config)
        transe_train(kg, config)
        assert built == [kg.triples]


class TestDistantSupervision:
    def test_capital_city_pair_matches(self):
        examples, report = distant_supervise(make_kg(), [TABLE1_TOKENS])
        assert report == []
        assert len(examples) == 1
        assert examples[0].gold == TABLE1
        assert examples[0].tokens == tuple(TABLE1_TOKENS)

    def test_no_alias_no_example(self):
        examples, _ = distant_supervise(make_kg(), [["paris", "is", "nice"]])
        assert examples == []

    def test_one_alias_only_no_example(self):
        examples, _ = distant_supervise(make_kg(), [["berlin", "is", "large"]])
        assert examples == []

    def test_ambiguous_sentence_reported_and_excluded(self):
        kg = KnowledgeGraph(
            frozenset({
                Triple("e:a", "p:r1", "e:b"),
                Triple("e:a", "p:r2", "e:b"),
            }),
            {"e:a": (("alpha",),), "e:b": (("beta",),)},
        )
        sent = ["alpha", "meets", "beta"]
        examples, report = distant_supervise(kg, [sent])
        assert examples == []
        assert len(report) == 1
        assert len(report[0].triples) == 2

    def test_keep_ambiguous_emits_one_per_triple(self):
        kg = KnowledgeGraph(
            frozenset({
                Triple("e:a", "p:r1", "e:b"),
                Triple("e:a", "p:r2", "e:b"),
            }),
            {"e:a": (("alpha",),), "e:b": (("beta",),)},
        )
        examples, report = distant_supervise(kg, [["alpha", "x", "beta"]],
                                             keep_ambiguous=True)
        assert len(examples) == 2
        assert {ex.gold for ex in examples} == set(report[0].triples)
        assert len({ex.source_id for ex in examples}) == 2

    def test_case_insensitive_matching(self):
        examples, _ = distant_supervise(make_kg(), [["Berlin", "in", "GERMANY"]])
        assert len(examples) == 1

    def test_overlapping_spans_do_not_match(self):
        # one mention cannot serve as both subject and object
        kg = KnowledgeGraph(
            frozenset({Triple("e:a", "p:r", "e:a")}),
            {"e:a": (("alpha",),)},
        )
        assert distant_supervise(kg, [["alpha", "rocks"]])[0] == []
        examples, _ = distant_supervise(kg, [["alpha", "meets", "alpha"]])
        assert len(examples) == 1

    def test_longest_alias_wins(self):
        # "new york city" must not also match the nested "new york"
        kg = KnowledgeGraph(
            frozenset({Triple("e:nyc", "p:in", "e:ny")}),
            {"e:nyc": (("new", "york", "city"),), "e:ny": (("new", "york"),)},
        )
        examples, _ = distant_supervise(
            kg, [["new", "york", "city", "lies", "in", "new", "york"]]
        )
        assert len(examples) == 1
        assert examples[0].gold == Triple("e:nyc", "p:in", "e:ny")

    def test_emitted_gold_always_in_kg(self):
        kg = KnowledgeGraph(
            frozenset({
                Triple("e:a", "p:r1", "e:b"),
                Triple("e:b", "p:r2", "e:c"),
            }),
            {"e:a": (("alpha",),), "e:b": (("beta",),), "e:c": (("gamma",),)},
        )
        rng = make_rng(0)
        vocabulary = ["alpha", "beta", "gamma", "x", "y", "z"]
        sentences = [
            [vocabulary[int(rng.integers(len(vocabulary)))] for _ in range(6)]
            for _ in range(200)
        ]
        examples, _ = distant_supervise(kg, sentences, keep_ambiguous=True)
        for ex in examples:
            assert ex.gold in kg.triples
            # emitted aliases occur verbatim in the sentence
            assert any(
                ex.tokens[i] == kg.surface_forms[ex.gold.subject][0][0]
                for i in range(len(ex.tokens))
            )


class TestSplits:
    def make_examples(self, n):
        return [
            AnnotatedExample(("tok", str(i)), Triple("s", "p", "o"), f"src:{i}")
            for i in range(n)
        ]

    def test_dataset_rejects_shared_source_ids(self):
        ex = self.make_examples(1)[0]
        with pytest.raises(ValueError, match="source_id"):
            Dataset(train=[ex], dev=[ex])
