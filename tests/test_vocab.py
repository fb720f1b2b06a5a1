"""Symbol tables, masks and serialization."""

import os
import re
import stat
import threading

import numpy as np
import pytest

from text2triple.vocab import (
    BOS_ID,
    BOS_TOKEN,
    PAD_ID,
    DataError,
    RESERVED_TOKENS,
    SymbolError,
    UNK_ID,
    TripleVocab,
    WordVocab,
    build_kg_vocab,
    build_word_vocab,
    decode_triple,
    encode_sentence,
    read_lines,
    symbols_text,
    tokenize,
    write_files,
)


def write_triple_vocab(tv, entities_path, predicates_path):
    write_files({entities_path: symbols_text(tv.entities),
                 predicates_path: symbols_text(tv.predicates)})


class TestTokenize:
    def test_capital_sentence_has_seven_tokens(self):
        toks = tokenize("Berlin is the capital city of Germany.")
        assert toks == ["berlin", "is", "the", "capital", "city", "of", "germany"]

    def test_punctuation_split(self):
        assert tokenize("A,b;c!") == ["a", "b", "c"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]


class TestWordVocab:
    def test_threshold_filter(self):
        v = build_word_vocab([["a", "b", "a"]], min_count=2)
        assert "a" in v.tokens and "b" not in v.tokens
        assert len(v) == 4
        assert v == WordVocab(v.tokens)  # as reloaded from a checkpoint's word list

    def test_empty_corpus_reserved_only(self):
        v = build_word_vocab([], min_count=1)
        assert len(v) == 3
        assert v.tokens == RESERVED_TOKENS

    def test_capital_sentence_all_present(self):
        toks = tokenize("Berlin is the capital city of Germany.")
        v = build_word_vocab([toks], min_count=1)
        assert all(t in v.tokens for t in toks)
        assert len(v) == 3 + 7

    def test_id_order_frequency_then_lexicographic(self):
        v = build_word_vocab([["b", "b", "c", "a", "a"]], min_count=1)
        # a and b tie at 2, a wins lexicographically; c has 1
        assert v.tokens[3:] == ("a", "b", "c")

    def test_reserved_ids(self):
        v = build_word_vocab([["x"]])
        assert (v.id_of("<pad>"), v.id_of("<unk>"), v.id_of("<bos>")) == (
            PAD_ID, UNK_ID, BOS_ID,
        )

    def test_min_count_validation(self):
        with pytest.raises(ValueError):
            build_word_vocab([], min_count=0)

    def test_repeated_token_is_named(self):
        with pytest.raises(ValueError, match="^duplicate word vocab token 'x'$"):
            WordVocab(RESERVED_TOKENS + ("x", "y", "x"))


class TestEncodeSentence:
    def test_roundtrip_known(self):
        v = build_word_vocab([["alpha", "beta"]])
        ids = encode_sentence(["alpha", "beta"], v)
        assert [v.tokens[i] for i in ids] == ["alpha", "beta"]

    def test_unknown_maps_to_unk(self):
        v = build_word_vocab([["alpha"]])
        assert encode_sentence(["zxqv"], v) == [UNK_ID]

    def test_empty_is_empty(self):
        v = build_word_vocab([["alpha"]])
        assert encode_sentence([], v) == []

    def test_length_preserved_never_fails(self):
        v = build_word_vocab([["alpha"]])
        sent = ["alpha", "zz", "", "alpha"]  # even odd junk maps to UNK
        assert len(encode_sentence(sent, v)) == len(sent)


GERMANY = ("dbr:Germany", "dbo:capital", "dbr:Berlin")


class TestTripleVocab:
    def test_capital_kg(self):
        tv = build_kg_vocab([GERMANY])
        assert set(tv.entities) == {"dbr:Germany", "dbr:Berlin"}
        assert tv.predicates == ("dbo:capital",)

    def test_subject_object_share_entity_id(self):
        tv = build_kg_vocab([("a", "p", "b"), ("b", "p", "c")])
        assert set(tv.entities) == {"a", "b", "c"}
        assert tv.entity_id("b") == tv.entity_id("b")

    def test_shared_predicate_deduplicated(self):
        tv = build_kg_vocab([("a", "p", "b"), ("c", "p", "d")])
        assert len(tv.predicates) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_kg_vocab([])

    @pytest.mark.parametrize("entities, predicates, table, message", [
        (("a", "b", "a"), ("p",), "entity", "duplicate entity symbol 'a'"),
        (("a",), ("p", "q", "q"), "predicate", "duplicate predicate symbol 'q'"),
        (("a", ""), ("p",), "entity", "empty entity symbol"),
        (("a",), (7,), "predicate", "predicate symbol 7 is not a string"),
    ])
    def test_bad_symbol_names_it_and_its_table(self, entities, predicates, table, message):
        with pytest.raises(SymbolError, match=f"^{message}$") as info:
            TripleVocab(entities, predicates)
        assert info.value.table == table

    def test_rows_are_zero_based_positions(self):
        tv = TripleVocab(("b", "a"), ("q", "p"))
        assert tv.entity_rows == {"b": 0, "a": 1}
        assert tv.predicate_rows == {"q": 0, "p": 1}
        assert [tv.predicate_id(p) for p in tv.predicates] == [3, 4]

    def test_masks_partition_target_space(self):
        tv = build_kg_vocab([("a", "p", "b"), ("c", "q", "a")])
        m1, m2, m3 = tv.step_mask(1), tv.step_mask(2), tv.step_mask(3)
        assert (m1 == m3).all()
        assert not (m1 & m2).any()
        union = m1 | m2
        assert not union[0]  # BOS is never an output
        assert union[1:].all()

    def test_masks_are_shared_and_read_only(self):
        tv = build_kg_vocab([("a", "p", "b")])
        assert np.shares_memory(tv.step_mask(1), tv.step_mask(1))
        with pytest.raises(ValueError, match="read-only"):
            tv.step_mask(2)[0] = True

    def test_stacked_masks_are_the_step_masks_read_only(self):
        tv = build_kg_vocab([("a", "p", "b"), ("c", "q", "a")])
        assert tv.step_masks.shape == (3, tv.n_targets)
        for k in (1, 2, 3):
            assert np.array_equal(tv.step_masks[k - 1], tv.step_mask(k))
            assert np.shares_memory(tv.step_masks, tv.step_mask(k))
        with pytest.raises(ValueError, match="read-only"):
            tv.step_masks[1, 0] = True

    def test_symbols_follow_the_id_partition(self):
        tv = TripleVocab(("b", "a", "c"), ("q", "p"))
        E = len(tv.entities)

        def dispatch(idx):  # the per-id branches the table replaced
            if idx == 0:
                return BOS_TOKEN
            if tv.is_entity_id(idx):
                return tv.entities[idx - 1]
            assert tv.is_predicate_id(idx)
            return tv.predicates[idx - 1 - E]

        assert len(tv.symbols) == tv.n_targets
        assert list(tv.symbols) == [dispatch(i) for i in range(tv.n_targets)]

    def test_unknown_predicate_symbol_rejected(self):
        tv = build_kg_vocab([("a", "p", "b")])
        with pytest.raises(KeyError, match="unknown predicate symbol: 'a'"):
            tv.predicate_id("a")

    def test_deterministic_byte_identical_serialization(self, tmp_path):
        triples = [("b", "q", "a"), ("a", "p", "c")]
        for i in (1, 2):
            tv = build_kg_vocab(triples)
            write_triple_vocab(tv, tmp_path / f"e{i}", tmp_path / f"p{i}")
        assert (tmp_path / "e1").read_bytes() == (tmp_path / "e2").read_bytes()
        assert (tmp_path / "p1").read_bytes() == (tmp_path / "p2").read_bytes()


class TestDecodeTriple:
    def test_capital_roundtrip(self):
        tv = build_kg_vocab([GERMANY])
        ids = tv.encode_triple(*GERMANY)
        assert decode_triple(ids, tv) == GERMANY

    def test_predicate_id_in_entity_slot_rejected(self):
        tv = build_kg_vocab([GERMANY])
        pid = tv.predicate_id("dbo:capital")
        eid = tv.entity_id("dbr:Berlin")
        with pytest.raises(ValueError, match="slot 0"):
            decode_triple([pid, pid, eid], tv)

    def test_roundtrip_any_valid_triple(self):
        tv = build_kg_vocab([("a", "p", "b"), ("c", "q", "d")])
        for s in tv.entities:
            for p in tv.predicates:
                for o in tv.entities:
                    assert decode_triple(tv.encode_triple(s, p, o), tv) == (s, p, o)

    def test_wrong_arity(self):
        tv = build_kg_vocab([GERMANY])
        with pytest.raises(ValueError, match="exactly 3"):
            decode_triple([1, 2], tv)

    @pytest.mark.parametrize("slot, kind", [(0, "an entity"), (1, "a predicate"),
                                            (2, "an entity")])
    @pytest.mark.parametrize("outside", ["below", "above"])
    def test_id_outside_the_target_space_rejected(self, slot, kind, outside):
        # symbols[-1] is a predicate and symbols[n_targets] is past the end:
        # the partition check refuses both before the table is read
        tv = build_kg_vocab([GERMANY])
        ids = list(tv.encode_triple(*GERMANY))
        ids[slot] = -1 if outside == "below" else tv.n_targets
        with pytest.raises(ValueError, match=f"^target id {ids[slot]} in slot {slot} "
                                             f"is not {kind} id$"):
            decode_triple(ids, tv)


class TestSerialization:
    def test_word_vocab_roundtrip(self, tmp_path):
        v = build_word_vocab([["berlin", "is", "berlin"]])
        write_files({tmp_path / "w.vocab": symbols_text(v.tokens)})
        assert tuple(line for _, line in read_lines(tmp_path / "w.vocab")) == v.tokens

    def test_line_number_is_id(self, tmp_path):
        v = build_word_vocab([["zz", "aa"]])
        write_files({tmp_path / "w.vocab": symbols_text(v.tokens)})
        lines = (tmp_path / "w.vocab").read_text().splitlines()
        for idx, line in enumerate(lines):
            assert v.id_of(line) == idx

    def test_triple_vocab_roundtrip(self, tmp_path):
        tv = build_kg_vocab([GERMANY, ("a", "p", "b")])
        write_triple_vocab(tv, tmp_path / "e", tmp_path / "p")
        assert tuple(line for _, line in read_lines(tmp_path / "e")) == tv.entities
        assert tuple(line for _, line in read_lines(tmp_path / "p")) == tv.predicates

    def test_symbol_with_space_rejected(self, tmp_path):
        tv = TripleVocab(("bad entity",), ("p",))
        with pytest.raises(ValueError, match="serializable"):
            write_triple_vocab(tv, tmp_path / "e", tmp_path / "p")

    @pytest.mark.parametrize("entities, predicates", [
        (("a\x0cb",), ("p",)),  # a form feed would split into "a" and "b" on reading
        (("a",), ("p\x85q",)),  # a predicate fails after the entities passed
    ])
    def test_any_whitespace_rejected_before_writing(self, entities, predicates, tmp_path):
        with pytest.raises(ValueError, match="serializable"):
            write_triple_vocab(TripleVocab(entities, predicates), tmp_path / "e", tmp_path / "p")
        assert list(tmp_path.iterdir()) == []


class TestReadLines:
    def test_breaks_bom_and_numbering(self, tmp_path):
        # Only a leading byte-order mark is dropped; a form feed is no break.
        f = tmp_path / "t.txt"
        f.write_bytes("\ufeffa\r\nb\rc\x0cd\n\n\ufeffe".encode("utf-8"))
        assert list(read_lines(f)) == [
            (1, "a"), (2, "b"), (3, "c\x0cd"), (4, ""), (5, "\ufeffe"),
        ]

    def test_bad_byte_names_the_file(self, tmp_path):
        f = tmp_path / "t.txt"
        f.write_bytes(b"ok\n\xff\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(f))}: not valid UTF-8$"):
            list(read_lines(f))


class TestWriteFiles:
    def test_text_is_utf8_without_newline_translation(self, tmp_path):
        write_files({tmp_path / "t.txt": "a\r\nb\u00e9\n", str(tmp_path / "b.bin"): b"\x00\xff"})
        assert (tmp_path / "t.txt").read_bytes() == "a\r\nb\u00e9\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"

    @pytest.mark.parametrize("first_existed", [False, True], ids=["new", "existing"])
    def test_missing_directory_leaves_every_target_as_it_was(self, first_existed, tmp_path):
        first = tmp_path / "first.txt"
        if first_existed:
            first.write_bytes(b"old\n")
        second = os.path.join(tmp_path, "nodir", "second.txt")
        with pytest.raises(FileNotFoundError) as info:
            write_files({first: "new\n", second: "new\n"})
        assert str(info.value) == f"[Errno 2] No such file or directory: {second!r}"
        expect = ["first.txt"] if first_existed else []
        assert sorted(p.name for p in tmp_path.iterdir()) == expect  # and no .partial
        if first_existed:
            assert first.read_bytes() == b"old\n"

    def test_directory_target_fails_before_any_file_changes(self, tmp_path):
        first = tmp_path / "first.txt"
        first.write_bytes(b"old\n")
        (tmp_path / "sub").mkdir()
        with pytest.raises(IsADirectoryError, match=re.escape(repr(str(tmp_path / "sub")))):
            write_files({first: "new\n", tmp_path / "sub": "new\n"})
        assert first.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["first.txt", "sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    def test_symlink_is_written_through(self, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "data.txt"
        target.write_bytes(b"old\n")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        write_files({link: "new\n"})
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["data.txt", "link.txt", "real"]

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write_files({fifo: "through the pipe\n", tmp_path / "plain.txt": "x\n"})
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"through the pipe\n"]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert (tmp_path / "plain.txt").read_bytes() == b"x\n"

    def test_new_file_mode_matches_open(self, tmp_path):
        with open(tmp_path / "opened.txt", "w"):
            pass
        write_files({tmp_path / "written.txt": "x\n"})
        assert os.stat(tmp_path / "written.txt").st_mode == os.stat(tmp_path / "opened.txt").st_mode
