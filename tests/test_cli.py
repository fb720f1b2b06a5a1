"""End-to-end sub-command behavior through the real process boundary."""

import argparse
import hashlib
import json
import shutil

import pytest

from conftest import TABLE1_SENTENCE, nan_gradient_on_call, rewrite_checkpoint_header, run_cli

from text2triple import cli, embeddings


class TestDispatch:
    def test_unknown_command_exits_2(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_unknown_flag_exits_2(self):
        proc = run_cli("build-vocab", "--bogus", "x")
        assert proc.returncode == 2

    def test_missing_file_exits_1_with_one_line_error(self, tmp_path):
        proc = run_cli("build-vocab", "--corpus", str(tmp_path / "nope.txt"),
                       "--kg", str(tmp_path / "kg.tsv"), "--out", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stderr.strip().splitlines()[-1].startswith("error:")


class TestBuildVocab:
    def test_writes_tables(self, table1_dir, tmp_path):
        out = tmp_path / "vocab"
        proc = run_cli("build-vocab", "--corpus", str(table1_dir / "sentences.txt"),
                       "--kg", str(table1_dir / "kg.tsv"), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        words = (out / "words.vocab").read_text().splitlines()
        assert words[:3] == ["<pad>", "<unk>", "<bos>"]
        assert "berlin" in words and len(words) == 10
        ents = (out / "entities.vocab").read_text().splitlines()
        assert ents == ["dbr:Berlin", "dbr:Germany"]
        assert (out / "predicates.vocab").read_text().splitlines() == ["dbo:capital"]


class TestKgEmbed:
    def test_deterministic_outputs(self, table1_dir, tmp_path):
        outs = []
        for name in ("e1", "e2"):
            out = tmp_path / name
            proc = run_cli("kg-embed", "--kg", str(table1_dir / "kg.tsv"),
                           "--dim", "8", "--epochs", "20", "--seed", "3",
                           "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        for fname in ("entities.vec", "relations.vec", "manifest.json"):
            assert (tmp_path / "e1" / fname).read_bytes() == (
                tmp_path / "e2" / fname
            ).read_bytes()


class TestDsAlign:
    def test_table1_alignment(self, table1_dir, tmp_path):
        out = tmp_path / "aligned.jsonl"
        proc = run_cli("ds-align", "--kg", str(table1_dir / "kg.tsv"),
                       "--surface-forms", str(table1_dir / "surface.tsv"),
                       "--sentences", str(table1_dir / "sentences.txt"),
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["triple"] == ["dbr:Germany", "dbo:capital", "dbr:Berlin"]
        assert records[0]["tokens"] == TABLE1_SENTENCE.lower().rstrip(".").split()

    def test_sentence_file_is_read_line_by_line(self, table1_dir, tmp_path):
        # blank lines are skipped, CRLF and form-feed breaks end a sentence
        sentences = tmp_path / "sentences.txt"
        sentences.write_bytes(
            b"Berlin lies in Germany\r\n\r\n  \nno entity here\x0cGermany, Berlin\n"
        )
        out = tmp_path / "aligned.jsonl"
        proc = run_cli("ds-align", "--kg", str(table1_dir / "kg.tsv"),
                       "--surface-forms", str(table1_dir / "surface.tsv"),
                       "--sentences", str(sentences), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "examples=2 ambiguous=0 sentences=3\n"
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == ["ds:0", "ds:2"]
        assert records[1]["tokens"] == ["germany", "berlin"]

    def test_byte_order_mark_in_kg_dropped(self, table1_dir, tmp_path, capsys):
        kg = tmp_path / "kg.tsv"
        kg.write_bytes(b"\xef\xbb\xbf" + (table1_dir / "kg.tsv").read_bytes())
        code = cli.main(["ds-align", "--kg", str(kg),
                         "--surface-forms", str(table1_dir / "surface.tsv"),
                         "--sentences", str(table1_dir / "sentences.txt"),
                         "--out", str(tmp_path / "aligned.jsonl")])
        assert code == 0
        assert capsys.readouterr().out == "examples=1 ambiguous=0 sentences=1\n"


@pytest.mark.parametrize("command", [
    lambda d: ["kg-embed", "--dim", "4", "--epochs", "2"],
    lambda d: ["build-vocab", "--corpus", str(d / "sentences.txt")],
], ids=["kg-embed", "build-vocab"])
def test_unserializable_symbol_writes_nothing(command, table1_dir, tmp_path, capsys):
    # A KG TSV may hold "New York"; the vector and vocabulary files may not.
    kg = tmp_path / "kg.tsv"
    kg.write_text("New York\tcapitalOf\tUSA\nBerlin\tcapitalOf\tGermany\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main([*command(table1_dir), "--kg", str(kg), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        "error: symbol not serializable (empty or holds whitespace): 'New York'"
    ]
    assert not out.exists()


def _tree(root):
    """Every path under root, with the bytes of each file (None for a directory)."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


# Each multi-output command, with one output it cannot write: the last of an
# --out directory's files is a directory already, or a second path is in a
# directory that does not exist. (argv, the path the error names)
ALL_OR_NOTHING = {
    "ds-align": lambda d, ckpt, out: (
        ["ds-align", "--kg", d / "kg.tsv", "--surface-forms", d / "surface.tsv",
         "--sentences", d / "sentences.txt", "--out", out / "ds.jsonl",
         "--ambiguity-report", out / "nodir" / "amb.jsonl"], out / "nodir" / "amb.jsonl"),
    "train": lambda d, ckpt, out: (
        ["train", "--config", d / "model.cfg", "--train", d / "train.jsonl", "--epochs", "1",
         "--out", out / "m.ckpt", "--log", out / "nodir" / "m.log"], out / "nodir" / "m.log"),
    "eval": lambda d, ckpt, out: (
        ["eval", "--checkpoint", ckpt, "--test", d / "test.jsonl",
         "--report", out / "nodir" / "report.tsv"], out / "nodir" / "report.tsv"),
    "build-vocab": lambda d, ckpt, out: (
        ["build-vocab", "--corpus", d / "sentences.txt", "--kg", d / "kg.tsv", "--out", out],
        out / "predicates.vocab"),
    "kg-embed": lambda d, ckpt, out: (
        ["kg-embed", "--kg", d / "kg.tsv", "--dim", "4", "--epochs", "2", "--out", out],
        out / "manifest.json"),
    "make-synthetic": lambda d, ckpt, out: (
        ["make-synthetic", "--out", out], out / "words.vec"),
}


@pytest.mark.parametrize("command", ALL_OR_NOTHING)
def test_command_writes_all_outputs_or_none(command, table1_dir, table1_checkpoint, tmp_path,
                                           capsys):
    out = tmp_path / "out"
    argv, blocked = ALL_OR_NOTHING[command](table1_dir, table1_checkpoint, out)
    if blocked.parent == out:
        blocked.mkdir(parents=True)
        reason = "[Errno 21] Is a directory"
    else:
        out.mkdir()
        reason = "[Errno 2] No such file or directory"
    before = _tree(tmp_path)
    code = cli.main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
        f"error: {reason}: {str(blocked)!r}"
    ]
    assert captured.out == ""
    assert _tree(tmp_path) == before


class TestTrainAndTranslate:
    def test_translate_table1(self, table1_dir, table1_checkpoint):
        proc = run_cli("translate", "--checkpoint", str(table1_checkpoint),
                       "--text", TABLE1_SENTENCE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "dbr:Germany\tdbo:capital\tdbr:Berlin\n"

    def test_training_is_byte_deterministic(self, table1_dir, tmp_path):
        logs, ckpts = [], []
        for name in ("r1", "r2"):
            ckpt = tmp_path / f"{name}.ckpt"
            log = tmp_path / f"{name}.log"
            proc = run_cli("train", "--config", str(table1_dir / "model.cfg"),
                           "--train", str(table1_dir / "train.jsonl"),
                           "--epochs", "10", "--seed", "11",
                           "--out", str(ckpt), "--log", str(log))
            assert proc.returncode == 0, proc.stderr
            logs.append(log.read_bytes())
            ckpts.append(ckpt.read_bytes())
        assert logs[0] == logs[1]
        assert ckpts[0] == ckpts[1]

    def test_log_lines_have_expected_fields(self, table1_dir, table1_checkpoint):
        first = (table1_dir / "train.log").read_text().splitlines()[0]
        assert first.startswith("epoch=1\ttrain_loss=")
        assert "dev_f1=na" in first

    def test_text_without_tokens_exits_1(self, table1_checkpoint, capsys):
        code = cli.main(["translate", "--checkpoint", str(table1_checkpoint), "--text", "!!!"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
            "error: no tokens in input"
        ]

    def test_repl_handles_empty_oov_and_eof(self, table1_checkpoint):
        stdin = "\nzzz qqq vvv\n!!!\n" + TABLE1_SENTENCE + "\n"
        proc = run_cli("translate", "--checkpoint", str(table1_checkpoint),
                       "--interactive", stdin=stdin)
        assert proc.returncode == 0
        assert "out of vocabulary" in proc.stderr
        assert "warning: no tokens in input" in proc.stderr
        assert "dbr:Germany\tdbo:capital\tdbr:Berlin" in proc.stdout
        assert "log-probs:" in proc.stdout
        assert "attention[subject]" in proc.stdout

    def test_non_finite_gradient_exits_1(self, table1_dir, tmp_path, monkeypatch, capsys):
        # In-process, so that the gradient can be patched. train.jsonl holds
        # one example, so call 2 is the only batch of epoch 2.
        nan_gradient_on_call(monkeypatch, 2)
        ckpt = tmp_path / "m.ckpt"
        code = cli.main(["train", "--config", str(table1_dir / "model.cfg"),
                         "--train", str(table1_dir / "train.jsonl"),
                         "--epochs", "3", "--seed", "1", "--out", str(ckpt)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "training aborted on non-finite loss; last good checkpoint kept" in err
        assert [line.split("\t")[0] for line in out.splitlines()] == ["epoch=1"]
        assert ckpt.exists()

    def test_diverging_forward_pass_aborts_and_keeps_checkpoint(self, table1_dir, tmp_path,
                                                                 capsys):
        cfg = tmp_path / "huge-lr.cfg"
        cfg.write_text((table1_dir / "model.cfg").read_text() + "lr=1e300\n")
        ckpt = tmp_path / "m.ckpt"
        code = cli.main(["train", "--config", str(cfg),
                         "--train", str(table1_dir / "train.jsonl"),
                         "--epochs", "3", "--seed", "1", "--out", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 1
        assert "training aborted on non-finite loss; last good checkpoint kept" in err
        assert not [ln for ln in err.splitlines() if ln.startswith("error:")]
        assert ckpt.exists()

    def test_diverging_run_reports_only_the_abort(self, tmp_path):
        # numpy's overflow warnings would repeat on stderr what the abort line says
        proc = run_cli("make-synthetic", "--hard", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        cfg = tmp_path / "huge-lr.cfg"
        cfg.write_text("lr=1e300\n", encoding="utf-8")
        ckpt = tmp_path / "m.ckpt"
        proc = run_cli("train", "--config", str(cfg), "--train", str(tmp_path / "train.jsonl"),
                       "--epochs", "2", "--out", str(ckpt))
        assert proc.returncode == 1
        assert "training aborted on non-finite loss; last good checkpoint kept" in proc.stderr
        assert [ln for ln in proc.stderr.splitlines() if "Warning" in ln] == []
        assert ckpt.exists()

    def test_defective_checkpoint_header_one_line_error(self, table1_checkpoint,
                                                        tmp_path):
        def string_shape(header):
            header["arrays"][0]["shape"] = "12"
            return header

        for edit in (string_shape, lambda header: [header]):
            bad = tmp_path / "bad.ckpt"
            rewrite_checkpoint_header(table1_checkpoint, bad, edit)
            proc = run_cli("translate", "--checkpoint", str(bad), "--text", TABLE1_SENTENCE)
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
            assert len(errors) == 1, proc.stderr


class TestWordVectorFile:
    def make_world(self, out):
        proc = run_cli("make-synthetic", "--hard", "--seed", "5", "--word-dim", "64",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        return out / "words.vec"

    def test_make_synthetic_word_vectors_pinned(self, tmp_path):
        digest = hashlib.sha256(self.make_world(tmp_path).read_bytes()).hexdigest()
        assert digest == "b1bbb772928e1500912e0e1e134f646341a99808b8c2bc7a0a35d5de3c35dec2"

    def test_train_reads_make_synthetic_word_vectors(self, tmp_path):
        words = self.make_world(tmp_path)
        proc = run_cli("train", "--train", str(tmp_path / "train.jsonl"),
                       "--flags", "A,W", "--word-vectors", str(words), "--epochs", "1",
                       "--out", str(tmp_path / "m.ckpt"))
        assert proc.returncode == 0, proc.stderr
        assert "word-vector coverage: 100.0%" in proc.stderr


class TestEval:
    def test_eval_perfect_on_training_pair(self, table1_dir, table1_checkpoint,
                                           tmp_path):
        report = tmp_path / "report.tsv"
        proc = run_cli("eval", "--checkpoint", str(table1_checkpoint),
                       "--test", str(table1_dir / "test.jsonl"),
                       "--kg", str(table1_dir / "kg.tsv"),
                       "--report", str(report))
        assert proc.returncode == 0, proc.stderr
        assert "precision             1.000000" in proc.stdout
        lines = report.read_text().splitlines()
        assert "f1\t1.000000" in lines

    def test_eval_deterministic_report(self, table1_dir, table1_checkpoint, tmp_path):
        blobs = []
        for name in ("a", "b"):
            report = tmp_path / f"{name}.tsv"
            proc = run_cli("eval", "--checkpoint", str(table1_checkpoint),
                           "--test", str(table1_dir / "test.jsonl"),
                           "--report", str(report))
            assert proc.returncode == 0
            blobs.append(report.read_bytes())
        assert blobs[0] == blobs[1]


class TestAblation:
    def test_single_config_grid_one_row(self, table1_dir, tmp_path):
        report = tmp_path / "grid.txt"
        proc = run_cli("ablation", "--train", str(table1_dir / "train.jsonl"),
                       "--test", str(table1_dir / "test.jsonl"),
                       "--grid", "A", "--seeds", "4", "--epochs", "60",
                       "--config", str(table1_dir / "model.cfg"),
                       "--report", str(report))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("config")
        assert lines[1].startswith("S+A")
        assert len([l for l in lines if l.strip()]) == 2  # header + one row

    def test_grid_labels_all_off_and_all_on(self, table1_dir, tmp_path):
        proc = run_cli("ablation", "--train", str(table1_dir / "train.jsonl"),
                       "--test", str(table1_dir / "test.jsonl"),
                       "--grid", "none;A,W,G", "--seeds", "4", "--epochs", "2",
                       "--config", str(table1_dir / "model.cfg"))
        # W and G need vector files; all-off works, A,W,G fails actionably
        assert proc.returncode == 1
        assert "word-vectors" in proc.stderr

    @pytest.mark.parametrize("grid, label", [("A;A", "S+A"), ("A;a", "S+A"),
                                             ("none;", "Seq2Seq"), ("A,W;W,A", "S+A+W")])
    def test_repeated_flag_set_rejected_before_training(self, grid, label, table1_dir,
                                                        monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the grid was checked")

        monkeypatch.setattr(cli.model, "train", no_training)
        code = cli.main(["ablation", "--train", str(table1_dir / "train.jsonl"),
                         "--test", str(table1_dir / "test.jsonl"), "--grid", grid])
        err = capsys.readouterr().err
        assert code == 1
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: ablation grid names flag set {label} twice"
        ]


class TestConfigResolution:
    def test_flag_overrides_config_file(self, table1_dir, tmp_path):
        # config file sets 150 epochs; the flag cuts it to 2
        ckpt = tmp_path / "m.ckpt"
        log = tmp_path / "m.log"
        proc = run_cli("train", "--config", str(table1_dir / "model.cfg"),
                       "--train", str(table1_dir / "train.jsonl"),
                       "--epochs", "2", "--seed", "1",
                       "--out", str(ckpt), "--log", str(log))
        assert proc.returncode == 0, proc.stderr
        assert len(log.read_text().splitlines()) == 2
        assert "epochs=2" in proc.stderr  # resolved config is logged

    def test_bad_config_key_rejected(self, table1_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_knob=1\n")
        proc = run_cli("train", "--config", str(cfg),
                       "--train", str(table1_dir / "train.jsonl"),
                       "--out", str(tmp_path / "m.ckpt"))
        assert proc.returncode == 1
        assert "no_such_knob" in proc.stderr

    def test_zero_batch_size_one_line_error(self, table1_dir, tmp_path):
        # train takes batch_size from the config file; it has no flag for it
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("batch_size=0\n")
        ckpt = tmp_path / "m.ckpt"
        proc = run_cli("train", "--config", str(cfg),
                       "--train", str(table1_dir / "train.jsonl"), "--out", str(ckpt))
        assert proc.returncode == 1
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
        assert errors == ["error: batch_size must be >= 1"]
        assert "Traceback" not in proc.stderr
        assert not ckpt.exists()


    def test_non_integer_value_names_file_line_and_key(self, table1_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# dimensions\nkg_dim=8\nword_dim=abc\n")
        code = cli.main(["train", "--config", str(cfg),
                         "--train", str(table1_dir / "train.jsonl"),
                         "--out", str(tmp_path / "m.ckpt")])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert code == 1
        assert errors == [f"error: {cfg}:3: word_dim: expected an integer, got 'abc'"]
        assert not (tmp_path / "m.ckpt").exists()

    def test_unknown_boolean_names_file_line_and_key(self, table1_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("use_attention=ture\n")
        code = cli.main(["train", "--config", str(cfg),
                         "--train", str(table1_dir / "train.jsonl"),
                         "--out", str(tmp_path / "m.ckpt")])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert code == 1
        assert errors == [f"error: {cfg}:1: use_attention: expected a boolean "
                          f"(1/0, true/false, yes/no, on/off), got 'ture'"]
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("raw, value", [
        ("off", False), ("OFF", False), ("0", False), ("No", False), ("false", False),
        ("on", True), ("1", True), ("YES", True), ("True", True),
    ])
    def test_boolean_spellings(self, raw, value, tmp_path):
        cfg = tmp_path / "flags.cfg"
        cfg.write_text(f"use_attention={raw}\nuse_kg_init={raw}\n")
        config = cli.resolve_model_config(argparse.Namespace(config=str(cfg)))
        assert config.use_attention is value and config.use_kg_init is value


NOT_UTF8 = {
    "train examples": lambda d, bad: ["train", "--train", bad],
    "config file": lambda d, bad: ["train", "--config", bad, "--train", d / "train.jsonl"],
    "word vectors": lambda d, bad: ["train", "--train", d / "train.jsonl", "--flags", "A,W",
                                    "--word-vectors", bad],
    "KG TSV": lambda d, bad: ["kg-embed", "--kg", bad],
    "surface forms": lambda d, bad: ["ds-align", "--kg", d / "kg.tsv", "--surface-forms", bad,
                                     "--sentences", d / "sentences.txt"],
    "sentences": lambda d, bad: ["ds-align", "--kg", d / "kg.tsv",
                                 "--surface-forms", d / "surface.tsv", "--sentences", bad],
    "KG manifest": lambda d, bad: ["train", "--train", d / "train.jsonl",
                                   "--kg-embeddings", bad.parent],
}


@pytest.mark.parametrize("reader", sorted(NOT_UTF8))
def test_non_utf8_input_names_the_file(reader, table1_dir, tmp_path, capsys):
    # named like a manifest, so the same file serves every reader
    bad = tmp_path / "bad" / embeddings.MANIFEST_FILE
    bad.parent.mkdir()
    bad.write_bytes(b"\xff\xfe not text\n")
    argv = NOT_UTF8[reader](table1_dir, bad) + ["--out", tmp_path / "out"]
    code = cli.main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: {bad}: not valid UTF-8"
    ]
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def kg_embeddings_dir(table1_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("kg") / "emb"
    assert cli.main(["kg-embed", "--kg", str(table1_dir / "kg.tsv"), "--dim", "4",
                     "--epochs", "2", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("text, message", [
    ("[1]", "expected a JSON object, got list"),
    ('{"dim": 4, "norm": ', "not valid JSON"),
    ('{"norm": "L2"}', "dim must be an integer, got None"),
    ('{"dim": 4.0, "norm": "L2"}', "dim must be an integer, got 4.0"),
    ('{"dim": true, "norm": "L2"}', "dim must be an integer, got True"),
    ('{"dim": 4, "norm": "L3"}', "norm must be one of ('L1', 'L2'), got 'L3'"),
    ('{"dim": 4}', "norm must be one of ('L1', 'L2'), got None"),
    ('{"dim": 5, "norm": "L2"}', "dim 5 does not match the 4-wide vectors of entities.vec"),
])
def test_defective_kg_manifest_one_line_error(text, message, kg_embeddings_dir, table1_dir,
                                              tmp_path, capsys):
    emb = tmp_path / "emb"
    shutil.copytree(kg_embeddings_dir, emb)
    manifest = emb / embeddings.MANIFEST_FILE
    manifest.write_text(text, encoding="utf-8")
    code = cli.main(["train", "--train", str(table1_dir / "train.jsonl"),
                     "--kg-embeddings", str(emb), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert code == 1
    assert len(errors) == 1 and errors[0].startswith(f"error: {manifest}: {message}")
    assert "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


@pytest.mark.parametrize("name", [embeddings.ENTITIES_FILE, embeddings.RELATIONS_FILE])
def test_repeated_kg_embedding_symbol_one_line_error(name, kg_embeddings_dir, table1_dir,
                                                     tmp_path, capsys):
    emb = tmp_path / "emb"
    shutil.copytree(kg_embeddings_dir, emb)
    path = emb / name
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rows.append(rows[0])
    path.write_text("\n".join([f"{len(rows)} {header.split()[1]}", *rows]) + "\n",
                    encoding="utf-8")
    code = cli.main(["train", "--train", str(table1_dir / "train.jsonl"),
                     "--kg-embeddings", str(emb), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    kind = "entity" if name == embeddings.ENTITIES_FILE else "predicate"
    assert code == 1
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: {path}: duplicate {kind} symbol {rows[0].split()[0]!r}"
    ]
    assert "Traceback" not in err
    assert not (tmp_path / "m.ckpt").exists()


class TestBlasThreads:
    def test_checkpoint_bytes_do_not_depend_on_thread_count(self, tmp_path):
        # Two epochs at the train sub-command's default dimensions (64/128,
        # batch_size 8), whose batched GEMMs are the largest the model runs.
        proc = run_cli("make-synthetic", "--hard", "--seed", "5", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        digests = []
        for threads in ("1", "2"):
            ckpt = tmp_path / f"threads{threads}.ckpt"
            proc = run_cli("train", "--train", str(tmp_path / "train.jsonl"),
                           "--dev", str(tmp_path / "dev.jsonl"), "--epochs", "2",
                           "--seed", "3", "--out", str(ckpt),
                           env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            digests.append(hashlib.sha256(ckpt.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


# SHA-256 of every stdout and output file of criterion 10's pipeline, run once
# in process. Like the trajectory digests in test_model.py, the table pins
# numpy 2.4.6 with OpenBLAS; a change that means to move bits updates it and
# names each moved output.
PIPELINE_DIGESTS = {
    "amb.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "build-vocab.stdout": "ed15dff1008cc515521ec7a07d8ee54fd266443dbbc50f46b154be87e19e3934",
    "ds-align.stdout": "6c21fb1032ccc52ac43ee6363d22588bb4bea74edc7d137d55531a6ffb8c8f4b",
    "ds.jsonl": "88e64e2e328782e7decb67ee134bd39f9b7b92580789200dcfd3ff5f7a58ce68",
    "emb/entities.vec": "d8a49fce3c070e287bcd194ac27dc45444761de0f27287d9c2a5a5ae5ecca5c1",
    "emb/manifest.json": "a4593679706b98a236070d12c33d35c5ee32fdd5012f0bf5534f526610bb201b",
    "emb/relations.vec": "387622873efc9fea6ae8ba519cebae2f4bf2c7e081500ec344c176fbc2e50f8d",
    "eval.stdout": "8823a5f3ad9650788ee69e8bd805865ce04506dde556500af23d4a12d3187824",
    "kg-embed.stdout": "3842074b07f5b0deeef37e1b070aae35751b6787e6aca0f2d787c96eb3c18cf8",
    "m.ckpt": "a28b8068e133dd740f1559d697e4d1d348e79bc258fa8f8812739e214280f406",
    "m.log": "f7b7d6171e87eec86331be2ef232f218cdbf1bb92f77316ff61ec6a85e7721bc",
    "report.tsv": "f106ceb3eaa3f2a732f0605031336e21aae6a1054833dc2eb3c3154952d89082",
    "train.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "translate.stdout": "b74de77a59ec9987d3171ad705605dbac200e9672ade6bab3427864d70716963",
    "vocab/entities.vocab": "2236d85c7c13c40321a459d9956588bc4249f711d34aedb21acfe01bd9b24f5e",
    "vocab/predicates.vocab": "6c12587861286271cc5911a0e2deca092bc2b2931cafdb3cb3dc234de630abda",
    "vocab/words.vocab": "94e8a7cfada071a05cf0530d76f0759dc18bc137f219cc4e4bc3d5caec443f0f",
}


def test_pipeline_outputs_pinned(table1_dir, tmp_path, capsys):
    kg, trainf = str(table1_dir / "kg.tsv"), str(table1_dir / "train.jsonl")
    out = {name: str(tmp_path / name) for name in (
        "vocab", "emb", "ds.jsonl", "amb.jsonl", "m.ckpt", "m.log", "report.tsv")}
    steps = [
        ["build-vocab", "--corpus", trainf, "--kg", kg, "--out", out["vocab"]],
        ["kg-embed", "--kg", kg, "--dim", "8", "--epochs", "25", "--seed", "3",
         "--out", out["emb"]],
        ["ds-align", "--kg", kg, "--surface-forms", str(table1_dir / "surface.tsv"),
         "--sentences", str(table1_dir / "sentences.txt"), "--out", out["ds.jsonl"],
         "--ambiguity-report", out["amb.jsonl"]],
        ["train", "--config", str(table1_dir / "model.cfg"), "--train", trainf,
         "--epochs", "12", "--seed", "11", "--out", out["m.ckpt"], "--log", out["m.log"]],
        ["eval", "--checkpoint", out["m.ckpt"], "--test", trainf, "--kg", kg,
         "--report", out["report.tsv"]],
        ["translate", "--checkpoint", out["m.ckpt"], "--text", TABLE1_SENTENCE],
    ]
    digests = {}
    for argv in steps:
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        digests[f"{argv[0]}.stdout"] = hashlib.sha256(stdout).hexdigest()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            name = path.relative_to(tmp_path).as_posix()
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PIPELINE_DIGESTS
