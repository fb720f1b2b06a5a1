"""End-to-end sub-command behavior through the real process boundary."""

import argparse
import hashlib
import json
import platform
import shutil
from dataclasses import fields

import numpy as np
import pytest

from conftest import (
    TABLE1_SENTENCE,
    assert_pinned,
    checkpoint_pin,
    nan_gradient_on_call,
    rewrite_checkpoint_header,
    run_cli,
)

from text2triple import cli, corpus, embeddings
from text2triple.model import ModelConfig


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


@pytest.mark.parametrize("option, value, message", [
    ("--lr", "inf", "lr must be positive and finite"),
    ("--margin", "inf", "margin must be positive and finite"),
    ("--lr", "1e300", "TransE loss became non-finite at epoch 2"),  # finite, but diverges
])
def test_nonfinite_transe_setting_one_line_error(option, value, message, tmp_path, capsys):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\tr\tb\nb\tr\tc\nc\tq\ta\n", encoding="utf-8")
    out = tmp_path / "out"
    code = cli.main(["kg-embed", "--kg", str(kg), "--dim", "4", "--epochs", "3",
                     option, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [f"error: {message}"]
    assert "Warning" not in err and "Traceback" not in err
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


# Each command with two output options: argv with the two given paths, and
# the second option's name.
TWO_OUTPUTS = {
    "train": (lambda d, first, second: [
        "train", "--config", d / "model.cfg", "--train", d / "train.jsonl", "--epochs", "1",
        "--out", first, "--log", second], "--log"),
    "ds-align": (lambda d, first, second: [
        "ds-align", "--kg", d / "kg.tsv", "--surface-forms", d / "surface.tsv",
        "--sentences", d / "sentences.txt", "--out", first, "--ambiguity-report", second],
        "--ambiguity-report"),
}


@pytest.mark.parametrize("second", ["out.dat", "./out.dat", "link.dat"],
                         ids=["same", "dot-slash", "symlink"])
@pytest.mark.parametrize("command", TWO_OUTPUTS)
def test_two_outputs_naming_one_file_write_nothing(command, second, table1_dir, tmp_path,
                                                   monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.dat").write_bytes(b"old\n")
    (tmp_path / "link.dat").symlink_to("out.dat")
    before = _tree(tmp_path)
    argv, option = TWO_OUTPUTS[command]
    code = cli.main([str(arg) for arg in argv(table1_dir, "out.dat", second)])
    captured = capsys.readouterr()
    assert code == 1
    assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
        f"error: --out out.dat and {option} {second} name the same file"
    ]
    assert captured.out == ""
    assert _tree(tmp_path) == before


# Each command with an output that may name one of its inputs: the input's
# file in table1_dir, argv with the input's and the output's paths, and the
# output's and the input's option names.
OUTPUT_IS_INPUT = {
    "eval": ("model.ckpt", lambda d, inp, out: [
        "eval", "--checkpoint", inp, "--test", d / "test.jsonl", "--report", out],
        "--report", "--checkpoint"),
    "ds-align": ("sentences.txt", lambda d, inp, out: [
        "ds-align", "--kg", d / "kg.tsv", "--surface-forms", d / "surface.tsv",
        "--sentences", inp, "--out", out], "--out", "--sentences"),
    "train": ("train.jsonl", lambda d, inp, out: [
        "train", "--config", d / "model.cfg", "--train", inp, "--epochs", "1",
        "--out", "m.ckpt", "--log", out], "--log", "--train"),
}


@pytest.mark.parametrize("second", ["in.dat", "./in.dat", "link.dat"],
                         ids=["same", "dot-slash", "symlink"])
@pytest.mark.parametrize("command", OUTPUT_IS_INPUT)
def test_output_naming_an_input_writes_nothing(command, second, table1_dir, table1_checkpoint,
                                               tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    name, argv, output, input_ = OUTPUT_IS_INPUT[command]
    shutil.copyfile(table1_dir / name, tmp_path / "in.dat")
    (tmp_path / "link.dat").symlink_to("in.dat")
    before = _tree(tmp_path)
    code = cli.main([str(arg) for arg in argv(table1_dir, "in.dat", second)])
    captured = capsys.readouterr()
    assert code == 1
    assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
        f"error: {output} {second} and {input_} in.dat name the same file"
    ]
    assert captured.out == ""
    assert _tree(tmp_path) == before


# Each command with a directory option one of whose files another option
# names: the input to copy into place (a file or a directory) and where,
# argv, and the error.
DIRECTORY_FILE_NAMED = {
    "build-vocab": (lambda d, emb: d / "sentences.txt", "bv/words.vocab", lambda d: [
        "build-vocab", "--corpus", "bv/words.vocab", "--kg", d / "kg.tsv", "--out", "bv"],
        "--out bv (words.vocab) and --corpus bv/words.vocab"),
    "train": (lambda d, emb: emb, "e", lambda d: [
        "train", "--train", d / "train.jsonl", "--kg-embeddings", "e",
        "--out", "e/manifest.json"],
        "--out e/manifest.json and --kg-embeddings e (manifest.json)"),
}


@pytest.mark.parametrize("command", DIRECTORY_FILE_NAMED)
def test_file_in_a_directory_option_named_twice_writes_nothing(
        command, table1_dir, kg_embeddings_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    source, target, argv, names = DIRECTORY_FILE_NAMED[command]
    source = source(table1_dir, kg_embeddings_dir)
    (tmp_path / target).parent.mkdir(parents=True, exist_ok=True)
    (shutil.copytree if source.is_dir() else shutil.copyfile)(source, tmp_path / target)
    before = _tree(tmp_path)
    code = cli.main([str(arg) for arg in argv(table1_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert [ln for ln in captured.err.splitlines() if ln.startswith("error:")] == [
        f"error: {names} name the same file"
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
        # a config file names each key once, so the file's own lr gives way
        cfg.write_text((table1_dir / "model.cfg").read_text().replace("lr=0.005\n", "lr=1e300\n"))
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

    @pytest.mark.parametrize("grid, flag, option", [("none;A,W,G", "W", "--word-vectors"),
                                                    ("none;A;A,G", "G", "--kg-embeddings")])
    def test_cell_without_its_vectors_rejected_before_training(self, grid, flag, option,
                                                              table1_dir, monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before every cell's inputs were checked")

        monkeypatch.setattr(cli.model, "train", no_training)
        code = cli.main(["ablation", "--train", str(table1_dir / "train.jsonl"),
                         "--test", str(table1_dir / "test.jsonl"), "--grid", grid])
        err = capsys.readouterr().err
        assert code == 1
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: flag {flag} set but {option} not given"
        ]

    def test_kg_dim_mismatch_rejected_before_training(self, table1_dir, kg_embeddings_dir,
                                                      tmp_path):
        # 4-wide KG vectors against model.cfg's kg_dim=12, for the grid's second cell
        report = tmp_path / "grid.txt"
        proc = run_cli("ablation", "--config", str(table1_dir / "model.cfg"),
                       "--train", str(table1_dir / "train.jsonl"),
                       "--test", str(table1_dir / "test.jsonl"), "--grid", "none;A,G",
                       "--seeds", "4", "--epochs", "1",
                       "--kg-embeddings", str(kg_embeddings_dir), "--report", str(report))
        assert proc.returncode == 1
        assert [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")] == [
            "error: KG embedding dim 4 != decoder embedding dim 12"
        ]
        assert "f1=" not in proc.stderr and proc.stdout == ""
        assert not report.exists()

    @pytest.mark.parametrize("seeds, seed", [("1,1", 1), ("0,2,0", 0), ("3,03", 3)])
    def test_repeated_seed_rejected_before_training(self, seeds, seed, table1_dir,
                                                    monkeypatch, capsys):
        def no_training(*args, **kwargs):
            raise AssertionError("trained before the seeds were checked")

        monkeypatch.setattr(cli.model, "train", no_training)
        code = cli.main(["ablation", "--train", str(table1_dir / "train.jsonl"),
                         "--test", str(table1_dir / "test.jsonl"), "--grid", "A",
                         "--seeds", seeds])
        err = capsys.readouterr().err
        assert code == 1
        assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
            f"error: --seeds names seed {seed} twice"
        ]


ABLATION_CONFIG = """\
word_dim=16
kg_dim=8
enc_hidden=8
dec_hidden=16
batch_size=8
lr=0.01
"""


@pytest.fixture(scope="module")
def hard_world(tmp_path_factory):
    """make-synthetic --hard files and a small config for two-by-two grids."""
    d = tmp_path_factory.mktemp("hard")
    proc = run_cli("make-synthetic", "--hard", "--out", str(d))
    assert proc.returncode == 0, proc.stderr
    (d / "model.cfg").write_text(ABLATION_CONFIG, encoding="utf-8")
    return d


def _ablation_argv(d, *extra):
    return ["ablation", "--config", str(d / "model.cfg"), "--train", str(d / "train.jsonl"),
            "--dev", str(d / "dev.jsonl"), "--test", str(d / "test.jsonl"),
            "--grid", "none;A,W", "--seeds", "1,2", "--epochs", "15",
            "--word-vectors", str(d / "words.vec"), *extra]


def _per_seed_f1(stdout):
    """'  LABEL / DATASET: [f, ...]' lines of the ablation table as label -> values."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("  ") and ": [" in line:
            key, _, values = line.strip().partition(": [")
            out[key.split(" / ")[0]] = [float(v) for v in values.rstrip("]").split(", ")]
    return out


# SHA-256 of the ablation table on a 2x2 grid (flag sets none and A,W; seeds
# 1 and 2) over make-synthetic --hard, as printed and as --report writes it.
# Pinned like PIPELINE_DIGESTS below.
ABLATION_DIGESTS = {
    "ablation.stdout": "aea6305696832e81364c1e12583ef652fe25248394ac0d2596396ea5e7d7b093",
    "grid.txt": "aea6305696832e81364c1e12583ef652fe25248394ac0d2596396ea5e7d7b093",
}


def test_ablation_outputs_pinned(hard_world, tmp_path, capsys):
    report = tmp_path / "grid.txt"
    capsys.readouterr()
    assert cli.main(_ablation_argv(hard_world, "--report", str(report))) == 0
    stdout = capsys.readouterr().out
    per_seed = _per_seed_f1(stdout)
    assert list(per_seed) == ["Seq2Seq", "S+A+W"]
    assert any(v > 0 for values in per_seed.values() for v in values)
    assert per_seed["Seq2Seq"] != per_seed["S+A+W"]
    digests = {"ablation.stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
               "grid.txt": hashlib.sha256(report.read_bytes()).hexdigest()}
    assert digests == ABLATION_DIGESTS


def test_ablation_cell_scores_like_train_then_eval(hard_world, tmp_path, capsys):
    d = hard_world
    capsys.readouterr()
    assert cli.main(_ablation_argv(d)) == 0
    per_seed = _per_seed_f1(capsys.readouterr().out)
    for flags, label in (("none", "Seq2Seq"), ("A,W", "S+A+W")):
        for i, seed in enumerate((1, 2)):
            ckpt = tmp_path / f"{label}-{seed}.ckpt"
            assert cli.main(["train", "--config", str(d / "model.cfg"),
                             "--train", str(d / "train.jsonl"), "--dev", str(d / "dev.jsonl"),
                             "--word-vectors", str(d / "words.vec"), "--flags", flags,
                             "--seed", str(seed), "--epochs", "15",
                             "--out", str(ckpt), "--log", str(tmp_path / "log")]) == 0
            assert cli.main(["eval", "--checkpoint", str(ckpt),
                             "--test", str(d / "test.jsonl")]) == 0
            f1_line = next(ln for ln in capsys.readouterr().out.splitlines()
                           if ln.startswith("F1"))
            assert round(float(f1_line.split()[1]), 4) == per_seed[label][i]


def test_ablation_resolves_its_config_once(hard_world, monkeypatch):
    calls = []
    resolve = cli.resolve_model_config

    def counted(args):
        calls.append(args)
        return resolve(args)

    monkeypatch.setattr(cli, "resolve_model_config", counted)
    argv = _ablation_argv(hard_world)
    argv[argv.index("--epochs") + 1] = "1"
    assert cli.main(argv) == 0
    assert len(calls) == 1


def test_ablation_loads_its_inputs_once(hard_world, tmp_path, monkeypatch):
    # A 2x2 grid whose cells initialize from both vector inputs reads each
    # once; only the seeded init draws are per cell.
    emb = tmp_path / "emb"
    assert cli.main(["kg-embed", "--kg", str(hard_world / "kg.tsv"), "--dim", "8",
                     "--epochs", "1", "--out", str(emb)]) == 0
    loads, reads = [], []
    load_kg, read_vectors = embeddings.load_kg_embeddings, embeddings.read_vector_file

    def counted_load(path):
        loads.append(path)
        return load_kg(path)

    def counted_read(path, dim=None):
        reads.append(path)
        return read_vectors(path, dim)

    monkeypatch.setattr(embeddings, "load_kg_embeddings", counted_load)
    monkeypatch.setattr(embeddings, "read_vector_file", counted_read)
    argv = _ablation_argv(hard_world, "--kg-embeddings", str(emb))
    argv[argv.index("--grid") + 1] = "A,W;A,W,G"
    argv[argv.index("--epochs") + 1] = "1"
    assert cli.main(argv) == 0
    assert loads == [str(emb)]
    assert reads.count(str(hard_world / "words.vec")) == 1


# train's and ablation's options as dest -> default, after the argv that
# gives their required paths.
TRAINING_OPTIONS = {
    "train": (["--train", "t", "--out", "o"], {
        "config": None, "train": "t", "dev": None, "word_vectors": None, "kg_embeddings": None,
        "epochs": None, "min_count": 1, "flags": None, "seed": None, "out": "o", "log": None}),
    "ablation": (["--train", "t", "--test", "x"], {
        "config": None, "train": "t", "dev": None, "word_vectors": None, "kg_embeddings": None,
        "epochs": None, "min_count": 1, "test": "x", "grid": "none;A;A,W;A,W,G",
        "seeds": "0,1,2,3,4", "report": None}),
}


@pytest.mark.parametrize("command", TRAINING_OPTIONS)
def test_training_command_options(command):
    required, defaults = TRAINING_OPTIONS[command]
    parser = cli.build_parser()
    args = vars(parser.parse_args([command, *required]))
    assert {k: v for k, v in args.items() if k not in ("command", "handler")} == defaults
    # each option is spelled as its dest with dashes
    argv = [word for dest in defaults for word in (f"--{dest.replace('_', '-')}", "7")]
    args = vars(parser.parse_args([command, *argv]))
    assert all(args[dest] in ("7", 7) for dest in defaults)


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

    # step_weights, a retired ModelConfig field, is refused like any other unknown key
    @pytest.mark.parametrize("key", ["no_such_knob", "step_weights"])
    def test_bad_config_key_rejected(self, key, table1_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}=1\n")
        proc = run_cli("train", "--config", str(cfg),
                       "--train", str(table1_dir / "train.jsonl"),
                       "--out", str(tmp_path / "m.ckpt"))
        assert proc.returncode == 1
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
        assert errors == [f"error: unknown config key {key!r} in {cfg}"]
        assert "Traceback" not in proc.stderr

    def test_every_field_settable_from_a_config_file(self, tmp_path):
        # each field at its default, written as str() renders it
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{f.name}={f.default}\n" for f in fields(ModelConfig)))
        assert cli.resolve_model_config(argparse.Namespace(config=str(cfg))) == ModelConfig()

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

    @pytest.mark.parametrize("text, line, key, first", [
        ("lr=0.5\nepochs=2\nlr=0.01\n", 3, "lr", 1),
        ("# ablation\nflags=A\n\n flags = none\n", 4, "flags", 2),
    ], ids=["lr", "flags"])
    def test_repeated_key_names_both_lines(self, text, line, key, first, table1_dir, tmp_path,
                                           capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        ckpt = tmp_path / "m.ckpt"
        code = cli.main(["train", "--config", str(cfg), "--train", str(table1_dir / "train.jsonl"),
                         "--epochs", "1", "--out", str(ckpt)])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert code == 1
        assert errors == [f"error: {cfg}:{line}: key {key!r} repeated (first at line {first})"]
        assert not ckpt.exists()

    @pytest.mark.parametrize("text, line, key, flags_line", [
        ("use_attention=0\nflags=A\n", 1, "use_attention", 2),
        ("flags=A\n# no kg init\nuse_kg_init = off\n", 3, "use_kg_init", 1),
    ], ids=["key-first", "flags-first"])
    def test_flags_and_a_flag_key_conflict(self, text, line, key, flags_line, table1_dir,
                                           tmp_path, capsys):
        # Either order would otherwise let the later line win silently.
        cfg = tmp_path / "both.cfg"
        cfg.write_text(text)
        ckpt = tmp_path / "m.ckpt"
        code = cli.main(["train", "--config", str(cfg), "--train", str(table1_dir / "train.jsonl"),
                         "--epochs", "1", "--out", str(ckpt)])
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert code == 1
        assert errors == [f"error: {cfg}:{line}: key {key!r} conflicts with 'flags' "
                          f"(line {flags_line})"]
        assert not ckpt.exists()

    def test_flags_option_overrides_a_flag_key_in_the_file(self, tmp_path):
        cfg = tmp_path / "attention.cfg"
        cfg.write_text("use_attention=0\n")
        config = cli.resolve_model_config(argparse.Namespace(config=str(cfg), flags="A"))
        assert config.use_attention is True

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


def test_kg_manifest_dim_checked_by_the_vector_reader(kg_embeddings_dir, table1_dir, tmp_path,
                                                      capsys):
    # the manifest says 5; the vector files are 4 wide
    emb = tmp_path / "emb"
    shutil.copytree(kg_embeddings_dir, emb)
    (emb / embeddings.MANIFEST_FILE).write_text('{"dim": 5, "norm": "L2"}', encoding="utf-8")
    code = cli.main(["train", "--train", str(table1_dir / "train.jsonl"),
                     "--kg-embeddings", str(emb), "--out", str(tmp_path / "m.ckpt")])
    err = capsys.readouterr().err
    assert code == 1
    assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
        f"error: {emb / embeddings.ENTITIES_FILE}:1: header dimension 4, expected 5"]
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

    def test_link_prediction_does_not_depend_on_thread_count(self, tmp_path):
        # 3,000 triples over ~1,000 entities: each chunk's (256, 64) @ (64, ~1000)
        # scoring GEMM is large enough for OpenBLAS to split across threads.
        rng = np.random.default_rng(5)
        triples = set()
        while len(triples) < 3000:
            s, o = rng.integers(1000, size=2)
            triples.add(f"e{s}\tr{rng.integers(30)}\te{o}\n")
        kg = tmp_path / "kg.tsv"
        kg.write_text("".join(sorted(triples)), encoding="utf-8")
        stdouts = []
        for threads in ("1", "2"):
            proc = run_cli("kg-embed", "--kg", str(kg), "--epochs", "1",
                           "--out", str(tmp_path / f"emb{threads}"),
                           env={"OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            stdouts.append(proc.stdout)
        assert stdouts[0] == stdouts[1]


# Prescott is OpenBLAS's generic x86-64 fallback kernel, so it runs on any
# x86-64 CPU; the other run of each test below takes whatever kernel the CPU
# selects.
x86_64_only = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                 reason="OPENBLAS_CORETYPE names x86-64 kernels")


@x86_64_only
@pytest.mark.parametrize("norm", ["L1", "L2"])
def test_kg_embed_bytes_do_not_depend_on_blas_kernel(norm, tmp_path):
    rng = np.random.default_rng(7)
    kg = tmp_path / "kg.tsv"
    kg.write_text("".join(sorted({f"e{s}\tr{p}\te{o}\n" for s, p, o in zip(
        rng.integers(30, size=80), rng.integers(4, size=80), rng.integers(30, size=80))})),
        encoding="utf-8")
    outputs = []
    for env in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        out = tmp_path / f"emb{len(outputs)}"
        proc = run_cli("kg-embed", "--kg", str(kg), "--dim", "16", "--epochs", "10",
                       "--norm", norm, "--out", str(out), env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())} | {
            "stdout": proc.stdout.encode()})
    assert outputs[0] == outputs[1]


@x86_64_only
def test_train_checkpoint_pin_does_not_depend_on_blas_kernel(table1_dir, tmp_path):
    # The pipeline's train step. Its checkpoint bytes follow the kernel's
    # GEMM rounding; its checkpoint_pin does not.
    pins = []
    for env in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        ckpt = tmp_path / f"m{len(pins)}.ckpt"
        proc = run_cli("train", "--config", str(table1_dir / "model.cfg"),
                       "--train", str(table1_dir / "train.jsonl"), "--epochs", "12",
                       "--seed", "11", "--out", str(ckpt), env=env)
        assert proc.returncode == 0, proc.stderr
        pins.append(checkpoint_pin(ckpt))
    assert_pinned(ckpt, pins[0])


# SHA-256 of every stdout and output file of criterion 10's pipeline, run once
# in process, except m.ckpt: its bytes follow the OpenBLAS kernel's rounding,
# so it is pinned by checkpoint_pin, as the trajectory runs in test_model.py
# are. A change that means to move bits updates the tables and names each
# moved output.
PIPELINE_DIGESTS = {
    "amb.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "build-vocab.stdout": "ed15dff1008cc515521ec7a07d8ee54fd266443dbbc50f46b154be87e19e3934",
    "ds-align.stdout": "6c21fb1032ccc52ac43ee6363d22588bb4bea74edc7d137d55531a6ffb8c8f4b",
    "ds.jsonl": "88e64e2e328782e7decb67ee134bd39f9b7b92580789200dcfd3ff5f7a58ce68",
    "emb/entities.vec": "db9a376e4cdfc86935fa8077bb14289b85a890e7cd55a182621b369ef2dd5b1d",
    "emb/manifest.json": "a4593679706b98a236070d12c33d35c5ee32fdd5012f0bf5534f526610bb201b",
    "emb/relations.vec": "af005e48adc858f19f39c5d601cb9024dd3a79ddc1de8767b54ef78a23894958",
    "eval.stdout": "8823a5f3ad9650788ee69e8bd805865ce04506dde556500af23d4a12d3187824",
    "kg-embed.stdout": "3842074b07f5b0deeef37e1b070aae35751b6787e6aca0f2d787c96eb3c18cf8",
    "m.log": "f7b7d6171e87eec86331be2ef232f218cdbf1bb92f77316ff61ec6a85e7721bc",
    "report.tsv": "f106ceb3eaa3f2a732f0605031336e21aae6a1054833dc2eb3c3154952d89082",
    "train.stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "translate.stdout": "b74de77a59ec9987d3171ad705605dbac200e9672ade6bab3427864d70716963",
    "vocab/entities.vocab": "2236d85c7c13c40321a459d9956588bc4249f711d34aedb21acfe01bd9b24f5e",
    "vocab/predicates.vocab": "6c12587861286271cc5911a0e2deca092bc2b2931cafdb3cb3dc234de630abda",
    "vocab/words.vocab": "94e8a7cfada071a05cf0530d76f0759dc18bc137f219cc4e4bc3d5caec443f0f",
}
PIPELINE_CHECKPOINT_PIN = (
    "3abcaadd92f87720bede0a0bec10541f9a04fcd42320bcb68d7b8f1bdcd22338",
    [79.91879326830956, -6.991196161342552, 6.613992406546928, 6.009625353010372,
     12.813762597210701],
)


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
        if path.is_file() and path.name != "m.ckpt":
            name = path.relative_to(tmp_path).as_posix()
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == PIPELINE_DIGESTS
    assert_pinned(tmp_path / "m.ckpt", PIPELINE_CHECKPOINT_PIN)


# SHA-256 of the ds-align file and of eval's report on the paper's data path
# below, pinned like PIPELINE_DIGESTS above.
HANDOFF_DIGESTS = {
    "ds.jsonl": "3463cd76425befb195405e7a13a7f4c1c03d56eebd41fec01beefdbecf6a5210",
    "report.tsv": "c7ced2f571272934f5ece4083908e56f508845c558c5e58ec176a842f4662f30",
}


def test_train_on_ds_align_output(tmp_path, capsys):
    """The paper's data path, all through cli.main: ds-align labels the raw
    sentences of make-synthetic --hard's train split, train reads ds-align's
    file as it is, and eval scores the model on the gold test split."""
    d = tmp_path
    assert cli.main(["make-synthetic", "--hard", "--out", str(d)]) == 0
    gold_train = corpus.load_examples(d / "train.jsonl")
    (d / "sentences.txt").write_text(
        "".join(" ".join(ex.tokens) + "\n" for ex in gold_train), encoding="utf-8")
    (d / "model.cfg").write_text(ABLATION_CONFIG, encoding="utf-8")
    capsys.readouterr()
    assert cli.main(["ds-align", "--kg", str(d / "kg.tsv"),
                     "--surface-forms", str(d / "surface.tsv"),
                     "--sentences", str(d / "sentences.txt"), "--out", str(d / "ds.jsonl"),
                     "--ambiguity-report", str(d / "amb.jsonl")]) == 0
    counts = dict(field.split("=") for field in capsys.readouterr().out.split())
    examples = corpus.load_examples(d / "ds.jsonl")
    n_ambiguous = len((d / "amb.jsonl").read_text(encoding="utf-8").splitlines())
    assert counts == {"examples": str(len(examples)), "ambiguous": str(n_ambiguous),
                      "sentences": str(len(gold_train))}
    kg = corpus.load_kg_file(d / "kg.tsv")
    sentences = {ex.tokens for ex in gold_train}
    assert examples
    for ex in examples:
        assert ex.gold in kg, ex
        assert ex.tokens in sentences, ex
    assert cli.main(["train", "--config", str(d / "model.cfg"), "--train", str(d / "ds.jsonl"),
                     "--dev", str(d / "dev.jsonl"), "--epochs", "30", "--seed", "3",
                     "--out", str(d / "m.ckpt"), "--log", str(d / "m.log")]) == 0
    assert cli.main(["eval", "--checkpoint", str(d / "m.ckpt"), "--test", str(d / "test.jsonl"),
                     "--kg", str(d / "kg.tsv"), "--report", str(d / "report.tsv")]) == 0
    digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
               for name in HANDOFF_DIGESTS}
    assert digests == HANDOFF_DIGESTS
