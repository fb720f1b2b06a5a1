"""Input files through cli.main, in process: byte-order marks and a fuzz gate.

Each input kind starts from a valid seed file. A copy that starts with a
byte-order mark must give the same stdout and output files. The fuzz gate
mutates the seed: it truncates it, XORs one byte with a non-zero value, or
inserts a byte-order mark, a carriage return or a form feed; checkpoints get
their bytes XORed inside the magic, length and JSON header, or are
truncated. Every case must exit 0, or exit 1 with exactly one ``error:``
line and no traceback.
"""

import contextlib
import io
import shutil
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TABLE1_SENTENCE, TABLE1_TOKENS, rewrite_checkpoint_header

from text2triple import cli, embeddings

BOM = b"\xef\xbb\xbf"
INSERTS = (BOM, b"\r", b"\x0c")


@pytest.fixture(scope="module")
def seeds(table1_dir, table1_checkpoint, tmp_path_factory):
    """A directory of valid seed inputs, one per fuzzed file kind."""
    d = tmp_path_factory.mktemp("seeds")
    for name in ("train.jsonl", "kg.tsv", "surface.tsv", "sentences.txt", "model.cfg"):
        shutil.copy(table1_dir / name, d / name)
    shutil.copy(table1_checkpoint, d / "model.ckpt")
    vectors = np.round(np.random.default_rng(0).uniform(-1, 1, (len(TABLE1_TOKENS), 12)), 3)
    (d / "words.vec").write_text(embeddings.vector_text(TABLE1_TOKENS, vectors), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["kg-embed", "--kg", str(d / "kg.tsv"), "--dim", "12",
                         "--epochs", "2", "--out", str(d / "emb")]) == 0
    return d


def _train(d, out, *extra):
    return ["train", "--config", d / "model.cfg", "--train", d / "train.jsonl",
            "--epochs", "1", *extra, "--out", out / "m.ckpt"]


def _train_kg(d, out):
    return _train(d, out, "--flags", "A,G", "--kg-embeddings", d / "emb")


def _ds_align(d, out):
    return ["ds-align", "--kg", d / "kg.tsv", "--surface-forms", d / "surface.tsv",
            "--sentences", d / "sentences.txt", "--out", out / "ds.jsonl"]


# file kind -> (seed file under the seeds directory, argv that reads it)
KINDS = {
    "jsonl": ("train.jsonl", _train),
    "config": ("model.cfg", _train),
    "word vectors": ("words.vec", lambda d, out: _train(d, out, "--flags", "A,W",
                                                        "--word-vectors", d / "words.vec")),
    "manifest": ("emb/manifest.json", _train_kg),
    "entity vectors": ("emb/entities.vec", _train_kg),
    "kg tsv": ("kg.tsv", lambda d, out: ["kg-embed", "--kg", d / "kg.tsv", "--dim", "4",
                                         "--epochs", "1", "--out", out / "emb"]),
    "surface forms": ("surface.tsv", _ds_align),
    "sentences": ("sentences.txt", _ds_align),
    "checkpoint": ("model.ckpt", lambda d, out: ["translate", "--checkpoint", d / "model.ckpt",
                                                 "--text", TABLE1_SENTENCE]),
}


def _main(argv):
    """cli.main on argv; (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([str(a) for a in argv])
    return code, stdout.getvalue(), stderr.getvalue()


def _run(kind, d, out):
    """cli.main on the kind's argv over input directory d, writing under out."""
    return _main(KINDS[kind][1](d, out))


def _mutations(data: bytes, kind: str):
    if kind == "checkpoint":  # the magic, the header length and the JSON header
        (hlen,) = struct.unpack_from("<Q", data, 8)
        span = 16 + hlen
    else:
        span = len(data)
    xor = st.tuples(st.integers(0, span - 1), st.integers(1, 255)).map(
        lambda c: data[:c[0]] + bytes([data[c[0]] ^ c[1]]) + data[c[0] + 1:])
    # short prefixes get their own draw: they cut a header or first record
    truncate = st.one_of(st.integers(0, 24), st.integers(0, span)).map(lambda n: data[:n])
    if kind == "checkpoint":
        return st.one_of(xor, truncate)
    insert = st.tuples(st.integers(0, len(data)), st.sampled_from(INSERTS)).map(
        lambda c: data[:c[0]] + c[1] + data[c[0]:])
    return st.one_of(xor, truncate, insert)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_seed_files_load(kind, seeds, tmp_path):
    code, _, err = _run(kind, seeds, tmp_path)
    assert code == 0, err


@pytest.mark.parametrize("kind", sorted(set(KINDS) - {"checkpoint"}))
def test_byte_order_mark_dropped(kind, seeds, tmp_path):
    name = KINDS[kind][0]
    results = []
    for prefix in (b"", BOM):
        case = tmp_path / ("bom" if prefix else "plain")
        shutil.copytree(seeds, case / "in")
        (case / "in" / name).write_bytes(prefix + (seeds / name).read_bytes())
        (case / "out").mkdir()
        code, stdout, err = _run(kind, case / "in", case / "out")
        assert code == 0, err
        outputs = {path.relative_to(case).as_posix(): path.read_bytes()
                   for path in sorted((case / "out").rglob("*")) if path.is_file()}
        results.append((stdout, outputs))
    assert results[0][1]
    assert results[0] == results[1]


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_exits_0_or_one_error_line(kind, seeds, tmp_path_factory, data):
    name = KINDS[kind][0]
    case = tmp_path_factory.mktemp("case")
    shutil.copytree(seeds, case / "in")
    mutated = data.draw(_mutations((seeds / name).read_bytes(), kind), label="file")
    (case / "in" / name).write_bytes(mutated)
    code, _, err = _run(kind, case / "in", case)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert "Traceback" not in err
    assert code == 0 or (code == 1 and len(errors) == 1), err


# A nonsense value -> (argv over the seeds directory d writing under out, the
# field or flag the one error line starts with).
NONSENSE = {
    "train seed": (lambda d, out: _train(d, out, "--seed", "-1"), "seed"),
    "kg-embed seed": (lambda d, out: ["kg-embed", "--kg", d / "kg.tsv", "--seed", "-4",
                                      "--out", out / "emb"], "seed"),
    "kg-embed norm": (lambda d, out: ["kg-embed", "--kg", d / "kg.tsv", "--norm", "L3",
                                      "--out", out / "emb"], "norm"),
    "make-synthetic seed": (lambda d, out: ["make-synthetic", "--seed", "-1",
                                            "--out", out / "world"], "seed"),
    "make-synthetic zero word dim": (lambda d, out: ["make-synthetic", "--word-dim", "0",
                                                     "--out", out / "world"], "word_dim"),
    "make-synthetic negative word dim": (lambda d, out: ["make-synthetic", "--word-dim", "-3",
                                                         "--out", out / "world"], "word_dim"),
    "ablation seeds": (lambda d, out: ["ablation", "--train", d / "train.jsonl",
                                       "--test", d / "train.jsonl", "--seeds", "",
                                       "--epochs", "1"], "--seeds"),
}


@pytest.mark.parametrize("case", sorted(NONSENSE))
def test_nonsense_value_names_the_field(case, seeds, tmp_path):
    argv, name = NONSENSE[case]
    code, stdout, err = _main(argv(seeds, tmp_path))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1 and len(errors) == 1 and "Traceback" not in err, err
    assert errors[0].startswith(f"error: {name} "), errors[0]
    assert stdout == "" and list(tmp_path.iterdir()) == []


# A model config line -> the field the one error line starts with. Each of
# these used to train and exit 0, or abort after writing the checkpoint.
NONSENSE_CONFIG = {
    "infinite adam_eps": ("adam_eps=inf", "adam_eps"),
    "infinite lr": ("lr=inf", "lr"),
}


@pytest.mark.parametrize("case", sorted(NONSENSE_CONFIG))
def test_nonsense_model_config_rejected(case, seeds, tmp_path):
    line, name = NONSENSE_CONFIG[case]
    config = tmp_path / "model.cfg"
    config.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = _main(["train", "--config", config, "--train", seeds / "train.jsonl",
                               "--epochs", "1", "--out", out / "m.ckpt"])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1 and len(errors) == 1 and "Traceback" not in err, err
    assert errors[0].startswith(f"error: {name} "), errors[0]
    assert stdout == "" and list(out.iterdir()) == []


def _write(text):
    return lambda path: path.write_text(text, encoding="utf-8")


# A refusal -> (the KINDS entry whose argv runs, the seed file replaced, its
# edit, the end of the one error line).
REFUSALS = {
    "checkpoint version 2": (
        "checkpoint", "model.ckpt",
        lambda path: rewrite_checkpoint_header(path, path, lambda h: {**h, "version": 2}),
        "model.ckpt: checkpoint version 2, expected 3",
    ),
    "jsonl array record": ("jsonl", "train.jsonl", _write("[1, 2]\n"),
                           "train.jsonl:1: record is not an object"),
    "jsonl non-string triple element": (
        "jsonl", "train.jsonl", _write('{"tokens": ["a"], "triple": ["s", 7, "o"]}\n'),
        "train.jsonl:1: 'triple' elements must be non-empty strings",
    ),
    "alias with no tokens": ("surface forms", "surface.tsv", _write("dbr:Berlin\t?!\n"),
                             "surface.tsv:1: alias has no tokens"),
    "every gold out of the KG vocabulary": (
        "manifest", "train.jsonl",
        _write('{"tokens": ["a"], "triple": ["dbr:Paris", "dbo:capital", "dbr:Berlin"]}\n'),
        "no training examples left after out-of-vocabulary filtering",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_one_error_line(case, seeds, tmp_path):
    kind, name, edit, message = REFUSALS[case]
    shutil.copytree(seeds, tmp_path / "in")
    edit(tmp_path / "in" / name)
    out = tmp_path / "out"
    out.mkdir()
    code, stdout, err = _run(kind, tmp_path / "in", out)
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert code == 1 and len(errors) == 1 and "Traceback" not in err, err
    assert errors[0].endswith(message), errors[0]
    assert stdout == "" and list(out.iterdir()) == []
