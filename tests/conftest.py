"""Shared fixtures: the capital-city sample pair and a trained checkpoint."""

import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

TABLE1_SENTENCE = "Berlin is the capital city of Germany."
TABLE1_TOKENS = ["berlin", "is", "the", "capital", "city", "of", "germany"]
TABLE1_TRIPLE = ["dbr:Germany", "dbo:capital", "dbr:Berlin"]

SMALL_CONFIG = """\
word_dim=12
kg_dim=12
enc_hidden=12
dec_hidden=24
epochs=150
batch_size=1
patience=30
lr=0.005
flags=A
"""


def run_cli(*argv, stdin=None, env=None):
    """Run the CLI in a subprocess; env entries are added to os.environ."""
    return subprocess.run(
        [sys.executable, "-m", "text2triple", *argv],
        capture_output=True, text=True, input=stdin,
        env=None if env is None else {**os.environ, **env},
    )


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint, replacing its JSON header by edit(header)."""
    data = src.read_bytes()
    (hlen,) = struct.unpack_from("<Q", data, 8)
    header = edit(json.loads(data[16:16 + hlen].decode()))
    blob = json.dumps(header, sort_keys=True, ensure_ascii=False).encode()
    dst.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + data[16 + hlen:])


def nan_gradient_on_call(monkeypatch, n):
    """Make model._loss_and_grads put a NaN into the gradients of call n."""
    from text2triple import model

    real = model._loss_and_grads
    calls = 0

    def patched(*args, **kwargs):
        nonlocal calls
        calls += 1
        loss, grads = real(*args, **kwargs)
        if calls == n:
            grads.vec[0] = np.nan
        return loss, grads

    monkeypatch.setattr(model, "_loss_and_grads", patched)


@pytest.fixture(scope="session")
def table1_dir(tmp_path_factory):
    """Files for the capital-city pair: dataset, KG, surface forms, sentences."""
    d = tmp_path_factory.mktemp("table1")
    rec = {"id": "t1", "tokens": TABLE1_TOKENS, "triple": TABLE1_TRIPLE}
    (d / "train.jsonl").write_text(json.dumps(rec) + "\n", encoding="utf-8")
    rec_test = {"id": "t1-test", "tokens": TABLE1_TOKENS, "triple": TABLE1_TRIPLE}
    (d / "test.jsonl").write_text(json.dumps(rec_test) + "\n", encoding="utf-8")
    (d / "kg.tsv").write_text("dbr:Germany\tdbo:capital\tdbr:Berlin\n", encoding="utf-8")
    (d / "surface.tsv").write_text(
        "dbr:Germany\tGermany\ndbr:Berlin\tBerlin\n", encoding="utf-8"
    )
    (d / "sentences.txt").write_text(TABLE1_SENTENCE + "\n", encoding="utf-8")
    (d / "model.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
    return d


@pytest.fixture(scope="session")
def table1_checkpoint(table1_dir):
    """Checkpoint overfit on the single capital-city pair."""
    ckpt = table1_dir / "model.ckpt"
    proc = run_cli(
        "train",
        "--config", str(table1_dir / "model.cfg"),
        "--train", str(table1_dir / "train.jsonl"),
        "--seed", "7",
        "--out", str(ckpt),
        "--log", str(table1_dir / "train.log"),
    )
    assert proc.returncode == 0, proc.stderr
    return ckpt
