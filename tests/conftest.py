"""Shared fixtures: the capital-city sample pair and a trained checkpoint."""

import hashlib
import json
import math
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


def _header_blob(header):
    return json.dumps(header, sort_keys=True, ensure_ascii=False).encode()


def _split_checkpoint(data):
    """A checkpoint's bytes as (JSON header, payload bytes)."""
    (hlen,) = struct.unpack_from("<Q", data, 8)
    return json.loads(data[16:16 + hlen].decode()), data[16 + hlen:]


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint, replacing its JSON header by edit(header)."""
    data = src.read_bytes()
    header, payload = _split_checkpoint(data)
    blob = _header_blob(edit(header))
    dst.write_bytes(data[:8] + struct.pack("<Q", len(blob)) + blob + payload)


# Tolerance of a pinned parameter fingerprint. OpenBLAS's GEMM kernels
# (SkylakeX, Haswell, Sandybridge, Prescott) train the pinned runs to
# parameters at most 1.0e-13 apart and to fingerprints at most 3.1e-12
# apart; Adam with beta1 = 0.91 in place of 0.9 moves parameters by up to
# 1.2e-4.
FINGERPRINT_ATOL = 1e-10


def checkpoint_pin(path):
    """What every BLAS kernel agrees on in a checkpoint: the SHA-256 of its
    JSON header without payload_sha256 (config, vocabularies, array table),
    and the loaded parameter vector's fingerprint, its sum of squares and
    its dot products with 4 seeded Gaussian vectors, each summed exactly."""
    from text2triple.model import load_checkpoint

    header, _ = _split_checkpoint(path.read_bytes())
    del header["payload_sha256"]
    vec = load_checkpoint(path)[0].vec
    rng = np.random.default_rng(0)
    projections = [math.fsum(rng.standard_normal(vec.size) * vec) for _ in range(4)]
    return hashlib.sha256(_header_blob(header)).hexdigest(), [math.fsum(vec * vec), *projections]


def assert_pinned(path, pin):
    """checkpoint_pin(path) equals pin: the header digest exactly, the
    fingerprint to FINGERPRINT_ATOL."""
    digest, fingerprint = checkpoint_pin(path)
    assert digest == pin[0]
    gap = max(abs(a - b) for a, b in zip(fingerprint, pin[1], strict=True))
    assert gap <= FINGERPRINT_ATOL, (gap, fingerprint)


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
