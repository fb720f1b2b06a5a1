#!/usr/bin/env python3
"""The ablation grid on a deliberately hard synthetic corpus.

Entity names share surface tokens ("north castle" vs "north harbor"), the
training split is small, and a third of the test facts never appear in a
training sentence. Attention (A) and pre-trained word/KG embeddings (W, G)
are toggled; the qualitative ordering is what matters at this scale, not
absolute numbers. The demo runs the command line's own sub-commands:
make-synthetic writes the world, kg-embed trains its TransE vectors, and
ablation trains and scores every cell of the grid. Three seeds per cell
keep it to well under a minute on one core; the acceptance suite runs the
five-seed version.
"""

import sys
import tempfile
from pathlib import Path

from text2triple.cli import main

with tempfile.TemporaryDirectory() as tmp:
    world, emb, config = Path(tmp) / "world", Path(tmp) / "emb", Path(tmp) / "grid.cfg"
    config.write_text("word_dim=16\nkg_dim=16\nenc_hidden=16\ndec_hidden=32\n"
                      "epochs=250\nbatch_size=4\npatience=35\nlr=3e-3\n", encoding="utf-8")
    steps = [
        ["make-synthetic", "--hard", "--seed", "17", "--word-dim", "16", "--out", str(world)],
        ["kg-embed", "--kg", str(world / "kg.tsv"), "--dim", "16", "--epochs", "150",
         "--seed", "17", "--out", str(emb)],
        ["ablation", "--config", str(config), "--train", str(world / "train.jsonl"),
         "--dev", str(world / "dev.jsonl"), "--test", str(world / "test.jsonl"),
         "--word-vectors", str(world / "words.vec"), "--kg-embeddings", str(emb),
         "--grid", "none;A;A,W;A,W,G", "--seeds", "1,2,3"],
    ]
    for argv in steps:
        if main(argv) != 0:
            sys.exit(f"text2triple {argv[0]} failed")

print("\nSame seeds for every row; only the flags differ.")
