"""List the lines under src/ that no production caller runs.

Stdlib only. The line tracer of ``unreached.py`` (``sys.settrace`` and
``threading.settrace``) records each line run in a file under src/ while
this one process runs the library's production callers, in a temporary
directory:

- the CLI, through ``cli.main``: every sub-command on the files of
  ``make-synthetic --hard`` (and ``make-synthetic`` itself, with and
  without ``--hard``) with small config files, ``train`` with and without
  pre-trained vectors, and ``translate`` both one-shot and interactive;
- perfbench's three workloads at ``--size tiny``, traced, which runs each
  workload's untraced rounds first and its micro-runs last; ``run.OUT``
  points at the temporary directory and no bytecode is cached, so nothing
  under perfbench/ is written;
- demos 01-04, each run as a script.

It then prints, per file under src/, the executable lines that none of them
ran, as ranges, and the total. A listed line is reached, if at all, by tests
or by bad input only: a refusal, an error path, or a capability that no
command, benchmark operation or demo uses. Run it from the repository root,
outside the tier-1 run:

    python3 tools/reached.py

It takes a few minutes on a 2-core VM, with one BLAS thread.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools"), str(ROOT / "perfbench")]

import unreached  # noqa: E402  (the tracer and the report)


def _cli(tmp: Path) -> None:
    from text2triple import cli

    def run(*argv, stdin: str = "") -> None:
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = cli.main([str(a) for a in argv])
        finally:
            sys.stdin = saved
        if code != 0:
            raise SystemExit(f"reached: {' '.join(map(str, argv))} exited {code}")

    w = tmp / "world"
    run("make-synthetic", "--out", tmp / "easy", "--seed", 7, "--word-dim", 8)
    run("make-synthetic", "--out", w, "--seed", 7, "--hard", "--word-dim", 8)
    lines = (w / "test.jsonl").read_text(encoding="utf-8").splitlines()
    sentences = [" ".join(json.loads(line)["tokens"]) for line in lines]
    (tmp / "sentences.txt").write_text("\n".join(sentences) + "\n", encoding="utf-8")
    dims = "word_dim=8\nkg_dim=8\nenc_hidden=8\ndec_hidden=16\nbatch_size=4\n"
    (tmp / "model.cfg").write_text(dims + "lr=0.003\npatience=2\n", encoding="utf-8")
    (tmp / "plain.cfg").write_text(dims + "flags=A\n", encoding="utf-8")
    run("build-vocab", "--corpus", w / "train.jsonl", "--kg", w / "kg.tsv", "--out", tmp / "bv")
    run("build-vocab", "--corpus", tmp / "sentences.txt", "--kg", w / "kg.tsv",
        "--out", tmp / "bv-raw")
    run("kg-embed", "--kg", w / "kg.tsv", "--dim", 8, "--epochs", 3, "--seed", 7,
        "--out", tmp / "emb")
    run("kg-embed", "--kg", w / "kg.tsv", "--dim", 8, "--epochs", 2, "--norm", "L1",
        "--out", tmp / "emb-l1")
    for keep in ((), ("--keep-ambiguous",)):
        run("ds-align", "--kg", w / "kg.tsv", "--surface-forms", w / "surface.tsv",
            "--sentences", tmp / "sentences.txt", "--out", tmp / "aligned.jsonl",
            "--ambiguity-report", tmp / "ambiguous.jsonl", *keep)
    training = ("--config", tmp / "model.cfg", "--train", w / "train.jsonl",
                "--dev", w / "dev.jsonl", "--word-vectors", w / "words.vec",
                "--kg-embeddings", tmp / "emb")
    run("train", *training, "--flags", "A,W,G", "--seed", 7, "--epochs", 3,
        "--out", tmp / "m.ckpt", "--log", tmp / "train.log")
    run("train", "--config", tmp / "plain.cfg", "--train", w / "train.jsonl", "--epochs", 1,
        "--out", tmp / "plain.ckpt")
    run("eval", "--checkpoint", tmp / "m.ckpt", "--test", w / "test.jsonl",
        "--kg", w / "kg.tsv", "--report", tmp / "report.tsv")
    run("eval", "--checkpoint", tmp / "plain.ckpt", "--test", w / "test.jsonl")
    run("translate", "--checkpoint", tmp / "m.ckpt", "--text", sentences[0])
    run("translate", "--checkpoint", tmp / "m.ckpt", "--interactive",
        stdin="\n".join(sentences[:3]) + "\n\n")
    run("ablation", *training, "--test", w / "test.jsonl", "--grid", "none;A,W,G",
        "--seeds", "1,2", "--epochs", 1, "--report", tmp / "ablation.tsv")


def _perfbench(tmp: Path) -> None:
    import run as bench

    bench.OUT = tmp / "perfbench-out"
    for name in bench.WORKLOAD_NAMES:
        if bench.run_workload(name, 3, 1.0, trace=True, tiny=True) != 0:
            raise SystemExit(f"reached: perfbench workload {name} failed its checks")


def _demos(tmp: Path) -> None:
    for demo in sorted((ROOT / "demos").glob("0[1-4]_*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    unreached.start()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                for caller in (_cli, _perfbench, _demos):
                    caller(Path(tmp))
        finally:
            os.chdir(cwd)
            unreached.stop()
    print("lines under src/ that no production caller ran")
    print("\n".join(unreached.unreached_report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
