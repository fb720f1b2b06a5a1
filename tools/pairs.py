"""Alternating pairs of benchmark runs: a parent revision against the working tree.

    python3 tools/pairs.py --parent REV --workload W --pairs N --seconds S --seed K
    python3 tools/pairs.py --parent REV --workload W --pairs N --seconds S --seed A-B

Run it from anywhere inside the repository, outside the tier-1 run. It
exports REV with ``git archive`` into a temporary directory and, for each
pair, runs ``perfbench/run.py --workload W --seed K --seconds S --trace 0``
once per side, each in a fresh process started in that side's checkout:
the export for the parent, the repository's working tree for the change.
With a seed range ``A-B``, pair i runs seed ``A + i mod (B - A + 1)``.
Even pairs run the parent first, odd pairs the change first. Each child
gets ``CHILD_ENV`` in its own environment: one BLAS thread. This process's
environment is left as it is.

It reads each run's last output line, the JSON result, and writes
``BENCH_<n>.json`` at the repository root, ``n`` one more than the largest
present (0 when there is none); an existing file is never overwritten. The
file holds the machine (nproc, CPU, its L2 cache size as the kernel
reports it, python, numpy, the BLAS build and the kernel OpenBLAS runs,
each null where it cannot be asked, and the values of ``CHILD_ENV``), both
commits, the method with each pair's seed, each side's failed and
attempted operations, and for each end-to-end metric of ``BENCHMARK.json``
each side's median, Q1, Q3 and IQR over the pairs (inclusive quartiles),
the change's wins (pairs in which it reads strictly better), whether the
gap between the two medians, in either direction, exceeds the parent's
IQR, and each pair's ``[seed, parent, change]`` values in run order. The
tier-1 wall time is not measured here.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def parse_seeds(text: str) -> range:
    """The seeds ``K`` or ``A-B`` (A <= B, both ends included) names."""
    match = re.fullmatch(r"(\d+)(?:-(\d+))?", text)
    if match:
        first = int(match.group(1))
        last = first if match.group(2) is None else int(match.group(2))
        if first <= last:
            return range(first, last + 1)
    raise argparse.ArgumentTypeError(f"expected K or A-B with A <= B, got {text!r}")


def pair_seed(seeds: range, i: int) -> int:
    """The seed pair i runs: the range's first, plus i modulo its length."""
    return seeds[i % len(seeds)]


def parse_result(stdout: str) -> dict:
    """The JSON result a ``run.py`` run prints as its last line."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("run.py printed no result line")
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    """Median, inclusive Q1 and Q3, and their IQR, of two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str], seeds: list[int]) -> dict:
    """Per-side operation counts and per-metric statistics over (parent, change)
    result pairs, pair i run at ``seeds[i]``. ``better`` maps each metric to
    "higher" or "lower"."""
    sides = {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]}
    summary: dict = {"pairs": len(pairs)}
    for key in ("failed", "attempted"):
        summary[f"{key}_operations"] = {
            side: sum(r[key] for r in results) for side, results in sides.items()}
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        values = {side: [r["metrics"][name]["value"] for r in results]
                  for side, results in sides.items()}
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        metrics[name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "better": direction,
            "parent": parent,
            "change": change,
            "change_vs_parent_median_pct": 100 * (change["median"] / parent["median"] - 1),
            "change_wins": sum(sign * (c - p) > 0
                               for p, c in zip(values["parent"], values["change"])),
            "median_gap_exceeds_parent_iqr": abs(change["median"] - parent["median"])
            > parent["iqr"],
            "per_pair": [list(row) for row in zip(seeds, values["parent"], values["change"])],
        }
    summary["metrics"] = metrics
    return summary


def next_bench_path(root: Path) -> Path:
    numbers = [int(m.group(1)) for p in root.glob("BENCH_*.json")
               if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return root / f"BENCH_{max(numbers, default=-1) + 1}.json"


def _openblas_kernel() -> str | None:
    """The kernel the OpenBLAS bundled with numpy runs, or None."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _l2_cache() -> str | None:
    """CPU 0's L2 cache size as the kernel reports it (such as "2048K"), or None."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "2":
                return (index / "size").read_text().strip()
        except OSError:
            continue
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu(),
        "l2_cache": _l2_cache(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_kernel": _openblas_kernel(),
        "blas_threads": int(CHILD_ENV["OPENBLAS_NUM_THREADS"]),
    }


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env={**os.environ, **CHILD_ENV}, capture_output=True, text=True)
    try:
        return parse_result(proc.stdout)
    except ValueError:
        sys.exit(f"pairs: run.py in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--workload", required=True, choices=("train", "infer", "prep"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=parse_seeds, required=True, metavar="K|A-B")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seconds <= 0:
        parser.error("--pairs must be at least 2 and --seconds positive")
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    parent_commit = _git("rev-parse", "--verify", args.parent + "^{commit}")
    pairs = []
    seeds = [pair_seed(args.seed, i) for i in range(args.pairs)]
    with tempfile.TemporaryDirectory() as tmp:
        _export(parent_commit, Path(tmp))
        for i, seed in enumerate(seeds):
            order = [("parent", Path(tmp)), ("change", ROOT)]
            ran = {side: _run(checkout, args.workload, seed, args.seconds)
                   for side, checkout in (order if i % 2 == 0 else order[::-1])}
            pairs.append((ran["parent"], ran["change"]))
            print(f"pairs: {i + 1}/{args.pairs} done", file=sys.stderr)
    path = next_bench_path(ROOT)
    record = {
        "bench": int(path.stem.split("_")[1]),
        "environment": {
            **environment(),
            "parent_commit": parent_commit,
            "change_commit": _git("rev-parse", "HEAD"),
            "change_worktree_modified": bool(_git("status", "--porcelain")),
        },
        "method": {
            "command": f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed K --seconds {args.seconds:g} --trace 0",
            "seeds": seeds,
            "sides": "parent = git archive of parent_commit; change = the working tree, "
                     "change_commit plus its uncommitted edits if change_worktree_modified; "
                     "each run in a fresh process in its own checkout, under "
                     + " ".join(f"{k}={v}" for k, v in CHILD_ENV.items()),
            "order": "alternating: even pairs run the parent first, odd pairs the change first",
            "statistics": "median and inclusive quartiles over pairs; a win is a pair in which "
                          "the change reads strictly better; the median gap is taken in "
                          "either direction",
        },
        "workload": args.workload,
        **summarize(pairs, better, seeds),
    }
    with open(path, "x") as out:
        out.write(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
