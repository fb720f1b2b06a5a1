"""Smoke test of the benchmark: a tiny-size pass of every workload.

    python3 perfbench/smoke.py

Runs each workload at ``--size tiny`` untraced and traced, then checks that
every run exits 0 with a correct result, that its metrics are exactly the
ones BENCHMARK.json names with the units it gives, and that every output
check of the workload ran. It also checks that on ``prep`` every negative
sample rebuilt the entity list once, and that the benchmark refuses to run,
printing no result, in a copy that holds only BENCHMARK.json and this
directory. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SEED = 3

CHECKS = {
    "train": (
        "train.not_aborted", "train.all_epochs_run", "train.no_dropped_examples",
        "train.loss_finite", "train.loss_decreases", "forward_loss.loss_finite",
        "forward_loss.grads_cover_params", "forward_loss.grads_finite",
    ),
    "infer": (
        "checkpoint.reload_bit_exact", "eval.well_formed", "eval.correct_count",
        "eval.errors_cover_misses", "eval.oov_entity_count", "eval.deterministic",
        "beam.width", "beam.well_formed", "beam.sorted", "translate.well_formed",
        "translate.matches_eval", "beam.width1_equals_greedy",
        "beam.full_width_equals_exhaustive",
    ),
    "prep": (
        "align.examples_equal_planted", "align.ambiguity_report_equals_planted",
        "transe.finite", "transe.unit_entities", "linkpred.rank_in_range",
        "linkpred.mean_rank_below_random",
    ),
}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            tag = f"{workload} trace={trace}"
            proc = run(workload, trace)
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(want.keys() - got.keys())}, "
                                f"extra {sorted(got.keys() - want.keys())}, units "
                                f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            record = json.loads((OUT / f"result-{workload}-seed{SEED}-trace{trace}.json")
                                .read_text())
            not_run = [c for c in CHECKS[workload] if record["checks"].get(c, 0) < 1]
            if not_run:
                problems.append(f"{tag}: output checks that never ran: {not_run}")
            if trace and workload == "prep":
                m = result["metrics"]
                lists = m["corpus.KnowledgeGraph.entity_list.calls"]["value"]
                negatives = m["embeddings.negative_sample.calls"]["value"]
                if not lists or lists != negatives:
                    problems.append(f"{tag}: entity_list calls {lists} != "
                                    f"negative_sample calls {negatives}")
            print(f"smoke: {tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} operations", flush=True)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("train", 0, cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print("smoke: bare copy refused: " + proc.stderr.strip().splitlines()[-1])

    for problem in problems:
        print("smoke: FAIL " + problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
