"""text2triple benchmark driver.

    python3 perfbench/run.py --workload {train,infer,prep} --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

Run it from the repository root. It imports the library from ``src/`` next
to this directory and from nowhere else, and exits with code 1 before
printing any result when that tree is absent.

A run builds its inputs from ``--seed`` (``inputs.py``) and times the set-up
several times. ``setup_s`` is their median in units of a reference kernel's
duration measured around each set-up, turned back into seconds at the
kernel's nominal duration (``workloads.NOMINAL_REFERENCE_S``); the raw
median is printed as ``setup_raw_s``. It then repeats rounds of the
workload's operations until ``--seconds`` have passed (and at least as many
rounds as the workload's ``min_rounds``), checks every output,
and prints a summary followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed / attempted`` is
the error rate. With ``--trace 0`` the metrics are the end-to-end ones:
three job slots (``workloads.py`` says what each holds on each workload),
``setup_s`` and ``peak_rss_mb``. The job slots are medians in units of a
fixed reference kernel's duration, measured around every operation, because
the speed of a shared machine drifts by up to half within seconds; the
summary lines also give the raw medians per second and in ms, with their
sample counts. With ``--trace 1`` the first half of the time runs untraced
and the second half traced (``tracing.py``); then come the micro-runs
(``micro.py``), and the metrics are the per-layer ones: span counts and
self times per traced round, micro-run times, and ``trace.overhead`` =
traced over untraced primary throughput. Spans and a full result record,
with the environment, go to ``perfbench/out/``.

Load comes from this one process. OpenBLAS gets one thread unless
``OPENBLAS_NUM_THREADS`` asks for more, and never more than nproc.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOAD_NAMES = ("train", "infer", "prep")
SLOTS = ("primary_per_ref", "secondary_per_ref", "single_ref")
SLOT_UNITS = ("1/ref", "1/ref", "ref")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "1")
    threads = int(requested) if requested.isdigit() and int(requested) > 0 else 1
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(threads, _nproc()))


def _import_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import text2triple
    except ImportError as exc:
        sys.exit(f"error: cannot import text2triple from {src}: {exc}")
    if not Path(text2triple.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: text2triple was imported from {text2triple.__file__}, not {src}")
    return text2triple


def _git_commit() -> str:
    """HEAD read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "machine": platform.machine(),
    }


def _run_rounds(workload, rec, seconds: float, min_rounds: int = 1) -> int:
    """Closed loop: whole rounds until the time is up, at least min_rounds."""
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        workload.round(rec, rounds)
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() >= deadline:
            return rounds


def _layer_metrics(tracer, rounds, workload, rec, micro_metrics, overhead) -> dict[str, tuple]:
    """Span counts and self times per traced round. A round is a fixed amount
    of work, so these do not grow when a faster library fits more rounds
    into the traced half."""
    summary = tracer.summary()

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / rounds

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0) / rounds

    def us_per_call(name):
        return self_s(name) / calls(name) * 1e6 if calls(name) else 0.0

    beam_calls = calls("model.translate_beam")
    m: dict[str, tuple] = {}
    for name in ("numerics.lstm_cell", "numerics.lstm_cell_backward", "numerics.adam_step",
                 "model.translate_greedy", "corpus.match_sentence",
                 "corpus.KnowledgeGraph.entity_list", "embeddings.negative_sample",
                 "vocab.encode_sentence"):
        m[f"{name}.calls"] = (calls(name), "count/round")
        m[f"{name}.self_s"] = (self_s(name), "s/round")
    for name in ("numerics.clip_global_norm", "numerics.weighted_cross_entropy",
                 "model.translate_beam", "scoring.evaluate", "scoring.error_taxonomy",
                 "corpus.distant_supervise", "embeddings.transe_train",
                 "embeddings.link_prediction_eval"):
        m[f"{name}.self_s"] = (self_s(name), "s/round")
    m["model.self_s"] = (sum(v["self_s"] for k, v in summary.items()
                             if k.startswith("model.")) / rounds, "s/round")
    m["model.decode_step.calls"] = (calls("model.decode_step"), "count/round")
    m["model.translate_beam.decode_steps_per_sentence"] = (
        tracer.child_calls("model.decode_step", "model.translate_beam") / beam_calls
        if beam_calls else 0.0, "count")
    m["corpus.match_sentence.us"] = (us_per_call("corpus.match_sentence"), "us")
    m.update(micro_metrics)
    extras = workload.layer_extras(rec)
    for key in ("model.translate_p99_ms", "scoring.error_taxonomy.errors",
                "corpus.align_yield", "corpus.ambiguous_ratio"):
        unit = "ms" if key.endswith("_ms") else "count" if key.endswith("errors") else "ratio"
        m[key] = (extras.get(key, 0.0), unit)
    m["trace.overhead"] = (overhead, "ratio")
    m["trace.spans"] = (len(tracer.start) / rounds, "count/round")
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> int:
    from inputs import FULL, TINY

    sizes = TINY if tiny else FULL
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        return _run(name, seed, seconds, trace, tiny, sizes, scratch)


def _job_figures(job, rec) -> dict[str, tuple[float, str, int]]:
    """Medians of one job's figures, raw and in reference units, each with
    its sample count. A latency job's raw median is over single calls."""
    norm = job.normalized(rec)
    refs = rec.refs[job.kind]
    figures = {f"{job.name}.reference_ms": (statistics.median(refs) * 1e3, "ms", len(refs))}
    if job.latency:
        calls = rec.calls[job.kind]
        figures[f"{job.name}_p50_ms"] = (statistics.median(calls) * 1e3, "ms", len(calls))
        figures[f"{job.name}_per_call_ref"] = (statistics.median(norm), "ref", len(norm))
    else:
        raw = job.values(rec)
        figures[f"{job.name}_per_s"] = (statistics.median(raw), "1/s", len(raw))
        figures[f"{job.name}_per_ref"] = (statistics.median(norm), "1/ref", len(norm))
    return figures


def _median_normalized(job, rec) -> float:
    return statistics.median(job.normalized(rec))


def _run(name, seed, seconds, trace, tiny, sizes, scratch) -> int:
    from workloads import NOMINAL_REFERENCE_S, WORKLOADS, Recorder, setup_reference_s

    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))

    rec = Recorder()
    setup_times, setup_refs = [], []
    workload = None
    for _ in range(sizes.setups):
        # Each set-up builds a fresh workload from a collected heap, so no
        # set-up pays for freeing or collecting the previous one's objects.
        workload = None
        gc.collect()
        before = setup_reference_s()
        t0 = time.perf_counter()
        workload = WORKLOADS[name]()
        workload.setup(seed, sizes, rec, scratch)
        setup_times.append(time.perf_counter() - t0)
        setup_refs.append((before + setup_reference_s()) / 2)
    jobs = workload.jobs()

    unavailable: dict[str, str] = {}
    rounds = _run_rounds(workload, rec, seconds / 2 if trace else seconds, workload.min_rounds)
    named = {k: v for job in jobs for k, v in _job_figures(job, rec).items()}
    named["setup_s"] = (statistics.median(
        dt / ref for dt, ref in zip(setup_times, setup_refs)) * NOMINAL_REFERENCE_S,
        "s", len(setup_times))
    named["setup_raw_s"] = (statistics.median(setup_times), "s", len(setup_times))
    named["setup.reference_ms"] = (statistics.median(setup_refs) * 1e3, "ms", len(setup_refs))
    if not trace:
        named["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1)
        metrics = {slot: (_median_normalized(job, rec), unit)
                   for slot, unit, job in zip(SLOTS, SLOT_UNITS, jobs)}
        metrics["setup_s"] = named["setup_s"][:2]
        metrics["peak_rss_mb"] = named["peak_rss_mb"][:2]
    else:
        import micro
        from inputs import hard_setup
        from tracing import Tracer

        traced = Recorder()
        traced.tracer = tracer = Tracer()
        tracer.install()
        try:
            traced_rounds = _run_rounds(workload, traced, seconds / 2)
        finally:
            tracer.remove()
        rounds += traced_rounds
        overhead = _median_normalized(jobs[0], traced) / _median_normalized(jobs[0], rec)
        rec.add_counts(traced)
        hard = getattr(workload, "hard", None) or hard_setup(seed)
        micro_metrics, unavailable = micro.run(hard, seed, scratch, rec)
        unavailable.update({n: "name not found; reported as 0 calls" for n in tracer.missing})
        metrics = _layer_metrics(tracer, traced_rounds, workload, rec, micro_metrics, overhead)
        named.update({k: (v[0], v[1], 1) for k, v in metrics.items()})
        tracer.save(OUT / f"spans-{name}-seed{seed}.npz")

    workload.verify(rec)
    correct = rec.failed == 0
    error_rate = rec.failed / rec.attempted
    for key, (value, unit, n) in sorted(named.items()):
        print(f"{name:6s} {key:48s} {value:14.6g} {unit}" + (f"  (n={n})" if n > 1 else ""))
    print(f"{name:6s} {'error_rate':48s} {error_rate:14.6g} "
          f"({rec.failed} failed of {rec.attempted} operations, {rounds} rounds)")
    for failure in rec.failures:
        print(f"{name:6s} FAILED {failure}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": "tiny" if tiny else "full", "rounds": rounds, "env": env,
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "error_rate": error_rate, "failures": rec.failures, "checks": dict(rec.checks),
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "unavailable": unavailable, "setup_times_s": setup_times,
        "setup_reference_s": setup_refs,
        "operations": {kind: {"seconds": rec.samples[kind], "reference_s": rec.refs[kind]}
                       for kind in rec.samples},
    }
    suffix = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": rec.attempted, "failed": rec.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: minimal inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        worst = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--size", args.size])
            worst = max(worst, proc.returncode)
        return worst
    _limit_blas_threads()
    _import_library()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.size == "tiny")


if __name__ == "__main__":
    sys.exit(main())
