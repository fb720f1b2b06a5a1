"""The statistics, the seed option and the child environment of tools/pairs.py on canned
input; no benchmark runs."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def run_output(setup_s, per_ref, failed=0):
    """What run.py prints: the env line, summary lines, then the result line."""
    result = {"correct": failed == 0, "attempted": 10, "failed": failed, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "primary_per_ref": {"value": per_ref, "unit": "1/ref"},
    }}
    return "\n".join([json.dumps({"env": {"nproc": 2}}),
                      f"train  setup_s {setup_s:14.6g} s  (n=5)",
                      "train  error_rate 0 (0 failed of 10 operations, 3 rounds)",
                      json.dumps(result)]) + "\n"


BETTER = {"setup_s": "lower", "primary_per_ref": "higher"}
SEEDS = [101, 102, 103, 101, 102]  # --seed 101-103 over 5 pairs


def canned_pairs():
    parent = [(0.10, 1.0), (0.13, 1.1), (0.11, 0.9), (0.14, 1.0), (0.10, 1.2)]
    change = [(0.08, 1.0), (0.09, 1.0), (0.12, 1.0), (0.08, 1.1), (0.09, 1.1)]
    return [(pairs.parse_result(run_output(*p)), pairs.parse_result(run_output(*c, failed=i)))
            for i, (p, c) in enumerate(zip(parent, change))]


def test_quartiles_are_inclusive():
    assert pairs.quartiles([0.10, 0.12, 0.11, 0.13, 0.10]) == pytest.approx(
        {"median": 0.11, "q1": 0.10, "q3": 0.12, "iqr": 0.02})


def test_summary_numbers_and_schema():
    summary = pairs.summarize(canned_pairs(), BETTER, SEEDS)
    assert summary["pairs"] == 5
    assert summary["failed_operations"] == {"parent": 0, "change": 10}
    assert summary["attempted_operations"] == {"parent": 50, "change": 50}
    setup = summary["metrics"]["setup_s"]
    assert set(setup) == {"unit", "better", "parent", "change", "change_vs_parent_median_pct",
                          "change_wins", "median_gap_exceeds_parent_iqr", "per_pair"}
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["change"] == pytest.approx({"median": 0.09, "q1": 0.08, "q3": 0.09,
                                             "iqr": 0.01})
    assert setup["change_wins"] == 4  # lower is better; pair 3 reads 0.12 against 0.11
    assert setup["change_vs_parent_median_pct"] == pytest.approx(100 * (0.09 / 0.11 - 1))
    assert setup["parent"] == pytest.approx({"median": 0.11, "q1": 0.10, "q3": 0.13,
                                             "iqr": 0.03})
    assert setup["median_gap_exceeds_parent_iqr"] is False  # 0.02 gap, 0.03 IQR
    primary = summary["metrics"]["primary_per_ref"]
    assert primary["change_wins"] == 2  # higher is better; ties are not wins
    assert primary["median_gap_exceeds_parent_iqr"] is False
    json.dumps(summary)  # the record is plain JSON


def test_per_pair_values_keep_each_seed_and_side():
    metrics = json.loads(json.dumps(pairs.summarize(canned_pairs(), BETTER, SEEDS)))["metrics"]
    assert metrics["setup_s"]["per_pair"] == [
        [101, 0.10, 0.08], [102, 0.13, 0.09], [103, 0.11, 0.12], [101, 0.14, 0.08],
        [102, 0.10, 0.09]]
    assert metrics["primary_per_ref"]["per_pair"] == [
        [101, 1.0, 1.0], [102, 1.1, 1.0], [103, 0.9, 1.0], [101, 1.0, 1.1], [102, 1.2, 1.1]]


def test_gap_beyond_parent_iqr_in_either_direction():
    tight = [(pairs.parse_result(run_output(1.0 + d, 1.0)),
              pairs.parse_result(run_output(2.0 + d, 1.0))) for d in (0.0, 0.01, 0.02)]
    summary = pairs.summarize(tight, {"setup_s": "lower"}, [1, 2, 3])["metrics"]["setup_s"]
    assert summary["median_gap_exceeds_parent_iqr"] is True
    assert summary["change_wins"] == 0 and summary["change_vs_parent_median_pct"] > 0


def test_output_without_a_result_line_rejected():
    for stdout in ("", "train  setup_s 0.1 s\n", json.dumps({"env": {}}) + "\n"):
        with pytest.raises(ValueError, match="no result line"):
            pairs.parse_result(stdout)


def test_next_bench_number_never_reuses_one(tmp_path):
    assert pairs.next_bench_path(tmp_path).name == "BENCH_0.json"
    for name in ("BENCH_0.json", "BENCH_3.json", "BENCH_x.json", "BENCH_10.txt"):
        (tmp_path / name).write_text("{}")
    assert pairs.next_bench_path(tmp_path).name == "BENCH_4.json"


@pytest.mark.parametrize("text, seeds", [("7", [7]), ("0", [0]), ("80-89", list(range(80, 90))),
                                         ("5-5", [5])])
def test_seed_range_parsing(text, seeds):
    assert list(pairs.parse_seeds(text)) == seeds


@pytest.mark.parametrize("text", ["5-3", "a", "-3", "3-", "3-4-5", "", " 3"])
def test_bad_seed_range_rejected(text):
    with pytest.raises(pairs.argparse.ArgumentTypeError, match="expected K or A-B"):
        pairs.parse_seeds(text)


def test_seed_per_pair_wraps_around_the_range():
    assert [pairs.pair_seed(pairs.parse_seeds("3-5"), i) for i in range(7)] == [3, 4, 5, 3, 4, 5, 3]
    assert [pairs.pair_seed(pairs.parse_seeds("9"), i) for i in range(3)] == [9, 9, 9]


def test_bad_seed_range_stops_before_any_run(capsys):
    with pytest.raises(SystemExit):
        pairs.main(["--parent", "HEAD", "--workload", "prep", "--seed", "9-2"])
    assert "expected K or A-B with A <= B, got '9-2'" in capsys.readouterr().err


def test_environment_records_the_l2_cache():
    l2 = pairs.environment()["l2_cache"]
    assert l2 is None or re.fullmatch(r"\d+[KMG]?", l2)


def test_children_run_with_one_blas_thread(monkeypatch, tmp_path):
    seen = {}

    def fake_run(cmd, cwd, env, **kwargs):
        seen.update(cmd=cmd, cwd=cwd, env=env)
        return pairs.subprocess.CompletedProcess(cmd, 0, run_output(0.1, 1.0), "")

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    result = pairs._run(tmp_path, "prep", 7, 2.0)
    assert result["metrics"]["primary_per_ref"]["value"] == 1.0
    assert seen["cwd"] == tmp_path and "--trace" in seen["cmd"]
    assert seen["env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert not {"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & seen["env"].keys()
    assert pairs.os.environ["OPENBLAS_NUM_THREADS"] == "4"  # this process keeps its own
    assert pairs.environment()["blas_threads"] == 1
