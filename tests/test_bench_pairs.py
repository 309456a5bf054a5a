"""The summary, the claim rule and the bound notes of tools/bench_pairs.py:
against a BENCH file it did not write, and on made-up runs."""

import importlib.util
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summaries_and_claim_reproduce_bench_19():
    # every metric there is lower-is-better; its claim (tabulate model_s)
    # was met and its tabulate cm_s, 3 of 10 pairs better, was not
    doc = json.loads((ROOT / "BENCH_19.json").read_text())
    for block in doc["workloads"].values():
        for name, row in block["summary"].items():
            series = [[r["metrics"][name]["value"]
                       for r in block["runs"][side]]
                      for side in ("parent", "change")]
            assert bench_pairs.summarize(*series, True) == row
    claim = doc["claim"]
    tabulate = doc["workloads"]["tabulate"]["summary"]
    failed = doc["workloads"]["tabulate"]["failed"]
    assert bench_pairs.claim_met(tabulate[claim["metric"]], True,
                                 failed) is True
    assert bench_pairs.claim_met(tabulate["cm_s"], True, failed) is False


METRICS = {"cm_s": {"name": "cm_s", "unit": "s", "better": "lower",
                    "bound": 0.25}}


def _runs(parent: list, change: list, failed=(0, 0)) -> dict:
    """A doc holding one workload's runs of cm_s, before judging; a value
    of None is a run that crashed."""
    def run(value, n_failed):
        if value is None:
            return {"correct": False, "attempted": 0, "failed": None,
                    "metrics": {}}
        return {"correct": True, "attempted": 4, "failed": n_failed,
                "metrics": {"cm_s": {"value": value, "unit": "s"}}}
    runs = {"parent": [run(v, failed[0]) for v in parent],
            "change": [run(v, failed[1]) for v in change]}
    return {"workloads": {"tabulate": {
                "summary": {}, "correct": True,
                "failed": {side: [r["failed"] for r in rs]
                           for side, rs in runs.items()},
                "runs": runs}},
            "notes": {"tabulate": []}}


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
CHANGE = [0.60, 0.61, 0.59, 0.62, 0.60, 0.58, 0.61, 0.60, 0.59, 0.60]


def test_a_clear_gain_is_met_and_within_its_bound():
    doc = _runs(PARENT, CHANGE)
    bench_pairs.judge(doc, METRICS, "tabulate:cm_s")
    assert doc["claim"]["met"] is True
    assert doc["claim"]["failed_ops"] == {"parent": 0, "change": 0}
    assert doc["notes"]["tabulate"][0].endswith("within its bound (25%)")


def test_a_claim_records_whether_its_gain_passes_the_bound():
    # a 40 % gain clears the 25 % bound; a 9.5 % one is met by the rule
    # (10 of 10 pairs, past the parent's spread) but inside a 10 % bound
    doc = _runs(PARENT, CHANGE)
    bench_pairs.judge(doc, METRICS, "tabulate:cm_s")
    assert doc["claim"]["met"] is True and doc["claim"]["past_bound"] is True
    tight = {"cm_s": dict(METRICS["cm_s"], bound=0.1)}
    doc = _runs(PARENT, [v * 0.905 for v in PARENT])
    bench_pairs.judge(doc, tight, "tabulate:cm_s")
    assert doc["claim"]["met"] is True
    assert doc["claim"]["past_bound"] is False
    # higher-is-better gains count upwards; no summary is never past
    higher = dict(METRICS["cm_s"], better="higher")
    row = bench_pairs.summarize(PARENT, [v * 1.3 for v in PARENT], False)
    assert bench_pairs.past_bound(row, higher) is True
    assert bench_pairs.past_bound(row, METRICS["cm_s"]) is False
    assert bench_pairs.past_bound(None, METRICS["cm_s"]) is False


def test_a_failed_run_leaves_the_metric_unsummarized_and_the_claim_unmet():
    doc = _runs(PARENT, CHANGE[:-1] + [None])
    bench_pairs.judge(doc, METRICS, "tabulate:cm_s")
    block = doc["workloads"]["tabulate"]
    assert block["summary"] == {} and doc["notes"]["tabulate"] == []
    assert doc["claim"]["met"] is False
    assert doc["claim"]["past_bound"] is False
    assert doc["claim"]["failed_ops"]["change"] is None
    assert "change_median" not in doc["claim"]
    assert len(block["runs"]["change"]) == len(bench_pairs.SEEDS)


def test_a_gain_that_fails_more_operations_is_not_met():
    doc = _runs(PARENT, CHANGE, failed=(0, 1))
    bench_pairs.judge(doc, METRICS, "tabulate:cm_s")
    assert doc["workloads"]["tabulate"]["summary"]["cm_s"][
        "change_better_pairs"] == 10
    assert doc["claim"]["met"] is False


def test_fewer_than_ten_pairs_meet_no_claim():
    # two pairs, both won by far more than the parent's spread
    row = bench_pairs.summarize([1.0, 1.01], [0.5, 0.5], True)
    assert bench_pairs.claim_met(
        row, True, {"parent": [0, 0], "change": [0, 0]}) is False


def test_a_spread_wider_than_the_bound_is_unresolved():
    # parent quartiles 0.7 and 1.3 about a median of 1.0: a 60 % spread
    wide = [0.5, 0.7, 0.7, 0.7, 1.0, 1.0, 1.3, 1.3, 1.3, 1.5]
    doc = _runs(wide, [v * 1.01 for v in wide])
    bench_pairs.judge(doc, METRICS, None)
    assert "unresolved against its bound" in doc["notes"]["tabulate"][0]
    # unless every change run beats every parent run
    doc = _runs(wide, [v / 10 for v in wide])
    bench_pairs.judge(doc, METRICS, None)
    assert doc["notes"]["tabulate"][0].endswith("within its bound (25%)")


def test_machine_records_numpy_simd_dispatch():
    # the dispatch decides the bits of the pinned sums, so a BENCH file's
    # Tier-1 counts hold for the targets it records
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    found = bench_pairs.machine()
    assert set(found) == {"nproc", "python", "numpy", "numpy_dispatch",
                          "libc", "bytecode", "platform"}
    # a peak RSS holds for the malloc and the bytecode it was measured with
    assert found["libc"] == " ".join(platform.libc_ver())
    assert found["bytecode"] == "cold: PYTHONDONTWRITEBYTECODE=1"
    assert bench_pairs.child_env()["PYTHONDONTWRITEBYTECODE"] == "1"
    assert found["numpy_dispatch"] == [
        t for t in __cpu_dispatch__ if __cpu_features__[t]]
    # it is what this process dispatches to, not what the CPU has: with
    # all but the first target disabled, a child records that one alone
    if len(found["numpy_dispatch"]) > 1:
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(
            found["numpy_dispatch"][1:]))
        out = subprocess.run(
            [sys.executable, "-c", "import json, sys; sys.path[:0] = "
             "[sys.argv[1]]; import bench_pairs; "
             "print(json.dumps(bench_pairs.machine()))",
             str(ROOT / "tools")], env=env, capture_output=True,
            text=True, check=True).stdout
        assert json.loads(out)["numpy_dispatch"] == \
            found["numpy_dispatch"][:1]


def test_tier1_records_the_peak_rss_of_pytest(tmp_path):
    # a tree whose one test fills about 200 MB: the pass count, and a peak
    # RSS of the pytest process that holds it
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_fill.py").write_text(
        "def test_fill():\n"
        "    block = b'x' * (200 << 20)\n"
        "    assert len(block) == 200 << 20\n")
    row = bench_pairs.tier1(tmp_path)
    assert row["passed"] == 1 and "failed" not in row
    assert 200 <= row["peak_rss_mb"] < 400
    assert row["pytest_s"] > 0 and row["summary"].startswith("1 passed")


def test_lines_counts_the_package_and_tests_as_wc_does(tmp_path):
    # a last line without a newline is not counted, as wc -l counts; files
    # outside the patterns, a subpackage's among them, are not
    files = {"src/ldl/a.py": "x = 1\ny = 2\n", "src/ldl/b.py": "z = 3",
             "src/ldl/sub/c.py": "w = 4\n", "tests/test_a.py": "\n\n\n",
             "tools/t.py": "v = 5\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert bench_pairs.lines(tmp_path) == {"src/ldl/*.py": 2,
                                           "tests/*.py": 3}
    for pattern, count in bench_pairs.lines(ROOT).items():
        wc = subprocess.run(f"cat {pattern} | wc -l", shell=True, cwd=ROOT,
                            capture_output=True, text=True, check=True)
        assert int(wc.stdout) == count, pattern
