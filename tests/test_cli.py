"""CLI surface: schema envelope, exit codes, formats, determinism."""

import copy
import hashlib
import json

import pytest

from ldl import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_constants_json_envelope(capsys):
    doc = run_json(capsys, "constants", "--name", "gamma_23")
    assert doc["schema"] == "ldl/1"
    manifest = doc["manifest"]
    for key in ("command", "config_digest", "prime_truncations", "threads",
                "wall_time_s", "version", "output_checksum"):
        assert key in manifest
    rows = doc["results"]["rows"]
    assert len(rows) == 1
    row = rows[0]
    assert row["value"] == pytest.approx(1.4255553730, abs=1e-9)
    assert "tail_bound" in row and "truncation" in row
    # the checksum is over the canonical serialization of the results
    canon = json.dumps(doc["results"], sort_keys=True,
                       separators=(",", ":")).encode()
    assert manifest["output_checksum"] == hashlib.sha256(canon).hexdigest()


def test_constants_csv_header(capsys):
    code, out, _ = run(capsys, "constants", "--name", "gamma_23",
                       "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    for col in ("name", "value", "truncation", "tail_bound", "method",
                "paper_value", "paper_citation"):
        assert col in header.split(",")


def test_constants_usage_errors(capsys):
    code, _, err = run(capsys, "constants", "--name", "gamma_nope")
    assert code == 2
    assert "known constants" in err
    code, _, _ = run(capsys, "constants", "--name", "gamma_23",
                     "--prime-limit", "100", "--first-primes", "100")
    assert code == 2


def test_constants_method_both(capsys):
    doc = run_json(capsys, "constants", "--name", "gamma_pnt",
                   "--method", "both", "--prime-limit", "1000000")
    methods = {r["method"] for r in doc["results"]["rows"]}
    assert methods == {"closed_form", "integral"}


def test_family_aggregate(capsys):
    doc = run_json(capsys, "family", "--family", "cm_b1_kappa2",
                   "--aggregate")
    res = doc["results"]
    assert res["aggregate"] == pytest.approx(-2.201, abs=5e-3)
    assert set(res["pieces"]) == {"S_0", "S_1", "S_2", "S_Aprime",
                                  "S_Atilde"}


def test_family_rows(capsys):
    doc = run_json(capsys, "family", "--family", "noncm_3x12t",
                   "--prime-limit", "20")
    rows = doc["results"]["rows"]
    assert [r["p"] for r in rows] == [5, 7, 11, 13, 17, 19]
    assert rows[0]["moments"][0] == 3  # A_0(5) for this family


def test_family_verify_closed_forms(capsys):
    code, out, _ = run(capsys, "family", "--family", "rank0_36t",
                       "--verify-closed-forms", "--prime-limit", "60")
    assert code == 0
    assert json.loads(out)["results"]["failures"] == []


def test_family_config_file(capsys, tmp_path):
    cfg = {"name": "custom", "A": [0], "B": [2, 6],
           "D_factors": [[1, 6]], "k": 6, "forced_zero_primes": [2, 3]}
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    doc = run_json(capsys, "family", "--family", f"@{path}",
                   "--prime-limit", "20")
    assert doc["results"]["family"] == "custom"
    assert doc["manifest"]["config_digest"] == hashlib.sha256(
        path.read_bytes()).hexdigest()
    code, _, err = run(capsys, "family", "--family", "@/no/such/file.json")
    assert code == 2


def test_family_aggregate_refuses_custom_config(capsys, tmp_path):
    # a config that borrows a built-in's name has no aggregate
    cfg = {"name": "cm_b1_kappa2", "A": [0], "B": [1, 6],
           "D_factors": [[1, 6]], "k": 3, "forced_zero_primes": [2, 3]}
    path = tmp_path / "impostor.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    code, out, err = run(capsys, "family", "--family", f"@{path}",
                         "--aggregate")
    assert code == 2 and out == "" and "Traceback" not in err


def test_explicit_decomposition(capsys):
    doc = run_json(capsys, "explicit", "--family", "cusp_model",
                   "--phi", "indicator_smooth:0.18", "--logR", "25")
    res = doc["results"]
    assert set(res["pieces"]) == {"S_0", "S_1", "S_2", "S_Aprime",
                                  "S_Atilde"}
    assert res["support_complete"] is True


def test_explicit_exit_codes(capsys):
    code, _, _ = run(capsys, "explicit", "--family", "cusp_model",
                     "--phi", "fejer:2.0", "--logR", "50",
                     "--prime-limit", "1000")
    assert code == 4
    code, _, _ = run(capsys, "explicit", "--family", "cusp_model",
                     "--phi", "mystery:0.5", "--logR", "25")
    assert code == 2
    code, _, _ = run(capsys, "explicit", "--family", "cusp_model",
                     "--phi", "fejer:0.5", "--logR", "-3")
    assert code == 2
    code, _, _ = run(capsys, "explicit", "--family", "no_such_family",
                     "--phi", "fejer:0.5", "--logR", "25")
    assert code == 2


def test_verify_fast_suites(capsys):
    for suite in ("sieve", "bias"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["suites"][suite] == "pass"


def test_usage_exit_code(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["constants"]) == 2
    capsys.readouterr()


def test_out_flag_writes_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "constants", "--name", "gamma_23",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["schema"] == "ldl/1"


def _strip_wall_time(doc):
    doc = copy.deepcopy(doc)
    doc["manifest"].pop("wall_time_s")
    return doc


def test_json_output_deterministic(capsys):
    argv = ("constants", "--name", "gamma_st_0", "--first-primes", "20000")
    first = _strip_wall_time(run_json(capsys, *argv))
    second = _strip_wall_time(run_json(capsys, *argv))
    assert first == second


def test_thread_count_independence(capsys):
    base = ("constants", "--name", "gamma_cm2_13", "--first-primes",
            "50000")
    one = _strip_wall_time(run_json(capsys, *base, "--threads", "1"))
    eight = _strip_wall_time(run_json(capsys, *base, "--threads", "8"))
    assert one["results"] == eight["results"]
    assert one["manifest"]["output_checksum"] == \
        eight["manifest"]["output_checksum"]
