"""CLI surface: schema envelope, exit codes, formats, determinism."""

import copy
import functools
import hashlib
import json
import math
import pathlib
import sys

import pytest

from ldl import cli, constants, explicit_formula as ef, families


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


@pytest.mark.parametrize("name,count", [
    ("gamma_cm_13", "0"), ("gamma_pnt", "0"), ("gamma_atilde_3", "0"),
    ("all", "0"), ("gamma_cm_13", "-3"), ("gamma_23", "-3")])
def test_constants_refuse_a_prime_count_below_one(capsys, name, count):
    code, out, err = run(capsys, "constants", "--name", name,
                         "--first-primes", count)
    assert code == 2 and out == ""
    assert "prime count" in err and "Traceback" not in err


@pytest.mark.parametrize("method", ["direct", "closed", "both"])
def test_constants_method_picks_among_two_methods_only(capsys, method):
    rows = run_json(capsys, "constants", "--name", "gamma_st_0",
                    "--first-primes", "100", "--method", method,
                    )["results"]["rows"]
    assert [r["method"] for r in rows] == ["direct_sum"]
    rows = run_json(capsys, "constants", "--name", "gamma_pnt_14",
                    "--prime-limit", "200000", "--method", method,
                    )["results"]["rows"]
    assert [r["method"] for r in rows] == {
        "direct": ["integral"], "closed": ["closed_form"],
        "both": ["closed_form", "integral"]}[method]


def test_constants_truncation_error_omits_the_catalog(capsys):
    # gamma_23, a closed form, refuses it as every entry does
    for name in ("gamma_pnt", "gamma_23"):
        code, out, err = run(capsys, "constants", "--name", name,
                             "--prime-limit", "0")
        assert code == 2 and out == ""
        # the sieve's message, also once a table is cached
        assert err == "error: sieve limit 0 yields an empty table\n"


@pytest.mark.parametrize("flag,value", [("--prime-limit", "2147483648"),
                                        ("--first-primes", "105097566")])
def test_constants_refuse_a_table_past_the_int32_cap(capsys, flag, value):
    code, out, err = run(capsys, "constants", "--name", "gamma_pnt",
                         flag, value)
    assert code == 2 and out == ""
    assert "cap" in err and "Traceback" not in err


def test_family_refuses_a_sieve_with_no_power_free_t(capsys, tmp_path):
    # D = 125(1 + t): nu_D(5^3) = 125 = 5^3
    cfg = tmp_path / "all_bad.json"
    cfg.write_text(json.dumps({"name": "all_bad", "A": [0], "B": [1, 6],
                               "D_factors": [[125, 125]], "k": 3}))
    code, out, err = run(capsys, "family", "--family", f"@{cfg}",
                         "--prime-limit", "10")
    assert code == 2 and out == ""
    assert "nu_D(5^3) = 125" in err


def test_constants_method_both(capsys):
    # every prime-counting constant gives its closed form and its integral,
    # which agree within the sum of their tail bounds
    for name in ("gamma_pnt", "gamma_pnt_13", "gamma_pnt_14"):
        doc = run_json(capsys, "constants", "--name", name,
                       "--method", "both", "--prime-limit", "1000000")
        closed, integral = doc["results"]["rows"]
        assert closed["name"] == integral["name"] == name
        assert (closed["method"], integral["method"]) == \
            ("closed_form", "integral")
        assert abs(closed["value"] - integral["value"]) <= \
            closed["tail_bound"] + integral["tail_bound"]


@pytest.mark.parametrize("name", ["gamma_sieve012", "gamma_atilde_3"])
def test_constants_prime_limit_reaches_the_first_prime_sums(capsys, name):
    by_limit = run_json(capsys, "constants", "--name", name,
                        "--prime-limit", "100")["results"]["rows"][0]
    by_count = run_json(capsys, "constants", "--name", name,
                        "--first-primes", "25")["results"]["rows"][0]
    assert by_limit["truncation"] == "prime_limit:100"
    assert by_limit["value"] == by_count["value"]


def test_family_aggregate(capsys):
    doc = run_json(capsys, "family", "--family", "cm_b1_kappa2",
                   "--aggregate")
    res = doc["results"]
    assert res["aggregate"] == pytest.approx(-2.201, abs=5e-3)
    assert set(res["pieces"]) == {"S_0", "S_1", "S_2", "S_Aprime",
                                  "S_Atilde"}


def test_family_aggregate_takes_what_the_library_takes(capsys):
    # the cusp model has an aggregate but is no family
    agg = constants.aggregate_lower_order("cusp_model")
    res = run_json(capsys, "family", "--family", "cusp_model",
                   "--aggregate")["results"]
    assert (res["family"], res["pieces"], res["sieve_pieces"],
            res["aggregate"]) == ("cusp_model", agg.pieces, {},
                                  agg.aggregate)
    # a family, or a config, with no registered aggregate
    for family in ("cm_b2_kappa1", "rank1_36t", "@" + IMPOSTOR):
        code, out, err = run(capsys, "family", "--family", family,
                             "--aggregate")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "no aggregate registered" in err
    # --verify-closed-forms wins over --aggregate
    res = run_json(capsys, "family", "--family", "cm_b1_kappa2",
                   "--aggregate", "--verify-closed-forms",
                   "--prime-limit", "30")["results"]
    assert res["failures"] == [] and "aggregate" not in res


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
    # R = e^logR at most 1, past the float range or not a number
    for logR in ("-3", "1000", "nan", "inf"):
        code, out, err = run(capsys, "explicit", "--family", "cusp_model",
                             "--phi", "fejer:0.5", "--logR", logR)
        assert code == 2 and out == "" and "Traceback" not in err
    code, _, _ = run(capsys, "explicit", "--family", "no_such_family",
                     "--phi", "fejer:0.5", "--logR", "25")
    assert code == 2


def test_explicit_custom_config(capsys, tmp_path, monkeypatch):
    fam = families.get_family("cm_b1_kappa2")
    cfg = {"name": "generic_clone", "A": list(fam.A_poly),
           "B": list(fam.B_poly),
           "D_factors": [list(f) for f in fam.D_factors], "k": int(fam.k),
           "forced_zero_primes": [2, 3]}
    path = tmp_path / "clone.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    argv = ("explicit", "--family", f"@{path}", "--phi", "fejer:0.4")
    # the default cubic-moment truncation, the first 5000 primes, is past
    # the brute-force cap of a custom family
    code, out, err = run(capsys, *argv, "--logR", "25")
    assert code == 2 and out == "" and "Traceback" not in err
    evaluate_s = ef.evaluate_S
    monkeypatch.setattr(ef, "evaluate_S",
                        functools.partial(evaluate_s, atilde_primes=30))
    doc = run_json(capsys, *argv, "--logR", "25")
    want = evaluate_s(families.load_family(str(path)),
                      ef.builtin_test_pair("fejer:0.4"), math.exp(25.0),
                      atilde_primes=30)
    assert doc["results"]["pieces"] == want.as_dict()["pieces"]
    assert doc["manifest"]["config_digest"] == hashlib.sha256(
        path.read_bytes()).hexdigest()
    # a prime table past the brute-force moment cap
    code, out, err = run(capsys, *argv, "--logR", "200")
    assert code == 2 and out == "" and "Traceback" not in err
    code, out, err = run(capsys, "explicit", "--family",
                         f"@{tmp_path / 'missing.json'}", "--phi",
                         "fejer:0.4", "--logR", "25")
    assert code == 2 and out == "" and "Traceback" not in err


def test_verify_fast_suites(capsys):
    for suite in ("sieve", "bias"):
        code, out, _ = run(capsys, "verify", "--suite", suite)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["suites"][suite] == "pass"


@pytest.mark.parametrize("argv", [
    ("family", "--family", "cm_b1_kappa2", "--prime-limit", "0"),
    ("family", "--family", "cm_b1_kappa2", "--prime-limit", "1"),
    ("family", "--family", "cm_b1_kappa2", "--aggregate",
     "--prime-limit", "-5"),
    ("family", "--family", "cm_b1_kappa2", "--moments", "-1"),
    ("verify", "--suite", "identities", "--prime-limit", "0"),
    ("verify", "--suite", "appendixB", "--prime-limit", "1"),
], ids=" ".join)
def test_out_of_range_limits_are_refused(capsys, argv):
    # a given --prime-limit below 2 is refused, not replaced by the
    # default, even by the commands that never read it
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "Traceback" not in err


MOMENTS_ARGV = ("family", "--family", "cm_b1_kappa2", "--prime-limit", "100",
                "--moments")


def test_family_refuses_moments_past_the_digit_limit(capsys, monkeypatch):
    # 97 * 19^8000, the bound at p = 97, has over 10 000 digits, past the
    # default limit of 4300; the refusal comes before any moment
    def no_moments(*args, **kwargs):
        raise AssertionError("moment_table ran")

    with monkeypatch.context() as m:
        m.setattr(families, "moment_table", no_moments)
        code, out, err = run(capsys, *MOMENTS_ARGV, "8000")
        assert code == 2 and out == "" and "Traceback" not in err
        assert "--moments 8000" in err
        # a limit of 0 is no limit
        m.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        m.setattr(families, "moment_table", lambda *args, **kwargs: [])
        assert run_json(capsys, *MOMENTS_ARGV, "8000")["results"]["rows"] \
            == []
    # no prime >= 5, so no row to bound
    doc = run_json(capsys, "family", "--family", "cm_b1_kappa2",
                   "--prime-limit", "3", "--moments", "8000")
    assert doc["results"]["rows"] == []
    doc = run_json(capsys, *MOMENTS_ARGV, "200")
    assert doc["manifest"]["output_checksum"] == \
        "60343b8efe45ce35beb23d18b39e7c4592894b987e680f3ca8938e9b42918772"


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


# three blocks of primes up to 1 794 075: evaluate_S's pass uses the pool
EXPLICIT_ARGV = ("explicit", "--family", "cusp_model", "--phi", "fejer:0.9",
                 "--logR", "32")


def test_thread_count_independence(capsys):
    one = _strip_wall_time(run_json(capsys, *EXPLICIT_ARGV, "--threads", "1"))
    two = _strip_wall_time(run_json(capsys, *EXPLICIT_ARGV, "--threads", "2"))
    assert one["results"] == two["results"]
    assert one["manifest"]["output_checksum"] == \
        two["manifest"]["output_checksum"]
    assert (one["manifest"]["threads"], two["manifest"]["threads"]) == (1, 2)


def test_manifest_threads_is_the_pool_that_ran(capsys, monkeypatch):
    # the catalog sums are serial whatever LDL_THREADS says; the non-CM
    # Atilde sub-blocks run on LDL_THREADS workers
    monkeypatch.setenv("LDL_THREADS", "8")
    doc = run_json(capsys, "constants", "--name", "gamma_pnt")
    assert doc["manifest"]["threads"] == 1
    monkeypatch.setenv("LDL_THREADS", "2")
    doc = run_json(capsys, "constants", "--name", "gamma_atilde_3",
                   "--first-primes", "300")
    assert doc["manifest"]["threads"] == 2
    # --threads belongs to explicit, the one command whose pass takes it
    code, out, _ = run(capsys, "constants", "--name", "gamma_pnt",
                       "--threads", "2")
    assert code == 2 and out == ""


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_thread_count_below_one_is_a_usage_error(capsys, threads):
    code, out, err = run(capsys, *EXPLICIT_ARGV, "--threads", threads)
    assert code == 2 and out == ""
    assert "thread count must be >= 1" in err


@pytest.mark.parametrize("env", ["abc", "0", "2.5", ""])
def test_ldl_threads_must_be_a_positive_integer(capsys, monkeypatch, env):
    monkeypatch.setenv("LDL_THREADS", env)
    code, out, err = run(capsys, "constants", "--name", "gamma_23")
    assert code == 2 and out == ""
    assert "LDL_THREADS" in err


# --------------------------------------------------------------------------
# golden envelopes: the full output checksums of built-in commands

IMPOSTOR = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"
               / "impostor_cm_b1_kappa2.json")

GOLDEN = [
    (("family", "--family", "cm_b1_kappa2", "--prime-limit", "60"),
     "99a3826aed71a3aba3105b619bb762f06cf579a7e10aede0e832812a9c4070fb"),
    (("family", "--family", "cm_b6_kappa1", "--prime-limit", "60"),
     "5d74aa0b4ea8b70a9e522c15b73016caf99467d9373a0bf78e0833b15510b8ca"),
    (("family", "--family", "rank1_36t", "--prime-limit", "60"),
     "2cc0c4ad40594621e9ac00c1f5947cbd6d0417374335c531c10fd52052f3794a"),
    (("family", "--family", "rank0_36t", "--prime-limit", "60"),
     "89147824e1474ab5ccdad23a0a1aeee9789e8870fe19585f7509fe3a89f7cd5c"),
    (("family", "--family", "noncm_3x12t", "--prime-limit", "60"),
     "7940adacf5390677dfc9e87dae07d05b2767ec4466c28cac1744fa0fdbc2f792"),
    (("family", "--family", "cm_b2_kappa2", "--aggregate"),
     "d14253e2201ac6042270dd75c1a542aeaeb6f9dfedec7b08e3333b01d8779a6a"),
    (("family", "--family", "noncm_3x12t", "--aggregate"),
     "451a1c52f9df0e6f8d840a04f12eb1aec54bebb0ca52e18b2921ea5c193a357f"),
    (("family", "--family", "rank1_36t", "--verify-closed-forms",
      "--prime-limit", "300"),
     "5584fc7019cb62f653af6da36af56f37d6e1d3a0f3984842c337cc19de680908"),
    (("explicit", "--family", "cm_b1_kappa1", "--phi",
      "indicator_smooth:0.18", "--logR", "50"),
     "414ecdd7a809753f4df4729c23f8f6e653df5f6537f45973aa1e7000928672f6"),
    (("explicit", "--family", "rank1_36t", "--phi", "indicator_smooth:0.18",
      "--logR", "50"),
     "7dbfabac9d8ab8e35cefd93c99a37eb9a532d9c4093da6169881e3b06d20e47e"),
    (("explicit", "--family", "rank0_36t", "--phi", "indicator_smooth:0.18",
      "--logR", "50"),
     "77d6742bbf0dce97ca4ba2c5041e7226d65cd6bb87901b35c9e78ba3218d9818"),
    (("explicit", "--family", "cm_b2_kappa2", "--phi", "fejer:0.9",
      "--logR", "25"),
     "a3d36ad5d17b0c6bba5fb10115e395be381d88c21520e005d402fc2467dce589"),
    (("explicit", "--family", "cusp_model", "--phi", "indicator_smooth:0.18",
      "--logR", "50"),
     "fc0e69d4c1361118e2a5be43af6597579c5b892ad82ad9fd9b54b0a9299eec0f"),
    (("explicit", "--family", "noncm_3x12t", "--phi",
      "indicator_smooth:0.18", "--logR", "50"),
     "fc969c85c230c728715a24a67abcc867787956421b4b7a1410437049549e4efc"),
    (("explicit", "--family", "cusp_model", "--phi", "gaussian_truncated:0.5",
      "--logR", "30"),
     "00ab2a678b4832bde9218f0f0875832f3f380a9b73de6050929d4724313cb9a8"),
    (("explicit", "--family", "cm_b1_kappa2", "--phi", "gaussian:0.7",
      "--logR", "40"),
     "0caa156cc4b674ff2ed156091c40300f941d67b2a6034da005a038af056fe050"),
    (("constants", "--name", "gamma_pnt", "--prime-limit", "200000"),
     "e636b32c9341329095e8bf5ab1f86543a93214b8f625c3b66c3d092a580587bb"),
    (("constants", "--name", "gamma_pnt_13", "--prime-limit", "100000"),
     "2dc9ff6dc4c139d8083c7885e9a2a0d3939dc5cb13c11678b4b5b85a1dffdccb"),
    (("constants", "--name", "gamma_pnt_14", "--prime-limit", "100000"),
     "ea73913831eb8fd6ec89a2c883547aa2307e2ec0cfd8496edca67ce8c9db3176"),
    (("verify", "--suite", "appendixB"),
     "a488ad5dc81cfc8cc272f79d2ff276f487913510b8c4a5f636cfd623f33beb50"),
    (("family", "--family", "@" + IMPOSTOR, "--prime-limit", "13"),
     "271cf81046505e3b3a198dcf8ca671fd10ceb52fbe6ea0c398a97051452c4ba0"),
]


@pytest.mark.parametrize("argv,checksum", GOLDEN,
                         ids=[" ".join(a).replace(IMPOSTOR, "impostor")
                              for a, _ in GOLDEN])
def test_golden_envelope(capsys, argv, checksum):
    doc = run_json(capsys, *argv)
    assert doc["manifest"]["output_checksum"] == checksum
