"""Catalog constants and per-family aggregates.

Oracles: plain-Python reimplementations of every summand (via
sympy.primerange and math.fsum) at small truncations, exact rational
arithmetic for the cancellation identity, and brute-force cubic-moment
sums through the generic family path.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from ldl import constants, families, primes
from ldl.errors import DomainError, VerificationError
from ldl.primes import first_n_primes


def _first_primes(n):
    out = []
    gen = sympy.primerange(2, 10 ** 9)
    for p in gen:
        out.append(p)
        if len(out) == n:
            return out
    raise AssertionError("unreachable")


def _chi3(p):  # (3/p) for p >= 5
    return 1 if p % 12 in (1, 11) else -1


def _chim3(p):  # (-3/p) for p >= 5
    return 1 if p % 3 == 1 else -1


# independent per-prime summands, written directly from the catalog
# descriptions rather than reusing the package implementations
ORACLE_SUMMANDS = {
    "gamma_st_0": lambda p: 2 * math.log(p) / (p * (p + 1)),
    "gamma_st_2": lambda p:
        (4 * p * p + 3 * p + 1) * math.log(p) / (p * (p + 1) ** 3),
    "gamma_st_atilde": lambda p:
        (2 * p + 1) * (p - 1) * math.log(p) / (p * (p + 1) ** 3),
    "gamma_cm_13": lambda p:
        2 * (3 * p + 1) * math.log(p) / (p + 1) ** 3 if p % 3 == 1 else 0.0,
    "gamma_cm_14": lambda p:
        2 * (3 * p + 1) * math.log(p) / (p + 1) ** 3 if p % 4 == 1 else 0.0,
    "gamma_cm0_ge5": lambda p:
        4 * math.log(p) / (p * (p + 1)) if p >= 5 else 0.0,
    "gamma_cm2_13": lambda p:
        2 * (5 * p * p + 2 * p + 1) * math.log(p) / (p * (p + 1) ** 3)
        if p % 3 == 1 else 0.0,
    "gamma_aprime_3": lambda p: 0.0 if p < 5 else (
        2 * math.log(p) / (p ** 3 - p)
        + (2 if p % 12 == 1 else -2 if p % 12 == 5 else 0)
        * math.log(p) / (p * p - 1)),
    "gamma_0_3": lambda p:
        (2 * p - 1) * math.log(p) / (p * p * (p + 1)) if p >= 5 else 0.0,
    "gamma_1_3": lambda p: 0.0 if p < 5 else
        (_chi3(p) + _chim3(p)) * (p - 1) * math.log(p)
        / (p * p * (p + 1) ** 2),
    "gamma_2_3": lambda p: 0.0 if p < 5 else (
        ((2 - _chim3(p)) * p ** 4 - (13 + 7 * _chim3(p)) * p ** 3
         - (25 + 6 * _chim3(p)) * p * p - (16 + 2 * _chim3(p)) * p - 4)
        * math.log(p) / (p ** 3 * (p + 1) ** 3)),
    "gamma_sieve012": lambda p: 0.0 if p < 5 else (
        -math.log(p) / (p ** 3 - 1)
        * (2 * (p - 1) / (p * (p + 1))
           - (2 * (p - 1) ** 2 / (p + 1) ** 3 if p % 3 == 1 else 0.0))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_SUMMANDS))
def test_catalog_constants_match_plain_python_oracle(name):
    n = 2000
    expected = math.fsum(ORACLE_SUMMANDS[name](p) for p in _first_primes(n))
    res = constants.compute_constant(name, first_primes=n)
    assert res.value == pytest.approx(expected, rel=1e-13, abs=1e-15)
    assert res.truncation == n
    assert res.tail_bound >= 0.0


def test_gamma_23_exact():
    # the sum over the first two primes at any truncation it takes
    for kwargs in ({}, {"first_primes": 1}, {"prime_limit": 1000}):
        res = constants.compute_constant("gamma_23", **kwargs)
        assert res.value == pytest.approx(
            math.log(2) + 2 * math.log(3) / 3, rel=1e-15)
        assert res.method == "closed_form"
        assert (res.truncation_kind, res.truncation) == ("prime_count", 2)


def test_gamma_atilde_3_matches_generic_brute_force():
    # the fast cubic-moment path for the unsieved family, against the
    # brute-force enumeration through a renamed clone
    n = 25
    fam = families.get_family("noncm_3x12t")
    clone = families.load_family({
        "name": "generic_clone",
        "A": list(fam.A_poly), "B": list(fam.B_poly),
        "D_factors": [list(f) for f in fam.D_factors], "k": None,
        "forced_zero_primes": [2, 3]})
    expected = math.fsum(
        families.a_tilde(clone, int(p)) * int(p) ** 1.5 * (int(p) - 1)
        * math.log(int(p)) / (int(p) * (int(p) + 1) ** 3)
        for p in first_n_primes(n).primes if int(p) >= 5)
    res = constants.compute_constant("gamma_atilde_3", first_primes=n)
    assert res.value == pytest.approx(expected, rel=1e-10)


def test_tail_bound_covers_refinement():
    for name in ("gamma_st_0", "gamma_cm2_13", "gamma_aprime_3"):
        coarse = constants.compute_constant(name, first_primes=2000)
        fine = constants.compute_constant(name, first_primes=50000)
        assert abs(fine.value - coarse.value) <= coarse.tail_bound


def test_catalog_names_and_references():
    names = constants.catalog_names()
    assert "gamma_st_0" in names and "gamma_pnt" in names
    for name in names:
        value, tol, citation = constants.paper_reference(name)
        assert tol > 0
        assert citation.startswith("ref:")
    with pytest.raises(DomainError):
        constants.paper_reference("gamma_nope")


def test_compute_constant_argument_errors():
    with pytest.raises(DomainError):
        constants.compute_constant("gamma_nope")
    # both truncations, refused before every per-name branch
    for name in ("gamma_st_0", "gamma_23"):
        with pytest.raises(DomainError):
            constants.compute_constant(name, prime_limit=100,
                                       first_primes=100)


@pytest.mark.parametrize("name", constants.catalog_names())
def test_every_entry_refuses_a_bad_truncation(name):
    # gamma_23, a closed form, refuses what every entry refuses
    for kwargs in ({"first_primes": 0}, {"first_primes": -3},
                   {"prime_limit": 0}, {"prime_limit": "x"}):
        with pytest.raises(DomainError):
            constants.compute_constant(name, **kwargs)


def test_the_catalog_is_the_one_registry():
    # the sums by name, then the prime-counting constants by name; only
    # these have two methods, and every reference cites its own name
    names = constants.catalog_names()
    two = [n for n in names if len(constants.CATALOG[n].methods) == 2]
    assert names == sorted(set(names) - set(two)) + sorted(two)
    assert two == ["gamma_pnt", "gamma_pnt_13", "gamma_pnt_14"]
    for name in names:
        assert constants.paper_reference(name)[2] == f"ref:{name}"


def test_exact_cancellation_and_negative_control():
    assert constants.exact_cancellation_check(10 ** 3)
    assert not constants.exact_cancellation_check(100, perturb=1)


def test_family_constant_atilde_guards():
    with pytest.raises(DomainError):
        constants.family_constant_Atilde("cm_b1_kappa1", prime_count=100)


# family_constant_Atilde at the reference truncation, and the quartic pair
# also at 10^4 primes, where p(p+1)^3 > 2^63: the values of the one Atilde
# recipe (families._a_tildes), which the array kernels must keep.  The
# kappa = 1 twists share their Atilde(p), hence their main sums
ATILDE_GOLDEN = {
    ("cm_b1_kappa1", None, 5000):
        (0.3437308351161087, 1.1989627305232607e-06),
    ("cm_b1_kappa1", 3, 5000):
        (0.3437308351161087, 0.0004456994795144405),
    ("cm_b1_kappa2", None, 5000):
        (0.4202793119520592, 0.0006985550282537704),
    ("cm_b1_kappa2", 3, 5000):
        (0.4202793119520592, 0.0006985550282537704),
    ("cm_b2_kappa1", None, 5000):
        (0.3437308351161087, 1.1989627305232607e-06),
    ("cm_b2_kappa1", 3, 5000):
        (0.3437308351161087, 0.0004456994795144405),
    ("cm_b2_kappa2", None, 5000):
        (0.5670012015813254, 0.0007609531948510233),
    ("cm_b2_kappa2", 3, 5000):
        (0.5670012015813254, 0.0007609531948510233),
    ("cm_b3_kappa1", None, 5000):
        (0.3437308351161087, 1.1989627305232607e-06),
    ("cm_b3_kappa1", 3, 5000):
        (0.3437308351161087, 0.0004456994795144405),
    ("cm_b3_kappa2", None, 5000):
        (0.1412560953324497, 0.00012454042981463297),
    ("cm_b3_kappa2", 3, 5000):
        (0.1412560953324497, 0.00012454042981463297),
    ("cm_b6_kappa1", None, 5000):
        (0.3437308351161087, 1.1989627305232607e-06),
    ("cm_b6_kappa1", 3, 5000):
        (0.3437308351161087, 0.0004456994795144405),
    ("cm_b6_kappa2", None, 5000):
        (0.2620024168605245, 0.00019885237167886386),
    ("cm_b6_kappa2", 3, 5000):
        (0.2620024168605245, 0.00019885237167886386),
    ("rank1_36t", None, 5000):
        (-0.11108445983666039, -0.0013546932132616118),
    ("rank1_36t", None, 10000):
        (-0.11108446132604978, -0.0013546932132616118),
    ("rank0_36t", None, 5000):
        (0.6278389316004817, 0.0064904025105431435),
    ("rank0_36t", None, 10000):
        (0.627871580542122, 0.0064904025105431435),
}


@pytest.mark.parametrize("name,exponent,count", ATILDE_GOLDEN)
def test_family_constant_atilde_keeps_its_bits(name, exponent, count):
    got = constants.family_constant_Atilde(name, prime_count=count,
                                           sieve_exponent=exponent)
    assert repr(got) == repr(ATILDE_GOLDEN[name, exponent, count])


def test_atilde_main_terms_are_read_only_arrays():
    fam = families.get_family("cm_b1_kappa2")
    ps, terms = constants._atilde_main_terms(fam, 200)
    assert ps.dtype == np.int64 and terms.dtype == np.float64
    assert ps.shape == terms.shape and ps.size > 0
    assert not ps.flags.writeable and not terms.flags.writeable
    # Atilde vanishes off p = 1 mod 3 for the sextic twists
    assert np.all(ps % 3 == 1) and np.all(terms != 0.0)


def test_sieve_conventions_share_one_atilde_pass(monkeypatch):
    # exponents 6 and 3 of cm_b1_kappa1 weight the same cached main terms:
    # the second call never reaches the entry's Atilde
    own = constants.family_constant_Atilde("cm_b1_kappa1", prime_count=5001)
    monkeypatch.setattr(families.REGISTRY["cm_b1_kappa1"], "a_tildes",
                        None)
    exp3 = constants.family_constant_Atilde("cm_b1_kappa1", prime_count=5001,
                                            sieve_exponent=3)
    assert own[0] == exp3[0] and own[1] < exp3[1]


@pytest.mark.parametrize("exponent", [3.5, "3", 3.0])
def test_a_non_integer_sieve_exponent_is_refused(exponent):
    # not truncated to the exponent-3 pair, nor a raw TypeError
    with pytest.raises(DomainError, match="must be an integer"):
        constants.family_constant_Atilde("cm_b1_kappa2",
                                         sieve_exponent=exponent)


def test_aggregate_catalog_mode():
    for target, record in constants.AGGREGATES.items():
        agg = constants.aggregate_lower_order(target)
        assert agg.aggregate == pytest.approx(record.total, abs=5e-3)
        assert agg.piece_sum() == pytest.approx(agg.aggregate, abs=1e-12)
        assert set(agg.pieces) == {"S_0", "S_1", "S_2", "S_Aprime",
                                   "S_Atilde"}


def test_aggregate_unregistered_target_raises_in_every_mode():
    # cm_b2_kappa1 has no reference aggregate; it must not borrow the
    # values of another curve
    for source in ("catalog", "computed", "derived"):
        with pytest.raises(DomainError):
            constants.aggregate_lower_order(
                "cm_b2_kappa1", source=source, allow_mixed_truncations=True)


def test_aggregate_computed_mode_guard(monkeypatch):
    with pytest.raises(VerificationError):
        constants.aggregate_lower_order("cusp_model", source="computed")
    with pytest.raises(DomainError):
        constants.aggregate_lower_order("cusp_model", source="guess")
    with pytest.raises(DomainError):
        constants.aggregate_lower_order("rank1_36t")
    # derived mode needs no truncation acknowledgement; the cubic-moment
    # sums are stubbed here (minutes of work), their values are covered by
    # the acceptance suite
    monkeypatch.setattr(constants, "_gamma_atilde_family",
                        lambda fam, n: (0.0, 0.0))
    for target in constants.AGGREGATES:
        agg = constants.aggregate_lower_order(target, source="derived")
        assert set(agg.pieces) == {"S_0", "S_1", "S_2", "S_Aprime",
                                   "S_Atilde"}
        assert agg.piece_sum() == pytest.approx(agg.aggregate, abs=1e-12)
    with pytest.raises(DomainError):
        constants.aggregate_lower_order("rank1_36t", source="derived")


def test_aggregate_target_must_be_a_name():
    # not a raw TypeError from the registry lookup
    for target in (["x"], None, 3):
        with pytest.raises(DomainError, match="no aggregate registered"):
            constants.aggregate_lower_order(target)


# float.hex of every piece, sieve piece and total of the cited
# aggregates, recorded from the three hand-written recipes the registry
# replaced: (pieces, sieve pieces, total).  An int has no .hex(), so a
# piece must also stay a float.
AGGREGATE_BITS = {
    ("cusp_model", "catalog"): (
        {"S_0": "-0x1.b7962e02b15b1p+1", "S_1": "0x0.0p+0",
         "S_2": "0x1.424606fe6c9a2p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.aa0ea1e1f0282p-2"},
        {},
        "-0x1.5523f681058bep+0"),
    ("cm_b1_kappa1", "catalog"): (
        {"S_0": "-0x1.333d9811035d8p+2", "S_1": "0x0.0p+0",
         "S_2": "0x1.8225eb362c527p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.5ff2e48e8a71ep-2"},
        {"S_012_sieve": "0x1.1904b3c3e74b0p-8",
         "S_Atilde_sieve": "-0x1.d3aa369fcf3dcp-12"},
        "-0x1.0fd5bc757ec1ap+1"),
    ("cm_b1_kappa2", "catalog"): (
        {"S_0": "-0x1.333d9811035d8p+2", "S_1": "0x0.0p+0",
         "S_2": "0x1.8225eb362c527p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.ae631f8a0902ep-2"},
        {"S_012_sieve": "0x1.1904b3c3e74b0p-8",
         "S_Atilde_sieve": "-0x1.6e7a311e85fd0p-11"},
        "-0x1.19ac0e264b7dbp+1"),
    ("cm_b2_kappa2", "catalog"): (
        {"S_0": "-0x1.333d9811035d8p+2", "S_1": "0x0.0p+0",
         "S_2": "0x1.8225eb362c527p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.224dd2f1a9fbep-1"},
        {"S_012_sieve": "0x1.1904b3c3e74b0p-8",
         "S_Atilde_sieve": "-0x1.8efbb0e5e6794p-11"},
        "-0x1.2c75270971524p+1"),
    ("cm_b3_kappa2", "catalog"): (
        {"S_0": "-0x1.333d9811035d8p+2", "S_1": "0x0.0p+0",
         "S_2": "0x1.8225eb362c527p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.2161e4f765fd9p-3"},
        {"S_012_sieve": "0x1.1904b3c3e74b0p-8",
         "S_Atilde_sieve": "-0x1.0624dd2f1a9fcp-13"},
        "-0x1.ebc5f2e9c7226p+0"),
    ("cm_b6_kappa2", "catalog"): (
        {"S_0": "-0x1.333d9811035d8p+2", "S_1": "0x0.0p+0",
         "S_2": "0x1.8225eb362c527p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.0c49ba5e353f8p-2"},
        {"S_012_sieve": "0x1.1904b3c3e74b0p-8",
         "S_Atilde_sieve": "-0x1.a1554fbdad752p-13"},
        "-0x1.05587f32fe139p+1"),
    ("noncm_3x12t", "catalog"): (
        {"S_0": "-0x1.1b063932af326p+2", "S_1": "0x1.bf145b096e9c5p-7",
         "S_2": "0x1.f5b0e9417799ap+0", "S_Aprime": "0x1.53d9d892c27ebp-4",
         "S_Atilde": "-0x1.58fc504816f00p-2"},
        {},
        "-0x1.59f5a4ae05f36p+1"),
    ("cm_b1_kappa2", "computed"): (
        {"S_0": "-0x1.333dab1222a08p+2", "S_1": "0x0.0p+0",
         "S_2": "0x1.8225f16a6b03fp+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.ae5db33013f19p-2"},
        {"S_012_sieve": "0x1.190a21aeabea2p-8",
         "S_Atilde_sieve": "-0x1.6e3e7801a6bbcp-11"},
        "-0x1.19ab79f6857fbp+1"),
    ("cusp_model", "computed"): (
        {"S_0": "-0x1.b7965405dc16ap+1", "S_1": "0x0.0p+0",
         "S_2": "0x1.42461bac2fa38p+1", "S_Aprime": "0x0.0p+0",
         "S_Atilde": "-0x1.aa0ea1db9e9c5p-2"},
        {},
        "-0x1.5524192a408d5p+0"),
}


@pytest.mark.parametrize("target,source", list(AGGREGATE_BITS),
                         ids=lambda v: v)
def test_aggregate_bits(target, source):
    agg = constants.aggregate_lower_order(target, source=source,
                                          allow_mixed_truncations=True)
    pieces, sieve, total = AGGREGATE_BITS[target, source]
    assert {k: v.hex() for k, v in agg.pieces.items()} == pieces
    assert {k: v.hex() for k, v in agg.sieve_pieces.items()} == sieve
    assert agg.aggregate.hex() == total


def test_computed_mode_reads_each_constant_once(monkeypatch):
    # the cusp model's S_0 and S_2 both cite gamma_pnt
    calls, compute = [], constants.compute_constant

    def counted(name, *args, **kwargs):
        calls.append(name)
        return compute(name, *args, **kwargs)

    monkeypatch.setattr(constants, "compute_constant", counted)
    constants.aggregate_lower_order("cusp_model", source="computed",
                                    allow_mixed_truncations=True)
    assert sorted(calls) == ["gamma_pnt", "gamma_st_0", "gamma_st_2",
                             "gamma_st_atilde"]


def test_prime_limit_truncates_the_first_prime_sums():
    # pi(100) = 25: a prime limit selects the primes up to it, and is
    # reported as such
    for name in ("gamma_sieve012", "gamma_atilde_3"):
        by_limit = constants.compute_constant(name, prime_limit=100)
        by_count = constants.compute_constant(name, first_primes=25)
        assert by_limit.value == by_count.value
        assert (by_limit.truncation_kind, by_limit.truncation) == \
            ("prime_limit", 100)
        assert by_limit.tail_bound == by_count.tail_bound
    default = constants.compute_constant("gamma_sieve012")
    assert constants.compute_constant(
        "gamma_sieve012", prime_limit=100).value != default.value


# the repr of every catalog result at its reference truncation, frozen
# from the implementation that built each sum as one full-length column
CATALOG_GOLDEN = {
    ("gamma_0_3", "catalog"):
        "ConstantResult(name='gamma_0_3', value=0.33470305231682257, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=2.2672857303709102e-06, method='direct_sum')",
    ("gamma_1_3", "catalog"):
        "ConstantResult(name='gamma_1_3', value=-0.013643783905808645, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=7.11200500982462e-14, method='direct_sum')",
    ("gamma_23", "catalog"):
        "ConstantResult(name='gamma_23', value=1.4255553730053518, "
        "truncation_kind='prime_count', truncation=2, tail_bound=0.0, "
        "method='closed_form')",
    ("gamma_2_3", "catalog"):
        "ConstantResult(name='gamma_2_3', value=0.0856256397702363, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=3.4009285955563655e-06, method='direct_sum')",
    ("gamma_aprime_3", "catalog"):
        "ConstantResult(name='gamma_aprime_3', value=-0.082971426074337, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=4.5345714607418204e-06, method='direct_sum')",
    ("gamma_atilde_3", "catalog"):
        "ConstantResult(name='gamma_atilde_3', value=0.33837280625076943, "
        "truncation_kind='prime_count', truncation=5000, "
        "tail_bound=0.001940565735611559, method='direct_sum')",
    ("gamma_cm0_ge5", "catalog"):
        "ConstantResult(name='gamma_cm0_ge5', value=0.709919026525973, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=4.5345714607418204e-06, method='direct_sum')",
    ("gamma_cm2_13", "catalog"):
        "ConstantResult(name='gamma_cm2_13', value=0.6412884390306441, "
        "truncation_kind='prime_count', truncation=4000000, "
        "tail_bound=2.8044268239104403e-06, method='direct_sum')",
    ("gamma_cm_13", "catalog"):
        "ConstantResult(name='gamma_cm_13', value=0.38184489086887957, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=6.801857191112731e-06, method='direct_sum')",
    ("gamma_cm_14", "catalog"):
        "ConstantResult(name='gamma_cm_14', value=0.4663306101718448, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=6.801857191112731e-06, method='direct_sum')",
    ("gamma_pnt", "catalog"):
        "ConstantResult(name='gamma_pnt', value=-1.332582265733365, "
        "truncation_kind='prime_limit', truncation=100000000, "
        "tail_bound=1.842068266022745e-07, method='closed_form')",
    ("gamma_pnt", "integral"):
        "ConstantResult(name='gamma_pnt', value=-1.3323760648725198, "
        "truncation_kind='prime_limit', truncation=100000000, "
        "tail_bound=0.13572859747230007, method='integral')",
    ("gamma_pnt_13", "catalog"):
        "ConstantResult(name='gamma_pnt_13', value=-2.375494490353519, "
        "truncation_kind='prime_limit', truncation=67867979, "
        "tail_bound=5.314162925264282e-07, method='closed_form')",
    ("gamma_pnt_13", "integral"):
        "ConstantResult(name='gamma_pnt_13', value=-2.374998611462212, "
        "truncation_kind='prime_limit', truncation=67867979, "
        "tail_bound=0.3157890750490303, method='integral')",
    ("gamma_pnt_14", "catalog"):
        "ConstantResult(name='gamma_pnt_14', value=-2.2248371093412653, "
        "truncation_kind='prime_limit', truncation=67867979, "
        "tail_bound=5.314162925264282e-07, method='closed_form')",
    ("gamma_pnt_14", "integral"):
        "ConstantResult(name='gamma_pnt_14', value=-2.2243478068148956, "
        "truncation_kind='prime_limit', truncation=67867979, "
        "tail_bound=0.3157890750490303, method='integral')",
    ("gamma_sieve012", "catalog"):
        "ConstantResult(name='gamma_sieve012', "
        "value=-0.004288323615284336, truncation_kind='prime_count', "
        "truncation=10000, tail_bound=1e-12, method='direct_sum')",
    ("gamma_st_0", "catalog"):
        "ConstantResult(name='gamma_st_0', value=0.769110621560987, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=2.2672857303709102e-06, method='direct_sum')",
    ("gamma_st_2", "catalog"):
        "ConstantResult(name='gamma_st_2', value=1.1851822635665985, "
        "truncation_kind='prime_count', truncation=4000000, "
        "tail_bound=1.121770729564176e-06, method='direct_sum')",
    ("gamma_st_atilde", "catalog"):
        "ConstantResult(name='gamma_st_atilde', value=0.4160714426322126, "
        "truncation_kind='prime_count', truncation=1000000, "
        "tail_bound=2.2672857303709102e-06, method='direct_sum')",
}


_INTEGRAL = {
    "gamma_pnt": lambda: primes.gamma_pnt(method="integral"),
    "gamma_pnt_13": lambda: primes.gamma_pnt_ab(1, 3, method="integral"),
    "gamma_pnt_14": lambda: primes.gamma_pnt_ab(1, 4, method="integral"),
}


@pytest.mark.parametrize("name,method", [
    pytest.param(*key, marks=pytest.mark.slow)
    if key[0] == "gamma_atilde_3" else key for key in CATALOG_GOLDEN],
    ids=[f"{name}-{method}" for name, method in CATALOG_GOLDEN])
def test_catalog_results_keep_their_bits(name, method):
    if method == "integral":
        res = _INTEGRAL[name]()
    else:
        res = constants.compute_constant(name)
    assert repr(res) == CATALOG_GOLDEN[name, method]


def test_gamma_atilde_3_keeps_its_bits_at_1000_primes():
    # the fast stand-in for the slow 5000-prime golden above
    res = constants.compute_constant("gamma_atilde_3", first_primes=1000)
    assert res.value == 0.3381608248040482
