"""The benchmark calls into ``ldl`` by name: its tracer wraps functions,
and its workloads call the library with fixed keyword names.  Each of
them must still exist and run, or benchmark runs break."""

import importlib
import importlib.util
import math
import pathlib

from ldl import constants, explicit_formula as ef, families, primes

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" \
    / "tracer.py"


def test_every_traced_function_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for modname, names in tracer.TRACED.values():
        module = importlib.import_module(modname)
        for name in names:
            assert callable(getattr(module, name, None)), (modname, name)


def test_every_library_call_of_the_workloads_runs():
    # each call of perfbench/workloads.py, in its shape, on small inputs
    fam = families.get_family("cm_b1_kappa1")
    assert isinstance(families.a_tilde(fam, 13), float)
    assert isinstance(families.h_factor(fam, 13, exponent=3)[1], float)
    for kwargs in ({}, {"sieve_exponent": 3}):
        main, sieve = constants.family_constant_Atilde("cm_b1_kappa1",
                                                       **kwargs)
        assert isinstance(main, float) and isinstance(sieve, float)
    for name in ("gamma_atilde_3", "gamma_st_atilde"):
        res = constants.compute_constant(name, first_primes=1000)
        assert isinstance(res.value, float)
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    R = math.exp(20.0)
    primes.get_table(math.ceil(R ** pair.sigma))
    for kwargs in ({}, {"threads": 2},
                   {"prime_limit": math.ceil(R ** pair.sigma),
                    "threads": 2}):
        dec = ef.evaluate_S("rank1_36t", pair, R, atilde_primes=30,
                            **kwargs)
        assert math.isfinite(dec.total)
        assert isinstance(dec.lower_order_coefficient, float)
        assert dec.as_dict()["family"] == "rank1_36t"


def test_the_derived_limit_call_runs(monkeypatch):
    # perfbench/derive.py's call, in its shape, and what it reads of the
    # result; the cubic-moment sums are stubbed
    monkeypatch.setattr(constants, "_gamma_atilde_family",
                        lambda fam, n: (0.0, 0.0))
    agg = constants.aggregate_lower_order("noncm_3x12t", source="derived")
    assert agg.family == "noncm_3x12t"
    assert math.isfinite(agg.aggregate)
    assert agg.pieces and agg.sieve_pieces
    assert isinstance(ef.ATILDE_PRIMES, int)
