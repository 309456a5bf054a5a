"""The fixed-chunk summation contract of ldl._sum."""

import math
import os
import pathlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from ldl import _sum, constants, explicit_formula as ef, primes
from ldl.errors import DomainError, VerificationError


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_chunked_sum_is_the_one_column_block_sum(threads):
    values = np.random.default_rng(5).standard_normal(3 * _sum.CHUNK + 1234)
    cuts = range(0, values.size, _sum.CHUNK)
    want = math.fsum(float(np.sum(values[s:s + _sum.CHUNK])) for s in cuts)
    cols = _sum.block_sums(
        lambda start, stop: {"x": np.sum(values[start:stop]),
                             "x3": np.sum(3.0 * values[start:stop])},
        values.size, threads)
    assert _sum.chunked_sum(values) == cols["x"] == want
    assert cols["x3"] == math.fsum(
        float(np.sum(3.0 * values[s:s + _sum.CHUNK])) for s in cuts)


def test_block_sums_of_an_empty_range():
    cols = _sum.block_sums(
        lambda start, stop: {"a": np.sum(np.ones(stop - start)), "b": 0.0}, 0)
    assert cols == {"a": 0.0, "b": 0.0}
    assert _sum.chunked_sum(np.array([])) == 0.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
def test_block_passes_reuse_their_temporaries_after_a_small_sieve():
    # a 2 * 10^6 sieve frees no 16 MiB buffer, so only the threshold that
    # _sum raises at import lets a second pass reuse its 512 KiB block
    # temporaries from the heap; with the threshold left to the sieve,
    # every pass took 3 139 minor faults
    code = "\n".join((
        "import math, resource",
        "from ldl import explicit_formula as ef",
        "from ldl.primes import get_table",
        "get_table(2 * 10 ** 6)",
        "phi = ef.builtin_test_pair('indicator_smooth:0.18')",
        "run = lambda: ef.evaluate_S('cusp_model', phi, math.exp(160),",
        "                            prime_limit=2 * 10 ** 6, threads=1)",
        "run()",
        "ef._PASS_MEMO.clear()",
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
        "run()",
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"))
    src = str(pathlib.Path(_sum.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert int(run.stdout) < 500


@pytest.mark.parametrize("head,rest", [(3, 2 * _sum.CHUNK + 5), (0, 10),
                                       (2, _sum.CHUNK - 2), (1, 0), (0, 0)])
def test_term_sum_with_a_head_is_the_sum_of_the_joined_primes(head, rest):
    # chunks tops the head's block up from the rest, so the blocks, and
    # with them the bits of the sum, are those of the joined array
    p_int = primes.first_n_primes(head + rest + 1).primes
    heads, tail = p_int[:head], p_int[head + 1:head + 1 + rest]

    def term(blk):
        return blk.lp / (blk.pp - 1.0)

    assert _sum.term_sum(term, (heads, tail)) == \
        _sum.term_sum(term, [np.concatenate((heads, tail))])


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ordered_map_keeps_the_order_of_its_items(threads):
    # later items finish first on a pool, and still come back in place
    def slow_first(i):
        time.sleep(0.0005 * (20 - i))
        return i * i

    assert _sum.ordered_map(slow_first, range(20), threads) == \
        [i * i for i in range(20)]
    assert _sum.ordered_map(slow_first, [], threads) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_ordered_map_raises_a_worker_error_in_the_caller(threads):
    def check(i):
        if i == 5:
            raise VerificationError(f"bad item {i}")
        return i

    with pytest.raises(VerificationError, match="bad item 5"):
        _sum.ordered_map(check, range(8), threads)


def test_ordered_map_opens_no_pool_inside_a_worker(monkeypatch):
    seen = []
    real = _sum.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        seen.append(threading.current_thread().name)
        return real(*args, **kwargs)

    monkeypatch.setattr(_sum, "ThreadPoolExecutor", counting_pool)
    rows = _sum.ordered_map(
        lambda i: _sum.ordered_map(lambda j: (i, j), range(3), 2),
        range(4), 2)
    assert rows == [[(i, j) for j in range(3)] for i in range(4)]
    assert seen == [threading.main_thread().name]


def _meet_on_two_threads(barrier, ran):
    """An item function whose first two items wait for each other, so
    they run at once on two threads; every item records its thread."""
    def item(i):
        ran[i] = threading.get_ident()
        if i < 2:
            barrier.wait()
        return i
    return item


def test_ordered_map_runs_items_on_the_caller():
    # a two-worker map has the caller and one helper: the two items that
    # wait for each other run on both, so one of them runs on the caller
    barrier, ran = threading.Barrier(2, timeout=30), {}
    assert _sum.ordered_map(_meet_on_two_threads(barrier, ran), range(6),
                            2) == list(range(6))
    assert threading.get_ident() in {ran[0], ran[1]}
    assert ran[0] != ran[1]


def test_ordered_map_raises_an_error_of_the_callers_item():
    barrier, ran = threading.Barrier(2, timeout=30), {}
    meet = _meet_on_two_threads(barrier, ran)

    def check(i):
        meet(i)
        if threading.get_ident() == caller:
            raise VerificationError(f"bad item {i} on the caller")
        return i

    caller = threading.get_ident()
    with pytest.raises(VerificationError, match="on the caller"):
        _sum.ordered_map(check, range(6), 2)
    assert not getattr(_sum._worker, "active", False)


def test_ordered_map_starts_no_item_after_a_failure():
    started = []

    def check(i):
        started.append(i)
        if i == 0:
            raise VerificationError("bad item 0")
        time.sleep(0.01)
        return i

    with pytest.raises(VerificationError, match="bad item 0"):
        _sum.ordered_map(check, range(40), 2)
    assert len(started) < 40


def test_thread_count_defaults_to_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("LDL_THREADS", raising=False)
    want = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert _sum.thread_count() == want
    monkeypatch.setenv("LDL_THREADS", "3")
    assert _sum.thread_count() == 3
    assert _sum.thread_count(1) == 1


@pytest.mark.parametrize("requested", [0, -4])
def test_thread_count_refuses_a_count_below_one(requested):
    with pytest.raises(DomainError, match="thread count must be >= 1"):
        _sum.thread_count(requested)


@pytest.mark.parametrize("requested", [1.5, 2.0, "2"])
def test_thread_count_refuses_a_count_that_is_not_an_integer(requested):
    with pytest.raises(DomainError, match="thread count must be an integer"):
        _sum.thread_count(requested)


def test_evaluate_s_refuses_a_thread_count_that_is_not_an_integer(
        monkeypatch):
    # refused before the pass memo, which keys on the count, and any table
    def no_work(*args, **kwargs):
        raise AssertionError("prime table built before the count check")

    monkeypatch.setattr(ef, "get_table", no_work)
    with pytest.raises(DomainError, match="thread count must be an integer"):
        ef.evaluate_S("cusp_model", ef.builtin_test_pair("fejer:0.9"),
                      math.exp(20.0), threads="2")


@pytest.mark.parametrize("env", ["abc", "0", "-1", "2.5", ""])
def test_thread_count_refuses_a_bad_environment_value(monkeypatch, env):
    monkeypatch.setenv("LDL_THREADS", env)
    with pytest.raises(DomainError, match="LDL_THREADS"):
        _sum.thread_count()
    # an explicit count still takes precedence
    assert _sum.thread_count(2) == 2


def test_the_catalog_sums_open_no_pool(monkeypatch):
    # each sum below spans two CHUNK blocks, which block_sums would map on
    # a pool of LDL_THREADS workers
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was opened")

    monkeypatch.setenv("LDL_THREADS", "8")
    monkeypatch.setattr(_sum, "ThreadPoolExecutor", no_pool)
    constants.compute_constant("gamma_st_2", first_primes=10 ** 5)
    primes.gamma_pnt(prime_limit=10 ** 6)
    primes.gamma_pnt_ab(1, 3, prime_limit=10 ** 6)
    primes.theta_error_integral("all", 10 ** 6)


def test_evaluate_s_opens_a_pool_over_several_blocks(monkeypatch):
    monkeypatch.setattr(ef, "_PASS_MEMO", {})
    opened = []
    real = _sum.ThreadPoolExecutor

    def counting_pool(*args, **kwargs):
        opened.append(kwargs["max_workers"])
        return real(*args, **kwargs)

    monkeypatch.setattr(_sum, "ThreadPoolExecutor", counting_pool)
    pair = ef.builtin_test_pair("indicator_smooth:0.18")
    ef.evaluate_S("cusp_model", pair, math.exp(50.0), threads=2,
                  prime_limit=10 ** 6)
    # one helper thread beside the caller, which is the second worker
    assert opened == [1]
