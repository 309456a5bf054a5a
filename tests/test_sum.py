"""The fixed-chunk summation contract of ldl._sum."""

import math

import numpy as np
import pytest

from ldl import _sum


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_chunked_sum_is_the_one_column_block_sum(threads):
    values = np.random.default_rng(5).standard_normal(3 * _sum.CHUNK + 1234)
    cuts = range(0, values.size, _sum.CHUNK)
    want = math.fsum(float(np.sum(values[s:s + _sum.CHUNK])) for s in cuts)
    cols = _sum.block_sums(
        lambda start, stop: {"x": np.sum(values[start:stop]),
                             "x3": np.sum(3.0 * values[start:stop])},
        values.size, threads)
    assert _sum.chunked_sum(values, threads) == cols["x"] == want
    assert cols["x3"] == math.fsum(
        float(np.sum(3.0 * values[s:s + _sum.CHUNK])) for s in cuts)


def test_block_sums_of_an_empty_range():
    cols = _sum.block_sums(
        lambda start, stop: {"a": np.sum(np.ones(stop - start)), "b": 0.0}, 0)
    assert cols == {"a": 0.0, "b": 0.0}
    assert _sum.chunked_sum(np.array([])) == 0.0
