"""Deterministic summation and the shared worker-pool contract.

Every prime sum in this package is accumulated the same way: terms in
ascending prime order are cut into fixed-size chunks, each chunk is reduced
independently (numpy pairwise summation -- single threaded and
order-stable), and the chunk partials are combined with math.fsum.  Because
the chunk boundaries are fixed, the result is bit-identical no matter how
many worker threads computed the chunks.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

CHUNK = 1 << 16


def thread_count(requested: int | None = None) -> int:
    """Resolve the worker count: explicit arg, then LDL_THREADS, then 1."""
    if requested is not None and requested >= 1:
        return requested
    env = os.environ.get("LDL_THREADS", "")
    try:
        n = int(env)
    except ValueError:
        n = 0
    return n if n >= 1 else 1


def chunked_sum(values: np.ndarray, threads: int = 1) -> float:
    """Deterministic sum of a 1-d float array, stable across thread counts."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.size
    if n == 0:
        return 0.0
    starts = range(0, n, CHUNK)
    if threads <= 1 or n <= CHUNK:
        partials = [float(np.sum(values[s:s + CHUNK])) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(
                lambda s: float(np.sum(values[s:s + CHUNK])), starts))
    return math.fsum(partials)

