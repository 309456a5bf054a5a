"""Deterministic summation and the shared worker-pool contract.

Every prime sum in this package is accumulated the same way: terms in
ascending prime order are cut into fixed-size chunks, each chunk is reduced
independently (numpy pairwise summation -- single threaded and
order-stable), and the chunk partials are combined with math.fsum.  Because
the chunk boundaries are fixed, the result is bit-identical no matter how
many worker threads computed the chunks.

The package's one worker pool lives in ``block_sums``, on the loop over
those fixed chunks.  A caller hands it a block function that builds its
terms on one chunk of primes and reduces them there, so the elementwise
work runs in the pool too and memory is bounded by the chunk, not by the
prime table; ``chunked_sum`` is the case of one precomputed column, and
``term_sum`` the case of one column built per block.

Allocator coupling: a block's float64 temporaries are CHUNK * 8 = 512 KiB
each, above glibc's default mmap threshold of 128 KiB, so by default
every one of them is mmapped and page-faulted afresh in every block.
glibc raises its dynamic mmap threshold (and its trim threshold with it)
when a larger mmapped buffer is freed; the prime sieve's 16 MiB mask does
that, and from then on the temporaries are reused from the heap.  The
block passes are fast only because of it: with a 1 MiB sieve mask,
evaluate_S on the cusp model at log R 200 took 0.58-0.83 s against
0.40 s (2 cores, CPython 3.11, numpy 2.4).  The package sets no malloc
option; keep the sieve mask at 2^24 bytes.
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


def block_sums(block_fn, n: int, threads: int | None = None) -> dict:
    """Reduce block_fn over the fixed CHUNK blocks of range(n), on
    thread_count(threads) workers.

    block_fn(start, stop) returns a dict of the partial sums of one block
    (np.sum over the block, the same keys for every block); the result maps
    each key to math.fsum of its partials.  An empty range is one empty
    block, so every column still comes back (as 0.0)."""
    starts = range(0, max(n, 1), CHUNK)
    threads = thread_count(threads)

    def run(start):
        return block_fn(start, min(start + CHUNK, n))

    if threads <= 1 or n <= CHUNK:
        rows = [run(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(run, starts))
    return {key: math.fsum(row[key] for row in rows) for key in rows[0]}


def chunked_sum(values: np.ndarray, threads: int | None = None) -> float:
    """Deterministic sum of a 1-d float array, stable across thread counts."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return block_sums(lambda start, stop: {0: np.sum(values[start:stop])},
                      values.size, threads)[0]


def term_sum(term, p_int: np.ndarray, threads: int | None = None) -> float:
    """chunked_sum(term(p_int)) without the full-length column: term maps
    a CHUNK slice of the int64 primes to its float64 terms, so the sum
    has the same bits while memory is bounded by the block."""
    return block_sums(lambda start, stop: {0: np.sum(term(p_int[start:stop]))},
                      p_int.size, threads)[0]
