"""Deterministic summation and the shared worker-pool contract.

A chunked prime sum cuts its terms, in ascending prime order, into fixed
CHUNK-size blocks, reduces each block (numpy pairwise summation, single
threaded and order-stable) and combines the partials with math.fsum, so
its bits do not depend on which thread reduced which block.
``term_sum`` builds one column per ``Block``, which holds what a chunk's
terms share, and reduces the blocks inline: the catalog constants' terms
are too light to gain from a second core.  Every prime array of the
package is int64, a PrimeTable's decoded blocks or a slice of them, and
``chunks`` is the one place that cuts CHUNK blocks: ``term_sum`` takes
its primes as pieces, such as a table's blocks after a short head, and
``chunks`` cuts them into the CHUNK blocks of the joined array.
families.rank_bias (a sequential loop over the blocks) and the Atilde
main sum (one math.fsum of cached terms) are not chunked sums.

The package's one worker pool lives in ``ordered_map``, which returns
[fn(x) for x in items] in order; the caller is one of its workers, beside
workers - 1 helper threads.  ``block_sums`` maps a caller's block
function (terms built and reduced on one chunk, for several columns) over
the chunks with it.  Three passes use the pool: the evaluate_S blocks on
thread_count(threads) workers, and the lower_order_limit blocks and the
non-CM trace sub-blocks (families._histogram_map) on thread_count(None),
so LDL_THREADS sets those (the Atilde main-sum cache is shared across
calls).  A task that itself calls ``ordered_map`` runs that map inline,
so no pool opens inside a pool.
LDL_THREADS=1 gives a serial run.  ``pool_peak`` is the most workers one
pool ran since a caller set it to 1 (the CLI manifest's ``threads``).

Allocator coupling: a block's float64 temporaries are CHUNK * 8 = 512 KiB
each, above glibc's default mmap threshold of 128 KiB, so by default
every one of them would be mmapped and page-faulted afresh in every
block.  glibc raises its dynamic mmap threshold to the size of a larger
mmapped buffer when that buffer is freed, and its trim threshold to twice
that.  So this module, once per process at import, allocates and frees
one untouched 2^24-byte buffer (``_raise_mmap_threshold``): no page of it
is touched, and from then on every temporary below 16 MiB comes from the
heap and is reused, whatever the process sieved.  This is the package's
one memory-reuse rule: it covers the temporaries of ``block_sums`` and
``term_sum`` and every array of the non-CM trace transforms
(families._correlations), pocketfft's scratch included.  The package sets
no malloc option.  Each thread that allocates takes a glibc arena of its
own, and under the raised trim threshold every arena keeps a block's
working set (6-10 MB) resident.  So a w-worker map runs on the caller and
w - 1 helpers and touches w arenas, not w + 1: a process that runs passes
both inline and on two workers keeps two working sets, not three.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, ResourceError, integer

CHUNK = 1 << 16


def _raise_mmap_threshold() -> None:
    """Allocate and free one untouched 2^24-byte buffer, which raises
    glibc's dynamic mmap and trim thresholds (see the allocator note)."""
    np.empty(1 << 24, dtype=np.uint8)


_raise_mmap_threshold()


def thread_count(requested: int | None = None) -> int:
    """Resolve the worker count: the explicit argument, then LDL_THREADS,
    then the number of CPUs this process may use.  DomainError for an
    explicit count that is not an integer (operator.index refuses it) or
    is below 1, or for an LDL_THREADS that is set but is not an integer
    >= 1."""
    if requested is not None:
        requested = integer(requested, "thread count")
        if requested < 1:
            raise DomainError(f"thread count must be >= 1, got {requested}")
        return requested
    env = os.environ.get("LDL_THREADS")
    if env is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise DomainError(
            f"LDL_THREADS must be an integer >= 1, got {env!r}")
    return n


_worker = threading.local()
pool_peak = 1


def _mark_worker() -> None:
    _worker.active = True


def ordered_map(fn, items, threads: int | None = None) -> list:
    """[fn(x) for x in items], in order, on thread_count(threads) workers:
    the caller and workers - 1 helper threads, which take the items' indices
    from one shared iterator.

    Inline for one worker, for at most one item, and inside a worker of
    this pool.  After an exception raised by fn no worker starts another
    item, and the caller re-raises it once every helper has stopped.  A
    w-worker map touches w malloc arenas, the caller's among them (see the
    allocator note)."""
    global pool_peak
    items = list(items)
    threads = thread_count(threads)
    if threads <= 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(x) for x in items]
    workers = min(threads, len(items))
    pool_peak = max(pool_peak, workers)
    results = [None] * len(items)
    indices = iter(range(len(items)))
    take = threading.Lock()
    failed = threading.Event()

    def run() -> None:
        while not failed.is_set():
            with take:
                i = next(indices, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException:
                failed.set()
                raise

    with ThreadPoolExecutor(max_workers=workers - 1,
                            initializer=_mark_worker) as pool:
        helpers = [pool.submit(run) for _ in range(workers - 1)]
        previous = getattr(_worker, "active", False)
        _worker.active = True
        try:
            run()
        finally:
            _worker.active = previous
    for helper in helpers:
        helper.result()
    return results


def block_sums(block_fn, n: int, threads: int | None = None) -> dict:
    """Reduce block_fn over the fixed CHUNK blocks of range(n), through
    ordered_map.

    block_fn(start, stop) returns a dict of the partial sums of one block
    (np.sum over the block, the same keys for every block); the result maps
    each key to math.fsum of its partials.  An empty range is one empty
    block, so every column still comes back (as 0.0)."""
    rows = ordered_map(lambda start: block_fn(start, min(start + CHUNK, n)),
                       range(0, max(n, 1), CHUNK), threads)
    return {key: math.fsum(row[key] for row in rows) for key in rows[0]}


class Block:
    """An ascending block of primes, held as int64 in p_int (a decoded
    PrimeTable block is int64 already; ResourceError for a Python int past
    int64), and the read-only float64 quantities its terms share, each
    formed on first use: pf, lp = log pf, pp = pf * pf, q = pf + 1.0,
    q3 = q ** 3, power(k) = pf ** k, mod(n) = p mod n, character(table) =
    table[p mod len(table)] and, for any other quantity, shared(key, form)
    = form() under key.

    power and q3 are numpy's pow, which is not correctly rounded: below
    10^7, pf ** 3 misses the correctly rounded p^3 at 35,520 of the 664,579
    primes, while pf * pf * pf, whose p^2 is exact below 9.49e7, misses at
    none.  The bit pins are those of the pow, so they hold for the numpy
    build whose SIMD pow they were taken with (README, Determinism)."""

    def __init__(self, p_int: np.ndarray):
        try:
            self.p_int = np.asarray(p_int, dtype=np.int64)
        except OverflowError:
            raise ResourceError("a prime past 2^63 - 1 has no int64 block"
                                ) from None
        self._memo = {}

    def shared(self, key, form):
        if key not in self._memo:
            self._memo[key] = value = form()
            value.flags.writeable = False
        return self._memo[key]

    pf = property(lambda b: b.shared("pf", lambda: b.p_int.astype(float)))
    lp = property(lambda b: b.shared("lp", lambda: np.log(b.pf)))
    pp = property(lambda b: b.shared("pp", lambda: b.pf * b.pf))
    q = property(lambda b: b.shared("q", lambda: b.pf + 1.0))
    q3 = property(lambda b: b.shared("q3", lambda: b.q ** 3))

    def power(self, k: int) -> np.ndarray:
        return self.shared(("power", k), lambda: self.pf ** k)

    def mod(self, n: int) -> np.ndarray:
        # numpy divides an int64 array by a scalar several times faster
        # than it takes the remainder
        return self.shared(n, lambda: self.p_int - n * (self.p_int // n))

    def character(self, table: tuple) -> np.ndarray:
        return self.shared(table, lambda: np.asarray(
            table, dtype=np.float64)[self.mod(len(table))])


# no package sum calls chunked_sum; the perfbench tracer wraps it by name
def chunked_sum(values: np.ndarray) -> float:
    """Deterministic sum of a 1-d float array over fixed CHUNK blocks."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    return math.fsum(np.sum(values[i:i + CHUNK])
                     for i in range(0, values.size, CHUNK))


def chunks(pieces):
    """The primes of an iterable of ascending int arrays, joined in order
    and cut into consecutive CHUNK blocks, the last possibly shorter: a
    block inside one piece is a view of it, one that spans pieces is
    copied into a new int64 array."""
    buf, fill = None, 0
    for piece in pieces:
        i = 0
        if fill:                              # top the open block up
            i = min(CHUNK - fill, piece.size)
            buf[fill:fill + i] = piece[:i]
            fill += i
            if fill < CHUNK:
                continue
            yield buf
            fill = 0
        while piece.size - i >= CHUNK:
            yield piece[i:i + CHUNK]
            i += CHUNK
        if i < piece.size:
            buf = np.empty(CHUNK, dtype=np.int64)
            fill = piece.size - i
            buf[:fill] = piece[i:]
    if fill:
        yield buf[:fill]


def term_sum(term, pieces) -> float:
    """The chunked sum of term over the ascending primes of pieces, an
    iterable of int arrays joined in order (chunks), without a full-length
    column: term maps the Block of each CHUNK block to its float64 terms,
    so the sum has the bits of the joined column's while memory is bounded
    by the block."""
    return math.fsum(np.sum(term(Block(blk))) for blk in chunks(pieces))
