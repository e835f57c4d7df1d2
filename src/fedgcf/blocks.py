"""Bounded row blocks of a scores product on a two-thread pool: how rows
are cut into blocks, how blocks are mapped over the pool, and the one
top-k selection rule of ``evaluate`` and ``predict_links``."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Scores held at once per row block: about 2**18 floats (2 MB), so a block
# and its mask stay in cache while a worker selects from them.
_SCORE_BUDGET = 2**18
# Row blocks start at multiples of this many rows (see ``row_blocks``).
_ROW_ALIGN = 48
# The least finite float: the lowest cut a selection makes.
_LOWEST = -np.finfo(np.float64).max
# Row blocks are scored and selected on two worker threads (``select_blocks``).
_WORKERS = 2


def _new_pool() -> None:
    """Set up ``_POOL``; it starts its threads on its first multi-block call.
    A forked child inherits the pool but not its threads, so it gets a new
    one."""
    global _POOL
    _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="fedgcf-select")


_new_pool()
if hasattr(os, "register_at_fork"):  # where processes can fork
    os.register_at_fork(after_in_child=_new_pool)


def row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """Split rows ``0..n_rows`` into ``(start, stop)`` blocks of about
    ``_SCORE_BUDGET / n_cols`` rows: 2**18 scores, 2 MB, so that a block
    and its mask stay in a core's cache while it is selected from.

    ``evaluate`` and ``predict_links`` score and select each block on its
    own under one rule (``select_blocks``), two blocks at a time on the
    selection pool: known pairs score -inf, and each row keeps its entries
    at or above a threshold (-inf for ``evaluate``), at most k of them,
    best first with ties toward the smaller column. No array either builds
    grows past a block. The contrastive term (``learn._infonce_terms``)
    takes its logits and softmax in blocks of query rows on the same pool,
    in rows of one buffer that its calling thread allocates.

    Every block but the last has the same size, a multiple of ``_ROW_ALIGN``
    rows; the last one also takes the remainder, so no block is shorter
    than that unless it is the only one. Then, under a single-threaded
    OpenBLAS, a block's product with a column table has the bits of the
    full product at the shapes ``evaluate``, ``predict_links`` and the
    server's contrastive term use. Its gemm works through rows in groups
    of the kernel's row unroll (24 rows for the OpenBLAS 0.3.31 kernel
    this was measured with; 48 is a multiple of the common 4, 8, 16 and
    24) and rounds the group that ends a product differently at the column
    tail; a one-row block goes to gemv.

    The exception: with OpenBLAS 0.3.31 on one thread, 91 of 4000 random
    shapes gave a block other bits than the full product, all with at most
    25 columns and d >= 32 (one was d = 62, 10 columns, 215 rows). At the
    default budget a block of 25 columns holds 10,464 rows (about
    2**18 / 25), so so few columns take more than one block from about 21k
    rows on. With more BLAS threads the full product's own bits depend on
    the thread count at some shapes.
    """
    size = max(_ROW_ALIGN, _SCORE_BUDGET // max(n_cols, 1) // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, n_rows, size))[: max(1, n_rows // size)]  # the last takes the rest
    return list(zip(starts, starts[1:] + [n_rows]))


def unit_rows(x: np.ndarray) -> np.ndarray:
    """``x`` with each row divided by its norm; a row of norm below 1e-12
    becomes zero, so it scores 0 against every row."""
    norms = np.linalg.norm(x, axis=1)
    ok = norms > 1e-12
    return np.where(ok[:, None], x / np.where(ok, norms, 1.0)[:, None], 0.0)


def _select_block(rows_v, cols_v, known_rows, known_cols, threshold: float, k: int, a: int, b: int, bufs):
    """Rows ``a:b`` of ``select_blocks``: the kept entries' block rows,
    columns and scores, in (row, col) order. Works in ``bufs``, block-sized
    scores, their mask and a copy to partition (None where no row is cut at
    k); nothing it returns is a view of them."""
    n_cols = cols_v.shape[0]
    scores_buf, mask_buf, part_buf = bufs
    scores = np.matmul(rows_v[a:b], cols_v.T, out=scores_buf[: b - a])
    lo, hi = np.searchsorted(known_rows, [a, b])
    scores[known_rows[lo:hi] - a, known_cols[lo:hi]] = -np.inf
    # no cut is below the least finite float, so -inf entries never pass
    cut = np.full((b - a, 1), max(threshold, _LOWEST))
    keep = None if threshold == -np.inf else np.greater_equal(scores, cut, out=mask_buf[: b - a])
    over = np.zeros(b - a, dtype=bool)
    if k < n_cols:
        over = np.count_nonzero(keep, axis=1) > k if keep is not None else np.ones(b - a, dtype=bool)
        if over.any():
            if over.all():
                part = part_buf[: b - a]
                np.copyto(part, scores)
            else:
                at = np.flatnonzero(over)
                part = np.take(scores, at, axis=0, out=part_buf[: at.size], mode="clip")
            part.partition(-k, axis=1)
            cut[over, 0] = np.maximum(part[:, -k], _LOWEST)
            keep = None
    flat = np.flatnonzero(np.greater_equal(scores, cut, out=mask_buf[: b - a]) if keep is None else keep)
    rows, cols = np.divmod(flat, n_cols)
    s = scores.ravel()[flat]
    if over.any():
        # a row passes k entries only by ties at its cut: a running count
        # keeps the first of them by column
        tie = s == cut[rows, 0]
        seen = np.cumsum(tie) - tie
        counts = np.bincount(rows, minlength=b - a)
        room = k - np.bincount(rows[~tie], minlength=b - a)
        keep = ~tie | (seen - seen[(np.cumsum(counts) - counts)[rows]] < room[rows])
        rows, cols, s = rows[keep], cols[keep], s[keep]
    return rows, cols, s


def select_blocks(rows_v, cols_v, known_rows, known_cols, threshold: float, k: int, finish=None) -> list:
    """The one selection rule of ``evaluate`` and ``predict_links``, per
    ``row_blocks`` block of ``rows_v @ cols_v.T``; returns one result per
    block, in block order.

    The known (row, col) pairs (sorted by row) score -inf and are never
    kept. Each row keeps its entries at or above its cut: ``threshold``,
    raised to the row's k-th best score where more than k entries reach the
    threshold (no row has more than k entries where k is at least the
    number of columns). Ties at the cut go to the smaller columns, so a row
    keeps at most k entries.

    A block's result is ``finish(a, b, rows, cols, scores)`` of its rows
    ``a:b`` and kept entries (block rows, in (row, col) order), run in the
    same worker; without ``finish`` it is the entries' global rows, columns
    and scores. Blocks run through ``map_blocks``, each in one of its
    buffer sets, which this thread allocates. Every block's work depends on
    its own rows alone, so the output never depends on scheduling.
    """
    n_cols = cols_v.shape[0]
    blocks = row_blocks(rows_v.shape[0], n_cols)
    shape = max(b - a for a, b in blocks), n_cols
    sets = [
        (np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape) if k < n_cols else None)
        for _ in range(min(_WORKERS, len(blocks)))
    ]

    def run(j):
        a, b = blocks[j]
        rows, cols, scores = _select_block(rows_v, cols_v, known_rows, known_cols, threshold, k, a, b, sets[j % _WORKERS])
        return (rows + a, cols, scores) if finish is None else finish(a, b, rows, cols, scores)

    return map_blocks(run, len(blocks))


def map_blocks(run, n_blocks: int) -> list:
    """``[run(j) for j in range(n_blocks)]``, the blocks on ``_POOL``.

    Block j is submitted only once block j - ``_WORKERS`` is done, so it may
    reuse that block's buffers (set ``j % _WORKERS``, which the calling
    thread allocates). Results are collected by block index, so the output
    never depends on scheduling as long as each block writes only its own
    part of any shared output. A one-block call runs inline and starts no
    worker.
    """
    if n_blocks == 1:
        return [run(0)]
    futures = []
    for j in range(n_blocks):
        if j >= _WORKERS:
            futures[j - _WORKERS].result()  # block j takes over its buffers
        futures.append(_POOL.submit(run, j))
    return [f.result() for f in futures]
