"""Exact blocked top-K ranking: Recall@K and NDCG@K over held-out pairs."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .errors import ConfigError

# Scores held at once per row block: about 2**18 floats (2 MB), so a block
# and its mask stay in cache while a worker selects from them.
_SCORE_BUDGET = 2**18
# Row blocks start at multiples of this many rows (see ``row_blocks``).
_ROW_ALIGN = 48
# The least finite float: the lowest cut a selection makes.
_LOWEST = -np.finfo(np.float64).max
# Row blocks are scored and selected on two worker threads (``_select_blocks``).
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


@dataclass
class EvalResult:
    """Per-user and macro-averaged ranking metrics at cutoff k.

    Macro averages run over users with a nonempty relevant set; everyone
    else is skipped, not counted as zero.
    """

    k: int
    per_user: dict[int, tuple[float, float]]
    recall: float
    ndcg: float


def row_blocks(n_rows: int, n_cols: int) -> list[tuple[int, int]]:
    """Split rows ``0..n_rows`` into ``(start, stop)`` blocks of about
    ``_SCORE_BUDGET / n_cols`` rows: 2**18 scores, 2 MB, so that a block
    and its mask stay in a core's cache while it is selected from.

    ``evaluate`` and ``predict_links`` score and select each block on its
    own under one rule (``_select_blocks``), two blocks at a time on the
    selection pool: known pairs score -inf, and each row keeps its entries
    at or above a threshold (-inf for ``evaluate``), at most k of them,
    best first with ties toward the smaller column. No array either builds
    grows past a block.

    Every block but the last has the same size, a multiple of ``_ROW_ALIGN``
    rows; the last one also takes the remainder, so no block is shorter
    than that unless it is the only one. Then, under a single-threaded
    OpenBLAS, a block's product with a column table has the bits of the
    full product at the shapes ``evaluate`` and ``predict_links`` use. Its
    gemm works through rows in groups of the kernel's row unroll (24 rows
    for the OpenBLAS 0.3.31 kernel this was measured with; 48 is a multiple
    of the common 4, 8, 16 and 24) and rounds the group that ends a product
    differently at the column tail; a one-row block goes to gemv.

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


def _select_block(rows_v, cols_v, known_rows, known_cols, threshold: float, k: int | None, a: int, b: int, bufs):
    """Rows ``a:b`` of ``_select_blocks``: the kept entries' block rows,
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
    if k is not None and k < n_cols:
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


def _select_blocks(rows_v, cols_v, known_rows, known_cols, threshold: float, k: int | None, finish=None) -> list:
    """The one selection rule of ``evaluate`` and ``predict_links``, per
    ``row_blocks`` block of ``rows_v @ cols_v.T``; returns one result per
    block, in block order.

    The known (row, col) pairs (sorted by row) score -inf and are never
    kept. Each row keeps its entries at or above its cut: ``threshold``,
    raised to the row's k-th best score where more than k entries reach the
    threshold (``k`` None: no cap). Ties at the cut go to the smaller
    columns, so a row keeps at most k entries.

    A block's result is ``finish(a, b, rows, cols, scores)`` of its rows
    ``a:b`` and kept entries (block rows, in (row, col) order), run in the
    same worker; without ``finish`` it is the entries' global rows, columns
    and scores. Blocks run on ``_POOL``, each worker in one set of buffers
    this thread allocates and a later block reuses. Every block's work
    depends on its own rows alone and results are collected by block index,
    so the output never depends on scheduling; a one-block call runs
    inline.
    """
    n_cols = cols_v.shape[0]
    blocks = row_blocks(rows_v.shape[0], n_cols)
    shape = max(b - a for a, b in blocks), n_cols
    cut_at_k = k is not None and k < n_cols
    sets = [
        (np.empty(shape), np.empty(shape, dtype=bool), np.empty(shape) if cut_at_k else None)
        for _ in range(min(_WORKERS, len(blocks)))
    ]

    def run(j):
        a, b = blocks[j]
        rows, cols, scores = _select_block(rows_v, cols_v, known_rows, known_cols, threshold, k, a, b, sets[j % len(sets)])
        return (rows + a, cols, scores) if finish is None else finish(a, b, rows, cols, scores)

    if len(blocks) == 1:
        return [run(0)]
    futures = []
    for j in range(len(blocks)):
        if j >= len(sets):
            futures[j - len(sets)].result()  # block j takes over its buffers
        futures.append(_POOL.submit(run, j))
    return [f.result() for f in futures]


def _metrics(hit_rows: np.ndarray, hit_ranks: np.ndarray, n_relevant: np.ndarray, k: int, n_ranks: int):
    """Recall and binary-gain NDCG at k of each row, from the (row, rank)
    of its hits in (row, rank) order; ranks count from 0, best first, and
    lie below ``n_ranks``.

    DCG adds each row's gains in rank order (``bincount`` adds its weights
    in list order), which has the bits of a scalar loop over the ranked list
    because a miss would add 0.0. IDCG, truncated at min(k, |relevant|),
    comes from a prefix table summed in the same order.
    """
    gains = 1.0 / np.log2(np.arange(2, max(k, n_ranks) + 2))
    dcg = np.bincount(hit_rows, weights=gains[hit_ranks], minlength=n_relevant.size)
    idcg = np.cumsum(gains)[np.minimum(k, n_relevant) - 1]
    return np.bincount(hit_rows, minlength=n_relevant.size) / n_relevant, dcg / idcg


def _one_row_metrics(ranked: np.ndarray, relevant: set, k: int) -> tuple[float, float]:
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    ranks = np.flatnonzero(np.isin(np.asarray(ranked, dtype=np.int64), np.fromiter(relevant, np.int64, len(relevant))))
    recall, ndcg = _metrics(np.zeros_like(ranks), ranks, np.array([len(relevant)]), k, len(ranked))
    return float(recall[0]), float(ndcg[0])


def recall_at_k(ranked: np.ndarray, relevant: set) -> float:
    """|ranked intersect relevant| / |relevant| (relevant must be nonempty)."""
    return _one_row_metrics(ranked, relevant, 1)[0]


def ndcg_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    """Binary-gain NDCG with IDCG truncated at min(k, |relevant|)."""
    return _one_row_metrics(ranked, relevant, k)[1]


def evaluate(
    user_views: np.ndarray,
    item_views: np.ndarray,
    ds: InteractionDataset,
    split: str = "test",
    k: int = 20,
    sim: str = "cosine",
) -> EvalResult:
    """Rank every user's non-train items and macro-average the metrics.

    Each user with held-out items gets the k best non-train items by score,
    ties broken toward the smaller item id (fewer than k when fewer remain).
    Scores are one users x items product, taken in ``row_blocks`` of
    bounded size: for cosine, of the unit user and item rows (``unit_rows``,
    normalised once per call), for inner product of the views themselves.
    The selection is ``predict_links``' rule without a threshold: train
    items score -inf and each row keeps its k best entries above -inf
    (``_select_blocks``). Each row's ranking equals a full stable sort of
    that row of the product. Only the (user, rank) of each hit outlives its
    block; the per-user metrics come from one array pass over them.
    """
    if split not in ("val", "test"):
        raise ConfigError(f"split must be val|test, got {split!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if sim not in ("inner", "cosine"):
        raise ConfigError(f"unknown similarity {sim!r}")
    relevant = ds.val if split == "val" else ds.test
    if relevant.shape[0] == 0:
        return EvalResult(k=k, per_user={}, recall=0.0, ndcg=0.0)
    users, n_relevant = np.unique(relevant[:, 0], return_counts=True)
    # each user's row in ``users``, -1 for users not ranked
    row_of = np.full(ds.n_users, -1)
    row_of[users] = np.arange(users.size)
    train_rows = row_of[ds.train[:, 0]]
    ranked = train_rows >= 0
    known = train_rows[ranked], ds.train[ranked, 1]  # the train pairs of ranked users
    rows_v, cols_v = user_views[users], item_views
    if sim == "cosine":
        rows_v, cols_v = unit_rows(rows_v), unit_rows(cols_v)
    n_items = item_views.shape[0]
    # held-out pairs as (row in ``users``) * n_items + item keys
    rel_keys = row_of[relevant[:, 0]] * n_items + relevant[:, 1]

    def rank_hits(a, b, rows, cols, scores):
        # each row's kept entries left-aligned in column order: a stable
        # sort of the negated scores, padded with +inf, ranks them
        counts = np.bincount(rows, minlength=b - a)
        pos = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        padded = np.full((b - a, counts.max(initial=0)), np.inf)
        padded[rows, pos] = -scores
        hit = np.zeros(padded.shape, dtype=bool)
        hit[rows, pos] = np.isin((rows + a) * n_items + cols, rel_keys, assume_unique=True)
        r, rank = np.nonzero(np.take_along_axis(hit, np.argsort(padded, axis=1, kind="stable"), axis=1))
        return r + a, rank

    hit_rows, hit_ranks = zip(*_select_blocks(rows_v, cols_v, *known, -np.inf, k, rank_hits))
    recall, ndcg = _metrics(np.concatenate(hit_rows), np.concatenate(hit_ranks), n_relevant, k, min(k, n_items))
    per_user = dict(zip(users.tolist(), zip(recall.tolist(), ndcg.tolist())))
    return EvalResult(k=k, per_user=per_user, recall=float(np.mean(recall)), ndcg=float(np.mean(ndcg)))


def write_per_user_tsv(result: EvalResult, path: str) -> None:
    """Dump per-user metrics as user<TAB>recall<TAB>ndcg lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={result.k}\n")
        for u in sorted(result.per_user):
            r, n = result.per_user[u]
            fh.write(f"{u}\t{r:.6f}\t{n:.6f}\n")
