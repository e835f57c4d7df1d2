"""Exact blocked top-K ranking: Recall@K and NDCG@K over held-out pairs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import InteractionDataset
from .errors import ConfigError

# Scores held at once while ranking: about 2**21 floats (16 MB) per row block.
_SCORE_BUDGET = 2**21
# Row blocks start at multiples of this many rows (see ``row_blocks``).
_ROW_ALIGN = 48
# The least finite float: the lowest cut a selection makes.
_LOWEST = -np.finfo(np.float64).max


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
    ``_SCORE_BUDGET / n_cols`` rows.

    ``evaluate`` and ``predict_links`` score and select one block at a time
    under one rule (``_select_blocks``): known pairs score -inf, and each
    row keeps its entries at or above a threshold (-inf for ``evaluate``),
    at most k of them, best first with ties toward the smaller column. No
    array either builds grows past a block.

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
    default budget so few columns take more than one block only above about
    80k rows. With more BLAS threads the full product's own bits depend on
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


def _select_blocks(rows_v, cols_v, known_rows, known_cols, threshold: float, k: int | None):
    """The one selection rule of ``evaluate`` and ``predict_links``, per
    ``row_blocks`` block of ``rows_v @ cols_v.T``: yields ``(a, b), rows,
    cols, scores`` of the kept entries, global row ids, in (row, col) order.

    The known (row, col) pairs (sorted by row) score -inf and are never
    kept. Each row keeps its entries at or above its cut: ``threshold``,
    raised to the row's k-th best score where more than k entries reach the
    threshold (``k`` None: no cap). Ties at the cut go to the smaller
    columns, so a row keeps at most k entries.
    """
    n_cols = cols_v.shape[0]
    for a, b in row_blocks(rows_v.shape[0], n_cols):
        scores = rows_v[a:b] @ cols_v.T
        lo, hi = np.searchsorted(known_rows, [a, b])
        scores[known_rows[lo:hi] - a, known_cols[lo:hi]] = -np.inf
        # no cut is below the least finite float, so -inf entries never pass
        cut = np.full((b - a, 1), max(threshold, _LOWEST))
        keep = None if threshold == -np.inf else scores >= cut
        over = np.zeros(b - a, dtype=bool)
        if k is not None and k < n_cols:
            over = np.count_nonzero(keep, axis=1) > k if keep is not None else np.ones(b - a, dtype=bool)
            if over.any():
                kth = np.partition(scores if over.all() else scores[over], -k, axis=1)[:, -k]
                cut[over, 0] = np.maximum(kth, _LOWEST)
                keep = np.greater_equal(scores, cut, out=keep)
        flat = np.flatnonzero(scores >= cut if keep is None else keep)
        rows, cols = np.divmod(flat, n_cols)
        s = scores.ravel()[flat]
        if over.any():
            # a row passes k entries only by ties at its cut: a running count
            # keeps the first of them by column
            tie = s == cut[rows, 0]
            seen = np.cumsum(tie) - tie
            room = k - np.bincount(rows[~tie], minlength=b - a)
            keep = ~tie | (seen - seen[np.searchsorted(rows, rows)] < room[rows])
            rows, cols, s = rows[keep], cols[keep], s[keep]
        yield (a, b), rows + a, cols, s


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
    train = ds.train[np.isin(ds.train[:, 0], users)]  # the train pairs of ranked users
    rows_v, cols_v = user_views[users], item_views
    if sim == "cosine":
        rows_v, cols_v = unit_rows(rows_v), unit_rows(cols_v)
    n_items = item_views.shape[0]
    # held-out pairs as (row in ``users``) * n_items + item keys
    rel_keys = np.searchsorted(users, relevant[:, 0]) * n_items + relevant[:, 1]

    hit_rows, hit_ranks = [], []
    blocks = _select_blocks(rows_v, cols_v, np.searchsorted(users, train[:, 0]), train[:, 1], -np.inf, k)
    for (a, b), rows, cols, scores in blocks:
        # each row's kept entries left-aligned in column order: a stable
        # sort of the negated scores, padded with +inf, ranks them
        pos = np.arange(rows.size) - np.searchsorted(rows, rows)
        padded = np.full((b - a, pos.max(initial=-1) + 1), np.inf)
        padded[rows - a, pos] = -scores
        hit = np.zeros(padded.shape, dtype=bool)
        hit[rows - a, pos] = np.isin(rows * n_items + cols, rel_keys, assume_unique=True)
        r, rank = np.nonzero(np.take_along_axis(hit, np.argsort(padded, axis=1, kind="stable"), axis=1))
        hit_rows.append(r + a)
        hit_ranks.append(rank)
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
