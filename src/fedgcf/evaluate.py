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


def top_per_row(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, cap: int) -> np.ndarray:
    """Positions of the ``cap`` best entries of each row.

    Entries are ranked inside each row by score descending, ties broken by
    ascending column; the positions come back in (row, rank) order.
    """
    order = np.lexsort((cols, -scores, rows))
    run_rows = rows[order]
    rank = np.arange(order.size) - np.searchsorted(run_rows, run_rows)
    return order[rank < cap]


def _metrics(hit: np.ndarray, n_relevant: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Recall and binary-gain NDCG at k of each row of a ``(rows, width)``
    hit matrix whose columns are ranks, best first.

    DCG adds the gain columns one rank at a time and a miss adds 0.0, so a
    row has the bits of a scalar loop over its ranked list. IDCG, truncated
    at min(k, |relevant|), comes from a prefix table summed in the same
    order.
    """
    gains = 1.0 / np.log2(np.arange(2, max(k, hit.shape[1]) + 2))
    dcg = np.zeros(hit.shape[0])
    for rank in range(hit.shape[1]):
        dcg += np.where(hit[:, rank], gains[rank], 0.0)
    idcg = np.cumsum(gains)[np.minimum(k, n_relevant) - 1]
    return np.count_nonzero(hit, axis=1) / n_relevant, dcg / idcg


def _one_row_metrics(ranked: np.ndarray, relevant: set, k: int) -> tuple[float, float]:
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hit = np.isin(np.asarray(ranked, dtype=np.int64), np.fromiter(relevant, np.int64, len(relevant)))
    recall, ndcg = _metrics(hit[None], np.array([len(relevant)]), k)
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
    Each row's ranking equals a full stable sort of that row of the
    product; the per-user metrics come from one array pass over all ranked
    lists.
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
    users, starts = np.unique(relevant[:, 0], return_index=True)
    n_relevant = np.diff(np.append(starts, relevant.shape[0]))
    # the train pairs of ranked users, as (row in ``users``, item)
    train = ds.train[np.isin(ds.train[:, 0], users)]
    train_rows = np.searchsorted(users, train[:, 0])
    rows_v, cols_v = user_views[users], item_views
    if sim == "cosine":
        rows_v, cols_v = unit_rows(rows_v), unit_rows(cols_v)
    n_items = item_views.shape[0]
    width = min(k, n_items)
    kth = n_items - width  # the k-th best score's ascending position

    ranked_rows, ranked = [], []
    for a, b in row_blocks(users.size, n_items):
        scores = rows_v[a:b] @ cols_v.T
        lo, hi = np.searchsorted(train_rows, [a, b])
        scores[train_rows[lo:hi] - a, train[lo:hi, 1]] = -np.inf
        # every entry at or above the row's k-th score: ties at the cut stay
        cut = np.partition(scores, kth, axis=1)[:, kth, None]
        rows, cols = np.nonzero((scores >= cut) & (scores > -np.inf))
        top = top_per_row(rows, cols, scores[rows, cols], k)
        ranked_rows.append(rows[top] + a)
        ranked.append(cols[top])
    ranked_rows = np.concatenate(ranked_rows)
    ranked = np.concatenate(ranked)
    rank = np.arange(ranked.size) - np.searchsorted(ranked_rows, ranked_rows)
    rel_rows = np.repeat(np.arange(users.size), n_relevant)
    hit = np.zeros((users.size, width), dtype=bool)
    hit[ranked_rows, rank] = np.isin(ranked_rows * n_items + ranked, rel_rows * n_items + relevant[:, 1])
    recall, ndcg = _metrics(hit, n_relevant, k)
    per_user = dict(zip(users.tolist(), zip(recall.tolist(), ndcg.tolist())))
    return EvalResult(k=k, per_user=per_user, recall=float(np.mean(recall)), ndcg=float(np.mean(ndcg)))


def write_per_user_tsv(result: EvalResult, path: str) -> None:
    """Dump per-user metrics as user<TAB>recall<TAB>ndcg lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={result.k}\n")
        for u in sorted(result.per_user):
            r, n = result.per_user[u]
            fh.write(f"{u}\t{r:.6f}\t{n:.6f}\n")
