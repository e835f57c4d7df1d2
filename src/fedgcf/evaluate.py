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
    full product. Its gemm works through rows in groups of the kernel's
    row unroll (24 rows for the OpenBLAS 0.3.31 kernel this was measured
    with; 48 is a multiple of the common 4, 8, 16 and 24) and rounds the
    group that ends a product differently at the column tail; a one-row
    block goes to gemv. With more BLAS threads the full product's own bits
    depend on the thread count at some shapes.
    """
    size = max(_ROW_ALIGN, _SCORE_BUDGET // max(n_cols, 1) // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, n_rows, size))[: max(1, n_rows // size)]  # the last takes the rest
    return list(zip(starts, starts[1:] + [n_rows]))


def top_per_row(rows: np.ndarray, cols: np.ndarray, scores: np.ndarray, cap: int) -> np.ndarray:
    """Positions of the ``cap`` best entries of each row.

    Entries are ranked inside each row by score descending, ties broken by
    ascending column; the positions come back in (row, rank) order.
    """
    order = np.lexsort((cols, -scores, rows))
    run_rows = rows[order]
    rank = np.arange(order.size) - np.searchsorted(run_rows, run_rows)
    return order[rank < cap]


def recall_at_k(ranked: np.ndarray, relevant: set) -> float:
    """|ranked intersect relevant| / |relevant| (relevant must be nonempty)."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    hits = sum(1 for i in np.asarray(ranked).tolist() if i in relevant)
    return hits / len(relevant)


def ndcg_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    """Binary-gain NDCG with IDCG truncated at min(k, |relevant|)."""
    if not relevant:
        raise ValueError("relevant set must be nonempty")
    dcg = 0.0
    for pos, item in enumerate(np.asarray(ranked).tolist(), start=1):
        if item in relevant:
            dcg += 1.0 / np.log2(pos + 1)
    ideal = min(k, len(relevant))
    idcg = sum(1.0 / np.log2(p + 1) for p in range(1, ideal + 1))
    return dcg / idcg


def _score_block(
    user_views: np.ndarray, users: np.ndarray, item_views: np.ndarray, item_norms: np.ndarray | None
) -> np.ndarray:
    """Float64 scores of ``users`` against every item, one row per user.

    Each row is that user's own gemv, so its bits do not depend on the
    block. Given ``item_norms`` the scores are cosines: divided by the item
    norms times the user's ``sqrt(vecdot)`` norm, zero where either norm is
    below 1e-12.
    """
    scores = np.empty((users.size, item_views.shape[0]))
    for row, u in enumerate(users.tolist()):
        np.matmul(item_views, user_views[u], out=scores[row])
    if item_norms is None:
        return scores
    block = user_views[users]
    user_norms = np.sqrt(np.vecdot(block, block))[:, None]
    ok = (item_norms > 1e-12) & (user_norms > 1e-12)
    denom = np.where(ok, item_norms * np.maximum(user_norms, 1e-300), 1.0)
    return np.where(ok, scores / denom, 0.0)


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
    Users are scored in row blocks of bounded size, and each row is exact:
    the ranking equals a full stable sort of that user's scores.
    """
    if split not in ("val", "test"):
        raise ConfigError(f"split must be val|test, got {split!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if sim not in ("inner", "cosine"):
        raise ConfigError(f"unknown similarity {sim!r}")
    relevant = ds.val if split == "val" else ds.test
    users, starts = np.unique(relevant[:, 0], return_index=True)
    rel_ptr = np.append(starts, relevant.shape[0])
    # the train pairs of ranked users, as (row in ``users``, item)
    train = ds.train[np.isin(ds.train[:, 0], users)]
    train_rows = np.searchsorted(users, train[:, 0])
    item_norms = np.linalg.norm(item_views, axis=1) if sim == "cosine" else None
    n_items = item_views.shape[0]
    kth = n_items - min(k, n_items)  # the k-th best score's ascending position

    per_user: dict[int, tuple[float, float]] = {}
    for a, b in row_blocks(users.size, n_items):
        scores = _score_block(user_views, users[a:b], item_views, item_norms)
        lo, hi = np.searchsorted(train_rows, [a, b])
        scores[train_rows[lo:hi] - a, train[lo:hi, 1]] = -np.inf
        # every entry at or above the row's k-th score: ties at the cut stay
        cut = np.partition(scores, kth, axis=1)[:, kth, None]
        rows, cols = np.nonzero((scores >= cut) & (scores > -np.inf))
        top = top_per_row(rows, cols, scores[rows, cols], k)
        ranked_rows, ranked = rows[top], cols[top]
        ptr = np.searchsorted(ranked_rows, np.arange(b - a + 1))
        for row, u in enumerate(users[a:b].tolist()):
            items = set(relevant[rel_ptr[a + row] : rel_ptr[a + row + 1], 1].tolist())
            ranked_u = ranked[ptr[row] : ptr[row + 1]]
            per_user[u] = (recall_at_k(ranked_u, items), ndcg_at_k(ranked_u, items, k))
    if per_user:
        recall = float(np.mean([m[0] for m in per_user.values()]))
        ndcg = float(np.mean([m[1] for m in per_user.values()]))
    else:
        recall = ndcg = 0.0
    return EvalResult(k=k, per_user=per_user, recall=recall, ndcg=ndcg)


def write_per_user_tsv(result: EvalResult, path: str) -> None:
    """Dump per-user metrics as user<TAB>recall<TAB>ndcg lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={result.k}\n")
        for u in sorted(result.per_user):
            r, n = result.per_user[u]
            fh.write(f"{u}\t{r:.6f}\t{n:.6f}\n")
