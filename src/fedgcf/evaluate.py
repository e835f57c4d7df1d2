"""Exact blocked top-K ranking: Recall@K and NDCG@K over held-out pairs."""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .blocks import select_blocks, unit_rows
from .data import InteractionDataset
from .errors import ConfigError


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


def _metrics(hit_rows: np.ndarray, hit_ranks: np.ndarray, n_relevant: np.ndarray, k: int):
    """Recall and binary-gain NDCG at k of each row, from the (row, rank)
    of its hits in (row, rank) order; ranks count from 0, best first, and
    lie below k.

    DCG adds each row's gains in rank order (``bincount`` adds its weights
    in list order), which has the bits of a scalar loop over the ranked list
    because a miss would add 0.0. IDCG, truncated at min(k, |relevant|),
    comes from a prefix table summed in the same order.
    """
    gains = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = np.bincount(hit_rows, weights=gains[hit_ranks], minlength=n_relevant.size)
    idcg = np.cumsum(gains)[np.minimum(k, n_relevant) - 1]
    return np.bincount(hit_rows, minlength=n_relevant.size) / n_relevant, dcg / idcg


# The split the last ``evaluate`` call ranked but did not return: (weak
# references to its views, dataset and split arrays, (k, sim, split),
# result), or None. The next call takes it (see ``evaluate``).
_MEMO = None


def _read_only(x) -> bool:
    """Whether no write can reach ``x``'s data: ``x`` and every array it is
    a view of are read-only ndarrays, down to one that owns its data."""
    while isinstance(x, np.ndarray):
        if x.flags.writeable:
            return False
        x = x.base
    return x is None


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
    Only train items are masked, so a user's ranking is the same for val
    and test: one pass (``_rank_splits``) ranks the union of the two
    splits' users, and ``split`` picks its result.

    When both views are read-only and view no writable array, as
    ``loop.eval_views`` returns them, no in-place write can change them:
    the pass then scores the other split too and keeps its result for the
    next call alone. That call takes it if it asks for the other split
    with the same ``k`` and ``sim`` and the same objects: both views,
    ``ds`` and its three split arrays, which ``InteractionDataset`` makes
    read-only. Whatever it asks, the kept result is dropped. The memo
    holds only weak references to those objects, so it keeps none alive.

    Ranking the union instead of one split's users changes the row blocks
    (``blocks.row_blocks``) when the two splits' users differ; the blocks keep
    the full product's bits except at the rare shapes ``row_blocks``
    documents.
    """
    global _MEMO
    if split not in ("val", "test"):
        raise ConfigError(f"split must be val|test, got {split!r}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if sim not in ("inner", "cosine"):
        raise ConfigError(f"unknown similarity {sim!r}")
    memo, _MEMO = _MEMO, None
    key = (user_views, item_views, ds, ds.train, ds.val, ds.test)
    if memo is not None:
        refs, args, result = memo
        if args == (k, sim, split) and all(r() is x for r, x in zip(refs, key)):
            return result
    if (ds.val if split == "val" else ds.test).shape[0] == 0:
        return EvalResult(k=k, per_user={}, recall=0.0, ndcg=0.0)
    other = "test" if split == "val" else "val"
    keep = _read_only(user_views) and _read_only(item_views)
    results = _rank_splits(user_views, item_views, ds, k, sim, (split, other) if keep else (split,))
    if keep:
        _MEMO = (tuple(weakref.ref(x) for x in key), (k, sim, other), results[other])
    return results[split]


def _rank_splits(user_views, item_views, ds: InteractionDataset, k: int, sim: str, splits) -> dict[str, EvalResult]:
    """``evaluate``'s one pass: the ``EvalResult`` of each split named in
    ``splits``, from one ranking of the union of the val and test users.
    The union is ranked whichever splits are scored, so a split's result
    does not depend on them.

    Scores are one users x items product, taken in ``row_blocks`` of
    bounded size: for cosine, of the unit user and item rows (``unit_rows``,
    normalised once per call), for inner product of the views themselves.
    The selection is ``predict_links``' rule without a threshold: train
    items score -inf and each row keeps its k best entries above -inf
    (``select_blocks``). Each row's ranking equals a full stable sort of
    that row of the product. A block's kept entries are sorted once and
    each gets its rank; only the (user, rank) of each split's hits outlive
    the block, and each split's per-user metrics come from one array pass
    over its hits.
    """
    held = {s: rel for s, rel in (("val", ds.val), ("test", ds.test)) if rel.shape[0]}
    users = np.unique(np.concatenate([rel[:, 0] for rel in held.values()]))
    scored = {s: held[s] for s in splits if s in held}
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
    # each split's held-out pairs as ascending (row in ``users``) * n_items + item keys
    rel_keys = [row_of[rel[:, 0]] * n_items + rel[:, 1] for rel in scored.values()]

    def rank_hits(a, b, rows, cols, scores):
        # each row's kept entries left-aligned in column order: a stable
        # sort of the negated scores, padded with +inf, ranks them, and its
        # inverse gives each entry its rank
        counts = np.bincount(rows, minlength=b - a)
        pos = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
        padded = np.full((b - a, counts.max(initial=0)), np.inf)
        padded[rows, pos] = -scores
        rank_of = np.empty(padded.shape, dtype=np.intp)
        np.put_along_axis(rank_of, np.argsort(padded, axis=1, kind="stable"), np.arange(padded.shape[1]), axis=1)
        keys = (rows + a) * n_items + cols
        hits = []
        for split_keys in rel_keys:
            lo, hi = np.searchsorted(split_keys, [a * n_items, b * n_items])
            hit = np.flatnonzero(np.isin(keys, split_keys[lo:hi], assume_unique=True))
            r = rows[hit]
            rank = rank_of[r, pos[hit]]
            in_order = np.lexsort((rank, r))  # (row, rank) order, as _metrics sums
            hits.append((r[in_order] + a, rank[in_order]))
        return hits

    blocks = select_blocks(rows_v, cols_v, *known, -np.inf, k, rank_hits)
    results = {s: EvalResult(k=k, per_user={}, recall=0.0, ndcg=0.0) for s in splits}
    for j, (s, rel) in enumerate(scored.items()):
        split_users, n_relevant = np.unique(rel[:, 0], return_counts=True)
        hit_rows = np.concatenate([hits[j][0] for hits in blocks])
        hit_ranks = np.concatenate([hits[j][1] for hits in blocks])
        # a hit's row in ``split_users``: the map keeps (row, rank) order
        split_rows = np.searchsorted(split_users, users[hit_rows])
        recall, ndcg = _metrics(split_rows, hit_ranks, n_relevant, k)
        per_user = dict(zip(split_users.tolist(), zip(recall.tolist(), ndcg.tolist())))
        results[s] = EvalResult(k=k, per_user=per_user, recall=float(np.mean(recall)), ndcg=float(np.mean(ndcg)))
    return results


def write_per_user_tsv(result: EvalResult, path: str) -> None:
    """Dump per-user metrics as user<TAB>recall<TAB>ndcg lines."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# k={result.k}\n")
        for u in sorted(result.per_user):
            r, n = result.per_user[u]
            fh.write(f"{u}\t{r:.6f}\t{n:.6f}\n")
