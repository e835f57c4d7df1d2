"""Bipartite interaction graph, the device's ego graph, and light graph
convolution.

The graph is stored as two CSR-style adjacency lists (user side and item
side) with sorted neighbor arrays. Each side's nodes are also grouped into
degree buckets: the nodes of degree k and a (k, n_k) matrix of their
neighbor ids. Propagation gathers a bucket's neighbor rows once and adds
them one at a time in stored neighbor order, so a node's sum does not
depend on its bucket-mates and repeated runs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows one EgoGraph forest holds at once (see ``forest_chunks``): with
# d = 64, 2**12 rows are 2 MB per table.
_ROW_BUDGET = 2**12


@dataclass
class EmbeddingState:
    """Layer-0 user and item embedding tables (float64, row per node)."""

    user: np.ndarray
    item: np.ndarray

    def __post_init__(self):
        if self.user.ndim != 2 or self.item.ndim != 2 or self.user.shape[1] != self.item.shape[1]:
            raise ValueError(
                f"embedding tables must be 2-d with equal width, got {self.user.shape} / {self.item.shape}"
            )

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(self.user.copy(), self.item.copy())


class BipartiteGraph:
    """Undirected user-item graph in compressed adjacency form."""

    __slots__ = (
        "n_users",
        "n_items",
        "user_ptr",
        "user_adj",
        "user_deg",
        "item_deg",
        "user_inv_sqrt",
        "item_inv_sqrt",
        "user_buckets",
        "item_buckets",
    )

    def __init__(self, n_users: int, n_items: int, pairs) -> None:
        self.n_users = int(n_users)
        self.n_items = int(n_items)
        arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        # range checks first, so no bad id aliases a valid (user, item) key
        if arr.size:
            if arr[:, 0].min() < 0 or arr[:, 0].max() >= n_users:
                raise IndexError("user id out of range in edge list")
            if arr[:, 1].min() < 0 or arr[:, 1].max() >= n_items:
                raise IndexError("item id out of range in edge list")
        keys = arr[:, 0] * self.n_items + arr[:, 1]
        if not np.all(keys[1:] > keys[:-1]):  # sorted unique edges are taken as they are
            arr = np.stack(np.divmod(np.unique(keys), self.n_items), axis=1)
        self.user_deg = np.bincount(arr[:, 0], minlength=n_users).astype(np.int64)
        self.item_deg = np.bincount(arr[:, 1], minlength=n_items).astype(np.int64)
        self.user_ptr = np.concatenate(([0], np.cumsum(self.user_deg)))
        # arr is sorted by (user, item) so this is the user-side CSR directly
        self.user_adj = arr[:, 1].copy()
        with np.errstate(divide="ignore"):
            self.user_inv_sqrt = np.where(self.user_deg > 0, 1.0 / np.sqrt(self.user_deg), 0.0)
            self.item_inv_sqrt = np.where(self.item_deg > 0, 1.0 / np.sqrt(self.item_deg), 0.0)
        self.user_buckets = _degree_buckets(self.user_deg, self.user_ptr, self.user_adj)
        # the item side needs no CSR of its own: its buckets read the users
        # of each item straight from the (item, user) order
        by_item = arr[np.lexsort((arr[:, 0], arr[:, 1])), 0]
        self.item_buckets = _degree_buckets(self.item_deg, np.cumsum(self.item_deg) - self.item_deg, by_item)

    @property
    def edge_count(self) -> int:
        return int(self.user_adj.shape[0])

    def edge_array(self) -> np.ndarray:
        """Edges as an (E,2) array sorted by (user, item)."""
        users = np.repeat(np.arange(self.n_users), self.user_deg)
        return np.stack([users, self.user_adj], axis=1)

    def combine(self, user0: np.ndarray, item0: np.ndarray, alpha: np.ndarray):
        """``propagate_combine`` on this graph."""
        return propagate_combine(self, user0, item0, alpha)


def _degree_buckets(deg: np.ndarray, starts: np.ndarray, adj: np.ndarray):
    """One (nodes, nbr) pair per distinct nonzero degree k: the ascending
    ids of the nodes of degree k and the (k, n_k) matrix whose column j
    holds node j's neighbors, ``adj[starts[j]:starts[j] + k]`` in stored
    order."""
    nodes = np.argsort(deg, kind="stable")
    nodes = nodes[deg[nodes] > 0]
    ks, first = np.unique(deg[nodes], return_index=True)
    return tuple(
        (group, adj[starts[group] + np.arange(k)[:, None]])
        for k, group in zip(ks.tolist(), np.split(nodes, first[1:]))
    )


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=0)`` with the rows added one at a time in order.

    numpy adds along a strided axis 0 row by row, but sums a contiguous
    one pairwise. In C order (a gather through a column subset of a
    bucket is not) axis 0 is contiguous only when each row is one number,
    and there ``np.add.accumulate`` keeps the sequential order.
    """
    rows = np.ascontiguousarray(rows)
    if rows[0].size == 1:
        return np.add.accumulate(rows, axis=0)[-1]
    return rows.sum(axis=0)


def _gather_sum(src: np.ndarray, buckets, n_out: int) -> np.ndarray:
    out = np.zeros((n_out, src.shape[1]), dtype=np.float64)
    for nodes, nbr in buckets:
        out[nodes] = _ordered_sum(src[nbr])
    return out


def propagate_once(g: BipartiteGraph, user_emb: np.ndarray, item_emb: np.ndarray):
    """One symmetric-normalized propagation step.

    new_user[u] = sum over i in N(u) of item_emb[i] / sqrt(|N(i)|), added
    in stored neighbor order, times 1 / sqrt(|N(u)|); symmetrically for
    items; isolated nodes map to zero. Both outputs read the pre-step
    inputs.
    """
    new_user = _gather_sum(item_emb * g.item_inv_sqrt[:, None], g.user_buckets, g.n_users)
    new_user *= g.user_inv_sqrt[:, None]
    new_item = _gather_sum(user_emb * g.user_inv_sqrt[:, None], g.item_buckets, g.n_items)
    new_item *= g.item_inv_sqrt[:, None]
    return new_user, new_item


def propagate_items(g: BipartiteGraph, user_emb: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The item side of ``propagate_once`` for the ascending ids ``items``
    only, bitwise: each degree bucket is cut to its nodes among ``items``,
    and a node's sum does not depend on its bucket-mates."""
    out = np.zeros((items.size, user_emb.shape[1]), dtype=np.float64)
    wanted = np.zeros(g.n_items, dtype=bool)
    wanted[items] = True
    for nodes, nbr in g.item_buckets:
        keep = wanted[nodes]
        if keep.any():
            nbr = nbr[:, keep]
            out[np.searchsorted(items, nodes[keep])] = _ordered_sum(user_emb[nbr] * g.user_inv_sqrt[nbr, None])
    out *= g.item_inv_sqrt[items, None]
    return out


def default_alpha(layers: int) -> np.ndarray:
    """Uniform layer-combination weights 1/(layers+1).

    Every propagation in the package takes its weights from here: the
    device's one-layer ego graph, server training and inference, and
    mending.
    """
    if layers < 0:
        raise ValueError(f"layers must be >= 0, got {layers}")
    return np.full(layers + 1, 1.0 / (layers + 1))


def propagate_combine(g: BipartiteGraph, user0: np.ndarray, item0: np.ndarray, alpha: np.ndarray):
    """Fused propagate + combine on raw tables; returns final (U, I) views.

    Because the symmetric-normalized operator is self-adjoint, this same
    function also maps final-view gradients back to layer-0 gradients.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    acc_u = alpha[0] * user0
    acc_i = alpha[0] * item0
    cur_u, cur_i = user0, item0
    for a in alpha[1:]:
        cur_u, cur_i = propagate_once(g, cur_u, cur_i)
        acc_u += a * cur_u
        acc_i += a * cur_i
    return acc_u, acc_i


class EgoGraph:
    """A forest of one-user stars, one per device: user row j linked to the
    item rows ``pos`` that lie in its own block of rows,
    ``item_ptr[j]:item_ptr[j + 1]``; every other row of the block is
    isolated. ``pos`` defaults to every row.

    One normalized step maps user j to the sum of its k_j linked items over
    sqrt(k_j) and each linked item to p_j / sqrt(k_j). ``combine`` groups
    the stars by k and sums each group's items with one gather and
    ``_ordered_sum``, in ascending row order, as ``propagate_once`` sums a
    degree bucket. A star's rows therefore do not depend on the other
    stars, and each is bitwise ``propagate_combine`` on that star alone as
    a ``BipartiteGraph``.
    """

    __slots__ = ("n_users", "n_items", "item_owner", "pos", "buckets", "scale")

    def __init__(self, item_ptr, pos=None) -> None:
        item_ptr = np.asarray(item_ptr, dtype=np.int64)
        self.n_users = item_ptr.size - 1
        self.n_items = int(item_ptr[-1])
        self.item_owner = np.repeat(np.arange(self.n_users), np.diff(item_ptr))
        self.pos = np.arange(self.n_items) if pos is None else np.unique(np.asarray(pos, dtype=np.int64))
        deg = np.bincount(self.item_owner[self.pos], minlength=self.n_users)
        self.buckets = _degree_buckets(deg, np.cumsum(deg) - deg, self.pos)
        with np.errstate(divide="ignore"):
            self.scale = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)

    def combine(self, user0: np.ndarray, item0: np.ndarray, alpha: np.ndarray):
        """One propagation step plus the layer combine on (n_users, d) user
        and (n_items, d) item tables; self-adjoint like ``propagate_combine``."""
        if len(alpha) != 2:
            raise ValueError("the ego graph is single-layer; alpha must have 2 entries")
        hop_u = _gather_sum(item0, self.buckets, self.n_users)
        hop_u *= self.scale[:, None]
        owner = self.item_owner[self.pos]
        hop_i = np.zeros_like(item0)
        hop_i[self.pos] = user0[owner] * self.scale[owner, None]
        return alpha[0] * user0 + alpha[1] * hop_u, alpha[0] * item0 + alpha[1] * hop_i


def forest_chunks(rows: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive runs of stars holding about ``_ROW_BUDGET`` rows each.

    ``rows[j]`` is what star j holds; a run ends once its rows reach the
    budget, so a run exceeds it by less than its last star.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        return []
    starts = np.cumsum(rows) - rows
    cuts = (np.flatnonzero(np.diff(starts // _ROW_BUDGET)) + 1).tolist()
    bounds = [0, *cuts, rows.size]
    return list(zip(bounds[:-1], bounds[1:]))


def xavier_init(n_users: int, n_items: int, dim: int, rng: np.random.Generator) -> EmbeddingState:
    """Xavier-uniform tables: limit sqrt(6/(rows+dim)) per table."""
    lim_u = np.sqrt(6.0 / (n_users + dim))
    lim_i = np.sqrt(6.0 / (n_items + dim))
    return EmbeddingState(
        rng.uniform(-lim_u, lim_u, size=(n_users, dim)),
        rng.uniform(-lim_i, lim_i, size=(n_items, dim)),
    )
