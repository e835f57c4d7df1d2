"""Bipartite interaction graph, the device's ego graph, and light graph
convolution.

The graph stores the user side's sorted neighbor ids as a CSR list, and
each side's neighbor ids once more as a gather plan (``_GatherPlan``),
built with the graph. The plan groups a side's nodes into degree buckets,
each a (k, n_k) matrix of neighbor ids, cuts the buckets into column
slices and packs the slices into units of at most ``_UNIT_ROWS`` ids.
Propagation gathers one unit's rows at a time into a buffer that stays in
cache and sums each slice over its k rows in place, so each node's
neighbors are added one at a time in stored order. A node's sum therefore
does not depend on its bucket-mates or on the units, and repeated runs are
bitwise identical. ``propagate_once``, ``propagate_items`` and
``EgoGraph.combine`` all run this one kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Rows one EgoGraph forest holds at once (see ``forest_chunks``): with
# d = 64, 2**12 rows are 2 MB per table.
_ROW_BUDGET = 2**12
# Most rows one propagation gather holds (see ``_GatherPlan``): with d = 64,
# 2**10 rows are 512 KB, which stay in L2 while they are summed.
_UNIT_ROWS = 2**10


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
        self.user_buckets = _gather_plan(self.user_deg, self.user_ptr, self.user_adj, self.user_inv_sqrt)
        # the item side needs no CSR of its own: its plan reads the users of
        # each item straight from the (item, user) order
        by_item = arr[np.lexsort((arr[:, 0], arr[:, 1])), 0]
        self.item_buckets = _gather_plan(
            self.item_deg, np.cumsum(self.item_deg) - self.item_deg, by_item, self.item_inv_sqrt
        )

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


def _gather_plan(deg: np.ndarray, starts: np.ndarray, adj: np.ndarray, inv_sqrt: np.ndarray) -> _GatherPlan:
    """The plan of the nodes of nonzero degree: one degree bucket per k, in
    ascending k, whose column j holds node j's neighbours
    ``adj[starts[j]:starts[j] + k]`` in stored order, cut into slices of
    ``_UNIT_ROWS // k`` columns (at least one)."""
    nodes = np.argsort(deg, kind="stable")
    nodes = nodes[deg[nodes] > 0]
    ks, first = np.unique(deg[nodes], return_index=True)
    bounds = [*first.tolist(), nodes.size]
    slices = []
    for k, begin, end in zip(ks.tolist(), bounds[:-1], bounds[1:]):
        width = max(1, _UNIT_ROWS // k)
        for lo in range(begin, end, width):
            part = nodes[lo : min(lo + width, end)]
            slices.append((part, adj[starts[part] + np.arange(k)[:, None]]))
    return _GatherPlan(slices, inv_sqrt)


class _GatherPlan:
    """One side's neighbour ids, laid out for ``sums``.

    Built from (nodes, nbr) slices of degree buckets: ``nbr`` is a (k, n)
    matrix whose column j holds the k neighbours of ``nodes[j]`` in stored
    order, with k * n <= ``_UNIT_ROWS`` unless n == 1. The ids are copied
    in C order into one flat array, and runs of consecutive slices are
    packed into units of at most ``_UNIT_ROWS`` ids; a larger slice is a
    unit of its own. Iterating gives the slices as views of that array.
    ``scale`` is ``inv_sqrt`` of each node in slice order, and
    ``buffer_rows`` the most ids in one unit.
    """

    __slots__ = ("order", "scale", "units", "buffer_rows")

    def __init__(self, slices, inv_sqrt: np.ndarray) -> None:
        ids = np.concatenate([np.zeros(0, dtype=np.int64), *(nbr.ravel() for _, nbr in slices)])
        self.order = np.concatenate([np.zeros(0, dtype=np.int64), *(nodes for nodes, _ in slices)])
        self.scale = inv_sqrt[self.order]
        self.units = []
        start = at = lo = 0  # the open unit's first id; the next slice's first id and node
        parts = []
        for _, nbr in slices:
            k, n = nbr.shape
            if parts and at + k * n - start > _UNIT_ROWS:
                self.units.append((ids[start:at], tuple(parts)))
                start, parts = at, []
            parts.append((k, lo, lo + n))
            at, lo = at + k * n, lo + n
        if parts:
            self.units.append((ids[start:at], tuple(parts)))
        self.buffer_rows = max((unit.size for unit, _ in self.units), default=0)

    def __iter__(self):
        for ids, parts in self.units:
            at = 0
            for k, lo, hi in parts:
                yield self.order[lo:hi], ids[at : at + k * (hi - lo)].reshape(k, hi - lo)
                at += k * (hi - lo)

    def sums(self, src: np.ndarray, n_out: int) -> np.ndarray:
        """(n_out, d) rows: node v's row is the sum of its neighbours' rows
        of ``src``, added one at a time in stored order, times v's scale;
        a node outside the plan gets zeros."""
        # the gather buffer is freed with ``_table``'s frame, before ``out``
        # is made, so ``out`` can take its place: made above it, glibc may
        # trim the heap top after every call and fault the pages back in on
        # the next (300 faults a call at 2.6k edges, d = 64, in a fresh
        # process)
        table = self._table(src)
        out = np.zeros((n_out, src.shape[1]))
        out[self.order] = table
        return out

    def _table(self, src: np.ndarray) -> np.ndarray:
        """The scaled sums of ``sums`` in slice order. Each unit is gathered
        into one buffer that stays in cache, and each of its slices is
        summed over axis 0 of its (k, n, d) view straight into the table."""
        src = np.asarray(src, dtype=np.float64)  # ``take`` writes only its own dtype
        d = src.shape[1]
        table = np.empty((self.order.size, d))
        buf = np.empty((self.buffer_rows, d))
        for ids, parts in self.units:
            # "clip" writes into out directly, where "raise" buffers; the
            # ids come from the graph, so none is clipped
            rows = np.take(src, ids, axis=0, out=buf[: ids.size], mode="clip")
            at = 0
            for k, lo, hi in parts:
                block = rows[at : at + k * (hi - lo)]
                at += k * (hi - lo)
                if (hi - lo) * d == 1:
                    # one number per row: axis 0 is contiguous, and numpy
                    # would sum it pairwise
                    table[lo] = np.add.accumulate(block)[-1]
                else:
                    np.add.reduce(block.reshape(k, hi - lo, d), axis=0, out=table[lo:hi])
        table *= self.scale[:, None]
        return table


def propagate_once(g: BipartiteGraph, user_emb: np.ndarray, item_emb: np.ndarray):
    """One symmetric-normalized propagation step.

    new_user[u] = sum over i in N(u) of item_emb[i] / sqrt(|N(i)|), added
    in stored neighbor order, times 1 / sqrt(|N(u)|); symmetrically for
    items; isolated nodes map to zero. Both outputs read the pre-step
    inputs.
    """
    new_user = g.user_buckets.sums(item_emb * g.item_inv_sqrt[:, None], g.n_users)
    new_item = g.item_buckets.sums(user_emb * g.user_inv_sqrt[:, None], g.n_items)
    return new_user, new_item


def propagate_items(g: BipartiteGraph, user_emb: np.ndarray, items: np.ndarray) -> np.ndarray:
    """The item side of ``propagate_once`` for the ascending ids ``items``
    only, bitwise: each slice of a degree bucket is cut to its nodes among
    ``items``, and a node's sum does not depend on its bucket-mates."""
    wanted = np.zeros(g.n_items, dtype=bool)
    wanted[items] = True
    cut = []
    for nodes, nbr in g.item_buckets:
        keep = wanted[nodes]
        if keep.any():
            cut.append((np.searchsorted(items, nodes[keep]), nbr[:, keep]))
    plan = _GatherPlan(cut, g.item_inv_sqrt[items])
    return plan.sums(user_emb * g.user_inv_sqrt[:, None], items.size)


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
    sqrt(k_j) and each linked item to p_j / sqrt(k_j). ``combine`` sums
    each star's items in ascending row order through a gather plan of the
    stars grouped by k, the kernel ``propagate_once`` runs. A star's rows
    therefore do not depend on the other stars, and each is bitwise
    ``propagate_combine`` on that star alone as a ``BipartiteGraph``.
    """

    __slots__ = ("n_users", "n_items", "item_owner", "pos", "buckets", "scale")

    def __init__(self, item_ptr, pos=None) -> None:
        item_ptr = np.asarray(item_ptr, dtype=np.int64)
        self.n_users = item_ptr.size - 1
        self.n_items = int(item_ptr[-1])
        self.item_owner = np.repeat(np.arange(self.n_users), np.diff(item_ptr))
        self.pos = np.arange(self.n_items) if pos is None else np.unique(np.asarray(pos, dtype=np.int64))
        deg = np.bincount(self.item_owner[self.pos], minlength=self.n_users)
        with np.errstate(divide="ignore"):
            self.scale = np.where(deg > 0, 1.0 / np.sqrt(deg), 0.0)
        self.buckets = _gather_plan(deg, np.cumsum(deg) - deg, self.pos, self.scale)

    def combine(self, user0: np.ndarray, item0: np.ndarray, alpha: np.ndarray):
        """One propagation step plus the layer combine on (n_users, d) user
        and (n_items, d) item tables; self-adjoint like ``propagate_combine``."""
        if len(alpha) != 2:
            raise ValueError("the ego graph is single-layer; alpha must have 2 entries")
        hop_u = self.buckets.sums(item0, self.n_users)
        owner = self.item_owner[self.pos]
        hop_i = np.zeros_like(item0)
        hop_i[self.pos] = user0[owner] * self.scale[owner, None]
        return alpha[0] * user0 + alpha[1] * hop_u, alpha[0] * item0 + alpha[1] * hop_i


def forest_chunks(counts, rows=None) -> list[np.ndarray]:
    """The stars in ascending item count, cut into runs of about
    ``_ROW_BUDGET`` rows each; each run is an array of star indices.

    ``counts[j]`` is star j's item count and ``rows[j]`` the rows it holds
    (``counts`` by default). The order is stable, so stars of one count
    keep their given order. A run ends once its rows reach the budget, so
    a run exceeds it by less than its last star. Taken in count order, a
    forest's per-count work (the degree buckets of its gather plan, the
    stacked contrastive softmaxes, the loss sums per star) runs over a few
    counts rather than over every count of the selection.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        return []
    order = np.argsort(counts, kind="stable")
    rows = (counts if rows is None else np.asarray(rows, dtype=np.int64))[order]
    starts = np.cumsum(rows) - rows
    return np.split(order, np.flatnonzero(np.diff(starts // _ROW_BUDGET)) + 1)


def xavier_init(n_users: int, n_items: int, dim: int, rng: np.random.Generator) -> EmbeddingState:
    """Xavier-uniform tables: limit sqrt(6/(rows+dim)) per table."""
    lim_u = np.sqrt(6.0 / (n_users + dim))
    lim_i = np.sqrt(6.0 / (n_items + dim))
    return EmbeddingState(
        rng.uniform(-lim_u, lim_u, size=(n_users, dim)),
        rng.uniform(-lim_i, lim_i, size=(n_items, dim)),
    )
