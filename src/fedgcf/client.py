"""Device-side state and local training.

A device owns its user embedding row, its private train pairs, and sparse
Adam moments. Each participation round it trains on its ego graph (itself
plus its local items), optionally aligns its views with received global
views through the contrastive term, and uploads parameter deltas plus its
combined local user view. Every device's state lives in one
``DeviceTable`` of arrays indexed by user id.

A round's devices train side by side: each chunk of them is one
``EgoGraph`` forest, and each local epoch is one ``compute_gradients``
call and one Adam step over all their rows. The chunks take the devices in
ascending local-item count (``graph.forest_chunks``), so the per-count work
of a chunk (its contrastive softmaxes stacked by count, its gather plan's
degree buckets, its loss sums per star) runs over a few counts. A device
still draws its own negatives, takes its softmax over its own keys and
steps its own moments, and its results are bitwise those it would get
training alone; they come back in the order the devices were given.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import ShareTier
# BipartiteGraph is unused here; perfbench/spans.py wraps client.BipartiteGraph to count graph builds
from .graph import BipartiteGraph, EgoGraph, EmbeddingState, default_alpha, forest_chunks
from .learn import (
    CLTerm,
    GradientBundle,
    HyperParams,
    LossParts,
    LossSpec,
    RowBlock,
    adam_update_rows,
    compute_gradients,
)
from .seeds import child_rng

# Rows of one page of ``MomentPages``: with d = 64, 2**10 rows of first and
# second moments are 1 MB.
_PAGE_ROWS = 2**10


class MomentPages:
    """Adam moments (n, 2, d) of keyed rows that only ever grow.

    ``keys`` ascend; ``slots[i]`` is where the moments of ``keys[i]`` live:
    row ``slot % _PAGE_ROWS`` of page ``slot // _PAGE_ROWS``. New rows take
    the next free slots, at the end of the last page, so a write copies the
    values of its own rows and never those of the whole store; only the
    key index (16 bytes a row) is rebuilt when keys are added.
    """

    def __init__(self, width: int) -> None:
        self.width = width
        self.keys = np.zeros(0, dtype=np.int64)
        self.slots = np.zeros(0, dtype=np.int64)
        self.pages: list[np.ndarray] = []

    def __len__(self) -> int:
        return int(self.keys.size)

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions in ``self.keys`` of the ``keys`` it holds, and
        which of ``keys`` those are."""
        if not self.keys.size:
            return np.zeros(0, dtype=np.int64), np.zeros(keys.size, dtype=bool)
        at = np.minimum(np.searchsorted(self.keys, keys), self.keys.size - 1)
        hit = self.keys[at] == keys
        return at[hit], hit

    def _by_page(self, slots: np.ndarray):
        """(page, its rows, their positions in ``slots``) for every page
        ``slots`` reach."""
        order = np.argsort(slots)
        bounds = np.searchsorted(slots[order], np.arange(len(self.pages) + 1) * _PAGE_ROWS)
        for p in np.flatnonzero(np.diff(bounds)).tolist():
            at = order[bounds[p] : bounds[p + 1]]
            yield self.pages[p], slots[at] - p * _PAGE_ROWS, at

    def fetch(self, keys: np.ndarray) -> np.ndarray:
        """The moments of rows ``keys``, zero where the store has none."""
        out = np.zeros((keys.size, 2, self.width))
        at, hit = self._find(keys)
        hit_at = np.flatnonzero(hit)
        for page, rows, at_slots in self._by_page(self.slots[at]):
            out[hit_at[at_slots]] = page[rows]
        return out

    def write(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store ``values`` as the moments of the distinct rows ``keys``."""
        at, hit = self._find(keys)
        old = np.flatnonzero(hit)
        for page, rows, at_slots in self._by_page(self.slots[at]):
            page[rows] = values[old[at_slots]]
        new = np.flatnonzero(~hit)
        if new.size:
            new = new[np.argsort(keys[new])]  # new rows take the next slots in key order
            slots = np.arange(len(self), len(self) + new.size)
            while len(self.pages) * _PAGE_ROWS <= slots[-1]:
                self.pages.append(_new_page(self.width))
            for page, rows, at_slots in self._by_page(slots):
                page[rows] = values[new[at_slots]]
            where = np.searchsorted(self.keys, keys[new])
            self.keys = np.insert(self.keys, where, keys[new])
            self.slots = np.insert(self.slots, where, slots)


def _new_page(width: int) -> np.ndarray:
    """One page of ``MomentPages``, in an anonymous memory map of its own:
    outside the heap, a page that lives for the run pins no freed heap
    memory around it, and the kernel zero-fills it as it is first touched.
    (Five ``full_share`` rounds at seed 7 peaked about 0.5 MB above
    per-device moment blocks with heap pages, and about 1 MB below with
    mapped ones.)"""
    buf = mmap.mmap(-1, _PAGE_ROWS * 2 * width * 8)
    return np.frombuffer(buf, dtype=np.float64).reshape(_PAGE_ROWS, 2, width)


class DeviceRow(NamedTuple):
    """One device's id, train items and user row: views into its table."""

    user_id: int
    local_items: np.ndarray
    p_u: np.ndarray


class DeviceTable:
    """Persistent state of every device across rounds, one row per user.

    ``p_u`` (U, d) holds the device user rows. User u's train items, in
    ascending order, are ``items[item_ptr[u]:item_ptr[u + 1]]``, the item
    column of the user-sorted train pairs. ``t_user`` and ``t_item`` count
    each device's Adam steps per table, ``moments_user`` (U, 2, d) holds
    its user row's moments (zero before its first step) and
    ``moments_item`` the moments of every item row a device has stepped,
    keyed ``user * n_items + item`` for the item table's ``n_items``.
    Training writes all of them in place,
    so views of ``p_u`` stay current.

    ``table[u]`` and ``values()`` give read-only ``DeviceRow`` views.
    """

    def __init__(self, p_u: np.ndarray, train: np.ndarray) -> None:
        n_users, d = p_u.shape
        self.p_u = p_u
        self.items = train[:, 1]
        self.item_ptr = np.searchsorted(train[:, 0], np.arange(n_users + 1))
        self.t_user = np.zeros(n_users, dtype=np.int64)
        self.t_item = np.zeros(n_users, dtype=np.int64)
        self.moments_user = np.zeros((n_users, 2, d))
        self.moments_item = MomentPages(d)

    def __len__(self) -> int:
        return self.p_u.shape[0]

    def local_items(self, u: int) -> np.ndarray:
        """User u's train items, ascending: the array
        ``ds.pairs_by_user(ds.train)`` holds for u, empty where it has none."""
        return self.items[self.item_ptr[u] : self.item_ptr[u + 1]]

    def counts(self, users: np.ndarray) -> np.ndarray:
        return self.item_ptr[users + 1] - self.item_ptr[users]

    def __getitem__(self, u: int) -> DeviceRow:
        items, p_u = self.local_items(u), self.p_u[u]
        items.flags.writeable = p_u.flags.writeable = False
        return DeviceRow(u, items, p_u)

    def values(self):
        return (self[u] for u in range(len(self)))


@dataclass
class ReceivedViews:
    """Global views handed to a device for contrastive alignment.

    ``user_views`` is the round's one read-only block of full contributors'
    views, the same object for every recipient; ``own_view`` is the
    device's own server-side view (d,), and ``item_views`` holds
    server-side views of the device's local items.
    """

    user_views: RowBlock
    own_view: np.ndarray
    item_views: RowBlock


@dataclass
class DeviceUpload:
    """What a participant sends back: per-row parameter deltas, the FedAvg
    weight (trained pair count), and the local user view (sharers only)."""

    device_id: int
    weight: float
    delta: GradientBundle
    user_view: np.ndarray | None = None


def nth_outside(members: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The ``q[j]``-th smallest (from 0) non-negative integer that is not in
    the ascending, duplicate-free ``members``.

    ``members[e] - e`` non-members lie below ``members[e]``, and these
    counts ascend, so the q-th non-member skips exactly the members whose
    count is at most q: one ``searchsorted`` maps every position, with no
    mask over the range.
    """
    return q + np.searchsorted(members - np.arange(members.size), q, side="right")


def _private_rows(work: RowBlock, item_table: np.ndarray, keys: np.ndarray, n_items: int) -> np.ndarray:
    """Rows ``keys`` (star * n_items + item) as their devices see them: the
    device's private copy where it has one, the broadcast table otherwise."""
    rows = item_table[keys % n_items]
    if work:
        at = np.minimum(np.searchsorted(work.rows, keys), len(work) - 1)
        hit = work.rows[at] == keys
        rows[hit] = work.values[at[hit]]
    return rows


def _user_terms(users: np.ndarray, views: list[ReceivedViews | None]) -> list[CLTerm]:
    """The devices' user-side contrastive terms: each device's propagated
    user row against the full contributors' block, with its own view as
    the positive. Devices inside the block take its rows as they are; the
    others take the block plus their own row, in id order, as one stacked
    (n, m + 1) term."""
    on = np.array([j for j, v in enumerate(views) if v is not None], dtype=np.int64)
    if not on.size:
        return []
    block = views[on[0]].user_views
    ids = users[on]
    inside = np.isin(ids, block.rows)
    own = np.array([views[j].own_view for j in on[~inside].tolist()]).reshape(-1, block.values.shape[1])
    # key k of a device outside: block row k before its own slot, its own
    # row at the slot, block row k - 1 after it
    m, k = len(block), np.arange(len(block) + 1)
    at = np.searchsorted(block.rows, ids[~inside])[:, None]
    pick = np.where(k == at, m + np.arange(len(own))[:, None], k - (k > at))
    keys = (
        (inside, block.rows, block.values),
        (~inside, np.concatenate([block.rows, ids[~inside]])[pick], np.concatenate([block.values, own])[pick]),
    )
    return [
        CLTerm(
            kind="user",
            trainable="query",
            rows=on[mask, None],
            ids=ids[mask, None],
            fixed_ids=fixed_ids,
            fixed_views=fixed_views,
        )
        for mask, fixed_ids, fixed_views in keys
        if mask.any()
    ]


def _item_groups(views: list[ReceivedViews | None], local_keys: np.ndarray, n_items: int):
    """Each device's received views of its own local items, as (stars, ids,
    views) groups of devices with the same count: (n_g,), (n_g, m) and
    (n_g, m, d)."""
    on = [j for j, v in enumerate(views) if v is not None and v.item_views]
    if not on:
        return []
    star = np.repeat(on, [len(views[j].item_views) for j in on])
    ids = np.concatenate([views[j].item_views.rows for j in on])
    values = np.concatenate([views[j].item_views.values for j in on])
    keep = np.isin(star * n_items + ids, local_keys)
    star, ids, values = star[keep], ids[keep], values[keep]
    counts = np.bincount(star, minlength=len(views))
    starts = np.cumsum(counts) - counts
    groups = []
    for m in np.unique(counts[counts > 0]).tolist():
        stars = np.flatnonzero(counts == m)
        at = starts[stars, None] + np.arange(m)
        groups.append((stars, ids[at], values[at]))
    return groups


class _Chunk:
    """One forest of devices and their running state over the local epochs.

    Device j is star j. Its item rows are keyed j * n_items + item in the
    private copies and the moments, so each device only ever meets its own;
    ``stored`` maps these keys to the table's, user * n_items + item.
    """

    def __init__(
        self,
        table: DeviceTable,
        users: np.ndarray,
        item_table: np.ndarray,
        views: list[ReceivedViews | None],
        hyper: HyperParams,
    ) -> None:
        self.table, self.users, self.item_table, self.hyper = table, users, item_table, hyper
        n_items = item_table.shape[0]
        n = users.size
        self.counts = table.counts(users)
        self.star = np.repeat(np.arange(n), self.counts)
        # device j's train items, one after another
        item_ptr = np.concatenate(([0], np.cumsum(self.counts)))
        at = np.repeat(table.item_ptr[users] - item_ptr[:-1], self.counts) + np.arange(item_ptr[-1])
        self.local_keys = self.star * n_items + table.items[at]
        # per local item of device j, how many keys below j * n_items are
        # not local keys: all of them but the items of devices 0 .. j - 1
        self.outside_before = np.repeat(np.arange(n) * n_items - item_ptr[:-1], self.counts)
        self.key_shift = (users - np.arange(n)) * n_items
        if hyper.cl_weight > 0.0:
            self.user_terms = _user_terms(users, views)
            self.item_groups = _item_groups(views, self.local_keys, n_items)
        else:
            self.user_terms, self.item_groups = [], []
        self.p = table.p_u[users]
        self.p_start = self.p.copy()
        # user row j's moments at j, and the moments of the item rows the
        # chunk has stepped so far, keyed
        self.moments_user = RowBlock(np.arange(n), table.moments_user[users])
        self.moments_item = RowBlock()
        self.t_user = table.t_user[users]
        self.t_item = table.t_item[users]
        self.work = RowBlock(values=np.zeros((0, item_table.shape[1])))  # private item copies, keyed
        self.loss_sums = np.zeros((4, n))  # bpr, cl, reg and total, summed over the epochs

    def stored(self, keys: np.ndarray) -> np.ndarray:
        """The table's keys of the chunk's item rows ``keys``."""
        return keys + self.key_shift[keys // self.item_table.shape[0]]

    def negatives(self, rngs: list[np.random.Generator]) -> np.ndarray:
        """One negative per local item of each device, keyed as its items:
        device j takes ``rngs[j].choice`` of its complement's size (with
        replacement only when it holds more items than it lacks), and one
        ``nth_outside`` over ``local_keys`` maps every device's draws past
        its own items."""
        free = self.item_table.shape[0] - self.counts
        if (free == 0).any():
            raise ValueError(f"user {self.users[np.argmax(free == 0)]} interacted with every item; no negatives exist")
        draws = [rng.choice(f, size=k, replace=k > f) for rng, f, k in zip(rngs, free.tolist(), self.counts.tolist())]
        return nth_outside(self.local_keys, self.outside_before + np.concatenate(draws))

    def epoch(self, neg_keys: np.ndarray) -> None:
        """One local epoch of every device, against the negatives
        ``neg_keys`` (``negatives``), one per local key in its order."""
        n_items = self.item_table.shape[0]
        n, hyper = self.users.size, self.hyper
        keys = np.unique(np.concatenate([self.local_keys, neg_keys]))
        pos = np.searchsorted(keys, self.local_keys)
        rows = _private_rows(self.work, self.item_table, keys, n_items)
        item_terms = [
            CLTerm(
                kind="item",
                trainable="query",
                rows=np.searchsorted(keys, stars[:, None] * n_items + ids),
                ids=ids,
                fixed_ids=ids,
                fixed_views=fixed_views,
            )
            for stars, ids, fixed_views in self.item_groups
        ]
        graph = EgoGraph(np.searchsorted(keys, np.arange(n + 1) * n_items), pos)
        spec = LossSpec(
            graph=graph,
            alpha=default_alpha(1),
            bpr_users=self.star,
            bpr_pos=pos,
            bpr_neg=np.searchsorted(keys, neg_keys),
            cl_terms=self.user_terms + item_terms,
            tau=hyper.temperature,
            cl_weight=hyper.cl_weight,
            reg_lambda=hyper.reg_lambda,
            reg_user_rows=np.arange(n),
            reg_item_rows=np.arange(keys.size),
        )
        parts, bundle = compute_gradients(spec, EmbeddingState(self.p, rows))
        self.loss_sums += (parts.bpr, parts.cl, parts.reg, parts.total)

        if bundle.user:
            r = bundle.user.rows
            self.t_user[r] += 1
            step = adam_update_rows(bundle.user, self.moments_user, self.t_user[r], hyper)
            self.p[r] += step.values
        if bundle.item:
            r = bundle.item.rows
            owner = graph.item_owner[r]
            self.t_item[np.unique(owner)] += 1
            grads = RowBlock(keys[r], bundle.item.values)
            new = np.setdiff1d(grads.rows, self.moments_item.rows, assume_unique=True)
            fetched = RowBlock(new, self.table.moments_item.fetch(self.stored(new)))
            self.moments_item = self.moments_item.merge(fetched)
            step = adam_update_rows(grads, self.moments_item, self.t_item[owner], hyper)
            self.work = self.work.merge(RowBlock(step.rows, rows[r] + step.values))

    def finish(self, tiers: list[ShareTier]) -> tuple[list[DeviceUpload], list[LossParts]]:
        """Write every device's row and moments back to the table, one
        scatter per array, and return the devices' uploads and mean losses."""
        n_items = self.item_table.shape[0]
        n, hyper, p, work = self.users.size, self.hyper, self.p, self.work
        sharers = [j for j, tier in enumerate(tiers) if tier != ShareTier.NONE]
        user_views = {}
        if sharers:
            ego = EgoGraph(np.concatenate(([0], np.cumsum(self.counts[sharers]))))
            rows = _private_rows(work, self.item_table, self.local_keys[np.isin(self.star, sharers)], n_items)
            user_views = dict(zip(sharers, ego.combine(p[sharers], rows, default_alpha(1))[0]))

        delta_items = work.values - self.item_table[work.rows % n_items]
        item_at = np.searchsorted(work.rows, np.arange(n + 1) * n_items)
        changed = np.any(p != self.p_start, axis=1)
        mean_loss = (self.loss_sums / hyper.local_epochs).T.tolist()
        uploads, losses = [], []
        for j, u in enumerate(self.users.tolist()):
            lo, hi = item_at[j], item_at[j + 1]
            delta = GradientBundle(item=RowBlock(work.rows[lo:hi] - j * n_items, delta_items[lo:hi]))
            if changed[j]:
                delta.user = RowBlock(np.array([u], dtype=np.int64), p[j : j + 1] - self.p_start[j : j + 1])
            weight = float(self.counts[j] * hyper.local_epochs)
            uploads.append(DeviceUpload(u, weight, delta, user_views.get(j)))
            bpr, cl, reg, total = mean_loss[j]
            losses.append(LossParts(bpr=bpr, cl=cl, reg=reg, total=total))

        table, users = self.table, self.users
        table.p_u[users] = p
        table.t_user[users] = self.t_user
        table.t_item[users] = self.t_item
        table.moments_user[users] = self.moments_user.values
        if self.moments_item:
            table.moments_item.write(self.stored(self.moments_item.rows), self.moments_item.values)
        return uploads, losses


def _device_rows(table: DeviceTable, users: np.ndarray, views: list[ReceivedViews | None]) -> np.ndarray:
    """The rows of d floats each device adds to its chunk: its user row, k
    local and k negative item rows and k item keys, plus its user keys when
    it contributes. A contributor outside the shared block of m rows stacks
    the block and its own row, m + 1 keys (``_user_terms``); one inside
    takes the block itself, with no copy, and holds only its row of m
    contrastive logits, m / d rows."""
    rows = 1 + 3 * table.counts(users)
    on = np.array([j for j, v in enumerate(views) if v is not None], dtype=np.int64)
    if on.size:
        block = views[on[0]].user_views
        m, d = len(block), table.p_u.shape[1]
        rows[on] += np.where(np.isin(users[on], block.rows), -(-m // d), m + 1)
    return rows


def client_local_train(
    table: DeviceTable,
    users: np.ndarray,
    item_table: np.ndarray,
    tiers: list[ShareTier],
    received: list[ReceivedViews | None],
    hyper: HyperParams,
    round_idx: int,
    train_seed: int,
) -> tuple[list[DeviceUpload], list[LossParts]]:
    """Run the local epochs of the distinct devices ``users`` and produce
    their uploads, in order, writing their rows and moments to ``table``.

    ``tiers[j]`` and ``received[j]`` belong to ``users[j]``, and every
    ``received`` entry carries the same ``user_views`` block, as
    ``embedding_exchange`` hands them out. The devices never mutate the
    broadcast ``item_table``; each edits private copies of its touched
    rows and uploads the deltas. NONE-tier devices (and devices with no
    received views) train pure BPR; contributors add the contrastive term
    and attach their local user view to the upload.
    Devices train in chunks of about ``graph._ROW_BUDGET`` rows, taken in
    ascending local-item count (``forest_chunks``); uploads and losses come
    back in the order of ``users``.
    """
    users = np.asarray(users, dtype=np.int64)
    tiers = [ShareTier(t) for t in tiers]
    views = [None if tier == ShareTier.NONE else v for tier, v in zip(tiers, received)]
    uploads: list[DeviceUpload] = [None] * users.size
    losses: list[LossParts] = [None] * users.size
    for members in forest_chunks(table.counts(users), _device_rows(table, users, views)):
        chunk = _Chunk(table, users[members], item_table, [views[j] for j in members.tolist()], hyper)
        for epoch in range(hyper.local_epochs):
            chunk.epoch(chunk.negatives([child_rng(train_seed, "neg", round_idx, u, epoch) for u in chunk.users.tolist()]))
        for j, upload, loss in zip(members.tolist(), *chunk.finish([tiers[j] for j in members.tolist()])):
            uploads[j], losses[j] = upload, loss
    return uploads, losses
