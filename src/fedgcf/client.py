"""Device-side state and local training.

A device owns its user embedding row, its private train pairs, and sparse
Adam moments. Each participation round it trains on its ego graph (itself
plus its local items), optionally aligns its views with received global
views through the contrastive term, and uploads parameter deltas plus its
combined local user view.

A round's devices train side by side: each chunk of them is one
``EgoGraph`` forest, and each local epoch is one ``compute_gradients``
call and one Adam step over all their rows. A device still draws its own
negatives, takes its softmax over its own keys and steps its own moments,
and its results are bitwise those it would get training alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ShareTier
# BipartiteGraph is unused here; perfbench/spans.py wraps client.BipartiteGraph to count graph builds
from .graph import BipartiteGraph, EgoGraph, EmbeddingState, default_alpha, forest_chunks
from .learn import (
    AdamMoments,
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


@dataclass
class DeviceState:
    """Persistent per-device state across rounds."""

    user_id: int
    local_items: np.ndarray  # the user's train items, ascending int64
    p_u: np.ndarray
    moments: AdamMoments = field(default_factory=AdamMoments)


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


def sample_negatives(
    interacted: np.ndarray, k: int, n_items: int, rng: np.random.Generator
) -> np.ndarray:
    """k uniform items outside ``interacted``.

    Sampling is without replacement while the complement allows it; when k
    exceeds the complement size the draw falls back to replacement so the
    caller still gets k negatives. The draw is ``rng.choice`` of the
    complement's size, which draws what ``rng.choice`` of the complement
    itself would; ``nth_outside`` maps it to items.
    """
    items = np.asarray(interacted, dtype=np.int64)
    if items.size > 1 and not (items[1:] > items[:-1]).all():
        items = np.unique(items)  # a device's local items are already ascending
    free = n_items - items.size
    if free == 0:
        raise ValueError("user interacted with every item; no negatives exist")
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    return nth_outside(items, rng.choice(free, size=k, replace=k > free))


def _private_rows(work: RowBlock, item_table: np.ndarray, keys: np.ndarray, n_items: int) -> np.ndarray:
    """Rows ``keys`` (star * n_items + item) as their devices see them: the
    device's private copy where it has one, the broadcast table otherwise."""
    rows = item_table[keys % n_items]
    if work:
        at = np.minimum(np.searchsorted(work.rows, keys), len(work) - 1)
        hit = work.rows[at] == keys
        rows[hit] = work.values[at[hit]]
    return rows


def _fetch_moments(blocks: list[RowBlock], keys: np.ndarray, n_items: int, d: int) -> RowBlock:
    """The moments of the rows ``keys`` (star * n_items + item, ascending)
    from star j's block ``blocks[j]``, zero where it has none."""
    values = np.zeros((keys.size, 2, d))
    star = keys // n_items
    bounds = np.searchsorted(star, np.arange(len(blocks) + 1))
    for j in np.unique(star).tolist():
        block = blocks[j]
        if block:
            lo, hi = bounds[j], bounds[j + 1]
            items = keys[lo:hi] - j * n_items
            at = np.minimum(np.searchsorted(block.rows, items), len(block) - 1)
            hit = block.rows[at] == items
            values[lo:hi][hit] = block.values[at[hit]]
    return RowBlock(keys, values)


def _user_terms(devs: list[DeviceState], views: list[ReceivedViews | None]) -> list[CLTerm]:
    """The devices' user-side contrastive terms: each device's propagated
    user row against the full contributors' block, with its own view as
    the positive. Devices inside the block take its rows as they are; the
    others take the block plus their own row, in id order, as one stacked
    (n, m + 1) term."""
    on = np.array([j for j, v in enumerate(views) if v is not None], dtype=np.int64)
    if not on.size:
        return []
    block = views[on[0]].user_views
    ids = np.array([devs[j].user_id for j in on.tolist()], dtype=np.int64)
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
    private copies and the moments, so each device only ever meets its own.
    """

    def __init__(
        self, devs: list[DeviceState], item_table: np.ndarray, views: list[ReceivedViews | None], hyper: HyperParams
    ) -> None:
        self.devs, self.item_table, self.hyper = devs, item_table, hyper
        n_items, d = item_table.shape
        n = len(devs)
        self.local = [dev.local_items for dev in devs]
        self.star = np.repeat(np.arange(n), [items.size for items in self.local])
        self.local_keys = self.star * n_items + np.concatenate(self.local).astype(np.int64)
        if hyper.cl_weight > 0.0:
            self.user_terms = _user_terms(devs, views)
            self.item_groups = _item_groups(views, self.local_keys, n_items)
        else:
            self.user_terms, self.item_groups = [], []
        self.p = np.stack([dev.p_u for dev in devs])
        self.p_start = self.p.copy()
        # user row j's moments at j (zero if it has none yet), and the
        # moments of the item rows the chunk has stepped so far, keyed
        zero = np.zeros((2, d))
        self.moments_user = RowBlock(
            np.arange(n), np.stack([dev.moments.user.values[0] if dev.moments.user else zero for dev in devs])
        )
        self.moments_item = RowBlock()
        self.t_user = np.array([dev.moments.t_user for dev in devs], dtype=np.int64)
        self.t_item = np.array([dev.moments.t_item for dev in devs], dtype=np.int64)
        self.work = RowBlock(values=np.zeros((0, d)))  # private item copies, keyed
        self.loss_sums = np.zeros((4, n))  # bpr, cl, reg and total, summed over the epochs

    def epoch(self, negs: list[np.ndarray]) -> None:
        """One local epoch of every device, device j against negatives ``negs[j]``."""
        n_items, d = self.item_table.shape
        n, hyper = len(self.devs), self.hyper
        neg_keys = np.repeat(np.arange(n), [x.size for x in negs]) * n_items + np.concatenate(negs).astype(np.int64)
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
            fetched = _fetch_moments([dev.moments.item for dev in self.devs], new, n_items, d)
            self.moments_item = self.moments_item.merge(fetched)
            step = adam_update_rows(grads, self.moments_item, self.t_item[owner], hyper)
            self.work = self.work.merge(RowBlock(step.rows, rows[r] + step.values))

    def finish(self, tiers: list[ShareTier]) -> tuple[list[DeviceUpload], list[LossParts]]:
        """Write every device's row and moments back and return the devices'
        uploads and mean losses."""
        n_items = self.item_table.shape[0]
        n, hyper, p, work = len(self.devs), self.hyper, self.p, self.work
        sharers = [j for j, tier in enumerate(tiers) if tier != ShareTier.NONE]
        user_views = {}
        if sharers:
            ego = EgoGraph(np.concatenate(([0], np.cumsum([self.local[j].size for j in sharers]))))
            rows = _private_rows(work, self.item_table, self.local_keys[np.isin(self.star, sharers)], n_items)
            user_views = dict(zip(sharers, ego.combine(p[sharers], rows, default_alpha(1))[0]))

        delta_items = work.values - self.item_table[work.rows % n_items]
        item_at = np.searchsorted(work.rows, np.arange(n + 1) * n_items)
        moment_at = np.searchsorted(self.moments_item.rows, np.arange(n + 1) * n_items)
        changed = np.any(p != self.p_start, axis=1)
        mean_loss = (self.loss_sums / hyper.local_epochs).T.tolist()
        uploads, losses = [], []
        for j, dev in enumerate(self.devs):
            me = np.array([dev.user_id], dtype=np.int64)
            lo, hi = item_at[j], item_at[j + 1]
            delta = GradientBundle(item=RowBlock(work.rows[lo:hi] - j * n_items, delta_items[lo:hi]))
            if changed[j]:
                delta.user = RowBlock(me, p[j : j + 1] - self.p_start[j : j + 1])
            weight = float(self.local[j].size * hyper.local_epochs)
            uploads.append(DeviceUpload(dev.user_id, weight, delta, user_views.get(j)))
            bpr, cl, reg, total = mean_loss[j]
            losses.append(LossParts(bpr=bpr, cl=cl, reg=reg, total=total))
            dev.p_u[...] = p[j]
            moments = dev.moments
            moments.t_user, moments.t_item = int(self.t_user[j]), int(self.t_item[j])
            if moments.t_user:
                moments.user = RowBlock(me, self.moments_user.values[j : j + 1].copy())
            lo, hi = moment_at[j], moment_at[j + 1]
            if hi > lo:
                rows = self.moments_item.rows[lo:hi] - j * n_items
                moments.item = moments.item.merge(RowBlock(rows, self.moments_item.values[lo:hi].copy()))
        return uploads, losses


def _device_rows(devices: list[DeviceState], views: list[ReceivedViews | None]) -> np.ndarray:
    """The rows of d floats each device adds to its chunk: its user row, k
    local and k negative item rows and k item keys, plus its user keys when
    it contributes. A contributor outside the shared block of m rows stacks
    the block and its own row, m + 1 keys (``_user_terms``); one inside
    takes the block itself, with no copy, and holds only its row of m
    contrastive logits, m / d rows."""
    rows = np.array([1 + 3 * dev.local_items.size for dev in devices], dtype=np.int64)
    on = np.array([j for j, v in enumerate(views) if v is not None], dtype=np.int64)
    if on.size:
        block = views[on[0]].user_views
        ids = np.array([devices[j].user_id for j in on.tolist()], dtype=np.int64)
        m, d = len(block), devices[0].p_u.size
        rows[on] += np.where(np.isin(ids, block.rows), -(-m // d), m + 1)
    return rows


def client_local_train(
    devices: list[DeviceState],
    item_table: np.ndarray,
    tiers: list[ShareTier],
    received: list[ReceivedViews | None],
    hyper: HyperParams,
    round_idx: int,
    train_seed: int,
) -> tuple[list[DeviceUpload], list[LossParts]]:
    """Run every device's local epochs and produce their uploads, in order.

    ``tiers[j]`` and ``received[j]`` belong to ``devices[j]``, and every
    ``received`` entry carries the same ``user_views`` block, as
    ``embedding_exchange`` hands them out. The devices never mutate the
    broadcast ``item_table``; each edits private copies of its touched
    rows and uploads the deltas. NONE-tier devices (and devices with no
    received views) train pure BPR; contributors add the contrastive term
    and attach their local user view to the upload.
    Devices train in consecutive chunks of about ``graph._ROW_BUDGET``
    rows.
    """
    tiers = [ShareTier(t) for t in tiers]
    views = [None if tier == ShareTier.NONE else v for tier, v in zip(tiers, received)]
    n_items = item_table.shape[0]
    uploads: list[DeviceUpload] = []
    losses: list[LossParts] = []
    for lo, hi in forest_chunks(_device_rows(devices, views)):
        chunk = _Chunk(devices[lo:hi], item_table, views[lo:hi], hyper)
        for epoch in range(hyper.local_epochs):
            chunk.epoch([
                sample_negatives(items, items.size, n_items, child_rng(train_seed, "neg", round_idx, dev.user_id, epoch))
                for dev, items in zip(chunk.devs, chunk.local)
            ])
        chunk_uploads, chunk_losses = chunk.finish(tiers[lo:hi])
        uploads += chunk_uploads
        losses += chunk_losses
    return uploads, losses
