"""Device-side state and local training.

A device owns its user embedding row, its private train pairs, and sparse
Adam moments. Each participation round it trains on its ego graph (itself
plus its local items), optionally aligns its views with received global
views through the contrastive term, and uploads parameter deltas plus its
combined local user view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ShareTier
# BipartiteGraph is unused here; perfbench/spans.py wraps client.BipartiteGraph to count graph builds
from .graph import BipartiteGraph, EgoGraph, EmbeddingState, default_alpha
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

    ``user_views`` holds the device's own server-side view plus the views
    of full contributors; ``item_views`` holds server-side views of the
    device's local items.
    """

    user_views: RowBlock = field(default_factory=RowBlock)
    item_views: RowBlock = field(default_factory=RowBlock)

    def is_empty(self) -> bool:
        return not self.user_views and not self.item_views


@dataclass
class DeviceUpload:
    """What a participant sends back: per-row parameter deltas, the FedAvg
    weight (trained pair count), and the local user view (sharers only)."""

    device_id: int
    weight: float
    delta: GradientBundle
    user_view: np.ndarray | None = None


def sample_negatives(
    interacted: np.ndarray, k: int, n_items: int, rng: np.random.Generator
) -> np.ndarray:
    """k uniform items outside ``interacted``.

    Sampling is without replacement while the complement allows it; when k
    exceeds the complement size the draw falls back to replacement so the
    caller still gets k negatives.
    """
    mask = np.ones(n_items, dtype=bool)
    mask[np.asarray(interacted, dtype=np.int64)] = False
    complement = np.flatnonzero(mask)
    if complement.size == 0:
        raise ValueError("user interacted with every item; no negatives exist")
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    return rng.choice(complement, size=k, replace=k > complement.size)


def _private_rows(work: RowBlock, item_table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows ``ids`` as the device sees them: its private copy where it has
    one, the broadcast table otherwise."""
    rows = item_table[ids]
    if work:
        at = np.minimum(np.searchsorted(work.rows, ids), len(work) - 1)
        hit = work.rows[at] == ids
        rows[hit] = work.values[at[hit]]
    return rows


def _build_cl_terms(
    dev: DeviceState,
    received: ReceivedViews,
    local_ids: np.ndarray,
    compact_ids: np.ndarray,
) -> list[CLTerm]:
    terms: list[CLTerm] = []
    users, items = received.user_views, received.item_views
    if users:
        if dev.user_id not in users.rows:
            raise ValueError(f"device {dev.user_id} received views without its own positive")
        terms.append(
            CLTerm(
                kind="user",
                trainable="query",
                rows=np.array([0], dtype=np.int64),
                ids=np.array([dev.user_id], dtype=np.int64),
                fixed_ids=users.rows,
                fixed_views=users.values,
            )
        )
    keep = np.isin(items.rows, local_ids)
    if keep.any():
        fixed_ids = items.rows[keep]
        terms.append(
            CLTerm(
                kind="item",
                trainable="query",
                rows=np.searchsorted(compact_ids, fixed_ids),
                ids=fixed_ids,
                fixed_ids=fixed_ids,
                fixed_views=items.values[keep],
            )
        )
    return terms


def client_local_train(
    dev: DeviceState,
    item_table: np.ndarray,
    tier: ShareTier,
    received: ReceivedViews | None,
    hyper: HyperParams,
    round_idx: int,
    train_seed: int,
) -> tuple[DeviceUpload, LossParts]:
    """Run the device's local epochs and produce its upload.

    The device never mutates the broadcast ``item_table``; it edits private
    copies of the touched rows and uploads the deltas. NONE-tier devices
    (and devices with no received views) train pure BPR; contributors add
    the contrastive term and attach their local user view to the upload.
    """
    n_items = item_table.shape[0]
    local = dev.local_items
    if tier == ShareTier.NONE:
        received = None
    p_start = dev.p_u.copy()
    me = np.array([dev.user_id], dtype=np.int64)
    work = RowBlock(values=np.zeros((0, item_table.shape[1])))
    loss_sums = np.zeros(4)  # bpr, cl, reg and total, summed over the epochs
    alpha = default_alpha(1)

    for epoch in range(hyper.local_epochs):
        rng = child_rng(train_seed, "neg", round_idx, dev.user_id, epoch)
        negs = sample_negatives(local, local.size, n_items, rng)
        compact_ids = np.unique(np.concatenate([local, negs]))
        pos_c = np.searchsorted(compact_ids, local)
        neg_c = np.searchsorted(compact_ids, negs)
        rows = _private_rows(work, item_table, compact_ids)
        state = EmbeddingState(dev.p_u[None, :].copy(), rows)
        cl_weight = hyper.cl_weight if received is not None and not received.is_empty() else 0.0
        spec = LossSpec(
            graph=EgoGraph(pos_c, compact_ids.size),
            alpha=alpha,
            bpr_users=np.zeros(local.size, dtype=np.int64),
            bpr_pos=pos_c,
            bpr_neg=neg_c,
            cl_terms=_build_cl_terms(dev, received, local, compact_ids) if cl_weight > 0.0 else [],
            tau=hyper.temperature,
            cl_weight=cl_weight,
            reg_lambda=hyper.reg_lambda,
            reg_user_rows=np.array([0], dtype=np.int64),
            reg_item_rows=np.arange(compact_ids.size),
        )
        parts, bundle = compute_gradients(spec, state)
        loss_sums += (parts.bpr, parts.cl, parts.reg, parts.total)

        if bundle.user:
            dev.moments.t_user += 1
            step = adam_update_rows(RowBlock(me, bundle.user.values), dev.moments.user, dev.moments.t_user, hyper)
            dev.p_u += step.values[0]
        if bundle.item:
            grads = RowBlock(compact_ids[bundle.item.rows], bundle.item.values)
            dev.moments.t_item += 1
            step = adam_update_rows(grads, dev.moments.item, dev.moments.t_item, hyper)
            work = work.merge(RowBlock(step.rows, rows[bundle.item.rows] + step.values))

    delta = GradientBundle(item=RowBlock(work.rows, work.values - item_table[work.rows]))
    if not np.array_equal(dev.p_u, p_start):
        delta.user = RowBlock(me, (dev.p_u - p_start)[None, :])

    user_view = None
    if tier != ShareTier.NONE:
        ego = EgoGraph(np.arange(local.size), local.size)
        user_view = ego.combine(dev.p_u[None, :], _private_rows(work, item_table, local), alpha)[0][0]
    upload = DeviceUpload(
        device_id=dev.user_id,
        weight=float(local.size * hyper.local_epochs),
        delta=delta,
        user_view=user_view,
    )
    bpr, cl, reg, total = (loss_sums / hyper.local_epochs).tolist()
    return upload, LossParts(bpr=bpr, cl=cl, reg=reg, total=total)
