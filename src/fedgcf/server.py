"""Server-side state: contributed graph, global model, embedding exchange,
server training, local differential privacy, and FedAvg aggregation.

The server behaves like one more federation participant: its own training
step produces a parameter-delta upload that is merged with the device
uploads, weighted by batch size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .client import DeviceTable, DeviceUpload, ReceivedViews, nth_outside
from .data import SharePolicy, ShareTier
from .graph import BipartiteGraph, EmbeddingState, default_alpha, propagate_combine, propagate_items
from .learn import (
    AdamMoments,
    CLTerm,
    GradientBundle,
    HyperParams,
    LossParts,
    LossSpec,
    RowBlock,
    adam_step,
    add_rows,
    compute_gradients,
)
from .seeds import child_rng, choice_runs

SERVER_ID = -1


@dataclass
class AuditLog:
    """Structured record of every upload and of each round's view exchange.

    Events are plain dicts so they serialize as line-delimited JSON; the
    privacy checks scan them for tier violations.
    """

    events: list[dict] = field(default_factory=list)

    def log_upload(self, round_idx: int, user: int, tier: ShareTier) -> None:
        self.events.append(
            {"event": "upload", "round": round_idx, "user": user, "tier": tier.name.lower()}
        )

    def log_exchange(self, round_idx: int, recipients: list[int], broadcast: list[int]) -> None:
        """One round's exchange: every recipient got its own view plus the
        view of every ``broadcast`` owner."""
        self.events.append(
            {"event": "exchange", "round": round_idx, "recipients": recipients, "broadcast": broadcast}
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event) + "\n")

    def violations(self, policy: SharePolicy) -> list[str]:
        """Tier violations present in the log (empty list means clean)."""
        tier = policy.tier
        problems = []
        for e in self.events:
            if e["event"] == "upload" and tier[e["user"]] == ShareTier.NONE:
                problems.append(f"round {e['round']}: NONE user {e['user']} uploaded a view")
            if e["event"] == "exchange":
                recipients = np.asarray(e["recipients"], dtype=np.int64)
                broadcast = np.asarray(e["broadcast"], dtype=np.int64)
                seen = np.union1d(recipients, broadcast)
                problems.extend(
                    f"round {e['round']}: NONE user {user} view distributed"
                    for user in seen[tier[seen] == ShareTier.NONE].tolist()
                )
                for owner in broadcast[tier[broadcast] == ShareTier.PART].tolist():
                    problems.extend(
                        f"round {e['round']}: PART user {owner} view sent to device {dev}"
                        for dev in recipients[recipients != owner].tolist()
                    )
        return problems


@dataclass
class ServerState:
    """Global model plus everything the server accumulated."""

    model: EmbeddingState
    graph: BipartiteGraph
    shared_graph: BipartiteGraph
    moments: AdamMoments = field(default_factory=AdamMoments)
    uploaded: RowBlock = field(default_factory=RowBlock)  # each uploader's latest user view

    def absorb_uploads(self, uploads: list[DeviceUpload], policy: SharePolicy, round_idx: int, audit: AuditLog) -> None:
        """Merge this round's uploaded user views into ``uploaded``; a
        device's latest view replaces any earlier one."""
        views = [up for up in uploads if up.user_view is not None]
        if not views:
            return
        ids = np.array([up.device_id for up in views], dtype=np.int64)
        tiers = policy.tier[ids]
        if (tiers == ShareTier.NONE).any():
            raise ValueError(f"NONE user {ids[np.argmax(tiers == ShareTier.NONE)]} attempted a view upload")
        for user, tier in zip(ids.tolist(), tiers.tolist()):
            audit.log_upload(round_idx, user, ShareTier(tier))
        # the last view of a device that uploads twice in one call wins
        rows, last = np.unique(ids[::-1], return_index=True)
        values = np.stack([views[k].user_view for k in (ids.size - 1 - last).tolist()])
        self.uploaded = self.uploaded.merge(RowBlock(rows, values))


def server_infer(graph: BipartiteGraph, model: EmbeddingState, layers: int):
    """High-order propagated views of every node over ``graph``."""
    return propagate_combine(graph, model.user, model.item, default_alpha(layers))


def embedding_exchange(
    policy: SharePolicy,
    uploaded: RowBlock,
    selected: np.ndarray,
    user_views: np.ndarray,
    item_views: np.ndarray,
    devices: DeviceTable,
    round_idx: int,
    audit: AuditLog,
) -> dict[int, ReceivedViews]:
    """Decide which server-side views each selected device receives.

    A selected contributor (PART or ALL) gets the one read-only block of
    server-side user views of every ALL-tier user that has uploaded at
    least once, its own server-side user view, and server-side item views
    for its local items, as ``devices`` holds them. NONE devices and
    unselected devices receive nothing; PART views are never placed in
    another device's map. The audit gets one exchange record for the
    round.
    """
    all_sharers = uploaded.rows[policy.tier[uploaded.rows] == ShareTier.ALL]
    shared = RowBlock(all_sharers, user_views[all_sharers])
    shared.rows.flags.writeable = False
    shared.values.flags.writeable = False
    selected = np.unique(np.asarray(selected, dtype=np.int64))
    selected = selected[policy.tier[selected] != ShareTier.NONE]
    received: dict[int, ReceivedViews] = {}
    for dev_id, own_view in zip(selected.tolist(), user_views[selected]):
        items = devices.local_items(dev_id)
        received[dev_id] = ReceivedViews(shared, own_view, RowBlock(items, item_views[items]))
    if received:
        audit.log_exchange(round_idx, selected.tolist(), shared.rows.tolist())
    return received


def _first_order_item_views(shared_graph: BipartiteGraph, model: EmbeddingState, items: np.ndarray) -> np.ndarray:
    """Single-layer combined views of the ascending ``items`` over the
    unmended contributed graph, bitwise those of ``propagate_combine``.

    These stand in for device-side item views in the server's contrastive
    term (devices upload only user views) and are treated as constants.
    """
    alpha = default_alpha(1)
    return alpha[0] * model.item[items] + alpha[1] * propagate_items(shared_graph, model.user, items)


def _server_negatives(graph: BipartiteGraph, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One negative per entry of the ascending, nonempty ``users``, outside
    the user's row of ``graph``: per run of one user, the draws of
    ``rng.choice`` of the row's complement size (with replacement only when
    the run is longer), all runs in one ``choice_runs`` pass, then one
    ``nth_outside`` over all rows laid end to end, user u's items as the
    keys ``u * n_items + item``."""
    run_users, counts = np.unique(users, return_counts=True)
    free = graph.n_items - graph.user_deg[run_users]
    if (free == 0).any():
        raise ValueError(f"user {run_users[np.argmax(free == 0)]} interacted with every item; no negatives exist")
    pos = choice_runs(rng, free, counts)
    keys = np.repeat(np.arange(graph.n_users) * graph.n_items, graph.user_deg) + graph.user_adj
    base = users * graph.n_items
    # the rows before user u hold u * n_items - user_ptr[u] non-members
    return nth_outside(keys, base - graph.user_ptr[users] + pos) - base


def server_train(
    server: ServerState,
    hyper: HyperParams,
    round_idx: int,
    train_seed: int,
    views: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[DeviceUpload | None, LossParts | None]:
    """One Adam step on a minibatch of contributed interactions.

    BPR positives come from the real contributed pairs; negatives avoid
    each user's mended adjacency. The contrastive term aligns the server's
    propagated views with uploaded device user views (and with detached
    first-order item views) for batch members. ``views``, when given, are
    ``server_infer``'s views of ``server.model`` over ``server.graph``;
    the gradient then skips its forward pass. Returns the server's own
    delta upload, or None when there is no contributed data.
    """
    edges = server.shared_graph.edge_array()
    if edges.shape[0] == 0:
        return None, None
    rng_batch = child_rng(train_seed, "server_batch", round_idx)
    batch_size = min(hyper.server_batch, edges.shape[0])
    idx = np.sort(rng_batch.choice(edges.shape[0], size=batch_size, replace=False))
    batch = edges[idx]
    users = batch[:, 0]
    positives = batch[:, 1]

    # the batch is sorted by user, so each user's rows form one run
    negatives = _server_negatives(server.graph, users, child_rng(train_seed, "server_neg", round_idx))

    cl_terms: list[CLTerm] = []
    if hyper.cl_weight > 0.0:
        uploaded = server.uploaded
        ids = np.intersect1d(users, uploaded.rows)
        if ids.size:
            fixed = uploaded.values[np.searchsorted(uploaded.rows, ids)]
            cl_terms.append(
                CLTerm(
                    kind="user",
                    trainable="key",
                    rows=ids,
                    ids=ids,
                    fixed_ids=ids,
                    fixed_views=fixed,
                )
            )
        # positives are contributed edges, so every batch item has degree >= 1
        batch_items = np.unique(positives)
        cl_terms.append(
            CLTerm(
                kind="item",
                trainable="key",
                rows=batch_items,
                ids=batch_items,
                fixed_ids=batch_items,
                fixed_views=_first_order_item_views(server.shared_graph, server.model, batch_items),
            )
        )

    spec = LossSpec(
        graph=server.graph,
        alpha=default_alpha(hyper.layers_server),
        bpr_users=users,
        bpr_pos=positives,
        bpr_neg=negatives,
        cl_terms=cl_terms,
        tau=hyper.temperature,
        cl_weight=hyper.cl_weight,
        reg_lambda=hyper.reg_lambda,
        reg_user_rows=np.unique(users),
        reg_item_rows=np.unique(np.concatenate([positives, negatives])),
        views=views,
    )
    parts, grads = compute_gradients(spec, server.model)
    step = adam_step(None, grads, server.moments, hyper)
    delta = GradientBundle(_moved(server.model.user, step.user), _moved(server.model.item, step.item))
    upload = DeviceUpload(device_id=SERVER_ID, weight=float(batch_size), delta=delta)
    return upload, parts


def _moved(table: np.ndarray, step: RowBlock) -> RowBlock:
    """The rows of ``table`` plus their Adam ``step``, minus the rows: the
    bits of a stepped copy of the table less the table."""
    old = table[step.rows]
    return RowBlock(step.rows, (old + step.values) - old if step else old)


def _privatize(block: RowBlock, clip: float, noise_scale: float, rng: np.random.Generator | None) -> RowBlock:
    values = block.values.copy()
    if clip > 0.0:
        # row norms as sqrt(v . v), the same rounding as np.linalg.norm of one row
        norms = np.sqrt(np.vecdot(values, values))
        big = norms > clip
        values[big] *= (clip / norms[big])[:, None]
    if noise_scale > 0.0:
        values = values + rng.laplace(0.0, noise_scale, size=values.shape)
    return RowBlock(block.rows, values)


def apply_ldp(
    upload: DeviceUpload, clip: float, noise_scale: float, rng: np.random.Generator | None
) -> DeviceUpload:
    """Clip each delta row to L2 norm ``clip`` and add Laplace noise.

    ``clip`` of 0 disables clipping; ``noise_scale`` of 0 adds nothing and
    draws nothing, so a zero-noise run is bit-identical to a disabled one,
    and ``rng`` may then be None.
    Noise components are i.i.d. Laplace(0, noise_scale), variance
    2 * noise_scale^2, drawn user rows first, rows in ascending order.
    """
    user = _privatize(upload.delta.user, clip, noise_scale, rng)
    item = _privatize(upload.delta.item, clip, noise_scale, rng)
    return DeviceUpload(upload.device_id, upload.weight, GradientBundle(user, item), upload.user_view)


def fedavg_aggregate(
    uploads: list[tuple[GradientBundle, float]], base: EmbeddingState
) -> EmbeddingState:
    """Per-row weighted average of deltas applied to the base model.

    new_row = base_row + sum_k w_k delta_k / sum_k w_k over the uploads
    that touch the row; untouched rows copy through, and rows whose total
    weight is zero stay unchanged. Each row's sums run in list order, which
    callers keep deterministic (server first, then ascending device id).
    """
    out = base.copy()
    for name in ("user", "item"):
        table = getattr(out, name)
        blocks = [(getattr(bundle, name), w) for bundle, w in uploads if getattr(bundle, name)]
        if not blocks:
            continue
        touched, at = np.unique(np.concatenate([b.rows for b, _ in blocks]), return_inverse=True)
        vec_sum = np.zeros((touched.size, table.shape[1]))
        add_rows(vec_sum, at, np.concatenate([w * b.values for b, w in blocks]))
        w_sum = np.bincount(at, np.repeat([w for _, w in blocks], [len(b) for b, _ in blocks]))
        ok = w_sum > 0.0
        table[touched[ok]] += vec_sum[ok] / w_sum[ok, None]
    return out
