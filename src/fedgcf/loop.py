"""Round orchestration: client selection, one federation round, and the
full training run with periodic evaluation and early stopping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .client import DeviceTable, ReceivedViews, client_local_train
from .data import InteractionDataset, SharePolicy, assign_share_policy, attach_contributions
from .errors import DataFormatError
from .evaluate import evaluate
from .graph import BipartiteGraph, EgoGraph, default_alpha, forest_chunks, xavier_init
from .learn import HyperParams
from .mending import MendingArtifacts, mend_graph
from .seeds import child_rng
from .server import AuditLog, ServerState, apply_ldp, embedding_exchange, fedavg_aggregate, server_infer, server_train


@dataclass
class RoundReport:
    """Per-round accounting."""

    round_idx: int
    participants: tuple[int, ...]
    mean_bpr_loss: float
    mean_cl_loss: float
    participant_loss_sum: float
    server_loss: float
    total_loss: float


@dataclass
class RunContext:
    """Everything a run needs, prepared once before the round loop.

    ``devices`` holds every device's state: user rows, train items, Adam
    step counts and moments (``DeviceTable``).
    """

    ds: InteractionDataset
    policy: SharePolicy
    hyper: HyperParams
    devices: DeviceTable
    server: ServerState
    audit: AuditLog
    artifacts: MendingArtifacts | None
    train_seed: int
    server_only: bool = False
    sync_all_users: bool = False
    # (model, graph, read-only views) of the last ``_server_views`` miss
    server_views: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class RunResult:
    context: RunContext
    reports: list[RoundReport]
    evals: list[dict]
    best_val_recall: float
    stopped_early: bool
    rounds_run: int


def select_clients(n_users: int, n: int, round_idx: int, seed: int) -> np.ndarray:
    """Uniform sample of min(n, n_users) distinct users, ascending ids.

    Deterministic in (seed, round): re-running a round reselects the same
    participants regardless of what happened in other rounds.
    """
    size = min(n, n_users)
    if size <= 0:
        return np.zeros(0, dtype=np.int64)
    rng = child_rng(seed, "select", round_idx)
    return np.sort(rng.choice(n_users, size=size, replace=False)).astype(np.int64)


def _check_negatives(degrees: np.ndarray, n_items: int, what: str) -> None:
    """Raise DataFormatError naming the lowest user of degree ``n_items``."""
    full = np.flatnonzero(degrees == n_items)
    if full.size:
        raise DataFormatError(
            f"user {full[0]}'s {what} holds all {n_items} items: no negatives to sample"
        )


def contribute_and_mend(
    ds: InteractionDataset,
    hyper: HyperParams,
    share_mode: str = "uniform",
    share_ratio: float | None = None,
    seed_policy: int = 1,
    seed_train: int = 2,
) -> tuple[SharePolicy, BipartiteGraph, MendingArtifacts | None]:
    """The users' share policy, the server graph of their contributed pairs
    and its mending under the run's ``"mend"`` stream: None when
    ``impair_fraction`` is 0 or there are no contributed edges. It checks
    no row a run samples negatives from, so ``fedgcf mend`` runs it alone.
    """
    policy = assign_share_policy(ds.n_users, share_mode, seed_policy, share_ratio)
    policy = attach_contributions(policy, ds, seed_policy)
    policy.validate(ds)
    shared_graph = BipartiteGraph(ds.n_users, ds.n_items, policy.contributed)
    artifacts = None
    if shared_graph.edge_count > 0 and hyper.impair_fraction > 0.0:
        artifacts = mend_graph(shared_graph, hyper, child_rng(seed_train, "mend").integers(2**31))
    return policy, shared_graph, artifacts


def prepare_run(
    ds: InteractionDataset,
    hyper: HyperParams,
    share_mode: str = "uniform",
    share_ratio: float | None = None,
    seed_policy: int = 1,
    seed_train: int = 2,
    disable_gm: bool = False,
    disable_cl: bool = False,
    server_only: bool = False,
    sync_all_users: bool = False,
) -> RunContext:
    """Build policy, server graph and model, run mending once
    (``contribute_and_mend``), and start every device's row in one
    ``DeviceTable`` as a copy of its row of the initial model.

    The server trains on the mended graph, or on the contributed graph
    where nothing is mended. Raises DataFormatError when a user's row holds
    every item, since no negative could be sampled for it: a train split
    that a device trains on, or a row of the server graph. ``disable_gm``
    and ``disable_cl`` run with ``impair_fraction`` and ``cl_weight`` 0.
    """
    if disable_gm:
        hyper = replace(hyper, impair_fraction=0.0)
    if disable_cl:
        hyper = replace(hyper, cl_weight=0.0)
    if not server_only:
        _check_negatives(np.bincount(ds.train[:, 0], minlength=ds.n_users), ds.n_items, "train split")
    policy, shared_graph, artifacts = contribute_and_mend(
        ds,
        hyper,
        share_mode=share_mode,
        share_ratio=share_ratio,
        seed_policy=seed_policy,
        seed_train=seed_train,
    )
    graph = shared_graph if artifacts is None else artifacts.mended
    _check_negatives(graph.user_deg, ds.n_items, "server-graph row")

    model = xavier_init(ds.n_users, ds.n_items, hyper.dim, child_rng(seed_train, "init"))
    devices = DeviceTable(model.user.copy(), ds.train)
    server = ServerState(model=model, graph=graph, shared_graph=shared_graph)
    return RunContext(
        ds=ds,
        policy=policy,
        hyper=hyper,
        devices=devices,
        server=server,
        audit=AuditLog(),
        artifacts=artifacts,
        train_seed=seed_train,
        server_only=server_only,
        sync_all_users=sync_all_users,
    )


def _server_views(ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
    """``server_infer``'s views of the server model, computed once per model.

    They are keyed on the identity of ``ctx.server.model`` (and its graph):
    ``fedavg_aggregate`` replaces the model rather than changing it. The
    arrays are read-only, so a write raises instead of leaving stale views.
    """
    server = ctx.server
    cached = ctx.server_views
    if cached is None or cached[0] is not server.model or cached[1] is not server.graph:
        ctx.server_views = None  # let the stale views go before computing new ones
        views = server_infer(server.graph, server.model, ctx.hyper.layers_server)
        for view in views:
            view.flags.writeable = False
        cached = ctx.server_views = (server.model, server.graph, views)
    return cached[2]


def run_round(ctx: RunContext, round_idx: int) -> RoundReport:
    """One federation round.

    Select participants, distribute server-side views, run local training,
    take the server's own step, privatize device uploads, aggregate with
    FedAvg, and broadcast (participants additionally resync their user
    row from the new global model).
    """
    hyper = ctx.hyper
    server = ctx.server
    if ctx.server_only:
        selected = np.zeros(0, dtype=np.int64)
    else:
        selected = select_clients(ctx.ds.n_users, hyper.clients_per_round, round_idx, ctx.train_seed)

    user_views, item_views = _server_views(ctx)
    received_maps: dict[int, ReceivedViews] = {}
    if selected.size:
        received_maps = embedding_exchange(
            ctx.policy, server.uploaded, selected, user_views, item_views, ctx.devices, round_idx, ctx.audit
        )

    uploads, losses = client_local_train(
        ctx.devices,
        selected,
        server.model.item,
        ctx.policy.tier[selected].tolist(),
        [received_maps.get(u) for u in selected.tolist()],
        hyper,
        round_idx,
        ctx.train_seed,
    )

    server.absorb_uploads(uploads, ctx.policy, round_idx, ctx.audit)
    server_upload, server_parts = server_train(server, hyper, round_idx, ctx.train_seed, (user_views, item_views))

    if hyper.ldp_clip > 0.0 or hyper.ldp_noise > 0.0:
        # a zero noise scale draws nothing, so it needs no generator
        uploads = [
            apply_ldp(
                up,
                hyper.ldp_clip,
                hyper.ldp_noise,
                child_rng(ctx.train_seed, "ldp", round_idx, up.device_id) if hyper.ldp_noise > 0.0 else None,
            )
            for up in uploads
        ]

    merged: list[tuple] = []
    if server_upload is not None:
        merged.append((server_upload.delta, server_upload.weight))
    merged.extend((up.delta, up.weight) for up in uploads)
    new_model = fedavg_aggregate(merged, server.model)
    server.model = new_model
    if ctx.sync_all_users:
        ctx.devices.p_u[...] = new_model.user
    else:
        ctx.devices.p_u[selected] = new_model.user[selected]

    participant_sum = float(sum(p.total for p in losses))
    server_loss = float(server_parts.total) if server_parts is not None else 0.0
    mean_bpr = float(np.mean([p.bpr for p in losses])) if losses else 0.0
    mean_cl = float(np.mean([p.cl for p in losses])) if losses else 0.0
    return RoundReport(
        round_idx=round_idx,
        participants=tuple(int(u) for u in selected),
        mean_bpr_loss=mean_bpr,
        mean_cl_loss=mean_cl,
        participant_loss_sum=participant_sum,
        server_loss=server_loss,
        total_loss=participant_sum + server_loss,
    )


def device_views(device_user: np.ndarray, item: np.ndarray, ds: InteractionDataset) -> tuple[np.ndarray, np.ndarray]:
    """Device-side evaluation views: each user's ego-combined view of their
    own train items from their device row ``device_user[u]``, against raw
    (layer-0 scaled) item rows. The users with train items are combined as
    ``EgoGraph`` forests of about ``graph._ROW_BUDGET`` item rows each, the
    users taken in ascending train-item count (``forest_chunks``)."""
    alpha = default_alpha(1)
    user_views = alpha[0] * device_user  # the ego view of a user with no items
    users, starts, counts = np.unique(ds.train[:, 0], return_index=True, return_counts=True)
    for members in forest_chunks(counts):
        item_ptr = np.concatenate(([0], np.cumsum(counts[members])))
        # member j's train pairs, starts[j]:starts[j] + counts[j], one after another
        at = np.repeat(starts[members] - item_ptr[:-1], counts[members]) + np.arange(item_ptr[-1])
        ego = EgoGraph(item_ptr)
        user_views[users[members]] = ego.combine(device_user[users[members]], item[ds.train[at, 1]], alpha)[0]
    return user_views, alpha[0] * item


def eval_views(ctx: RunContext, mode: str = "server"):
    """Embedding views used for evaluation.

    ``server``: global model propagated over the mended contributed graph,
    the read-only views the next round's exchange and ``server_train`` share.
    ``device``: ``device_views`` of every device's user row.
    Both are read-only, so ``evaluate`` ranks them once for val and test.
    """
    if mode == "server":
        return _server_views(ctx)
    if mode != "device":
        raise ValueError(f"unknown eval view mode {mode!r}")
    views = device_views(ctx.devices.p_u, ctx.server.model.item, ctx.ds)
    for view in views:
        view.flags.writeable = False
    return views


def run_training(
    ds: InteractionDataset, hyper: HyperParams, eval_view: str = "server", score_sim: str = "cosine", **prepare
) -> RunResult:
    """Full training run: prepare once (``prepare_run(ds, hyper, **prepare)``),
    loop rounds, evaluate periodically.

    Evaluation happens before round 1 (round index 0) and after every
    ``eval_every`` rounds; training stops early when validation Recall@K
    fails to improve for ``patience`` consecutive evaluations, never when
    the validation split is empty.
    """
    problems = hyper.validate()
    if problems:
        raise ValueError("invalid hyperparameters: " + "; ".join(problems))
    ctx = prepare_run(ds, hyper, **prepare)
    hyper = ctx.hyper

    def run_eval(round_idx: int) -> dict:
        user_views, item_views = eval_views(ctx, eval_view)
        val = evaluate(user_views, item_views, ctx.ds, "val", hyper.eval_k, score_sim)
        test = evaluate(user_views, item_views, ctx.ds, "test", hyper.eval_k, score_sim)
        return {
            "round": round_idx,
            "val_recall": val.recall,
            "val_ndcg": val.ndcg,
            "test_recall": test.recall,
            "test_ndcg": test.ndcg,
        }

    reports: list[RoundReport] = []
    evals = [run_eval(0)]
    best_val = evals[0]["val_recall"]
    stale = 0
    stopped = False
    for round_idx in range(1, hyper.rounds + 1):
        reports.append(run_round(ctx, round_idx))
        if round_idx % hyper.eval_every == 0 or round_idx == hyper.rounds:
            record = run_eval(round_idx)
            evals.append(record)
            if record["val_recall"] > best_val:
                best_val = record["val_recall"]
                stale = 0
            elif ds.val.shape[0]:
                stale += 1
                if stale >= hyper.patience:
                    stopped = True
                    break
    return RunResult(
        context=ctx,
        reports=reports,
        evals=evals,
        best_val_recall=float(best_val),
        stopped_early=stopped,
        rounds_run=len(reports),
    )
