import json
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedgcf.server as server_module
from fedgcf import cli
from fedgcf.client import DeviceTable, DeviceUpload, ReceivedViews
from fedgcf.data import SharePolicy, ShareTier
from fedgcf.graph import BipartiteGraph, EmbeddingState, default_alpha, propagate_combine
from fedgcf.learn import GradientBundle, HyperParams, RowBlock
from fedgcf.loop import prepare_run, run_round
from fedgcf.seeds import child_rng, choice_runs
from fedgcf.server import (
    SERVER_ID,
    AuditLog,
    ServerState,
    _first_order_item_views,
    _server_negatives,
    apply_ldp,
    embedding_exchange,
    fedavg_aggregate,
    server_infer,
    server_train,
)

from oracles import as_dict, bundle_of, same_bits, server_negatives_loop, violations_per_event

TIERS = [ShareTier.NONE, ShareTier.PART, ShareTier.ALL, ShareTier.ALL]
RATIO_OF = {ShareTier.NONE: 0.0, ShareTier.PART: 0.5, ShareTier.ALL: 1.0}


def make_policy():
    return SharePolicy(
        ratio=np.array([RATIO_OF[t] for t in TIERS]),
        contributed=[(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)],
    )


def stored_views(rows, rng):
    """An ``uploaded`` block holding a random user view for each of ``rows``."""
    return RowBlock(np.array(rows, dtype=np.int64), rng.normal(size=(len(rows), 4)))


def make_server(dim=4, seed=0):
    policy = make_policy()
    shared = BipartiteGraph(4, 3, policy.contributed)
    rng = np.random.default_rng(seed)
    model = EmbeddingState(rng.normal(size=(4, dim)), rng.normal(size=(3, dim)))
    return policy, ServerState(model=model, graph=shared, shared_graph=shared)


# ---------------------------------------------------------------- exchange


def devices_holding(local_items: dict, n_users=4, dim=4) -> DeviceTable:
    """A device table in which user u's train items are ``local_items[u]``."""
    train = np.array([(u, i) for u in sorted(local_items) for i in local_items[u]], dtype=np.int64)
    return DeviceTable(np.zeros((n_users, dim)), train.reshape(-1, 2))


def user_keys(views: ReceivedViews, dev_id: int) -> dict:
    """The user views a device aligns with: the shared block plus its own."""
    return {**as_dict(views.user_views), dev_id: views.own_view}


def test_exchange_tier_rules():
    policy, server = make_server()
    rng = np.random.default_rng(1)
    server.uploaded = stored_views([1, 2, 3], rng)
    user_views = rng.normal(size=(4, 4))
    item_views = rng.normal(size=(3, 4))
    devices = devices_holding({0: [0], 1: [0], 2: [0, 1], 3: [1, 2]})
    received = embedding_exchange(
        policy, server.uploaded, np.arange(4), user_views, item_views, devices, 0, AuditLog()
    )
    # NONE user gets nothing at all
    assert 0 not in received
    # each sharer gets its own view plus the ALL-tier uploaders' views
    assert set(user_keys(received[1], 1)) == {1, 2, 3}
    assert set(user_keys(received[2], 2)) == {2, 3}
    assert set(user_keys(received[3], 3)) == {3, 2}
    # PART views never appear in another device's map
    for views in received.values():
        for owner in as_dict(views.user_views):
            assert policy.tier[owner] == ShareTier.ALL
    # item views cover exactly the local items
    assert set(as_dict(received[1].item_views)) == {0}
    assert set(as_dict(received[3].item_views)) == {1, 2}
    for dev_id, views in received.items():
        assert np.array_equal(views.own_view, user_views[dev_id])


def test_exchange_only_selected_devices():
    policy, server = make_server()
    rng = np.random.default_rng(2)
    user_views = rng.normal(size=(4, 4))
    received = embedding_exchange(
        policy,
        RowBlock(),
        np.array([2]),
        user_views,
        rng.normal(size=(3, 4)),
        devices_holding({2: [0]}),
        0,
        AuditLog(),
    )
    assert set(received) == {2}
    assert len(received[2].user_views) == 0  # nobody has uploaded yet
    assert received[2].user_views.values.shape == (0, 4)
    assert np.array_equal(received[2].own_view, user_views[2])


def test_exchange_all_views_require_prior_upload():
    policy, server = make_server()
    rng = np.random.default_rng(3)
    server.uploaded = stored_views([3], rng)
    received = embedding_exchange(
        policy, server.uploaded, np.array([1]), rng.normal(size=(4, 4)),
        rng.normal(size=(3, 4)), devices_holding({}), 0, AuditLog(),
    )
    # user 2 is ALL-tier but never uploaded, so its view is not distributed
    assert set(user_keys(received[1], 1)) == {1, 3}


def test_exchange_audit_log(tmp_path):
    policy, server = make_server()
    rng = np.random.default_rng(4)
    server.uploaded = stored_views([2], rng)
    audit = AuditLog()
    embedding_exchange(
        policy, server.uploaded, np.arange(4), rng.normal(size=(4, 4)),
        rng.normal(size=(3, 4)), devices_holding({}), 5, audit,
    )
    assert audit.violations(policy) == []
    # one record: each sharer got its own view, and user 2's view went to all three
    assert audit.events == [{"event": "exchange", "round": 5, "recipients": [1, 2, 3], "broadcast": [2]}]
    path = tmp_path / "audit.jsonl"
    audit.write_jsonl(str(path))
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert lines == audit.events


def test_exchange_shares_one_read_only_block():
    policy, server = make_server()
    rng = np.random.default_rng(5)
    server.uploaded = stored_views([1, 2, 3], rng)
    user_views = rng.normal(size=(4, 4))
    received = embedding_exchange(
        policy, server.uploaded, np.arange(4), user_views, rng.normal(size=(3, 4)), devices_holding({}), 0, AuditLog()
    )
    shared = received[2].user_views
    assert shared.rows.tolist() == [2, 3]
    assert np.array_equal(shared.values, user_views[[2, 3]])
    with pytest.raises(ValueError):
        shared.values[0, 0] = 1.0
    for dev_id, views in received.items():
        # every recipient, PART device 1 too, holds the one block
        assert views.user_views is shared
        assert np.shares_memory(views.user_views.values, shared.values)
        assert np.array_equal(views.own_view, user_views[dev_id])
        # outside the block, nothing holds more than one user row
        assert [f.name for f in fields(views)] == ["user_views", "own_view", "item_views"]
        assert views.own_view.shape == (4,)
        assert not np.shares_memory(views.own_view, shared.values)


def test_audit_violations_detected():
    policy = make_policy()
    audit = AuditLog()
    audit.log_upload(0, 0, ShareTier.NONE)
    audit.log_exchange(0, [2], [1])  # PART view of user 1 sent to device 2
    audit.log_exchange(0, [0], [])  # NONE user 0 got its view
    problems = audit.violations(policy)
    assert len(problems) == 3


def exchange(recipients, broadcast, round_idx=0):
    return {"event": "exchange", "round": round_idx, "recipients": recipients, "broadcast": broadcast}


def upload(user, round_idx):
    return {"event": "upload", "round": round_idx, "user": user, "tier": TIERS[user].name.lower()}


USER_IDS = st.integers(0, len(TIERS) - 1)
ID_SETS = st.lists(USER_IDS, unique=True, max_size=len(TIERS)).map(sorted)
# an exchange record always names a recipient: a round that sends nothing logs nothing
EVENTS = st.integers(0, 3).flatmap(
    lambda r: st.builds(upload, USER_IDS, st.just(r))
    | st.builds(exchange, ID_SETS.filter(bool), ID_SETS, st.just(r))
)


@settings(max_examples=200, deadline=None)
@given(
    tiers=st.lists(st.sampled_from(list(ShareTier)), min_size=len(TIERS), max_size=len(TIERS)),
    events=st.lists(EVENTS, max_size=6),
)
@example(tiers=TIERS, events=[exchange([1], [1])])  # a PART owner broadcast only to itself: clean
@example(tiers=TIERS, events=[exchange([0, 2], [2, 3])])  # a NONE recipient
@example(tiers=TIERS, events=[exchange([0, 1, 2], [])])  # an empty broadcast
@example(tiers=TIERS, events=[exchange([1, 2, 3], [0, 1, 2, 3])])  # owners that are also recipients
def test_audit_violations_match_per_event_reference(tiers, events):
    policy = SharePolicy(ratio=np.array([RATIO_OF[t] for t in tiers]))
    audit = AuditLog(events=events)
    assert set(audit.violations(policy)) == set(violations_per_event(events, policy))


# ---------------------------------------------------------------- absorb


def test_absorb_uploads_stores_and_audits():
    policy, server = make_server()
    audit = AuditLog()
    view = np.ones(4)
    server.absorb_uploads([DeviceUpload(2, 2.0, GradientBundle(), user_view=view)], policy, 1, audit)
    assert server.uploaded.rows.tolist() == [2]
    view[0] = 99.0  # absorbed copy must not alias
    assert server.uploaded.values[0, 0] == 1.0
    assert audit.events == [{"event": "upload", "round": 1, "user": 2, "tier": "all"}]


def test_absorb_rejects_none_tier_view():
    policy, server = make_server()
    with pytest.raises(ValueError):
        server.absorb_uploads([DeviceUpload(0, 1.0, GradientBundle(), user_view=np.ones(4))], policy, 0, AuditLog())


def test_absorb_skips_viewless_uploads():
    policy, server = make_server()
    server.absorb_uploads([DeviceUpload(0, 1.0, GradientBundle())], policy, 0, AuditLog())
    assert len(server.uploaded) == 0


def test_absorb_uploads_keeps_latest_view_over_rounds():
    policy, server = make_server()
    rng = np.random.default_rng(12)
    latest = {}  # the reference: device -> its last uploaded view
    # device 3 uploads twice in the last round: its second view wins
    for round_idx, devices in enumerate([[2, 3], [1], [3, 1, 3]]):
        uploads = [DeviceUpload(d, 1.0, GradientBundle(), user_view=rng.normal(size=4)) for d in devices]
        uploads.append(DeviceUpload(0, 1.0, GradientBundle()))  # the NONE device uploads no view
        server.absorb_uploads(uploads, policy, round_idx, AuditLog())
        latest.update((up.device_id, up.user_view) for up in uploads if up.user_view is not None)
        assert server.uploaded.rows.tolist() == sorted(latest)
        for row, values in zip(server.uploaded.rows.tolist(), server.uploaded.values):
            assert np.array_equal(values, latest[row])
    with pytest.raises(ValueError, match="NONE user 0"):
        server.absorb_uploads([DeviceUpload(0, 1.0, GradientBundle(), user_view=np.ones(4))], policy, 3, AuditLog())


# ---------------------------------------------------------------- graph


def test_build_server_graph_is_contributed_union():
    policy = make_policy()
    g = BipartiteGraph(4, 3, policy.contributed)
    assert sorted(map(tuple, g.edge_array())) == [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2)]
    assert g.user_deg[0] == 0  # NONE user absent


def test_server_infer_shapes():
    _, server = make_server()
    u, i = server_infer(server.graph, server.model, 3)
    assert u.shape == server.model.user.shape
    assert i.shape == server.model.item.shape


# ---------------------------------------------------------------- training


def test_server_train_produces_delta_upload():
    policy, server = make_server()
    rng = np.random.default_rng(5)
    server.uploaded = stored_views([2], rng)
    hyper = HyperParams(dim=4, server_batch=4)
    before = server.model.copy()
    upload, parts = server_train(server, hyper, 0, 42)
    # the base model is untouched; the step comes back as a delta upload
    assert np.array_equal(server.model.user, before.user)
    assert np.array_equal(server.model.item, before.item)
    assert upload.device_id == SERVER_ID
    assert upload.weight == 4.0
    assert upload.user_view is None
    assert upload.delta.user or upload.delta.item
    assert parts.total > 0.0
    assert server.moments.t_user == 1


def test_server_train_empty_graph_is_noop():
    policy = SharePolicy(np.zeros(2), ())
    g = BipartiteGraph(2, 2, policy.contributed)
    rng = np.random.default_rng(6)
    server = ServerState(
        model=EmbeddingState(rng.normal(size=(2, 3)), rng.normal(size=(2, 3))),
        graph=g,
        shared_graph=g,
    )
    assert server_train(server, HyperParams(dim=3), 0, 42) == (None, None)


def test_server_train_cl_uses_uploaded_views():
    _, server_a = make_server()
    _, server_b = make_server()
    rng = np.random.default_rng(7)
    # two uploaders so the user-side contrastive softmax has a real negative
    server_a.uploaded = stored_views([2, 3], rng)
    hyper = HyperParams(dim=4, server_batch=5)
    up_a, parts_a = server_train(server_a, hyper, 0, 42)
    up_b, parts_b = server_train(server_b, hyper, 0, 42)  # no uploads stored
    assert parts_a.cl != parts_b.cl
    # user rows beyond the batch users are never touched
    assert set(as_dict(up_a.delta.user)) <= {1, 2, 3}


def test_server_train_disable_cl():
    _, server = make_server()
    rng = np.random.default_rng(8)
    server.uploaded = stored_views([2], rng)
    # the ablation reaches the server as a zero cl_weight (prepare_run resolves it)
    _, parts = server_train(server, HyperParams(dim=4, cl_weight=0.0), 0, 42)
    assert parts.cl == 0.0


def test_server_train_deterministic():
    results = []
    for _ in range(2):
        _, server = make_server()
        rng = np.random.default_rng(9)
        server.uploaded = stored_views([3], rng)
        upload, parts = server_train(server, HyperParams(dim=4), 0, 42)
        results.append((upload, parts))
    (u1, p1), (u2, p2) = results
    assert p1.total == p2.total
    for block1, block2 in ((u1.delta.user, u2.delta.user), (u1.delta.item, u2.delta.item)):
        store1, store2 = as_dict(block1), as_dict(block2)
        assert set(store1) == set(store2)
        for row in store1:
            assert np.array_equal(store1[row], store2[row])


def test_server_train_with_given_views_is_bitwise_its_own_forward():
    hyper = HyperParams(dim=4, server_batch=5)
    results = []
    for given_views in (False, True):
        _, server = make_server()
        server.uploaded = stored_views([2, 3], np.random.default_rng(10))
        views = server_infer(server.graph, server.model, hyper.layers_server) if given_views else None
        results.append(server_train(server, hyper, 0, 42, views))
    (up_a, parts_a), (up_b, parts_b) = results
    assert parts_a == parts_b
    for block_a, block_b in ((up_a.delta.user, up_b.delta.user), (up_a.delta.item, up_b.delta.item)):
        assert np.array_equal(block_a.rows, block_b.rows)
        assert same_bits(block_a.values, block_b.values)


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 6),
    n_items=st.integers(1, 12),
    density=st.floats(0.0, 1.0),
    batch=st.integers(1, 30),
    seed=st.integers(0, 2**16),
)
@example(n_users=2, n_items=3, density=0.6, batch=12, seed=1)  # runs longer than the complement
@example(n_users=1, n_items=1, density=0.0, batch=3, seed=0)  # a one-item complement
def test_server_negatives_match_per_user_mask_loop(n_users, n_items, density, batch, seed):
    rng = np.random.default_rng(seed)
    pairs = [(u, i) for u in range(n_users) for i in range(n_items) if rng.random() < density]
    # every user keeps at least one item outside its row; user 0 keeps exactly one
    pairs = [(u, i) for u, i in pairs if i != n_items - 1] + [(0, i) for i in range(n_items - 1)]
    graph = BipartiteGraph(n_users, n_items, pairs)
    users = np.sort(rng.integers(0, n_users, size=batch))
    got_rng, want_rng = child_rng(seed, "neg"), child_rng(seed, "neg")
    got = _server_negatives(graph, users, got_rng)
    want = server_negatives_loop(graph, users, want_rng)
    assert same_bits(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_server_negatives_user_with_every_item_raises():
    graph = BipartiteGraph(2, 3, [(0, 0), (1, 0), (1, 1), (1, 2)])
    users = np.array([0, 1, 1])
    with pytest.raises(ValueError):
        server_negatives_loop(graph, users, np.random.default_rng(0))
    with pytest.raises(ValueError, match="user 1"):
        _server_negatives(graph, users, np.random.default_rng(0))


@pytest.mark.parametrize("case", ["tail-shuffle", "one-item-complement", "runs-longer-than-complement"])
def test_server_negatives_branches_match_per_user_mask_loop(case):
    if case == "tail-shuffle":
        # one run of 300 over a complement of 10,010 items: numpy shuffles
        # the tail of the complement's range (c > 10,000 and n > c // 50)
        graph = BipartiteGraph(2, 10_050, [(0, i) for i in range(0, 400, 10)] + [(1, 0)])
        users = np.zeros(300, dtype=np.int64)
        assert graph.n_items - graph.user_deg[0] == 10_010
    elif case == "one-item-complement":
        graph = BipartiteGraph(3, 4, [(0, 0), (0, 1), (0, 3), (1, 2), (2, 1), (2, 2), (2, 3)])
        users = np.array([0, 1, 1, 2])
        assert (graph.n_items - graph.user_deg).tolist() == [1, 3, 1]
    else:
        graph = BipartiteGraph(3, 6, [(0, i) for i in range(4)] + [(1, 5), (2, 0), (2, 2)])
        users = np.repeat([0, 1, 2], [7, 9, 5])
        assert (graph.n_items - graph.user_deg).tolist() == [2, 5, 4]
    for seed in range(4):
        got_rng, want_rng = child_rng(seed, "neg"), child_rng(seed, "neg")
        got = _server_negatives(graph, users, got_rng)
        assert same_bits(got, server_negatives_loop(graph, users, want_rng))
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_server_batch_runs_longer_than_the_complement_in_a_toy_run():
    # the toy config of the CI smoke step that trains with the draws of
    # rng.choice with replacement: 10 items, one cluster, every user sharing all
    config = cli.parse_config(None, {
        "synth_users": 40, "synth_items": 10, "synth_clusters": 1, "synth_density": 0.6,
        "split_train": 6, "split_val": 2, "split_test": 2,
        "share_mode": "fixed", "share_ratio": 1.0, "rounds": 2, "mend_epochs": 2,
    })
    ctx = prepare_run(cli.load_run_dataset(config), config.hyper(), **cli._prepare_kwargs(config))
    with mock.patch.object(server_module, "choice_runs", side_effect=choice_runs) as spy:
        run_round(ctx, 1)
    (_, free, counts), _ = spy.call_args
    assert (free >= 1).all() and (counts > free).any() and (counts <= free).any()


def test_first_order_item_views_match_full_propagation():
    _, server = make_server()
    items = np.array([0, 2])
    _, want = propagate_combine(server.shared_graph, server.model.user, server.model.item, default_alpha(1))
    assert same_bits(_first_order_item_views(server.shared_graph, server.model, items), want[items])


# ---------------------------------------------------------------- ldp


def make_upload(seed=0):
    rng = np.random.default_rng(seed)
    delta = bundle_of(
        user={0: rng.normal(size=4), 2: rng.normal(size=4) * 10},
        item={1: rng.normal(size=4) * 0.01},
    )
    return DeviceUpload(0, 3.0, delta, user_view=rng.normal(size=4))


def test_ldp_disabled_is_bit_identical():
    up = make_upload()
    rng = np.random.default_rng(0)
    out = apply_ldp(up, 0.0, 0.0, rng)
    for block_in, block_out in ((up.delta.user, out.delta.user), (up.delta.item, out.delta.item)):
        store_in, store_out = as_dict(block_in), as_dict(block_out)
        assert set(store_in) == set(store_out)
        for row in store_in:
            assert np.array_equal(store_in[row], store_out[row])
    # no randomness consumed: the generator state is untouched
    assert rng.integers(1 << 30) == np.random.default_rng(0).integers(1 << 30)
    assert out.weight == up.weight
    assert np.array_equal(out.user_view, up.user_view)


def test_ldp_clip_bounds_row_norms():
    up = make_upload()
    out = apply_ldp(up, 0.5, 0.0, np.random.default_rng(1))
    for block in (out.delta.user, out.delta.item):
        for vec in block.values:
            assert np.linalg.norm(vec) <= 0.5 + 1e-12
    # rows already inside the ball are unchanged
    assert np.array_equal(as_dict(out.delta.item)[1], as_dict(up.delta.item)[1])
    # clipped rows preserve direction
    orig = as_dict(up.delta.user)[2]
    clipped = as_dict(out.delta.user)[2]
    assert np.allclose(clipped / np.linalg.norm(clipped), orig / np.linalg.norm(orig))


def test_ldp_noise_distribution():
    zero = DeviceUpload(0, 1.0, bundle_of(user={0: np.zeros(100_000)}))
    b = 0.2
    out = apply_ldp(zero, 0.0, b, np.random.default_rng(2))
    noise = as_dict(out.delta.user)[0]
    assert abs(float(np.mean(noise))) < 0.01
    assert float(np.var(noise)) == pytest.approx(2 * b * b, rel=0.05)


def test_ldp_deterministic_given_rng():
    up = make_upload()
    a = apply_ldp(up, 0.5, 0.1, np.random.default_rng(3))
    b = apply_ldp(up, 0.5, 0.1, np.random.default_rng(3))
    for row in as_dict(a.delta.user):
        assert np.array_equal(as_dict(a.delta.user)[row], as_dict(b.delta.user)[row])


def test_ldp_does_not_mutate_input():
    up = make_upload()
    frozen = {r: v.copy() for r, v in as_dict(up.delta.user).items()}
    apply_ldp(up, 0.1, 0.5, np.random.default_rng(4))
    for row, vec in as_dict(up.delta.user).items():
        assert np.array_equal(vec, frozen[row])


# ---------------------------------------------------------------- fedavg


def test_fedavg_weighted_average_oracle():
    base = EmbeddingState(np.zeros((2, 2)), np.zeros((1, 2)))
    b1 = bundle_of(user={0: np.array([1.0, 0.0])})
    b2 = bundle_of(user={0: np.array([0.0, 1.0])})
    out = fedavg_aggregate([(b1, 1.0), (b2, 3.0)], base)
    assert np.allclose(out.user[0], [0.25, 0.75])
    assert np.array_equal(out.user[1], [0.0, 0.0])
    assert np.array_equal(base.user[0], [0.0, 0.0])  # base untouched


def test_fedavg_single_upload_passthrough():
    rng = np.random.default_rng(10)
    base = EmbeddingState(rng.normal(size=(2, 3)), rng.normal(size=(2, 3)))
    delta = bundle_of(item={1: np.array([1.0, -2.0, 3.0])})
    out = fedavg_aggregate([(delta, 7.0)], base)
    assert np.allclose(out.item[1], base.item[1] + as_dict(delta.item)[1])
    assert np.array_equal(out.user, base.user)


def test_fedavg_zero_weight_rows_unchanged():
    base = EmbeddingState(np.ones((1, 2)), np.ones((1, 2)))
    out = fedavg_aggregate([(bundle_of(user={0: np.array([5.0, 5.0])}), 0.0)], base)
    assert np.array_equal(out.user[0], [1.0, 1.0])


def test_fedavg_empty_uploads_identity():
    rng = np.random.default_rng(11)
    base = EmbeddingState(rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))
    out = fedavg_aggregate([], base)
    assert np.array_equal(out.user, base.user) and np.array_equal(out.item, base.item)


def test_fedavg_convex_combination_property():
    rng = np.random.default_rng(12)
    for _ in range(50):
        base = EmbeddingState(rng.normal(size=(1, 3)), np.zeros((1, 3)))
        deltas = [rng.normal(size=3) for _ in range(4)]
        weights = rng.uniform(0.1, 5.0, size=4)
        uploads = [(bundle_of(user={0: d}), float(w)) for d, w in zip(deltas, weights)]
        out = fedavg_aggregate(uploads, base)
        moved = out.user[0] - base.user[0]
        lo = np.min(np.stack(deltas), axis=0) - 1e-12
        hi = np.max(np.stack(deltas), axis=0) + 1e-12
        assert np.all(moved >= lo) and np.all(moved <= hi)
