from dataclasses import replace

import numpy as np
import pytest

import fedgcf.client
from fedgcf.client import (
    DeviceState,
    DeviceUpload,
    ReceivedViews,
    client_local_train,
    sample_negatives,
)
from fedgcf.data import ShareTier
from fedgcf.graph import BipartiteGraph, EgoGraph, default_alpha
from fedgcf.learn import AdamMoments, HyperParams, compute_gradients

from oracles import as_dict, block_of, same_bits


def make_device(user_id=3, items=(0, 2, 5), dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return DeviceState(user_id=user_id, local_items=np.array(items, dtype=np.int64), p_u=rng.normal(size=dim))


def make_table(n_items=8, dim=6, seed=1):
    return np.random.default_rng(seed).normal(size=(n_items, dim))


def make_views(dev, item_table, extra_users=(7,), dim=6, seed=2):
    rng = np.random.default_rng(seed)
    user_views = {dev.user_id: rng.normal(size=dim)}
    for u in extra_users:
        user_views[u] = rng.normal(size=dim)
    item_views = {i: rng.normal(size=dim) for i in dev.local_items.tolist()}
    return ReceivedViews(user_views=block_of(user_views), item_views=block_of(item_views))


HYPER = HyperParams(dim=6, learning_rate=0.01, local_epochs=1)


# ---------------------------------------------------------------- negatives


def test_sample_negatives_excludes_interacted():
    rng = np.random.default_rng(0)
    for _ in range(20):
        negs = sample_negatives(np.array([0, 2, 4]), 5, 10, rng)
        assert negs.shape == (5,)
        assert not set(negs.tolist()) & {0, 2, 4}


def test_sample_negatives_without_replacement_when_possible():
    rng = np.random.default_rng(1)
    negs = sample_negatives(np.array([0]), 4, 5, rng)
    assert sorted(negs.tolist()) == [1, 2, 3, 4]


def test_sample_negatives_replacement_fallback():
    rng = np.random.default_rng(2)
    negs = sample_negatives(np.array([0, 1, 2]), 6, 5, rng)
    assert negs.shape == (6,)
    assert set(negs.tolist()) <= {3, 4}


def test_sample_negatives_exhausted_raises():
    with pytest.raises(ValueError):
        sample_negatives(np.arange(5), 1, 5, np.random.default_rng(3))


def test_sample_negatives_zero_k():
    assert sample_negatives(np.array([0]), 0, 3, np.random.default_rng(4)).size == 0


# ---------------------------------------------------------------- training


def test_broadcast_table_never_mutated():
    dev = make_device()
    table = make_table()
    frozen = table.copy()
    client_local_train(dev, table, ShareTier.ALL, make_views(dev, table), HYPER, 0, 42)
    assert np.array_equal(table, frozen)


def test_upload_rows_limited_to_touched_ids():
    dev = make_device(items=(0, 2, 5))
    table = make_table()
    upload, _ = client_local_train(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert set(as_dict(upload.delta.user)) <= {dev.user_id}
    # item deltas only for local items or sampled negatives (never others is
    # hard to pin without replaying rng; at minimum all locals are touched
    # and every key is a valid item id)
    assert set(dev.local_items) <= set(as_dict(upload.delta.item))
    assert all(0 <= gid < table.shape[0] for gid in as_dict(upload.delta.item))


def test_delta_reproduces_final_state():
    dev = make_device()
    p_start = dev.p_u.copy()
    table = make_table()
    upload, _ = client_local_train(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert np.allclose(p_start + as_dict(upload.delta.user)[dev.user_id], dev.p_u, atol=1e-15)


def test_weight_is_pairs_times_epochs():
    dev = make_device(items=(0, 2, 5))
    table = make_table()
    up1, _ = client_local_train(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert up1.weight == 3.0
    dev2 = make_device(items=(0, 2, 5))
    hyper2 = HyperParams(dim=6, learning_rate=0.01, local_epochs=2)
    up2, _ = client_local_train(dev2, table, ShareTier.NONE, None, hyper2, 0, 42)
    assert up2.weight == 6.0


def test_none_tier_ignores_received_views():
    table = make_table()
    dev_a = make_device()
    dev_b = make_device()
    views = make_views(dev_a, table)
    up_a, loss_a = client_local_train(dev_a, table, ShareTier.NONE, views, HYPER, 0, 42)
    up_b, loss_b = client_local_train(dev_b, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert up_a.user_view is None
    assert loss_a.cl == 0.0
    assert np.array_equal(dev_a.p_u, dev_b.p_u)
    items_a, items_b = as_dict(up_a.delta.item), as_dict(up_b.delta.item)
    assert set(items_a) == set(items_b)
    for gid in items_a:
        assert np.array_equal(items_a[gid], items_b[gid])


def test_sharer_gets_contrastive_loss_and_view():
    table = make_table()
    dev = make_device()
    views = make_views(dev, table)
    upload, loss = client_local_train(dev, table, ShareTier.ALL, views, HYPER, 0, 42)
    assert loss.cl > 0.0
    assert upload.user_view is not None
    # the uploaded view is the ego-combined view of the *final* local rows
    final_rows = np.stack(
        [table[i] + as_dict(upload.delta.item).get(i, 0.0) for i in dev.local_items]
    )
    ego = EgoGraph(np.arange(len(final_rows)), len(final_rows))
    want, _ = ego.combine(dev.p_u[None, :], final_rows, default_alpha(1))
    assert np.allclose(upload.user_view, want[0], atol=1e-12)


def test_sharer_without_received_views_trains_plain_bpr():
    table = make_table()
    dev = make_device()
    upload, loss = client_local_train(dev, table, ShareTier.PART, None, HYPER, 0, 42)
    assert loss.cl == 0.0
    assert upload.user_view is not None  # sharers always attach their view


def test_empty_received_views_disable_contrastive():
    table = make_table()
    dev = make_device()
    _, loss = client_local_train(dev, table, ShareTier.ALL, ReceivedViews(), HYPER, 0, 42)
    assert loss.cl == 0.0


def test_missing_own_positive_rejected():
    table = make_table()
    dev = make_device(user_id=3)
    views = ReceivedViews(user_views=block_of({9: np.ones(6)}))
    with pytest.raises(ValueError):
        client_local_train(dev, table, ShareTier.ALL, views, HYPER, 0, 42)


def test_contrastive_changes_training():
    table = make_table()
    dev_cl = make_device()
    dev_plain = make_device()
    views = make_views(dev_cl, table)
    client_local_train(dev_cl, table, ShareTier.ALL, views, HYPER, 0, 42)
    client_local_train(dev_plain, table, ShareTier.ALL, None, HYPER, 0, 42)
    assert not np.array_equal(dev_cl.p_u, dev_plain.p_u)


def test_training_deterministic():
    table = make_table()
    ups = []
    for _ in range(2):
        dev = make_device()
        views = make_views(dev, table)
        up, _ = client_local_train(dev, table, ShareTier.ALL, views, HYPER, 0, 42)
        ups.append((up, dev.p_u.copy()))
    (u1, p1), (u2, p2) = ups
    assert np.array_equal(p1, p2)
    items_1, items_2 = as_dict(u1.delta.item), as_dict(u2.delta.item)
    assert set(items_1) == set(items_2)
    for gid in items_1:
        assert np.array_equal(items_1[gid], items_2[gid])
    assert np.array_equal(u1.user_view, u2.user_view)


def test_round_and_seed_vary_negatives():
    table = make_table()
    dev_a = make_device()
    dev_b = make_device()
    client_local_train(dev_a, table, ShareTier.NONE, None, HYPER, 0, 42)
    client_local_train(dev_b, table, ShareTier.NONE, None, HYPER, 1, 42)
    assert not np.array_equal(dev_a.p_u, dev_b.p_u)  # different negative draws


def test_multi_epoch_accumulates_on_private_copies():
    table = make_table()
    frozen = table.copy()
    dev = make_device()
    hyper = HyperParams(dim=6, learning_rate=0.01, local_epochs=3)
    upload, loss = client_local_train(dev, table, ShareTier.NONE, None, hyper, 0, 42)
    assert np.array_equal(table, frozen)
    assert dev.moments.t_user == 3 and dev.moments.t_item == 3
    assert loss.total > 0.0


def test_device_without_items_still_regularizes():
    table = make_table()
    dev = make_device(items=())
    upload, loss = client_local_train(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert upload.weight == 0.0
    assert not upload.delta.item
    assert loss.bpr == 0.0 and loss.reg > 0.0


@pytest.mark.parametrize("with_views", [True, False], ids=["views", "no-views"])
@pytest.mark.parametrize("items", [(0, 2, 5), tuple(range(1, 40, 3)), ()], ids=["k3", "k13", "k0"])
def test_device_steps_are_bitwise_the_bipartite_star(monkeypatch, with_views, items):
    # every device step is also run on its ego graph built as a
    # BipartiteGraph; losses and gradient bundles must agree bit for bit
    table = make_table(n_items=48)
    dev = make_device(items=items)
    views = make_views(dev, table) if with_views else None
    steps = []

    def on_both_graphs(spec, state):
        star = BipartiteGraph(1, spec.graph.n_items, [(0, p) for p in spec.graph.pos])
        got = compute_gradients(spec, state)
        steps.append((got, compute_gradients(replace(spec, graph=star), state)))
        return got

    monkeypatch.setattr(fedgcf.client, "compute_gradients", on_both_graphs)
    hyper = HyperParams(dim=6, learning_rate=0.01, local_epochs=4)
    for round_idx in range(2):
        client_local_train(dev, table, ShareTier.ALL, views, hyper, round_idx, 42)
    assert len(steps) == 8
    assert any(parts.cl > 0.0 for (parts, _), _ in steps) == with_views
    for (parts, bundle), (want_parts, want_bundle) in steps:
        assert parts == want_parts
        for block, want in ((bundle.user, want_bundle.user), (bundle.item, want_bundle.item)):
            assert same_bits(block.rows, want.rows) and same_bits(block.values, want.values)


def test_moments_persist_across_rounds():
    table = make_table()
    dev = make_device()
    client_local_train(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    t_after_first = dev.moments.t_user
    client_local_train(dev, table, ShareTier.NONE, None, HYPER, 1, 42)
    assert dev.moments.t_user == t_after_first + 1
    assert dev.user_id in as_dict(dev.moments.user)
