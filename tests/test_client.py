import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedgcf.client
import fedgcf.graph
from fedgcf.client import (
    DeviceTable,
    ReceivedViews,
    client_local_train,
)
from fedgcf.data import ShareTier
from fedgcf.graph import BipartiteGraph, EgoGraph, default_alpha
from fedgcf.learn import AdamMoments, HyperParams, LossParts, RowBlock, compute_gradients

from oracles import as_dict, block_of, client_train_one, same_bits, sample_negatives, server_negatives_loop


@dataclass
class Device:
    """One device of a ``DeviceTable``, read through the table."""

    table: DeviceTable
    user_id: int

    @property
    def local_items(self):
        return self.table.local_items(self.user_id)

    @property
    def p_u(self):
        return self.table.p_u[self.user_id]


def make_devices(specs, dim=6, n_users=None):
    """One table holding devices ``(user_id, items, seed)``, each with its
    own random row; the table's other users hold no items."""
    ids = [u for u, _, _ in specs]
    p_u = np.zeros((n_users or max(ids) + 1, dim))
    for u, _, seed in specs:
        p_u[u] = np.random.default_rng(seed).normal(size=dim)
    train = np.array([(u, i) for u, items, _ in specs for i in items], dtype=np.int64).reshape(-1, 2)
    table = DeviceTable(p_u, train[np.lexsort((train[:, 1], train[:, 0]))])
    return [Device(table, u) for u in ids]


def make_device(user_id=3, items=(0, 2, 5), dim=6, seed=0):
    return make_devices([(user_id, items, seed)], dim)[0]


def train_devices(devs, table, tiers, views, hyper, round_idx, seed):
    """``client_local_train`` on a selection of devices of one table."""
    users = np.array([dev.user_id for dev in devs], dtype=np.int64)
    return client_local_train(devs[0].table, users, table, tiers, views, hyper, round_idx, seed)


def make_table(n_items=8, dim=6, seed=1):
    return np.random.default_rng(seed).normal(size=(n_items, dim))


# the round's one block of full contributors' views, the same object for
# every device: user 5 is inside it, the other test devices are not
SHARED = RowBlock(np.array([5, 7]), np.random.default_rng(7).normal(size=(2, 6)))


def make_views(dev, item_table, dim=6, seed=2):
    """Views as the exchange hands them out: the shared block, the device's
    own view (its row of the block when it has one) and views of its local
    items."""
    rng = np.random.default_rng(seed)
    own_view = rng.normal(size=dim)
    inside = np.flatnonzero(SHARED.rows == dev.user_id)
    if inside.size:
        own_view = SHARED.values[inside[0]]
    item_views = {i: rng.normal(size=dim) for i in dev.local_items.tolist()}
    return ReceivedViews(SHARED, own_view, block_of(item_views))


HYPER = HyperParams(dim=6, learning_rate=0.01, local_epochs=1)


def train_one(dev, table, tier, views, hyper, round_idx, seed):
    """``client_local_train`` on a selection of one device."""
    (upload,), (loss,) = train_devices([dev], table, [tier], [views], hyper, round_idx, seed)
    return upload, loss


# ---------------------------------------------------------------- negatives
#
# ``sample_negatives`` is the oracles' one-device draw, which indexes the
# complement itself; the chunk's draw (``_Chunk.negatives``) is pinned to
# it below.


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


@settings(max_examples=100, deadline=None)
@given(
    interacted=st.lists(st.integers(0, 11), max_size=11),  # any order, repeats allowed
    k=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
@example(interacted=[3, 1, 3, 0], k=4, seed=0)
def test_sample_negatives_match_mask_draw(interacted, k, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = sample_negatives(np.array(interacted, dtype=np.int64), k, 12, got_rng)
    row = BipartiteGraph(1, 12, [(0, i) for i in interacted])
    want = server_negatives_loop(row, np.zeros(k, dtype=np.int64), want_rng)
    assert same_bits(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def chunk_of(item_sets, n_items=12, dim=4):
    """A ``_Chunk`` of devices 0, 1, ... holding ``item_sets``, no views."""
    devs = make_devices([(u, items, u) for u, items in enumerate(item_sets)], dim)
    users = np.array([dev.user_id for dev in devs], dtype=np.int64)
    hyper = HyperParams(dim=dim)
    return fedgcf.client._Chunk(devs[0].table, users, np.zeros((n_items, dim)), [None] * users.size, hyper)


@settings(max_examples=100, deadline=None)
@given(
    item_sets=st.lists(st.sets(st.integers(0, 11), max_size=11), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
@example(item_sets=[{0, 2, 5}, set(range(1, 10)), set(), {11}], seed=0)
def test_chunk_negatives_are_each_devices_draw(item_sets, seed):
    # devices holding more than 6 of the 12 items draw with replacement
    chunk = chunk_of([sorted(items) for items in item_sets])
    got = chunk.negatives([np.random.default_rng(seed + j) for j in range(len(item_sets))])
    want = [
        j * 12 + sample_negatives(np.array(sorted(items), dtype=np.int64), len(items), 12, np.random.default_rng(seed + j))
        for j, items in enumerate(item_sets)
    ]
    assert same_bits(got, np.concatenate(want).astype(np.int64))


def test_chunk_negatives_raise_for_a_device_holding_every_item():
    chunk = chunk_of([[0, 3], list(range(12)), [5]])
    with pytest.raises(ValueError, match="user 1 interacted with every item"):
        chunk.negatives([np.random.default_rng(j) for j in range(3)])


# ---------------------------------------------------------------- training


def test_broadcast_table_never_mutated():
    dev = make_device()
    table = make_table()
    frozen = table.copy()
    train_one(dev, table, ShareTier.ALL, make_views(dev, table), HYPER, 0, 42)
    assert np.array_equal(table, frozen)


def test_upload_rows_limited_to_touched_ids():
    dev = make_device(items=(0, 2, 5))
    table = make_table()
    upload, _ = train_one(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
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
    upload, _ = train_one(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert np.allclose(p_start + as_dict(upload.delta.user)[dev.user_id], dev.p_u, atol=1e-15)


def test_weight_is_pairs_times_epochs():
    dev = make_device(items=(0, 2, 5))
    table = make_table()
    up1, _ = train_one(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert up1.weight == 3.0
    dev2 = make_device(items=(0, 2, 5))
    hyper2 = HyperParams(dim=6, learning_rate=0.01, local_epochs=2)
    up2, _ = train_one(dev2, table, ShareTier.NONE, None, hyper2, 0, 42)
    assert up2.weight == 6.0


def test_none_tier_ignores_received_views():
    table = make_table()
    dev_a = make_device()
    dev_b = make_device()
    views = make_views(dev_a, table)
    up_a, loss_a = train_one(dev_a, table, ShareTier.NONE, views, HYPER, 0, 42)
    up_b, loss_b = train_one(dev_b, table, ShareTier.NONE, None, HYPER, 0, 42)
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
    upload, loss = train_one(dev, table, ShareTier.ALL, views, HYPER, 0, 42)
    assert loss.cl > 0.0
    assert upload.user_view is not None
    # the uploaded view is the ego-combined view of the *final* local rows
    final_rows = np.stack(
        [table[i] + as_dict(upload.delta.item).get(i, 0.0) for i in dev.local_items]
    )
    ego = EgoGraph([0, len(final_rows)])
    want, _ = ego.combine(dev.p_u[None, :], final_rows, default_alpha(1))
    assert np.allclose(upload.user_view, want[0], atol=1e-12)


def test_sharer_without_received_views_trains_plain_bpr():
    table = make_table()
    dev = make_device()
    upload, loss = train_one(dev, table, ShareTier.PART, None, HYPER, 0, 42)
    assert loss.cl == 0.0
    assert upload.user_view is not None  # sharers always attach their view


def test_empty_received_views_disable_contrastive():
    # an empty block and no item views leave the own view as the only key:
    # a softmax over one key is exactly zero, and so is its gradient
    table = make_table()
    dev, plain = make_device(), make_device()
    views = ReceivedViews(RowBlock(values=np.zeros((0, 6))), np.ones(6), RowBlock())
    _, loss = train_one(dev, table, ShareTier.ALL, views, HYPER, 0, 42)
    train_one(plain, table, ShareTier.ALL, None, HYPER, 0, 42)
    assert loss.cl == 0.0
    assert np.array_equal(dev.p_u, plain.p_u)


def test_contrastive_changes_training():
    table = make_table()
    dev_cl = make_device()
    dev_plain = make_device()
    views = make_views(dev_cl, table)
    train_one(dev_cl, table, ShareTier.ALL, views, HYPER, 0, 42)
    train_one(dev_plain, table, ShareTier.ALL, None, HYPER, 0, 42)
    assert not np.array_equal(dev_cl.p_u, dev_plain.p_u)


def test_training_deterministic():
    table = make_table()
    ups = []
    for _ in range(2):
        dev = make_device()
        views = make_views(dev, table)
        up, _ = train_one(dev, table, ShareTier.ALL, views, HYPER, 0, 42)
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
    train_one(dev_a, table, ShareTier.NONE, None, HYPER, 0, 42)
    train_one(dev_b, table, ShareTier.NONE, None, HYPER, 1, 42)
    assert not np.array_equal(dev_a.p_u, dev_b.p_u)  # different negative draws


def test_multi_epoch_accumulates_on_private_copies():
    table = make_table()
    frozen = table.copy()
    dev = make_device()
    hyper = HyperParams(dim=6, learning_rate=0.01, local_epochs=3)
    upload, loss = train_one(dev, table, ShareTier.NONE, None, hyper, 0, 42)
    assert np.array_equal(table, frozen)
    assert dev.table.t_user[dev.user_id] == 3 and dev.table.t_item[dev.user_id] == 3
    assert loss.total > 0.0


def test_device_without_items_still_regularizes():
    table = make_table()
    dev = make_device(items=())
    upload, loss = train_one(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    assert upload.weight == 0.0
    assert not upload.delta.item
    assert loss.bpr == 0.0 and loss.reg > 0.0


def star_terms(spec, j):
    """``spec`` with only star j's terms: its BPR triplets, its entries of
    the stacked contrastive terms and its regularized rows."""
    owner = spec.graph.item_owner
    keep = spec.bpr_users == j
    terms = []
    for term in spec.cl_terms:
        first = term.rows[:, 0] if term.kind == "user" else owner[term.rows[:, 0]]
        b = np.flatnonzero(first == j)
        if b.size:
            shared = term.fixed_ids.ndim == 1
            fixed_ids = term.fixed_ids if shared else term.fixed_ids[b]
            fixed_views = term.fixed_views if shared else term.fixed_views[b]
            terms.append(replace(term, rows=term.rows[b], ids=term.ids[b], fixed_ids=fixed_ids, fixed_views=fixed_views))
    return replace(
        spec,
        bpr_users=spec.bpr_users[keep],
        bpr_pos=spec.bpr_pos[keep],
        bpr_neg=spec.bpr_neg[keep],
        cl_terms=terms,
        reg_user_rows=np.array([j]),
        reg_item_rows=np.flatnonzero(owner == j),
    )


@pytest.mark.parametrize("with_views", [True, False], ids=["views", "no-views"])
@pytest.mark.parametrize("items", [(0, 2, 5), tuple(range(1, 40, 3)), ()], ids=["k3", "k13", "k0"])
def test_device_steps_are_bitwise_the_bipartite_star(monkeypatch, with_views, items):
    # every batched step is also run on its forest of stars built as one
    # BipartiteGraph: gradient bundles must agree bit for bit, and each
    # star's losses must equal the graph's losses of that star's terms alone
    table = make_table(n_items=48)
    devs = make_devices([(3, items, 0), (5, (1, 4), 1), (8, (7,), 2)])
    views = [make_views(dev, table) if with_views else None for dev in devs]
    steps = []

    def on_both_graphs(spec, state):
        forest = spec.graph
        owner = forest.item_owner[forest.pos]
        graph = BipartiteGraph(forest.n_users, forest.n_items, np.stack([owner, forest.pos], axis=1))
        got = compute_gradients(spec, state)
        stars = [compute_gradients(replace(star_terms(spec, j), graph=graph), state)[0] for j in range(forest.n_users)]
        steps.append((got, compute_gradients(replace(spec, graph=graph), state)[1], stars))
        return got

    monkeypatch.setattr(fedgcf.client, "compute_gradients", on_both_graphs)
    hyper = HyperParams(dim=6, learning_rate=0.01, local_epochs=4)
    for round_idx in range(2):
        train_devices(devs, table, [ShareTier.ALL] * 3, views, hyper, round_idx, 42)
    assert len(steps) == 8
    assert any(parts.cl[0] > 0.0 for (parts, _), _, _ in steps) == with_views
    for (parts, bundle), want_bundle, stars in steps:
        for j, want in enumerate(stars):
            assert LossParts(*(getattr(parts, name)[j] for name in ("bpr", "cl", "mend", "reg", "total"))) == want
        for block, want in ((bundle.user, want_bundle.user), (bundle.item, want_bundle.item)):
            assert same_bits(block.rows, want.rows) and same_bits(block.values, want.values)


def test_chunk_rows_count_the_shared_block_once_per_outsider():
    # devices 3 and 8 stack the shared block's 2 rows and their own; device
    # 5 is inside the block, takes it as it is and holds one row of 2
    # logits, a third of a row at d = 6; a NONE-tier device and one without
    # views hold no user keys
    table = make_table()
    devs = make_devices([(3, (0, 2, 5), 0), (5, (1, 4), 1), (8, (7,), 2), (9, (3,), 3)])
    devices, users = devs[0].table, np.array([3, 5, 8, 9])
    views = [make_views(dev, table) for dev in devs[:3]] + [None]
    assert fedgcf.client._device_rows(devices, users, views).tolist() == [1 + 9 + 3, 1 + 6 + 1, 1 + 3 + 3, 1 + 3]
    assert fedgcf.client._device_rows(devices, users, [None] * 4).tolist() == [10, 7, 4, 4]
    # a block of 13 rows: outsiders hold 14 user keys, insiders 13 logits,
    # three rows of 6
    wide = RowBlock(np.array([5, *range(20, 32)]), np.zeros((13, 6)))
    views = [ReceivedViews(wide, np.zeros(6), RowBlock(values=np.zeros((0, 6)))) for _ in devs]
    assert fedgcf.client._device_rows(devices, users, views).tolist() == [10 + 14, 7 + 3, 4 + 14, 4 + 14]


def random_views(rng, dev, dim, shared):
    """Received views as the exchange hands them out: the shared block, the
    device's own view (its row of the block when it has one) and item views
    of its local items, sometimes only some of them."""
    inside = np.flatnonzero(shared.rows == dev.user_id)
    own_view = shared.values[inside[0]] if inside.size else rng.normal(size=dim)
    items = dev.local_items
    if items.size and rng.random() < 0.3:
        items = np.sort(rng.choice(items, size=int(rng.integers(0, items.size + 1)), replace=False))
    return ReceivedViews(shared, own_view, RowBlock(items, rng.normal(size=(items.size, dim))))


@settings(max_examples=100, deadline=None)
@given(
    n_devices=st.integers(1, 9),
    n_items=st.integers(2, 30),
    dim=st.sampled_from([1, 3, 8]),
    local_epochs=st.integers(1, 3),
    cl_weight=st.sampled_from([0.0, 0.3]),
    budget=st.sampled_from([1, 8, 40, 2**12]),
    descending=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_devices=4, n_items=5, dim=3, local_epochs=2, cl_weight=0.3, budget=8, descending=False, seed=0)
@example(n_devices=6, n_items=30, dim=8, local_epochs=3, cl_weight=0.3, budget=40, descending=False, seed=1)
@example(n_devices=9, n_items=12, dim=3, local_epochs=1, cl_weight=0.3, budget=40, descending=True, seed=2)
def test_batch_is_bitwise_the_single_device_oracle(
    n_devices, n_items, dim, local_epochs, cl_weight, budget, descending, seed
):
    # the whole selection trained at once, in chunks of ``budget`` rows,
    # equals each device trained alone: uploads, losses, rows and moments;
    # the chunks take the devices in ascending local-item count, however
    # the counts arrive, and the results come back in the devices' order
    rng = np.random.default_rng(seed)
    ids = np.sort(rng.choice(50, size=n_devices, replace=False))
    # up to n_items - 1 items, so that k > n_items - k forces negatives
    # drawn with replacement
    item_sets = [np.sort(rng.choice(n_items, size=int(rng.integers(0, n_items)), replace=False)) for _ in ids]
    if descending:
        item_sets.sort(key=len, reverse=True)
    specs = [(int(u), items, seed + j) for j, (u, items) in enumerate(zip(ids.tolist(), item_sets))]
    devs = make_devices(specs, dim, n_users=50)
    devices = devs[0].table
    count = {dev.user_id: dev.local_items.size for dev in devs}
    twins = [
        SimpleNamespace(user_id=dev.user_id, local_items=dev.local_items.copy(), p_u=dev.p_u.copy(), moments=AdamMoments())
        for dev in devs
    ]
    table = rng.normal(size=(n_items, dim))
    shared_ids = np.sort(rng.choice(ids, size=int(rng.integers(0, n_devices + 1)), replace=False))
    shared = RowBlock(shared_ids, rng.normal(size=(shared_ids.size, dim)))
    hyper = HyperParams(dim=dim, learning_rate=0.05, local_epochs=local_epochs, cl_weight=cl_weight)
    for round_idx in range(2):  # the second round starts from nonempty moments
        tiers = [ShareTier(int(t)) for t in rng.integers(0, 3, size=n_devices)]
        views = [random_views(rng, dev, dim, shared) if rng.random() < 0.8 else None for dev in devs]
        chunks = []

        def spy(devices, members, *args, chunk=fedgcf.client._Chunk):
            chunks.append(members.tolist())
            return chunk(devices, members, *args)

        with mock.patch.object(fedgcf.graph, "_ROW_BUDGET", budget), mock.patch.object(fedgcf.client, "_Chunk", spy):
            uploads, losses = train_devices(devs, table, tiers, views, hyper, round_idx, seed)
        trained = [u for members in chunks for u in members]
        assert sorted(trained) == ids.tolist()
        assert all(count[a] <= count[b] for a, b in zip(trained, trained[1:]))
        assert [up.device_id for up in uploads] == ids.tolist() and len(losses) == n_devices
        for j, twin in enumerate(twins):
            want_upload, want_loss = client_train_one(twin, table, tiers[j], views[j], hyper, round_idx, seed)
            got = uploads[j]
            assert got.device_id == want_upload.device_id and got.weight == want_upload.weight
            assert losses[j] == want_loss
            for block, want in ((got.delta.user, want_upload.delta.user), (got.delta.item, want_upload.delta.item)):
                assert same_bits(block.rows, want.rows) and same_bits(block.values, want.values)
            assert (got.user_view is None) == (want_upload.user_view is None)
            if got.user_view is not None:
                assert same_bits(got.user_view, want_upload.user_view)
            u = devs[j].user_id
            assert same_bits(devices.p_u[u], twin.p_u)
            assert (devices.t_user[u], devices.t_item[u]) == (twin.moments.t_user, twin.moments.t_item)
            # the user row's moments, zero before its first step
            want = twin.moments.user.values[0] if twin.moments.user else np.zeros((2, dim))
            assert same_bits(devices.moments_user[u], want)
            # the device's item moments, keyed u * n_items + item in the table
            store = devices.moments_item
            lo, hi = np.searchsorted(store.keys, [u * n_items, (u + 1) * n_items])
            assert same_bits(store.keys[lo:hi] - u * n_items, twin.moments.item.rows)
            assert same_bits(store.fetch(store.keys[lo:hi]).ravel(), twin.moments.item.values.ravel())


def test_moments_persist_across_rounds():
    table = make_table()
    dev = make_device()
    train_one(dev, table, ShareTier.NONE, None, HYPER, 0, 42)
    t_after_first = dev.table.t_user[dev.user_id]
    train_one(dev, table, ShareTier.NONE, None, HYPER, 1, 42)
    assert dev.table.t_user[dev.user_id] == t_after_first + 1
    assert np.any(dev.table.moments_user[dev.user_id] != 0.0)


def test_training_never_copies_the_moment_store():
    # a store of 50k item-moment rows (50 MB at d = 64) from devices that
    # do not train, then one call on three devices: what the call allocates
    # at its peak is bounded by its chunk's rows and one store page, not by
    # the store, so neither a fetch nor a write-back copies the store
    dim, n_items, n_users = 64, 100, 503
    rng = np.random.default_rng(0)
    specs = [(u, np.sort(rng.choice(n_items, size=10, replace=False)), u) for u in range(3)]
    devs = make_devices(specs, dim, n_users=n_users)
    devices = devs[0].table
    # each trainer already holds the moments of its first item, so the call
    # both updates stored rows and appends new ones
    store = devices.moments_item
    held = np.array([u * n_items + items[0] for u, items, _ in specs])
    store.write(held, np.ones((3, 2, dim)))
    keys = np.arange(3 * n_items, n_users * n_items)
    for lo in range(0, keys.size, 4096):
        store.write(keys[lo : lo + 4096], np.ones((keys[lo : lo + 4096].size, 2, dim)))
    assert len(store) >= 50_000
    table = make_table(n_items, dim)
    hyper = HyperParams(dim=dim, learning_rate=0.01, local_epochs=2)
    users = np.arange(3)
    chunk_rows = int(fedgcf.client._device_rows(devices, users, [None] * 3).sum())
    page_bytes = fedgcf.client._PAGE_ROWS * 2 * dim * 8
    store_bytes = len(store) * 2 * dim * 8

    tracemalloc.start()
    try:
        train_devices(devs, table, [ShareTier.NONE] * 3, [None] * 3, hyper, 0, 42)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a chunk row is d floats; its epochs hold a few dozen arrays of its
    # rows (rows, gradients, moments, their Adam temporaries). The call
    # peaks at about 2 MB here, and at a store of 100k rows too
    bound = 64 * chunk_rows * dim * 8 + page_bytes
    assert bound < store_bytes / 8
    assert peak < bound, (peak, bound)
    assert len(store) > 3 + keys.size and not np.any(store.fetch(held) == 1.0)
