import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedgcf.graph
import fedgcf.loop
from fedgcf.data import InteractionDataset, ShareTier, split_dataset, synth_dataset
from fedgcf.errors import DataFormatError
from fedgcf.learn import HyperParams
from fedgcf.loop import (
    device_views,
    eval_views,
    prepare_run,
    run_round,
    run_training,
    select_clients,
)

from oracles import device_views_loop, has_edge, pair_set, same_bits


def toy_dataset(seed=0):
    ds = synth_dataset(16, 20, 2, 0.5, seed=seed)
    return split_dataset(ds, seed=seed)


def held_out_dataset(seed=0):
    """40 users of 300 items at density 0.1, split 8/2/1: unlike
    ``toy_dataset``, whose users are too small to hold out a pair, most
    users have val pairs and some have test pairs."""
    return split_dataset(synth_dataset(40, 300, 4, 0.1, seed=seed), (8, 2, 1), seed=seed)


@pytest.fixture
def ranked(monkeypatch):
    """The number of users each ``evaluate`` call of a run ranks, per split."""
    counts = []
    real = fedgcf.loop.evaluate

    def counting(user_views, item_views, ds, split, *args):
        result = real(user_views, item_views, ds, split, *args)
        counts.append((split, len(result.per_user)))
        return result

    monkeypatch.setattr(fedgcf.loop, "evaluate", counting)
    return counts


def ranks_everywhere(counts, evals):
    """Every evaluation of ``evals`` ranked users in both splits."""
    return len(counts) == 2 * len(evals) and all(n > 0 for _, n in counts)


def toy_hyper(**kw):
    base = dict(
        dim=8,
        learning_rate=0.02,
        clients_per_round=6,
        rounds=3,
        mend_epochs=10,
        eval_k=5,
        eval_every=2,
    )
    base.update(kw)
    return HyperParams(**base)


# ---------------------------------------------------------------- select


def test_select_clients_deterministic_per_round():
    a = select_clients(50, 10, 3, seed=7)
    b = select_clients(50, 10, 3, seed=7)
    c = select_clients(50, 10, 4, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all(np.diff(a) > 0)  # ascending, distinct


def test_select_clients_clamps_and_empties():
    assert select_clients(5, 10, 0, seed=0).tolist() == [0, 1, 2, 3, 4]
    assert select_clients(5, 0, 0, seed=0).size == 0


# ---------------------------------------------------------------- prepare


def test_prepare_run_initializes_devices_from_model():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper(), seed_policy=1, seed_train=2)
    assert len(ctx.devices) == ds.n_users
    assert np.array_equal(ctx.devices.p_u, ctx.server.model.user)
    assert not np.shares_memory(ctx.devices.p_u, ctx.server.model.user)  # private copy
    for u in range(ds.n_users):
        assert ctx.devices[u].local_items.tolist() == sorted(i for uu, i in ds.train.tolist() if uu == u)
    # mended graph supersets the contributed graph
    shared = ctx.server.shared_graph
    assert ctx.server.graph.edge_count >= shared.edge_count
    for u, i in shared.edge_array():
        assert has_edge(ctx.server.graph, u, i)


def test_prepare_run_disable_gm_uses_contributed_graph():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper(), disable_gm=True)
    assert ctx.artifacts is None
    assert ctx.server.graph is ctx.server.shared_graph
    # the flag is the run's impair_fraction = 0, not a second rule
    assert ctx.hyper.impair_fraction == 0.0
    plain = prepare_run(ds, toy_hyper(impair_fraction=0.0))
    assert np.array_equal(ctx.server.graph.edge_array(), plain.server.graph.edge_array())
    assert same_bits(ctx.server.model.user, plain.server.model.user)
    assert same_bits(ctx.server.model.item, plain.server.model.item)


def test_prepare_run_fixed_share_policy():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper(), share_mode="fixed", share_ratio=1.0)
    assert all(c == ShareTier.ALL for c in ctx.policy.tier)
    ctx0 = prepare_run(ds, toy_hyper(), share_mode="fixed", share_ratio=0.0)
    assert all(c == ShareTier.NONE for c in ctx0.policy.tier)
    # nothing contributed: no mending possible, graph empty
    assert ctx0.server.graph.edge_count == 0


def test_prepare_run_disable_cl_zeroes_weight():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper(cl_weight=0.5), disable_cl=True)
    assert ctx.hyper.cl_weight == 0.0


def test_prepare_run_rejects_user_holding_every_item():
    # users 1 and 2 hold all four items, so their devices have no negatives
    train = {(0, 0), (0, 1)} | {(u, i) for u in (2, 1) for i in range(4)}
    ds = InteractionDataset(n_users=3, n_items=4, train=train)
    with pytest.raises(DataFormatError, match="user 1's train split holds all 4 items"):
        prepare_run(ds, toy_hyper())
    # no device trains in a server-only run
    assert prepare_run(ds, toy_hyper(), server_only=True).server_only


def test_prepare_run_rejects_full_server_graph_row_after_mending():
    # no row holds every item, but mending at threshold -1 predicts every
    # non-edge, so each mended row does; the server could not sample there
    train = {(u, (u + j) % 5) for u in range(4) for j in range(3)}
    ds = InteractionDataset(n_users=4, n_items=5, train=train)
    kw = dict(share_mode="fixed", share_ratio=1.0, server_only=True)
    hyper = toy_hyper(mend_threshold=-1.0, impair_fraction=0.1)
    with pytest.raises(DataFormatError, match="user 0's server-graph row holds all 5 items"):
        prepare_run(ds, hyper, **kw)
    assert prepare_run(ds, hyper, disable_gm=True, **kw).server.graph.edge_count == 12


# ---------------------------------------------------------------- rounds


def test_run_round_accounting_and_resync():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper())
    report = run_round(ctx, 1)
    want_sel = select_clients(ds.n_users, ctx.hyper.clients_per_round, 1, ctx.train_seed)
    assert report.participants == tuple(want_sel.tolist())
    assert report.total_loss == pytest.approx(
        report.participant_loss_sum + report.server_loss, abs=1e-12
    )
    assert report.server_loss > 0.0
    # participants' user rows were resynced to the aggregated model
    for u in report.participants:
        assert np.array_equal(ctx.devices[u].p_u, ctx.server.model.user[u])
    assert ctx.audit.violations(ctx.policy) == []


def test_run_round_nonparticipants_keep_rows():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper())
    before = ctx.devices.p_u.copy()
    report = run_round(ctx, 1)
    outside = set(range(ds.n_users)) - set(report.participants)
    for u in outside:
        assert np.array_equal(ctx.devices.p_u[u], before[u])


def test_run_round_sync_all_users():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper(), sync_all_users=True)
    run_round(ctx, 1)
    for u in range(ds.n_users):
        assert np.array_equal(ctx.devices.p_u[u], ctx.server.model.user[u])


@pytest.mark.parametrize("noise", [0.0, 1e-3])
def test_ldp_generators_only_where_noise_is_drawn(monkeypatch, noise):
    import fedgcf.loop as loop_module

    ctx = prepare_run(toy_dataset(), toy_hyper(ldp_clip=0.05, ldp_noise=noise))
    tags, calls = [], []
    real_rng, real_ldp = loop_module.child_rng, loop_module.apply_ldp

    def spy_rng(*keys):
        tags.append(keys[1])
        return real_rng(*keys)

    def spy_ldp(up, clip, noise_scale, rng):
        out = real_ldp(up, clip, noise_scale, rng)
        calls.append((up, rng, out))
        return out

    monkeypatch.setattr(loop_module, "child_rng", spy_rng)
    monkeypatch.setattr(loop_module, "apply_ldp", spy_ldp)
    run_round(ctx, 1)
    assert calls and tags.count("ldp") == (len(calls) if noise else 0)
    for up, rng, out in calls:
        assert (rng is None) == (noise == 0.0)
        # the upload a generator of the upload's own stream gives
        want = real_ldp(up, 0.05, noise, real_rng(ctx.train_seed, "ldp", 1, up.device_id))
        for got_block, want_block in ((out.delta.user, want.delta.user), (out.delta.item, want.delta.item)):
            assert np.array_equal(got_block.rows, want_block.rows)
            assert same_bits(got_block.values, want_block.values)


def test_server_only_round_trains_server_alone():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper(), server_only=True)
    before = ctx.devices.p_u.copy()
    report = run_round(ctx, 1)
    assert report.participants == ()
    assert report.participant_loss_sum == 0.0
    assert report.server_loss > 0.0
    for u in range(ds.n_users):
        assert np.array_equal(ctx.devices.p_u[u], before[u])


# ---------------------------------------------------------------- training


def test_readme_library_snippet_runs(capsys):
    # the README's ``python`` block, as written: its keywords reach prepare_run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    exec(snippet, namespace)
    result = namespace["result"]
    assert result.context.policy.ratio.tolist() == [0.5] * 200 and result.context.train_seed == 201
    assert float(capsys.readouterr().out) == result.evals[-1]["test_recall"]


def test_run_training_deterministic(ranked):
    ds = held_out_dataset()
    res_a = run_training(ds, toy_hyper())
    assert ranks_everywhere(ranked, res_a.evals)
    res_b = run_training(ds, toy_hyper())
    assert res_a.reports == res_b.reports
    assert res_a.evals == res_b.evals
    assert np.array_equal(res_a.context.server.model.user, res_b.context.server.model.user)
    assert np.array_equal(res_a.context.server.model.item, res_b.context.server.model.item)


def test_run_training_seed_sensitivity():
    ds = toy_dataset()
    res_a = run_training(ds, toy_hyper(), seed_train=2)
    res_b = run_training(ds, toy_hyper(), seed_train=3)
    assert not np.array_equal(
        res_a.context.server.model.user, res_b.context.server.model.user
    )


def test_run_training_zero_rounds_evaluates_once(ranked):
    ds = held_out_dataset()
    res = run_training(ds, toy_hyper(rounds=0))
    assert ranks_everywhere(ranked, res.evals)
    assert res.reports == []
    assert len(res.evals) == 1 and res.evals[0]["round"] == 0
    assert res.rounds_run == 0 and not res.stopped_early


def test_run_training_eval_cadence(ranked):
    ds = held_out_dataset()
    res = run_training(ds, toy_hyper(rounds=5, eval_every=2, patience=100))
    assert ranks_everywhere(ranked, res.evals)
    assert [e["round"] for e in res.evals] == [0, 2, 4, 5]
    assert res.rounds_run == 5


def test_run_training_early_stop_on_plateau(ranked):
    ds = held_out_dataset()
    assert ds.val.shape[0] > 0
    # a learning rate of ~0 freezes the model, so validation recall never
    # improves and patience trips at the first post-round evaluation
    hyper = toy_hyper(learning_rate=1e-12, rounds=50, eval_every=1, patience=2)
    res = run_training(ds, hyper)
    assert ranks_everywhere(ranked, res.evals)
    assert res.stopped_early
    assert res.rounds_run == 2


def test_run_training_without_val_pairs_never_stops_early():
    # every evaluation reads val recall 0.0, which is no plateau
    ds = split_dataset(synth_dataset(16, 20, 2, 0.8, seed=0), (8, 0, 1), seed=0)
    assert ds.val.shape[0] == 0 and ds.test.shape[0] > 0
    res = run_training(ds, toy_hyper(rounds=4, eval_every=1, patience=1))
    assert res.rounds_run == 4 and not res.stopped_early


def test_run_training_val_test_never_influence_model(ranked):
    ds_a = held_out_dataset()
    rng = np.random.default_rng(99)
    # same train pairs, scrambled val/test assignment
    swapped = pair_set(ds_a.val) | pair_set(ds_a.test)
    val2 = {p for p in swapped if rng.random() < 0.5}
    ds_b = type(ds_a)(
        n_users=ds_a.n_users,
        n_items=ds_a.n_items,
        train=pair_set(ds_a.train),
        val=val2,
        test=swapped - val2,
    )
    res_a = run_training(ds_a, toy_hyper())
    assert ranks_everywhere(ranked, res_a.evals)
    res_b = run_training(ds_b, toy_hyper())
    assert np.array_equal(res_a.context.server.model.user, res_b.context.server.model.user)
    assert np.array_equal(res_a.context.server.model.item, res_b.context.server.model.item)
    assert res_a.reports == res_b.reports


def test_run_training_rejects_bad_hyper():
    with pytest.raises(ValueError):
        run_training(toy_dataset(), toy_hyper(dim=-1))


# ---------------------------------------------------------------- views


def test_eval_views_shapes_and_modes():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper())
    for mode in ("server", "device"):
        u, i = eval_views(ctx, mode)
        assert u.shape == (ds.n_users, ctx.hyper.dim)
        assert i.shape == (ds.n_items, ctx.hyper.dim)
    with pytest.raises(ValueError):
        eval_views(ctx, "hybrid")


def test_eval_views_device_uses_local_items():
    ds = toy_dataset()
    ctx = prepare_run(ds, toy_hyper())
    u_dev, _ = eval_views(ctx, "device")
    # a user's device view depends only on p_u and local item rows
    some_u = next(u for u in range(ds.n_users) if ctx.devices[u].local_items.size)
    ctx.devices.p_u[some_u] += 1.0
    u_dev2, _ = eval_views(ctx, "device")
    assert not np.array_equal(u_dev[some_u], u_dev2[some_u])
    others = [u for u in range(ds.n_users) if u != some_u]
    assert np.array_equal(u_dev[others], u_dev2[others])



def test_cached_server_views_are_read_only():
    ctx = prepare_run(toy_dataset(), toy_hyper())
    for view in eval_views(ctx):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


def test_device_views_are_read_only():
    # as the server views are, so evaluate ranks them once for val and test
    ctx = prepare_run(toy_dataset(), toy_hyper())
    for view in eval_views(ctx, "device"):
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


def test_one_server_forward_per_model():
    # a round propagates the server views once per model: its exchange and
    # server_train share them with a server-view evaluation of that model,
    # and server_train adds only its adjoint pass
    calls = []
    real = fedgcf.graph.propagate_once

    def counted(*args):
        calls.append(1)
        return real(*args)

    with mock.patch.object(fedgcf.graph, "propagate_once", counted):
        ctx = prepare_run(toy_dataset(), toy_hyper(), disable_gm=True)
        layers = ctx.hyper.layers_server
        counts = [len(calls)]
        run_round(ctx, 1)  # views of the initial model, then the adjoint
        counts.append(len(calls))
        first = eval_views(ctx)  # views of the aggregated model
        assert eval_views(ctx) is first
        counts.append(len(calls))
        run_round(ctx, 2)  # reuses them: the adjoint alone
        counts.append(len(calls))
    assert counts == [0, 2 * layers, 3 * layers, 4 * layers]


def test_eval_cadence_never_changes_training_bits(ranked):
    ds = held_out_dataset()
    every = run_training(ds, toy_hyper(rounds=4, eval_every=1, patience=4))
    assert ranks_everywhere(ranked, every.evals)
    sparse = run_training(ds, toy_hyper(rounds=4, eval_every=3, patience=4))
    assert [e["round"] for e in sparse.evals] == [0, 3, 4]
    assert every.rounds_run == sparse.rounds_run == 4
    assert every.reports == sparse.reports
    a, b = every.context.server.model, sparse.context.server.model
    assert same_bits(a.user, b.user) and same_bits(a.item, b.item)


@settings(max_examples=40, deadline=None)
@given(
    n_users=st.integers(1, 30),
    n_items=st.integers(1, 25),
    density=st.sampled_from([0.05, 0.3, 0.9]),
    d=st.sampled_from([1, 4, 16]),
    budget=st.sampled_from([1, 7, 2**12]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_users=12, n_items=10, density=0.9, d=1, budget=7, seed=0)
def test_device_views_are_bitwise_the_per_user_loop(n_users, n_items, density, d, budget, seed):
    # forests of users grouped in chunks of ``budget`` item rows give each
    # user the view of its own one-star EgoGraph; users without train items
    # keep alpha_0 of their row
    rng = np.random.default_rng(seed)
    pairs = np.argwhere(rng.random((n_users, n_items)) < density)
    ds = InteractionDataset(n_users=n_users, n_items=n_items, train=pairs)
    device_user, item = rng.normal(size=(n_users, d)), rng.normal(size=(n_items, d))
    with mock.patch.object(fedgcf.graph, "_ROW_BUDGET", budget):
        got = device_views(device_user, item, ds)
    want = device_views_loop(device_user, item, ds)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
