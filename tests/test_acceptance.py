"""End-to-end acceptance checks for the package.

Each test covers one numbered criterion and prints a single
``[criterion N] PASS/FAIL`` summary line (run with ``-s`` to see them).
Every check is deterministic: datasets, seeds, and hyperparameters are
frozen, so the printed numbers reproduce exactly on the same platform.

Reference computations are written independently of the package
internals: dense adjacency matrices, explicit per-device dictionaries,
and brute-force metric loops. The plain federated ranking loop used by
criterion 3a mirrors the package's arithmetic operation by operation so
the comparison can demand bitwise equality.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from fedgcf.cli import main
from fedgcf.client import DeviceUpload
from fedgcf.data import ShareTier, split_dataset, synth_dataset
from fedgcf.evaluate import _metrics, evaluate
from fedgcf.graph import BipartiteGraph, EmbeddingState, default_alpha
from fedgcf.learn import (
    CLTerm,
    HyperParams,
    LossSpec,
    compute_gradients,
)
import fedgcf.learn
from fedgcf.loop import prepare_run, run_round, run_training
from fedgcf.mending import impair_graph, predict_links, train_mender
from fedgcf.seeds import child_rng
from fedgcf.server import apply_ldp, fedavg_aggregate

from oracles import (
    as_dict,
    bundle_of,
    compute_loss,
    dense_norm_adjacency,
    exchange_pairs,
    fd_gradient,
    max_rel_err,
    ndcg_oracle,
    rank_candidates,
    recall_oracle,
)


@contextmanager
def criterion(num: int, label: str, budget_s: float):
    """Print one PASS/FAIL line per criterion and enforce its time budget."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] FAIL: {label}")
        raise
    elapsed = time.perf_counter() - t0
    if elapsed >= budget_s:
        print(f"\n[criterion {num}] FAIL: {label} (runtime {elapsed:.1f}s over {budget_s:.0f}s budget)")
        raise AssertionError(f"criterion {num} exceeded its {budget_s:.0f}s budget: {elapsed:.1f}s")
    print(f"\n[criterion {num}] PASS: {label} ({elapsed:.1f}s, budget {budget_s:.0f}s)")


# ------------------------------------------------------------------ 1


def _gradient_instance(rng: np.random.Generator, layers: int, mode: str):
    """Random small composite-loss instance (at most 6 nodes, dim 8)."""
    d = 8
    n_u = int(rng.integers(2, 4))
    n_i = int(rng.integers(2, 4))
    pairs = {(u, int(rng.integers(n_i))) for u in range(n_u)}
    pairs |= {(int(rng.integers(n_u)), i) for i in range(n_i)}
    for _ in range(n_u):
        pairs.add((int(rng.integers(n_u)), int(rng.integers(n_i))))
    g = BipartiteGraph(n_u, n_i, sorted(pairs))
    state = EmbeddingState(rng.normal(size=(n_u, d)), rng.normal(size=(n_i, d)))
    kw = {"graph": g, "alpha": default_alpha(layers), "tau": 0.2}
    if mode in ("ranking", "joint"):
        m = 4
        kw["bpr_users"] = rng.integers(0, n_u, size=m)
        kw["bpr_pos"] = rng.integers(0, n_i, size=m)
        kw["bpr_neg"] = rng.integers(0, n_i, size=m)
    if mode in ("contrastive", "joint"):
        kw["cl_weight"] = 0.7
        kw["cl_terms"] = [
            CLTerm(
                kind="user",
                trainable="query",
                rows=np.arange(n_u),
                ids=np.arange(n_u),
                fixed_ids=np.arange(n_u),
                fixed_views=rng.normal(size=(n_u, d)),
            ),
            CLTerm(
                kind="item",
                trainable="key",
                rows=np.arange(n_i),
                ids=np.arange(n_i),
                fixed_ids=np.arange(n_i),
                fixed_views=rng.normal(size=(n_i, d)),
            ),
        ]
    if mode == "linkfit":
        pos = {(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(3)}
        neg = {(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(3)}
        kw["link_positives"] = np.asarray(sorted(pos), dtype=np.int64)
        kw["link_negatives"] = np.asarray(sorted(neg), dtype=np.int64)
    if mode == "joint":
        kw["reg_lambda"] = 0.05
        kw["reg_user_rows"] = np.arange(n_u)
        kw["reg_item_rows"] = np.arange(n_i)
    return LossSpec(**kw), state


def test_criterion_1_gradients_match_finite_differences():
    with criterion(1, "analytic gradients match central differences (rel err <= 1e-4)", 10.0):
        rng = np.random.default_rng(20240801)
        checked = 0
        worst = 0.0
        for layers in (1, 3):
            for mode in ("ranking", "contrastive", "linkfit", "joint"):
                for _ in range(16):
                    spec, state = _gradient_instance(rng, layers, mode)
                    _, bundle = compute_gradients(spec, state)
                    dense_u = np.zeros_like(state.user)
                    dense_i = np.zeros_like(state.item)
                    for r, v in as_dict(bundle.user).items():
                        dense_u[r] = v
                    for r, v in as_dict(bundle.item).items():
                        dense_i[r] = v
                    fd_u, fd_i = fd_gradient(lambda s: compute_loss(spec, s).total, state, h=1e-5)
                    worst = max(worst, max_rel_err(dense_u, fd_u), max_rel_err(dense_i, fd_i))
                    checked += 1
        assert checked >= 100, f"only {checked} instances checked"
        assert worst <= 1e-4, f"worst relative gradient error {worst:.2e}"


# ------------------------------------------------------------------ 2


def test_criterion_2_metrics_equal_brute_force_exactly():
    with criterion(2, "recall/ndcg equal brute-force references exactly", 5.0):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n_items = int(rng.integers(1, 21))
            n_rel = int(rng.integers(1, n_items + 1))
            relevant = set(rng.choice(n_items, size=n_rel, replace=False).tolist())
            k = int(rng.integers(1, 13))
            n_ranked = int(rng.integers(0, min(k, n_items) + 1))
            ranked = rng.permutation(n_items)[:n_ranked]
            # the package's per-row formula on one row: the ranks of its hits
            hit_ranks = np.flatnonzero(np.isin(ranked, list(relevant)))
            recall, ndcg = _metrics(np.zeros_like(hit_ranks), hit_ranks, np.array([n_rel]), k)
            assert recall[0] == recall_oracle(ranked.tolist(), relevant)
            assert ndcg[0] == ndcg_oracle(ranked.tolist(), relevant, k)
        # whole-pipeline instances: random small datasets, per-user exact equality
        for _ in range(30):
            n_u = int(rng.integers(1, 11))
            n_i = int(rng.integers(3, 21))
            k = int(rng.integers(1, 8))
            train, val = set(), set()
            for u in range(n_u):
                items = rng.permutation(n_i)
                n_train = int(rng.integers(0, n_i - 1))
                train |= {(u, int(i)) for i in items[:n_train]}
                n_val = int(rng.integers(1, n_i - n_train + 1))
                val |= {(u, int(i)) for i in items[n_train : n_train + n_val]}
            ds = synth_dataset(n_u, n_i, 1, 0.9, seed=int(rng.integers(1 << 30)))
            ds = replace(ds, train=train, val=val, test=set())
            user_views = rng.normal(size=(n_u, 5))
            item_views = rng.normal(size=(n_i, 5))
            result = evaluate(user_views, item_views, ds, "val", k)
            by_user = ds.pairs_by_user(ds.val)
            train_by_user = ds.pairs_by_user(ds.train)
            assert set(result.per_user) == set(by_user)
            for u, (rec, ndcg) in result.per_user.items():
                ranked = rank_candidates(user_views[u], item_views, train_by_user.get(u, ()), k)
                relevant = set(by_user[u])
                assert rec == recall_oracle(ranked.tolist(), relevant)
                assert ndcg == ndcg_oracle(ranked.tolist(), relevant, k)


# ------------------------------------------------------------------ 3


_FLOOR = 1e-12


def _mirror_cosine_rows(a: np.ndarray, b: np.ndarray):
    """Row-paired cosine and gradients, same arithmetic as the package."""
    an = np.linalg.norm(a, axis=1)
    bn = np.linalg.norm(b, axis=1)
    a_ok = an >= _FLOOR
    b_ok = bn >= _FLOOR
    a_hat = a * np.where(a_ok, 1.0 / np.where(a_ok, an, 1.0), 0.0)[:, None]
    b_hat = b * np.where(b_ok, 1.0 / np.where(b_ok, bn, 1.0), 0.0)[:, None]
    ok = a_ok & b_ok
    cos = np.where(ok, np.sum(a_hat * b_hat, axis=1), 0.0)
    inv_a = np.where(ok, 1.0 / np.where(a_ok, an, 1.0), 0.0)
    inv_b = np.where(ok, 1.0 / np.where(b_ok, bn, 1.0), 0.0)
    da = (b_hat - cos[:, None] * a_hat) * inv_a[:, None]
    db = (a_hat - cos[:, None] * b_hat) * inv_b[:, None]
    return cos, da, db


def _mirror_bpr_grads(u_rows, pos_rows, neg_rows):
    s_pos, du_p, dp = _mirror_cosine_rows(u_rows, pos_rows)
    s_neg, du_n, dn = _mirror_cosine_rows(u_rows, neg_rows)
    x = s_pos - s_neg
    coef = (1.0 / (1.0 + np.exp(-x)) - 1.0)[:, None]
    return coef * (du_p - du_n), coef * dp, -coef * dn


def _mirror_adam(rows: dict, moments: dict, t: int, lr: float, b1: float, b2: float, eps: float):
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    out = {}
    for row in sorted(rows):
        g = rows[row]
        m, v = moments.get(row, (np.zeros_like(g), np.zeros_like(g)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        moments[row] = (m, v)
        m_hat = m / bc1
        v_hat = v / bc2
        out[row] = -lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def _plain_federated_bpr(ds, dim, lr, reg, clients, epochs, rounds, seed):
    """Plain federated ranking loop, written with per-device dictionaries.

    No contributions, no received views, no contrastive term, no server
    step: every selected device trains its own row plus private copies of
    its touched item rows on its single-hop neighborhood, uploads deltas,
    and the deltas are merged by weighted average.
    """
    b1, b2, eps = 0.9, 0.999, 1e-8
    alpha = np.full(2, 1.0 / 2)
    rng = child_rng(seed, "init")
    lim_u = np.sqrt(6.0 / (ds.n_users + dim))
    lim_i = np.sqrt(6.0 / (ds.n_items + dim))
    user_tab = rng.uniform(-lim_u, lim_u, size=(ds.n_users, dim))
    item_tab = rng.uniform(-lim_i, lim_i, size=(ds.n_items, dim))
    train_by_user = ds.pairs_by_user(ds.train)
    state = {
        u: {"p": user_tab[u].copy(), "mu": {}, "mi": {}, "tu": 0, "ti": 0}
        for u in range(ds.n_users)
    }

    for r in range(1, rounds + 1):
        sel = np.sort(
            child_rng(seed, "select", r).choice(
                ds.n_users, size=min(clients, ds.n_users), replace=False
            )
        ).astype(np.int64)
        uploads = []
        for u_sel in sel:
            u = int(u_sel)
            st = state[u]
            local = np.asarray(train_by_user.get(u, ()), dtype=np.int64)
            p_start = st["p"].copy()
            work: dict = {}
            for epoch in range(epochs):
                if local.size:
                    rng_neg = child_rng(seed, "neg", r, u, epoch)
                    comp = np.setdiff1d(
                        np.arange(ds.n_items, dtype=np.int64), local, assume_unique=False
                    )
                    negs = rng_neg.choice(comp, size=local.size, replace=local.size > comp.size)
                else:
                    negs = np.zeros(0, dtype=np.int64)
                compact = np.unique(np.concatenate([local, negs]))
                cmap = {int(g): j for j, g in enumerate(compact)}
                rows = (
                    np.stack([work.get(int(g), item_tab[int(g)]) for g in compact])
                    if compact.size
                    else np.zeros((0, dim))
                )
                pos_c = np.array([cmap[int(i)] for i in local], dtype=np.int64)
                neg_c = np.array([cmap[int(i)] for i in negs], dtype=np.int64)
                p2 = st["p"][None, :].copy()

                # one symmetric-normalized hop over the device neighborhood:
                # the user's degree is its item count, local items have
                # degree one, sampled negatives are isolated
                deg_u = np.array([local.size], dtype=np.int64)
                deg_i = np.zeros(compact.size, dtype=np.int64)
                if local.size:
                    deg_i[pos_c] = 1
                with np.errstate(divide="ignore"):
                    inv_u = np.where(deg_u > 0, 1.0 / np.sqrt(deg_u), 0.0)
                    inv_i = np.where(deg_i > 0, 1.0 / np.sqrt(deg_i), 0.0)

                def hop(user_block, item_block):
                    nu = np.zeros((1, dim))
                    ni = np.zeros((compact.size, dim))
                    if local.size:
                        vals = item_block[pos_c] * inv_i[pos_c, None]
                        # the local item rows added one at a time, in order
                        nu[0] = vals[0]
                        for row in vals[1:]:
                            nu[0] = nu[0] + row
                        ni[pos_c] = (user_block[0] * inv_u[0]) * inv_i[pos_c, None]
                    nu = nu * inv_u[:, None]
                    return nu, ni

                nu, ni = hop(p2, rows)
                e_u = alpha[0] * p2
                e_u = e_u + alpha[1] * nu
                e_i = alpha[0] * rows
                e_i = e_i + alpha[1] * ni

                grad_eu = np.zeros_like(e_u)
                grad_ei = np.zeros_like(e_i)
                if local.size:
                    users_idx = np.zeros(local.size, dtype=np.int64)
                    g_user, g_pos, g_neg = _mirror_bpr_grads(
                        e_u[users_idx], e_i[pos_c], e_i[neg_c]
                    )
                    np.add.at(grad_eu, users_idx, g_user)
                    np.add.at(grad_ei, pos_c, g_pos)
                    np.add.at(grad_ei, neg_c, g_neg)

                anu, ani = hop(grad_eu, grad_ei)
                g_u0 = alpha[0] * grad_eu
                g_u0 = g_u0 + alpha[1] * anu
                g_i0 = alpha[0] * grad_ei
                g_i0 = g_i0 + alpha[1] * ani
                g_u0[np.array([0])] += 2.0 * reg * p2[np.array([0])]
                reg_rows = np.unique(np.concatenate([pos_c, neg_c]))
                if reg_rows.size:
                    g_i0[reg_rows] += 2.0 * reg * rows[reg_rows]

                hp = HyperParams(dim=dim, learning_rate=lr, reg_lambda=reg)
                if np.any(g_u0[0] != 0.0):
                    st["tu"] += 1
                    delta = _mirror_adam(
                        {u: g_u0[0].copy()}, st["mu"], st["tu"], lr, hp.adam_beta1, hp.adam_beta2, hp.adam_eps
                    )
                    st["p"] += delta[u]
                touched = np.nonzero(np.any(g_i0 != 0.0, axis=1))[0]
                if touched.size:
                    grads = {int(compact[j]): g_i0[j].copy() for j in touched}
                    st["ti"] += 1
                    deltas = _mirror_adam(
                        grads, st["mi"], st["ti"], lr, hp.adam_beta1, hp.adam_beta2, hp.adam_eps
                    )
                    for gid, delta in deltas.items():
                        row = work.get(gid)
                        if row is None:
                            row = item_tab[gid].copy()
                        work[gid] = row + delta

            du = None if np.array_equal(st["p"], p_start) else st["p"] - p_start
            di = {gid: work[gid] - item_tab[gid] for gid in sorted(work)}
            uploads.append((u, float(local.size * epochs), du, di))

        acc_u: dict = {}
        acc_i: dict = {}
        for u, w, du, di in uploads:
            if du is not None:
                vs, ws = acc_u.get(u, (np.zeros_like(du), 0.0))
                acc_u[u] = (vs + w * du, ws + w)
            for gid in sorted(di):
                vs, ws = acc_i.get(gid, (np.zeros_like(di[gid]), 0.0))
                acc_i[gid] = (vs + w * di[gid], ws + w)
        new_user = user_tab.copy()
        new_item = item_tab.copy()
        for rowid in sorted(acc_u):
            vs, ws = acc_u[rowid]
            if ws > 0.0:
                new_user[rowid] = new_user[rowid] + vs / ws
        for rowid in sorted(acc_i):
            vs, ws = acc_i[rowid]
            if ws > 0.0:
                new_item[rowid] = new_item[rowid] + vs / ws
        user_tab, item_tab = new_user, new_item
        for u_sel in sel:
            state[int(u_sel)]["p"] = user_tab[int(u_sel)].copy()

    return user_tab, item_tab, {u: state[u]["p"] for u in range(ds.n_users)}


def _centralized_reference(ds, dim, lr, reg, layers, batch_cap, rounds, seed):
    """Centralized ranking trainer over the full graph via dense matrices."""
    hp = HyperParams(dim=dim, learning_rate=lr, reg_lambda=reg)
    b1, b2, eps = hp.adam_beta1, hp.adam_beta2, hp.adam_eps
    n_u, n_i = ds.n_users, ds.n_items
    rng = child_rng(seed, "init")
    lim_u = np.sqrt(6.0 / (n_u + dim))
    lim_i = np.sqrt(6.0 / (n_i + dim))
    user_tab = rng.uniform(-lim_u, lim_u, size=(n_u, dim))
    item_tab = rng.uniform(-lim_i, lim_i, size=(n_i, dim))
    edges = ds.train
    adj = dense_norm_adjacency(n_u, n_i, edges)
    alpha = np.full(layers + 1, 1.0 / (layers + 1))
    by_user = {u: np.asarray(v, dtype=np.int64) for u, v in ds.pairs_by_user(ds.train).items()}
    mom_u: dict = {}
    mom_i: dict = {}
    tu = ti = 0

    def propagate(user_block, item_block):
        stacked = np.concatenate([user_block, item_block], axis=0)
        acc = alpha[0] * stacked
        cur = stacked
        for a in alpha[1:]:
            cur = adj @ cur
            acc = acc + a * cur
        return acc[:n_u], acc[n_u:]

    for r in range(1, rounds + 1):
        rng_batch = child_rng(seed, "server_batch", r)
        bs = min(batch_cap, edges.shape[0])
        idx = np.sort(rng_batch.choice(edges.shape[0], size=bs, replace=False))
        batch = edges[idx]
        users = batch[:, 0]
        positives = batch[:, 1]
        negatives = np.zeros(bs, dtype=np.int64)
        rng_neg = child_rng(seed, "server_neg", r)
        for u in np.unique(users):
            mask = users == u
            comp = np.setdiff1d(np.arange(n_i, dtype=np.int64), by_user[int(u)], assume_unique=False)
            negatives[mask] = rng_neg.choice(comp, size=int(mask.sum()), replace=int(mask.sum()) > comp.size)

        fu, fi = propagate(user_tab, item_tab)
        g_user, g_pos, g_neg = _mirror_bpr_grads(fu[users], fi[positives], fi[negatives])
        grad_u = np.zeros_like(fu)
        grad_i = np.zeros_like(fi)
        np.add.at(grad_u, users, g_user)
        np.add.at(grad_i, positives, g_pos)
        np.add.at(grad_i, negatives, g_neg)
        g_u0, g_i0 = propagate(grad_u, grad_i)
        g_u0 = g_u0.copy()
        g_i0 = g_i0.copy()
        ru = np.unique(users)
        ri = np.unique(np.concatenate([positives, negatives]))
        g_u0[ru] += 2.0 * reg * user_tab[ru]
        g_i0[ri] += 2.0 * reg * item_tab[ri]

        touched_u = np.nonzero(np.any(g_u0 != 0.0, axis=1))[0]
        if touched_u.size:
            tu += 1
            deltas = _mirror_adam(
                {int(j): g_u0[j].copy() for j in touched_u}, mom_u, tu, lr, b1, b2, eps
            )
            for j, delta in deltas.items():
                user_tab[j] += delta
        touched_i = np.nonzero(np.any(g_i0 != 0.0, axis=1))[0]
        if touched_i.size:
            ti += 1
            deltas = _mirror_adam(
                {int(j): g_i0[j].copy() for j in touched_i}, mom_i, ti, lr, b1, b2, eps
            )
            for j, delta in deltas.items():
                item_tab[j] += delta
    return user_tab, item_tab


def test_criterion_3_degeneracy_equivalences(monkeypatch):
    with criterion(3, "degenerate modes match plain/centralized reference loops", 120.0):
        # (a) no sharing, no contrastive weight: rounds must be bitwise
        # identical to the plain federated ranking loop, with the
        # contrastive code never evaluated and the server idle
        ds = split_dataset(synth_dataset(12, 16, 2, 0.6, seed=3), seed=3)
        hyper = HyperParams(
            dim=8,
            learning_rate=0.01,
            reg_lambda=1e-4,
            cl_weight=0.0,
            clients_per_round=5,
            local_epochs=2,
            rounds=3,
        )

        def _forbidden(*args, **kwargs):
            raise AssertionError("contrastive term evaluated in a no-sharing run")

        monkeypatch.setattr(fedgcf.learn, "_infonce_terms", _forbidden)
        ctx = prepare_run(ds, hyper, share_mode="fixed", share_ratio=0.0, seed_policy=31, seed_train=41)
        assert all(t == ShareTier.NONE for t in ctx.policy.tier)
        assert ctx.server.graph.edge_count == 0
        reports = [run_round(ctx, r) for r in (1, 2, 3)]
        monkeypatch.undo()
        assert all(rep.server_loss == 0.0 for rep in reports)
        assert all(len(rep.participants) == 5 for rep in reports)
        assert ctx.audit.events == []
        assert len(ctx.server.uploaded) == 0

        ref_user, ref_item, ref_p = _plain_federated_bpr(
            ds, dim=8, lr=0.01, reg=1e-4, clients=5, epochs=2, rounds=3, seed=41
        )
        assert np.array_equal(ctx.server.model.user, ref_user)
        assert np.array_equal(ctx.server.model.item, ref_item)
        for u in range(ds.n_users):
            assert np.array_equal(ctx.devices[u].p_u, ref_p[u])

        # (b) full sharing, server-only, no contrastive weight, no mending:
        # the trajectory must match a centralized trainer to 1e-6/parameter
        ds_c = split_dataset(synth_dataset(30, 40, 2, 0.5, seed=5), seed=5)
        hyper_c = HyperParams(
            dim=8,
            learning_rate=0.01,
            reg_lambda=1e-4,
            cl_weight=0.0,
            layers_server=3,
            server_batch=512,
            rounds=50,
        )
        ctx_c = prepare_run(
            ds_c,
            hyper_c,
            share_mode="fixed",
            share_ratio=1.0,
            seed_policy=32,
            seed_train=52,
            disable_gm=True,
            server_only=True,
        )
        assert ctx_c.server.shared_graph.edge_count == len(ds_c.train)
        for r in range(1, 51):
            rep = run_round(ctx_c, r)
            assert rep.participants == ()
        ref_u, ref_i = _centralized_reference(
            ds_c, dim=8, lr=0.01, reg=1e-4, layers=3, batch_cap=512, rounds=50, seed=52
        )
        gap_u = float(np.max(np.abs(ctx_c.server.model.user - ref_u)))
        gap_i = float(np.max(np.abs(ctx_c.server.model.item - ref_i)))
        assert gap_u <= 1e-6 and gap_i <= 1e-6, f"trajectory gaps {gap_u:.2e}/{gap_i:.2e}"
        start = child_rng(52, "init")
        lim = np.sqrt(6.0 / (ds_c.n_users + 8))
        u0 = start.uniform(-lim, lim, size=(ds_c.n_users, 8))
        assert float(np.max(np.abs(ctx_c.server.model.user - u0))) > 1e-3  # training moved


# ------------------------------------------------------------------ 4 and 5


def _benchmark_dataset():
    return split_dataset(synth_dataset(200, 300, 4, 0.3, seed=11), seed=11)


def _benchmark_hyper(eval_every: int) -> HyperParams:
    return HyperParams(
        dim=16,
        learning_rate=0.01,
        reg_lambda=1e-4,
        cl_weight=0.1,
        temperature=0.2,
        layers_server=3,
        clients_per_round=100,
        rounds=30,
        local_epochs=1,
        server_batch=1024,
        mend_epochs=40,
        impair_fraction=0.1,
        mend_threshold=0.6,
        mend_cap_per_user=50,
        eval_k=20,
        eval_every=eval_every,
        patience=100,
    )


def test_criterion_4_share_ratio_trend():
    with criterion(4, "more shared data yields higher test recall", 900.0):
        ds = _benchmark_dataset()
        means, stds = {}, {}
        for ratio in (0.0, 0.5, 1.0):
            vals = []
            for s in range(5):
                res = run_training(
                    ds,
                    _benchmark_hyper(eval_every=1000),
                    share_mode="fixed",
                    share_ratio=ratio,
                    seed_policy=101 + s,
                    seed_train=201 + s,
                )
                vals.append(res.evals[-1]["test_recall"])
            means[ratio] = float(np.mean(vals))
            stds[ratio] = float(np.std(vals))
            print(f"  ratio {ratio}: recall@20 mean {means[ratio]:.4f} std {stds[ratio]:.4f}")
        assert means[1.0] >= 1.05 * means[0.0], (
            f"full sharing {means[1.0]:.4f} not 5% above none {means[0.0]:.4f}"
        )
        band = max(stds.values())
        assert means[0.0] - band <= means[0.5] <= means[1.0] + band, (
            f"half sharing {means[0.5]:.4f} outside [{means[0.0]:.4f}-{band:.4f}, {means[1.0]:.4f}+{band:.4f}]"
        )


def test_criterion_5_ablation_direction():
    with criterion(5, "removing mending or the contrastive term does not help", 1800.0):
        ds = _benchmark_dataset()
        per_variant = {}
        for name, kw in (("full", {}), ("no_gm", {"disable_gm": True}), ("no_cl", {"disable_cl": True})):
            vals = []
            for s in range(5):
                res = run_training(
                    ds,
                    _benchmark_hyper(eval_every=5),
                    share_mode="uniform",
                    seed_policy=101 + s,
                    seed_train=201 + s,
                    eval_view="device",
                    **kw,
                )
                best = max(res.evals, key=lambda e: e["val_recall"])
                vals.append(best["test_recall"])
            per_variant[name] = vals
            print(f"  {name}: recall@20 mean {np.mean(vals):.4f} per-seed {['%.4f' % v for v in vals]}")
        for s in range(5):
            for abl in ("no_gm", "no_cl"):
                if per_variant["full"][s] < per_variant[abl][s]:
                    print(
                        f"  note: seed {s} has full {per_variant['full'][s]:.4f} "
                        f"below {abl} {per_variant[abl][s]:.4f} (per-seed dips are tolerated)"
                    )
        full_mean = float(np.mean(per_variant["full"]))
        for abl in ("no_gm", "no_cl"):
            abl_mean = float(np.mean(per_variant[abl]))
            assert full_mean >= abl_mean, (
                f"mean recall with every component {full_mean:.4f} fell below {abl} {abl_mean:.4f}"
            )


# ------------------------------------------------------------------ 6


def _planted_blocks(seed: int) -> BipartiteGraph:
    """Two dense user-item blocks plus a diagonal that pins every node."""
    rng = np.random.default_rng(900 + seed)
    edges = set()
    for block in range(2):
        ids = range(block * 15, block * 15 + 15)
        for u in ids:
            for i in ids:
                if rng.random() < 0.7:
                    edges.add((u, i))
            edges.add((u, u))
    return BipartiteGraph(30, 30, sorted(edges))


def test_criterion_6_mending_recovers_planted_structure():
    with criterion(6, "link predictions beat chance 2x and shrink with the threshold", 300.0):
        precisions, baselines = [], []
        for seed in range(5):
            g = _planted_blocks(seed)
            hyper = HyperParams(dim=16, learning_rate=0.05, mend_epochs=80, impair_fraction=0.1)
            impaired, removed = impair_graph(g, 0.1, child_rng(900 + seed, "impair"))
            assert len(removed) == int(np.floor(0.1 * g.edge_count))
            mender, _ = train_mender(impaired, removed, g, hyper, 900 + seed)
            counts = []
            best_prec = 0.0
            for t in (0.2, 0.4, 0.6, 0.8):
                pred, _ = predict_links(impaired, mender, t, cap_per_user=50, layers=hyper.layers_server)
                counts.append(len(pred))
                if len(pred):
                    hits = set(map(tuple, pred.tolist())) & set(map(tuple, removed.tolist()))
                    best_prec = max(best_prec, len(hits) / len(pred))
            assert all(a >= b for a, b in zip(counts, counts[1:])), (
                f"seed {seed}: prediction counts {counts} not non-increasing in the threshold"
            )
            baseline = len(removed) / (30 * 30 - impaired.edge_count)
            precisions.append(best_prec)
            baselines.append(baseline)
            print(f"  seed {seed}: counts {counts} best precision {best_prec:.3f} chance {baseline:.3f}")
        mean_prec = float(np.mean(precisions))
        mean_base = float(np.mean(baselines))
        assert mean_prec >= 2.0 * mean_base, (
            f"mean precision {mean_prec:.3f} below twice the chance rate {mean_base:.3f}"
        )


# ------------------------------------------------------------------ 7


def test_criterion_7_privacy_bookkeeping():
    with criterion(7, "no tier violation and no validation/test access in 100 rounds", 600.0):
        ds = split_dataset(synth_dataset(60, 80, 3, 0.4, seed=7), seed=7)
        hyper = HyperParams(
            dim=8,
            learning_rate=0.01,
            reg_lambda=1e-4,
            cl_weight=0.1,
            temperature=0.2,
            layers_server=3,
            clients_per_round=24,
            rounds=100,
            local_epochs=1,
            server_batch=256,
            mend_epochs=15,
            impair_fraction=0.1,
            mend_threshold=0.6,
            eval_k=10,
            eval_every=50,
            patience=1000,
        )
        res = run_training(ds, hyper, share_mode="uniform", seed_policy=2, seed_train=9)
        ctx = res.context
        tiers = ctx.policy.tier
        for tier in (ShareTier.NONE, ShareTier.PART, ShareTier.ALL):
            assert sum(1 for t in tiers if t == tier) >= 3, f"tier {tier} underrepresented"
        assert res.rounds_run == 100

        assert ctx.audit.violations(ctx.policy) == []
        uploads = distributions = 0
        for event in ctx.audit.events:
            if event["event"] == "upload":
                uploads += 1
                assert tiers[event["user"]] != ShareTier.NONE
            elif event["event"] == "exchange":
                for owner, recipient in exchange_pairs(event):
                    distributions += 1
                    assert tiers[owner] != ShareTier.NONE
                    if tiers[owner] == ShareTier.PART:
                        assert recipient == owner
        assert uploads > 0 and distributions > 0
        for user in ctx.server.uploaded.rows.tolist():
            assert tiers[user] != ShareTier.NONE

        train_by_user = ds.pairs_by_user(ds.train)
        for u in range(ds.n_users):
            assert set(ctx.devices[u].local_items) <= set(train_by_user.get(u, ()))

        # devices and server must never read the held-out splits: swapping
        # them cannot change one bit of the training trajectory
        poisoned = replace(ds, val=ds.test, test=ds.val)
        res_p = run_training(poisoned, hyper, share_mode="uniform", seed_policy=2, seed_train=9)
        assert np.array_equal(ctx.server.model.user, res_p.context.server.model.user)
        assert np.array_equal(ctx.server.model.item, res_p.context.server.model.item)
        assert res.reports == res_p.reports
        for u in range(ds.n_users):
            assert np.array_equal(ctx.devices[u].p_u, res_p.context.devices[u].p_u)
        print(f"  audited {len(ctx.audit.events)} events, {uploads} uploads, {distributions} distributions")


# ------------------------------------------------------------------ 8


_FAST_TRAIN = [
    "--set", "synth_users=16",
    "--set", "synth_items=20",
    "--set", "synth_clusters=2",
    "--set", "synth_density=0.5",
    "--set", "dim=8",
    "--set", "clients_per_round=6",
    "--set", "rounds=3",
    "--set", "mend_epochs=5",
    "--set", "eval_k=5",
    "--set", "eval_every=1",
]


def test_criterion_8_determinism_and_aggregation(tmp_path):
    with criterion(8, "determinism, averaged rows stay in bounds, local noise calibrated", 60.0):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["train", *_FAST_TRAIN, "--out-dir", str(out_a)]) == 0
        assert main(["train", *_FAST_TRAIN, "--out-dir", str(out_b)]) == 0
        bytes_a = (out_a / "metrics.jsonl").read_bytes()
        assert bytes_a == (out_b / "metrics.jsonl").read_bytes()
        assert len(bytes_a) > 0

        rng = np.random.default_rng(88)
        for case in range(10_000):
            d = 3
            base = EmbeddingState(rng.normal(size=(3, d)), rng.normal(size=(4, d)))
            uploads = []
            n_up = int(rng.integers(1, 5))
            for _ in range(n_up):
                user, item = {}, {}
                for row in rng.choice(3, size=int(rng.integers(1, 3)), replace=False):
                    user[int(row)] = rng.normal(size=d)
                for row in rng.choice(4, size=int(rng.integers(0, 3)), replace=False):
                    item[int(row)] = rng.normal(size=d)
                uploads.append((bundle_of(user, item), float(rng.uniform(0.1, 5.0))))
            out = fedavg_aggregate(uploads, base)
            for name, base_tab, out_tab in (
                ("user", base.user, out.user),
                ("item", base.item, out.item),
            ):
                touched: dict = {}
                for bundle, _ in uploads:
                    store = bundle.user if name == "user" else bundle.item
                    for row, vec in as_dict(store).items():
                        touched.setdefault(row, []).append(base_tab[row] + vec)
                for row in range(base_tab.shape[0]):
                    if row in touched:
                        pts = np.stack(touched[row])
                        assert np.all(out_tab[row] >= pts.min(axis=0) - 1e-12)
                        assert np.all(out_tab[row] <= pts.max(axis=0) + 1e-12)
                    else:
                        assert np.array_equal(out_tab[row], base_tab[row])

        # zero total weight leaves the touched row unchanged
        zb = bundle_of(user={1: np.ones(3)})
        zero_out = fedavg_aggregate([(zb, 0.0)], EmbeddingState(np.zeros((2, 3)), np.zeros((1, 3))))
        assert np.array_equal(zero_out.user[1], np.zeros(3))

        # noiseless privatization is the identity and leaves the stream untouched
        delta = bundle_of(user={0: rng.normal(size=6)}, item={3: rng.normal(size=6)})
        up = DeviceUpload(device_id=0, weight=2.0, delta=delta)
        gen = np.random.default_rng(123)
        state_before = gen.bit_generator.state
        same = apply_ldp(up, 0.0, 0.0, gen)
        assert gen.bit_generator.state == state_before
        assert np.array_equal(as_dict(same.delta.user)[0], as_dict(delta.user)[0])
        assert np.array_equal(as_dict(same.delta.item)[3], as_dict(delta.item)[3])

        scale = 0.7
        noisy_delta = bundle_of(user={0: np.zeros(100_000)})
        noisy = apply_ldp(
            DeviceUpload(device_id=0, weight=1.0, delta=noisy_delta),
            0.0,
            scale,
            child_rng(4, "ldp", 0, 0),
        )
        var = float(np.var(as_dict(noisy.delta.user)[0]))
        target = 2.0 * scale * scale
        assert abs(var - target) <= 0.05 * target, f"noise variance {var:.4f} vs {target:.4f}"
