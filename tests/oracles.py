"""Independent reference implementations used to validate the package.

Everything here is deliberately written by a different route than the
package code: dense matrices instead of compressed adjacency, explicit
loops instead of vectorized math, and brute-force fixpoints.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from fedgcf.client import DeviceUpload
from fedgcf.data import ShareTier
from fedgcf.errors import ConfigError
from fedgcf.graph import BipartiteGraph, EgoGraph, EmbeddingState, default_alpha, propagate_combine
from fedgcf.learn import (
    CLTerm,
    GradientBundle,
    LossParts,
    LossSpec,
    RowBlock,
    _safe_unit,
    adam_update_rows,
    compute_gradients,
)
from fedgcf.seeds import child_rng


def dense_norm_adjacency(n_users: int, n_items: int, pairs) -> np.ndarray:
    """Symmetric-normalized adjacency over the stacked (users+items) nodes."""
    n = n_users + n_items
    adj = np.zeros((n, n))
    for u, i in pairs:
        adj[u, n_users + i] = 1.0
        adj[n_users + i, u] = 1.0
    deg = adj.sum(axis=1)
    inv_sqrt = np.where(deg > 0, 1.0 / np.sqrt(np.where(deg > 0, deg, 1.0)), 0.0)
    return inv_sqrt[:, None] * adj * inv_sqrt[None, :]


def dense_propagate(n_users, n_items, pairs, user0, item0, layers):
    """Per-layer embeddings via dense matrix powers; returns a list of
    (user_block, item_block) tuples for layers 0..layers."""
    a_hat = dense_norm_adjacency(n_users, n_items, pairs)
    stacked = np.concatenate([user0, item0], axis=0)
    out = [(user0.copy(), item0.copy())]
    cur = stacked
    for _ in range(layers):
        cur = a_hat @ cur
        out.append((cur[:n_users].copy(), cur[n_users:].copy()))
    return out


def dense_combine(layer_list, alpha):
    user = sum(a * u for a, (u, _) in zip(alpha, layer_list))
    item = sum(a * i for a, (_, i) in zip(alpha, layer_list))
    return user, item


def sequential_propagate(n_users: int, n_items: int, pairs, user_emb, item_emb):
    """One symmetric-normalized propagation step by a per-node loop.

    Each node starts from its first neighbor's row, pre-scaled by
    1/sqrt(neighbor degree), adds the other pre-scaled rows one at a time in
    ascending neighbor order, then scales the sum by 1/sqrt(own degree).
    Isolated nodes stay zero. Returns (new_user, new_item)."""
    by_user = [[] for _ in range(n_users)]
    by_item = [[] for _ in range(n_items)]
    for u, i in sorted(set((int(u), int(i)) for u, i in pairs)):
        by_user[u].append(i)
        by_item[i].append(u)

    def side(nbrs, src, src_nbrs):
        out = np.zeros((len(nbrs), src.shape[1]))
        for v, vs in enumerate(nbrs):
            rows = [src[w] * (1.0 / math.sqrt(len(src_nbrs[w]))) for w in vs]
            if rows:
                acc = rows[0]
                for row in rows[1:]:
                    acc = acc + row
                out[v] = acc * (1.0 / math.sqrt(len(vs)))
        return out

    return side(by_user, item_emb, by_item), side(by_item, user_emb, by_user)


def csr_reference(n_users: int, n_items: int, pairs) -> dict:
    """Adjacency arrays of a BipartiteGraph built from a sorted set of
    (user, item) tuples: neighbors sorted, degrees counted one edge at a
    time."""
    edges = sorted(set((int(u), int(i)) for u, i in pairs))
    user_deg = [0] * n_users
    item_deg = [0] * n_items
    for u, i in edges:
        user_deg[u] += 1
        item_deg[i] += 1
    return {
        "user_adj": [i for _, i in edges],
        "item_adj": [u for _, u in sorted((i, u) for u, i in edges)],
        "user_deg": user_deg,
        "item_deg": item_deg,
        "user_ptr": [0] + list(itertools.accumulate(user_deg)),
        "item_ptr": [0] + list(itertools.accumulate(item_deg)),
    }


def user_row(g, u: int) -> np.ndarray:
    """User ``u``'s ascending item neighbours in ``g``."""
    return g.user_adj[g.user_ptr[u] : g.user_ptr[u + 1]]


def has_edge(g, u: int, i: int) -> bool:
    """Whether ``g`` links user ``u`` and item ``i``."""
    return int(i) in user_row(g, int(u)).tolist()


def pair_set(edges) -> set:
    """An (n, 2) edge array as a set of (user, item) tuples. (A tuple ``in``
    an array tests elements, not rows, so tests compare these sets.)"""
    return set(map(tuple, np.asarray(edges).tolist()))


def kcore_fixpoint(pairs, min_user: int, min_item: int) -> set:
    """Brute-force iterative k-core on raw pair sets."""
    pairs = set(pairs)
    while True:
        u_deg, i_deg = {}, {}
        for u, i in pairs:
            u_deg[u] = u_deg.get(u, 0) + 1
            i_deg[i] = i_deg.get(i, 0) + 1
        survivors = {
            (u, i) for u, i in pairs if u_deg[u] >= min_user and i_deg[i] >= min_item
        }
        if survivors == pairs:
            return pairs
        pairs = survivors


# Splitting and contribution sampling as they were when every split was a
# set of (user, item) tuples: one Python loop over each user's sorted items.


def _items_by_user(pairs) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    for u, i in pairs:
        out.setdefault(u, []).append(i)
    return {u: tuple(sorted(items)) for u, items in out.items()}


def split_sets(pairs: set, ratios=(8, 1, 1), seed: int = 0) -> tuple[set, set, set]:
    """(train, val, test) pair sets of ``split_dataset`` on ``pairs``."""
    total = float(sum(ratios))
    by_user = _items_by_user(pairs)
    train: set = set()
    val: set = set()
    test: set = set()
    for u, items in by_user.items():
        n = len(items)
        n_val = math.floor(n * ratios[1] / total)
        n_test = math.floor(n * ratios[2] / total)
        rng = child_rng(seed, "split", u)
        perm = rng.permutation(n)
        shuffled = [items[j] for j in perm]
        for i in shuffled[:n_val]:
            val.add((u, i))
        for i in shuffled[n_val : n_val + n_test]:
            test.add((u, i))
        for i in shuffled[n_val + n_test :]:
            train.add((u, i))
    return train, val, test


def _sample_pairs(pairs_sorted: list, take: int, rng: np.random.Generator) -> tuple:
    if take <= 0:
        return ()
    if take >= len(pairs_sorted):
        return tuple(pairs_sorted)
    idx = rng.choice(len(pairs_sorted), size=take, replace=False)
    return tuple(pairs_sorted[j] for j in sorted(idx.tolist()))


def attach_sets(ratio: np.ndarray, category: list, train: set, n_users: int, seed: int = 0):
    """(ratios, tiers, per-user contributed tuples) of ``attach_contributions``."""
    by_user = _items_by_user(train)
    ratios = ratio.copy()
    tiers = list(category)
    contributed: list[tuple] = []
    for u in range(n_users):
        local = sorted((u, i) for i in by_user.get(u, ()))
        tier = tiers[u]
        if tier is ShareTier.NONE or not local:
            if tier is not ShareTier.NONE and not local:
                tiers[u] = ShareTier.NONE
                ratios[u] = 0.0
            contributed.append(())
            continue
        if tier is ShareTier.ALL:
            contributed.append(tuple(local))
            continue
        take = min(math.ceil(ratios[u] * len(local)), len(local) - 1)
        if take <= 0:
            tiers[u] = ShareTier.NONE
            ratios[u] = 0.0
            contributed.append(())
            continue
        rng = child_rng(seed, "subset", u)
        contributed.append(_sample_pairs(local, take, rng))
    return ratios, tiers, tuple(contributed)


# Share tiers as they were when each user's tier was a list entry kept beside
# the ratio: a per-user clamp of the drawn ratio, then a per-user degrade of
# the sharers with too few train pairs.


def clamp_ratio(r: float) -> tuple[float, ShareTier]:
    # Boundary rule: r <= 0.05 opts out entirely, r >= 0.95 contributes all.
    if r <= 0.05:
        return 0.0, ShareTier.NONE
    if r >= 0.95:
        return 1.0, ShareTier.ALL
    return float(r), ShareTier.PART


def share_policy_loop(n_users: int, mode: str, ratio, train: np.ndarray, seed: int):
    """(ratios, tiers, contributed edge array) of ``assign_share_policy``
    followed by ``attach_contributions`` on the sorted train edge array,
    both under ``seed``."""
    raw = child_rng(seed, "ratio").random(n_users) if mode == "uniform" else np.full(n_users, float(ratio))
    ratios = np.zeros(n_users)
    tiers: list[ShareTier] = []
    for u in range(n_users):
        ratios[u], tier = clamp_ratio(float(raw[u]))
        tiers.append(tier)
    counts = np.bincount(train[:, 0], minlength=n_users)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    keep = np.zeros(train.shape[0], dtype=bool)
    for u in range(n_users):
        n = int(counts[u])
        take = min(math.ceil(ratios[u] * n), n - 1)
        if (tiers[u] is ShareTier.ALL and n == 0) or (tiers[u] is ShareTier.PART and take <= 0):
            tiers[u] = ShareTier.NONE
            ratios[u] = 0.0
        elif tiers[u] is ShareTier.ALL:
            keep[ptr[u] : ptr[u + 1]] = True
        elif tiers[u] is ShareTier.PART:
            keep[ptr[u] + child_rng(seed, "subset", u).choice(n, size=take, replace=False)] = True
    return ratios, tiers, train[keep]


def share_bins_loop(ratio) -> list[dict]:
    """``cli._share_bins`` one user at a time."""
    bins = [{"bin": "0 (none)", "users": 0}]
    edges = [round(0.1 * j, 1) for j in range(10)]
    for lo in edges:
        label = f"({lo},{lo + 0.1:.1f})" if lo == 0.0 else f"[{lo},{lo + 0.1:.1f})"
        bins.append({"bin": label, "users": 0})
    bins.append({"bin": "1 (all)", "users": 0})
    for r in ratio:
        if r == 0.0:
            bins[0]["users"] += 1
        elif r == 1.0:
            bins[-1]["users"] += 1
        else:
            bins[1 + min(int(r * 10), 9)]["users"] += 1
    return bins


def recall_oracle(ranked, relevant) -> float:
    hits = 0
    for item in ranked:
        if item in relevant:
            hits += 1
    return hits / len(relevant)


def ndcg_oracle(ranked, relevant, k) -> float:
    dcg = 0.0
    for pos, item in enumerate(ranked):
        if item in relevant:
            dcg += 1.0 / math.log2(pos + 2)
    ideal = min(k, len(relevant))
    idcg = sum(1.0 / math.log2(p + 2) for p in range(ideal))
    return dcg / idcg


# Ranking as ``evaluate`` defines it: one product over the split's users (of
# unit rows, for cosine), then a full stable argsort of each user's row. The
# per-user gemv it replaced stays as ``rank_candidates_gemv``.


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 1e-12, norms, 1.0)
    return np.where((norms > 1e-12)[:, None], x / safe[:, None], 0.0)


def _top_k(scores: np.ndarray, train_items, k: int) -> np.ndarray:
    mask = np.zeros(scores.size, dtype=bool)
    train_idx = np.asarray(sorted(train_items), dtype=np.int64)
    if train_idx.size:
        mask[train_idx] = True
    scores = np.where(mask, -np.inf, scores)
    order = np.argsort(-scores, kind="stable")
    order = order[~mask[order]]
    return order[:k].astype(np.int64)


def rank_candidates(
    user_views: np.ndarray,
    item_views: np.ndarray,
    train_items,
    k: int,
    sim: str = "cosine",
):
    """Top-k candidate items of each user row, excluding its train items.

    ``user_views`` holds the split's users, one row each, and
    ``train_items`` one collection of item ids per row; every row is scored
    by one product against the item table. A single ``(d,)`` vector is a
    split of one user: ``train_items`` is then its collection, and one id
    array comes back instead of a list. Ties in score break toward the
    smaller item id (stable sort on the negated scores). Returns fewer than
    k ids when fewer candidates exist.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if sim not in ("inner", "cosine"):
        raise ConfigError(f"unknown similarity {sim!r}")
    one = np.ndim(user_views) == 1
    rows, cols = np.atleast_2d(user_views), item_views
    if sim == "cosine":
        rows, cols = _unit_rows(rows), _unit_rows(cols)
    scores = rows @ cols.T
    ranked = [_top_k(row, train, k) for row, train in zip(scores, [train_items] if one else train_items)]
    return ranked[0] if one else ranked


def _score_rows(user_vec: np.ndarray, item_views: np.ndarray, sim: str) -> np.ndarray:
    if sim == "inner":
        return item_views @ user_vec
    if sim != "cosine":
        raise ConfigError(f"unknown similarity {sim!r}")
    u_norm = float(np.linalg.norm(user_vec))
    i_norms = np.linalg.norm(item_views, axis=1)
    ok = (i_norms > 1e-12) & (u_norm > 1e-12)
    denom = np.where(ok, i_norms * max(u_norm, 1e-300), 1.0)
    return np.where(ok, item_views @ user_vec / denom, 0.0)


def rank_candidates_gemv(
    user_vec: np.ndarray,
    item_views: np.ndarray,
    train_items,
    k: int,
    sim: str = "cosine",
) -> np.ndarray:
    """One user's top-k as ranking was when each user was scored alone: a
    gemv against the item table and, for cosine, a division by both norms."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return _top_k(_score_rows(user_vec, item_views, sim), train_items, k)


def cosine_oracle(a, b) -> float:
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(x * x for x in b))
    if na < 1e-12 or nb < 1e-12:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (na * nb)


def fd_gradient(loss_fn, state, h: float = 1e-5):
    """Central finite differences of ``loss_fn(state)`` w.r.t. both tables.

    Returns dense gradient arrays shaped like state.user / state.item.
    """
    grads = []
    for table in (state.user, state.item):
        g = np.zeros_like(table)
        for r in range(table.shape[0]):
            for c in range(table.shape[1]):
                orig = table[r, c]
                table[r, c] = orig + h
                lp = loss_fn(state)
                table[r, c] = orig - h
                lm = loss_fn(state)
                table[r, c] = orig
                g[r, c] = (lp - lm) / (2.0 * h)
        grads.append(g)
    return grads[0], grads[1]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape, dtype and bytes: stricter than ``np.array_equal``,
    which takes -0.0 for 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def max_rel_err(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


# ---------------------------------------------------------------- row blocks
#
# The package keeps sparse rows as RowBlock arrays; the references below keep
# them as {row: vector} dicts and walk the rows one at a time in ascending
# order, as the package did before its row blocks existed.


def block_of(store: dict) -> RowBlock:
    """A {row: vector} dict as a RowBlock."""
    rows = sorted(store)
    if not rows:
        return RowBlock()
    return RowBlock(np.asarray(rows, dtype=np.int64), np.stack([store[r] for r in rows]))


def bundle_of(user=None, item=None) -> GradientBundle:
    return GradientBundle(block_of(user or {}), block_of(item or {}))


def as_dict(block: RowBlock) -> dict:
    """A RowBlock as a {row: vector} dict."""
    return {int(r): v for r, v in zip(block.rows, block.values)}


def adam_loop(rows: dict, moments: dict, t: int, lr: float, b1: float, b2: float, eps: float) -> dict:
    """One bias-corrected Adam step per row; ``moments`` maps row -> (m, v)
    and is updated in place. Returns row -> delta."""
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    deltas = {}
    for row in sorted(rows):
        g = rows[row]
        m, v = moments.get(row, (np.zeros_like(g), np.zeros_like(g)))
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        moments[row] = (m, v)
        m_hat = m / bc1
        v_hat = v / bc2
        deltas[row] = -lr * m_hat / (np.sqrt(v_hat) + eps)
    return deltas


def ldp_loop(bundle: GradientBundle, clip: float, noise_scale: float, rng) -> tuple[dict, dict]:
    """Per-row clip to L2 norm ``clip`` plus Laplace noise, user rows first;
    returns the (user, item) dicts."""
    out = ({}, {})
    for target, block in zip(out, (bundle.user, bundle.item)):
        store = as_dict(block)
        for row in sorted(store):
            vec = store[row].copy()
            if clip > 0.0:
                norm = float(np.linalg.norm(vec))
                if norm > clip:
                    vec *= clip / norm
            if noise_scale > 0.0:
                vec = vec + rng.laplace(0.0, noise_scale, size=vec.shape)
            target[row] = vec
    return out


def fedavg_loop(uploads, base_user: np.ndarray, base_item: np.ndarray):
    """Row-wise weighted average of (GradientBundle, weight) uploads,
    accumulated upload by upload; returns the new (user, item) tables."""
    out = (base_user.copy(), base_item.copy())
    acc = ({}, {})
    for bundle, weight in uploads:
        for slot, block in zip(acc, (bundle.user, bundle.item)):
            store = as_dict(block)
            for row in sorted(store):
                vec_sum, w_sum = slot.get(row, (np.zeros_like(store[row]), 0.0))
                slot[row] = (vec_sum + weight * store[row], w_sum + weight)
    for table, slot in zip(out, acc):
        for row in sorted(slot):
            vec_sum, w_sum = slot[row]
            if w_sum > 0.0:
                table[row] = table[row] + vec_sum / w_sum
    return out


def compute_loss(spec, state):
    """The loss parts of ``spec`` at ``state`` (gradients discarded)."""
    return compute_gradients(spec, state)[0]


def infonce_oracle(queries: np.ndarray, keys: np.ndarray, pos_idx: np.ndarray, tau: float, trainable: str):
    """``learn._infonce_terms`` as one unblocked pass on the calling
    thread: a single (..., n_q, n_k) logits buffer, one product for the key
    gradient. The blocked version must have its bits."""
    q_hat, q_norm, q_ok = _safe_unit(queries)
    k_hat, k_norm, k_ok = _safe_unit(keys)
    # one (..., n_q, n_k) buffer goes from logits to exponentials to the
    # gradient of the cosines, each step in place
    buf = q_hat @ np.swapaxes(k_hat, -1, -2)
    buf /= tau
    pos = pos_idx[..., None]
    pos_logits = np.take_along_axis(buf, pos, axis=-1)[..., 0]
    row_max = buf.max(axis=-1, keepdims=True)
    buf -= row_max
    np.exp(buf, out=buf)
    denom = buf.sum(axis=-1, keepdims=True)
    log_denom = np.log(denom[..., 0]) + row_max[..., 0]
    loss = np.sum(log_denom - pos_logits, axis=-1)
    buf /= denom
    np.put_along_axis(buf, pos, np.take_along_axis(buf, pos, axis=-1) - 1.0, axis=-1)
    buf /= tau  # d loss / d cos
    if trainable == "query":
        g_hat, hat, norm, ok = buf @ k_hat, q_hat, q_norm, q_ok
    else:
        g_hat, hat, norm, ok = np.swapaxes(buf, -1, -2) @ q_hat, k_hat, k_norm, k_ok
    # project out the radial component: d cos / d x = (g - (g . x_hat) x_hat)/||x||
    inv = np.where(ok, 1.0 / np.where(ok, norm, 1.0), 0.0)
    return loss, (g_hat - np.sum(g_hat * hat, axis=-1, keepdims=True) * hat) * inv[..., None]


# The privacy audit as it was checked when the log held one event per
# (owner, recipient) pair: an exchange record expands into those events,
# and each event is checked on its own.


def exchange_pairs(record: dict) -> list[tuple[int, int]]:
    """The (owner, recipient) distributions one exchange record stands for:
    each recipient's own view, then every broadcast owner's view."""
    pairs = []
    for recipient in record["recipients"]:
        pairs.append((recipient, recipient))
        pairs.extend((owner, recipient) for owner in record["broadcast"] if owner != recipient)
    return pairs


def violations_per_event(events: list, policy) -> list[str]:
    """Tier violations found event by event over the expanded log."""
    problems = []
    for e in events:
        if e["event"] == "upload" and policy.tier[e["user"]] == ShareTier.NONE:
            problems.append(f"round {e['round']}: NONE user {e['user']} uploaded a view")
        if e["event"] != "exchange":
            continue
        for owner, recipient in exchange_pairs(e):
            tier = policy.tier[owner]
            if tier == ShareTier.NONE:
                problems.append(f"round {e['round']}: NONE user {owner} view distributed")
            if tier == ShareTier.PART and owner != recipient:
                problems.append(f"round {e['round']}: PART user {owner} view sent to device {recipient}")
    return problems


# Graph mending as it was when links travelled as (user, item) tuples: one
# user row at a time for the predictions, and a nested loop over active
# users and items for the non-edge list.


def impair_graph_loop(g, fraction: float, seed=0):
    """``impair_graph`` as a walk over numpy scalars: the permuted edges are
    indexed one at a time and the degree counters are numpy arrays."""
    target = int(np.floor(fraction * g.edge_count))
    edges = g.edge_array()
    rng = np.random.default_rng(seed)
    order = rng.permutation(g.edge_count)
    u_deg = g.user_deg.copy()
    i_deg = g.item_deg.copy()
    removed_mask = np.zeros(g.edge_count, dtype=bool)
    n_removed = 0
    for idx in order:
        if n_removed >= target:
            break
        u, i = int(edges[idx, 0]), int(edges[idx, 1])
        if u_deg[u] <= 1 or i_deg[i] <= 1:
            continue
        u_deg[u] -= 1
        i_deg[i] -= 1
        removed_mask[idx] = True
        n_removed += 1
    impaired = BipartiteGraph(g.n_users, g.n_items, edges[~removed_mask])
    return impaired, edges[removed_mask]


def predict_links_loop(g, mender, threshold: float, cap_per_user, layers: int):
    """Per-user thresholding of the mended-view cosine; returns the
    (pairs, scores) arrays of the predictions sorted by (user, item)."""
    z_u, z_i = propagate_combine(g, mender.user, mender.item, default_alpha(layers))
    users = np.nonzero(g.user_deg > 0)[0]
    items = np.nonzero(g.item_deg > 0)[0]
    if users.size == 0 or items.size == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0)
    sims = _unit_rows(z_u[users]) @ _unit_rows(z_i[items]).T
    predicted = []
    scores = {}
    for row, u in enumerate(users):
        mask = np.isin(items, user_row(g, int(u)))
        cand_scores = sims[row]
        hits = np.nonzero((cand_scores >= threshold) & ~mask)[0]
        if hits.size == 0:
            continue
        if cap_per_user is not None and hits.size > cap_per_user:
            order = np.lexsort((items[hits], -cand_scores[hits]))
            hits = hits[order[:cap_per_user]]
        for j in hits:
            pair = (int(u), int(items[j]))
            predicted.append(pair)
            scores[pair] = float(cand_scores[j])
    predicted.sort()
    pairs = np.asarray(predicted, dtype=np.int64).reshape(-1, 2)
    return pairs, np.asarray([scores[p] for p in predicted], dtype=np.float64)


def sample_negative_links_loop(g_full, count: int, rng):
    """Rejection-sampled non-edges of ``g_full``, then a draw from the full
    non-edge list built in nested Python loops. Returns the (count, 2)
    links and how many of them came from that list."""
    users = np.nonzero(g_full.user_deg > 0)[0]
    items = np.nonzero(g_full.item_deg > 0)[0]
    total_cells = users.size * items.size
    if total_cells == 0 or total_cells <= g_full.edge_count:
        return np.zeros((0, 2), dtype=np.int64), 0
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * max(count, 1):
        u = int(users[rng.integers(users.size)])
        i = int(items[rng.integers(items.size)])
        attempts += 1
        if not has_edge(g_full, u, i):
            out.append((u, i))
    need = count - len(out)
    if need > 0:
        candidates = []
        for u in users:
            row = set(user_row(g_full, int(u)).tolist())
            for i in items:
                if int(i) not in row:
                    candidates.append((int(u), int(i)))
        idx = rng.choice(len(candidates), size=need, replace=len(candidates) < need)
        out.extend(candidates[j] for j in np.atleast_1d(idx))
    return np.asarray(out, dtype=np.int64).reshape(-1, 2), need


def sample_negatives(interacted: np.ndarray, k: int, n_items: int, rng) -> np.ndarray:
    """k uniform items outside ``interacted``, as one device draws them:
    ``rng.choice`` of the complement's size, without replacement while the
    complement allows it, indexing the ascending complement itself."""
    complement = np.setdiff1d(np.arange(n_items), interacted)
    if complement.size == 0:
        raise ValueError("user interacted with every item; no negatives exist")
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    return complement[rng.choice(complement.size, size=k, replace=k > complement.size)]


def server_negatives_loop(graph, users: np.ndarray, rng) -> np.ndarray:
    """One negative per entry of the ascending ``users``: per run of one
    user, an ``n_items`` mask of its row, the complement from
    ``flatnonzero`` and one ``rng.choice`` of it."""
    negatives = np.zeros(users.size, dtype=np.int64)
    run_users, starts, counts = np.unique(users, return_index=True, return_counts=True)
    for u, start, n in zip(run_users.tolist(), starts.tolist(), counts.tolist()):
        mask = np.ones(graph.n_items, dtype=bool)
        mask[user_row(graph, u)] = False
        complement = np.flatnonzero(mask)
        if complement.size == 0:
            raise ValueError(f"user {u} interacted with every item")
        negatives[start : start + n] = rng.choice(complement, size=n, replace=n > complement.size)
    return negatives


# ---------------------------------------------------------------- devices
#
# The package trains a round's devices side by side as one EgoGraph forest.
# The references below train one device at a time, each on its own star
# built as a BipartiteGraph, as the package did before the forest.


def _private_rows_one(work: RowBlock, item_table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    rows = item_table[ids]
    if work:
        at = np.minimum(np.searchsorted(work.rows, ids), len(work) - 1)
        hit = work.rows[at] == ids
        rows[hit] = work.values[at[hit]]
    return rows


def _cl_terms_one(dev, received, local_ids: np.ndarray, compact_ids: np.ndarray) -> list:
    terms = []
    users, items = received.user_views, received.item_views
    # the device's keys as one sorted block of its own: the shared block's
    # views, plus its own view where the block lacks it
    user_ids, user_values = users.rows, users.values
    if dev.user_id not in user_ids:
        user_ids = np.union1d(users.rows, [dev.user_id])
        at = int(np.searchsorted(user_ids, dev.user_id))
        user_values = np.insert(users.values, at, received.own_view, axis=0)
    terms.append(
        CLTerm(
            kind="user",
            trainable="query",
            rows=np.array([0], dtype=np.int64),
            ids=np.array([dev.user_id], dtype=np.int64),
            fixed_ids=user_ids,
            fixed_views=user_values,
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


def client_train_one(dev, item_table, tier, received, hyper, round_idx: int, train_seed: int):
    """One device's local epochs alone: returns (DeviceUpload, LossParts)
    and updates ``dev`` in place."""
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
        rows = _private_rows_one(work, item_table, compact_ids)
        state = EmbeddingState(dev.p_u[None, :].copy(), rows)
        cl_weight = hyper.cl_weight if received is not None else 0.0
        spec = LossSpec(
            graph=BipartiteGraph(1, compact_ids.size, [(0, p) for p in pos_c.tolist()]),
            alpha=alpha,
            bpr_users=np.zeros(local.size, dtype=np.int64),
            bpr_pos=pos_c,
            bpr_neg=neg_c,
            cl_terms=_cl_terms_one(dev, received, local, compact_ids) if cl_weight > 0.0 else [],
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
        star = BipartiteGraph(1, local.size, [(0, i) for i in range(local.size)])
        user_view = propagate_combine(star, dev.p_u[None, :], _private_rows_one(work, item_table, local), alpha)[0][0]
    upload = DeviceUpload(
        device_id=dev.user_id,
        weight=float(local.size * hyper.local_epochs),
        delta=delta,
        user_view=user_view,
    )
    bpr, cl, reg, total = (loss_sums / hyper.local_epochs).tolist()
    return upload, LossParts(bpr=bpr, cl=cl, reg=reg, total=total)


def device_views_loop(device_user: np.ndarray, item: np.ndarray, ds):
    """Each user's ego view of its own train items, one single-star
    EgoGraph per user."""
    alpha = default_alpha(1)
    user_views = alpha[0] * device_user
    for u, items in ds.pairs_by_user(ds.train).items():
        ego = EgoGraph([0, items.size])
        user_views[u] = ego.combine(device_user[u : u + 1], item[items], alpha)[0][0]
    return user_views, alpha[0] * item
