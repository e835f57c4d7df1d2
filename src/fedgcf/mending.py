"""Graph mending: impair the contributed graph, train link embeddings on
the impaired version, and predict missing links above a cosine threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import _select_blocks, unit_rows
from .graph import BipartiteGraph, EmbeddingState, default_alpha, propagate_combine, xavier_init
from .learn import AdamMoments, HyperParams, LossSpec, adam_step, compute_gradients
from .seeds import child_rng


@dataclass
class MendingArtifacts:
    """Everything the mending stage produced, kept for inspection.

    Link sets are (n, 2) int64 edge arrays sorted by (user, item);
    ``scores`` holds one cosine per row of ``predicted``.
    """

    impaired: BipartiteGraph
    removed: np.ndarray
    mender: EmbeddingState
    losses: list[float]
    predicted: np.ndarray
    scores: np.ndarray
    mended: BipartiteGraph


def impair_graph(g: BipartiteGraph, fraction: float, seed=0):
    """Remove floor(fraction * E) random edges without isolating nodes.

    Edges are visited in a seeded random permutation; an edge is skipped
    when either endpoint currently has degree 1, so every node that had an
    edge keeps one. Fewer edges than requested may be removed when the
    guard leaves no alternatives. Returns the impaired graph and the
    removed edges.
    """
    if not (0.0 <= fraction < 1.0):
        raise ValueError(f"impair fraction must be in [0,1), got {fraction}")
    if g.edge_count == 0:
        raise ValueError("cannot impair a graph with no edges")
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


# Most rejection tries ``_sample_negative_links`` draws in one block.
_TRY_BLOCK = 2**12


def _bounded_draws(words: np.ndarray, bounds: tuple[int, ...]):
    """The draws that scalar ``rng.integers(n)`` calls, with n cycling
    through ``bounds`` (each in (1, 2**32)), make from the raw 32-bit
    ``words`` that follow in the generator's stream.

    numpy runs Lemire's bounded method (Lemire, ACM TOMACS 2019) on one
    word per try: ``m = w * n`` gives ``m >> 32`` unless
    ``m mod 2**32 < (2**32 - n) mod n``, which rejects the word and
    retries the same bound on the next. Returns every completed draw's
    value and the index one past the word it accepted.
    """
    cycle = np.asarray(bounds, dtype=np.uint64)
    limits = (2**32 - cycle) % cycle
    values, ends = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    start = phase = 0
    while start < words.size:
        reps = -(-(words.size - start) // cycle.size)
        n, limit = (np.tile(np.roll(a, -phase), reps)[: words.size - start] for a in (cycle, limits))
        m = words[start:] * n
        rejected = np.flatnonzero((m & 0xFFFFFFFF) < limit)
        stop = rejected[0] if rejected.size else m.size
        values.append((m[:stop] >> 32).astype(np.int64))
        ends.append(start + 1 + np.arange(stop))
        # a rejection shifts every later draw by one word
        start += stop + 1
        phase = (phase + stop) % cycle.size
    return np.concatenate(values), np.concatenate(ends)


def _sample_negative_links(
    g_full: BipartiteGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform non-edges of ``g_full`` among nonzero-degree endpoints, 1 per
    positive. Rejection sampling; falls back to a draw from the full
    non-edge list when the graph is too dense for rejection to finish
    quickly.

    A try is a user draw then an item draw, each ``rng.integers`` over the
    candidates, and is kept when it is not an edge; sampling stops at
    ``count`` links or ``50 * count`` tries. The tries are drawn in blocks
    of raw words and reduced as ``rng.integers`` would reduce them, and
    the generator is left where those scalar draws would leave it.
    """
    users = np.nonzero(g_full.user_deg > 0)[0]
    items = np.nonzero(g_full.item_deg > 0)[0]
    total_cells = users.size * items.size
    if total_cells == 0 or total_cells <= g_full.edge_count:
        return np.zeros((0, 2), dtype=np.int64)
    n_items = g_full.n_items
    edges = g_full.edge_array()  # sorted by (user, item), so the keys are sorted
    edge_keys = edges[:, 0] * n_items + edges[:, 1]
    non_edges = total_cells - g_full.edge_count
    # a bound of 1 draws no word
    bounds = tuple(n for n in (users.size, items.size) if n > 1)
    saved = rng.bit_generator.state
    found = [np.zeros(0, dtype=np.int64)]  # keys u * n_items + i
    n_found = attempts = consumed = 0
    max_attempts = 50 * max(count, 1)
    words = np.zeros(0, dtype=np.uint64)
    while n_found < count and attempts < max_attempts:
        # the tries expected to find the links still needed, and a tenth more
        block = min(_TRY_BLOCK, (count - n_found) * total_cells * 11 // (10 * non_edges) + 1)
        words = np.concatenate([words, rng.integers(0, 2**32, size=block * len(bounds), dtype=np.uint64)])
        values, ends = _bounded_draws(words, bounds)
        tries = min(values.size // len(bounds), max_attempts - attempts)
        draws = values[: tries * len(bounds)].reshape(tries, len(bounds))
        u = draws[:, 0] if users.size > 1 else np.zeros(tries, dtype=np.int64)
        i = draws[:, -1] if items.size > 1 else np.zeros(tries, dtype=np.int64)
        keys = users[u] * n_items + items[i]
        at = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
        hit = np.flatnonzero(edge_keys[at] != keys)[: count - n_found]
        if hit.size == count - n_found:
            tries = int(hit[-1]) + 1
        found.append(keys[hit])
        n_found += hit.size
        attempts += tries
        used = int(ends[tries * len(bounds) - 1]) if tries else 0
        consumed += used
        words = words[used:]
    rng.bit_generator.state = saved
    rng.integers(0, 2**32, size=consumed, dtype=np.uint64)
    keys = np.concatenate(found)
    need = count - n_found
    if need > 0:
        # the non-edges in user-major order, as keys
        cells = (users[:, None] * n_items + items).ravel()
        candidates = cells[~np.isin(cells, edge_keys)]
        idx = rng.choice(candidates.size, size=need, replace=candidates.size < need)
        keys = np.concatenate([keys, candidates[idx]])
    return np.stack(np.divmod(keys, n_items), axis=1)


def train_mender(
    impaired: BipartiteGraph,
    removed: np.ndarray,
    g_full: BipartiteGraph,
    hyper: HyperParams,
    seed=0,
):
    """Fit fresh embeddings so removed links score near 1 and sampled
    non-links near 0.

    Views come from ``layers_server`` propagation over the impaired graph.
    Each epoch resamples one negative non-edge (of the unimpaired graph)
    per removed link and takes one Adam step on the absolute-residual
    loss. Returns the trained state and the per-epoch losses.
    """
    rng_init = child_rng(seed, "mend_init")
    state = xavier_init(impaired.n_users, impaired.n_items, hyper.dim, rng_init)
    moments = AdamMoments()
    losses: list[float] = []
    alpha = default_alpha(hyper.layers_server)
    for epoch in range(hyper.mend_epochs):
        rng = child_rng(seed, "mend_neg", epoch)
        negatives = _sample_negative_links(g_full, removed.shape[0], rng)
        spec = LossSpec(
            graph=impaired,
            alpha=alpha,
            link_positives=removed,
            link_negatives=negatives,
        )
        parts, grads = compute_gradients(spec, state)
        losses.append(parts.total)
        adam_step(state, grads, moments, hyper)
    return state, losses


def predict_links(
    g: BipartiteGraph,
    mender: EmbeddingState,
    threshold: float,
    cap_per_user: int | None,
    layers: int,
):
    """Score non-edges of ``g`` by mended-view cosine and keep those >= t.

    Views are the mender embeddings propagated ``layers`` steps over ``g``
    itself (callers pass the impaired graph to measure recovery, or the full
    contributed graph in the production pipeline). Only endpoints with
    nonzero degree are candidates. Per user, at most ``cap_per_user``
    predictions survive (None: no cap), best score first, ties broken by
    ascending item id: existing edges score -inf, and each row keeps its
    entries above -inf that reach the threshold, the cap best of them
    (``evaluate._select_blocks``, the rule ``evaluate`` ranks by). Users are
    scored in row blocks of bounded size, which under a single-threaded
    BLAS have the bits of one users x items product (see
    ``evaluate.row_blocks``).

    Returns the (n, 2) predicted pairs sorted by (user, item) and their
    scores, one per row.
    """
    z_u, z_i = propagate_combine(g, mender.user, mender.item, default_alpha(layers))
    users = np.nonzero(g.user_deg > 0)[0]
    items = np.nonzero(g.item_deg > 0)[0]
    if users.size == 0 or items.size == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0)
    unit_u, unit_i = unit_rows(z_u[users]), unit_rows(z_i[items])
    edges = g.edge_array()
    edge_rows = np.searchsorted(users, edges[:, 0])
    edge_cols = np.searchsorted(items, edges[:, 1])
    rows, cols, scores = zip(*_select_blocks(unit_u, unit_i, edge_rows, edge_cols, threshold, cap_per_user))
    pairs = np.stack([users[np.concatenate(rows)], items[np.concatenate(cols)]], axis=1)
    return pairs, np.concatenate(scores)


def mend_graph(g: BipartiteGraph, hyper: HyperParams, seed=0) -> MendingArtifacts:
    """Full mending pipeline over the contributed graph ``g``.

    Impair, train the mender on the impaired graph, then predict missing
    links for ``g`` itself; the mended graph is ``g`` plus the predictions.
    """
    rng = child_rng(seed, "impair")
    impaired, removed = impair_graph(g, hyper.impair_fraction, rng)
    mender, losses = train_mender(impaired, removed, g, hyper, seed)
    predicted, scores = predict_links(
        g, mender, hyper.mend_threshold, hyper.mend_cap_per_user, hyper.layers_server
    )
    mended = BipartiteGraph(g.n_users, g.n_items, np.concatenate([g.edge_array(), predicted]))
    return MendingArtifacts(
        impaired=impaired,
        removed=removed,
        mender=mender,
        losses=losses,
        predicted=predicted,
        scores=scores,
        mended=mended,
    )


def write_predictions_tsv(predicted: np.ndarray, scores: np.ndarray, path: str) -> None:
    """Dump predicted links as user<TAB>item<TAB>score lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for (u, i), score in zip(predicted.tolist(), scores.tolist()):
            fh.write(f"{u}\t{i}\t{score:.6f}\n")
