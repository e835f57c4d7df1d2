"""Graph mending: impair the contributed graph, train link embeddings on
the impaired version, and predict missing links above a cosine threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import select_blocks, unit_rows
from .graph import BipartiteGraph, EmbeddingState, default_alpha, propagate_combine, xavier_init
from .learn import AdamMoments, HyperParams, LossSpec, adam_step, compute_gradients
from .seeds import child_rng


@dataclass
class MendingArtifacts:
    """What the mending stage produced that a run reads or reports: the
    links it held out, the mender's per-epoch losses, its predictions and
    the mended graph; not the impaired graph or the mender's tables, which
    a run would otherwise hold to its end.

    Link sets are (n, 2) int64 edge arrays sorted by (user, item);
    ``scores`` holds one cosine per row of ``predicted``.
    """

    removed: np.ndarray
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
    # the walk reads Python ints and lists: indexing numpy scalars per edge
    # costs several times the guard itself
    u_deg, i_deg = g.user_deg.tolist(), g.item_deg.tolist()
    taken = []  # positions in ``order`` of the removed edges
    if target:
        walk = edges[order]
        for at, (u, i) in enumerate(zip(walk[:, 0].tolist(), walk[:, 1].tolist())):
            if u_deg[u] > 1 and i_deg[i] > 1:
                u_deg[u] -= 1
                i_deg[i] -= 1
                taken.append(at)
                if len(taken) == target:
                    break
    removed_mask = np.zeros(g.edge_count, dtype=bool)
    removed_mask[order[taken]] = True
    impaired = BipartiteGraph(g.n_users, g.n_items, edges[~removed_mask])
    return impaired, edges[removed_mask]


# Most rejection tries ``_sample_negative_links`` draws in one block.
_TRY_BLOCK = 2**12


class _LinkSpace:
    """What ``_sample_negative_links`` reads of a graph: its users and items
    of nonzero degree, ascending, and its edges as sorted keys
    ``u * n_items + i``. A mender run builds it once, since the full graph
    does not change between epochs."""

    __slots__ = ("users", "items", "n_items", "edge_keys")

    def __init__(self, g: BipartiteGraph) -> None:
        self.users = np.nonzero(g.user_deg > 0)[0]
        self.items = np.nonzero(g.item_deg > 0)[0]
        self.n_items = g.n_items
        edges = g.edge_array()  # sorted by (user, item), so the keys are sorted
        self.edge_keys = edges[:, 0] * g.n_items + edges[:, 1]


def _sample_negative_links(space: _LinkSpace, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform non-edges of the graph of ``space`` among nonzero-degree
    endpoints, 1 per positive. Rejection sampling; falls back to a draw
    from the full non-edge list when the graph is too dense for rejection
    to finish quickly.

    A try is a user draw then an item draw, each ``rng.integers`` over the
    candidates, and is kept when it is not an edge; sampling stops at
    ``count`` links or ``50 * count`` tries. The tries are drawn in blocks
    by one ``rng.integers`` over the bounds of the block, which draws what
    those scalar calls would; the block that finds the last link is drawn
    again from its start state up to that try, so the generator is left
    where the scalar calls would leave it.
    """
    users, items, n_items, edge_keys = space.users, space.items, space.n_items, space.edge_keys
    total_cells = users.size * items.size
    if total_cells == 0 or total_cells <= edge_keys.size:
        return np.zeros((0, 2), dtype=np.int64)
    non_edges = total_cells - edge_keys.size
    cycle = np.array([users.size, items.size])
    found = [np.zeros(0, dtype=np.int64)]  # keys u * n_items + i
    n_found = attempts = 0
    max_attempts = 50 * max(count, 1)
    while n_found < count and attempts < max_attempts:
        # the tries expected to find the links still needed, and a tenth more
        tries = min(
            _TRY_BLOCK,
            (count - n_found) * total_cells * 11 // (10 * non_edges) + 1,
            max_attempts - attempts,
        )
        saved = rng.bit_generator.state
        values = rng.integers(0, np.tile(cycle, tries))
        keys = users[values[0::2]] * n_items + items[values[1::2]]
        at = np.minimum(np.searchsorted(edge_keys, keys), edge_keys.size - 1)
        hit = np.flatnonzero(edge_keys[at] != keys)[: count - n_found]
        if hit.size == count - n_found and hit[-1] + 1 < tries:
            tries = int(hit[-1]) + 1
            rng.bit_generator.state = saved
            rng.integers(0, np.tile(cycle, tries))
        found.append(keys[hit])
        n_found += hit.size
        attempts += tries
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
    space = _LinkSpace(g_full)
    for epoch in range(hyper.mend_epochs):
        rng = child_rng(seed, "mend_neg", epoch)
        negatives = _sample_negative_links(space, removed.shape[0], rng)
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
    cap_per_user: int,
    layers: int,
):
    """Score non-edges of ``g`` by mended-view cosine and keep those >= t.

    Views are the mender embeddings propagated ``layers`` steps over ``g``
    itself (callers pass the impaired graph to measure recovery, or the full
    contributed graph in the production pipeline). Only endpoints with
    nonzero degree are candidates. Per user, at most ``cap_per_user``
    predictions survive, best score first, ties broken by ascending item
    id: existing edges score -inf, and each row keeps its entries above
    -inf that reach the threshold, the cap best of them
    (``blocks.select_blocks``, the rule ``evaluate`` ranks by). Users are
    scored in row blocks of bounded size, which under a single-threaded
    BLAS have the bits of one users x items product (see
    ``blocks.row_blocks``).

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
    rows, cols, scores = zip(*select_blocks(unit_u, unit_i, edge_rows, edge_cols, threshold, cap_per_user))
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
    return MendingArtifacts(removed=removed, losses=losses, predicted=predicted, scores=scores, mended=mended)


def write_predictions_tsv(predicted: np.ndarray, scores: np.ndarray, path: str) -> None:
    """Dump predicted links as user<TAB>item<TAB>score lines."""
    with open(path, "w", encoding="utf-8") as fh:
        for (u, i), score in zip(predicted.tolist(), scores.tolist()):
            fh.write(f"{u}\t{i}\t{score:.6f}\n")
