import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedgcf.blocks as blocks_module
import fedgcf.mending as mending_module
from fedgcf.graph import BipartiteGraph, EmbeddingState, default_alpha, xavier_init
from fedgcf.learn import AdamMoments, HyperParams, LossSpec, adam_step, compute_gradients
from fedgcf.mending import (
    _LinkSpace,
    _sample_negative_links,
    impair_graph,
    mend_graph,
    predict_links,
    train_mender,
    write_predictions_tsv,
)

from fedgcf.seeds import child_rng

from oracles import has_edge, impair_graph_loop, predict_links_loop, sample_negative_links_loop


def ladder_graph(n_u=12, n_i=12, extra=24, seed=0):
    """Each user linked to its own item plus ``extra`` random edges."""
    rng = np.random.default_rng(seed)
    pairs = {(u, u % n_i) for u in range(n_u)}
    while len(pairs) < n_u + extra:
        pairs.add((int(rng.integers(n_u)), int(rng.integers(n_i))))
    return BipartiteGraph(n_u, n_i, sorted(pairs))


# ---------------------------------------------------------------- impair


def test_impair_removes_requested_fraction():
    g = ladder_graph()
    impaired, removed = impair_graph(g, 0.25, seed=1)
    target = int(np.floor(0.25 * g.edge_count))
    assert len(removed) == target
    assert impaired.edge_count == g.edge_count - target
    for u, i in removed:
        assert has_edge(g, u, i) and not has_edge(impaired, u, i)


def test_impair_never_isolates_nodes():
    g = ladder_graph()
    impaired, _ = impair_graph(g, 0.5, seed=2)
    assert np.all(impaired.user_deg[g.user_deg > 0] >= 1)
    assert np.all(impaired.item_deg[g.item_deg > 0] >= 1)


def test_impair_degree_guard_limits_removal():
    # perfect matching: every edge touches degree-1 endpoints, nothing removable
    g = BipartiteGraph(4, 4, [(u, u) for u in range(4)])
    impaired, removed = impair_graph(g, 0.5, seed=3)
    assert len(removed) == 0
    assert impaired.edge_count == 4


def test_impair_zero_fraction_identity():
    g = ladder_graph()
    impaired, removed = impair_graph(g, 0.0, seed=4)
    assert len(removed) == 0
    assert np.array_equal(impaired.edge_array(), g.edge_array())


def test_impair_deterministic_and_seed_sensitive():
    g = ladder_graph()
    _, r1 = impair_graph(g, 0.3, seed=5)
    _, r2 = impair_graph(g, 0.3, seed=5)
    _, r3 = impair_graph(g, 0.3, seed=6)
    assert np.array_equal(r1, r2)
    assert not np.array_equal(r1, r3)  # overwhelmingly likely for this size


@settings(max_examples=60, deadline=None)
@given(
    n_users=st.integers(1, 20),
    n_items=st.integers(1, 20),
    density=st.sampled_from([0.1, 0.4, 0.9]),
    fraction=st.sampled_from([0.0, 0.05, 0.3, 0.5, 0.99]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_users=1, n_items=1, density=0.9, fraction=0.5, seed=0)  # one edge, guarded
@example(n_users=12, n_items=15, density=0.9, fraction=0.99, seed=1)  # the guard ends the walk
def test_impair_is_the_scalar_walk(n_users, n_items, density, fraction, seed):
    rng = np.random.default_rng(seed)
    pairs = np.argwhere(rng.random((n_users, n_items)) < density)
    if not len(pairs):
        pairs = np.array([[0, 0]])
    g = BipartiteGraph(n_users, n_items, pairs)
    impaired, removed = impair_graph(g, fraction, seed=seed)
    want_impaired, want_removed = impair_graph_loop(g, fraction, seed=seed)
    assert removed.dtype == want_removed.dtype and np.array_equal(removed, want_removed)
    assert np.array_equal(impaired.edge_array(), want_impaired.edge_array())


def test_impair_rejects_bad_input():
    g = ladder_graph()
    with pytest.raises(ValueError):
        impair_graph(g, 1.0)
    with pytest.raises(ValueError):
        impair_graph(BipartiteGraph(2, 2, []), 0.1)


# ---------------------------------------------------------------- predict


def test_predict_links_excludes_existing_edges():
    g = ladder_graph()
    mender = xavier_init(g.n_users, g.n_items, 8, np.random.default_rng(0))
    predicted, scores = predict_links(g, mender, threshold=-1.0, cap_per_user=g.n_items, layers=3)
    for pair in predicted:
        assert not has_edge(g, *pair)
    assert len(scores) == len(predicted)
    assert predicted.tolist() == sorted(predicted.tolist())


def test_predict_links_threshold_monotone():
    g = ladder_graph()
    mender = xavier_init(g.n_users, g.n_items, 8, np.random.default_rng(1))
    sizes = []
    sets = []
    for t in (-1.0, 0.0, 0.5, 0.9):
        predicted, scores = predict_links(g, mender, t, cap_per_user=g.n_items, layers=3)
        assert all(s >= t for s in scores)
        sizes.append(len(predicted))
        sets.append(set(map(tuple, predicted.tolist())))
    assert sizes == sorted(sizes, reverse=True)
    for smaller, larger in zip(sets[1:], sets[:-1]):
        assert smaller <= larger


def test_predict_links_cap_keeps_best_scores():
    g = ladder_graph()
    mender = xavier_init(g.n_users, g.n_items, 8, np.random.default_rng(2))
    full, full_scores = predict_links(g, mender, -1.0, cap_per_user=g.n_items, layers=3)
    capped, capped_scores = predict_links(g, mender, -1.0, cap_per_user=3, layers=3)
    full_scores = dict(zip(map(tuple, full.tolist()), full_scores))
    capped = list(map(tuple, capped.tolist()))
    capped_scores = dict(zip(capped, capped_scores))
    by_user: dict[int, list[float]] = {}
    for (u, i), s in full_scores.items():
        by_user.setdefault(u, []).append(s)
    for u, i in capped:
        assert (u, i) in full_scores
    for u, all_scores in by_user.items():
        kept = sorted(
            (s for (uu, _), s in capped_scores.items() if uu == u), reverse=True
        )
        assert len(kept) == min(3, len(all_scores))
        assert kept == sorted(all_scores, reverse=True)[: len(kept)]


def test_predict_links_skips_zero_degree_endpoints():
    g = BipartiteGraph(3, 3, [(0, 0), (1, 1)])  # user 2 / item 2 isolated
    mender = EmbeddingState(np.ones((3, 4)), np.ones((3, 4)))
    predicted, _ = predict_links(g, mender, -1.0, cap_per_user=g.n_items, layers=3)
    assert all(u != 2 and i != 2 for u, i in predicted)


def test_predict_links_empty_graph():
    g = BipartiteGraph(2, 2, [])
    mender = EmbeddingState(np.ones((2, 2)), np.ones((2, 2)))
    pairs, scores = predict_links(g, mender, 0.0, cap_per_user=50, layers=3)
    assert pairs.shape == (0, 2) and pairs.dtype == np.int64 and scores.shape == (0,)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def graphs(draw, users=st.integers(1, 7)):
    """Random bipartite graphs from empty to complete."""
    n_u, n_i = draw(users), draw(st.integers(1, 7))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return BipartiteGraph(n_u, n_i, np.argwhere(rng.random((n_u, n_i)) < density))


@st.composite
def mending_cases(draw):
    """A graph and a mender whose rows may be zero or tie exactly. Graphs
    of 97 users or more span several 48-row blocks under a budget of 1."""
    g = draw(graphs(st.integers(1, 7) | st.integers(97, 160)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["normal", "ties"]))

    def table(n):
        rows = rng.normal(size=(n, 3)) if values == "normal" else rng.integers(-1, 2, size=(n, 3)) * 1.0
        rows[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 1.0]))] = 0.0
        return rows

    return g, EmbeddingState(table(g.n_users), table(g.n_items))


@settings(max_examples=200, deadline=None)
@given(
    case=mending_cases(),
    threshold=st.sampled_from([-1.0, 0.0, 1.0]) | st.floats(-1.0, 1.0),
    cap=st.sampled_from([None, 1, 3]),
    layers=st.integers(0, 3),
    budget=st.sampled_from([None, 1]),
)
@example(
    case=(BipartiteGraph(3, 4, []), EmbeddingState(np.ones((3, 3)), np.ones((4, 3)))),
    threshold=0.0,
    cap=1,
    layers=3,
    budget=None,
)
@example(
    case=(ladder_graph(6, 6, 10), EmbeddingState(np.zeros((6, 3)), np.zeros((6, 3)))),
    threshold=-1.0,
    cap=3,
    layers=3,
    budget=None,
)
def test_predict_links_matches_per_user_loop(case, threshold, cap, layers, budget):
    g, mender = case
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(blocks_module, "_SCORE_BUDGET", budget)
        pairs, scores = predict_links(g, mender, threshold, g.n_items if cap is None else cap, layers)
    ref_pairs, ref_scores = predict_links_loop(g, mender, threshold, cap, layers)
    assert pairs.dtype == np.int64 and pairs.shape == (len(scores), 2)
    assert np.array_equal(pairs, ref_pairs)
    assert _same_bits(scores, ref_scores)


@pytest.mark.parametrize("n_users,n_items", [(97, 5), (145, 3), (193, 8)])
def test_predict_links_blocks_leaving_a_lone_row_match_per_user_loop(monkeypatch, n_users, n_items):
    # 48-row blocks would leave one row over; alone, that row would go to
    # gemv and round differently from the full product
    g = ladder_graph(n_users, n_items, extra=n_users, seed=n_users)
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    assert len(blocks_module.row_blocks(n_users, n_items)) == n_users // 48
    mender = EmbeddingState(*(np.random.default_rng(1).normal(size=(n, 3)) for n in (n_users, n_items)))
    for threshold, cap in ((-1.0, None), (0.0, 2)):
        pairs, scores = predict_links(g, mender, threshold, n_items if cap is None else cap, layers=1)
        ref_pairs, ref_scores = predict_links_loop(g, mender, threshold, cap, layers=1)
        assert np.array_equal(pairs, ref_pairs)
        assert _same_bits(scores, ref_scores)


@pytest.mark.parametrize("budget", [None, 1])
def test_predict_links_matches_per_user_loop_on_ties_at_the_cap(monkeypatch, budget):
    # mender rows on a coarse grid: most users tie at their capped score,
    # and at threshold -1 every non-edge is a candidate
    g = ladder_graph(150, 40, extra=600, seed=3)
    rng = np.random.default_rng(3)
    mender = EmbeddingState(*(rng.integers(-1, 2, size=(n, 2)) * 1.0 for n in (150, 40)))
    if budget is not None:
        monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", budget)
    for threshold, cap in ((-1.0, 1), (-1.0, 3), (-1.0, 45), (0.0, 3), (0.5, 1), (0.9, None)):
        pairs, scores = predict_links(g, mender, threshold, g.n_items if cap is None else cap, layers=0)
        ref_pairs, ref_scores = predict_links_loop(g, mender, threshold, cap, layers=0)
        assert np.array_equal(pairs, ref_pairs)
        assert _same_bits(scores, ref_scores)


@settings(max_examples=200, deadline=None)
@given(g=graphs(), count=st.integers(0, 30), seed=st.integers(0, 2**32 - 1))
def test_sample_negative_links_matches_nested_loop(g, count, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    links = _sample_negative_links(_LinkSpace(g), count, rng)
    ref_links, _ = sample_negative_links_loop(g, count, ref_rng)
    assert links.dtype == np.int64 and links.shape == ref_links.shape
    assert np.array_equal(links, ref_links)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


_DENSE_CASES = [(20, 2, 8), (40, 10, 5)]


@pytest.mark.parametrize(
    "side,n_missing,count,block",
    [pytest.param(*case, mending_module._TRY_BLOCK, id="-".join(map(str, case))) for case in _DENSE_CASES]
    + [
        pytest.param(*case, block, id="-".join(map(str, case)) + f"-block{block}")
        for case in _DENSE_CASES
        for block in (1, 7)
    ],
)
def test_sample_negative_links_dense_fallback_matches_nested_loop(side, n_missing, count, block):
    # a near-complete graph: 50 rejection draws per link find too few
    # non-edges, so the rest come from the non-edge list, drawn with
    # replacement when it is shorter than the shortfall, without otherwise;
    # in blocks of 7 tries the cap of 50 * count cuts the last block short
    rng = np.random.default_rng(side)
    missing = set(map(tuple, rng.choice(side, size=(n_missing, 2)).tolist()))
    g = BipartiteGraph(side, side, [(u, i) for u in range(side) for i in range(side) if (u, i) not in missing])
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    with mock.patch.object(mending_module, "_TRY_BLOCK", block):
        links = _sample_negative_links(_LinkSpace(g), count, rng)
    ref_links, from_list = sample_negative_links_loop(g, count, ref_rng)
    assert from_list > 0
    assert np.array_equal(links, ref_links)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert set(map(tuple, links.tolist())) <= missing


@settings(max_examples=100, deadline=None)
@given(
    g=graphs(),
    count=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from([1, 2, 5]),
)
def test_sample_negative_links_over_many_blocks_matches_nested_loop(g, count, seed, block):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with mock.patch.object(mending_module, "_TRY_BLOCK", block):
        links = _sample_negative_links(_LinkSpace(g), count, rng)
    ref_links, _ = sample_negative_links_loop(g, count, ref_rng)
    assert np.array_equal(links, ref_links)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------- train


def small_hyper(**kw):
    base = dict(dim=8, learning_rate=0.05, mend_epochs=60, impair_fraction=0.25)
    base.update(kw)
    return HyperParams(**base)


def test_train_mender_loss_decreases():
    g = ladder_graph()
    hyper = small_hyper()
    impaired, removed = impair_graph(g, hyper.impair_fraction, seed=7)
    _, losses = train_mender(impaired, removed, g, hyper, seed=7)
    assert len(losses) == hyper.mend_epochs
    head = float(np.mean(losses[:5]))
    tail = float(np.mean(losses[-5:]))
    assert tail < 0.5 * head


def test_train_mender_deterministic():
    g = ladder_graph()
    hyper = small_hyper(mend_epochs=10)
    impaired, removed = impair_graph(g, 0.25, seed=8)
    s1, l1 = train_mender(impaired, removed, g, hyper, seed=8)
    s2, l2 = train_mender(impaired, removed, g, hyper, seed=8)
    assert np.array_equal(s1.user, s2.user) and np.array_equal(s1.item, s2.item)
    assert l1 == l2


def test_train_mender_reads_the_full_graph_once():
    # the full graph does not change between epochs: its edge array is
    # built once per run, and each epoch's negatives are still those of
    # the epoch's own generator
    g = ladder_graph()
    impaired, removed = impair_graph(g, 0.25, seed=8)
    real_edge_array, real_gradients = BipartiteGraph.edge_array, mending_module.compute_gradients
    built, negatives = [], []

    def edge_array(graph):
        built.append(graph)
        return real_edge_array(graph)

    def compute_gradients_recorded(spec, state):
        negatives.append(spec.link_negatives)
        return real_gradients(spec, state)

    for epochs in (1, 3):
        built.clear()
        negatives.clear()
        with mock.patch.object(BipartiteGraph, "edge_array", edge_array), mock.patch.object(
            mending_module, "compute_gradients", compute_gradients_recorded
        ):
            train_mender(impaired, removed, g, small_hyper(mend_epochs=epochs), seed=8)
        assert sum(graph is g for graph in built) == 1
        assert len(negatives) == epochs
    for epoch, got in enumerate(negatives):
        want, _ = sample_negative_links_loop(g, len(removed), child_rng(8, "mend_neg", epoch))
        assert got.dtype == np.int64 and np.array_equal(got, want)


def test_one_mender_epoch_peaks_under_eight_tables():
    # an epoch of train_mender at 5000 x 6000, d = 64: ~108k uniform pairs,
    # ~10.8k removed links and as many negatives. Its temporaries are
    # counted in tables of (users + items) x d float64; the state and the
    # moments exist before it, as in every epoch after the first.
    n_users, n_items, d = 5000, 6000, 64
    rng = np.random.default_rng(0)
    pairs = np.stack([rng.integers(0, n_users, 108_000), rng.integers(0, n_items, 108_000)], axis=1)
    g = BipartiteGraph(n_users, n_items, pairs)
    impaired, removed = impair_graph(g, 0.1, child_rng(0, "impair"))
    hyper = HyperParams(dim=d)
    state = xavier_init(n_users, n_items, d, child_rng(0, "mend_init"))
    moments = AdamMoments()

    def epoch(e):
        negatives = _sample_negative_links(_LinkSpace(g), len(removed), child_rng(0, "mend_neg", e))
        spec = LossSpec(impaired, default_alpha(hyper.layers_server), link_positives=removed, link_negatives=negatives)
        adam_step(state, compute_gradients(spec, state)[1], moments, hyper)

    epoch(0)
    tracemalloc.start()
    try:
        epoch(1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (n_users + n_items) * d * 8


# ---------------------------------------------------------------- pipeline


def test_mend_graph_supersets_input():
    g = ladder_graph()
    art = mend_graph(g, small_hyper(mend_threshold=0.6), seed=9)
    for u, i in g.edge_array():
        assert has_edge(art.mended, u, i)
    assert art.mended.edge_count == g.edge_count + len(art.predicted)
    for pair, score in zip(art.predicted, art.scores):
        assert not has_edge(g, *pair)
        assert score >= 0.6


def test_mend_graph_deterministic():
    g = ladder_graph()
    a = mend_graph(g, small_hyper(mend_epochs=15), seed=10)
    b = mend_graph(g, small_hyper(mend_epochs=15), seed=10)
    assert np.array_equal(a.removed, b.removed)
    assert np.array_equal(a.predicted, b.predicted)
    assert np.array_equal(a.mended.edge_array(), b.mended.edge_array())


def test_mend_graph_recovers_structure():
    # two disjoint blocks at 70% density: the missing in-block pairs should
    # dominate the predictions over the (more numerous) cross-block pairs
    n = 8
    rng = np.random.default_rng(11)
    pairs = {(u, u % n + (0 if u < n else n)) for u in range(2 * n)}
    for u in range(2 * n):
        for i in range(2 * n):
            if (u < n) == (i < n) and rng.random() < 0.7:
                pairs.add((u, i))
    g = BipartiteGraph(2 * n, 2 * n, sorted(pairs))
    hyper = small_hyper(mend_epochs=150, mend_threshold=0.5, impair_fraction=0.2)
    art = mend_graph(g, hyper, seed=11)
    in_block = [p for p in art.predicted if (p[0] < n) == (p[1] < n)]
    assert len(art.predicted)  # something was predicted
    assert len(in_block) / len(art.predicted) > 0.8


def test_write_predictions_tsv(tmp_path):
    path = tmp_path / "pred.tsv"
    write_predictions_tsv(np.array([[0, 1], [2, 3]]), np.array([0.75, 0.5]), str(path))
    lines = path.read_text().splitlines()
    assert lines == ["0\t1\t0.750000", "2\t3\t0.500000"]
