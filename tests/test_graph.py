import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedgcf.graph
from fedgcf.graph import (
    BipartiteGraph,
    EgoGraph,
    EmbeddingState,
    default_alpha,
    forest_chunks,
    propagate_combine,
    propagate_items,
    propagate_once,
    xavier_init,
)

from oracles import csr_reference, dense_combine, dense_propagate, has_edge, same_bits, sequential_propagate, user_row


def random_graph(rng, n_u=5, n_i=6, p=0.4):
    pairs = {(int(u), int(i)) for u in range(n_u) for i in range(n_i) if rng.random() < p}
    return pairs, BipartiteGraph(n_u, n_i, sorted(pairs))


def item_csr(g):
    """(item_ptr, item_adj) read back from the item-side degree buckets."""
    by_item = {int(i): col for nodes, nbr in g.item_buckets for i, col in zip(nodes, nbr.T)}
    adj = [by_item.get(i, np.zeros(0, dtype=np.int64)) for i in range(g.n_items)]
    ptr = np.concatenate(([0], np.cumsum([a.size for a in adj], dtype=np.int64)))
    return ptr, np.concatenate([np.zeros(0, dtype=np.int64), *adj])


def layer(g, e0, l):
    """Layer ``l`` alone: propagate_combine with a one-hot weight on it."""
    return EmbeddingState(*propagate_combine(g, e0.user, e0.item, np.eye(l + 1)[l]))


def test_build_graph_basic():
    g = BipartiteGraph(2, 3, [(0, 1), (0, 0), (1, 1), (0, 1)])
    assert g.edge_count == 3  # duplicate collapsed
    assert g.user_deg.tolist() == [2, 1]
    assert g.item_deg.tolist() == [1, 2, 0]
    assert has_edge(g, 0, 1) and not has_edge(g, 1, 0)
    assert user_row(g, 0).tolist() == [0, 1]
    item_ptr, item_adj = item_csr(g)
    assert item_adj[item_ptr[1] : item_ptr[2]].tolist() == [0, 1]
    with pytest.raises(IndexError):
        BipartiteGraph(2, 3, [(0, 3)])
    with pytest.raises(IndexError):
        BipartiteGraph(2, 3, [(2, 0)])


def test_build_matches_sorted_set_reference():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n_u, n_i = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        n_e = int(rng.integers(0, 3 * n_u * n_i))  # draws with replacement: duplicates
        pairs = [(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(n_e)]
        want = csr_reference(n_u, n_i, pairs)
        # sorted unique edges skip the dedupe
        for given in (pairs, np.asarray(pairs, dtype=np.int64).reshape(-1, 2), sorted(set(pairs))):
            g = BipartiteGraph(n_u, n_i, given)
            item_ptr, item_adj = item_csr(g)
            for name, ref in want.items():
                got = {"item_ptr": item_ptr, "item_adj": item_adj}.get(name)
                got = getattr(g, name) if got is None else got
                assert got.dtype == np.int64, name
                assert np.array_equal(got, np.asarray(ref, dtype=np.int64)), name


def test_build_rejects_out_of_range_ids():
    # (1, -1) and (-1, 2) would encode to the same key as a valid pair
    for bad in ([(1, -1)], [(-1, 2)], [(0, 3)], [(2, 0)], [(0, 0), (1, 5)]):
        for given in (bad, np.asarray(bad, dtype=np.int64)):
            with pytest.raises(IndexError):
                BipartiteGraph(2, 3, given)


def test_single_edge_propagation():
    # single edge, both degrees 1: layer l+1 swaps the two embeddings
    g = BipartiteGraph(1, 1, [(0, 0)])
    e0 = EmbeddingState(np.array([[1.0, 2.0]]), np.array([[3.0, -1.0]]))
    u1, i1 = propagate_once(g, e0.user, e0.item)
    u2, _ = propagate_once(g, u1, i1)
    assert np.allclose(u1, [[3.0, -1.0]])
    assert np.allclose(i1, [[1.0, 2.0]])
    assert np.allclose(u2, e0.user)


def test_isolated_nodes_zero_out():
    g = BipartiteGraph(2, 2, [(0, 0)])
    rng = np.random.default_rng(0)
    e0 = EmbeddingState(rng.normal(size=(2, 4)), rng.normal(size=(2, 4)))
    for l in range(1, 4):
        assert np.all(layer(g, e0, l).user[1] == 0.0)
        assert np.all(layer(g, e0, l).item[1] == 0.0)


def test_propagation_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n_u, n_i = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        pairs, g = random_graph(rng, n_u, n_i, 0.45)
        e0 = EmbeddingState(rng.normal(size=(n_u, 5)), rng.normal(size=(n_i, 5)))
        want = dense_propagate(n_u, n_i, pairs, e0.user, e0.item, 3)
        for l in range(4):
            got = layer(g, e0, l)
            assert np.allclose(got.user, want[l][0], atol=1e-12)
            assert np.allclose(got.item, want[l][1], atol=1e-12)


def test_layer_combine_matches_dense_oracle():
    rng = np.random.default_rng(4)
    pairs, g = random_graph(rng)
    e0 = EmbeddingState(rng.normal(size=(5, 3)), rng.normal(size=(6, 3)))
    alpha = default_alpha(3)
    assert np.allclose(alpha, 0.25)
    fu, fi = propagate_combine(g, e0.user, e0.item, alpha)
    want = dense_combine(dense_propagate(5, 6, pairs, e0.user, e0.item, 3), alpha)
    assert np.allclose(fu, want[0], atol=1e-12)
    assert np.allclose(fi, want[1], atol=1e-12)


def test_propagation_linearity():
    rng = np.random.default_rng(6)
    _, g = random_graph(rng)
    a = EmbeddingState(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)))
    b = EmbeddingState(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)))
    mix = EmbeddingState(2.0 * a.user + 3.0 * b.user, 2.0 * a.item + 3.0 * b.item)
    la = layer(g, a, 2)
    lb = layer(g, b, 2)
    lm = layer(g, mix, 2)
    assert np.allclose(lm.user, 2.0 * la.user + 3.0 * lb.user, atol=1e-12)
    assert np.allclose(lm.item, 2.0 * la.item + 3.0 * lb.item, atol=1e-12)


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    pairs, g = random_graph(rng)
    e0 = EmbeddingState(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)))
    pu = rng.permutation(5)
    pi = rng.permutation(6)
    perm_pairs = {(int(pu[u]), int(pi[i])) for u, i in pairs}
    g2 = BipartiteGraph(5, 6, sorted(perm_pairs))
    e2 = EmbeddingState(e0.user[np.argsort(pu)], e0.item[np.argsort(pi)])
    out1 = layer(g, e0, 2)
    out2 = layer(g2, e2, 2)
    assert np.allclose(out1.user, out2.user[pu], atol=1e-12)
    assert np.allclose(out1.item, out2.item[pi], atol=1e-12)


def test_propagation_bitwise_deterministic():
    rng = np.random.default_rng(8)
    _, g = random_graph(rng, 30, 40, 0.2)
    e0 = EmbeddingState(rng.normal(size=(30, 16)), rng.normal(size=(40, 16)))
    for l in range(4):
        x, y = layer(g, e0, l), layer(g, e0, l)
        assert np.array_equal(x.user, y.user) and np.array_equal(x.item, y.item)


graph_cases = dict(
    n_u=st.integers(0, 12),
    n_i=st.integers(0, 40),
    p=st.floats(0.0, 1.0),
    d=st.sampled_from([1, 2, 64]),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(**graph_cases)
@example(n_u=0, n_i=0, p=0.5, d=1, seed=0)  # the empty graph
@example(n_u=6, n_i=9, p=0.0, d=2, seed=0)  # nodes but no edges
@example(n_u=8, n_i=30, p=0.1, d=64, seed=3)  # isolated users and items
@example(n_u=12, n_i=40, p=1.0, d=1, seed=4)  # one degree per side: (40, 12, 1) and (12, 40, 1) gathers
@example(n_u=1, n_i=30, p=1.0, d=1, seed=5)  # a lone node of degree 30 at d = 1: a (30, 1, 1) gather
@example(n_u=3, n_i=40, p=0.6, d=1, seed=6)  # lone users of degree >= 9 at d = 1
def test_propagation_is_bitwise_the_sequential_loop(n_u, n_i, p, d, seed):
    rng = np.random.default_rng(seed)
    pairs, g = random_graph(rng, n_u, n_i, p)
    user, item = rng.normal(size=(n_u, d)), rng.normal(size=(n_i, d))
    got = propagate_once(g, user, item)
    want = sequential_propagate(n_u, n_i, pairs, user, item)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(**graph_cases)
@example(n_u=12, n_i=40, p=1.0, d=1, seed=4)
@example(n_u=3, n_i=40, p=0.6, d=1, seed=6)
def test_propagation_is_batch_invariant(n_u, n_i, p, d, seed):
    # a node's row is the row it gets in the subgraph of only its own edges,
    # where it is alone in its degree bucket; the inputs are pre-scaled by
    # the full graph's degrees, because the subgraph's other side has degree 1
    rng = np.random.default_rng(seed)
    _, g = random_graph(rng, n_u, n_i, p)
    user, item = rng.normal(size=(n_u, d)), rng.normal(size=(n_i, d))
    new_user, new_item = propagate_once(g, user, item)
    pre_user, pre_item = user * g.user_inv_sqrt[:, None], item * g.item_inv_sqrt[:, None]
    for u in range(n_u):
        own = BipartiteGraph(n_u, n_i, [(u, i) for i in user_row(g, u)])
        assert same_bits(propagate_once(own, user, pre_item)[0][u], new_user[u])
    item_ptr, item_adj = item_csr(g)
    for i in range(n_i):
        own = BipartiteGraph(n_u, n_i, [(u, i) for u in item_adj[item_ptr[i] : item_ptr[i + 1]]])
        assert same_bits(propagate_once(own, pre_user, item)[1][i], new_item[i])


@settings(max_examples=60, deadline=None)
@given(**graph_cases, share=st.floats(0.0, 1.0))
@example(n_u=12, n_i=40, p=1.0, d=1, seed=4, share=0.3)
@example(n_u=3, n_i=40, p=0.6, d=1, seed=6, share=1.0)
@example(n_u=8, n_i=2, p=1.0, d=1, seed=1, share=1.0)  # a cut bucket gathers in F order
def test_propagate_items_is_bitwise_the_full_item_side(n_u, n_i, p, d, seed, share):
    rng = np.random.default_rng(seed)
    _, g = random_graph(rng, n_u, n_i, p)
    user, item = rng.normal(size=(n_u, d)), rng.normal(size=(n_i, d))
    items = np.flatnonzero(rng.random(n_i) < share)  # isolated items included
    assert same_bits(propagate_items(g, user, items), propagate_once(g, user, item)[1][items])


def test_propagation_transient_memory_is_below_half_an_edge_table():
    # memory bounded as users grow: no per-edge (E, d) table is materialized
    rng = np.random.default_rng(0)
    n, d = 5000, 64
    g = BipartiteGraph(n, n, rng.integers(0, n, size=(100_000, 2)))
    user, item = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    propagate_once(g, user, item)  # warm-up
    tracemalloc.start()
    try:
        propagate_once(g, user, item)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < g.edge_count * d * 8 / 2


def test_propagation_transient_memory_is_below_four_and_a_half_tables():
    # one call holds its two outputs, a scaled copy of one input, one
    # table of sums in degree order and one gather unit's buffer
    rng = np.random.default_rng(0)
    n, d = 5000, 64
    g = BipartiteGraph(n, n, rng.integers(0, n, size=(100_000, 2)))
    user, item = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    propagate_once(g, user, item)  # warm-up
    tracemalloc.start()
    try:
        propagate_once(g, user, item)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * n * d * 8


def unit_boundary_graph(case: str, rng) -> tuple[list, BipartiteGraph]:
    """A graph whose gather plan meets a unit boundary as ``case`` says;
    each case asserts that its plan has that shape."""
    unit = fedgcf.graph._UNIT_ROWS
    if case == "hub":
        # item 0 has degree 3000: a unit of its own, above the unit size;
        # the users' degree-1 and degree-2 buckets span several units
        pairs = [(u, 0) for u in range(3000)] + [(u, 1 + u % 7) for u in range(0, 3000, 3)]
        g = BipartiteGraph(3000, 8, pairs)
        assert g.item_buckets.buffer_rows == 3000 > unit
        assert any(ids.size == 3000 and len(parts) == 1 for ids, parts in g.item_buckets.units)
    elif case == "wide bucket":
        # 600 users of degree 5: 3000 gathered rows, cut into column slices
        pairs = [(u, int(i)) for u in range(600) for i in rng.choice(50, 5, replace=False)]
        g = BipartiteGraph(600, 50, pairs)
        assert sum(any(k == 5 for k, _, _ in parts) for _, parts in g.user_buckets.units) > 1
    else:
        # users of degree 1, 2 and 4 whose buckets hold 24 + 200 + 800 rows:
        # one unit exactly
        degrees = [1] * 24 + [2] * 100 + [4] * 200
        pairs = [(u, int(i)) for u, k in enumerate(degrees) for i in rng.choice(40, k, replace=False)]
        g = BipartiteGraph(len(degrees), 40, pairs)
        assert [(ids.size, len(parts)) for ids, parts in g.user_buckets.units] == [(unit, 3)]
    return pairs, g


@pytest.mark.parametrize("d", [1, 64])
@pytest.mark.parametrize("case", ["hub", "wide bucket", "exact unit"])
def test_propagation_is_bitwise_the_sequential_loop_across_unit_boundaries(case, d):
    rng = np.random.default_rng(11)
    pairs, g = unit_boundary_graph(case, rng)
    user, item = rng.normal(size=(g.n_users, d)), rng.normal(size=(g.n_items, d))
    got = propagate_once(g, user, item)
    want = sequential_propagate(g.n_users, g.n_items, pairs, user, item)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    items = np.arange(0, g.n_items, 2)
    assert same_bits(propagate_items(g, user, items), want[1][items])


def assert_star_matches_graph(pos, n: int, user0: np.ndarray, item0: np.ndarray):
    """A one-star EgoGraph's combine is bit for bit propagate_combine on the
    same star built as a BipartiteGraph."""
    alpha = default_alpha(1)
    want = propagate_combine(BipartiteGraph(1, n, [(0, p) for p in pos]), user0, item0, alpha)
    got = EgoGraph([0, n], pos).combine(user0, item0, alpha)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    return got


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(0, 240),
    extra=st.integers(0, 30),
    d=st.sampled_from([1, 6, 64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=3, extra=0, d=1, seed=0)
@example(k=23, extra=23, d=64, seed=1)
@example(k=201, extra=5, d=6, seed=2)
def test_ego_graph_combine_is_bitwise_the_bipartite_star(k, extra, d, seed):
    # k >= 3 is where the one-segment reduceat and a sequential sum of the
    # item rows round differently
    rng = np.random.default_rng(seed)
    n = k + extra
    linked = rng.choice(n, size=k, replace=False)
    # unsorted, with repeats: both graphs keep one sorted edge per item
    pos = rng.permutation(np.concatenate([linked, linked[: int(rng.integers(0, k + 1))]]))
    # forward: dense layer-0 tables
    assert_star_matches_graph(pos, n, rng.normal(size=(1, d)), rng.normal(size=(n, d)))
    # adjoint: final-view gradients, nonzero only on the rows a loss touched
    grad_i = np.zeros((n, d))
    touched = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
    grad_i[touched] = rng.normal(size=(touched.size, d))
    assert_star_matches_graph(pos, n, rng.normal(size=(1, d)), grad_i)


def test_ego_graph_single_item_example():
    # one local item: e_u = (p_u + q_i)/2 with uniform alpha; the isolated
    # item row keeps alpha_0 of itself
    e_u, e_i = assert_star_matches_graph([0], 2, np.array([[2.0, 0.0]]), np.array([[0.0, 4.0], [2.0, 2.0]]))
    assert np.allclose(e_u, [[1.0, 2.0]])
    assert np.allclose(e_i, [[1.0, 2.0], [1.0, 1.0]])
    # float32 tables are gathered and summed as float64 rows
    got_u, _ = EgoGraph([0, 2], [0]).combine(np.float32([[2.0, 0.0]]), np.float32([[0.0, 4.0], [2.0, 2.0]]), default_alpha(1))
    assert same_bits(got_u, e_u)


def test_ego_graph_is_single_layer():
    with pytest.raises(ValueError, match="single-layer"):
        EgoGraph([0, 1]).combine(np.ones((1, 2)), np.ones((1, 2)), default_alpha(2))


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 4)), min_size=1, max_size=12),
    d=st.sampled_from([1, 6, 64]),
    seed=st.integers(0, 2**32 - 1),
)
@example(sizes=[(3, 0)] * 5, d=1, seed=0)
@example(sizes=[(0, 2), (7, 1), (7, 0), (1, 3)], d=6, seed=1)
@example(sizes=[(1100, 3), (2, 0), (1100, 0)], d=1, seed=2)  # stars above the unit size
@example(sizes=[(1100, 3), (2, 0)], d=64, seed=3)
def test_ego_forest_is_bitwise_each_star_alone(sizes, d, seed):
    # stars of equal item count share one gather, yet each star's rows are
    # the rows its own one-star EgoGraph gives
    rng = np.random.default_rng(seed)
    blocks = [k + extra for k, extra in sizes]
    item_ptr = np.concatenate(([0], np.cumsum(blocks)))
    linked = [item_ptr[j] + np.sort(rng.choice(n, size=k, replace=False)) for j, ((k, _), n) in enumerate(zip(sizes, blocks))]
    forest = EgoGraph(item_ptr, np.concatenate([np.zeros(0, dtype=np.int64), *linked]))
    user0, item0 = rng.normal(size=(len(blocks), d)), rng.normal(size=(item_ptr[-1], d))
    got_u, got_i = forest.combine(user0, item0, default_alpha(1))
    for j, n in enumerate(blocks):
        lo, hi = item_ptr[j], item_ptr[j + 1]
        want_u, want_i = assert_star_matches_graph(linked[j] - lo, n, user0[j : j + 1], item0[lo:hi])
        assert same_bits(got_u[j : j + 1], want_u) and same_bits(got_i[lo:hi], want_i)


def test_chunks_follow_the_row_budget():
    def chunks(counts, rows=None):
        return [members.tolist() for members in forest_chunks(counts, rows)]

    rows = [3, 5, 1, 8, 2, 2]
    with mock.patch.object(fedgcf.graph, "_ROW_BUDGET", 8):
        # stars of one count keep their order: consecutive runs
        assert chunks([4] * 6, rows) == [[0, 1], [2, 3], [4, 5]]
        assert chunks(rows) == [[2, 4, 5, 0], [1, 3]]
        assert chunks([]) == []
        assert chunks([20]) == [[0]]
        # counts out of order: ascending count, ties in their given order
        assert chunks([3, 1, 2, 1, 2], [4, 4, 4, 4, 4]) == [[1, 3], [2, 4], [0]]


def test_xavier_init_bounds_and_determinism():
    a = xavier_init(10, 20, 8, np.random.default_rng(1))
    b = xavier_init(10, 20, 8, np.random.default_rng(1))
    assert np.array_equal(a.user, b.user) and np.array_equal(a.item, b.item)
    assert np.all(np.abs(a.user) <= np.sqrt(6.0 / 18))
    assert np.all(np.abs(a.item) <= np.sqrt(6.0 / 28))
