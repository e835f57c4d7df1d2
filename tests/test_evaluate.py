import importlib
import multiprocessing
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgcf.data import InteractionDataset, split_dataset
from fedgcf.errors import ConfigError
from fedgcf.evaluate import EvalResult, evaluate, write_per_user_tsv
from fedgcf.graph import BipartiteGraph, EmbeddingState
from fedgcf.mending import predict_links

from oracles import ndcg_oracle, rank_candidates, rank_candidates_gemv, recall_oracle
from pools import InlinePool, blocks_module, under_three_pools

# the package re-exports the function ``evaluate`` under its module's name
evaluate_module = importlib.import_module("fedgcf.evaluate")

NDCG_RANK2 = 0.6309297535714574  # 1/log2(3)


# ---------------------------------------------------------------- metrics


def one_row_metrics(ranked, relevant: set, k: int) -> tuple[float, float]:
    """Recall and NDCG at k of one ranked list of at most k items, by the
    package's per-row formula (``_metrics``)."""
    hit_ranks = np.flatnonzero(np.isin(ranked, list(relevant)))
    recall, ndcg = evaluate_module._metrics(np.zeros_like(hit_ranks), hit_ranks, np.array([len(relevant)]), k)
    return float(recall[0]), float(ndcg[0])


def test_recall_frozen_values():
    assert one_row_metrics(np.array([1, 2, 3]), {2}, 3)[0] == 1.0
    assert one_row_metrics(np.array([1, 2, 3]), {2, 9}, 3)[0] == 0.5
    assert one_row_metrics(np.array([1, 2, 3]), {7, 8}, 3)[0] == 0.0


def test_ndcg_frozen_values():
    # single relevant item at rank 1 / rank 2
    assert one_row_metrics(np.array([5, 6]), {5}, 2)[1] == 1.0
    assert one_row_metrics(np.array([6, 5]), {5}, 2)[1] == pytest.approx(NDCG_RANK2, abs=1e-12)
    # both relevant in the ideal order -> exactly 1
    assert one_row_metrics(np.array([1, 2]), {1, 2}, 2)[1] == 1.0
    # idcg truncates at min(k, |relevant|): one hit out of many relevant
    assert one_row_metrics(np.array([1]), {1, 2, 3}, 1)[1] == 1.0


@given(
    ranked=st.lists(st.integers(0, 30), max_size=10, unique=True),
    relevant=st.sets(st.integers(0, 30), min_size=1, max_size=10),
    k=st.integers(1, 10),
)
@settings(max_examples=200, deadline=None)
def test_metrics_match_oracles(ranked, relevant, k):
    ranked = np.asarray(ranked[:k], dtype=np.int64)
    recall, ndcg = one_row_metrics(ranked, relevant, k)
    assert recall == pytest.approx(recall_oracle(ranked.tolist(), relevant), abs=1e-12)
    assert ndcg == pytest.approx(ndcg_oracle(ranked.tolist(), relevant, k), abs=1e-12)


@given(
    relevant=st.sets(st.integers(0, 20), min_size=1, max_size=8),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_metrics_bounded_zero_one(relevant, k, seed):
    rng = np.random.default_rng(seed)
    ranked = rng.permutation(21)[:k]
    r, n = one_row_metrics(ranked, relevant, k)
    assert 0.0 <= r <= 1.0
    assert 0.0 <= n <= 1.0
    # perfect prefix ranking gives ndcg exactly 1
    ideal = np.asarray(sorted(relevant)[:k], dtype=np.int64)
    if ideal.size:
        assert one_row_metrics(ideal, relevant, k)[1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- ranking


def test_rank_excludes_train_items():
    user = np.array([1.0, 0.0])
    items = np.array([[1.0, 0.0], [0.9, 0.1], [0.5, 0.5], [0.0, 1.0]])
    ranked = rank_candidates(user, items, train_items={0}, k=4)
    assert 0 not in ranked.tolist()
    assert ranked.tolist() == [1, 2, 3]


def test_rank_ties_break_to_lower_id():
    user = np.array([1.0, 0.0])
    items = np.array([[2.0, 0.0], [1.0, 0.0], [4.0, 0.0]])  # all cosine 1
    ranked = rank_candidates(user, items, train_items=set(), k=3)
    assert ranked.tolist() == [0, 1, 2]


def test_rank_cosine_vs_inner():
    user = np.array([1.0, 0.0])
    items = np.array([[10.0, 0.0], [0.6, 0.01]])
    by_cos = rank_candidates(user, items, set(), 2, sim="cosine")
    by_inner = rank_candidates(user, items, set(), 2, sim="inner")
    # cosine normalizes away the big magnitude of item 0... both nearly
    # aligned, so cosine prefers the lower id only via its higher cosine
    assert by_inner.tolist() == [0, 1]
    assert by_cos.tolist() == [0, 1]
    # scaling an item flips inner-product order but not cosine order
    items2 = np.array([[0.5, 0.0], [0.4, 0.3]])
    assert rank_candidates(user, items2, set(), 2, "inner").tolist() == [0, 1]
    items2[1] *= 10
    assert rank_candidates(user, items2, set(), 2, "inner").tolist() == [1, 0]
    assert rank_candidates(user, items2, set(), 2, "cosine").tolist() == [0, 1]


def test_rank_zero_vectors_score_zero():
    user = np.zeros(2)
    items = np.array([[1.0, 0.0], [0.0, 0.0]])
    ranked = rank_candidates(user, items, set(), 2)
    assert ranked.tolist() == [0, 1]  # all scores 0, ascending id


def test_rank_k_larger_than_candidates():
    user = np.array([1.0])
    items = np.array([[1.0], [2.0], [3.0]])
    ranked = rank_candidates(user, items, train_items={1}, k=10)
    assert sorted(ranked.tolist()) == [0, 2]


def test_rank_bad_args():
    ds = InteractionDataset(1, 1, set(), test={(0, 0)})
    with pytest.raises(ConfigError):
        evaluate(np.ones((1, 1)), np.ones((1, 1)), ds, k=0)
    with pytest.raises(ConfigError):
        evaluate(np.ones((1, 1)), np.ones((1, 1)), ds, k=1, sim="dot")


# ---------------------------------------------------------------- evaluate


def toy_dataset():
    return InteractionDataset(
        n_users=3,
        n_items=4,
        train={(0, 0), (1, 1), (2, 2)},
        val={(0, 1)},
        test={(0, 2), (1, 0), (1, 3)},
    )


def test_evaluate_macro_average():
    ds = toy_dataset()
    # hand-built views: user 0 closest to item 2, user 1 closest to item 0
    user_views = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    item_views = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0], [0.0, 0.9]])
    res = evaluate(user_views, item_views, ds, split="test", k=1)
    # user 0: candidates {1,2,3}, item 2 ranks first -> recall 1, ndcg 1
    # user 1: candidates {0,2,3}, item 0 or 3? scores: i0=0, i1 excluded?
    assert set(res.per_user) == {0, 1}  # user 2 has no test items
    assert res.per_user[0] == (1.0, 1.0)
    assert res.recall == pytest.approx(np.mean([m[0] for m in res.per_user.values()]))
    assert res.ndcg == pytest.approx(np.mean([m[1] for m in res.per_user.values()]))


def test_evaluate_never_recommends_train_items():
    rng = np.random.default_rng(0)
    ds = toy_dataset()
    user_views = rng.normal(size=(3, 4))
    item_views = rng.normal(size=(4, 4))
    res = evaluate(user_views, item_views, ds, split="test", k=4)
    # reconstruct each user's ranking and check exclusion
    train_by_user = ds.pairs_by_user(ds.train)
    for u in res.per_user:
        ranked = rank_candidates(user_views[u], item_views, train_by_user.get(u, ()), 4)
        assert not set(ranked.tolist()) & set(train_by_user.get(u, ()))


@st.composite
def ranking_cases(draw):
    """Views and splits that stress the ranking: exact ties, zero rows,
    users whose train split holds every item or all but a few, and users
    with held-out items but no train items. A held-out item may also be a
    train item, so that fully-trained users get ranked too."""
    n_users = draw(st.integers(1, 14) | st.integers(97, 160))
    n_items = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = draw(st.sampled_from(["normal", "integer", "duplicate"]))
    user_views = rng.normal(size=(n_users, dim))
    item_views = rng.normal(size=(n_items, dim))
    if values == "integer":
        user_views = rng.integers(-1, 2, size=(n_users, dim)) * 1.0
        item_views = rng.integers(-2, 3, size=(n_items, dim)) * 1.0
    if values == "duplicate":
        item_views = item_views[rng.integers(0, max(1, n_items // 3), size=n_items)]
    zeros = draw(st.sampled_from([0.0, 0.3]))
    user_views[rng.random(n_users) < zeros] = 0.0
    item_views[rng.random(n_items) < zeros] = 0.0
    train, test = set(), set()
    for u in range(n_users):
        order = rng.permutation(n_items)
        n_train = rng.choice([0, n_items, max(0, n_items - int(rng.integers(1, 4))), int(rng.integers(n_items + 1))])
        train |= {(u, int(i)) for i in order[:n_train]}
        test |= {(u, int(i)) for i in rng.permutation(n_items)[: int(rng.integers(n_items + 1))]}
    ds = InteractionDataset(n_users, n_items, train, test=test)
    return user_views, item_views, ds


def _three_block_case():
    """150 users, ranked in three blocks under a budget of 1: tied and zero
    item rows, a zero user row, a user whose train split holds every item,
    and users with held-out items but no train items."""
    n_users = 150
    user_views = np.random.default_rng(0).integers(-1, 2, size=(n_users, 2)) * 1.0
    user_views[0] = 0.0
    item_views = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0], [0.0, 3.0], [1.0, 1.0], [2.0, 2.0]])
    train = {(u, u % 6) for u in range(1, n_users, 2)} | {(9, i) for i in range(6)}
    test = {(u, (u + 1) % 6) for u in range(n_users)} | {(u, (u + 3) % 6) for u in range(0, n_users, 2)}
    return user_views, item_views, InteractionDataset(n_users, 6, train, test=test)


@settings(max_examples=300, deadline=None)
@given(
    case=ranking_cases(),
    k=st.integers(1, 14),
    sim=st.sampled_from(["cosine", "inner"]),
    budget=st.sampled_from([None, 1, 500]),
)
@example(case=_three_block_case(), k=2, sim="cosine", budget=1)
def test_evaluate_matches_per_user_oracle(case, k, sim, budget):
    user_views, item_views, ds = case
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(blocks_module, "_SCORE_BUDGET", budget)
        res = evaluate(user_views, item_views, ds, "test", k, sim)
    expected = _oracle_metrics(user_views, item_views, ds, k, sim)
    assert list(res.per_user.items()) == list(expected.items())
    for j, macro in enumerate((res.recall, res.ndcg)):
        assert macro == (float(np.mean([m[j] for m in expected.values()])) if expected else 0.0)


@pytest.mark.parametrize("n_users,n_items", [(97, 5), (145, 3), (193, 8)])
def test_evaluate_blocks_leaving_a_lone_row_match_oracle(monkeypatch, n_users, n_items):
    # 48-row blocks would leave one row over; alone, that row would go to
    # gemv and round differently from the full product
    rng = np.random.default_rng(n_users)
    user_views, item_views = rng.normal(size=(n_users, 3)), rng.normal(size=(n_items, 3))
    test = {(u, int(rng.integers(n_items))) for u in range(n_users)}
    train = {(u, int(rng.integers(n_items))) for u in range(n_users)} - test
    ds = InteractionDataset(n_users, n_items, train, test=test)
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    assert len(blocks_module.row_blocks(n_users, n_items)) == n_users // 48
    for sim in ("cosine", "inner"):
        res = evaluate(user_views, item_views, ds, "test", 2, sim)
        assert list(res.per_user.items()) == list(_oracle_metrics(user_views, item_views, ds, 2, sim).items())


def _tied_case(n_users, n_items, seed):
    """Views on a coarse grid, so most rows tie at their k-th score, with
    zero user and item rows, and two train and two test items per user."""
    rng = np.random.default_rng(seed)
    user_views = rng.integers(-1, 2, size=(n_users, 2)) * 1.0
    item_views = rng.integers(-1, 2, size=(n_items, 2)) * 1.0
    user_views[::5] = 0.0
    item_views[::7] = 0.0
    pairs = [(u, int(i)) for u in range(n_users) for i in rng.choice(n_items, 4, replace=False)]
    return user_views, item_views, InteractionDataset(n_users, n_items, pairs[0::2], test=pairs[1::2])


@pytest.mark.parametrize("budget", [None, 1])
@pytest.mark.parametrize("k", [1, 3, 10, 30, 40, 41, 60])
def test_evaluate_matches_oracle_on_ties_at_the_cut(monkeypatch, budget, k):
    # 40 items on a 3 x 3 grid of directions: each row's k-th score ties
    # many others, and k runs past the item count
    user_views, item_views, ds = _tied_case(150, 40, k)
    if budget is not None:
        monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", budget)
    for sim in ("cosine", "inner"):
        res = evaluate(user_views, item_views, ds, "test", k, sim)
        assert list(res.per_user.items()) == list(_oracle_metrics(user_views, item_views, ds, k, sim).items())


@pytest.mark.parametrize("k", [500, 600])
def test_evaluate_at_k_past_the_items_stays_inside_a_row_block(monkeypatch, k):
    # 2400 x 500 scores, ranked 48 rows at a time: what one call holds at
    # once is bounded by a few blocks plus the per-user results, not by
    # users x items
    n_users, n_items = 2400, 500
    rng = np.random.default_rng(k)
    user_views, item_views = rng.normal(size=(n_users, 2)), rng.normal(size=(n_items, 2))
    train = np.stack([np.arange(n_users), rng.integers(n_items, size=n_users)], axis=1)
    test = np.stack([np.arange(n_users), (train[:, 1] + 1 + rng.integers(n_items - 1, size=n_users)) % n_items], axis=1)
    ds = InteractionDataset(n_users, n_items, train, test=test)
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    block_bytes = 8 * 48 * n_items
    tracemalloc.start()
    try:
        res = evaluate(user_views, item_views, ds, "test", k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res.per_user) == n_users
    assert peak < 32 * block_bytes + 1000 * n_users < 8 * n_users * n_items


@pytest.mark.parametrize("sim", ["cosine", "inner"])
def test_evaluate_ranks_generic_views_as_per_user_gemv(sim):
    # one product in place of a gemv per user moves scores by a few ulp:
    # on views without near-ties no ranking moves
    rng = np.random.default_rng(15)
    n_users, n_items = 200, 300
    user_views, item_views = rng.normal(size=(n_users, 64)), rng.normal(size=(n_items, 64))
    pairs = {(u, int(i)) for u in range(n_users) for i in rng.choice(n_items, 12, replace=False)}
    test = {p for p in pairs if p[1] % 4 == 0}
    ds = InteractionDataset(n_users, n_items, pairs - test, test=test)
    res = evaluate(user_views, item_views, ds, "test", 20, sim)
    train_by_user = ds.pairs_by_user(ds.train)
    expected = {}
    for u, items in sorted(ds.pairs_by_user(ds.test).items()):
        ranked = rank_candidates_gemv(user_views[u], item_views, train_by_user.get(u, ()), 20, sim)
        expected[u] = (recall_oracle(ranked.tolist(), set(items)), ndcg_oracle(ranked.tolist(), set(items), 20))
    assert len(expected) > 150
    assert list(res.per_user.items()) == list(expected.items())


@pytest.mark.parametrize("budget", [1, 2**15])
@pytest.mark.parametrize("k", [20, 400])
def test_pooled_evaluate_is_bitwise_the_inline_in_order_output(monkeypatch, budget, k):
    # 20 blocks of 48 rows (budget 1) or 10 of 96: generic views, and grid
    # views where rows tie at their cut; k = 400 ranks past the 300 items
    rng = np.random.default_rng(budget + k)
    n_users, n_items = 1000, 300
    pairs = np.argwhere(rng.random((n_users, n_items)) < 0.05)
    test = rng.random(len(pairs)) < 0.2
    ds = InteractionDataset(n_users, n_items, pairs[~test], test=pairs[test])
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", budget)
    generic = rng.normal(size=(n_users, 16)), rng.normal(size=(n_items, 16))
    grid = tuple(rng.integers(-1, 2, size=(n, 2)) * 1.0 for n in (n_users, n_items))
    for user_views, item_views in (generic, grid):
        for sim in ("cosine", "inner"):
            with monkeypatch.context() as mp:
                got = under_three_pools(mp, lambda: evaluate(user_views, item_views, ds, "test", k, sim))
            pooled, inline, backward = ([*r.per_user.items(), r.recall, r.ndcg] for r in got)
            assert pooled == inline == backward


@pytest.mark.parametrize("budget", [1, 2**15])
def test_pooled_predict_links_is_bitwise_the_inline_in_order_output(monkeypatch, budget):
    # 12 blocks of 48 rows (budget 1) or 4 of at least 144 (2**15)
    rng = np.random.default_rng(budget)
    n_users, n_items = 600, 200
    g = BipartiteGraph(n_users, n_items, np.argwhere(rng.random((n_users, n_items)) < 0.05))
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", budget)
    for mender in (
        EmbeddingState(rng.normal(size=(n_users, 8)), rng.normal(size=(n_items, 8))),
        EmbeddingState(*(rng.integers(-1, 2, size=(n, 2)) * 1.0 for n in (n_users, n_items))),
    ):
        for threshold, cap in ((0.3, n_items), (-1.0, 10), (0.0, 3), (0.5, 1)):
            with monkeypatch.context() as mp:
                got = under_three_pools(mp, lambda: predict_links(g, mender, threshold, cap, 1))
            for pairs, scores in got[1:]:
                assert np.array_equal(pairs, got[0][0])
                assert scores.tobytes() == got[0][1].tobytes()


def test_pooled_blocks_never_share_buffers_under_a_short_switch_interval(monkeypatch):
    # four workers on buffer sets that later blocks reuse, threads switched
    # every microsecond: a block that wrote into a set still in use would
    # change the links
    rng = np.random.default_rng(4)
    n_users, n_items = 960, 100
    g = BipartiteGraph(n_users, n_items, np.argwhere(rng.random((n_users, n_items)) < 0.05))
    mender = EmbeddingState(rng.normal(size=(n_users, 8)), rng.normal(size=(n_items, 8)))
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    monkeypatch.setattr(blocks_module, "_POOL", InlinePool())
    want = predict_links(g, mender, -1.0, 5, 1)
    got, pool = [], ThreadPoolExecutor(4)
    monkeypatch.setattr(blocks_module, "_POOL", pool)
    monkeypatch.setattr(blocks_module, "_WORKERS", 4)
    caller = threading.Thread(target=lambda: got.extend(predict_links(g, mender, -1.0, 5, 1) for _ in range(5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False)
    assert not caller.is_alive() and len(got) == 5
    for pairs, scores in got:
        assert np.array_equal(pairs, want[0]) and scores.tobytes() == want[1].tobytes()


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="processes cannot fork here")
def test_a_forked_child_ranks_on_its_own_pool(monkeypatch):
    # the child inherits the parent's pool object but not its threads
    args = (*_tied_case(150, 40, 0), "test", 5)
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    evaluate(*args)  # three blocks: the parent's pool has started its threads
    child = multiprocessing.get_context("fork").Process(target=evaluate, args=args)
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()


@pytest.mark.parametrize("n_cols", [300, 2400])
def test_row_blocks_have_the_bits_of_the_full_product(monkeypatch, one_blas_thread, n_cols):
    # the shapes evaluate and predict_links block at: d = 64, hundreds to
    # thousands of columns, 48-row blocks plus a remainder
    rng = np.random.default_rng(n_cols)
    rows, cols = rng.normal(size=(400, 64)), rng.normal(size=(n_cols, 64))
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    for n_rows in range(49, 401):
        full = rows[:n_rows] @ cols.T
        blocks = [rows[a:b] @ cols.T for a, b in blocks_module.row_blocks(n_rows, n_cols)]
        assert len(blocks) == n_rows // 48
        assert np.array_equal(np.concatenate(blocks), full), n_rows


def _oracle_metrics(user_views, item_views, ds, k, sim, split="test"):
    """Per-user (recall, ndcg) of ``split``, ranked from the split's full
    product."""
    held_by_user = sorted(ds.pairs_by_user(ds.val if split == "val" else ds.test).items())
    train_by_user = ds.pairs_by_user(ds.train)
    users = [u for u, _ in held_by_user]
    ranked = rank_candidates(user_views[users], item_views, [train_by_user.get(u, ()) for u in users], k, sim)
    return {
        u: (recall_oracle(r.tolist(), set(items)), ndcg_oracle(r.tolist(), set(items), k))
        for (u, items), r in zip(held_by_user, ranked)
    }


def _split_users_case(layout):
    """150 users over 12 items, where val and test hold different users:
    their union of about 110 users takes two blocks under a budget of 1,
    though test's users alone take one. ``categories``: by ``u % 4``
    a user is in val only, test only, both or neither, with up to 2 val
    and up to 4 test items; ``ratios``: ``split_dataset`` at 6/3/1, where
    users with fewer than 10 pairs get no test pair and fewer than 4 no
    val pair."""
    n_users, n_items = 150, 12
    rng = np.random.default_rng(7)
    user_views, item_views = rng.normal(size=(n_users, 3)), rng.normal(size=(n_items, 3))
    if layout == "ratios":
        pairs = [(u, int(i)) for u in range(n_users) for i in rng.choice(n_items, 1 + u % 12, replace=False)]
        return user_views, item_views, split_dataset(InteractionDataset(n_users, n_items, pairs), (6, 3, 1), 0)
    train, val, test = set(), set(), set()
    for u in range(n_users):
        order = rng.permutation(n_items)
        train |= {(u, int(i)) for i in order[: rng.integers(0, 6)]}
        if u % 4 in (0, 2):
            val |= {(u, int(i)) for i in order[6 : 6 + rng.integers(1, 3)]}
        if u % 4 in (1, 2):
            test |= {(u, int(i)) for i in order[8 : 8 + rng.integers(1, 5)]}
    return user_views, item_views, InteractionDataset(n_users, n_items, train, val, test)


@pytest.mark.parametrize("layout", ["categories", "ratios"])
@pytest.mark.parametrize("budget", [None, 1])
def test_evaluate_matches_oracle_on_both_splits_with_different_users(monkeypatch, layout, budget):
    user_views, item_views, ds = _split_users_case(layout)
    val_users, test_users = set(ds.val[:, 0].tolist()), set(ds.test[:, 0].tolist())
    assert val_users ^ test_users and val_users & test_users
    assert len(val_users | test_users) < ds.n_users
    if budget is not None:
        monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", budget)
    for k in (1, 5, 15):
        for sim in ("cosine", "inner"):
            for split in ("val", "test"):
                res = evaluate(user_views, item_views, ds, split, k, sim)
                expected = _oracle_metrics(user_views, item_views, ds, k, sim, split)
                assert list(res.per_user.items()) == list(expected.items())
                assert res.recall == float(np.mean([m[0] for m in expected.values()]))
                assert res.ndcg == float(np.mean([m[1] for m in expected.values()]))


# ---------------------------------------------------------------- memo


def _read_only_views(user_views, item_views):
    for view in (user_views, item_views):
        view.flags.writeable = False
    return user_views, item_views


def _as_list(res):
    return [*res.per_user.items(), res.recall, res.ndcg]


@pytest.mark.parametrize("first,second", [("val", "test"), ("test", "val")])
def test_memo_serves_the_second_split_as_a_fresh_call_would(monkeypatch, first, second):
    user_views, item_views, ds = _split_users_case("categories")
    views = _read_only_views(user_views.copy(), item_views.copy())
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    calls = []
    select = evaluate_module.select_blocks
    monkeypatch.setattr(evaluate_module, "select_blocks", lambda *a: calls.append(1) or select(*a))
    got = [evaluate(*views, ds, first, 5), evaluate(*views, ds, second, 5)]
    assert len(calls) == 1  # the second call ranks nothing
    # a memo serves one call: asking again ranks again
    assert _as_list(evaluate(*views, ds, second, 5)) == _as_list(got[1])
    assert len(calls) == 2
    fresh = [evaluate(user_views.copy(), item_views.copy(), ds, split, 5) for split in (first, second)]
    assert [_as_list(r) for r in got] == [_as_list(r) for r in fresh]


def test_memo_is_missed_on_another_k_sim_dataset_or_split(monkeypatch):
    user_views, item_views, ds = _split_users_case("categories")
    views = _read_only_views(user_views, item_views)
    other_ds = InteractionDataset(ds.n_users, ds.n_items, ds.train, ds.val, ds.test)
    calls = []
    select = evaluate_module.select_blocks
    monkeypatch.setattr(evaluate_module, "select_blocks", lambda *a: calls.append(1) or select(*a))
    misses = ((6, "cosine", ds, "test"), (5, "inner", ds, "test"), (5, "cosine", other_ds, "test"), (5, "cosine", ds, "val"))
    for k, sim, data, split in misses:
        calls.clear()
        evaluate(*views, ds, "val", 5, "cosine")
        res = evaluate(*views, data, split, k, sim)
        assert len(calls) == 2
        assert _as_list(res) == _as_list(evaluate(user_views.copy(), item_views.copy(), data, split, k, sim))


@pytest.mark.parametrize("through_base", [False, True])
def test_writable_views_are_never_memoised(through_base):
    # a read-only view of a writable base can change under the memo too
    user_views, item_views, ds = _split_users_case("categories")
    base = user_views.copy()
    views = base, item_views
    if through_base:
        views = _read_only_views(base[:], item_views)
    before = evaluate(base.copy(), item_views, ds, "test", 5)
    evaluate(*views, ds, "val", 5)
    base *= -1.0
    after = evaluate(*views, ds, "test", 5)
    assert _as_list(after) != _as_list(before)
    assert _as_list(after) == _as_list(evaluate(base.copy(), item_views, ds, "test", 5))


def test_memo_keeps_no_views_alive():
    user_views, item_views, ds = _split_users_case("categories")
    for calls in (("val",), ("val", "test")):  # a memo waiting, then taken
        views = _read_only_views(user_views.copy(), item_views.copy())
        refs = [weakref.ref(view) for view in views]
        for split in calls:
            evaluate(*views, ds, split, 5)
        del views
        assert all(ref() is None for ref in refs)


def test_evaluate_val_split_and_bad_split():
    ds = toy_dataset()
    rng = np.random.default_rng(1)
    res = evaluate(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), ds, split="val", k=2)
    assert set(res.per_user) == {0}
    with pytest.raises(ConfigError):
        evaluate(rng.normal(size=(3, 2)), rng.normal(size=(4, 2)), ds, split="train")


def test_evaluate_empty_split_gives_zero():
    ds = InteractionDataset(2, 2, {(0, 0)})
    rng = np.random.default_rng(2)
    res = evaluate(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)), ds, k=1)
    assert res.per_user == {} and res.recall == 0.0 and res.ndcg == 0.0


def test_evaluate_perfect_model_scores_one():
    # views engineered so every test item is the single nearest candidate
    ds = InteractionDataset(2, 3, train={(0, 0), (1, 1)}, test={(0, 1), (1, 2)})
    user_views = np.array([[1.0, 0.0], [0.0, 1.0]])
    item_views = np.array([[-1.0, -1.0], [1.0, 0.05], [0.05, 1.0]])
    res = evaluate(user_views, item_views, ds, k=1)
    assert res.recall == 1.0 and res.ndcg == 1.0


def test_write_per_user_tsv(tmp_path):
    res = EvalResult(k=2, per_user={1: (0.5, 0.25), 0: (1.0, 1.0)}, recall=0.75, ndcg=0.625)
    path = tmp_path / "per_user.tsv"
    write_per_user_tsv(res, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "# k=2"
    assert lines[1].startswith("0\t1.000000")
    assert lines[2].startswith("1\t0.500000")
