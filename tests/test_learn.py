import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgcf.errors import NumericError
from fedgcf.graph import BipartiteGraph, EgoGraph, EmbeddingState, default_alpha
import fedgcf.learn as learn_module
from fedgcf.learn import (
    AdamMoments,
    CLTerm,
    GradientBundle,
    HyperParams,
    LossSpec,
    _bpr_terms,
    _cosine_rows,
    _infonce_terms,
    _nonzero_rows,
    _safe_unit,
    _star_sums,
    adam_step,
    add_rows,
    compute_gradients,
)

from oracles import as_dict, bundle_of, compute_loss, cosine_oracle, fd_gradient, infonce_oracle, max_rel_err, same_bits
from pools import blocks_module, under_three_pools

# frozen expected values, derived by hand:
#   ln 2                       = 0.6931471805599453
#   ln(1 + e^-1)               = 0.3132616875182228
#   ln(1 + e^-5)               = 0.0067153484891181
#   sqrt(2)/2                  = 0.7071067811865476
LN2 = 0.6931471805599453
SOFTPLUS_NEG1 = 0.3132616875182228
INFONCE_ORTHO = 0.0067153484891181


def flat_spec(n_users, n_items, **kw):
    """Zero-layer spec on an edgeless graph: the loss terms read the layer-0
    rows unchanged (alpha = [1])."""
    return LossSpec(graph=BipartiteGraph(n_users, n_items, []), alpha=default_alpha(0), **kw)


def link_cosine(a, b):
    """cos(a, b) as compute_loss sees it: 1 minus the residual of one
    positive link."""
    spec = flat_spec(1, 1, link_positives=np.array([[0, 0]]))
    return 1.0 - compute_loss(spec, EmbeddingState(a[None, :], b[None, :])).mend


def ranking_loss(e_u, pos, neg, reg_lambda=0.0, reg_rows=()):
    """Total loss of one user view against paired positive/negative item
    rows, plus ``reg_lambda`` times the squared entries of ``reg_rows``
    (extra item rows that are only regularized)."""
    e_u = np.asarray(e_u, dtype=np.float64)
    pos, neg, reg_rows = (
        np.asarray(x, dtype=np.float64).reshape(-1, e_u.size) for x in (pos, neg, reg_rows)
    )
    n, m = len(pos), len(neg)
    items = np.concatenate([pos, neg, reg_rows])
    spec = flat_spec(
        1,
        len(items),
        bpr_users=np.zeros(n, dtype=np.int64),
        bpr_pos=np.arange(n),
        bpr_neg=n + np.arange(m),
        reg_lambda=reg_lambda,
        reg_item_rows=n + m + np.arange(len(reg_rows)),
    )
    return compute_loss(spec, EmbeddingState(e_u[None, :], items)).total


def contrastive_loss(local_views, global_views, tau=0.2):
    """Contrastive part of compute_loss with the local views as trainable
    user rows (queries) and the global views as fixed keys; extra global
    entries act as negatives."""
    local_ids = sorted(local_views)
    global_ids = sorted(global_views)
    keys = np.array([global_views[k] for k in global_ids], dtype=np.float64)
    queries = np.array([local_views[k] for k in local_ids], dtype=np.float64)
    queries = queries.reshape(-1, keys.shape[1])
    term = CLTerm(
        kind="user",
        trainable="query",
        rows=np.arange(len(local_ids)),
        ids=local_ids,
        fixed_ids=global_ids,
        fixed_views=keys,
    )
    spec = flat_spec(len(local_ids), 0, cl_terms=[term], tau=tau, cl_weight=1.0)
    return compute_loss(spec, EmbeddingState(queries, np.zeros((0, keys.shape[1])))).cl


# ---------------------------------------------------------------- cosine


def test_cosine_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        assert link_cosine(a, b) == pytest.approx(cosine_oracle(a, b), abs=1e-12)


def test_cosine_zero_vector_convention():
    assert link_cosine(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0
    assert link_cosine(np.array([1.0, 0.0, 0.0]), np.zeros(3)) == 0.0
    assert link_cosine(np.zeros(3), np.zeros(3)) == 0.0


def test_cosine_scale_invariance_and_range():
    rng = np.random.default_rng(1)
    a = rng.normal(size=6)
    b = rng.normal(size=6)
    assert link_cosine(3.0 * a, b) == pytest.approx(link_cosine(a, b), abs=1e-12)
    assert -1.0 - 1e-12 <= link_cosine(a, b) <= 1.0 + 1e-12
    assert link_cosine(a, a) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- bpr


def test_bpr_equal_scores_gives_ln2():
    e_u = np.array([1.0, 0.0, 0.0])
    pos = np.array([[0.0, 1.0, 0.0]])
    neg = np.array([[0.0, 0.0, 1.0]])
    assert ranking_loss(e_u, pos, neg) == pytest.approx(LN2, abs=1e-12)


def test_bpr_unit_margin_value():
    # cos(u,pos)=1, cos(u,neg)=0 -> softplus(-1) = ln(1+e^-1)
    e_u = np.array([1.0, 0.0])
    pos = np.array([[2.0, 0.0]])
    neg = np.array([[0.0, 5.0]])
    assert ranking_loss(e_u, pos, neg) == pytest.approx(SOFTPLUS_NEG1, abs=1e-12)


def test_bpr_sums_over_pairs_and_reg():
    e_u = np.array([1.0, 0.0])
    pos = np.array([[2.0, 0.0], [0.0, 1.0]])
    neg = np.array([[0.0, 5.0], [3.0, 0.0]])
    base = SOFTPLUS_NEG1 + math.log(1.0 + math.e)  # softplus(-1) + softplus(1)
    assert ranking_loss(e_u, pos, neg) == pytest.approx(base, abs=1e-12)
    reg_rows = np.array([[1.0, 2.0]])
    assert ranking_loss(e_u, pos, neg, reg_lambda=0.5, reg_rows=reg_rows) == pytest.approx(
        base + 0.5 * 5.0, abs=1e-12
    )


def test_bpr_empty_positives_is_reg_only():
    e_u = np.array([1.0, 0.0])
    empty = np.zeros((0, 2))
    assert ranking_loss(e_u, empty, empty) == 0.0
    assert ranking_loss(e_u, empty, empty, 2.0, np.array([[1.0, 1.0]])) == pytest.approx(4.0)


def test_bpr_shape_mismatch_rejected():
    e_u = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        ranking_loss(e_u, np.ones((2, 2)), np.ones((1, 2)))


# ---------------------------------------------------------------- infonce


def test_infonce_orthogonal_pair_frozen_value():
    # tau=0.2: logits 5 (positive) and 0 (negative), per-row loss ln(1+e^-5)
    views_a = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    views_b = {0: np.array([2.0, 0.0]), 1: np.array([0.0, 3.0])}
    got = contrastive_loss(views_a, views_b, tau=0.2)
    assert got == pytest.approx(2.0 * INFONCE_ORTHO, abs=1e-12)


def test_infonce_single_pair_is_zero():
    views = {5: np.array([0.3, -0.7])}
    assert contrastive_loss(views, {5: np.array([-1.0, 2.0])}, tau=0.2) == 0.0


def test_infonce_empty_local_is_zero():
    assert contrastive_loss({}, {0: np.array([1.0, 0.0])}, tau=0.2) == 0.0


def test_infonce_extra_global_keys_are_negatives():
    views_a = {0: np.array([1.0, 0.0])}
    views_b = {0: np.array([1.0, 0.0]), 7: np.array([0.0, 1.0])}
    # logits 5 and 0 -> ln(1+e^-5)
    assert contrastive_loss(views_a, views_b, tau=0.2) == pytest.approx(INFONCE_ORTHO, abs=1e-12)


def test_infonce_missing_positive_rejected():
    with pytest.raises(ValueError):
        contrastive_loss({3: np.array([1.0, 0.0])}, {0: np.array([1.0, 0.0])}, tau=0.2)
    # trainable keys: every fixed query needs a same-id key among the rows
    with pytest.raises(ValueError):
        CLTerm("item", "key", np.array([0]), np.array([0]), np.array([5]), np.ones((1, 2)))


def test_infonce_bad_temperature_rejected():
    with pytest.raises(ValueError):
        contrastive_loss({0: np.ones(2)}, {0: np.ones(2)}, tau=0.0)


def test_infonce_decreases_when_views_align():
    rng = np.random.default_rng(2)
    keys = {k: rng.normal(size=4) for k in range(5)}
    aligned = {k: keys[k] + 0.01 * rng.normal(size=4) for k in range(3)}
    scrambled = {k: rng.normal(size=4) for k in range(3)}
    assert contrastive_loss(aligned, keys, 0.2) < contrastive_loss(scrambled, keys, 0.2)


def _infonce_case(n_q, n_k, d, seed):
    """Generic query and key rows with every 7th query and 11th key of zero
    norm, and positives drawn at random."""
    rng = np.random.default_rng(seed)
    queries, keys = rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d))
    queries[::7] = 0.0
    keys[::11] = 0.0
    return queries, keys, rng.integers(0, n_k, size=n_q)


def _same_infonce(got, want):
    return got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("budget, n_q, n_k", [(1, 450, 500), (None, 2315, 2315)])
@pytest.mark.parametrize("d", [4, 64])
def test_blocked_infonce_is_bitwise_the_one_buffer_oracle(monkeypatch, one_blas_thread, budget, n_q, n_k, d):
    # 48-row blocks with a 66-row remainder (budget 1), or the 2315 batch
    # items of a server round in 24 blocks; at d = 4 a gradient product
    # taken per block would round differently from the whole product
    if budget is not None:
        monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", budget)
    assert len(blocks_module.row_blocks(n_q, n_k)) > 2
    queries, keys, pos = _infonce_case(n_q, n_k, d, n_q + d)
    for trainable in ("key", "query"):
        want = infonce_oracle(queries, keys, pos, 0.2, trainable)
        with monkeypatch.context() as mp:
            got = under_three_pools(mp, lambda: _infonce_terms(queries, keys, pos, 0.2, trainable))
        assert all(_same_infonce(g, want) for g in got), trainable


def test_pooled_infonce_on_four_workers_under_a_short_switch_interval(monkeypatch, one_blas_thread):
    # four workers write their own rows of one buffer while threads switch
    # every microsecond: a block that wrote outside its rows would show
    monkeypatch.setattr(blocks_module, "_SCORE_BUDGET", 1)
    queries, keys, pos = _infonce_case(450, 500, 16, 3)
    want = [infonce_oracle(queries, keys, pos, 0.2, trainable) for trainable in ("key", "query")]
    got, pool = [], ThreadPoolExecutor(4)
    monkeypatch.setattr(blocks_module, "_POOL", pool)
    monkeypatch.setattr(blocks_module, "_WORKERS", 4)
    sides = ["key", "query"] * 3
    caller = threading.Thread(target=lambda: got.extend(_infonce_terms(queries, keys, pos, 0.2, t) for t in sides))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown(wait=False)
    assert not caller.is_alive() and len(got) == len(sides)
    assert all(_same_infonce(g, want[j % 2]) for j, g in enumerate(got))


class _NoPool:
    def submit(self, fn, j):
        raise AssertionError("a one-block contrastive call started a worker")


def test_stacked_and_one_block_infonce_calls_start_no_worker(monkeypatch):
    # the 300 items of a 200 x 300 run fit one block; a stacked call of
    # several softmaxes is always one block, whatever its size
    monkeypatch.setattr(blocks_module, "_POOL", _NoPool())
    rng = np.random.default_rng(6)
    stacked = rng.normal(size=(3, 400, 8)), rng.normal(size=(1000, 8)), rng.integers(0, 1000, size=(3, 400))
    for queries, keys, pos in (_infonce_case(300, 300, 64, 1), stacked):
        for trainable in ("key", "query"):
            got = _infonce_terms(queries, keys, pos, 0.2, trainable)
            assert _same_infonce(got, infonce_oracle(queries, keys, pos, 0.2, trainable))


# ---------------------------------------------------------------- mending


def test_mending_loss_values():
    z_u = np.array([[1.0, 0.0], [0.0, 2.0]])
    z_i = np.array([[3.0, 0.0], [1.0, 1.0]])
    # positive (0,0): |1-1| = 0 ; positive (0,1): |cos45-1| = 1-sqrt2/2
    pos = np.array([[0, 0], [0, 1]])
    # negative (1,0): |0-0| = 0 ; negative (1,1): |cos45| = sqrt2/2
    neg = np.array([[1, 0], [1, 1]])
    want = (1.0 - math.sqrt(0.5)) + math.sqrt(0.5)
    state = EmbeddingState(z_u, z_i)
    spec = flat_spec(2, 2, link_positives=pos, link_negatives=neg)
    assert compute_loss(spec, state).mend == pytest.approx(want, abs=1e-12)
    empty = flat_spec(2, 2, link_positives=np.zeros((0, 2)), link_negatives=np.zeros((0, 2)))
    assert compute_loss(empty, state).mend == 0.0


def test_mending_kink_has_zero_gradient():
    # a positive link already at cosine 1 sits on the |.| kink: subgradient 0
    # (axis-aligned vectors so the cosine is exactly 1.0 in floating point)
    g = BipartiteGraph(1, 1, [(0, 0)])
    state = EmbeddingState(np.array([[1.0, 0.0]]), np.array([[2.0, 0.0]]))
    spec = LossSpec(
        graph=g,
        alpha=default_alpha(1),
        link_positives=np.array([[0, 0]]),
    )
    parts, bundle = compute_gradients(spec, state)
    assert parts.mend == pytest.approx(0.0, abs=1e-12)
    assert not bundle.user and not bundle.item


def _link_spec(rng, graph, n_users, n_items, n_links):
    """Positive and negative links with repeated users and items, and a
    ranking term and the regularizer beside them."""
    links = [np.stack([rng.integers(0, n_users, n), rng.integers(0, n_items, n)], axis=1) for n in n_links]
    return LossSpec(
        graph=graph,
        alpha=default_alpha(1 if isinstance(graph, EgoGraph) else 2),
        bpr_users=rng.integers(0, n_users, size=6),
        bpr_pos=rng.integers(0, n_items, size=6),
        bpr_neg=rng.integers(0, n_items, size=6),
        link_positives=links[0],
        link_negatives=links[1],
        reg_lambda=0.01,
        reg_user_rows=np.arange(n_users),
    )


@pytest.mark.parametrize("block", [1, 7])
def test_link_terms_in_blocks_are_bitwise_one_block(monkeypatch, block):
    rng = np.random.default_rng(17)
    pairs = {(int(rng.integers(30)), int(rng.integers(40))) for _ in range(120)}
    flat = BipartiteGraph(30, 40, sorted(pairs))
    flat_state = EmbeddingState(rng.normal(size=(30, 6)), rng.normal(size=(40, 6)))
    flat_state.user[3] = 0.0  # a zero view: cosine 0 and no gradient
    forest = EgoGraph([0, 5, 9, 14], [0, 1, 3, 5, 6, 9, 10, 11, 13])
    forest_state = EmbeddingState(rng.normal(size=(3, 6)), rng.normal(size=(14, 6)))
    cases = [
        (_link_spec(rng, flat, 30, 40, (53, 45)), flat_state),
        (_link_spec(rng, forest, 3, 14, (11, 8)), forest_state),
    ]
    for spec, state in cases:
        monkeypatch.setattr(learn_module, "_PAIR_BLOCK", 2**12)
        want_parts, want = compute_gradients(spec, state)
        monkeypatch.setattr(learn_module, "_PAIR_BLOCK", block)
        parts, got = compute_gradients(spec, state)
        for name in ("bpr", "cl", "mend", "reg", "total"):
            assert same_bits(np.asarray(getattr(parts, name)), np.asarray(getattr(want_parts, name)))
        for a, b in ((got.user, want.user), (got.item, want.item)):
            assert np.array_equal(a.rows, b.rows) and same_bits(a.values, b.values)


def _bpr_spec(rng, graph, n):
    """Ranking triplets with repeated users and items. Item 0 is a positive
    of the first triplet, the negative of the second and the positive of
    the last: in one block it takes both positive terms before the
    negative, so a block that adds its own negative terms changes its sum."""
    users = rng.integers(0, graph.n_users, n)
    pos, neg = rng.integers(0, graph.n_items, n), rng.integers(0, graph.n_items, n)
    pos[0] = neg[1] = pos[-1] = 0
    users[2], neg[2] = 0, 1  # a zero user row and a zero item row
    alpha = default_alpha(1 if isinstance(graph, EgoGraph) else 2)
    return LossSpec(graph=graph, alpha=alpha, bpr_users=users, bpr_pos=pos, bpr_neg=neg)


@pytest.mark.parametrize("block", [1, 7])
def test_bpr_terms_in_blocks_are_bitwise_one_block(monkeypatch, block):
    rng = np.random.default_rng(23)
    pairs = {(int(rng.integers(30)), int(rng.integers(40))) for _ in range(120)}
    flat = BipartiteGraph(30, 40, sorted(pairs))
    forest = EgoGraph([0, 5, 9, 14], [0, 1, 3, 5, 6, 9, 10, 11, 13])
    cases = []
    for graph, n in ((flat, 61), (forest, 23)):
        spec = _bpr_spec(rng, graph, n)
        state = EmbeddingState(rng.normal(size=(graph.n_users, 6)), rng.normal(size=(graph.n_items, 6)))
        # zero final views of user 0 and item 1: cosine 0 and no gradient
        spec.views = graph.combine(state.user, state.item, spec.alpha)
        spec.views[0][0] = spec.views[1][1] = 0.0
        cases.append((spec, state))
    for spec, state in cases:
        monkeypatch.setattr(learn_module, "_PAIR_BLOCK", 2**12)
        want_parts, want = compute_gradients(spec, state)
        monkeypatch.setattr(learn_module, "_PAIR_BLOCK", block)
        parts, got = compute_gradients(spec, state)
        for name in ("bpr", "cl", "mend", "reg", "total"):
            assert same_bits(np.asarray(getattr(parts, name)), np.asarray(getattr(want_parts, name)))
        for a, b in ((got.user, want.user), (got.item, want.item)):
            assert np.array_equal(a.rows, b.rows) and same_bits(a.values, b.values)


def test_ranking_terms_peak_under_three_triplet_tables():
    # 2**14 triplets at d = 64 over 1024 users and 2048 items, BPR only,
    # with the views given: the temporaries are counted in (triplets, d)
    # float64 tables
    n, d = 2**14, 64
    rng = np.random.default_rng(9)
    views = (rng.normal(size=(2**10, d)), rng.normal(size=(2**11, d)))
    spec = flat_spec(
        2**10,
        2**11,
        bpr_users=rng.integers(0, 2**10, n),
        bpr_pos=rng.integers(0, 2**11, n),
        bpr_neg=rng.integers(0, 2**11, n),
        views=views,
    )
    state = EmbeddingState(views[0].copy(), views[1].copy())
    tracemalloc.start()
    try:
        compute_gradients(spec, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * d * 8


def test_bpr_terms_normalize_the_user_rows_once(monkeypatch):
    rng = np.random.default_rng(5)
    user, pos, neg = (rng.normal(size=(9, 4)) for _ in range(3))
    user[2] = pos[4] = neg[6] = 0.0  # rows below the norm floor
    # the two-call form: each cosine normalizes the user rows itself
    s_pos, du_p, dp = _cosine_rows(_safe_unit(user), _safe_unit(pos))
    s_neg, du_n, dn = _cosine_rows(_safe_unit(user), _safe_unit(neg))
    x = s_pos - s_neg
    coef = (1.0 / (1.0 + np.exp(-x)) - 1.0)[:, None]
    want = (np.logaddexp(0.0, -x), coef * (du_p - du_n), coef * dp, -coef * dn)
    calls = []
    real = learn_module._safe_unit
    monkeypatch.setattr(learn_module, "_safe_unit", lambda mat: calls.append(mat) or real(mat))
    got = _bpr_terms(user, pos, neg)
    assert len(calls) == 3
    assert all(same_bits(a, b) for a, b in zip(got, want))


# ---------------------------------------------------------------- combined


def test_combined_loss_formula():
    # every term present: ranking + weighted contrastive + link fit + single-counted reg
    spec, state = make_random_spec(np.random.default_rng(10), 1)
    parts = compute_loss(spec, state)
    assert min(parts.bpr, parts.cl, parts.mend, parts.reg) > 0.0
    want = parts.bpr + 0.3 * parts.cl + parts.mend + 0.05 * parts.reg
    assert parts.total == pytest.approx(want, abs=1e-12)


def test_compute_loss_component_accounting():
    rng = np.random.default_rng(3)
    g = BipartiteGraph(2, 3, [(0, 0), (0, 1), (1, 2)])
    state = EmbeddingState(rng.normal(size=(2, 4)), rng.normal(size=(3, 4)))
    spec = LossSpec(
        graph=g,
        alpha=default_alpha(1),
        bpr_users=np.array([0]),
        bpr_pos=np.array([0]),
        bpr_neg=np.array([2]),
        reg_lambda=0.01,
        reg_user_rows=np.array([0]),
        reg_item_rows=np.array([0, 2]),
    )
    parts = compute_loss(spec, state)
    want_reg = float(np.sum(state.user[0] ** 2) + np.sum(state.item[[0, 2]] ** 2))
    assert parts.reg == pytest.approx(want_reg, abs=1e-12)
    assert parts.total == pytest.approx(parts.bpr + 0.01 * parts.reg, abs=1e-12)
    assert parts.cl == 0.0 and parts.mend == 0.0


def test_reg_rows_counted_once_despite_duplicates():
    rng = np.random.default_rng(4)
    g = BipartiteGraph(1, 1, [(0, 0)])
    state = EmbeddingState(rng.normal(size=(1, 3)), rng.normal(size=(1, 3)))
    spec = LossSpec(
        graph=g,
        alpha=default_alpha(1),
        reg_lambda=1.0,
        reg_user_rows=np.array([0, 0, 0]),
        reg_item_rows=np.array([0, 0]),
    )
    parts = compute_loss(spec, state)
    want = float(np.sum(state.user[0] ** 2) + np.sum(state.item[0] ** 2))
    assert parts.reg == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------- gradients


def make_random_spec(rng, layers):
    n_u = int(rng.integers(3, 6))
    n_i = int(rng.integers(4, 7))
    pairs = {(int(rng.integers(n_u)), int(rng.integers(n_i))) for _ in range(n_u * 2)}
    # keep every node attached so cosine terms see nonzero views
    for u in range(n_u):
        pairs.add((u, int(rng.integers(n_i))))
    for i in range(n_i):
        pairs.add((int(rng.integers(n_u)), i))
    g = BipartiteGraph(n_u, n_i, sorted(pairs))
    d = 5
    state = EmbeddingState(rng.normal(size=(n_u, d)), rng.normal(size=(n_i, d)))
    users = rng.integers(0, n_u, size=4)
    cl_terms = [
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
            fixed_ids=np.arange(0, n_i, 2),
            fixed_views=rng.normal(size=(len(range(0, n_i, 2)), d)),
        ),
    ]
    spec = LossSpec(
        graph=g,
        alpha=default_alpha(layers),
        bpr_users=users,
        bpr_pos=rng.integers(0, n_i, size=4),
        bpr_neg=rng.integers(0, n_i, size=4),
        cl_terms=cl_terms,
        link_positives=np.array([[0, 0]]),
        link_negatives=np.array([[1, 1]]),
        tau=0.2,
        cl_weight=0.3,
        reg_lambda=0.05,
        reg_user_rows=users,
        reg_item_rows=np.arange(n_i),
    )
    return spec, state


@pytest.mark.parametrize("layers", [1, 3])
def test_gradients_match_finite_differences(layers):
    rng = np.random.default_rng(42 + layers)
    for _ in range(5):
        spec, state = make_random_spec(rng, layers)
        _, bundle = compute_gradients(spec, state)
        dense_u = np.zeros_like(state.user)
        dense_i = np.zeros_like(state.item)
        for r, v in as_dict(bundle.user).items():
            dense_u[r] = v
        for r, v in as_dict(bundle.item).items():
            dense_i[r] = v
        fd_u, fd_i = fd_gradient(lambda s: compute_loss(spec, s).total, state)
        assert max_rel_err(dense_u, fd_u) < 1e-5
        assert max_rel_err(dense_i, fd_i) < 1e-5


def make_device_spec(rng):
    """A device step: user 0's ego graph over its k local items plus
    isolated negatives, with BPR, a user and an item contrastive term, and
    the regularizer, laid out as client_local_train lays them out."""
    k = int(rng.integers(1, 7))
    n = k + int(rng.integers(1, 4))
    pos = np.sort(rng.choice(n, size=k, replace=False))
    neg = rng.choice(np.setdiff1d(np.arange(n), pos), size=k)
    d = 5
    state = EmbeddingState(rng.normal(size=(1, d)), rng.normal(size=(n, d)))
    item_ids = pos + 100  # the items' global ids
    cl_terms = [
        CLTerm(
            kind="user",
            trainable="query",
            rows=np.array([0]),
            ids=np.array([4]),
            fixed_ids=np.array([1, 4, 9]),
            fixed_views=rng.normal(size=(3, d)),
        ),
        CLTerm(
            kind="item",
            trainable="query",
            rows=pos,
            ids=item_ids,
            fixed_ids=item_ids,
            fixed_views=rng.normal(size=(k, d)),
        ),
    ]
    spec = LossSpec(
        graph=EgoGraph([0, n], pos),
        alpha=default_alpha(1),
        bpr_users=np.zeros(k, dtype=np.int64),
        bpr_pos=pos,
        bpr_neg=neg,
        cl_terms=cl_terms,
        tau=0.2,
        cl_weight=0.3,
        reg_lambda=0.05,
        reg_user_rows=np.array([0]),
        reg_item_rows=np.unique(np.concatenate([pos, neg])),
    )
    return spec, state


def test_ego_graph_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(16):
        spec, state = make_device_spec(rng)
        parts, bundle = compute_gradients(spec, state)
        assert parts.bpr[0] > 0.0 and parts.cl[0] > 0.0 and parts.reg[0] > 0.0
        dense_u = np.zeros_like(state.user)
        dense_i = np.zeros_like(state.item)
        dense_u[bundle.user.rows] = bundle.user.values
        dense_i[bundle.item.rows] = bundle.item.values
        fd_u, fd_i = fd_gradient(lambda s: compute_loss(spec, s).total[0], state)
        assert max_rel_err(dense_u, fd_u) <= 1e-4
        assert max_rel_err(dense_i, fd_i) <= 1e-4


def test_gradient_zero_row_is_safe():
    # zero layer-0 vector on an isolated user: cosine convention keeps the
    # loss finite and the gradient empty for that row
    g = BipartiteGraph(2, 2, [(0, 0), (0, 1)])
    state = EmbeddingState(
        np.array([[1.0, 2.0], [0.0, 0.0]]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    spec = LossSpec(
        graph=g,
        alpha=default_alpha(1),
        bpr_users=np.array([1]),
        bpr_pos=np.array([0]),
        bpr_neg=np.array([1]),
    )
    parts, bundle = compute_gradients(spec, state)
    assert parts.bpr == pytest.approx(LN2, abs=1e-12)
    assert 1 not in as_dict(bundle.user)
    bundle.check_finite()


def test_cl_weight_zero_skips_contrastive():
    rng = np.random.default_rng(6)
    spec, state = make_random_spec(rng, 1)
    spec.cl_weight = 0.0
    parts, _ = compute_gradients(spec, state)
    assert parts.cl == 0.0


# ---------------------------------------------------------------- bundle


def test_bundle_from_dense_skips_zero_rows():
    gu = np.array([[0.0, 0.0], [1.0, 0.0]])
    gi = np.zeros((3, 2))
    b = GradientBundle(_nonzero_rows(gu), _nonzero_rows(gi))
    assert set(as_dict(b.user)) == {1} and not b.item


def test_nonzero_rows_hand_out_the_table_only_when_every_row_is_nonzero():
    full = np.array([[1.0, 0.0], [0.0, -2.0], [-0.0, 1e-300]])
    block = _nonzero_rows(full)
    assert block.values is full and same_bits(block.rows, np.arange(3))
    # a row of signed zeros is zero
    gaps = np.array([[1.0, 0.0], [-0.0, 0.0], [0.0, 3.0]])
    block = _nonzero_rows(gaps)
    assert not np.shares_memory(block.values, gaps)
    assert same_bits(block.rows, np.array([0, 2])) and same_bits(block.values, gaps[[0, 2]])


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    width=st.integers(0, 3),
    seed=st.integers(0, 2**16),
)
def test_star_sums_same_bits_for_grouped_and_shuffled_owners(counts, width, seed):
    # values of magnitudes far apart, so the order of the additions shows
    # in the bits; the shuffle interleaves the stars' runs but keeps each
    # star's rows in their order
    rng = np.random.default_rng(seed)
    owners = np.repeat(np.arange(len(counts)), counts)
    shape = (owners.size, width) if width else (owners.size,)
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    shuffled_owners = rng.permutation(owners)
    shuffled = np.empty_like(values)
    shuffled[np.argsort(shuffled_owners, kind="stable")] = values
    grouped = _star_sums(values, owners, len(counts))
    assert same_bits(_star_sums(shuffled, shuffled_owners, len(counts)), grouped)
    want = np.array([np.sum(values[owners == s]) for s in range(len(counts))])
    assert same_bits(grouped, want)


def test_bundle_check_finite_raises():
    b = bundle_of(user={0: np.array([np.nan, 1.0])})
    with pytest.raises(NumericError):
        b.check_finite()


# ---------------------------------------------------------------- scatter

# signed zeros, and magnitudes far enough apart that the order of the
# additions shows in the bits
_SCATTER_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 3e-17]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 6),
    shape=st.sampled_from([(0,), (1,), (7,), (40,), (0, 3), (2, 3), (3, 5)]),
    d=st.integers(1, 3),
    unique=st.booleans(),
)
@example(data=None, n=2, shape=(3, 5), d=2, unique=False)  # heavy repeats, (b, n, d) values
def test_add_rows_is_bitwise_unbuffered_add(data, n, shape, d, unique):
    size = int(np.prod(shape))
    if data is None:  # the explicit example: one row takes -0.0 values onto -0.0
        rows = np.arange(size) % n
        values = np.full((size, d), -0.0)
        values[rows == 1] = np.array([1e16, 1.0, -1e16, 3e-17, -1.0, 2.0, -2.0])[:, None]
        target = np.full((n, d), -0.0)
    else:
        if unique:
            n = max(n, size)
            rows = data.draw(st.permutations(range(n)))[:size]
        else:
            rows = data.draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        values = data.draw(st.lists(_SCATTER_FLOATS, min_size=size * d, max_size=size * d))
        target = data.draw(st.lists(_SCATTER_FLOATS, min_size=n * d, max_size=n * d))
    rows = np.asarray(rows, dtype=np.int64).reshape(shape)
    values = np.asarray(values, dtype=np.float64).reshape(*shape, d)
    target = np.asarray(target, dtype=np.float64).reshape(n, d)
    expect = target.copy()
    np.add.at(expect, rows, values)
    add_rows(target, rows, values)
    assert same_bits(target, expect)


# ---------------------------------------------------------------- adam


def test_adam_empty_bundle_is_noop():
    state = EmbeddingState(np.ones((2, 3)), np.ones((2, 3)))
    before_u = state.user.copy()
    moments = AdamMoments()
    adam_step(state, GradientBundle(), moments, HyperParams())
    assert np.array_equal(state.user, before_u)
    assert moments.t_user == 0 and moments.t_item == 0
    assert not moments.user and not moments.item


def test_adam_first_step_is_signed_learning_rate():
    hyper = HyperParams(learning_rate=0.01, adam_eps=1e-12)
    state = EmbeddingState(np.zeros((2, 3)), np.zeros((1, 3)))
    grads = bundle_of(user={1: np.array([4.0, -0.5, 0.25])})
    adam_step(state, grads, AdamMoments(), hyper)
    # bias-corrected m_hat/sqrt(v_hat) = g/|g| on step one
    assert np.allclose(state.user[1], [-0.01, 0.01, -0.01], atol=1e-9)
    assert np.array_equal(state.user[0], np.zeros(3))


def test_adam_touches_only_given_rows_and_counts_per_table():
    hyper = HyperParams()
    state = EmbeddingState(np.zeros((3, 2)), np.zeros((3, 2)))
    moments = AdamMoments()
    adam_step(state, bundle_of(user={0: np.ones(2)}), moments, hyper)
    assert moments.t_user == 1 and moments.t_item == 0
    adam_step(state, bundle_of(item={2: np.ones(2)}), moments, hyper)
    assert moments.t_user == 1 and moments.t_item == 1
    assert set(as_dict(moments.user)) == {0} and set(as_dict(moments.item)) == {2}
    assert np.array_equal(state.user[1], np.zeros(2))


def test_adam_descends_a_quadratic():
    # minimize sum(x^2) on a single row; Adam should shrink the norm
    hyper = HyperParams(learning_rate=0.05)
    state = EmbeddingState(np.array([[3.0, -2.0]]), np.zeros((1, 2)))
    moments = AdamMoments()
    start = float(np.sum(state.user[0] ** 2))
    for _ in range(200):
        grads = bundle_of(user={0: 2.0 * state.user[0]})
        adam_step(state, grads, moments, hyper)
    assert float(np.sum(state.user[0] ** 2)) < 0.01 * start


def test_adam_deterministic():
    def run():
        hyper = HyperParams(learning_rate=0.01)
        state = EmbeddingState(np.full((2, 2), 0.5), np.full((2, 2), -0.5))
        moments = AdamMoments()
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = bundle_of(
                user={0: rng.normal(size=2)}, item={1: rng.normal(size=2)}
            )
            adam_step(state, g, moments, hyper)
        return state

    a, b = run(), run()
    assert np.array_equal(a.user, b.user) and np.array_equal(a.item, b.item)


# ---------------------------------------------------------------- hyper


def test_hyperparams_defaults_valid():
    assert HyperParams().validate() == []


def test_hyperparams_alpha_vectors():
    h = HyperParams()
    assert np.allclose(default_alpha(1), [0.5, 0.5])
    assert np.allclose(default_alpha(h.layers_server), [0.25, 0.25, 0.25, 0.25])
    with pytest.raises(ValueError):
        default_alpha(-1)


def test_hyperparams_validate_collects_all_problems():
    h = HyperParams(dim=0, learning_rate=-1.0, temperature=0.0, layers_server=0)
    problems = h.validate()
    assert len(problems) >= 4
    joined = "\n".join(problems)
    for word in ("dim", "learning_rate", "temperature", "layers_server"):
        assert word in joined


def test_cl_term_validation():
    with pytest.raises(ValueError):
        CLTerm("other", "query", np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        CLTerm("user", "both", np.zeros(1), np.zeros(1), np.zeros(1), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        CLTerm("user", "query", np.zeros(2), np.zeros(1), np.zeros(1), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        CLTerm("user", "query", np.zeros(1), np.zeros(1), np.zeros(2), np.zeros((1, 2)))
    views = np.ones((3, 2))
    for bad_keys in (np.array([5, 2, 7]), np.array([2, 2, 7])):
        with pytest.raises(ValueError, match="sorted and unique"):
            CLTerm("user", "query", np.arange(1), np.array([2]), bad_keys, views)
    with pytest.raises(ValueError, match=r"\[3, 9\]"):
        CLTerm("user", "query", np.arange(3), np.array([9, 3, 9]), np.array([2, 5, 7]), views)


def test_cl_term_positive_indices():
    views = np.ones((3, 2))
    query = CLTerm("user", "query", np.arange(2), np.array([7, 2]), np.array([2, 5, 7]), views)
    assert query.pos_idx.tolist() == [2, 0]
    key = CLTerm("item", "key", np.arange(3), np.array([2, 5, 7]), np.array([5, 5]), np.ones((2, 2)))
    assert key.pos_idx.tolist() == [1, 1]
