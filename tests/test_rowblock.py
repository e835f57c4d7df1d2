"""Row-block array code against the per-row loop references in oracles.

Every comparison is exact: the array versions must reproduce the loops'
summation order, draw order and rounding bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fedgcf.client import DeviceUpload
from fedgcf.errors import NumericError
from fedgcf.graph import EmbeddingState
from fedgcf.learn import AdamMoments, GradientBundle, HyperParams, RowBlock, adam_update_rows
from fedgcf.server import apply_ldp, fedavg_aggregate

from oracles import adam_loop, as_dict, block_of, bundle_of, fedavg_loop, ldp_loop, same_bits

D = 3
N_USERS = 4
N_ITEMS = 5
FLOATS = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def blocks(n_rows: int, min_size: int = 0):
    """Row blocks over a table of ``n_rows`` rows (the empty default too)."""
    sized = st.lists(st.integers(0, n_rows - 1), unique=True, min_size=min_size, max_size=n_rows).flatmap(
        lambda rows: arrays(np.float64, (len(rows), D), elements=FLOATS).map(
            lambda values: RowBlock(np.asarray(sorted(rows), dtype=np.int64), values)
        )
    )
    return sized if min_size else st.just(RowBlock()) | sized


bundles = st.builds(GradientBundle, blocks(N_USERS), blocks(N_ITEMS))
weights = st.just(0.0) | st.floats(0.01, 10.0)


def assert_same_rows(block: RowBlock, ref: dict) -> None:
    got = as_dict(block)
    assert sorted(got) == sorted(ref)
    for row, vec in ref.items():
        assert np.array_equal(got[row], vec)


def base_model() -> EmbeddingState:
    return EmbeddingState(
        np.linspace(-1.0, 1.0, N_USERS * D).reshape(N_USERS, D),
        np.linspace(2.0, -2.0, N_ITEMS * D).reshape(N_ITEMS, D),
    )


# ---------------------------------------------------------------- fedavg


@given(st.lists(st.tuples(bundles, weights), max_size=6))
@example(
    [
        # a row repeated across uploads, a zero-weight upload, an empty bundle
        (bundle_of(user={1: np.array([1.0, -2.0, 0.5])}), 2.0),
        (bundle_of(user={1: np.array([0.3, 0.1, -0.7])}, item={0: np.ones(D)}), 0.0),
        (bundle_of(), 1.0),
        (bundle_of(user={1: np.array([-4.0, 0.25, 3.0]), 2: np.ones(D)}), 0.7),
    ]
)
@settings(max_examples=300, deadline=None)
def test_fedavg_matches_loop(uploads):
    base = base_model()
    out = fedavg_aggregate(uploads, base)
    want_user, want_item = fedavg_loop(uploads, base.user, base.item)
    assert np.array_equal(out.user, want_user)
    assert np.array_equal(out.item, want_item)


# ---------------------------------------------------------------- ldp


@given(
    bundles,
    st.just(0.0) | st.floats(0.01, 50.0),
    st.just(0.0) | st.floats(1e-3, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(
    # the clip binds on the user row only; noise on both tables
    bundle_of(user={0: np.array([3.0, 4.0, 0.0])}, item={2: np.array([0.1, 0.0, 0.0])}),
    1.0,
    0.5,
    7,
)
@settings(max_examples=300, deadline=None)
def test_apply_ldp_matches_loop(bundle, clip, noise, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    out = apply_ldp(DeviceUpload(0, 1.0, bundle), clip, noise, rng)
    want_user, want_item = ldp_loop(bundle, clip, noise, ref_rng)
    assert_same_rows(out.delta.user, want_user)
    assert_same_rows(out.delta.item, want_item)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------- adam


@given(st.lists(blocks(N_ITEMS, min_size=1), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_adam_update_rows_matches_loop(steps):
    hyper = HyperParams(learning_rate=0.01)
    moments = AdamMoments().item
    ref_moments: dict = {}
    for t, grads in enumerate(steps, start=1):
        delta = adam_update_rows(grads, moments, t, hyper)
        want = adam_loop(
            as_dict(grads), ref_moments, t, hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2, hyper.adam_eps
        )
        assert_same_rows(delta, want)
        assert_same_rows(RowBlock(moments.rows, moments.values[:, 0]), {r: m for r, (m, _) in ref_moments.items()})
        assert_same_rows(RowBlock(moments.rows, moments.values[:, 1]), {r: v for r, (_, v) in ref_moments.items()})


def test_adam_update_rows_on_every_moment_row_matches_loop():
    # steps on all of the moments' rows update them in place; the others
    # grow the moments or take some of their rows. One step passes its
    # count once per row, as a block of several devices does.
    hyper = HyperParams(learning_rate=0.01)
    rng = np.random.default_rng(8)
    steps = [[0, 1, 2], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [1, 3], [0, 1, 2, 3, 4], [2], [0, 1, 2, 3, 4]]
    moments = AdamMoments().item
    ref_moments: dict = {}
    for t, rows in enumerate(steps, start=1):
        grads = RowBlock(np.array(rows), rng.normal(size=(len(rows), D)))
        before = moments.values
        count = np.full(len(rows), t) if t == 5 else t
        delta = adam_update_rows(grads, moments, count, hyper)
        want = adam_loop(
            as_dict(grads), ref_moments, t, hyper.learning_rate, hyper.adam_beta1, hyper.adam_beta2, hyper.adam_eps
        )
        assert_same_rows(delta, want)
        assert_same_rows(RowBlock(moments.rows, moments.values[:, 0]), {r: m for r, (m, _) in ref_moments.items()})
        assert_same_rows(RowBlock(moments.rows, moments.values[:, 1]), {r: v for r, (_, v) in ref_moments.items()})
        assert (moments.values is before) == (t > 2)  # grown at steps 1 and 2 only


@given(st.lists(blocks(N_ITEMS, min_size=1), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_adam_update_rows_has_the_bits_of_the_one_expression_step(steps):
    # the step through two temporaries against the formula written as one
    # expression per line, a fresh temporary for each operation; odd rows
    # count one step more, as rows of several devices do
    hyper = HyperParams(learning_rate=0.01)
    b1, b2, lr, eps = hyper.adam_beta1, hyper.adam_beta2, hyper.learning_rate, hyper.adam_eps
    moments = AdamMoments().item
    ref = np.zeros((N_ITEMS, 2, D))
    for t, grads in enumerate(steps, start=1):
        count = t + grads.rows % 2
        delta = adam_update_rows(grads, moments, count, hyper)
        bc1 = np.array([1.0 - b1**c for c in count.tolist()])[:, None]
        bc2 = np.array([1.0 - b2**c for c in count.tolist()])[:, None]
        m, v, g = ref[grads.rows, 0], ref[grads.rows, 1], grads.values
        m = m * b1
        m = m + (1.0 - b1) * g
        v = v * b2
        v = v + (1.0 - b2) * g * g
        ref[grads.rows, 0], ref[grads.rows, 1] = m, v
        assert same_bits(delta.rows, grads.rows)
        assert same_bits(delta.values, -lr * (m / bc1) / (np.sqrt(v / bc2) + eps))
        assert same_bits(moments.values, ref[moments.rows])


# ---------------------------------------------------------------- bundle


def test_check_finite_names_first_bad_row():
    bundle = bundle_of(item={2: np.ones(D), 5: np.array([0.0, np.inf, 0.0]), 7: np.full(D, np.nan)})
    with pytest.raises(NumericError, match="item row 5$"):
        bundle.check_finite()
    bundle_of(user={0: np.ones(D)}).check_finite()


def test_row_block_length_and_truth():
    assert len(RowBlock()) == 0 and not RowBlock()
    block = block_of({3: np.ones(D), 1: np.zeros(D)})
    assert len(block) == 2 and block
    assert block.rows.tolist() == [1, 3]
