import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgcf.data import (
    InteractionDataset,
    _edges,
    SharePolicy,
    ShareTier,
    assign_share_policy,
    attach_contributions,
    filter_k_core,
    load_dataset,
    load_interactions,
    save_dataset,
    split_dataset,
    synth_dataset,
)
from fedgcf.errors import ConfigError, DataFormatError, EmptyDatasetError

from oracles import attach_sets, kcore_fixpoint, pair_set, share_policy_loop, split_sets


def test_load_interactions_densifies_first_appearance(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("7\t42\n7\t42\n3\t42 extra tokens\n7\t9\n")
    ds = load_interactions(str(path))
    # raw user 7 appears first -> dense 0; raw item 42 -> dense 0
    assert ds.n_users == 2 and ds.n_items == 2
    assert ds.user_raw_ids == (7, 3)
    assert ds.item_raw_ids == (42, 9)
    assert ds.train.tolist() == [[0, 0], [0, 1], [1, 0]]


def test_load_interactions_rejects_bad_rows(tmp_path):
    short = tmp_path / "short.tsv"
    short.write_text("1\t2\n5\n")
    with pytest.raises(DataFormatError, match="short.tsv:2"):
        load_interactions(str(short))
    alpha = tmp_path / "alpha.tsv"
    alpha.write_text("1\tx\n")
    with pytest.raises(DataFormatError, match="alpha.tsv:1"):
        load_interactions(str(alpha))
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n\n")
    with pytest.raises(EmptyDatasetError):
        load_interactions(str(empty))


def test_kcore_star_example():
    # star: one user connected to 5 items, thresholds (2,2) empty the graph
    pairs = {(0, i) for i in range(5)}
    ds = InteractionDataset(1, 5, set(pairs))
    with pytest.raises(EmptyDatasetError):
        filter_k_core(ds, 2, 2)


def test_kcore_zero_thresholds_identity():
    pairs = {(0, 0), (1, 1), (2, 0)}
    ds = InteractionDataset(3, 2, set(pairs))
    out = filter_k_core(ds, 0, 0)
    assert pair_set(out.train) == pairs


def test_kcore_matches_bruteforce_exhaustively():
    # every bipartite graph on 3 users x 3 items, a grid of thresholds
    cells = [(u, i) for u in range(3) for i in range(3)]
    for mask in range(1, 2**9):
        pairs = {cells[b] for b in range(9) if mask >> b & 1}
        for mu, mi in ((1, 1), (2, 1), (2, 2), (3, 2)):
            expected = kcore_fixpoint(pairs, mu, mi)
            ds = InteractionDataset(3, 3, set(pairs))
            if not expected:
                with pytest.raises(EmptyDatasetError):
                    filter_k_core(ds, mu, mi)
                continue
            out = filter_k_core(ds, mu, mi)
            # map survivors back to original ids through the raw-id maps
            back = {(out.user_raw_ids[u], out.item_raw_ids[i]) for u, i in out.train.tolist()}
            assert back == expected, (pairs, mu, mi)


def test_kcore_random_larger_instances():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_u, n_i = rng.integers(2, 7), rng.integers(2, 7)
        pairs = {
            (int(u), int(i))
            for u in range(n_u)
            for i in range(n_i)
            if rng.random() < 0.4
        }
        if not pairs:
            continue
        mu, mi = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        expected = kcore_fixpoint(pairs, mu, mi)
        ds = InteractionDataset(n_u, n_i, set(pairs))
        if not expected:
            with pytest.raises(EmptyDatasetError):
                filter_k_core(ds, mu, mi)
            continue
        out = filter_k_core(ds, mu, mi)
        back = {(out.user_raw_ids[u], out.item_raw_ids[i]) for u, i in out.train.tolist()}
        assert back == expected


def test_split_10_interactions_gives_8_1_1():
    pairs = {(0, i) for i in range(10)}
    ds = InteractionDataset(1, 10, set(pairs))
    out = split_dataset(ds, (8, 1, 1), seed=0)
    assert len(out.train) == 8 and len(out.val) == 1 and len(out.test) == 1
    assert pair_set(out.train) | pair_set(out.val) | pair_set(out.test) == pairs


def test_split_single_interaction_all_train():
    ds = InteractionDataset(1, 1, {(0, 0)})
    out = split_dataset(ds, (8, 1, 1), seed=3)
    assert pair_set(out.train) == {(0, 0)} and not len(out.val) and not len(out.test)


def test_split_partition_and_determinism():
    rng = np.random.default_rng(1)
    pairs = {(int(u), int(i)) for u in range(20) for i in range(30) if rng.random() < 0.3}
    ds = InteractionDataset(20, 30, set(pairs))
    a = split_dataset(ds, (8, 1, 1), seed=5)
    b = split_dataset(ds, (8, 1, 1), seed=5)
    assert all(np.array_equal(x, y) for x, y in zip((a.train, a.val, a.test), (b.train, b.val, b.test)))
    train, val, test = pair_set(a.train), pair_set(a.val), pair_set(a.test)
    assert train | val | test == pairs
    assert not (train & val) and not (train & test) and not (val & test)
    for u in range(20):
        mine = [p for p in pairs if p[0] == u]
        if mine:
            assert any(p in train for p in mine), f"user {u} lost all train pairs"


def test_split_arrays_are_read_only():
    # evaluate keys its memo on a dataset's split arrays
    pairs = np.array([[0, 0], [0, 1], [0, 2]])
    ds = split_dataset(InteractionDataset(1, 3, pairs), (1, 1, 1), seed=0)
    for split in (ds.train, ds.val, ds.test):
        assert split.shape == (1, 2)
        with pytest.raises(ValueError, match="read-only"):
            split[:1] = 0
    assert pairs.flags.writeable  # the constructor's input stays the caller's


def test_split_rejects_bad_ratios():
    ds = InteractionDataset(1, 1, {(0, 0)})
    with pytest.raises(ConfigError):
        split_dataset(ds, (0, 1, 1), seed=0)


def test_synth_two_clusters_mostly_within():
    within = cross = 0
    for seed in range(5):
        ds = synth_dataset(20, 20, 2, 1.0, seed=seed)
        for u, i in ds.train.tolist():
            if u % 2 == i % 2:
                within += 1
            else:
                cross += 1
    assert within / (within + cross) >= 0.9


def test_synth_determinism_and_validation():
    a = synth_dataset(15, 25, 3, 0.4, seed=9)
    b = synth_dataset(15, 25, 3, 0.4, seed=9)
    assert np.array_equal(a.train, b.train)
    with pytest.raises(ConfigError):
        synth_dataset(10, 10, 2, 0.0, seed=0)
    with pytest.raises(ConfigError):
        synth_dataset(10, 10, 2, 1.5, seed=0)
    with pytest.raises(ConfigError):
        synth_dataset(10, 10, 11, 0.5, seed=0)


def test_share_policy_clamps():
    pol = assign_share_policy(3, "fixed", seed=0, ratio=0.03)
    assert all(c == ShareTier.NONE for c in pol.tier)
    assert np.all(pol.ratio == 0.0)
    pol = assign_share_policy(3, "fixed", seed=0, ratio=0.97)
    assert all(c == ShareTier.ALL for c in pol.tier)
    assert np.all(pol.ratio == 1.0)
    pol = assign_share_policy(3, "fixed", seed=0, ratio=0.5)
    assert all(c == ShareTier.PART for c in pol.tier)
    # inclusive boundaries
    assert assign_share_policy(1, "fixed", seed=0, ratio=0.05).tier[0] == ShareTier.NONE
    assert assign_share_policy(1, "fixed", seed=0, ratio=0.95).tier[0] == ShareTier.ALL


def test_share_policy_uniform_deterministic():
    a = assign_share_policy(50, "uniform", seed=4)
    b = assign_share_policy(50, "uniform", seed=4)
    assert np.array_equal(a.ratio, b.ratio)
    tiers = {c for c in a.tier}
    assert ShareTier.PART in tiers  # 50 uniform draws essentially always hit (0.05,0.95)


def test_shared_subset_sizes():
    # a PART user with n train pairs shares min(ceil(r*n), n-1): the ceiling
    # keeps partial contributors nonempty, the cap keeps the subset proper
    pairs = {(0, i) for i in range(7)}
    ds = InteractionDataset(1, 7, set(pairs))

    def shared(ratio):
        pol = SharePolicy(ratio=np.array([ratio]))
        return pair_set(attach_contributions(pol, ds, seed=1).contributed)

    assert len(shared(0.5)) == math.ceil(0.5 * 7)
    assert len(shared(0.01)) == 1
    assert len(shared(0.94)) == 7 - 1
    assert shared(0.5) < pairs
    assert shared(0.0) == set()
    assert shared(1.0) == pairs


def test_attach_contributions_invariants():
    rng = np.random.default_rng(2)
    pairs = {(int(u), int(i)) for u in range(30) for i in range(40) if rng.random() < 0.25}
    ds = InteractionDataset(30, 40, set(pairs))
    ds = split_dataset(ds, (8, 1, 1), seed=0)
    pol = assign_share_policy(30, "uniform", seed=3)
    pol = attach_contributions(pol, ds, seed=3)
    pol.validate(ds)  # raises on any tier/subset violation
    # contributed pairs never touch val/test
    shared = pair_set(pol.contributed)
    assert not (shared & pair_set(ds.val)) and not (shared & pair_set(ds.test))


def test_attach_contributions_part_user_singleton_degrades():
    ds = InteractionDataset(1, 1, {(0, 0)})
    pol = assign_share_policy(1, "fixed", seed=0, ratio=0.5)
    pol = attach_contributions(pol, ds, seed=0)
    assert pol.tier[0] == ShareTier.NONE
    assert pol.contributed.shape == (0, 2)


def test_dataset_roundtrip(tmp_path):
    ds = synth_dataset(8, 12, 2, 0.5, seed=1)
    ds = split_dataset(ds, (8, 1, 1), seed=1)
    save_dataset(ds, str(tmp_path / "snap"))
    back = load_dataset(str(tmp_path / "snap"))
    assert all(np.array_equal(getattr(back, s), getattr(ds, s)) for s in ("train", "val", "test"))
    assert back.user_raw_ids == ds.user_raw_ids and back.item_raw_ids == ds.item_raw_ids


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"train": {(0, 0), (2, 1)}}, IndexError, r"train pair \(2,1\) out of range"),
        ({"train": {(0, 0)}, "test": {(1, 2)}}, IndexError, r"test pair \(1,2\) out of range"),
        ({"train": {(0, 0), (1, 1)}, "val": {(1, 1)}}, ValueError, "splits are not disjoint"),
        ({"train": {(0, 0)}, "user_raw_ids": (7,)}, ValueError, "raw id maps do not match"),
    ],
    ids=["train-range", "test-range", "disjoint", "raw-id-map"],
)
def test_dataset_validate_rejects(kwargs, error, message):
    ds = InteractionDataset(n_users=2, n_items=2, **kwargs)
    with pytest.raises(error, match=message):
        ds.validate()


def _contributed(n_items, ratio):
    """Contributions of one user who holds items 0..n_items-1."""
    ds = InteractionDataset(1, n_items, {(0, i) for i in range(n_items)})
    pol = SharePolicy(ratio=np.array([ratio]))
    return attach_contributions(pol, ds, seed=0).contributed


@pytest.mark.parametrize(
    "ratio, shares, message",
    [
        ([1.5], None, r"user 0: ratio 1.5 outside \[0,1\]"),
        ([1.0], (4, 1.0), "user 0: contributed pairs outside own train set"),
        ([0.0], (3, 0.5), "user 0: NONE tier contributed data"),
        ([1.0], (3, 0.5), "user 0: ALL tier must contribute every train pair"),
        ([0.5], (3, 1.0), "user 0: PART tier must contribute a proper nonempty subset"),
    ],
    ids=["range", "outside", "none-shares", "all-partial", "part-whole"],
)
def test_share_policy_validate_rejects(ratio, shares, message):
    # contributions drawn for a user of 3 (or 4) items, checked against the
    # user's 3 train items under a tier (derived from the ratio) they do not fit
    ds = InteractionDataset(1, 3, {(0, 0), (0, 1), (0, 2)})
    contributed = None if shares is None else _contributed(*shares)
    pol = SharePolicy(ratio=np.array(ratio), contributed=contributed)
    with pytest.raises(ValueError, match=message):
        pol.validate(ds)


@pytest.mark.parametrize("contributed", [None, [(0, 0)]], ids=["unattached", "attached"])
def test_share_policy_validate_rejects_user_count_mismatch(contributed):
    ds = InteractionDataset(2, 2, {(0, 0), (1, 0)})
    pol = SharePolicy(np.array([1.0]), contributed=contributed)
    with pytest.raises(ValueError, match="policy has 1 users, dataset has 2"):
        pol.validate(ds)


@st.composite
def _datasets(draw):
    """Small datasets where users with 0 or 1 pairs are common."""
    n_users = draw(st.integers(1, 6))
    n_items = draw(st.integers(1, 7))
    cells = st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1))
    return InteractionDataset(n_users, n_items, draw(st.sets(cells, max_size=n_users * n_items)))


@settings(max_examples=200, deadline=None)
@given(_datasets(), st.sampled_from([(8, 1, 1), (1, 1, 1), (3, 0, 2), (0.5, 0.3, 0.2)]), st.integers(0, 2**31))
def test_split_matches_set_reference(ds, ratios, seed):
    out = split_dataset(ds, ratios, seed)
    expected = split_sets(pair_set(ds.train), ratios, seed)
    assert (pair_set(out.train), pair_set(out.val), pair_set(out.test)) == expected


@settings(max_examples=200, deadline=None)
@given(_datasets(), st.data(), st.integers(0, 2**31))
def test_attach_contributions_matches_set_reference(ds, data, seed):
    # PART users with a lone pair (or none) degrade to NONE
    ratio_of_user = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.06, 0.94))
    ratio = np.array(data.draw(st.lists(ratio_of_user, min_size=ds.n_users, max_size=ds.n_users)))
    given_policy = SharePolicy(ratio=ratio)
    tiers = [ShareTier(t) for t in given_policy.tier]
    pol = attach_contributions(given_policy, ds, seed)
    ratios, categories, contributed = attach_sets(ratio, tiers, pair_set(ds.train), ds.n_users, seed)
    assert np.array_equal(pol.ratio, ratios) and pol.tier.tolist() == categories
    assert pair_set(pol.contributed) == {p for pairs in contributed for p in pairs}
    pol.validate(ds)


@settings(max_examples=300, deadline=None)
@given(_datasets(), st.sampled_from([None, 0.05, 0.95, 0.0, 1.0, 0.04, 0.06, 0.5, 0.94, 0.96]), st.integers(0, 2**31))
def test_share_policy_matches_per_user_reference(ds, fixed, seed):
    # None draws uniform ratios; the fixed ones sit on and beside the clamp
    # boundaries. Users with 0 or 1 train pairs degrade to NONE.
    mode = "uniform" if fixed is None else "fixed"
    pol = attach_contributions(assign_share_policy(ds.n_users, mode, seed, fixed), ds, seed)
    ratios, tiers, contributed = share_policy_loop(ds.n_users, mode, fixed, ds.train, seed)
    assert np.array_equal(pol.ratio, ratios)
    assert pol.tier.dtype == np.int8 and pol.tier.tolist() == tiers
    assert np.array_equal(pol.contributed, contributed)


def test_tier_follows_ratio():
    pol = SharePolicy(ratio=np.array([0.0, 0.01, 0.5, 0.99, 1.0]))
    assert pol.tier.tolist() == [ShareTier.NONE, ShareTier.PART, ShareTier.PART, ShareTier.PART, ShareTier.ALL]
    assert (pol.tier == ShareTier.PART).sum() == 3


def test_dataset_and_policy_equality_is_identity():
    # ndarray fields cannot compare as one bool: == is identity and never raises
    a, b = InteractionDataset(2, 2, {(0, 0)}), InteractionDataset(2, 2, {(0, 0)})
    assert a == a and a != b
    p, q = SharePolicy(np.array([0.5, 1.0]), [(1, 0)]), SharePolicy(np.array([0.5, 1.0]), [(1, 0)])
    assert p == p and p != q


def test_edges_take_sorted_input_as_an_equal_fresh_array():
    pairs = np.array([[0, 1], [0, 3], [2, 0], [2, 2]], dtype=np.int64)
    for given_pairs in (pairs, pairs[1:], pairs.ravel(), pairs.astype(np.int32), pairs.tolist()):
        got = _edges(given_pairs)
        assert np.array_equal(got, np.asarray(given_pairs).reshape(-1, 2)) and got.dtype == np.int64
        if isinstance(given_pairs, np.ndarray):
            assert got is not given_pairs and not np.shares_memory(got, given_pairs)
    # a read-only split handed to a new dataset stays the first dataset's
    ds = InteractionDataset(3, 4, pairs)
    again = InteractionDataset(3, 4, ds.train)
    assert not np.shares_memory(ds.train, pairs) and not np.shares_memory(again.train, ds.train)
    assert again.train.flags.writeable is False and ds.train.flags.writeable is False


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 5), st.integers(-2, 5)), max_size=30), st.booleans())
def test_edges_sort_and_dedupe_any_input(pairs, as_array):
    # out-of-range ids stay as they are, for validate to report
    given_pairs = np.array(pairs, dtype=np.int64).reshape(-1, 2) if as_array else pairs
    assert _edges(given_pairs).tolist() == [list(p) for p in sorted(set(pairs))]


def test_share_policy_validate_counts_no_key_of_an_out_of_range_train_pair():
    # train pair (0, 3) is out of range at 3 items; its key 0 * 3 + 3 is
    # also the key of (1, 0), which user 1 does not hold
    ds = InteractionDataset(2, 3, {(0, 0), (0, 3), (1, 1), (1, 2)})
    pol = SharePolicy(ratio=np.array([0.0, 0.5]), contributed=[(1, 0)])
    with pytest.raises(ValueError, match="user 1: contributed pairs outside own train set"):
        pol.validate(ds)
