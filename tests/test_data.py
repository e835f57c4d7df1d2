import math

import numpy as np
import pytest

from fedgcf.data import (
    InteractionDataset,
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

from oracles import kcore_fixpoint


def test_load_interactions_densifies_first_appearance(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("7\t42\n7\t42\n3\t42 extra tokens\n7\t9\n")
    ds = load_interactions(str(path))
    # raw user 7 appears first -> dense 0; raw item 42 -> dense 0
    assert ds.n_users == 2 and ds.n_items == 2
    assert ds.user_raw_ids == (7, 3)
    assert ds.item_raw_ids == (42, 9)
    assert ds.train == {(0, 0), (1, 0), (0, 1)}


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
    assert out.train == pairs


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
            back = {(out.user_raw_ids[u], out.item_raw_ids[i]) for u, i in out.train}
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
        back = {(out.user_raw_ids[u], out.item_raw_ids[i]) for u, i in out.train}
        assert back == expected


def test_split_10_interactions_gives_8_1_1():
    pairs = {(0, i) for i in range(10)}
    ds = InteractionDataset(1, 10, set(pairs))
    out = split_dataset(ds, (8, 1, 1), seed=0)
    assert len(out.train) == 8 and len(out.val) == 1 and len(out.test) == 1
    assert out.train | out.val | out.test == pairs


def test_split_single_interaction_all_train():
    ds = InteractionDataset(1, 1, {(0, 0)})
    out = split_dataset(ds, (8, 1, 1), seed=3)
    assert out.train == {(0, 0)} and not out.val and not out.test


def test_split_partition_and_determinism():
    rng = np.random.default_rng(1)
    pairs = {(int(u), int(i)) for u in range(20) for i in range(30) if rng.random() < 0.3}
    ds = InteractionDataset(20, 30, set(pairs))
    a = split_dataset(ds, (8, 1, 1), seed=5)
    b = split_dataset(ds, (8, 1, 1), seed=5)
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
    assert a.train | a.val | a.test == pairs
    assert not (a.train & a.val) and not (a.train & a.test) and not (a.val & a.test)
    for u in range(20):
        mine = [p for p in pairs if p[0] == u]
        if mine:
            assert any(p in a.train for p in mine), f"user {u} lost all train pairs"


def test_split_rejects_bad_ratios():
    ds = InteractionDataset(1, 1, {(0, 0)})
    with pytest.raises(ConfigError):
        split_dataset(ds, (0, 1, 1), seed=0)


def test_synth_two_clusters_mostly_within():
    within = cross = 0
    for seed in range(5):
        ds = synth_dataset(20, 20, 2, 1.0, seed=seed)
        for u, i in ds.train:
            if u % 2 == i % 2:
                within += 1
            else:
                cross += 1
    assert within / (within + cross) >= 0.9


def test_synth_determinism_and_validation():
    a = synth_dataset(15, 25, 3, 0.4, seed=9)
    b = synth_dataset(15, 25, 3, 0.4, seed=9)
    assert a.train == b.train
    with pytest.raises(ConfigError):
        synth_dataset(10, 10, 2, 0.0, seed=0)
    with pytest.raises(ConfigError):
        synth_dataset(10, 10, 2, 1.5, seed=0)
    with pytest.raises(ConfigError):
        synth_dataset(10, 10, 11, 0.5, seed=0)


def test_share_policy_clamps():
    pol = assign_share_policy(3, "fixed", seed=0, ratio=0.03)
    assert all(c is ShareTier.NONE for c in pol.category)
    assert np.all(pol.ratio == 0.0)
    pol = assign_share_policy(3, "fixed", seed=0, ratio=0.97)
    assert all(c is ShareTier.ALL for c in pol.category)
    assert np.all(pol.ratio == 1.0)
    pol = assign_share_policy(3, "fixed", seed=0, ratio=0.5)
    assert all(c is ShareTier.PART for c in pol.category)
    # inclusive boundaries
    assert assign_share_policy(1, "fixed", seed=0, ratio=0.05).category[0] is ShareTier.NONE
    assert assign_share_policy(1, "fixed", seed=0, ratio=0.95).category[0] is ShareTier.ALL


def test_share_policy_uniform_deterministic():
    a = assign_share_policy(50, "uniform", seed=4)
    b = assign_share_policy(50, "uniform", seed=4)
    assert np.array_equal(a.ratio, b.ratio)
    tiers = {c for c in a.category}
    assert ShareTier.PART in tiers  # 50 uniform draws essentially always hit (0.05,0.95)


def test_shared_subset_sizes():
    # a PART user with n train pairs shares min(ceil(r*n), n-1): the ceiling
    # keeps partial contributors nonempty, the cap keeps the subset proper
    pairs = {(0, i) for i in range(7)}
    ds = InteractionDataset(1, 7, set(pairs))

    def shared(ratio, tier):
        pol = SharePolicy(ratio=np.array([ratio]), category=[tier])
        return attach_contributions(pol, ds, seed=1).contributed[0]

    assert len(shared(0.5, ShareTier.PART)) == math.ceil(0.5 * 7)
    assert len(shared(0.01, ShareTier.PART)) == 1
    assert len(shared(0.94, ShareTier.PART)) == 7 - 1
    assert set(shared(0.5, ShareTier.PART)) < pairs
    assert shared(0.0, ShareTier.NONE) == ()
    assert set(shared(1.0, ShareTier.ALL)) == pairs


def test_attach_contributions_invariants():
    rng = np.random.default_rng(2)
    pairs = {(int(u), int(i)) for u in range(30) for i in range(40) if rng.random() < 0.25}
    ds = InteractionDataset(30, 40, set(pairs))
    ds = split_dataset(ds, (8, 1, 1), seed=0)
    pol = assign_share_policy(30, "uniform", seed=3)
    pol = attach_contributions(pol, ds, seed=3)
    pol.validate(ds)  # raises on any tier/subset violation
    # contributed pairs never touch val/test
    shared = pol.shared_pairs()
    assert not (shared & ds.val) and not (shared & ds.test)


def test_attach_contributions_part_user_singleton_degrades():
    ds = InteractionDataset(1, 1, {(0, 0)})
    pol = assign_share_policy(1, "fixed", seed=0, ratio=0.5)
    pol = attach_contributions(pol, ds, seed=0)
    assert pol.category[0] is ShareTier.NONE
    assert pol.contributed[0] == ()


def test_dataset_roundtrip(tmp_path):
    ds = synth_dataset(8, 12, 2, 0.5, seed=1)
    ds = split_dataset(ds, (8, 1, 1), seed=1)
    save_dataset(ds, str(tmp_path / "snap"))
    back = load_dataset(str(tmp_path / "snap"))
    assert back.train == ds.train and back.val == ds.val and back.test == ds.test
    assert back.user_raw_ids == ds.user_raw_ids and back.item_raw_ids == ds.item_raw_ids
