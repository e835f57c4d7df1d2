"""Interaction data: loading, filtering, splitting, and contribution policies.

User and item ids are always dense (0..n-1). Raw ids from input files are
remembered in ``user_raw_ids`` / ``item_raw_ids`` so snapshots round-trip.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataFormatError, EmptyDatasetError
from .seeds import child_rng

Pair = tuple[int, int]


@dataclass
class InteractionDataset:
    """Implicit-feedback interactions split into train/val/test pair sets.

    An unsplit dataset keeps every pair in ``train`` and leaves ``val`` and
    ``test`` empty; ``split_dataset`` redistributes the union.
    """

    n_users: int
    n_items: int
    train: set[Pair]
    val: set[Pair] = field(default_factory=set)
    test: set[Pair] = field(default_factory=set)
    user_raw_ids: tuple[int, ...] = ()
    item_raw_ids: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.user_raw_ids:
            self.user_raw_ids = tuple(range(self.n_users))
        if not self.item_raw_ids:
            self.item_raw_ids = tuple(range(self.n_items))

    def all_pairs(self) -> set[Pair]:
        return self.train | self.val | self.test

    def pairs_by_user(self, split: set[Pair]) -> dict[int, tuple[int, ...]]:
        """Items of each user in ``split``, ascending, only users that occur."""
        out: dict[int, list[int]] = {}
        for u, i in split:
            out.setdefault(u, []).append(i)
        return {u: tuple(sorted(items)) for u, items in out.items()}

    def validate(self) -> None:
        pairs = [self.train, self.val, self.test]
        names = ["train", "val", "test"]
        for split, name in zip(pairs, names):
            for u, i in split:
                if not (0 <= u < self.n_users and 0 <= i < self.n_items):
                    raise IndexError(f"{name} pair ({u},{i}) out of range")
        if self.train & self.val or self.train & self.test or self.val & self.test:
            raise ValueError("splits are not disjoint")
        if len(self.user_raw_ids) != self.n_users or len(self.item_raw_ids) != self.n_items:
            raise ValueError("raw id maps do not match dataset dimensions")


def load_interactions(path: str) -> InteractionDataset:
    """Parse a whitespace-separated interaction file into an unsplit dataset.

    Each nonempty line must start with two integer tokens (raw user id, raw
    item id); extra tokens are ignored. Ids are densified in first-appearance
    order and duplicate pairs collapse to one.
    """
    user_map: dict[int, int] = {}
    item_map: dict[int, int] = {}
    pairs: set[Pair] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) < 2:
                raise DataFormatError(f"{path}:{lineno}: expected at least 2 tokens, got {len(tokens)}")
            try:
                raw_u, raw_i = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer id in {tokens[:2]!r}") from None
            if raw_u not in user_map:
                user_map[raw_u] = len(user_map)
            if raw_i not in item_map:
                item_map[raw_i] = len(item_map)
            pairs.add((user_map[raw_u], item_map[raw_i]))
    if not pairs:
        raise EmptyDatasetError(f"{path}: no interactions found")
    return InteractionDataset(
        n_users=len(user_map),
        n_items=len(item_map),
        train=pairs,
        user_raw_ids=tuple(user_map.keys()),
        item_raw_ids=tuple(item_map.keys()),
    )


def filter_k_core(ds: InteractionDataset, min_user: int, min_item: int) -> InteractionDataset:
    """Iteratively drop users/items below the degree thresholds until stable.

    Degrees are counted over the union of all splits; survivors keep their
    split membership and are re-densified in ascending old-id order.
    """
    if min_user < 0 or min_item < 0:
        raise ConfigError(f"k-core thresholds must be >= 0, got ({min_user},{min_item})")
    pairs = ds.all_pairs()
    keep_u = set(range(ds.n_users))
    keep_i = set(range(ds.n_items))
    while True:
        u_deg: dict[int, int] = {}
        i_deg: dict[int, int] = {}
        for u, i in pairs:
            if u in keep_u and i in keep_i:
                u_deg[u] = u_deg.get(u, 0) + 1
                i_deg[i] = i_deg.get(i, 0) + 1
        new_u = {u for u in keep_u if u_deg.get(u, 0) >= min_user}
        new_i = {i for i in keep_i if i_deg.get(i, 0) >= min_item}
        if new_u == keep_u and new_i == keep_i:
            break
        keep_u, keep_i = new_u, new_i
    survivors = {(u, i) for u, i in pairs if u in keep_u and i in keep_i}
    if not survivors:
        raise EmptyDatasetError(
            f"k-core filter ({min_user},{min_item}) removed every interaction"
        )
    u_order = sorted(keep_u)
    i_order = sorted(keep_i)
    u_remap = {old: new for new, old in enumerate(u_order)}
    i_remap = {old: new for new, old in enumerate(i_order)}

    def remap(split: set[Pair]) -> set[Pair]:
        return {(u_remap[u], i_remap[i]) for u, i in split if u in keep_u and i in keep_i}

    return InteractionDataset(
        n_users=len(u_order),
        n_items=len(i_order),
        train=remap(ds.train),
        val=remap(ds.val),
        test=remap(ds.test),
        user_raw_ids=tuple(ds.user_raw_ids[u] for u in u_order),
        item_raw_ids=tuple(ds.item_raw_ids[i] for i in i_order),
    )


def split_dataset(
    ds: InteractionDataset, ratios: tuple[float, float, float] = (8, 1, 1), seed: int = 0
) -> InteractionDataset:
    """Per-user random split of the pair union into train/val/test.

    Rounding favors train: val and test sizes are floored, so every user
    with at least one interaction keeps at least one train pair. Users are
    split independently under seed-derived child streams, so the result
    does not depend on iteration order.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios) or ratios[0] <= 0 or sum(ratios) <= 0:
        raise ConfigError(f"split ratios must be non-negative with positive train share, got {ratios}")
    total = float(sum(ratios))
    by_user = ds.pairs_by_user(ds.all_pairs())
    train: set[Pair] = set()
    val: set[Pair] = set()
    test: set[Pair] = set()
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
    return replace(ds, train=train, val=val, test=test)


def synth_dataset(
    n_users: int, n_items: int, n_clusters: int, density: float, seed: int = 0
) -> InteractionDataset:
    """Synthetic unsplit dataset with planted user/item clusters.

    User u and item i belong to cluster ``id % n_clusters`` (round-robin, so
    uneven counts are spread evenly). A within-cluster pair interacts with
    probability ``density``, a cross-cluster pair with ``density / 10``.
    """
    if n_users <= 0 or n_items <= 0:
        raise ConfigError(f"synth sizes must be positive, got ({n_users},{n_items})")
    if not (0.0 < density <= 1.0):
        raise ConfigError(f"synth density must be in (0,1], got {density}")
    if n_clusters < 1 or n_clusters > min(n_users, n_items):
        raise ConfigError(f"synth clusters must be in [1,min(users,items)], got {n_clusters}")
    u_cluster = np.arange(n_users) % n_clusters
    i_cluster = np.arange(n_items) % n_clusters
    same = u_cluster[:, None] == i_cluster[None, :]
    prob = np.where(same, density, density / 10.0)
    rng = child_rng(seed, "synth")
    hits = rng.random((n_users, n_items)) < prob
    us, its = np.nonzero(hits)
    pairs = {(int(u), int(i)) for u, i in zip(us, its)}
    if not pairs:
        raise EmptyDatasetError("synthetic draw produced no interactions; raise density")
    return InteractionDataset(n_users=n_users, n_items=n_items, train=pairs)


class ShareTier(enum.Enum):
    """How much of their train data a user contributes to the server."""

    NONE = "none"
    PART = "part"
    ALL = "all"


@dataclass
class SharePolicy:
    """Per-user contribution ratio, tier, and the contributed pair sets.

    ``contributed`` is None until ``attach_contributions`` samples the
    actual pair subsets from a dataset.
    """

    ratio: np.ndarray
    category: list[ShareTier]
    contributed: tuple[tuple[Pair, ...], ...] | None = None

    @property
    def n_users(self) -> int:
        return len(self.category)

    def shared_pairs(self) -> set[Pair]:
        if self.contributed is None:
            raise ValueError("contributions not attached yet")
        out: set[Pair] = set()
        for pairs in self.contributed:
            out.update(pairs)
        return out

    def validate(self, ds: InteractionDataset | None = None) -> None:
        if len(self.ratio) != len(self.category):
            raise ValueError("ratio/category length mismatch")
        for u, (r, c) in enumerate(zip(self.ratio, self.category)):
            if not (0.0 <= r <= 1.0):
                raise ValueError(f"user {u}: ratio {r} outside [0,1]")
            if c is ShareTier.NONE and r != 0.0:
                raise ValueError(f"user {u}: NONE tier requires ratio 0")
            if c is ShareTier.ALL and r != 1.0:
                raise ValueError(f"user {u}: ALL tier requires ratio 1")
        if self.contributed is not None and ds is not None:
            by_user = ds.pairs_by_user(ds.train)
            for u, pairs in enumerate(self.contributed):
                local = {(u, i) for i in by_user.get(u, ())}
                if not set(pairs) <= local:
                    raise ValueError(f"user {u}: contributed pairs outside own train set")
                c = self.category[u]
                if c is ShareTier.NONE and pairs:
                    raise ValueError(f"user {u}: NONE tier contributed data")
                if c is ShareTier.ALL and set(pairs) != local:
                    raise ValueError(f"user {u}: ALL tier must contribute every train pair")
                if c is ShareTier.PART and not (0 < len(pairs) < len(local)):
                    raise ValueError(f"user {u}: PART tier must contribute a proper nonempty subset")


def _clamp_ratio(r: float) -> tuple[float, ShareTier]:
    # Boundary rule: r <= 0.05 opts out entirely, r >= 0.95 contributes all.
    if r <= 0.05:
        return 0.0, ShareTier.NONE
    if r >= 0.95:
        return 1.0, ShareTier.ALL
    return float(r), ShareTier.PART


def assign_share_policy(
    n_users: int, mode: str = "uniform", seed: int = 0, ratio: float | None = None
) -> SharePolicy:
    """Draw or fix per-user contribution ratios and derive tiers.

    ``uniform`` draws each ratio from U[0,1]; ``fixed`` applies the given
    ratio to every user. Ratios at or below 0.05 clamp to 0 (tier NONE),
    at or above 0.95 clamp to 1 (tier ALL).
    """
    if mode == "uniform":
        raw = child_rng(seed, "ratio").random(n_users)
    elif mode == "fixed":
        if ratio is None or not (0.0 <= ratio <= 1.0):
            raise ConfigError(f"fixed share mode needs a ratio in [0,1], got {ratio}")
        raw = np.full(n_users, float(ratio))
    else:
        raise ConfigError(f"unknown share mode {mode!r}")
    ratios = np.zeros(n_users)
    tiers: list[ShareTier] = []
    for u in range(n_users):
        r, c = _clamp_ratio(float(raw[u]))
        ratios[u] = r
        tiers.append(c)
    return SharePolicy(ratio=ratios, category=tiers)


def _sample_pairs(pairs_sorted: list[Pair], take: int, rng: np.random.Generator) -> tuple[Pair, ...]:
    if take <= 0:
        return ()
    if take >= len(pairs_sorted):
        return tuple(pairs_sorted)
    idx = rng.choice(len(pairs_sorted), size=take, replace=False)
    return tuple(pairs_sorted[j] for j in sorted(idx.tolist()))


def attach_contributions(policy: SharePolicy, ds: InteractionDataset, seed: int = 0) -> SharePolicy:
    """Sample each user's contributed pair set from their train split.

    PART contributions are capped at n-1 pairs so they stay proper subsets;
    a PART user with a single train pair degrades to NONE (contributing
    that pair would reveal their whole history).
    """
    if policy.n_users != ds.n_users:
        raise ValueError("policy/dataset user count mismatch")
    by_user = ds.pairs_by_user(ds.train)
    ratios = policy.ratio.copy()
    tiers = list(policy.category)
    contributed: list[tuple[Pair, ...]] = []
    for u in range(ds.n_users):
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
    return SharePolicy(ratio=ratios, category=tiers, contributed=tuple(contributed))


def save_dataset(ds: InteractionDataset, out_dir: str) -> None:
    """Write train/val/test TSVs (dense ids) plus the raw-id map."""
    os.makedirs(out_dir, exist_ok=True)
    for name, split in (("train", ds.train), ("val", ds.val), ("test", ds.test)):
        with open(os.path.join(out_dir, f"{name}.tsv"), "w", encoding="utf-8") as fh:
            for u, i in sorted(split):
                fh.write(f"{u}\t{i}\n")
    with open(os.path.join(out_dir, "idmap.tsv"), "w", encoding="utf-8") as fh:
        for dense, raw in enumerate(ds.user_raw_ids):
            fh.write(f"u\t{dense}\t{raw}\n")
        for dense, raw in enumerate(ds.item_raw_ids):
            fh.write(f"i\t{dense}\t{raw}\n")


def load_dataset(in_dir: str) -> InteractionDataset:
    """Inverse of ``save_dataset``."""
    user_raw: dict[int, int] = {}
    item_raw: dict[int, int] = {}
    idmap_path = os.path.join(in_dir, "idmap.tsv")
    with open(idmap_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 3 or tokens[0] not in ("u", "i"):
                raise DataFormatError(f"{idmap_path}:{lineno}: bad id-map row {line!r}")
            kind, dense, raw = tokens[0], int(tokens[1]), int(tokens[2])
            (user_raw if kind == "u" else item_raw)[dense] = raw

    def read_split(name: str) -> set[Pair]:
        path = os.path.join(in_dir, f"{name}.tsv")
        out: set[Pair] = set()
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                if len(tokens) < 2:
                    raise DataFormatError(f"{path}:{lineno}: expected 2 tokens")
                try:
                    out.add((int(tokens[0]), int(tokens[1])))
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: non-integer id") from None
        return out

    ds = InteractionDataset(
        n_users=len(user_raw),
        n_items=len(item_raw),
        train=read_split("train"),
        val=read_split("val"),
        test=read_split("test"),
        user_raw_ids=tuple(user_raw[d] for d in sorted(user_raw)),
        item_raw_ids=tuple(item_raw[d] for d in sorted(item_raw)),
    )
    ds.validate()
    return ds
