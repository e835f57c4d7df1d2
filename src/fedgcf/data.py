"""Interaction data: loading, filtering, splitting, and contribution policies.

User and item ids are always dense (0..n-1). Raw ids from input files are
remembered in ``user_raw_ids`` / ``item_raw_ids`` so snapshots round-trip.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DataFormatError, EmptyDatasetError
from .seeds import child_rng


def _edges(pairs) -> np.ndarray:
    """Any collection of (user, item) pairs as an (n, 2) int64 edge array
    sorted by (user, item), duplicates dropped. Rows are compared whole, so
    an out-of-range pair stays itself for ``validate`` to report.

    Input that is already sorted and unique skips the sort; it is copied
    when it shares memory with the caller's array, so the result is always
    the caller's to keep (the dataset makes its splits read-only)."""
    given = pairs
    if not isinstance(pairs, np.ndarray):
        pairs = np.fromiter(pairs, dtype=np.dtype((np.int64, 2)))
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    step_u, step_i = np.diff(arr[:, 0]), np.diff(arr[:, 1])
    if np.all((step_u > 0) | ((step_u == 0) & (step_i > 0))):
        return arr.copy() if isinstance(given, np.ndarray) and np.may_share_memory(arr, given) else arr
    arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    fresh = np.ones(arr.shape[0], dtype=bool)
    fresh[1:] = (arr[1:] != arr[:-1]).any(axis=1)
    return arr[fresh]


@dataclass(eq=False)
class InteractionDataset:
    """Implicit-feedback interactions split into train/val/test edge arrays.

    Each split is an (n, 2) int64 array of (user, item) rows sorted by
    (user, item) without duplicates; the constructor accepts any collection
    of pairs. An unsplit dataset keeps every pair in ``train`` and leaves
    ``val`` and ``test`` empty; ``split_dataset`` redistributes the union.
    The split arrays are read-only: ``evaluate`` keys its memo on them.
    """

    n_users: int
    n_items: int
    train: np.ndarray
    val: np.ndarray = ()
    test: np.ndarray = ()
    user_raw_ids: tuple[int, ...] = ()
    item_raw_ids: tuple[int, ...] = ()

    def __post_init__(self):
        self.train, self.val, self.test = _edges(self.train), _edges(self.val), _edges(self.test)
        for split in (self.train, self.val, self.test):
            split.flags.writeable = False
        if not self.user_raw_ids:
            self.user_raw_ids = tuple(range(self.n_users))
        if not self.item_raw_ids:
            self.item_raw_ids = tuple(range(self.n_items))

    def all_pairs(self) -> np.ndarray:
        return _edges(np.concatenate([self.train, self.val, self.test]))

    def pairs_by_user(self, split: np.ndarray) -> dict[int, np.ndarray]:
        """Items of each user in the edge array ``split``, ascending, only
        users that occur."""
        ptr = np.searchsorted(split[:, 0], np.arange(self.n_users + 1))
        return {u: split[ptr[u] : ptr[u + 1], 1] for u in np.flatnonzero(np.diff(ptr)).tolist()}

    def validate(self) -> None:
        for split, name in ((self.train, "train"), (self.val, "val"), (self.test, "test")):
            bad = (split < 0).any(axis=1) | (split[:, 0] >= self.n_users) | (split[:, 1] >= self.n_items)
            if bad.any():
                u, i = split[np.argmax(bad)].tolist()
                raise IndexError(f"{name} pair ({u},{i}) out of range")
        if len(self.all_pairs()) < len(self.train) + len(self.val) + len(self.test):
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
    pairs: list[tuple[int, int]] = []
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
            pairs.append((user_map.setdefault(raw_u, len(user_map)), item_map.setdefault(raw_i, len(item_map))))
    if not pairs:
        raise EmptyDatasetError(f"{path}: no interactions found")
    return InteractionDataset(
        n_users=len(user_map),
        n_items=len(item_map),
        train=pairs,
        user_raw_ids=tuple(user_map),
        item_raw_ids=tuple(item_map),
    )


def filter_k_core(ds: InteractionDataset, min_user: int, min_item: int) -> InteractionDataset:
    """Iteratively drop users/items below the degree thresholds until stable.

    Degrees are counted over the union of all splits; survivors keep their
    split membership and are re-densified in ascending old-id order.
    """
    if min_user < 0 or min_item < 0:
        raise ConfigError(f"k-core thresholds must be >= 0, got ({min_user},{min_item})")
    pairs = ds.all_pairs()
    keep_u = np.ones(ds.n_users, dtype=bool)
    keep_i = np.ones(ds.n_items, dtype=bool)
    while True:
        live = pairs[keep_u[pairs[:, 0]] & keep_i[pairs[:, 1]]]
        new_u = keep_u & (np.bincount(live[:, 0], minlength=ds.n_users) >= min_user)
        new_i = keep_i & (np.bincount(live[:, 1], minlength=ds.n_items) >= min_item)
        if np.array_equal(new_u, keep_u) and np.array_equal(new_i, keep_i):
            break
        keep_u, keep_i = new_u, new_i
    if not live.size:
        raise EmptyDatasetError(f"k-core filter ({min_user},{min_item}) removed every interaction")
    u_new = np.cumsum(keep_u) - 1
    i_new = np.cumsum(keep_i) - 1

    def remap(split: np.ndarray) -> np.ndarray:
        split = split[keep_u[split[:, 0]] & keep_i[split[:, 1]]]
        return np.stack([u_new[split[:, 0]], i_new[split[:, 1]]], axis=1)

    return InteractionDataset(
        n_users=int(keep_u.sum()),
        n_items=int(keep_i.sum()),
        train=remap(ds.train),
        val=remap(ds.val),
        test=remap(ds.test),
        user_raw_ids=tuple(ds.user_raw_ids[u] for u in np.flatnonzero(keep_u).tolist()),
        item_raw_ids=tuple(ds.item_raw_ids[i] for i in np.flatnonzero(keep_i).tolist()),
    )


def split_dataset(
    ds: InteractionDataset, ratios: tuple[float, float, float] = (8, 1, 1), seed: int = 0
) -> InteractionDataset:
    """Per-user random split of the pair union into train/val/test.

    Rounding favors train: val and test sizes are floored, so every user
    with at least one interaction keeps at least one train pair. Users are
    split independently under seed-derived child streams, each permuting
    its items in ascending order, so the result does not depend on
    iteration order.
    """
    if len(ratios) != 3 or any(r < 0 for r in ratios) or ratios[0] <= 0 or sum(ratios) <= 0:
        raise ConfigError(f"split ratios must be non-negative with positive train share, got {ratios}")
    total = float(sum(ratios))
    pairs = ds.all_pairs()
    ptr = np.searchsorted(pairs[:, 0], np.arange(ds.n_users + 1))
    counts = np.diff(ptr)
    bounds = ptr.tolist()
    # each user's permutation of their pairs, user after user, as positions
    # in ``pairs``
    perm = np.empty(pairs.shape[0], dtype=np.int64)
    for u in np.flatnonzero(counts).tolist():
        perm[bounds[u] : bounds[u + 1]] = child_rng(seed, "split", u).permutation(bounds[u + 1] - bounds[u])
    perm += np.repeat(ptr[:-1], counts)
    # a permutation's first n_val pairs go to val, the next n_test to test
    # and the rest to train: one run of each label per user, in that order
    n_val = np.floor(counts * ratios[1] / total).astype(np.int64)
    n_test = np.floor(counts * ratios[2] / total).astype(np.int64)
    runs = np.stack([n_val, n_test, counts - n_val - n_test], axis=1).ravel()
    target = np.empty(pairs.shape[0], dtype=np.int8)  # 0 train, 1 val, 2 test
    target[perm] = np.repeat(np.tile(np.array([1, 2, 0], dtype=np.int8), ds.n_users), runs)
    return replace(ds, train=pairs[target == 0], val=pairs[target == 1], test=pairs[target == 2])


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
    pairs = np.argwhere(rng.random((n_users, n_items)) < prob)
    if not pairs.size:
        raise EmptyDatasetError("synthetic draw produced no interactions; raise density")
    return InteractionDataset(n_users=n_users, n_items=n_items, train=pairs)


class ShareTier(enum.IntEnum):
    """How much of their train data a user contributes to the server; the
    values are those of ``SharePolicy.tier``."""

    NONE = 0
    PART = 1
    ALL = 2


def _reject(users: np.ndarray, message: str) -> None:
    """Raise ``ValueError`` naming the lowest of the flagged ``users``, if any."""
    if users.size:
        raise ValueError(f"user {int(users.min())}: {message}")


@dataclass(eq=False)
class SharePolicy:
    """Per-user contribution ratio and the contributed pairs.

    ``tier`` is derived from ``ratio`` once, as an int8 array of
    ``ShareTier`` values: ratio 0 is NONE, ratio 1 is ALL, any other ratio
    PART. ``contributed`` is one edge array of every user's contributed
    pairs (the constructor accepts any collection of pairs), or None until
    ``attach_contributions`` samples the actual subsets from a dataset.
    """

    ratio: np.ndarray
    contributed: np.ndarray | None = None
    tier: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.ratio = np.asarray(self.ratio, dtype=np.float64)
        self.tier = np.where(
            self.ratio == 0.0, ShareTier.NONE, np.where(self.ratio == 1.0, ShareTier.ALL, ShareTier.PART)
        ).astype(np.int8)
        if self.contributed is not None:
            self.contributed = _edges(self.contributed)

    @property
    def n_users(self) -> int:
        return len(self.ratio)

    def validate(self, ds: InteractionDataset) -> None:
        ratio = self.ratio
        out = np.flatnonzero(~((0.0 <= ratio) & (ratio <= 1.0)))
        if out.size:
            raise ValueError(f"user {out[0]}: ratio {ratio[out[0]]} outside [0,1]")
        if self.n_users != ds.n_users:
            raise ValueError(f"policy has {self.n_users} users, dataset has {ds.n_users}")
        if self.contributed is None:
            return
        c, n_items = self.contributed, ds.n_items

        def in_range(pairs):
            return (pairs >= 0).all(axis=1) & (pairs[:, 0] < ds.n_users) & (pairs[:, 1] < n_items)

        # (u, i) keys are unique, and ascend with the sorted rows, only for
        # in-range pairs; the rest are outside
        train = ds.train[in_range(ds.train)]
        keys = train[:, 0] * n_items + train[:, 1]
        c_keys = c[:, 0] * n_items + c[:, 1]
        # a key past the last one meets the -1 sentinel, which no key equals
        inside = in_range(c) & (np.append(keys, -1)[np.searchsorted(keys, c_keys)] == c_keys)
        shared = np.bincount(c[inside, 0], minlength=self.n_users)
        local = np.bincount(ds.train[:, 0], minlength=self.n_users)
        tier = self.tier
        _reject(c[~inside, 0], "contributed pairs outside own train set")
        _reject(np.flatnonzero((tier == ShareTier.NONE) & (shared > 0)), "NONE tier contributed data")
        _reject(np.flatnonzero((tier == ShareTier.ALL) & (shared != local)), "ALL tier must contribute every train pair")
        proper = (0 < shared) & (shared < local)
        _reject(np.flatnonzero((tier == ShareTier.PART) & ~proper), "PART tier must contribute a proper nonempty subset")


def assign_share_policy(
    n_users: int, mode: str = "uniform", seed: int = 0, ratio: float | None = None
) -> SharePolicy:
    """Draw or fix per-user contribution ratios.

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
    return SharePolicy(ratio=np.where(raw <= 0.05, 0.0, np.where(raw >= 0.95, 1.0, raw)))


def attach_contributions(policy: SharePolicy, ds: InteractionDataset, seed: int = 0) -> SharePolicy:
    """Sample each user's contributed pairs from their train split.

    PART contributions are capped at n-1 pairs so they stay proper subsets;
    a PART user with a single train pair degrades to NONE (contributing
    that pair would reveal their whole history), as does any sharer with no
    train pairs. A PART user's subset is drawn from their train items in
    ascending order under their own seed-derived child stream.
    """
    if policy.n_users != ds.n_users:
        raise ValueError("policy/dataset user count mismatch")
    counts = np.bincount(ds.train[:, 0], minlength=ds.n_users)
    ptr = np.concatenate(([0], np.cumsum(counts)))
    every = policy.tier == ShareTier.ALL
    part = policy.tier == ShareTier.PART
    take = np.minimum(np.ceil(policy.ratio * counts), counts - 1)
    degrade = (every & (counts == 0)) | (part & (take <= 0))
    keep = every[ds.train[:, 0]]
    users = np.flatnonzero(part & ~degrade)
    sizes = take[users].astype(np.int64)
    # each user's subset, user after user, as offsets into their train pairs
    picked = np.empty(int(sizes.sum()), dtype=np.int64)
    at = 0
    for u, n, k in zip(users.tolist(), counts[users].tolist(), sizes.tolist()):
        picked[at : at + k] = child_rng(seed, "subset", u).choice(n, size=k, replace=False)
        at += k
    keep[np.repeat(ptr[users], sizes) + picked] = True
    return SharePolicy(ratio=np.where(degrade, 0.0, policy.ratio), contributed=ds.train[keep])


def save_dataset(ds: InteractionDataset, out_dir: str) -> None:
    """Write train/val/test TSVs (dense ids) plus the raw-id map."""
    os.makedirs(out_dir, exist_ok=True)
    for name, split in (("train", ds.train), ("val", ds.val), ("test", ds.test)):
        np.savetxt(os.path.join(out_dir, f"{name}.tsv"), split, fmt="%d", delimiter="\t")
    with open(os.path.join(out_dir, "idmap.tsv"), "w", encoding="utf-8") as fh:
        for dense, raw in enumerate(ds.user_raw_ids):
            fh.write(f"u\t{dense}\t{raw}\n")
        for dense, raw in enumerate(ds.item_raw_ids):
            fh.write(f"i\t{dense}\t{raw}\n")


def load_dataset(in_dir: str) -> InteractionDataset:
    """Inverse of ``save_dataset``: the id map lists each kind's dense ids in
    order 0..n-1. Raises DataFormatError naming the file for a malformed
    row, an out-of-range pair, or overlapping splits."""
    raw_ids: dict[str, list[int]] = {"u": [], "i": []}
    idmap_path = os.path.join(in_dir, "idmap.tsv")
    with open(idmap_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            ids = raw_ids.get(tokens[0])
            try:
                if ids is None or len(tokens) != 3 or int(tokens[1]) != len(ids):
                    raise ValueError
                ids.append(int(tokens[2]))
            except ValueError:
                raise DataFormatError(f"{idmap_path}:{lineno}: bad id-map row {line!r}") from None
    n_users, n_items = len(raw_ids["u"]), len(raw_ids["i"])

    def read_split(name: str) -> list[tuple[int, int]]:
        path = os.path.join(in_dir, f"{name}.tsv")
        out: list[tuple[int, int]] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                tokens = line.split()
                if not tokens:
                    continue
                if len(tokens) < 2:
                    raise DataFormatError(f"{path}:{lineno}: expected 2 tokens")
                try:
                    u, i = int(tokens[0]), int(tokens[1])
                except ValueError:
                    raise DataFormatError(f"{path}:{lineno}: non-integer id") from None
                if not (0 <= u < n_users and 0 <= i < n_items):
                    raise DataFormatError(f"{path}:{lineno}: pair ({u},{i}) out of range of {idmap_path}")
                out.append((u, i))
        return out

    ds = InteractionDataset(
        n_users=n_users,
        n_items=n_items,
        train=read_split("train"),
        val=read_split("val"),
        test=read_split("test"),
        user_raw_ids=tuple(raw_ids["u"]),
        item_raw_ids=tuple(raw_ids["i"]),
    )
    try:
        ds.validate()
    except ValueError as exc:
        raise DataFormatError(f"{in_dir}: {exc}") from None
    return ds
