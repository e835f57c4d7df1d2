"""Benchmark workloads and their seeded input generator.

A workload is a fixed data shape plus the ``fedgcf`` config keys that
differ from the CLI defaults. The program receives only the pairs made by
``planted_pairs``; its data, policy and train seeds are derived from the
benchmark's workload seed, so one seed names one exact run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_users: int
    n_items: int
    n_clusters: int
    density: float
    config: dict
    artifact_repeats: int = 8  # times an untraced run writes its artifacts


# Shared choices. The small workloads evaluate after every round: one
# evaluation takes ~0.05 s, and more samples make ``eval_s`` steadier.
# ``learning_rate`` is raised from the 0.001 default so the
# few measured rounds learn the planted clusters and the recall check has a
# margin over random ranking; the step count and cost do not depend on it.
# ``ldp_clip`` of 1e6 never binds (delta rows are far shorter), so the model
# is bitwise the LDP-off model while ``apply_ldp`` still runs and is timed
# on every workload.
WORKLOADS = {
    w.name: w
    for w in (
        # Per-call overhead: ~200 device steps per round on 1-user ego graphs,
        # while the server graph has only ~2.6k edges.
        Workload(
            name="cross_device",
            why="CLI-default 200x300 shape, all 200 devices train every round: bound by per-call "
            "overhead of device steps on 1-user ego graphs; bypasses the full-graph kernel",
            n_users=200,
            n_items=300,
            n_clusters=4,
            density=0.3,
            config={
                "rounds": 5,
                "eval_every": 1,
                "clients_per_round": 256,
                "learning_rate": 0.01,
                "ldp_clip": 1e6,
            },
        ),
        # Data volume: ~51k train pairs, ~27k contributed edges; setup is mostly
        # mending and each round mostly server_train; devices are a few percent.
        # 1600x2400 rather than 2000x3000 so that two runs fit in one invocation.
        # A server batch of 8192 trains enough in 2 rounds to make test recall
        # steady from seed to seed (2048 left it within noise of its spread).
        Workload(
            name="server_graph",
            why="1600x2400 at density 0.05 (~51k train pairs), 16 devices a round: bound by "
            "propagation, mending, server_train and evaluate; barely touches the device path",
            n_users=1600,
            n_items=2400,
            n_clusters=4,
            density=0.05,
            config={
                "rounds": 2,
                "eval_every": 1,
                "clients_per_round": 16,
                "mend_epochs": 10,
                "learning_rate": 0.05,
                "server_batch": 8192,
                "ldp_clip": 1e6,
            },
        ),
        # Memory and writes: every user is ALL tier, so exchange and audit scale
        # with participants x sharers, and LDP clips and noises every upload.
        # Mending is cut to 30 epochs to keep set-up short; it is measured on
        # the other two workloads. It keeps each user's 10 best links: with the
        # default cosine threshold the mended graph varied by +-20% with the seed.
        Workload(
            name="full_share",
            why="cross_device data with every user sharing all and LDP on: exchange, audit, "
            "contrastive views and apply_ldp scale with participants x sharers",
            n_users=200,
            n_items=300,
            n_clusters=4,
            density=0.3,
            config={
                "rounds": 5,
                "eval_every": 1,
                "clients_per_round": 256,
                "learning_rate": 0.01,
                "mend_epochs": 30,
                "mend_threshold": -1.0,
                "mend_cap_per_user": 10,
                "share_mode": "fixed",
                "share_ratio": 1.0,
                "ldp_clip": 0.05,
                "ldp_noise": 1e-3,
            },
            artifact_repeats=2,
        ),
    )
}


POLICY_SEED = 1  # the CLI default


def derived_seeds(seed: int) -> dict:
    """The program's data and train seeds for one workload seed.

    The policy seed is the same for every workload seed: under the uniform
    share mode it decides how many users share everything, and exchange and
    audit volume grow with that count, so a seed-dependent policy would
    change the work a run does (about +-30% of the audit on
    ``cross_device``) instead of only the data it does it on.
    """
    data, train = np.random.default_rng([seed, 0x5EED]).integers(0, 2**31, size=2)
    return {"seed_data": int(data), "seed_policy": POLICY_SEED, "seed_train": int(train)}


def planted_pairs(w: Workload, seed: int) -> set[tuple[int, int]]:
    """Sparse draw of the planted-cluster interaction model.

    User u and item i belong to cluster ``id % n_clusters``. A user holds
    each item of its own cluster with probability ``density`` and each other
    item with ``density / 10``, as ``fedgcf.data.synth_dataset`` does, but
    the draw costs O(pairs) per user instead of a dense users x items matrix.
    """
    rng = np.random.default_rng([seed, 0xDA7A])
    cluster = np.arange(w.n_items) % w.n_clusters
    inside = [np.flatnonzero(cluster == c) for c in range(w.n_clusters)]
    outside = [np.flatnonzero(cluster != c) for c in range(w.n_clusters)]
    pairs: set[tuple[int, int]] = set()
    for u in range(w.n_users):
        c = u % w.n_clusters
        for pool, p in ((inside[c], w.density), (outside[c], w.density / 10.0)):
            k = rng.binomial(pool.size, p)
            pairs.update((u, int(i)) for i in rng.choice(pool, size=k, replace=False))
    return pairs
