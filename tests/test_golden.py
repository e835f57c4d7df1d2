"""Golden bits: small training and mending runs against digests checked in
from an earlier build.

Every other test compares the tree with itself or with an oracle; this one
compares it with a build that came before it, so a change that moves the
trained bits fails here even when every run is still deterministic. The
bits depend on numpy, its OpenBLAS build and the CPU features both
dispatch on, so the table is keyed on those; in an environment it does not
hold the test skips and prints the digests to add. A change that moves the
bits on purpose updates the table and says why.
"""

import ctypes
import glob
import hashlib
import json
import os

import numpy as np
import pytest

from fedgcf.cli import main

# The first two runs: 40 synthetic users of 300 items at density 0.1 with
# a val share of 2, so each evaluation ranks users in both splits.
_DATA = [
    "--set", "synth_users=40",
    "--set", "synth_density=0.1",
    "--set", "split_val=2",
    "--set", "dim=16",
    "--set", "learning_rate=0.01",
    "--set", "eval_every=1",
    "--set", "rounds=3",
]
RUNS = {
    # every device trains each round, two local epochs
    "cross_device": [
        *_DATA,
        "--set", "clients_per_round=64",
        "--set", "local_epochs=2",
        "--set", "mend_epochs=3",
        "--set", "ldp_clip=1e6",
    ],
    # every user shares all, LDP clips and noises every upload; 24 of the
    # 40 devices train a round, and the device rows are what is evaluated
    "full_share": [
        *_DATA,
        "--set", "clients_per_round=24",
        "--set", "mend_epochs=3",
        "--set", "mend_threshold=-1",
        "--set", "mend_cap_per_user=10",
        "--set", "share_mode=fixed",
        "--set", "share_ratio=1.0",
        "--set", "ldp_clip=0.05",
        "--set", "ldp_noise=1e-3",
        "--set", "eval_view=device",
    ],
    # 300 users of 450 items with 3,521 contributed edges: each server batch
    # of 2,500 triplets spans three ranking blocks of learn._PAIR_BLOCK;
    # 8 devices a round and 5 mender epochs
    "server_graph": [
        "--set", "synth_users=300",
        "--set", "synth_items=450",
        "--set", "synth_density=0.2",
        "--set", "split_val=2",
        "--set", "dim=16",
        "--set", "learning_rate=0.05",
        "--set", "eval_every=1",
        "--set", "rounds=3",
        "--set", "clients_per_round=8",
        "--set", "mend_epochs=5",
        "--set", "server_batch=2500",
        "--set", "ldp_clip=1e6",
    ],
    # 10 items, one cluster and everyone sharing all: most users' server
    # negative runs are longer than the items outside their mended row, so
    # they are drawn with replacement
    "server_negatives_replaced": [
        "--set", "synth_users=40",
        "--set", "synth_items=10",
        "--set", "synth_clusters=1",
        "--set", "synth_density=0.6",
        "--set", "split_train=6",
        "--set", "split_val=2",
        "--set", "split_test=2",
        "--set", "share_mode=fixed",
        "--set", "share_ratio=1.0",
        "--set", "eval_k=3",
        "--set", "rounds=2",
        "--set", "mend_epochs=2",
    ],
    # the remaining runs are CI smoke configs. At d = 1 a node alone in its
    # degree bucket sums one number per row, through the accumulate branch
    # of the propagation kernel
    "dim_one": [
        "--set", "synth_users=40",
        "--set", "dim=1",
        "--set", "rounds=2",
        "--set", "mend_epochs=2",
    ],
    # a clip without noise builds no LDP generator and draws nothing; no
    # delta row of this run is longer than 0.05, so its bits are those of
    # the same run without a clip
    "clip_without_noise": [
        "--set", "synth_users=40",
        "--set", "rounds=2",
        "--set", "mend_epochs=2",
        "--set", "ldp_clip=0.05",
    ],
    # one cluster at density 0.7 over 30 items: most devices hold more
    # train items than they lack, so their negatives are drawn with
    # replacement
    "device_negatives_replaced": [
        "--set", "synth_users=40",
        "--set", "synth_items=30",
        "--set", "synth_clusters=1",
        "--set", "synth_density=0.7",
        "--set", "rounds=2",
        "--set", "mend_epochs=2",
        "--set", "local_epochs=2",
    ],
    # no val pairs: every evaluation reads val recall 0.0, which is no
    # plateau, so patience 1 does not stop the run
    "no_val_patience_one": [
        "--set", "synth_users=60",
        "--set", "synth_items=40",
        "--set", "synth_density=0.6",
        "--set", "split_val=0",
        "--set", "rounds=4",
        "--set", "eval_every=1",
        "--set", "patience=1",
        "--set", "mend_epochs=2",
    ],
}

# fedgcf eval runs: (train args, eval args), whose digest is the sha256 of
# the per-user file eval writes for the trained snapshot
EVALS = {
    # a cutoff past the 300 synthetic items ranks every non-train item, so
    # each row's ranking is a stable sort of all of its kept entries
    "eval_past_the_items": (
        [
            "--set", "synth_users=40",
            "--set", "rounds=2",
            "--set", "mend_epochs=2",
            "--set", "local_epochs=2",
        ],
        [
            "--set", "synth_users=40",
            "--set", "eval_k=400",
        ],
    ),
}

# fedgcf mend runs, whose digest is the sha256 of the predicted-links file
MENDS = {
    # 3 non-edges among the 400 cells of 40 x 10: 50 rejection tries per
    # link find 17 and 10 of the 39 negatives in the two mender epochs, and
    # the rest come from the non-edge list
    "mend_negatives_listed": [
        "--set", "synth_users=40",
        "--set", "synth_items=10",
        "--set", "synth_clusters=1",
        "--set", "synth_density=0.99",
        "--set", "split_val=0",
        "--set", "split_test=0",
        "--set", "share_mode=fixed",
        "--set", "share_ratio=1.0",
        "--set", "mend_threshold=-1",
        "--set", "mend_cap_per_user=10",
        "--set", "mend_epochs=2",
    ],
}

# (numpy version, OpenBLAS config string, numpy's SIMD "found" list) ->
# run -> digests: for a training run the server model (user then item
# table bytes), the snapshot's device_user table and metrics.jsonl; for an
# eval run its per-user file; for a mend run its links file
GOLDEN = {
    (
        "2.4.6",
        "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY SkylakeX MAX_THREADS=64",
        "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    ): {
        "cross_device": {
            "model": "ed850608632fdfd52819909d332f4670206765caaf4556296098d1242d045a39",
            "device_user": "ce74da8816426d05e99410886d84edff8d385e513060cd01e747f807a60bb97e",
            "metrics": "628b909b86d7c394184c6f553b0b7b8f54d8007c0ef3a7b34b45a804740e44fd",
        },
        "full_share": {
            "model": "b6c2b5bbd424532e207840bcb4488c5a3d772662653806f203b9a7a7cbb04c27",
            "device_user": "a4a6f73ea758d0507ea82eac89e58a0c3c18206d8630dac06a46b844b26cc330",
            "metrics": "e570507fc8ac5e393c7b421d3ee935a5c8d65ffb9a7d7b5b627211c12de0bcc1",
        },
        "server_graph": {
            "model": "2dd8ecf1294c8e545e06abaf01ef2bdffdc76e76a4715d8fa5f3c7a94861da04",
            "device_user": "8029264ec5ee30ee4c7478a09cd2373776ea60b0676a5ebbff56960896a9b50b",
            "metrics": "610d6586bee87eef546ad2b50821ef89e6db94eccf7b8dbb0ce540815f9a05dc",
        },
        "server_negatives_replaced": {
            "model": "bcc7b9ad088389def2df08ba0a05ecdf0701e0102d9380e8bcd52664f2e04f2e",
            "device_user": "362b4fcae663133beb97be04c7875695a801297c94310973beadae47891082f2",
            "metrics": "7788e757cbe132940dc3039a8a03fca0155d61669e8fd299c6a0912a767ca3a4",
        },
        "mend_negatives_listed": {
            "links": "a1a6f4e4de6b4133364443e26bb11b77a174a57c48bb95227aa1c7e04a19de1c",
        },
        "dim_one": {
            "model": "938358369d380861188da37ab112901dc63a309a5915ba163ac4fe5ed6b68c23",
            "device_user": "8e18a0e4e03de9490d91b33f2a5944dfb220c97f0574770442eb67773e8ddc03",
            "metrics": "a18176cde75ca0de3a675b62ab34c6d62a79528c94587c7622db23d5c119aa13",
        },
        "clip_without_noise": {
            "model": "ad4a33be60308f7aec6cdf49e4ba7c0f51c3c81b3498042b4f524b3caaa9123c",
            "device_user": "92adfa322d8207c2a021fc20a6ad6686a19cbae42884bfb38376acdfcc57e026",
            "metrics": "c4da72b048f9ec8c3913953807b5a7daf028c45717da8a822a28b025611dafb0",
        },
        "device_negatives_replaced": {
            "model": "d3226981f5fdda09a3f642cc6804357f9d18c9385c2d7e83cad77a351225bfbd",
            "device_user": "8b5a3bff5f474a10164d32405fe553a0eacf60ec905c1e3a5a8a25901734000b",
            "metrics": "95badb33e1d58d0d18ace4cca4d99c5e8101d73217f795279ed555bec49365be",
        },
        "no_val_patience_one": {
            "model": "a3cfcb483b9b13ef38be21106aaa44a5718faa05bef597e69f3a15bfcb0fa606",
            "device_user": "9206b96ce75a53deb336ab76be638820cdfef9546993373cab80d043a47627c9",
            "metrics": "e85c9d7ed69b7d2e5fc9e173e56cfcaccd6a9f4dee6c8e68b04aca2ba0d03455",
        },
        "eval_past_the_items": {
            "per_user": "cc858d4aab6c1798ad6662ada1c46cd6c942b8f234a34c493121a640c13ca26d",
        },
    },
}


def environment() -> tuple[str, str, str]:
    """What the trained bits depend on beyond the source."""
    config = ""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_char_p
                config = getter().decode()
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    return np.__version__, config, " ".join(simd)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(out_dir) -> dict:
    snapshot = np.load(out_dir / "snapshot.npz")
    model = np.ascontiguousarray(snapshot["user"]).tobytes() + np.ascontiguousarray(snapshot["item"]).tobytes()
    return {
        "model": sha256(model),
        "device_user": sha256(np.ascontiguousarray(snapshot["device_user"]).tobytes()),
        "metrics": sha256((out_dir / "metrics.jsonl").read_bytes()),
    }


def check(run: str, got: dict, capsys) -> None:
    key = environment()
    if key not in GOLDEN:
        with capsys.disabled():
            print(f"\nno golden bits for {key!r}; {run}: {json.dumps(got)}")
        pytest.skip(f"no golden bits for {key!r}")
    assert got == GOLDEN[key][run]


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("run", sorted(RUNS))
def test_runs_have_the_golden_bits(tmp_path, capsys, run):
    out = tmp_path / run
    assert main(["train", *RUNS[run], "--out-dir", str(out)]) == 0
    check(run, digests(out), capsys)


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("run", sorted(MENDS))
def test_mends_have_the_golden_links(tmp_path, capsys, run):
    out = tmp_path / "links.tsv"
    assert main(["mend", *MENDS[run], "--out", str(out)]) == 0
    check(run, {"links": sha256(out.read_bytes())}, capsys)


@pytest.mark.usefixtures("one_blas_thread")
@pytest.mark.parametrize("run", sorted(EVALS))
def test_evals_have_the_golden_per_user_file(tmp_path, capsys, run):
    train, evaluate = EVALS[run]
    assert main(["train", *train, "--out-dir", str(tmp_path / "run")]) == 0
    out = tmp_path / "per_user.tsv"
    snapshot = str(tmp_path / "run" / "snapshot.npz")
    assert main(["eval", *evaluate, "--snapshot", snapshot, "--per-user", str(out)]) == 0
    check(run, {"per_user": sha256(out.read_bytes())}, capsys)
