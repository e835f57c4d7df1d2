import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedgcf
from fedgcf.seeds import child_rng, choice_runs


def draws(*keys, n=8):
    return child_rng(*keys).integers(0, 1 << 30, size=n).tolist()


def test_child_rng_deterministic():
    assert draws(1, "neg", 0, 3) == draws(1, "neg", 0, 3)


def test_child_rng_distinct_streams():
    seen = {
        tuple(draws(1, "neg", 0, 3)),
        tuple(draws(1, "neg", 0, 4)),
        tuple(draws(1, "neg", 1, 3)),
        tuple(draws(2, "neg", 0, 3)),
        tuple(draws(1, "select", 0, 3)),
    }
    assert len(seen) == 5


def test_child_rng_negative_ids_allowed():
    a = draws(7, "ldp", 0, -1)
    b = draws(7, "ldp", 0, -1)
    c = draws(7, "ldp", 0, 1)
    assert a == b and a != c


@pytest.mark.parametrize("keys", [(), (0,), (1, "neg", 0, 3), (7, "ldp", 0, -1), (2**32 + 5, "split", 2**31, 0)])
def test_child_rng_is_default_rng_of_its_words(keys):
    # the stream numpy derives from the key words as a list of ints
    words = [zlib.crc32(k.encode("utf-8")) if isinstance(k, str) else k & 0xFFFFFFFF for k in keys]
    assert child_rng(*keys).bit_generator.state == np.random.default_rng(words).bit_generator.state


def test_package_reexports_resolve():
    for name in (
        "HyperParams",
        "BipartiteGraph",
        "run_training",
        "evaluate",
        "mend_graph",
        "client_local_train",
        "fedavg_aggregate",
        "apply_ldp",
        "child_rng",
        "synth_dataset",
    ):
        assert getattr(fedgcf, name) is not None
    assert isinstance(fedgcf.__version__, str)


# ---------------------------------------------------------------- numpy's bounded draws
#
# The server's negatives come from choice_runs, which reproduces
# Generator.choice's branches and takes all their draws from one
# Generator.integers call over an array of bounds; the mender draws its
# rejection tries by such calls too. These tests pin both to numpy's own
# calls, so a numpy release that draws differently fails here first.


def numpy_changed(what: str) -> str:
    return (
        f"numpy {np.__version__} {what} no longer draws what fedgcf reproduces of it; "
        "the negatives of server_train and of the mender would no longer be numpy's"
    )


@pytest.mark.parametrize(
    "bounds",
    [
        [1, 1, 1],  # a bound of 1 reads no word
        [5, 1, 7, 1, 1, 2400, 1],
        [2**31 + 1] * 200,  # rejects about half of the words
        [3 * 2**30, 1, 2**31 + 1, 2, 2**32] * 40,
        [1600, 2400] * 300,
        # the mender's tries over heavy rejection, each bound beside the others
        [3 * 2**30, 2**31 + 1, 7, 5, 3 * 2**30] * 400,
        [],
    ],
    ids=["ones", "mixed-ones", "half-rejected", "wide", "mender-cycle", "rejected-pairs", "empty"],
)
def test_array_bound_integers_are_scalar_integers(bounds):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    want = [int(ref_rng.integers(n)) for n in bounds]
    got = rng.integers(0, np.array(bounds, dtype=np.int64))
    assert got.dtype == np.int64
    # each scalar call, in turn, against one call over the array of bounds
    assert got.tolist() == want, numpy_changed("Generator.integers")
    assert rng.bit_generator.state == ref_rng.bit_generator.state, numpy_changed("Generator.integers")


# each case: (complement size, draws) runs, in turn
CHOICE_CASES = {
    "replace": [(3, 10), (1, 4), (7, 8)],
    "floyd": [(2400, 19), (5, 5), (9, 3), (10_000, 300), (20_000, 400), (2, 1)],
    "tail": [(10_001, 201), (10_050, 300), (10_001, 10_001)],
    # runs past the stepped length, with Floyd collisions, beside short ones
    "long-floyd": [(500, 300), (65, 65), (64, 64), (70, 64), (1200, 1000), (2, 1), (90, 65)],
    "mixed": [(4, 2), (1, 1), (10_020, 250), (3, 9), (2400, 40), (1, 1)],
}


@pytest.mark.parametrize("case", CHOICE_CASES)
def test_choice_runs_are_numpy_choice(case):
    runs = CHOICE_CASES[case]
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.concatenate([ref_rng.choice(c, size=n, replace=n > c) for c, n in runs])
        got = choice_runs(rng, *zip(*runs))
        assert got.dtype == np.int64
        assert np.array_equal(got, want), numpy_changed(f"Generator.choice ({case})")
        assert rng.bit_generator.state == ref_rng.bit_generator.state, numpy_changed(f"Generator.choice ({case})")


@settings(max_examples=200, deadline=None)
@given(
    runs=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 16)), min_size=1, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_choice_runs_match_numpy_on_small_runs(runs, seed):
    # small complements: Floyd collisions, runs longer than the complement
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.concatenate([ref_rng.choice(c, size=n, replace=n > c) for c, n in runs])
    assert np.array_equal(choice_runs(rng, *zip(*runs)), want), numpy_changed("Generator.choice")
    assert rng.bit_generator.state == ref_rng.bit_generator.state, numpy_changed("Generator.choice")
