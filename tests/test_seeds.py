import zlib

import numpy as np
import pytest

import fedgcf
from fedgcf.seeds import child_rng


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
