import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgcf.cli import (
    CONFIG_KEYS,
    _share_bins,
    emit_metrics,
    load_run_dataset,
    main,
    parse_config,
    parse_overrides,
)
from fedgcf.data import SharePolicy
from fedgcf.errors import ConfigError

from oracles import share_bins_loop

FAST = [
    "--set", "synth_users=16",
    "--set", "synth_items=20",
    "--set", "synth_clusters=2",
    "--set", "synth_density=0.5",
    "--set", "dim=8",
    "--set", "clients_per_round=6",
    "--set", "rounds=2",
    "--set", "mend_epochs=5",
    "--set", "eval_k=5",
    "--set", "eval_every=1",
]


# ---------------------------------------------------------------- config


def test_defaults_without_config_file():
    config = parse_config(None)
    assert config.dim == 64
    assert config.share_mode == "uniform"
    assert config.rounds == 100
    assert config.hyper().validate() == []


def test_empty_config_file_uses_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert parse_config(str(path)).values == parse_config(None).values


def test_file_then_overrides_precedence(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dim": 16, "rounds": 7}))
    config = parse_config(str(path), {"rounds": "9"})
    assert config.dim == 16
    assert config.rounds == 9


def test_unknown_keys_all_reported(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"dimension": 16, "round_count": 7, "dim": 8}))
    with pytest.raises(ConfigError) as err:
        parse_config(str(path))
    assert "dimension" in str(err.value) and "round_count" in str(err.value)


def test_type_and_range_problems_collected():
    with pytest.raises(ConfigError) as err:
        parse_config(None, {"dim": "eight", "temperature": "-1", "share_mode": "all"})
    msg = str(err.value)
    assert "dim" in msg and "temperature" in msg and "share_mode" in msg


BAD_RANGE_CHECKED = ["share_ratio", "synth_users", "synth_density", "kcore_user", "split_val"]


def test_malformed_range_checked_keys_all_reported(capsys):
    # keys outside HyperParams are range-checked by parse_config itself;
    # a value that fails coercion must be reported, not crash the check
    overrides = {key: "abc" for key in BAD_RANGE_CHECKED}
    with pytest.raises(ConfigError) as err:
        parse_config(None, {**overrides, "dim": "eight", "synth_items": None, "rounds": None})
    msg = str(err.value)
    for key in BAD_RANGE_CHECKED + ["dim", "synth_items", "rounds"]:
        assert f"{key}: expected" in msg
    argv = ["synth"] + [arg for key in BAD_RANGE_CHECKED for arg in ("--set", f"{key}=abc")]
    assert main(argv) == 1
    err_text = capsys.readouterr().err
    assert err_text.startswith("error:")
    assert all(key in err_text for key in BAD_RANGE_CHECKED)


def test_mutually_exclusive_sources():
    with pytest.raises(ConfigError) as err:
        parse_config(None, {"data_path": "a.tsv", "dataset_dir": "d"})
    assert "mutually exclusive" in str(err.value)


def test_bool_coercion():
    assert parse_config(None, {"disable_gm": "true"}).disable_gm is True
    assert parse_config(None, {"disable_gm": "0"}).disable_gm is False
    with pytest.raises(ConfigError):
        parse_config(None, {"disable_gm": "maybe"})


def test_int_rejects_fractional():
    with pytest.raises(ConfigError):
        parse_config(None, {"rounds": "2.5"})
    assert parse_config(None, {"rounds": 2.0}).rounds == 2


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1,2]")
    with pytest.raises(ConfigError):
        parse_config(str(path2))


def test_parse_overrides():
    assert parse_overrides(["a=1", "b = x=y "]) == {"a": "1", "b": "x=y"}
    with pytest.raises(ConfigError):
        parse_overrides(["novalue"])


def test_config_json_roundtrip():
    config = parse_config(None, {"dim": "8"})
    values = json.loads(config.to_json())
    assert values["dim"] == 8
    assert set(values) == set(CONFIG_KEYS)


# ---------------------------------------------------------------- dataset


def test_load_run_dataset_synth_and_kcore():
    config = parse_config(
        None,
        {"synth_users": "30", "synth_items": "40", "kcore_user": "2", "kcore_item": "2"},
    )
    ds = load_run_dataset(config)
    assert ds.n_users <= 30 and ds.n_items <= 40
    assert len(ds.train)  # split happened
    counts_u: dict[int, int] = {}
    counts_i: dict[int, int] = {}
    for u, i in ds.all_pairs():
        counts_u[u] = counts_u.get(u, 0) + 1
        counts_i[i] = counts_i.get(i, 0) + 1
    assert min(counts_u.values()) >= 2 and min(counts_i.values()) >= 2


def test_load_run_dataset_roundtrip_dir(tmp_path, capsys):
    out = tmp_path / "ds"
    rc = main(["synth", "--set", "synth_users=12", "--set", "synth_items=15",
               "--set", "synth_density=0.5", "--out", str(out)])
    assert rc == 0
    config = parse_config(None, {"dataset_dir": str(out)})
    ds = load_run_dataset(config)
    assert ds.n_users == 12 and ds.n_items == 15


def test_synth_writes_the_dataset_train_uses(tmp_path, capsys):
    # the k-core filter drops users and items at this shape, so a synth
    # that skipped it would train on other data
    kcore = ["--set", "kcore_user=20", "--set", "kcore_item=10"]
    short = ["--set", "rounds=1", "--set", "mend_epochs=2", "--set", "dim=8"]
    data_dir = tmp_path / "ds"
    assert main(["synth", *kcore, "--out", str(data_dir)]) == 0
    assert main(["train", *kcore, *short, "--out-dir", str(tmp_path / "a")]) == 0
    argv = ["train", "--set", f"dataset_dir={data_dir}", *short, "--out-dir", str(tmp_path / "b")]
    assert main(argv) == 0
    metrics = [(tmp_path / run / "metrics.jsonl").read_bytes() for run in ("a", "b")]
    assert metrics[0] == metrics[1]


# ---------------------------------------------------------------- train


def test_train_emits_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", *FAST, "--out-dir", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "trained 2 rounds" in printed

    metrics_path = out / "metrics.jsonl"
    rows = [json.loads(l) for l in metrics_path.read_text().splitlines()]
    summary = rows[-1]
    assert summary["record"] == "summary"
    assert summary["rounds_run"] == 2
    bins = {b["bin"]: b["users"] for b in summary["share_bins"]}
    assert "0 (none)" in bins and "1 (all)" in bins
    assert sum(bins.values()) == 16
    evals = rows[:-1]
    assert [r["round"] for r in evals] == [0, 1, 2]
    for row in evals:
        assert "recall@5" in row and "ndcg@5" in row and "share_mode" in row
        assert "val_recall@5" in row and "bpr_loss" in row
    assert evals[0]["bpr_loss"] is None  # round 0 has no training report
    assert evals[1]["bpr_loss"] > 0.0

    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["dim"] == 8 and resolved["rounds"] == 2

    audit_lines = (out / "audit.jsonl").read_text().splitlines()
    assert audit_lines and all(json.loads(l)["event"] for l in audit_lines)

    snap = np.load(out / "snapshot.npz")
    assert snap["user"].shape == (16, 8)
    assert snap["item"].shape == (20, 8)
    assert snap["device_user"].shape == (16, 8)
    assert snap["rounds_run"][0] == 2

    # the README's artifact list names exactly the files train wrote
    readme_path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme_path, encoding="utf-8") as fh:
        paragraph = re.search(r"A `train` run writes.*?\n\n", fh.read(), re.S).group(0)
    assert sorted(re.findall(r"`(\w+\.\w+)`", paragraph)) == sorted(os.listdir(out))


def test_train_deterministic_metrics(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", *FAST, "--out-dir", str(out_a)]) == 0
    assert main(["train", *FAST, "--out-dir", str(out_b)]) == 0
    assert (out_a / "metrics.jsonl").read_text() == (out_b / "metrics.jsonl").read_text()


def test_train_seed_flag_changes_results(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["train", *FAST, "--out-dir", str(out_a), "--seed", "11"]) == 0
    assert main(["train", *FAST, "--out-dir", str(out_b), "--seed", "12"]) == 0
    snap_a = np.load(out_a / "snapshot.npz")
    snap_b = np.load(out_b / "snapshot.npz")
    assert not np.array_equal(snap_a["user"], snap_b["user"])


# ---------------------------------------------------------------- eval


def test_eval_subcommand_reads_snapshot(tmp_path, capsys):
    # FAST's data holds no held-out pair; 40 users over 300 items at
    # density 0.1 with a 8/2/1 split hold test pairs
    config = [
        *FAST,
        "--set", "synth_users=40", "--set", "synth_items=300",
        "--set", "synth_density=0.1", "--set", "split_val=2",
    ]
    out = tmp_path / "run"
    assert main(["train", *config, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    per_user = tmp_path / "per_user.tsv"
    rc = main([
        "eval", *config,
        "--snapshot", str(out / "snapshot.npz"),
        "--split", "test",
        "--per-user", str(per_user),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "test recall@5=" in printed
    header, *users = per_user.read_text().splitlines()
    assert header == "# k=5"
    assert users and all(len(line.split("\t")) == 3 for line in users)


@pytest.mark.parametrize("view", ["server", "device"])
def test_eval_prints_the_recall_train_reports(tmp_path, capsys, view):
    config = [
        "--set", "synth_users=40", "--set", "synth_items=100", "--set", "synth_clusters=2",
        "--set", "dim=8", "--set", "clients_per_round=40", "--set", "rounds=3",
        "--set", "mend_epochs=5", "--set", "eval_k=5", "--set", "eval_every=3",
        "--set", "learning_rate=0.05", "--set", f"eval_view={view}",
    ]
    out = tmp_path / "run"
    assert main(["train", *config, "--out-dir", str(out)]) == 0
    trained = re.search(r"recall@5=\S+ ndcg@5=\S+", capsys.readouterr().out).group()
    assert main(["eval", *config, "--snapshot", str(out / "snapshot.npz")]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"test {trained}"


def test_eval_missing_snapshot_is_config_error(tmp_path, capsys):
    rc = main(["eval", *FAST, "--snapshot", str(tmp_path / "nope.npz")])
    assert rc == 1


def test_eval_snapshot_of_other_shape_is_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", *FAST, "--out-dir", str(out)]) == 0
    capsys.readouterr()
    rc = main(["eval", *FAST, "--set", "synth_users=18", "--snapshot", str(out / "snapshot.npz")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "(16, 8)" in err and "(20, 8)" in err and "18 users" in err


def test_eval_non_snapshot_file_is_config_error(tmp_path, capsys):
    text = tmp_path / "text.npz"
    text.write_text("not a snapshot\n")
    partial = tmp_path / "partial.npz"
    np.savez(partial, user=np.zeros((16, 8)))
    objects = tmp_path / "objects.npz"  # np.load reads object arrays only through pickle
    edges = np.array([[0, 1], [2, "x"]], dtype=object)
    np.savez(objects, user=np.zeros((16, 8)), item=np.zeros((20, 8)), graph_edges=edges)
    cases = ((text, "cannot read snapshot"), (partial, "no item, graph_edges array"), (objects, "cannot read snapshot"))
    for path, reason in cases:
        assert main(["eval", *FAST, "--snapshot", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err


@pytest.mark.parametrize(
    "edges, shape",
    [
        (np.array([[0, 1], [16, 2]]), "int64 (2, 2)"),
        (np.array([[0, 20]]), "int64 (1, 2)"),
        (np.array([[-1, 0]]), "int64 (1, 2)"),
        (np.arange(5), "int64 (5,)"),
        (np.zeros((3, 2)), "float64 (3, 2)"),
    ],
    ids=["user-out-of-range", "item-out-of-range", "negative-id", "five-elements", "float-ids"],
)
def test_eval_bad_graph_edges_is_config_error(tmp_path, capsys, edges, shape):
    snap = tmp_path / "snapshot.npz"
    tables = {"user": np.zeros((16, 8)), "item": np.zeros((20, 8)), "device_user": np.zeros((16, 8))}
    np.savez(snap, graph_edges=edges, **tables)
    assert main(["eval", *FAST, "--snapshot", str(snap)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(snap) in err
    assert f"graph_edges {shape} is not an (n, 2) array of ids among the dataset's 16 users and 20 items" in err


# ---------------------------------------------------------------- mend


def test_mend_subcommand_writes_predictions(tmp_path, capsys):
    out = tmp_path / "links.tsv"
    rc = main([
        "mend", *FAST,
        "--set", "share_mode=fixed", "--set", "share_ratio=1.0",
        "--set", "mend_threshold=0.3",
        "--out", str(out),
    ])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "impaired" in printed and "predicted" in printed
    for line in out.read_text().splitlines():
        u, i, s = line.split("\t")
        assert float(s) >= 0.3


@pytest.mark.parametrize(
    "data, refusal",
    [
        # every user's train split holds all 5 items
        (["--set", "synth_users=10", "--set", "synth_items=5", "--set", "synth_clusters=1",
          "--set", "synth_density=1.0"], "train split holds all 5 items"),
        # every pair shared, and at threshold -1 under a cap above the item
        # count mending fills each user's server-graph row
        ([*FAST, "--set", "share_mode=fixed", "--set", "share_ratio=1.0"], "server-graph row holds all 20 items"),
    ],
    ids=["train-split", "server-graph-row"],
)
def test_mend_skips_the_checks_only_training_needs(tmp_path, capsys, data, refusal):
    mend = ["--set", "mend_epochs=5", "--set", "mend_threshold=-1", "--set", "mend_cap_per_user=21"]
    assert main(["train", *data, *mend, "--rounds", "1", "--out-dir", str(tmp_path / "run")]) == 1
    assert refusal in capsys.readouterr().err
    out = tmp_path / "links.tsv"
    assert main(["mend", *data, *mend, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    n_links = len(out.read_text().splitlines())
    assert n_links > 0 and f"predicted {n_links} links" in printed


def test_mend_nothing_to_do(tmp_path, capsys):
    rc = main([
        "mend", *FAST,
        "--set", "share_mode=fixed", "--set", "share_ratio=0.0",
        "--out", str(tmp_path / "x.tsv"),
    ])
    assert rc == 0
    assert "nothing to mend" in capsys.readouterr().out


# ---------------------------------------------------------------- sweep


def test_sweep_runs_grid(tmp_path, capsys):
    out = tmp_path / "sweep"
    rc = main([
        "sweep", *FAST, "--out-dir", str(out),
        "--grid", "share_ratio=0.0,1.0",
        "--set", "share_mode=fixed",
        "--set", "rounds=1",
    ])
    assert rc == 0
    rows = [json.loads(l) for l in (out / "sweep_index.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    assert {r["params"]["share_ratio"] for r in rows} == {"0.0", "1.0"}
    for row in rows:
        assert os.path.isfile(os.path.join(row["run"], "metrics.jsonl"))


def test_one_point_sweep_matches_train(tmp_path, capsys):
    fixed = ["--set", "share_mode=fixed"]
    rc = main(["sweep", *FAST, *fixed, "--out-dir", str(tmp_path / "sweep"), "--grid", "share_ratio=0.5"])
    assert rc == 0
    rc = main(["train", *FAST, *fixed, "--set", "share_ratio=0.5", "--out-dir", str(tmp_path / "train")])
    assert rc == 0
    (row,) = [json.loads(l) for l in (tmp_path / "sweep" / "sweep_index.jsonl").read_text().splitlines()]
    swept = os.path.join(row["run"], "metrics.jsonl")
    with open(swept, "rb") as fh:
        assert fh.read() == (tmp_path / "train" / "metrics.jsonl").read_bytes()


def test_sweep_requires_grid(tmp_path, capsys):
    assert main(["sweep", *FAST]) == 1
    assert main(["sweep", *FAST, "--grid", "nokey=1"]) == 1
    out = tmp_path / "sweep"
    assert main(["sweep", *FAST, "--out-dir", str(out), "--grid", "dim="]) == 1
    assert main(["sweep", *FAST, "--out-dir", str(out), "--grid", "dim=4", "--grid", "dim=8"]) == 1
    assert not out.exists()


# ---------------------------------------------------------------- misc


def test_keys_lists_everything(capsys):
    assert main(["keys"]) == 0
    printed = capsys.readouterr().out
    for key in CONFIG_KEYS:
        assert key in printed


def test_closed_stdout_pipe_is_not_an_error(tmp_path, monkeypatch, capsys):
    class ClosedPipe:
        """A stdout whose reader has gone away."""

        def __init__(self, fd):
            self.fd = fd

        def write(self, _text):
            raise BrokenPipeError(32, "Broken pipe")

        flush = write

        def fileno(self):
            return self.fd

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fh.fileno()))
        assert main(["keys"]) == 0
    assert capsys.readouterr().err == ""


def test_bad_config_exit_code(capsys):
    assert main(["train", "--set", "dim=-1"]) == 1
    assert "dim" in capsys.readouterr().err


def test_user_holding_every_item_exit_code(tmp_path, capsys):
    dense = ["--set", "synth_users=10", "--set", "synth_items=5",
             "--set", "synth_clusters=1", "--set", "synth_density=1.0"]
    assert main(["train", *dense, "--rounds", "1", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "holds all 5 items" in err


def test_server_graph_row_holding_every_item_exit_code(tmp_path, capsys):
    # no device trains in a server-only run, but the server samples
    # negatives from each user's row of the server graph
    dense = ["--set", "synth_users=10", "--set", "synth_items=5", "--set", "synth_clusters=1",
             "--set", "synth_density=1.0", "--set", "server_only=true"]
    assert main(["train", *dense, "--rounds", "1", "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "server-graph row holds all 5 items" in err


def test_unreadable_config_exit_code(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "name, line, message",
    [
        ("test.tsv", "999\t0\n", r"test\.tsv:\d+: pair \(999,0\) out of range"),
        ("idmap.tsv", "u\tx\t7\n", r"idmap\.tsv:\d+: bad id-map row"),
        ("idmap.tsv", "u\t999\t7\n", r"idmap\.tsv:\d+: bad id-map row"),
        ("val.tsv", None, r"ds: splits are not disjoint"),
    ],
    ids=["out-of-range", "bad-idmap", "idmap-gap", "overlap"],
)
def test_malformed_dataset_dir_exit_code(tmp_path, capsys, name, line, message):
    ds_dir = tmp_path / "ds"
    assert main(["synth", *FAST, "--out", str(ds_dir)]) == 0
    if line is None:  # a train pair repeated in another split
        line = (ds_dir / "train.tsv").read_text().splitlines(keepends=True)[0]
    with open(ds_dir / name, "a", encoding="utf-8") as fh:
        fh.write(line)
    capsys.readouterr()
    assert main(["train", *FAST, "--set", f"dataset_dir={ds_dir}", "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and re.search(message, err), err


# ratios on every bin edge 0.1 j, as 0.1 * j and as j / 10, and one ulp below it
BIN_RATIOS = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.integers(1, 9).map(lambda j: 0.1 * j),
    st.integers(1, 9).map(lambda j: j / 10),
    st.integers(1, 10).map(lambda j: float(np.nextafter(0.1 * j, 0.0))),
    st.floats(0.0, 1.0),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(BIN_RATIOS, max_size=30))
def test_share_bins_match_per_user_loop(ratios):
    policy = SharePolicy(ratio=np.array(ratios, dtype=np.float64))
    assert _share_bins(policy) == share_bins_loop(policy.ratio)
