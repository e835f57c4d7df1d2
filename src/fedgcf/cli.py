"""Command-line harness: config parsing, metrics emission, subcommands.

Configs are flat-key JSON files; any key can be overridden on the command
line with repeated ``--set key=value`` flags. Validation is exhaustive:
every unknown key and out-of-range value is reported in one error.

Exit codes: 0 success, 1 config/validation error, 2 numeric error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import data as data_mod
from .errors import ConfigError, DataFormatError, EmptyDatasetError, NumericError
from .evaluate import evaluate, write_per_user_tsv
from .graph import BipartiteGraph, EmbeddingState
from .learn import HyperParams
from .loop import RunResult, contribute_and_mend, device_views, run_training
from .mending import write_predictions_tsv
from .server import server_infer

# help text of each HyperParams field; its default and type come from HyperParams
_HYPER_HELP = {
    "dim": "embedding dimension",
    "learning_rate": "Adam learning rate",
    "reg_lambda": "L2 weight on layer-0 rows of each batch",
    "cl_weight": "weight of the contrastive term",
    "temperature": "contrastive softmax temperature",
    "mend_threshold": "cosine threshold for predicted links",
    "layers_server": "server-side propagation depth",
    "adam_beta1": "Adam first-moment decay",
    "adam_beta2": "Adam second-moment decay",
    "adam_eps": "Adam denominator epsilon",
    "clients_per_round": "devices sampled per round",
    "rounds": "federation rounds",
    "local_epochs": "local Adam steps per participation",
    "server_batch": "contributed pairs per server step",
    "mend_epochs": "mender training epochs",
    "impair_fraction": "fraction of contributed edges removed for mending",
    "mend_cap_per_user": "max predicted links per user",
    "ldp_clip": "L2 clip of uploaded delta rows (0 disables)",
    "ldp_noise": "Laplace noise scale on uploads (0 disables)",
    "eval_k": "ranking cutoff K",
    "eval_every": "rounds between evaluations",
    "patience": "non-improving evaluations before early stop",
}

# key -> (default, type, help)
CONFIG_KEYS: dict[str, tuple] = {
    "data_path": (None, str, "TSV interaction file (user<TAB>item per line)"),
    "dataset_dir": (None, str, "directory written by `fedgcf synth` or save_dataset"),
    "synth_users": (200, int, "synthetic dataset: number of users"),
    "synth_items": (300, int, "synthetic dataset: number of items"),
    "synth_clusters": (4, int, "synthetic dataset: planted cluster count"),
    "synth_density": (0.3, float, "synthetic dataset: within-cluster density"),
    "kcore_user": (0, int, "minimum user degree (0 disables the filter)"),
    "kcore_item": (0, int, "minimum item degree (0 disables the filter)"),
    "split_train": (8, float, "train share of the per-user split"),
    "split_val": (1, float, "validation share of the per-user split"),
    "split_test": (1, float, "test share of the per-user split"),
    "share_mode": ("uniform", str, "contribution ratios: uniform draw or fixed value"),
    "share_ratio": (0.5, float, "ratio applied to every user in fixed mode"),
    **{f.name: (f.default, type(f.default), _HYPER_HELP[f.name]) for f in dataclasses.fields(HyperParams)},
    "score_sim": ("cosine", str, "ranking similarity: cosine or inner"),
    "eval_view": ("server", str, "evaluation embeddings: server or device"),
    "disable_gm": (False, bool, "ablation: skip graph mending"),
    "disable_cl": (False, bool, "ablation: drop the contrastive term"),
    "server_only": (False, bool, "train only the server (degeneracy checks)"),
    "sync_all_users": (False, bool, "broadcast user rows to non-participants too"),
    "seed_data": (0, int, "seed for synthesis and splitting"),
    "seed_policy": (1, int, "seed for contribution ratios and subsets"),
    "seed_train": (2, int, "seed for init, selection, sampling, noise"),
    "out_dir": ("out", str, "directory for metrics, config, audit, snapshot"),
}

_HYPER_FIELDS = {f.name for f in dataclasses.fields(HyperParams)}


@dataclasses.dataclass
class RunConfig:
    """Validated flat configuration of one run."""

    values: dict

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key) from None

    def hyper(self) -> HyperParams:
        return HyperParams(**{k: v for k, v in self.values.items() if k in _HYPER_FIELDS})

    def to_json(self) -> str:
        return json.dumps(self.values, indent=2, sort_keys=True)


def _coerce(key: str, value, problems: list[str]):
    default, typ, _ = CONFIG_KEYS[key]
    if value is None:
        if default is not None:
            problems.append(f"{key}: expected a value, got null")
        return None
    if typ is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false", "1", "0"):
            return value.lower() in ("true", "1")
        problems.append(f"{key}: expected a boolean, got {value!r}")
        return None
    if typ is int:
        if isinstance(value, bool):
            problems.append(f"{key}: expected an integer, got {value!r}")
            return None
        try:
            if isinstance(value, float) and value != int(value):
                raise ValueError
            return int(value)
        except (TypeError, ValueError):
            problems.append(f"{key}: expected an integer, got {value!r}")
            return None
    if typ is float:
        try:
            return float(value)
        except (TypeError, ValueError):
            problems.append(f"{key}: expected a number, got {value!r}")
            return None
    return str(value)


def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Load defaults, layer the file, then the CLI overrides; validate all.

    Every problem (unknown key, type error, range violation) is collected
    and reported in a single ConfigError.
    """
    problems: list[str] = []
    values = {key: spec[0] for key, spec in CONFIG_KEYS.items()}
    file_values = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if text.strip():
            try:
                file_values = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
            if not isinstance(file_values, dict):
                raise ConfigError(f"{path}: top level must be an object of flat keys")
    for source in (file_values, overrides or {}):
        for key, value in source.items():
            if key not in CONFIG_KEYS:
                problems.append(f"unknown key {key!r}")
                continue
            values[key] = _coerce(key, value, problems)

    # range checks see the default of every key whose coercion failed, so
    # the remaining keys still get validated
    checked = {k: (values[k] if values[k] is not None else CONFIG_KEYS[k][0]) for k in values}
    sources = [k for k in ("data_path", "dataset_dir") if checked[k]]
    if checked["share_mode"] not in ("uniform", "fixed"):
        problems.append(f"share_mode must be uniform|fixed, got {checked['share_mode']!r}")
    if not (0.0 <= checked["share_ratio"] <= 1.0):
        problems.append(f"share_ratio must be in [0,1], got {checked['share_ratio']}")
    if checked["score_sim"] not in ("cosine", "inner"):
        problems.append(f"score_sim must be cosine|inner, got {checked['score_sim']!r}")
    if checked["eval_view"] not in ("server", "device"):
        problems.append(f"eval_view must be server|device, got {checked['eval_view']!r}")
    if len(sources) > 1:
        problems.append("data_path and dataset_dir are mutually exclusive")
    if checked["kcore_user"] < 0 or checked["kcore_item"] < 0:
        problems.append("kcore thresholds must be >= 0")
    if checked["split_train"] <= 0 or checked["split_val"] < 0 or checked["split_test"] < 0:
        problems.append("split shares must be positive train, non-negative val/test")
    if checked["synth_users"] <= 0 or checked["synth_items"] <= 0:
        problems.append("synth sizes must be positive")
    if not (0.0 < checked["synth_density"] <= 1.0):
        problems.append(f"synth_density must be in (0,1], got {checked['synth_density']}")
    if checked["synth_clusters"] < 1:
        problems.append(f"synth_clusters must be >= 1, got {checked['synth_clusters']}")

    problems.extend(HyperParams(**{k: checked[k] for k in checked if k in _HYPER_FIELDS}).validate())
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return RunConfig(values=values)


def parse_overrides(pairs: list[str]) -> dict:
    """Turn repeated ``--set key=value`` flags into an override dict."""
    out: dict = {}
    problems = []
    for pair in pairs:
        if "=" not in pair:
            problems.append(f"--set expects key=value, got {pair!r}")
            continue
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    if problems:
        raise ConfigError("invalid overrides:\n  " + "\n  ".join(problems))
    return out


def load_run_dataset(config: RunConfig) -> data_mod.InteractionDataset:
    """Materialize the dataset a config describes: load or synthesize,
    k-core filter, then split (already-split directories pass through)."""
    if config.dataset_dir:
        return data_mod.load_dataset(config.dataset_dir)
    if config.data_path:
        ds = data_mod.load_interactions(config.data_path)
    else:
        ds = data_mod.synth_dataset(
            config.synth_users,
            config.synth_items,
            config.synth_clusters,
            config.synth_density,
            config.seed_data,
        )
    if config.kcore_user > 0 or config.kcore_item > 0:
        ds = data_mod.filter_k_core(ds, config.kcore_user, config.kcore_item)
    ratios = (config.split_train, config.split_val, config.split_test)
    return data_mod.split_dataset(ds, ratios, config.seed_data)


def _prepare_kwargs(config: RunConfig) -> dict:
    """The keyword arguments of ``prepare_run`` that a config sets."""
    return {
        "share_mode": config.share_mode,
        "share_ratio": config.share_ratio if config.share_mode == "fixed" else None,
        "seed_policy": config.seed_policy,
        "seed_train": config.seed_train,
        "disable_gm": config.disable_gm,
        "disable_cl": config.disable_cl,
        "server_only": config.server_only,
        "sync_all_users": config.sync_all_users,
    }


def _train(config: RunConfig) -> RunResult:
    """Train on the config's dataset, as ``train`` and each ``sweep`` run do."""
    return run_training(
        load_run_dataset(config),
        config.hyper(),
        eval_view=config.eval_view,
        score_sim=config.score_sim,
        **_prepare_kwargs(config),
    )


def _share_bins(policy) -> list[dict]:
    """User counts per contribution-ratio bin, clamped tiers separate."""
    labels = ["0 (none)"]
    for lo in (round(0.1 * j, 1) for j in range(10)):
        labels.append(f"({lo},{lo + 0.1:.1f})" if lo == 0.0 else f"[{lo},{lo + 0.1:.1f})")
    labels.append("1 (all)")
    r = policy.ratio
    idx = np.where(r == 0.0, 0, np.where(r == 1.0, 11, 1 + np.minimum((r * 10).astype(np.int64), 9)))
    counts = np.bincount(idx, minlength=len(labels)).tolist()
    return [{"bin": label, "users": n} for label, n in zip(labels, counts)]


def emit_metrics(result: RunResult, config: RunConfig, out_dir: str) -> str:
    """Write metrics.jsonl (one record per evaluation, summary last) and
    the resolved config next to it. Returns the metrics path."""
    os.makedirs(out_dir, exist_ok=True)
    k = config.eval_k
    report_by_round = {r.round_idx: r for r in result.reports}
    path = os.path.join(out_dir, "metrics.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for record in result.evals:
            report = report_by_round.get(record["round"])
            row = {
                "round": record["round"],
                f"recall@{k}": record["test_recall"],
                f"ndcg@{k}": record["test_ndcg"],
                "bpr_loss": report.mean_bpr_loss if report else None,
                "cl_loss": report.mean_cl_loss if report else None,
                "server_loss": report.server_loss if report else None,
                "share_mode": config.share_mode,
                f"val_recall@{k}": record["val_recall"],
                f"val_ndcg@{k}": record["val_ndcg"],
            }
            fh.write(json.dumps(row) + "\n")
        summary = {
            "record": "summary",
            "share_mode": config.share_mode,
            "share_bins": _share_bins(result.context.policy),
            "rounds_run": result.rounds_run,
            "stopped_early": result.stopped_early,
            "best_val_recall": result.best_val_recall,
            f"final_recall@{k}": result.evals[-1]["test_recall"] if result.evals else None,
            f"final_ndcg@{k}": result.evals[-1]["test_ndcg"] if result.evals else None,
        }
        fh.write(json.dumps(summary) + "\n")
    with open(os.path.join(out_dir, "resolved_config.json"), "w", encoding="utf-8") as fh:
        fh.write(config.to_json() + "\n")
    return path


def save_snapshot(result: RunResult, path: str) -> None:
    """Final model tables plus the mended graph edges, as one npz file."""
    ctx = result.context
    edges = ctx.server.graph.edge_array()
    np.savez(
        path,
        user=ctx.server.model.user,
        item=ctx.server.model.item,
        device_user=ctx.devices.p_u,
        graph_edges=edges,
        rounds_run=np.array([result.rounds_run]),
    )


def _cmd_train(args) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    result = _train(config)
    out_dir = config.out_dir
    metrics_path = emit_metrics(result, config, out_dir)
    result.context.audit.write_jsonl(os.path.join(out_dir, "audit.jsonl"))
    save_snapshot(result, os.path.join(out_dir, "snapshot.npz"))
    final = result.evals[-1] if result.evals else {}
    print(
        f"trained {result.rounds_run} rounds"
        + (" (early stop)" if result.stopped_early else "")
        + f"; test recall@{config.eval_k}={final.get('test_recall', float('nan')):.4f}"
        f" ndcg@{config.eval_k}={final.get('test_ndcg', float('nan')):.4f}"
    )
    print(f"metrics: {metrics_path}")
    return 0


def _cmd_eval(args) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    ds = load_run_dataset(config)
    device = config.eval_view == "device"
    user_key = "device_user" if device else "user"
    keys = (user_key, "item", "graph_edges")
    try:
        snap = np.load(args.snapshot)
        arrays = {k: snap[k] for k in keys if k in getattr(snap, "files", ())}
    except (OSError, ValueError) as exc:  # ValueError also for object arrays, which need pickle
        raise ConfigError(f"cannot read snapshot {args.snapshot}: {exc}") from exc
    missing = [k for k in keys if k not in arrays]
    if missing:
        raise ConfigError(f"{args.snapshot} is not a train snapshot: no {', '.join(missing)} array")
    user, item, edges = (arrays[k] for k in keys)
    if user.ndim != 2 or user.shape[0] != ds.n_users or item.shape != (ds.n_items, user.shape[1]):
        raise ConfigError(
            f"snapshot tables {user_key} {user.shape} and item {item.shape} do not fit"
            f" the dataset's {ds.n_users} users and {ds.n_items} items"
        )
    id_pairs = edges.ndim == 2 and edges.shape[1] == 2 and np.issubdtype(edges.dtype, np.integer)
    if not id_pairs or edges.size and (edges.min() < 0 or (edges.max(axis=0) >= (ds.n_users, ds.n_items)).any()):
        raise ConfigError(
            f"{args.snapshot}: graph_edges {edges.dtype} {edges.shape} is not an (n, 2) array of"
            f" ids among the dataset's {ds.n_users} users and {ds.n_items} items"
        )
    if device:
        user_views, item_views = device_views(user, item, ds)
    else:
        graph = BipartiteGraph(ds.n_users, ds.n_items, edges)
        user_views, item_views = server_infer(graph, EmbeddingState(user, item), config.layers_server)
    res = evaluate(user_views, item_views, ds, args.split, config.eval_k, config.score_sim)
    print(f"{args.split} recall@{config.eval_k}={res.recall:.4f} ndcg@{config.eval_k}={res.ndcg:.4f}")
    if args.per_user:
        write_per_user_tsv(res, args.per_user)
        print(f"per-user metrics: {args.per_user}")
    return 0


def _cmd_mend(args) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    ds = load_run_dataset(config)
    prepare = _prepare_kwargs(config)
    _, _, art = contribute_and_mend(
        ds, config.hyper(), **{k: prepare[k] for k in ("share_mode", "share_ratio", "seed_policy", "seed_train")}
    )
    if art is None:
        print("nothing to mend: no contributed edges or impair_fraction is 0")
        return 0
    out = args.out or os.path.join(config.out_dir, "predicted_links.tsv")
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    write_predictions_tsv(art.predicted, art.scores, out)
    print(
        f"impaired {len(art.removed)} edges, predicted {len(art.predicted)} links"
        f" at threshold {config.mend_threshold}; wrote {out}"
    )
    return 0


def _cmd_synth(args) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    ds = load_run_dataset(config)
    out = args.out or os.path.join(config.out_dir, "dataset")
    data_mod.save_dataset(ds, out)
    print(
        f"wrote {out}: {ds.n_users} users, {ds.n_items} items,"
        f" {len(ds.train)}/{len(ds.val)}/{len(ds.test)} train/val/test pairs"
    )
    return 0


def _cmd_sweep(args) -> int:
    config = parse_config(args.config, _collect_overrides(args))
    grids: list[tuple[str, list[str]]] = []
    for spec in args.grid:
        if "=" not in spec:
            raise ConfigError(f"--grid expects key=v1,v2,..., got {spec!r}")
        key, values = spec.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"--grid: unknown key {key!r}")
        if key in dict(grids):
            raise ConfigError(f"--grid: key {key!r} given twice")
        grids.append((key, [v.strip() for v in values.split(",") if v.strip()]))
        if not grids[-1][1]:
            raise ConfigError(f"--grid: key {key!r} has no values")
    if not grids:
        raise ConfigError("sweep needs at least one --grid key=v1,v2,...")
    combos = list(itertools.product(*[vals for _, vals in grids]))
    index_path = os.path.join(config.out_dir, "sweep_index.jsonl")
    os.makedirs(config.out_dir, exist_ok=True)
    rows = []
    for n, combo in enumerate(combos):
        overrides = dict(config.values)
        tag_parts = []
        for (key, _), value in zip(grids, combo):
            overrides[key] = value
            tag_parts.append(f"{key}={value}")
        run_dir = os.path.join(config.out_dir, f"sweep_{n:03d}_" + "_".join(tag_parts))
        overrides["out_dir"] = run_dir
        sub = parse_config(None, overrides)
        result = _train(sub)
        emit_metrics(result, sub, run_dir)
        final = result.evals[-1]
        row = {
            "run": run_dir,
            "params": dict(zip([k for k, _ in grids], combo)),
            f"test_recall@{sub.eval_k}": final["test_recall"],
            f"test_ndcg@{sub.eval_k}": final["test_ndcg"],
            "best_val_recall": result.best_val_recall,
        }
        rows.append(row)
        print(f"[{n + 1}/{len(combos)}] {' '.join(tag_parts)} -> recall {final['test_recall']:.4f}")
    with open(index_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    print(f"sweep index: {index_path}")
    return 0


def _cmd_keys(_args) -> int:
    width = max(len(k) for k in CONFIG_KEYS)
    for key, (default, _typ, doc) in CONFIG_KEYS.items():
        print(f"{key:<{width}}  default={default!r:<12}  {doc}")
    return 0


def _collect_overrides(args) -> dict:
    overrides = parse_overrides(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides["seed_train"] = args.seed
    if getattr(args, "rounds", None) is not None:
        overrides["rounds"] = args.rounds
    if getattr(args, "out_dir", None) is not None:
        overrides["out_dir"] = args.out_dir
    return overrides


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat-key JSON config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--seed", type=int, default=None, help="override seed_train")
    p.add_argument("--rounds", type=int, default=None, help="override rounds")
    p.add_argument("--out-dir", default=None, help="override out_dir")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedgcf",
        description="federated graph collaborative filtering with user-governed data contribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a full training job")
    _add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a saved snapshot")
    _add_common(p_eval)
    p_eval.add_argument("--snapshot", required=True, help="snapshot.npz from a train run")
    p_eval.add_argument("--split", choices=("val", "test"), default="test")
    p_eval.add_argument("--per-user", default=None, help="optional per-user metrics TSV")
    p_eval.set_defaults(func=_cmd_eval)

    p_mend = sub.add_parser("mend", help="run graph mending alone and dump predicted links")
    _add_common(p_mend)
    p_mend.add_argument("--out", default=None, help="predicted-links TSV path")
    p_mend.set_defaults(func=_cmd_mend)

    p_synth = sub.add_parser("synth", help="write the split dataset train would use")
    _add_common(p_synth)
    p_synth.add_argument("--out", default=None, help="dataset directory")
    p_synth.set_defaults(func=_cmd_synth)

    p_sweep = sub.add_parser("sweep", help="grid sweep over config keys")
    _add_common(p_sweep)
    p_sweep.add_argument(
        "--grid", action="append", default=[], metavar="KEY=V1,V2,...", help="one sweep axis"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_keys = sub.add_parser("keys", help="list every config key with default and doc")
    p_keys.set_defaults(func=_cmd_keys)

    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader stopped reading, which is no failure of ours; point
        # stdout at devnull so the exit flush does not fail again (Python
        # docs, signal module, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ConfigError, DataFormatError, EmptyDatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
