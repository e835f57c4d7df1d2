"""One training run of a benchmark workload, in a fresh process.

It drives ``fedgcf`` only through its public entry points, in the order
``fedgcf train`` uses them: ``split_dataset`` -> ``prepare_run`` ->
``run_round`` x N with ``eval_views`` + ``evaluate`` on val and test every
``eval_every`` rounds and after the last, then ``cli.emit_metrics``,
``AuditLog.write_jsonl`` and ``cli.save_snapshot``. Each stage is timed
from outside, together with the speed of a fixed reference slice run just
before and after it (see ``Clock``). The run then checks its own outputs and writes one JSON
result file.

    python3 perfbench/child.py --workload cross_device --seed 1 --out-dir DIR [--trace]

The caller puts ``src`` on PYTHONPATH and pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from spans import Tracer, install, per_layer_metrics
from workloads import WORKLOADS, derived_seeds, planted_pairs

from fedgcf import cli, data, loop

# the package re-exports the function ``evaluate`` under its module's name
evaluate = importlib.import_module("fedgcf.evaluate")


def model_digest(ctx) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ctx.server.model.user).tobytes())
    h.update(np.ascontiguousarray(ctx.server.model.item).tobytes())
    return h.hexdigest()


def blas_environment() -> dict:
    """numpy's BLAS build and the thread count its OpenBLAS actually uses."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def random_recall(ds, k: int) -> float:
    """Expected test Recall@k of a uniformly random ranking of each user's
    candidates (all items outside their train set), macro-averaged."""
    train_count = {u: len(items) for u, items in ds.pairs_by_user(ds.train).items()}
    levels = [
        min(k, ds.n_items - train_count.get(u, 0)) / (ds.n_items - train_count.get(u, 0))
        for u in ds.pairs_by_user(ds.test)
    ]
    return float(np.mean(levels)) if levels else 0.0


# The reference slice mixes the kinds of work fedgcf does (dict lookups,
# small and medium numpy calls, JSON encoding) so that its speed follows
# the shared machine's speed, which swings by up to 2x over seconds.
_REF_RNG = np.random.default_rng(0)
_REF_TABLE = {int(k): float(k) for k in _REF_RNG.integers(0, 1 << 40, 100_000)}
_REF_KEYS = _REF_RNG.permutation(list(_REF_TABLE))[:20_000].tolist()
_REF_A = _REF_RNG.random((256, 64))
_REF_B = _REF_RNG.random((2048, 64))
_REF_EVENTS = [
    {"event": "distribute", "round": i, "owner": i % 200, "recipient": (i * 7) % 200, "rows": [i, i + 1]}
    for i in range(1500)
]


def reference_slice() -> tuple[float, float]:
    """Wall times of a fixed piece of work that uses no fedgcf code: the
    whole slice, and its JSON encoding part alone."""
    t = time.perf_counter()
    acc = 0.0
    for k in _REF_KEYS:
        acc += _REF_TABLE[k]
    for i in range(300):
        acc += float(_REF_A[i % 256] @ _REF_A[(i * 7) % 256])
    for _ in range(4):
        acc += float((_REF_B @ _REF_A.T).max())
    t_json = time.perf_counter()
    acc += sum(len(json.dumps(e)) for e in _REF_EVENTS)
    end = time.perf_counter()
    return end - t, end - t_json


class Clock:
    """Times stages and pairs each time with the reference speed around it.

    After each stage it runs one reference slice per started second of the
    stage (at most eight); a stage's reference is the mean of the slices
    just before and just after it. A sample is [seconds, reference seconds,
    JSON reference seconds].
    """

    def __init__(self) -> None:
        self.before = [reference_slice()]

    def time(self, fn):
        t = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t
        after = [reference_slice() for _ in range(min(8, 1 + int(elapsed)))]
        around = self.before + after
        self.before = after
        return out, [elapsed, *(sum(col) / len(around) for col in zip(*around))]


def run(workload: str, seed: int, out_dir: str, tracer: Tracer | None) -> dict:
    w = WORKLOADS[workload]
    config = cli.parse_config(None, {**w.config, **derived_seeds(seed), "out_dir": out_dir})
    hyper = config.hyper()
    pairs = planted_pairs(w, seed)
    stage = tracer.span if tracer is not None else lambda _name: contextlib.nullcontext()
    clock = Clock()

    def setup():
        with stage("bench.setup"):
            ds = data.InteractionDataset(n_users=w.n_users, n_items=w.n_items, train=pairs)
            ds = data.split_dataset(ds, (config.split_train, config.split_val, config.split_test), config.seed_data)
            return ds, loop.prepare_run(
                ds,
                hyper,
                share_mode=config.share_mode,
                share_ratio=config.share_ratio if config.share_mode == "fixed" else None,
                seed_policy=config.seed_policy,
                seed_train=config.seed_train,
                disable_gm=config.disable_gm,
                disable_cl=config.disable_cl,
                server_only=config.server_only,
                sync_all_users=config.sync_all_users,
            )

    (ds, ctx), setup_s = clock.time(setup)

    def evaluation():
        with stage("bench.eval"):
            user_views, item_views = loop.eval_views(ctx, config.eval_view)
            val = evaluate.evaluate(user_views, item_views, ctx.ds, "val", hyper.eval_k, config.score_sim)
            test = evaluate.evaluate(user_views, item_views, ctx.ds, "test", hyper.eval_k, config.score_sim)
        return val, test

    # the round loop and early stopping of loop.run_training, without its
    # round-0 evaluation of the untrained model
    round_s: list[list[float]] = []
    eval_s: list[list[float]] = []
    reports = []
    evals: list[dict] = []
    best_val, stale, stopped, rounds_run = -np.inf, 0, False, 0
    for round_idx in range(1, hyper.rounds + 1):
        report, sample = clock.time(lambda: loop.run_round(ctx, round_idx))
        reports.append(report)
        round_s.append(sample)
        rounds_run = round_idx
        if round_idx % hyper.eval_every == 0 or round_idx == hyper.rounds:
            (val, test), sample = clock.time(evaluation)
            eval_s.append(sample)
            evals.append({
                "round": round_idx,
                "val_recall": val.recall,
                "val_ndcg": val.ndcg,
                "test_recall": test.recall,
                "test_ndcg": test.ndcg,
            })
            if val.recall > best_val:
                best_val, stale = val.recall, 0
            else:
                stale += 1
                if stale >= hyper.patience:
                    stopped = True
                    break
    result = loop.RunResult(
        context=ctx,
        reports=reports,
        evals=evals,
        best_val_recall=float(best_val),
        stopped_early=stopped,
        rounds_run=rounds_run,
    )

    # fedgcf train writes the artifacts once; untraced runs write them again
    # into fresh directories so that artifacts_s has more than one sample
    def artifacts(rep_dir: str):
        with stage("bench.artifacts"):
            metrics_path = cli.emit_metrics(result, config, rep_dir)
            audit_path = os.path.join(rep_dir, "audit.jsonl")
            ctx.audit.write_jsonl(audit_path)
            cli.save_snapshot(result, os.path.join(rep_dir, "snapshot.npz"))
        return metrics_path, audit_path

    artifacts_s: list[list[float]] = []
    for rep in range(1 if tracer is not None else w.artifact_repeats):
        rep_dir = out_dir if rep == 0 else os.path.join(out_dir, f"rep{rep}")
        os.makedirs(rep_dir, exist_ok=True)
        paths, sample = clock.time(lambda: artifacts(rep_dir))
        artifacts_s.append(sample)
        if rep == 0:
            metrics_path, audit_path = paths
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stages = [setup_s, *round_s, *eval_s, artifacts_s[0]]
    total = sum(sample[0] for sample in stages)
    total_s = [total, *(sum(sample[0] * sample[i] for sample in stages) / total for i in (1, 2))]

    # output checks: finite tables, a clean audit, better than random ranking
    problems = []
    device_user = np.stack([dev.p_u for dev in ctx.devices.values()])
    for name, table in (("user", ctx.server.model.user), ("item", ctx.server.model.item), ("device", device_user)):
        if not np.isfinite(table).all():
            problems.append(f"non-finite {name} table")
    problems.extend(ctx.audit.violations(ctx.policy))
    test_recall = evals[-1]["test_recall"]
    chance = random_recall(ds, hyper.eval_k)
    if not test_recall > chance:
        problems.append(f"test recall {test_recall:.4f} not above random ranking {chance:.4f}")
    with open(metrics_path, "rb") as fh:
        metrics_sha = hashlib.sha256(fh.read()).hexdigest()

    out = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "environment": blas_environment(),
        "config": config.values,
        "train_pairs": len(ds.train),
        "server_edges": ctx.server.graph.edge_count,
        "setup_s": setup_s,
        "round_s": round_s,
        "eval_s": eval_s,
        "artifacts_s": artifacts_s,
        "total_s": total_s,
        "round_steps": [len(r.participants) for r in reports],
        "peak_rss_mb": peak_rss_mb,
        "test_recall_20": test_recall,
        "random_recall": chance,
        "model_digest": model_digest(ctx),
        "metrics_sha256": metrics_sha,
        "problems": problems,
    }
    if tracer is not None:
        out["per_layer"] = per_layer_metrics(
            tracer, hyper.mend_epochs, len(ctx.audit.events), os.path.getsize(audit_path)
        )
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    result = run(args.workload, args.seed, args.out_dir, tracer)
    with open(os.path.join(args.out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
