"""Benchmark harness for fedgcf training workloads.

Run from the root of a checkout:

    python3 perfbench/run.py                      # every workload, untraced and traced
    python3 perfbench/run.py --workload cross_device --seed 3 --seconds 30 --trace 0

Each measured training run is a fresh single-threaded child process
(``child.py``) that builds its inputs from ``--seed``. An untraced
invocation repeats same-seed runs for ``--seconds`` (at least two) and
reports medians of the end-to-end metrics, with every time scaled to a
nominal machine speed measured by reference slices run around each stage
(see ``normalized``); a traced invocation runs one
untraced and one traced twin and reports the per-layer metrics. Every run
is checked (finite tables, clean privacy audit, test recall above random
ranking) and same-seed runs must agree on the model digest and on the
bytes of ``metrics.jsonl``. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0  # every invocation must end within 180 s
# Nominal reference slice times (whole slice, JSON part): typical on the
# 2-core VM the baseline was measured on. Times are reported at this speed.
REF_S = 0.030
REF_JSON_S = 0.006


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, tag: str, traced: bool, deadline: float) -> dict:
    """One training run in a fresh process; returns its result or a failure."""
    out_dir = os.path.join(OUT, f"{workload}-seed{seed}-{tag}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed), "--out-dir", out_dir]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["timed out"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"exit code {proc.returncode}: " + " | ".join(tail)]}
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as fh:
        result = json.load(fh)
    if traced:
        os.replace(os.path.join(out_dir, "spans.json"), os.path.join(OUT, f"{workload}-seed{seed}-spans.json"))
    shutil.rmtree(out_dir)
    return result


def check_same_run(runs: list[dict]) -> None:
    """Same-seed runs must give the first run's model and metrics bytes."""
    first = next((r for r in runs if not r["problems"]), None)
    for r in runs:
        if r is first or r["problems"]:
            continue
        if r["model_digest"] != first["model_digest"]:
            r["problems"].append("model digest differs from the first same-seed run")
        if r["metrics_sha256"] != first["metrics_sha256"]:
            r["problems"].append("metrics.jsonl differs from the first same-seed run")


def normalized(sample: list[float], json_ref: bool = False) -> float:
    """Seconds at reference speed: a stage's wall time scaled by how much
    slower than nominal the reference slices around it ran. Artifact
    writing is mostly JSON encoding, so it is scaled by the JSON part."""
    seconds, ref, ref_json = sample
    return seconds * (REF_JSON_S / ref_json if json_ref else REF_S / ref)


def wall(sample: list[float], json_ref: bool = False) -> float:
    return sample[0]


def end_to_end(runs: list[dict], value=normalized) -> dict:
    """Medians over the checked runs of an invocation, and over all their
    rounds and evaluations for the per-round and per-evaluation metrics."""
    ok = [r for r in runs if not r["problems"]]
    rounds = [(n, value(x)) for r in ok for n, x in zip(r["round_steps"], r["round_s"])]
    return {
        "setup_s": statistics.median(value(r["setup_s"]) for r in ok),
        "round_s_p50": statistics.median(t for _n, t in rounds),
        "device_steps_per_s": statistics.median(n / t for n, t in rounds),
        "eval_s": statistics.median(value(x) for r in ok for x in r["eval_s"]),
        "artifacts_s": statistics.median(value(x, json_ref=True) for r in ok for x in r["artifacts_s"]),
        "total_s": statistics.median(value(r["total_s"]) for r in ok),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "test_recall_20": ok[0]["test_recall_20"],
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One invocation: the child runs, their checks and the metrics."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    runs: list[dict] = []
    if traced:
        runs.append(run_child(workload, seed, "plain", False, deadline))
        runs.append(run_child(workload, seed, "traced", True, deadline))
    else:
        # at least two same-seed runs; another only if it should end in time
        while len(runs) < 2 or time.monotonic() - start + (time.monotonic() - start) / len(runs) <= seconds:
            runs.append(run_child(workload, seed, f"run{len(runs)}", False, deadline))
            if "model_digest" not in runs[-1]:  # crashed or timed out: no result
                break
    check_same_run(runs)
    failed = sum(1 for r in runs if r["problems"])
    report = {"workload": workload, "seed": seed, "traced": traced, "attempted": len(runs), "failed": failed, "runs": runs}
    if traced:
        plain, twin = runs
        if not plain["problems"] and not twin["problems"]:
            overhead = normalized(twin["total_s"]) - normalized(plain["total_s"])
            report["metrics"] = dict(twin["per_layer"], **{"trace.overhead_s": overhead})
    elif failed < len(runs):
        report["metrics"] = end_to_end(runs)
        report["wall_metrics"] = end_to_end(runs, wall)
    return report


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def print_table(title: str, units: dict, columns: dict) -> None:
    names = list(columns)
    print(f"\n{title}")
    print(f"  {'metric':<24} {'unit':<6}" + "".join(f" {n:>14}" for n in names))
    for metric, unit in units.items():
        cells = []
        for n in names:
            value = columns[n].get(metric)
            cells.append(f" {'-':>14}" if value is None else f" {value:>14.6g}")
        print(f"  {metric:<24} {unit:<6}" + "".join(cells))


def metric_units() -> tuple[dict, dict]:
    """End-to-end and per-layer metric names, in order, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "fedgcf", "__init__.py")):
        print(f"error: the fedgcf sources are missing under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    units = dict(zip((False, True), metric_units()))

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    env = environment()
    print("environment: " + json.dumps(env))
    reports = []
    for workload in workloads:
        for traced in modes:
            report = measure(workload, args.seed, args.seconds, traced)
            first = next((r for r in report["runs"] if not r["problems"]), None)
            if first is not None:
                env_program = first["environment"]
                report.update(environment=dict(env, **env_program), config=first["config"])
                print(f"{workload} program environment: {json.dumps(env_program)}")
                print(f"{workload} config: {json.dumps(first['config'], sort_keys=True)}")
            reports.append(report)
            suffix = "trace" if traced else "plain"
            with open(os.path.join(OUT, f"{workload}-seed{args.seed}-{suffix}.json"), "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
            print(
                f"{workload} ({'traced' if traced else 'untraced'}, seed {args.seed}): "
                f"{report['attempted']} runs, {report['failed']} failed, "
                f"failed_share {report['failed'] / report['attempted']:.3f}"
            )
            for i, run in enumerate(report["runs"]):
                for problem in run["problems"]:
                    print(f"  run {i} FAILED: {problem}")

    for traced, title in ((False, "end-to-end (untraced, medians)"), (True, "per-layer (traced run)")):
        columns = {r["workload"]: r.get("metrics", {}) for r in reports if r["traced"] == traced}
        if columns:
            print_table(title, units[traced], columns)

    metrics = {}
    for r in reports:
        prefix = "" if len(workloads) == 1 else r["workload"] + "/"
        if "metrics" in r:
            for name, unit in units[r["traced"]].items():
                metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if all("metrics" in r for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
