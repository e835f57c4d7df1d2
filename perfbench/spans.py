"""In-memory span tracer and the per-layer metrics derived from its spans.

Tracing wraps ``fedgcf``'s public functions at the module attributes their
callers resolve them through, so the program itself is unchanged. A span
is (name, start, end, parent); spans stay in memory until the run ends. A
layer's self time is its span duration minus the time its direct child
spans cover (one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def wrap(self, fn, name: str, counter=None):
        """``fn`` inside a span; ``counter(args, result)`` adds to count ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(name, counter(args, result))
            return result

        return traced

    def patch(self, owner, attr: str, name: str, counter=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, counter))

    def layer_times(self) -> dict:
        """Per span name: list of durations, total self time, and the
        durations of spans whose parent has a given name."""
        durations: dict[str, list[float]] = defaultdict(list)
        self_time: dict[str, float] = defaultdict(float)
        by_parent: dict[tuple[str, str], float] = defaultdict(float)
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            durations[name].append(end - start)
            self_time[name] += (end - start) - child_cover[idx]
            if parent >= 0:
                by_parent[(name, self.spans[parent][0])] += end - start
        return {"durations": durations, "self": self_time, "by_parent": by_parent}


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from fedgcf import cli, client, data, graph, loop, mending, server

    evaluate = importlib.import_module("fedgcf.evaluate")

    def graph_edges(args, _result):
        return args[0].edge_count

    def grad_rows(_args, result):
        return len(result[1].user) + len(result[1].item)

    def views_sent(_args, result):
        return sum(len(v.user_views) + len(v.item_views) for v in result.values())

    def delta_rows(args, _result):
        return sum(len(bundle.user) + len(bundle.item) for bundle, _w in args[0])

    tracer.patch(graph, "propagate_once", "graph.propagate", graph_edges)
    for module in (client, server, mending):
        tracer.patch(module, "BipartiteGraph", "graph.build")
    tracer.patch(loop, "client_local_train", "client.train")
    tracer.patch(client, "compute_gradients", "learn.grad.client", grad_rows)
    tracer.patch(server, "compute_gradients", "learn.grad.server", grad_rows)
    tracer.patch(mending, "compute_gradients", "learn.grad.mending", grad_rows)
    tracer.patch(client, "adam_update_rows", "learn.adam")
    tracer.patch(server, "adam_step", "learn.adam")
    tracer.patch(mending, "adam_step", "learn.adam")
    tracer.patch(mending, "impair_graph", "mending.impair")
    tracer.patch(mending, "train_mender", "mending.train")
    tracer.patch(mending, "predict_links", "mending.predict", lambda _a, r: len(r[0]))
    tracer.patch(loop, "server_train", "server.train")
    tracer.patch(loop, "server_infer", "server.infer")
    tracer.patch(loop, "embedding_exchange", "server.exchange", views_sent)
    tracer.patch(loop, "apply_ldp", "server.ldp")
    tracer.patch(loop, "fedavg_aggregate", "server.aggregate", delta_rows)
    tracer.patch(loop, "run_round", "loop.round")
    tracer.patch(evaluate, "evaluate", "evaluate.eval", lambda _a, r: len(r.per_user))
    tracer.patch(data, "split_dataset", "data.split")
    tracer.patch(loop, "assign_share_policy", "data.policy")
    tracer.patch(loop, "attach_contributions", "data.policy")
    tracer.patch(data.SharePolicy, "validate", "data.policy")
    tracer.patch(cli, "emit_metrics", "cli.emit")
    tracer.patch(server.AuditLog, "write_jsonl", "cli.audit_write")
    tracer.patch(cli, "save_snapshot", "cli.snapshot")


def per_layer_metrics(tracer: Tracer, mend_epochs: int, audit_events: int, audit_bytes: int) -> dict:
    """Per-layer values of one traced run (``trace.overhead_s`` is filled
    in by the caller, which also ran the untraced twin). Times are totals
    over the run."""
    t = tracer.layer_times()
    dur, self_t, c = t["durations"], t["self"], tracer.counts

    def total(name: str) -> float:
        return sum(dur.get(name, ()), 0.0)

    client_steps = dur.get("client.train", [])
    return {
        "graph.propagate_s": total("graph.propagate"),
        "graph.propagate_calls": len(dur.get("graph.propagate", ())),
        "graph.propagate_edges": c["graph.propagate"],
        "graph.build_s": total("graph.build"),
        "graph.builds": len(dur.get("graph.build", ())),
        "client.step_s_p50": statistics.median(client_steps) if client_steps else 0.0,
        "client.steps": len(client_steps),
        "client.self_s": self_t["client.train"],
        "learn.grad_s.client": total("learn.grad.client"),
        "learn.grad_s.server": total("learn.grad.server"),
        "learn.grad_s.mending": total("learn.grad.mending"),
        "learn.adam_s": total("learn.adam"),
        "learn.grad_rows": c["learn.grad.client"] + c["learn.grad.server"] + c["learn.grad.mending"],
        "mending.train_s": total("mending.train"),
        "mending.epoch_s": total("mending.train") / max(mend_epochs, 1),
        "mending.train_self_s": self_t["mending.train"],
        "mending.predict_s": total("mending.predict"),
        "mending.impair_s": total("mending.impair"),
        "mending.predicted_links": c["mending.predict"],
        "server.train_s": total("server.train"),
        "server.train_self_s": self_t["server.train"],
        # server_infer also runs inside eval_views; only the round's calls count here
        "server.infer_s": t["by_parent"][("server.infer", "loop.round")],
        "server.exchange_s": total("server.exchange"),
        "server.views_sent": c["server.exchange"],
        "server.audit_events": audit_events,
        "server.ldp_s": total("server.ldp"),
        "server.aggregate_s": total("server.aggregate"),
        "server.delta_rows": c["server.aggregate"],
        "evaluate.eval_s": total("evaluate.eval"),
        "evaluate.users_ranked": c["evaluate.eval"],
        "data.split_s": total("data.split"),
        "data.policy_s": total("data.policy"),
        "loop.round_self_s": self_t["loop.round"],
        "cli.emit_s": total("cli.emit"),
        "cli.audit_write_s": total("cli.audit_write"),
        "cli.snapshot_s": total("cli.snapshot"),
        "cli.audit_bytes": audit_bytes,
    }
