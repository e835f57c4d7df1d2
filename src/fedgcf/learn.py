"""Losses, analytic gradients, and the sparse Adam optimizer.

All similarities are cosine. Gradients are derived by hand and flow from
the loss back to the layer-0 embedding tables through the propagation
operator, which is self-adjoint (symmetric normalization), so the
backward pass reuses the forward propagation with the same weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .blocks import map_blocks, row_blocks
from .graph import BipartiteGraph, EgoGraph, EmbeddingState

_NORM_FLOOR = 1e-12
# Most ranking triplets or link pairs ``compute_gradients`` holds
# temporaries for at once: with d = 64, 2**10 rows are 512 KB per
# temporary, so a block's temporaries stay in L2.
_PAIR_BLOCK = 2**10


@dataclass
class HyperParams:
    """Every tunable knob of a training run, with conventional defaults."""

    dim: int = 64
    learning_rate: float = 1e-3
    reg_lambda: float = 1e-4
    cl_weight: float = 0.1
    temperature: float = 0.2
    mend_threshold: float = 0.6
    layers_server: int = 3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    clients_per_round: int = 256
    rounds: int = 100
    local_epochs: int = 1
    server_batch: int = 2048
    mend_epochs: int = 100
    impair_fraction: float = 0.1
    mend_cap_per_user: int = 50
    ldp_clip: float = 0.0
    ldp_noise: float = 0.0
    eval_k: int = 20
    eval_every: int = 5
    patience: int = 10

    def validate(self) -> list[str]:
        problems = []
        if self.dim <= 0:
            problems.append(f"dim must be positive, got {self.dim}")
        if self.learning_rate <= 0:
            problems.append(f"learning_rate must be positive, got {self.learning_rate}")
        if self.reg_lambda < 0:
            problems.append(f"reg_lambda must be >= 0, got {self.reg_lambda}")
        if self.cl_weight < 0:
            problems.append(f"cl_weight must be >= 0, got {self.cl_weight}")
        if self.temperature <= 0:
            problems.append(f"temperature must be positive, got {self.temperature}")
        if not (-1.0 <= self.mend_threshold <= 1.0):
            problems.append(f"mend_threshold must be in [-1,1], got {self.mend_threshold}")
        if self.layers_server < 1:
            problems.append(f"layers_server must be >= 1, got {self.layers_server}")
        if not (0.0 <= self.adam_beta1 < 1.0) or not (0.0 <= self.adam_beta2 < 1.0):
            problems.append("adam betas must be in [0,1)")
        if self.adam_eps <= 0:
            problems.append(f"adam_eps must be positive, got {self.adam_eps}")
        if self.clients_per_round < 0:
            problems.append(f"clients_per_round must be >= 0, got {self.clients_per_round}")
        if self.rounds < 0:
            problems.append(f"rounds must be >= 0, got {self.rounds}")
        if self.local_epochs < 1:
            problems.append(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.server_batch < 1:
            problems.append(f"server_batch must be >= 1, got {self.server_batch}")
        if self.mend_epochs < 0:
            problems.append(f"mend_epochs must be >= 0, got {self.mend_epochs}")
        if not (0.0 <= self.impair_fraction < 1.0):
            problems.append(f"impair_fraction must be in [0,1), got {self.impair_fraction}")
        if self.mend_cap_per_user < 1:
            problems.append(f"mend_cap_per_user must be >= 1, got {self.mend_cap_per_user}")
        if self.ldp_clip < 0 or self.ldp_noise < 0:
            problems.append("ldp_clip and ldp_noise must be >= 0")
        if self.eval_k < 1:
            problems.append(f"eval_k must be >= 1, got {self.eval_k}")
        if self.eval_every < 1:
            problems.append(f"eval_every must be >= 1, got {self.eval_every}")
        if self.patience < 1:
            problems.append(f"patience must be >= 1, got {self.patience}")
        return problems


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d`` of two int row arrays by one sort, 6 to 14 times
    faster than it from 300 to 30k rows, the sizes of a device chunk's,
    the server's and the mender's row blocks."""
    rows = np.concatenate([a, b])
    rows.sort()
    return rows[np.concatenate(([True], rows[1:] != rows[:-1]))]


@dataclass(eq=False)
class RowBlock:
    """Sorted unique ``rows`` of one table and their ``values``: (n, d) for
    gradients, deltas and views, (n, 2, d) first and second moments for Adam.
    """

    rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    values: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def merge(self, new: "RowBlock") -> "RowBlock":
        """The union of both blocks' rows, ``new``'s values where both hold a row."""
        if not self:  # an empty block may not know the value width yet
            return new
        rows = _union(self.rows, new.rows)
        values = np.empty((rows.size,) + new.values.shape[1:])
        values[np.searchsorted(rows, self.rows)] = self.values
        values[np.searchsorted(rows, new.rows)] = new.values
        return RowBlock(rows, values)


def _nonzero_rows(table: np.ndarray) -> RowBlock:
    """The nonzero rows of ``table``: the table itself when every row is."""
    nonzero = np.any(table != 0.0, axis=1)
    if nonzero.all():
        return RowBlock(np.arange(len(table)), table)
    rows = np.flatnonzero(nonzero)
    return RowBlock(rows, table[rows])


@dataclass
class GradientBundle:
    """Sparse per-row vectors over the two embedding tables.

    Used both for gradients and for parameter deltas; only rows touched by
    the producing computation are present. A block's values may be the
    producer's own table (``compute_gradients`` hands out its dense
    gradient when every row is nonzero), so no caller writes them.
    """

    user: RowBlock = field(default_factory=RowBlock)
    item: RowBlock = field(default_factory=RowBlock)

    def check_finite(self) -> None:
        for name, block in (("user", self.user), ("item", self.item)):
            bad = ~np.all(np.isfinite(block.values), axis=1)
            if bad.any():
                raise NumericError(f"non-finite gradient for {name} row {block.rows[np.argmax(bad)]}")


def _safe_unit(mat: np.ndarray):
    """Normalize along the last axis; rows below the norm floor become zero
    (flagged)."""
    norms = np.linalg.norm(mat, axis=-1)
    ok = norms >= _NORM_FLOOR
    inv = np.where(ok, 1.0 / np.where(ok, norms, 1.0), 0.0)
    return mat * inv[..., None], norms, ok


def _cosine_rows(a_unit, b_unit):
    """Row-paired cosines plus gradients w.r.t. both rows, from the
    ``_safe_unit`` of each side's rows.

    d cos / d a = (b_hat - cos * a_hat) / ||a||, symmetric in b; rows with
    a zero-norm side get cosine 0 and zero gradient (the convention's
    subgradient).
    """
    a_hat, a_norm, a_ok = a_unit
    b_hat, b_norm, b_ok = b_unit
    ok = a_ok & b_ok
    cos = np.where(ok, np.sum(a_hat * b_hat, axis=1), 0.0)
    inv_a = np.where(ok, 1.0 / np.where(a_ok, a_norm, 1.0), 0.0)
    inv_b = np.where(ok, 1.0 / np.where(b_ok, b_norm, 1.0), 0.0)
    da = (b_hat - cos[:, None] * a_hat) * inv_a[:, None]
    db = (a_hat - cos[:, None] * b_hat) * inv_b[:, None]
    return cos, da, db


def _bpr_terms(user_vecs: np.ndarray, pos_vecs: np.ndarray, neg_vecs: np.ndarray):
    """Pairwise ranking losses softplus(-(s_pos - s_neg)), one per triplet,
    and gradients. The user rows are normalized once for both cosines."""
    user_unit = _safe_unit(user_vecs)
    s_pos, du_p, dp = _cosine_rows(user_unit, _safe_unit(pos_vecs))
    s_neg, du_n, dn = _cosine_rows(user_unit, _safe_unit(neg_vecs))
    x = s_pos - s_neg
    loss = np.logaddexp(0.0, -x)
    # d softplus(-x) / dx = sigmoid(x) - 1
    coef = (1.0 / (1.0 + np.exp(-x)) - 1.0)[:, None]
    g_user = coef * (du_p - du_n)
    g_pos = coef * dp
    g_neg = -coef * dn
    return loss, g_user, g_pos, g_neg


def _infonce_terms(queries: np.ndarray, keys: np.ndarray, pos_idx: np.ndarray, tau: float, trainable: str):
    """Softmax contrastive loss over cosine logits, with the gradient of the
    ``trainable`` side ("query" or "key") only.

    loss = sum_q [logsumexp_k cos(q, k)/tau - cos(q, k_pos(q))/tau].
    A single query whose positive is the only key gives exactly zero.
    ``queries`` (..., n_q, d) and ``keys`` (..., n_k, d) may carry leading
    batch axes that broadcast: each batch entry is its own softmax, its
    products are stacked matmuls with the bits of that entry alone, and the
    loss has one sum per entry.

    One (..., n_q, n_k) buffer, which this thread allocates, goes from
    logits to exponentials to the gradient of the cosines, each step in
    place. Without batch axes it does so in ``row_blocks`` of query rows on
    the selection pool (``map_blocks``). Each row's arithmetic is that of
    the whole buffer at once and the loss is summed once over all rows, so
    the bits do not depend on the blocks. A stacked call, or one whose
    logits fit one block, runs as one block on the calling thread.

    The gradient product (``buf @ k_hat`` or ``buf.T @ q_hat``) stays one
    call on the calling thread. Its inner dimension is n_k or n_q, and
    under OpenBLAS 0.3.31 on one thread its row blocks round differently
    from the whole product at some shapes: at d = 4 and 2315 rows, at the
    default budget, on a machine with AVX-512.
    """
    q_hat, q_norm, q_ok = _safe_unit(queries)
    k_hat, k_norm, k_ok = _safe_unit(keys)
    n_q, n_k = q_hat.shape[-2], k_hat.shape[-2]
    buf = np.empty(np.broadcast_shapes(q_hat.shape[:-2], k_hat.shape[:-2]) + (n_q, n_k))
    stacked = buf.ndim > 2
    pos_logits, log_denom = np.empty(buf.shape[:-1]), np.empty(buf.shape[:-1])

    def softmax_rows(a, b):
        block = np.matmul(q_hat[..., a:b, :], np.swapaxes(k_hat, -1, -2), out=buf[..., a:b, :])
        block /= tau
        pos = pos_idx[..., a:b, None]
        pos_logits[..., a:b] = np.take_along_axis(block, pos, axis=-1)[..., 0]
        row_max = block.max(axis=-1, keepdims=True)
        block -= row_max
        np.exp(block, out=block)
        denom = block.sum(axis=-1, keepdims=True)
        log_denom[..., a:b] = np.log(denom[..., 0]) + row_max[..., 0]
        block /= denom
        np.put_along_axis(block, pos, np.take_along_axis(block, pos, axis=-1) - 1.0, axis=-1)
        block /= tau  # d loss / d cos

    blocks = [(0, n_q)] if stacked else row_blocks(n_q, n_k)
    map_blocks(lambda j: softmax_rows(*blocks[j]), len(blocks))
    loss = np.sum(log_denom - pos_logits, axis=-1)
    if trainable == "query":
        g_hat, hat, norm, ok = buf @ k_hat, q_hat, q_norm, q_ok
    else:
        g_hat, hat, norm, ok = np.swapaxes(buf, -1, -2) @ q_hat, k_hat, k_norm, k_ok
    # project out the radial component: d cos / d x = (g - (g . x_hat) x_hat)/||x||
    inv = np.where(ok, 1.0 / np.where(ok, norm, 1.0), 0.0)
    return loss, (g_hat - np.sum(g_hat * hat, axis=-1, keepdims=True) * hat) * inv[..., None]


def _search_rows(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """``np.searchsorted`` of ``queries`` in sorted ``keys``, row by row when
    ``keys`` is 2-d (ids are >= 0)."""
    if keys.ndim == 1:
        return np.searchsorted(keys, queries)
    # shift row b's ids past every id of the rows before it: one sorted run
    span = max(int(keys.max(initial=0)), int(queries.max(initial=0))) + 1
    shift = np.arange(len(keys))[:, None] * span
    return np.searchsorted((keys + shift).ravel(), queries + shift) - np.arange(len(keys))[:, None] * keys.shape[1]


@dataclass
class CLTerm:
    """One contrastive term inside a LossSpec.

    ``rows`` index the propagated table (``kind`` selects user or item) and
    supply the trainable side; ``ids`` are the matching semantic node ids
    used to align with ``fixed_ids``/``fixed_views``, which are constants.
    ``trainable`` says whether the propagated views act as the queries or
    as the keys of the softmax; every query id needs a same-id key, its
    positive. Key ids must be sorted and unique; ``pos_idx`` holds each
    query's positive key index.

    A stacked term holds one softmax per star of an ``EgoGraph`` forest:
    ``rows`` and ``ids`` are (b, n), ``fixed_ids`` (b, m) and
    ``fixed_views`` (b, m, d), or (m,) and (m, d) when all b share the
    same constants.
    """

    kind: str
    trainable: str
    rows: np.ndarray
    ids: np.ndarray
    fixed_ids: np.ndarray
    fixed_views: np.ndarray
    pos_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("user", "item"):
            raise ValueError(f"kind must be user|item, got {self.kind!r}")
        if self.trainable not in ("query", "key"):
            raise ValueError(f"trainable must be query|key, got {self.trainable!r}")
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.fixed_ids = np.asarray(self.fixed_ids, dtype=np.int64)
        if self.rows.shape != self.ids.shape:
            raise ValueError("rows and ids must align")
        if self.fixed_views.shape[:-1] != self.fixed_ids.shape:
            raise ValueError("fixed_views and fixed_ids must align")
        queries, keys = (self.ids, self.fixed_ids) if self.trainable == "query" else (self.fixed_ids, self.ids)
        self.pos_idx = np.zeros(queries.shape, dtype=np.int64)
        if keys.size:
            if np.any(np.diff(keys, axis=-1) <= 0):
                raise ValueError("key ids must be sorted and unique")
            self.pos_idx = _search_rows(keys, queries)
            at = np.minimum(self.pos_idx, keys.shape[-1] - 1)
            found = keys[at] if keys.ndim == 1 else np.take_along_axis(keys, at, axis=-1)
            missing = queries[found != queries]
            if missing.size:
                raise ValueError(f"query ids {np.unique(missing).tolist()} lack a same-id positive key")


@dataclass
class LossSpec:
    """Which loss terms to evaluate on which graph context.

    BPR triplets index rows of the propagated tables. ``link_positives`` /
    ``link_negatives`` are (u,i) pairs for the mending objective.
    ``reg_user_rows`` / ``reg_item_rows`` are the layer-0 rows regularized
    once in the combined objective; callers pass them ascending and unique
    (others are sorted and deduplicated first). ``views``, when given, are
    the final (user, item) views of the state over ``graph`` with
    ``alpha``, which the gradient then reads instead of computing its
    forward pass.
    """

    graph: BipartiteGraph | EgoGraph
    alpha: np.ndarray
    bpr_users: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    bpr_pos: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    bpr_neg: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    cl_terms: list[CLTerm] = field(default_factory=list)
    link_positives: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    link_negatives: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))
    tau: float = 0.2
    cl_weight: float = 0.0
    reg_lambda: float = 0.0
    reg_user_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    reg_item_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    views: tuple[np.ndarray, np.ndarray] | None = None

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"temperature must be positive, got {self.tau}")


@dataclass
class LossParts:
    """Loss components; ``total = bpr + cl_weight*cl + mend + reg_lambda*reg``.

    Floats, or arrays with one entry per star over an ``EgoGraph`` forest.
    """

    bpr: float = 0.0
    cl: float = 0.0
    mend: float = 0.0
    reg: float = 0.0
    total: float = 0.0


def add_rows(target: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """Unbuffered ``target[rows] += values``: a repeated row takes each of
    its values in turn, in the C order of ``rows``, bit for bit as numpy's
    unbuffered ``ufunc.at`` adds them, but without its per-element loop.

    Where no row repeats, each gets one addition from one fancy ``+=``.
    Otherwise the j-th occurrence of every row is added by the j-th fancy
    ``+=``, so each row takes its contributions one at a time in order.
    """
    flat = np.sort(rows, axis=None)
    if np.all(flat[1:] != flat[:-1]):
        target[rows] += values
        return
    rows = rows.reshape(-1)
    values = values.reshape(rows.size, *target.shape[1:])
    order = np.argsort(rows, kind="stable")
    # flat is rows[order]: rank each occurrence within its run of one row
    first = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    rank = np.arange(rows.size) - np.repeat(first, np.diff(np.append(first, rows.size)))
    by_rank = order[np.argsort(rank, kind="stable")]
    for at in np.split(by_rank, np.cumsum(np.bincount(rank))[:-1]):
        target[rows[at]] += values[at]


def _star_sums(values: np.ndarray, owners: np.ndarray, n: int) -> np.ndarray:
    """Per star of a forest, ``np.sum`` of the rows of ``values`` it owns,
    bit for bit: each star's rows form one run in their given order, and
    the runs of one length are summed as the rows of one matrix, which
    numpy adds exactly as it adds each run alone. Owners that already
    ascend, as a forest's callers pass them, are read in place."""
    if np.all(owners[1:] >= owners[:-1]):
        flat = values.reshape(-1)
    else:
        flat = values[np.argsort(owners, kind="stable")].reshape(-1)
    counts = np.bincount(owners, minlength=n) * (flat.size // max(len(values), 1))
    starts = np.cumsum(counts) - counts
    out = np.zeros(n)
    for c in np.unique(counts[counts > 0]).tolist():
        stars = np.flatnonzero(counts == c)
        out[stars] = flat[starts[stars, None] + np.arange(c)].sum(axis=1)
    return out


def _distinct(rows) -> np.ndarray:
    """Row ids ascending and unique: as given when they already are, as
    every caller passes them, else through ``np.unique``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size > 1 and not np.all(rows[1:] > rows[:-1]):
        rows = np.unique(rows)
    return rows


def _rows_of(table: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray]:
    """An index of ascending unique ``rows`` and ``table[rows]``: a whole
    slice and the table itself, with no copy, when they are all of its rows."""
    n = len(table)
    if rows.size == n > 0 and rows[0] == 0 and rows[-1] == n - 1:
        return slice(None), table
    return rows, table[rows]


def compute_gradients(spec: LossSpec, state: EmbeddingState) -> tuple[LossParts, GradientBundle]:
    """Evaluate the composite loss and its layer-0 gradient bundle.

    The forward pass propagates layer 0 through the graph and combines the
    layers, or reads ``spec.views``; every loss term produces gradients
    with respect to the final views, which the self-adjoint propagation
    maps back to layer 0. The regularizer acts on layer-0 rows directly.

    Over an ``EgoGraph`` forest the loss parts hold one entry per star,
    each bitwise the loss of that star alone: a BPR triplet or a link
    belongs to its user row's star and a regularized row to its own.
    """
    forest = isinstance(spec.graph, EgoGraph)
    if spec.views is None:
        final_u, final_i = spec.graph.combine(state.user, state.item, spec.alpha)
    else:
        final_u, final_i = spec.views
    grad_u = np.zeros_like(final_u)
    grad_i = np.zeros_like(final_i)
    parts = LossParts(*(np.zeros(spec.graph.n_users) for _ in range(5))) if forest else LossParts()

    def loss_sum(values, owners):
        return _star_sums(values, owners, spec.graph.n_users) if forest else float(np.sum(values))

    users = np.asarray(spec.bpr_users, dtype=np.int64)
    if users.size:
        pos = np.asarray(spec.bpr_pos, dtype=np.int64)
        neg = np.asarray(spec.bpr_neg, dtype=np.int64)
        if users.shape != pos.shape or users.shape != neg.shape:
            raise ValueError("bpr triplet arrays must align")
        # triplets in blocks, as the link terms below: the user and positive
        # terms go in block by block, but every positive term comes before
        # any negative one, so the negative terms wait for one add at the end,
        # and the losses are summed once, as one array
        loss = np.empty(users.shape[0])
        g_neg = np.empty((users.shape[0], final_i.shape[1]))
        for lo in range(0, users.shape[0], _PAIR_BLOCK):
            at = slice(lo, lo + _PAIR_BLOCK)
            loss[at], g_user, g_pos, g_neg[at] = _bpr_terms(final_u[users[at]], final_i[pos[at]], final_i[neg[at]])
            add_rows(grad_u, users[at], g_user)
            add_rows(grad_i, pos[at], g_pos)
        add_rows(grad_i, neg, g_neg)
        parts.bpr = loss_sum(loss, users)

    if spec.cl_terms and spec.cl_weight > 0.0:
        for term in spec.cl_terms:
            if term.rows.size == 0 or term.fixed_ids.size == 0:
                continue
            table, target = (final_u, grad_u) if term.kind == "user" else (final_i, grad_i)
            views = table[term.rows]
            if term.trainable == "query":
                loss, g_train = _infonce_terms(views, term.fixed_views, term.pos_idx, spec.tau, "query")
            else:
                loss, g_train = _infonce_terms(term.fixed_views, views, term.pos_idx, spec.tau, "key")
            if forest:
                first = np.atleast_2d(term.rows)[:, 0]
                parts.cl[first if term.kind == "user" else spec.graph.item_owner[first]] += loss
            else:
                parts.cl += float(np.sum(loss))
            add_rows(target, term.rows, spec.cl_weight * g_train)

    # link terms in blocks of pairs: each pair's terms do not depend on the
    # others, and the blocks add their rows in pair order, so only the size
    # of the temporaries depends on the block
    for pairs, target_val in ((spec.link_positives, 1.0), (spec.link_negatives, 0.0)):
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if pairs.shape[0] == 0:
            continue
        resid = np.empty(pairs.shape[0])
        for lo in range(0, pairs.shape[0], _PAIR_BLOCK):
            at = slice(lo, lo + _PAIR_BLOCK)
            users, items = pairs[at, 0], pairs[at, 1]
            cos, d_zu, d_zi = _cosine_rows(_safe_unit(final_u[users]), _safe_unit(final_i[items]))
            block = resid[at]
            np.subtract(cos, target_val, out=block)
            sign = np.sign(block)[:, None]
            add_rows(grad_u, users, sign * d_zu)
            add_rows(grad_i, items, sign * d_zi)
        parts.mend += loss_sum(np.abs(resid), pairs[:, 0])

    reg_u, reg_i = _distinct(spec.reg_user_rows), _distinct(spec.reg_item_rows)
    (at_u, reg_user), (at_i, reg_item) = _rows_of(state.user, reg_u), _rows_of(state.item, reg_i)
    if reg_u.size:
        parts.reg += loss_sum(reg_user**2, reg_u)
    if reg_i.size:
        parts.reg += loss_sum(reg_item**2, spec.graph.item_owner[reg_i] if forest else None)

    parts.total = parts.bpr + spec.cl_weight * parts.cl + parts.mend + spec.reg_lambda * parts.reg

    # adjoint pass: the propagation operator is symmetric, so pushing the
    # final-view gradients through the same propagate+combine yields the
    # layer-0 gradients
    grad_u0, grad_i0 = spec.graph.combine(grad_u, grad_i, spec.alpha)
    if spec.reg_lambda > 0.0:
        if reg_u.size:
            grad_u0[at_u] += 2.0 * spec.reg_lambda * reg_user
        if reg_i.size:
            grad_i0[at_i] += 2.0 * spec.reg_lambda * reg_item
    bundle = GradientBundle(_nonzero_rows(grad_u0), _nonzero_rows(grad_i0))
    bundle.check_finite()
    return parts, bundle


@dataclass
class AdamMoments:
    """Sparse Adam state: per table, the first and second moments of every
    row it has stepped (``values[:, 0]`` and ``values[:, 1]``) and its step
    count. Untouched rows never materialize moments."""

    user: RowBlock = field(default_factory=RowBlock)
    item: RowBlock = field(default_factory=RowBlock)
    t_user: int = 0
    t_item: int = 0


def adam_update_rows(grads: RowBlock, moments: RowBlock, t: int | np.ndarray, hyper: HyperParams) -> RowBlock:
    """One bias-corrected Adam step over a block of row gradients.

    Returns the deltas to add to those rows; ``moments`` grows by the rows
    it has not seen (at zero) and updates in place. ``t`` is the
    already-incremented step count for this table: one count, or one per
    row when the block holds the rows of several devices, each stepping
    its own table.
    """
    b1, b2 = hyper.adam_beta1, hyper.adam_beta2
    # Python's float power for each distinct count: np.power rounds some
    # powers differently
    counts, at_t = np.unique(np.atleast_1d(t), return_inverse=True)
    bc1 = np.array([1.0 - b1**c for c in counts.tolist()])[at_t, None]
    bc2 = np.array([1.0 - b2**c for c in counts.tolist()])[at_t, None]
    if len(moments) != len(grads) or not np.array_equal(moments.rows, grads.rows):
        rows = _union(moments.rows, grads.rows)
        if rows.size > len(moments):
            mv = np.zeros((rows.size, 2, grads.values.shape[1]))
            if len(moments):
                mv[np.searchsorted(rows, moments.rows)] = moments.values
            moments.rows, moments.values = rows, mv
    # the gradient's rows are now among the moments' rows; when they are all
    # of them the moments update in place, else theirs are gathered and
    # scattered back
    every = len(moments) == len(grads)
    at = slice(None) if every else np.searchsorted(moments.rows, grads.rows)
    mv = moments.values[at]
    m, v = mv[:, 0], mv[:, 1]
    g = grads.values
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and the step
    # -lr (m / bc1) / (sqrt(v / bc2) + eps), each operation as that formula
    # takes it, through two temporaries
    a, b = np.empty_like(g), np.empty_like(g)
    m *= b1
    m += np.multiply(1.0 - b1, g, out=a)
    v *= b2
    np.multiply(1.0 - b2, g, out=a)
    v += np.multiply(a, g, out=a)
    if not every:
        moments.values[at] = mv
    np.divide(m, bc1, out=a)
    np.multiply(-hyper.learning_rate, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += hyper.adam_eps
    return RowBlock(grads.rows, np.divide(a, b, out=a))


def adam_step(
    state: EmbeddingState | None, grads: GradientBundle, moments: AdamMoments, hyper: HyperParams
) -> GradientBundle:
    """One Adam step on the touched rows: returns the deltas and adds them
    to ``state`` in place (None: the deltas only).

    An empty bundle leaves the state, the moments, and the step counters
    unchanged, and gives empty deltas.
    """
    deltas = GradientBundle()
    if grads.user:
        moments.t_user += 1
        deltas.user = adam_update_rows(grads.user, moments.user, moments.t_user, hyper)
    if grads.item:
        moments.t_item += 1
        deltas.item = adam_update_rows(grads.item, moments.item, moments.t_item, hyper)
    if state is not None:
        for table, delta in ((state.user, deltas.user), (state.item, deltas.item)):
            if delta:
                table[delta.rows] += delta.values
    return deltas
