"""Deterministic derivation of named RNG sub-streams.

All randomness in a run flows from three top-level seeds (data, policy,
training). Every consumer derives its own child generator from one of
those seeds plus a purpose tag and any loop indices, so adding or removing
one consumer never shifts the draws seen by another.
"""

from __future__ import annotations

import zlib

import numpy as np


def child_rng(*keys: int | str) -> np.random.Generator:
    """Return a Generator determined solely by the key tuple.

    String keys are hashed with crc32; integer keys are masked to 32 bits
    so negative ids (the server uses -1) stay valid seed material. The
    words reach ``default_rng`` as one uint32 array, the entropy numpy
    makes of the same words as a list of ints, without its per-int
    conversion.
    """
    words = []
    for key in keys:
        if isinstance(key, str):
            words.append(zlib.crc32(key.encode("utf-8")))
        else:
            words.append(int(key) & 0xFFFFFFFF)
    return np.random.default_rng(np.array(words, dtype=np.uint32))


# numpy's choice without replacement shuffles the tail of arange(c) instead
# of running Floyd's algorithm when c > _TAIL_POP and n > c // _TAIL_DIV
_TAIL_POP, _TAIL_DIV = 10_000, 50
# the longest Floyd run that choice_runs steps through as arrays
_STEPPED_RUN = 64


def choice_runs(rng: np.random.Generator, pops, sizes) -> np.ndarray:
    """The draws of ``rng.choice(c, size=n, replace=n > c)`` for each
    ``(c, n)`` of ``pops`` and ``sizes`` in turn (each c and n at least 1),
    laid end to end, with ``rng`` left where those calls leave it.

    numpy 2's ``choice``, without ``p``, draws ``rng.integers`` bounds:
    - with replacement, n draws with bound c;
    - else, when c > 10,000 and n > c // 50, it shuffles the tail of
      ``arange(c)``: for i from c - 1 down to max(c - n, 1) it swaps i with
      a draw of bound i + 1, and returns the last n entries;
    - else Floyd's algorithm (Bentley & Floyd, CACM 1987): for j from
      c - n to c - 1 a draw v of bound j + 1 is kept, or j when v was kept
      before; then a Fisher-Yates shuffle swaps entry i, for i from n - 1
      down to 1, with a draw of bound i + 1.

    The bounds of every run are known up front, so all draws come from one
    ``rng.integers`` call over the array of bounds, which draws what the
    scalar calls would, in turn. For runs of at most ``_STEPPED_RUN``
    draws, Floyd's rule and the swaps then run step by step, each step over
    every run still that long: at most 2 * ``_STEPPED_RUN`` array steps, and
    step s compares each pick with the s before it. A run that long costs
    O(n**2) comparisons where numpy's hash set costs O(n), so longer runs,
    and the rare tail shuffles, run one Python step per draw instead, in
    time linear in the run.
    """
    pops = np.asarray(pops, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    replace = sizes > pops
    tail = ~replace & (pops > _TAIL_POP) & (sizes > pops // _TAIL_DIV)
    floyd = ~replace & ~tail
    tail_stop = np.maximum(pops - sizes, 1)
    lengths = np.select([replace, tail], [sizes, pops - tail_stop], 2 * sizes - 1)
    starts = np.cumsum(lengths) - lengths
    # the bound of each draw, from its step q in its run
    q = np.arange(lengths.sum()) - np.repeat(starts, lengths)
    c, n = np.repeat(pops, lengths), np.repeat(sizes, lengths)
    bounds = np.select(
        [np.repeat(replace, lengths), np.repeat(tail, lengths), q < n],
        [c, c - q, c - n + 1 + q],
        2 * n - q,  # Floyd's shuffle
    )
    draws = rng.integers(0, bounds)

    # a run's first n draws are its picks, with replacement or by Floyd's
    out_starts = np.cumsum(sizes) - sizes
    picks = np.repeat(~tail, sizes)
    out = np.zeros(picks.size, dtype=np.int64)
    out[picks] = draws[(np.repeat(starts - out_starts, sizes) + np.arange(picks.size))[picks]]

    # Floyd's rule and shuffle, step by step over the runs still that long
    runs = np.flatnonzero(floyd & (sizes <= _STEPPED_RUN))
    runs = runs[np.argsort(-sizes[runs], kind="stable")]  # longest first
    length, at, shuffle_at = sizes[runs], out_starts[runs], starts[runs] + sizes[runs]
    longest = int(length[0]) if runs.size else 0
    for step in range(1, longest):
        k = np.count_nonzero(length > step)
        here = at[:k] + step
        seen = (out[at[:k, None] + np.arange(step)] == out[here, None]).any(axis=1)
        # j = c - n + step, free since every earlier pick is below it
        out[here[seen]] = (pops[runs[:k]] - length[:k] + step)[seen]
    for step in range(longest - 1):
        k = np.count_nonzero(length > step + 1)
        i = at[:k] + length[:k] - 1 - step
        j = at[:k] + draws[shuffle_at[:k] + step]
        out[i], out[j] = out[j], out[i]

    for r in np.flatnonzero(floyd & (sizes > _STEPPED_RUN)).tolist():
        pop, size, a = int(pops[r]), int(sizes[r]), int(out_starts[r])
        picks, seen = out[a : a + size].tolist(), set()
        for step, v in enumerate(picks):
            if v in seen:
                picks[step] = v = pop - size + step
            seen.add(v)
        swaps = draws[starts[r] + size : starts[r] + lengths[r]].tolist()
        for i, j in zip(range(size - 1, 0, -1), swaps):
            picks[i], picks[j] = picks[j], picks[i]
        out[a : a + size] = picks

    for r in np.flatnonzero(tail).tolist():
        pop, size = int(pops[r]), int(sizes[r])
        pool = list(range(pop))
        swaps = draws[starts[r] : starts[r] + lengths[r]].tolist()
        for i, j in zip(range(pop - 1, int(tail_stop[r]) - 1, -1), swaps):
            pool[i], pool[j] = pool[j], pool[i]
        out[out_starts[r] : out_starts[r] + size] = pool[pop - size :]
    return out
