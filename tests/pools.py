"""Stand-ins for the selection pool (``fedgcf.blocks._POOL``) that fix the
order in which blocks run, for the tests of every block map on it."""

import fedgcf.blocks as blocks_module


class _Done:
    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class InlinePool:
    """Runs each block as it is submitted, so blocks finish in block order."""

    def __init__(self):
        self.order = []

    def submit(self, fn, j):
        self.order.append(j)
        return _Done(fn(j))


class _Held:
    def __init__(self, pool):
        self.pool = pool

    def result(self):
        self.pool.drain()
        return self.value


class ReversePool:
    """Holds submitted blocks until a result is asked for, then runs every
    held block, the last submitted first."""

    def __init__(self):
        self.held, self.order = [], []

    def submit(self, fn, j):
        job = _Held(self)
        self.held.append((job, fn, j))
        return job

    def drain(self):
        while self.held:
            job, fn, j = self.held.pop()
            self.order.append(j)
            job.value = fn(j)


def under_three_pools(monkeypatch, call):
    """``call()`` on the worker pool, inline in block order and with blocks
    finishing in reverse order."""
    inline, backward = InlinePool(), ReversePool()
    results = [call()]
    for pool in (inline, backward):
        monkeypatch.setattr(blocks_module, "_POOL", pool)
        results.append(call())
    assert len(inline.order) > 2 and inline.order == sorted(inline.order)
    assert sorted(backward.order) == inline.order != backward.order
    return results
