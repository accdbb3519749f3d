"""In-memory spans around calls into truncmix, and the self-time arithmetic.

A Tracer replaces a function attribute on the module (or class) that looks
the name up, records one span per call, and puts every original back when it
closes.  ``from .x import y`` binds a separate reference in the importing
module, so a function used from two modules is wrapped in both, under one
span name; per-site call counts are kept apart for reconciliation.
"""

import functools
import time
from collections import Counter, defaultdict

import numpy as np


def self_times(start, end, parent) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its direct children cover.  ``parent[i]`` is the index of span i's
    parent, or -1 for a root."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(start, end)):
        covered, run_s, run_e = 0.0, None, None
        for cs, ce in sorted((max(start[c], s), min(end[c], e)) for c in children.get(i, ())):
            if ce <= cs:
                continue
            if run_e is None or cs > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = cs, ce
            else:
                run_e = max(run_e, ce)
        if run_e is not None:
            covered += run_e - run_s
        out.append((e - s) - covered)
    return out


class Tracer:
    """Records (name, start, end, parent) spans for the wrapped callables.

    ``work`` callbacks given to ``wrap`` turn a call's arguments into a number
    (say, flops) that is summed per span name.  Exceptions are counted per
    span name and re-raised.  Use as a context manager so every wrapped name
    is restored.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names, self.start, self.end, self.parent = [], [], [], []
        self.site_calls = Counter()
        self.failures = Counter()
        self.work = Counter()
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr, name, work=None):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            site = f"{owner.__module__}.{owner.__name__}.{attr}"
        else:
            original = getattr(owner, attr)
            site = f"{owner.__name__}.{attr}"
        perf = self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self.site_calls[site] += 1
            if work is not None:
                self.work[name] += work(*args, **kwargs)
            self._stack.append(i)
            self.start.append(perf())
            try:
                return original(*args, **kwargs)
            except BaseException:
                self.failures[name] += 1
                raise
            finally:
                self.end[i] = perf()
                self._stack.pop()

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def durations(self, name) -> list:
        return [e - s for n, s, e in zip(self.names, self.start, self.end) if n == name]

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, p50/p99 of call
        durations in microseconds, and summed work."""
        selfs = self_times(self.start, self.end, self.parent)
        grouped = defaultdict(lambda: ([], []))
        for n, s, e, st in zip(self.names, self.start, self.end, selfs):
            grouped[n][0].append(e - s)
            grouped[n][1].append(st)
        out = {}
        for n, (durs, sts) in grouped.items():
            d = np.asarray(durs)
            out[n] = {
                "calls": len(durs),
                "s": float(d.sum()),
                "self_s": float(sum(sts)),
                "p50_us": float(np.percentile(d, 50) * 1e6),
                "p99_us": float(np.percentile(d, 99) * 1e6),
                "work": float(self.work[n]),
            }
        return out
