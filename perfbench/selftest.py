"""Self-test of the span bookkeeping on a synthetic span tree.

Run with ``python3 perfbench/selftest.py``; traced benchmark runs call
``check()`` before they trust any self time.
"""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, self_times  # noqa: E402


class _Clock:
    """Fake perf_counter that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _check_arithmetic():
    # root [0, 10]: children a [1, 4] and b [3, 6] overlap on [3, 4], c [8, 12]
    # sticks out of the root and counts only up to 10.  a has one child
    # [2, 3]; d [20, 21] is a second root.
    start = [0.0, 1.0, 3.0, 8.0, 2.0, 20.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0, 21.0]
    parent = [-1, 0, 0, 0, 1, -1]
    want = [10.0 - (5.0 + 2.0), 3.0 - 1.0, 3.0, 4.0, 1.0, 1.0]
    got = self_times(start, end, parent)
    if got != want:
        raise AssertionError(f"self_times gave {got}, expected {want}")


def _check_tracer():
    clock = _Clock()
    mod = types.ModuleType("fake")

    def leaf(x):
        clock.now += x
        return x

    def outer(n):
        clock.now += 1.0
        total = sum(mod.leaf(0.5) for _ in range(n))
        clock.now += 2.0
        return total

    def broken():
        raise KeyError("boom")

    mod.leaf, mod.outer, mod.broken = leaf, outer, broken
    with Tracer(clock=clock) as tr:
        tr.wrap(mod, "leaf", "m.leaf", work=lambda x: 2 * x)
        tr.wrap(mod, "outer", "m.outer")
        tr.wrap(mod, "broken", "m.broken")
        mod.outer(4)
        try:
            mod.broken()
        except KeyError:
            pass
    if mod.leaf is not leaf or mod.outer is not outer or mod.broken is not broken:
        raise AssertionError("tracer did not restore the wrapped names")
    s = tr.summary()
    if s["m.outer"]["s"] != 5.0 or s["m.outer"]["self_s"] != 3.0:
        raise AssertionError(f"outer span wrong: {s['m.outer']}")
    if s["m.leaf"]["calls"] != 4 or s["m.leaf"]["self_s"] != 2.0 or s["m.leaf"]["work"] != 4.0:
        raise AssertionError(f"leaf span wrong: {s['m.leaf']}")
    if tr.failures != {"m.broken": 1} or tr.site_calls["fake.leaf"] != 4:
        raise AssertionError(f"counts wrong: {tr.failures}, {tr.site_calls}")


def check():
    _check_arithmetic()
    _check_tracer()


if __name__ == "__main__":
    check()
    print("span self-test passed")
