"""The benchmark's tracer wraps truncmix names by attribute; every one must exist.

A rename or deletion in ``src/`` that the benchmark depends on fails here,
in the fast tier, rather than at benchmark time.  Only reads ``perfbench/``.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import selftest  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize(
    "owner,attr", [(t[0], t[1]) for t in workloads.TRACED],
    ids=[f"{t[0].__name__}.{t[1]}" for t in workloads.TRACED],
)
def test_traced_name_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


def test_span_selftest():
    selftest.check()
