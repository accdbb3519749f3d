"""``tools/digests.py`` runs end to end on a tiny draw and is deterministic."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import digests  # noqa: E402
from truncmix import inference  # noqa: E402


def test_digests_of_tiny_draw_repeat(tmp_path, monkeypatch):
    # The 600/200-row draw of the perfbench contract tests.
    for module in (digests.gen, digests.workloads):
        monkeypatch.setattr(module, "N_TRAIN", 600)
        monkeypatch.setattr(module, "N_TEST", 200)
    first = digests.digests(tmp_path / "a")
    assert sorted(first) == ["semi-c15", "semi-c400", "sup-c15", "tvem"]
    for name in digests.ONLINE:
        assert sorted(first[name]) == ["R.npy", "W.npy", "report.json"]
    hexes = [first["tvem"], *(d for name in digests.ONLINE for d in first[name].values())]
    assert all(len(h) == 16 and int(h, 16) >= 0 for h in hexes)
    # A second run in a fresh directory prints the same line.
    assert digests.digests(tmp_path / "b") == first


def test_blas_core_names_the_kernels():
    core = digests.blas_core()
    assert isinstance(core, str) and core
    if inference._openblas() is None:
        assert core == "unknown"


def test_blas_core_without_openblas_is_unknown(monkeypatch):
    monkeypatch.setattr(inference, "_openblas", lambda: None)
    assert digests.blas_core() == "unknown"
