"""``tools/digests.py`` runs end to end on a tiny draw, is deterministic, and
gives this OpenBLAS core's golden digests (``tests/golden_digests.json``)."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import digests  # noqa: E402
from truncmix import inference  # noqa: E402


def test_digests_of_tiny_draw_repeat(tmp_path, monkeypatch):
    # The 600/200-row draw of the perfbench contract tests.
    for module in (digests.gen, digests.workloads):
        monkeypatch.setattr(module, "N_TRAIN", 600)
        monkeypatch.setattr(module, "N_TEST", 200)
    traces, run_tv_em = {}, digests.learning.run_tv_em

    def unchecked_run(Y, W, c_prime, n_iter, lgamma_sums, check_monotone=True):
        W, traces[c_prime] = run_tv_em(Y, W, c_prime, n_iter, lgamma_sums, check_monotone=False)
        return W, traces[c_prime]

    monkeypatch.setattr(digests.learning, "run_tv_em", unchecked_run)
    first = digests.digests(tmp_path / "a")
    # The untruncated run's F trace rises, checked here rather than by the run.
    full = [f for _, f in traces[digests.workloads.C].entries]
    assert len(full) == 16 and full[-1] > full[0]
    assert all(b >= a - 1e-8 * abs(a) for a, b in zip(full, full[1:]))
    assert sorted(first) == ["semi-c15", "semi-c400", "sup-c15", "tvem", "tvem-full"]
    for name in digests.ONLINE:
        assert sorted(first[name]) == ["R.npy", "W.npy", "report.json"]
    hexes = [first["tvem"], first["tvem-full"],
             *(d for name in digests.ONLINE for d in first[name].values())]
    assert all(len(h) == 16 and int(h, 16) >= 0 for h in hexes)
    # A second run in a fresh directory prints the same line.
    assert digests.digests(tmp_path / "b") == first
    want = digests.golden("tiny-draw")
    if want is None:
        pytest.skip(f"{digests.GOLDEN.name} has no entry for OpenBLAS core {digests.blas_core()}")
    lines = digests.differences(first, want, tmp_path / "a")
    assert lines == [], f"outputs differ from {digests.GOLDEN}: {'; '.join(lines)}"


def seed_7_entry() -> dict:
    """A copy of the committed SkylakeX seed-7 entry."""
    return json.loads(digests.GOLDEN.read_text())["SkylakeX"]["seed-7"]


def test_differences_name_workload_file_and_first_key(tmp_path):
    want = seed_7_entry()
    got = seed_7_entry()["digests"]
    assert digests.differences(got, want, tmp_path) == []
    # semi-c400's report moved in free_energy and test_errors, and the first
    # in the file's order is named; semi-c15's differs in its bytes alone.
    report = {"free_energy": [[0, -1.5]], "seed": 7, "test_errors": [0.5]}
    for name in ("semi-c15", "semi-c400"):
        path = tmp_path / name / "report.json"
        path.parent.mkdir()
        path.write_text(json.dumps(report))
        want["report_keys"][name] = digests.report_keys(path)
    want["report_keys"]["semi-c400"].update(free_energy="f" * 16, test_errors="e" * 16)
    got["semi-c15"]["report.json"] = "4" * 16
    got["sup-c15"]["R.npy"] = "0" * 16
    got["semi-c400"]["report.json"] = "1" * 16
    got["tvem"] = "3" * 16
    got["tvem-full"] = "5" * 16
    assert digests.differences(got, want, tmp_path) == [
        f"tvem: tvem_rep digest {'3' * 16} != a7aa9ca5025054f8",
        f"tvem-full: run_tv_em digest {'5' * 16} != {want['digests']['tvem-full']}",
        f"semi-c15: report.json {'4' * 16} != 08614ebe6868e18f, no key's value differs",
        f"semi-c400: report.json {'1' * 16} != 019be39f046a6927, first at key 'free_energy'",
        f"sup-c15: R.npy {'0' * 16} != 8caedfa24a889f2e",
    ]


@pytest.mark.parametrize("edit, status", [(None, 0), ("W.npy", 1), ("core", 1)])
def test_check_exits_1_on_a_difference(monkeypatch, capsys, edit, status):
    monkeypatch.setattr(digests, "blas_core", lambda: "Unseen" if edit == "core" else "SkylakeX")

    def run(work):
        got = seed_7_entry()["digests"]
        if edit == "W.npy":
            got["semi-c15"]["W.npy"] = "0" * 16
        return got

    monkeypatch.setattr(digests, "digests", run)
    assert digests.main(["--check"]) == status
    err = capsys.readouterr().err
    if edit == "W.npy":
        assert "semi-c15: W.npy" in err
    if edit == "core":
        assert "no seed-7 entry for core Unseen" in err


def test_blas_core_names_the_kernels():
    core = digests.blas_core()
    assert isinstance(core, str) and core
    if inference._openblas() is None:
        assert core == "unknown"


def test_blas_core_without_openblas_is_unknown(monkeypatch):
    monkeypatch.setattr(inference, "_openblas", lambda: None)
    assert digests.blas_core() == "unknown"


@pytest.mark.full
def test_seed_7_outputs_match_the_golden_digests():
    # The seed-7 draw of every workload, run end to end, as `digests.py --check`.
    if digests.golden("seed-7") is None:
        pytest.skip(f"{digests.GOLDEN.name} has no seed-7 entry for OpenBLAS core "
                    f"{digests.blas_core()}")
    assert digests.main(["--check"]) == 0
