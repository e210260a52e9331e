"""Tests of the benchmark itself.

    python3 -m pytest drbench/tests -q

They pin three things: workload inputs are a pure function of the seed,
the metric and workload names the runner prints are the ones
``BENCHMARK.json`` declares, and every output check rejects a
deliberately corrupted result.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, FabricLight  # noqa: E402


@pytest.fixture(scope="module")
def declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name, tmp_path):
    make = WORKLOADS[name]
    first = checks.digest(make(7, tmp_path).inputs())
    assert checks.digest(make(7, tmp_path).inputs()) == first
    assert checks.digest(make(8, tmp_path).inputs()) != first


# -- names -----------------------------------------------------------------


def test_workload_names_match(declared):
    assert [w["name"] for w in declared["workloads"]] == sorted(WORKLOADS)
    for w in declared["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


def test_metric_names_and_units_match(declared):
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == \
        run.PER_LAYER


def test_every_layer_time_is_reported():
    assert set(run.LAYER_TIMES) <= set(run.PER_LAYER)


# -- checks on corrupted results ---------------------------------------------


def test_digest_check_rejects_a_changed_result():
    ref = checks.digest({"gpu_ipc": 0.151, "counters": {"gpu.insts": 10}})
    bad = checks.digest({"gpu_ipc": 0.151, "counters": {"gpu.insts": 11}})
    assert checks.same_digest(ref, ref) is None
    assert checks.same_digest(bad, ref) is not None


def test_dr_must_beat_baseline():
    assert checks.dr_beats_baseline(0.140, 0.155) is None
    assert checks.dr_beats_baseline(0.140, 0.140) is not None
    assert checks.dr_beats_baseline(0.155, 0.140) is not None


def test_warm_rows_must_equal_cold_rows():
    cold = [("HS", {"baseline": 0.16, "dr": 0.17})]
    assert checks.rows_equal(cold, [("HS", {"baseline": 0.16, "dr": 0.17})]) \
        is None
    assert checks.rows_equal(cold, [("HS", {"baseline": 0.16, "dr": 0.18})]) \
        is not None


def test_lost_or_stuck_transactions_fail():
    assert checks.nothing_lost(0, 0) is None
    assert checks.nothing_lost(1, 0) is not None
    assert checks.nothing_lost(0, 3) is not None


class _FixedClock:
    def measure(self, fn):
        return fn(), 1.0, 1.0

    def checkpoint(self):
        pass


def test_fabric_episode_conserves_packets_and_repeats(tmp_path):
    workload = FabricLight(3, tmp_path)
    first = workload.rep(_FixedClock())
    again = workload.rep(_FixedClock())
    assert (first.ops, first.failures) == (1, [])
    assert (again.ops, again.failures) == (1, [])
    accepted = workload.context["accepted"]
    assert accepted == workload.context["delivered"] > 0
    assert checks.packets_conserved(accepted, accepted - 1, 0) is not None
    assert checks.packets_conserved(accepted, accepted, 9) is not None
    assert checks.packets_conserved(accepted, accepted, 0, 1) is not None


def test_a_changed_repetition_counts_as_failed(tmp_path):
    workload = FabricLight(3, tmp_path)
    workload.rep(_FixedClock())
    workload.reference["episode"] = "0" * 16  # corrupt the first result
    rep = workload.rep(_FixedClock())
    assert rep.ops == 1 and len(rep.failures) == 1


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    import shutil
    import subprocess

    (tmp_path / "drbench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "drbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "drbench/run.py", "--workload", "fabric_light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
