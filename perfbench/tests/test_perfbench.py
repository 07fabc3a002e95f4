"""Tests of the benchmark itself (not of spdmean).

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, instance_matrices  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, seed=1, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.05", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_benchmark_json_loads_with_contract_keys():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert s["paths"] == ["perfbench"]
    assert {w["name"] for w in s["workloads"]} <= set(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in s["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in s["end_to_end"])


def test_names_are_well_formed_and_unique():
    s = spec()
    names = [w["name"] for w in s["workloads"]]
    names += [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_named_metric(workload):
    s = spec()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = run_bench(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in s[group]}
        units = {m["name"]: m["unit"] for m in s[group]}
        for name, m in result["metrics"].items():
            assert m["unit"] == units[name]
            assert np.isfinite(m["value"])


@pytest.mark.parametrize("workload", ["mm-small", "gd-fig1"])
def test_traced_counts_repeat_for_the_same_seed(workload):
    out = subprocess.run(
        [sys.executable, str(BENCH / "repeat_check.py"), "--workload", workload,
         "--seed", "5", "--tiny"], capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "spd_core.eig.calls_per_iter" in out.stdout


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mm-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_normalizer_divides_by_the_sweep_time_around_each_step():
    class Blocks:
        medians = iter([2.0, 4.0, 1.0])
        budgets = []

        def run_for(self, budget_s):
            self.budgets.append(budget_s)
            return next(self.medians)

    blocks = Blocks()
    in_sweeps = reference.Normalizer(blocks, share=0.5, warmup_s=0.1)
    assert in_sweeps(6.0) == 2.0  # blocks 2 and 4 around it
    assert in_sweeps(5.0) == 2.0  # blocks 4 and 1
    assert blocks.budgets == [0.1, 3.0, 2.5]


def test_reference_sweep_is_the_certificate_sum():
    mats = instance_matrices("mm-small", 1, 0, 3, 4)
    ref = reference.Reference(mats)
    x = np.mean(mats, axis=0)
    assert np.isclose(np.linalg.norm(ref.sweep()), gate.certificate(mats, x))
    assert ref.run_for(0.0) > 0 and len(ref.samples) == 1


def test_instances_depend_only_on_their_key():
    a = instance_matrices("mm-small", 3, 1, 4, 5)
    assert np.array_equal(a, instance_matrices("mm-small", 3, 1, 4, 5))
    assert not np.array_equal(a, instance_matrices("mm-small", 4, 1, 4, 5))
    assert not np.array_equal(a, instance_matrices("mm-small", 3, 2, 4, 5))
    assert np.all(np.linalg.eigvalsh(a) > 0)


def test_self_times_on_nested_spans():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping, union 5)
    # and [8, 12] (clipped to [8, 10]); [1, 4] has a child [2, 3].
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    np.testing.assert_allclose(tracing.self_times(start, end, parent),
                               [3.0, 2.0, 3.0, 4.0, 1.0])


def test_layer_totals_add_up_to_the_solve_time():
    names = ["solvers.solve", "karcher.grad", "spd_core.eig", "karcher.ensemble"]
    spans = {
        "name": np.array([3, 0, 1, 2, 2, 2]),
        "parent": np.array([-1, -1, 1, 2, 1, -1]),
        "solve": np.array([-1, 0, 0, 0, 0, 1]),
        "weight": np.array([1, 1, 1, 4, 1, 1]),
        "start": np.array([0.0, 10.0, 11.0, 12.0, 15.0, 20.0]),
        "end": np.array([9.0, 18.0, 14.0, 13.0, 16.0, 21.0]),
    }
    totals, solve_time = tracing.layer_totals(names, spans)
    assert solve_time == 9.0  # roots inside solves: 8 + 1; set-up span excluded
    assert totals["spd_core.eig"] == {"calls": 3, "weight": 6, "self_s": 3.0, "incl_s": 3.0}
    assert totals["karcher.grad"]["self_s"] == 2.0
    assert totals["karcher.ensemble"]["calls"] == 0
    assert sum(t["self_s"] for t in totals.values()) == solve_time


def test_outermost_skips_recursive_spans():
    assert list(tracing.outermost([0, 1, 0, 0], [-1, 0, 1, -1])) == [True, True, False, True]


def test_installed_restores_names_and_reports_absent():
    mod = types.ModuleType("fake_layer")
    mod.f = lambda x: x + 1
    sys.modules["fake_layer"] = mod
    try:
        original = mod.f
        rec = tracing.SpanRecorder()
        wraps = (("fake_layer", "f", "karcher.grad"), ("fake_layer", "gone", "karcher.coeffs"),
                 ("no_such_module_here", "x", "spd_core.eig"))
        with tracing.installed(rec, wraps) as absent:
            assert mod.f is not original
            with rec.root("solvers.solve", 0):
                assert mod.f(1) == 2
        assert mod.f is original
        assert absent == ["fake_layer:gone", "no_such_module_here:x"]
        assert rec.names == ["karcher.grad", "solvers.solve"]
        assert list(rec.parent) == [-1, 0] and list(rec.solve) == [0, 0]
    finally:
        del sys.modules["fake_layer"]


def _result(mean, objectives, status="converged"):
    trace = [types.SimpleNamespace(objective=f) for f in objectives]
    return types.SimpleNamespace(mean=mean, trace=trace, status=status,
                                 iters_used=len(objectives) - 1)


def _commuting_problem():
    mats = np.array([np.diag([1.0, 4.0]), np.diag([4.0, 1.0])])
    return mats, 2.0 * np.eye(2)  # the Karcher mean of these two is 2I


def test_gate_accepts_the_exact_mean():
    mats, x = _commuting_problem()
    assert gate.check_result("mm", mats, _result(x, [3.0, 2.0, 2.0]), 1e-10) == []


def test_gate_rejects_nan_mean():
    mats, x = _commuting_problem()
    bad = x.copy()
    bad[0, 0] = np.nan
    assert gate.check_result("mm", mats, _result(bad, [3.0, 2.0]), 1e-10)


def test_gate_rejects_increasing_mm_trace():
    mats, x = _commuting_problem()
    problems = gate.check_result("mm", mats, _result(x, [3.0, 2.0, 2.5, 2.0]), 1e-10)
    assert any("increased" in p for p in problems)


def test_gate_rejects_wrong_mean_and_status():
    mats, x = _commuting_problem()
    assert gate.check_result("mm", mats, _result(np.eye(2), [3.0, 2.0]), 1e-10)
    assert gate.check_result("mm", mats, _result(x, [3.0], "max_iters"), 1e-10)
    assert gate.check_result("gd-ls", mats, _result(x, [2.0, 3.0], "max_iters"), 1e-10)
    assert gate.check_result("gd-fixed", mats, _result(x, [2.0, 3.0], "odd"), 1e-10)
    assert gate.check_result("gd-fixed", mats, _result(x, [2.0, 3.0], "diverged"), 1e-10) == []
