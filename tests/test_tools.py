"""The repository's tools: ``tools/pairs.py`` against the committed BENCH files, and
``tools/fingerprint.py``'s line counter, ``blas``, ``setup`` (with their ``skew``, ``wide`` and
``floor`` copies), ``check`` and ``census`` lines and warning count."""

import importlib.util
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spdmean.cli as cli
import spdmean.selfcheck as selfcheck
import spdmean.solvers as solvers
from spdmean import spd_core
from spdmean.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_pr*.json"))


def _load(name, folder="tools"):
    spec = importlib.util.spec_from_file_location(name, ROOT / folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")


def test_there_are_bench_files():
    assert len(BENCH_FILES) >= 8


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_recomputes_a_committed_bench_file(path):
    doc = json.loads(path.read_text())
    assert doc["schema"] == pairs.SCHEMA
    assert doc["claim"]["rule"] == pairs.CLAIM_RULE
    for workload in doc["workloads"].values():
        for record in workload["metrics"].values():
            assert pairs.metric_record(record["parent_runs"], record["change_runs"],
                                       record["better"], record["unit"]) == record
    claim = doc["claim"]
    record = doc["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    assert pairs.claim_met(record) is claim["met"]


def test_ties_count_for_neither_side_and_wins_follow_better():
    lower = pairs.metric_record([2.0, 2.0, 3.0], [1.0, 2.0, 4.0], "lower", "s")
    higher = pairs.metric_record([2.0, 2.0, 3.0], [1.0, 2.0, 4.0], "higher", "1/s")
    assert (lower["change_wins"], lower["ties"]) == (1, 1)
    assert (higher["change_wins"], higher["ties"]) == (1, 1)
    slower = pairs.metric_record([2.0, 2.0, 3.0], [3.0, 3.0, 4.0], "lower", "s")
    faster = pairs.metric_record([2.0, 2.0, 3.0], [3.0, 3.0, 4.0], "higher", "1/s")
    assert slower["change_over_parent"] == faster["change_over_parent"] == 0.5
    assert pairs.beyond_bound(slower, 0.4) and not pairs.beyond_bound(slower, 0.6)
    assert not pairs.beyond_bound(faster, 0.4)


def test_a_tiny_two_pair_run_writes_nothing_into_the_checkouts(tmp_path, capsys):
    before = sorted(p for p in ROOT.rglob("*") if ".git" not in p.parts)
    out = tmp_path / "bench.json"
    assert pairs.main([str(ROOT), str(ROOT), "--workload", "mm-small", "--pairs", "2",
                       "--tiny", "--seconds", "0.1", "--claim", "setup_s", "--out", str(out)]) == 0
    assert sorted(p for p in ROOT.rglob("*") if ".git" not in p.parts) == before
    doc = json.loads(out.read_text())
    workload = doc["workloads"]["mm-small"]
    assert workload["seeds"] == [1, 2]
    assert workload["failed"] == {"parent": 0, "change": 0}
    assert set(workload["metrics"]) == {m["name"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert doc["claim"]["met"] is pairs.claim_met(workload["metrics"]["setup_s"])
    assert "claim mm-small setup_s" in capsys.readouterr().out


# A module whose counts are worked out by hand: 11 lines in all, and the code
# lines are 7 (def), 9-10 (a string that is no docstring) and 11 (code and a comment).
COUNTED_MODULE = '''"""Module docstring,
on two lines."""

# a comment line


def f(x):
    """Function docstring."""
    s = """a string
that is not a docstring"""
    return s + x  # a comment after code
'''


def test_line_counts_skip_docstrings_comments_and_blank_lines(tmp_path, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # loading fingerprint sets them; teardown restores them
    fingerprint = _load("fingerprint")
    (tmp_path / "module.py").write_text(COUNTED_MODULE)
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert fingerprint.line_counts(tmp_path) == (11, 4)


def test_check_lines_are_one_per_table_entry_and_repeat(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    lines = fingerprint.check_lines(selfcheck)
    assert [line.split()[:2] for line in lines] == [["check", str(i)]
                                                    for i in range(len(selfcheck.TABLE))]
    assert fingerprint.check_lines(selfcheck) == lines


def test_blas_line_names_numpy_the_blas_and_the_pinned_threads(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    line = fingerprint.blas_line().split()
    assert line[:4] == ["blas", f"numpy={np.__version__}", blas["name"], blas["version"]]
    assert line[4:] == ["OPENBLAS_NUM_THREADS=1", "OMP_NUM_THREADS=1", "MKL_NUM_THREADS=1"]


def test_skew_setup_lines_take_the_measured_symmetry_test(monkeypatch):
    # a setup line's instance is equal to its transpose and skips the measurement of
    # ‖A − Aᵀ‖; its skew copy is not, stays within SYM_TOL, and is measured
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    workloads = _load("workloads", "perfbench")
    sizes = []

    def counted(mats):
        sizes.append(len(mats))
        return real(mats)

    real = spd_core._sq_norms
    monkeypatch.setattr(spd_core, "_sq_norms", counted)
    for name in fingerprint.WORKLOADS:
        w = workloads.WORKLOADS[name]
        raw = workloads.instance_matrices(w.name, fingerprint.SEED, 0, w.n, w.p, w.scale_first_by)
        skew = fingerprint.skewed(raw)
        changed = np.zeros(raw.shape, dtype=bool)
        changed[:, 0, 1] = True
        assert np.array_equal(raw, raw.swapaxes(1, 2)) and np.array_equal(skew != raw, changed)
        hashes = []
        for stack, want in ((raw, [w.n]), (skew, [w.n] * 3)):
            sizes.clear()
            hashes.append(fingerprint.setup_hash(solvers, stack)[2])
            assert sizes == want
        assert hashes[0] != hashes[1] == fingerprint.setup_hash(solvers, skew)[2]


def test_wide_setup_lines_measure_the_skew_copy_at_both_ends_of_the_range(monkeypatch):
    # each copy is measured, and scaling by 2^±600 is exact: its symmetrized stack is the
    # skew copy's scaled alike, so the line fingerprints the same decisions at 2^±600
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    workloads = _load("workloads", "perfbench")
    sizes = []

    def counted(mats):
        sizes.append(len(mats))
        return real(mats)

    real = spd_core._sq_norms
    monkeypatch.setattr(spd_core, "_sq_norms", counted)
    for name in fingerprint.WORKLOADS:
        w = workloads.WORKLOADS[name]
        raw = workloads.instance_matrices(w.name, fingerprint.SEED, 0, w.n, w.p, w.scale_first_by)
        skew = fingerprint.skewed(raw)
        mats = solvers.Ensemble.from_matrices(skew).mats
        hashes = []
        for e in (600, -600):
            sizes.clear()
            got, _, digest = fingerprint.setup_hash(solvers, np.ldexp(skew, e))
            assert sizes == [w.n] * 3
            assert got.mats.tobytes() == np.ldexp(mats, e).tobytes()
            hashes.append(digest)
        wide = fingerprint.wide_hash(solvers, skew)
        assert wide == fingerprint._digest(*hashes) != fingerprint.setup_hash(solvers, skew)[2]


def test_floor_setup_lines_take_the_eigenvalue_test_and_repeat(monkeypatch):
    # matrix 0 at condition 1e12 is not cleared by the Cholesky bound, so the copy's set-up
    # decomposes the whole stack by one eigh; the copy at condition 1e14 is refused
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    workloads = _load("workloads", "perfbench")
    shapes = []

    def counted(m, vectors=True):
        shapes.append(m.shape)
        return real(m, vectors)

    real = spd_core.eigh
    monkeypatch.setattr(spd_core, "eigh", counted)
    for name in fingerprint.WORKLOADS:
        w = workloads.WORKLOADS[name]
        raw = workloads.instance_matrices(w.name, fingerprint.SEED, 0, w.n, w.p, w.scale_first_by)
        copy = fingerprint.conditioned(raw, 1e12)
        assert np.array_equal(copy[1:], raw[1:]) and np.array_equal(copy[0], copy[0].T)
        shapes.clear()
        digest = fingerprint.setup_hash(solvers, copy)[2]
        assert shapes == [(w.n, w.p, w.p)]
        with pytest.raises(DomainError, match="^matrix 0 is not positive definite "):
            solvers.Ensemble.from_matrices(fingerprint.conditioned(raw, 1e14))
        floor = fingerprint.floor_hash(solvers, raw)
        assert floor == fingerprint.floor_hash(solvers, raw)
        assert floor not in (digest, fingerprint.setup_hash(solvers, raw)[2])


def test_floor_copies_keep_the_spectral_factors_with_or_without_a_cholesky_factor(monkeypatch):
    # the bound does not clear a floor copy, so its set-up keeps the spectral factors of its
    # eigenvalue test: the same bytes where LAPACK refuses every Cholesky factorization
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    workloads = _load("workloads", "perfbench")

    def refused(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    def setup(copy):
        e = solvers.Ensemble.from_matrices(copy)
        return e.mats.tobytes(), e.inv_factors.tobytes(), solvers.arithmetic_mean_init(e).tobytes()

    for name in fingerprint.WORKLOADS:
        w = workloads.WORKLOADS[name]
        for i in fingerprint.INSTANCES:
            raw = workloads.instance_matrices(w.name, fingerprint.SEED, i, w.n, w.p,
                                              w.scale_first_by)
            copy = fingerprint.conditioned(raw, 1e12)
            got = setup(copy)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "cholesky", refused)
                assert setup(copy) == got


def test_warnings_line_counts_a_warning_planted_in_a_check(monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")

    def planted(rng):
        warnings.warn("planted", RuntimeWarning)
        return 0.0, True

    clean = selfcheck.TABLE[0]
    monkeypatch.setattr(selfcheck, "TABLE", [clean, ("planted", None, planted, "")])
    lines = list(fingerprint.counted(lambda: fingerprint.check_lines(selfcheck)))
    assert [line.split()[:2] for line in lines] == [["check", "0"], ["check", "1"]] + [
        ["warnings", "1"]]
    assert lines[-1] == "warnings 1"
    monkeypatch.setattr(selfcheck, "TABLE", [clean])
    assert list(fingerprint.counted(lambda: fingerprint.check_lines(selfcheck))) == [
        lines[0], "warnings 0"]


def test_census_of_a_small_corpus_finds_no_violation(monkeypatch):
    # the first 300 files of the census's stream, about a second; the counts are reported,
    # not gated, but no file may end in a violation
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    assert fingerprint.CENSUS_FIELDS == ("refused", "converged", "max_iters", "stalled", "errors",
                                         "violation")
    line = fingerprint.census(cli, selfcheck, files=300)
    assert re.fullmatch(r"census( \d+){6}", line)
    counts = [int(v) for v in line.split()[1:]]
    assert sum(counts) == 300 and counts[-1] == 0


def test_census_counts_a_traceback_a_warning_and_a_bad_mean_as_violations(monkeypatch, tmp_path):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    fingerprint = _load("fingerprint")
    data = {"dim": 2, "matrices": [[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]]}
    assert fingerprint.census_outcome(cli, tmp_path, data, "mm") == "converged"
    assert fingerprint.census_outcome(cli, tmp_path, dict(data, dim=3), "mm") == "refused"

    def refusing(e, cfg, x0):
        raise DomainError("planted")

    def raising(e, cfg, x0):
        raise RuntimeError("planted")

    def warning(e, cfg, x0):
        warnings.warn("planted", RuntimeWarning)
        return solvers.mm_solve(e, cfg, x0)

    def nan_mean(e, cfg, x0):
        res = solvers.mm_solve(e, cfg, x0)
        return replace(res, mean=np.full_like(res.mean, np.nan))

    for planted, outcome in ((refusing, "errors"), (raising, "violation"),
                             (warning, "violation"), (nan_mean, "violation")):
        monkeypatch.setitem(cli.SOLVERS, "mm", planted)
        assert fingerprint.census_outcome(cli, tmp_path, data, "mm") == outcome
    assert sorted(tmp_path.iterdir()) == [tmp_path / "ensemble.json"]
