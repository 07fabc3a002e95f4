import itertools
import json
import re
import warnings

import numpy as np
import pytest

import spdmean.selfcheck as selfcheck
from spdmean import bench, cli, karcher, oracle, solvers
from spdmean.bench import (ExperimentSpec, SolverSpec, SpectrumSpec, report_to_csv,
                           run_experiment)
from spdmean.cli import ensemble_to_json, main, read_ensemble
from spdmean.errors import DomainError, SpdMeanError


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def write_ensemble(path, mats):
    path.write_text(ensemble_to_json(mats))


def ensemble_file(tmp_path, matrices, dim=None, name="ens.json"):
    if dim is None:
        dim = len(matrices[0])
    return write_json(tmp_path / name, {"dim": dim, "matrices": matrices})


class TestMean:
    def test_scalar_pair(self, tmp_path, capsys):
        inp = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        out = tmp_path / "mean.json"
        assert main(["mean", inp, "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["dim"] == 1
        assert abs(data["matrices"][0][0][0] - 2.0) <= 1e-10
        assert "converged" in capsys.readouterr().out

    def test_single_matrix_echoed(self, tmp_path):
        a = [[2.0, 1.0], [1.0, 2.0]]
        inp = ensemble_file(tmp_path, [a])
        out = tmp_path / "mean.json"
        assert main(["mean", inp, "--out", str(out)]) == 0
        got = np.array(json.loads(out.read_text())["matrices"][0])
        assert np.allclose(got, a, atol=1e-12)

    def test_trace_csv_written(self, tmp_path):
        inp = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        out = tmp_path / "mean.json"
        main(["mean", inp, "--out", str(out)])
        lines = (tmp_path / "mean.trace.csv").read_text().strip().split("\n")
        assert lines[0] == "iter,objective,grad_norm,log_error,elapsed"
        assert len(lines) >= 2

    def test_default_output_path(self, tmp_path):
        inp = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        assert main(["mean", inp]) == 0
        assert (tmp_path / "ens.mean.json").exists()

    @pytest.mark.parametrize("solver", ["mm", "gd-ls", "gd-fixed"])
    def test_solver_choices_agree(self, tmp_path, solver):
        inp = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        out = tmp_path / f"{solver}.json"
        assert main(["mean", inp, "--solver", solver, "--out", str(out)]) == 0
        got = json.loads(out.read_text())["matrices"][0][0][0]
        assert abs(got - 2.0) <= 1e-8

    def test_entries_summing_past_float64_max(self, tmp_path):
        # two copies of 1.5e308·I: their sum overflows, their mean does not
        big = [[1.5e308, 0.0], [0.0, 1.5e308]]
        inp = ensemble_file(tmp_path, [big, big])
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["mean", inp, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["matrices"][0] == big

    def test_asymmetric_rejected_with_index(self, tmp_path, capsys):
        inp = ensemble_file(
            tmp_path, [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]]])
        assert main(["mean", inp]) == 1
        err = capsys.readouterr().err
        assert "matrix 1" in err and "symmetric" in err

    def test_indefinite_rejected_with_eigenvalue(self, tmp_path, capsys):
        inp = ensemble_file(tmp_path, [[[1.0, 0.0], [0.0, -2.0]]])
        assert main(["mean", inp]) == 1
        err = capsys.readouterr().err
        assert "positive definite" in err and "-2" in err

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_rejected_with_index(self, tmp_path, capsys, value):
        # json writes these as Infinity / -Infinity / NaN, which it also reads
        inp = ensemble_file(
            tmp_path, [[[value, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]])
        out = tmp_path / "m.json"
        assert main(["mean", inp, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "matrix 0" in err and "non-finite" in err
        assert not out.exists()

    def test_invalid_config_rejected(self, tmp_path, capsys):
        inp = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        assert main(["mean", inp, "--max-iters", "0"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: max_iters must be an integer >= 1, got 0"]

    def test_infinite_tolerance_rejected(self, tmp_path, capsys):
        inp = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        assert main(["mean", inp, "--tol", "inf"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: grad_tol must be positive and finite"]

    def test_line_search_probe_out_of_float64_backtracks(self, tmp_path, capsys, rng):
        mats = [selfcheck.random_spd(rng, 4).tolist() for _ in range(5)]
        inp = ensemble_file(tmp_path, mats)
        code = main(["mean", inp, "--solver", "gd-ls", "--nu", "1000",
                     "--out", str(tmp_path / "m.json")])
        out, err = capsys.readouterr()
        assert err == ""
        assert out.split(":")[0] in ("converged", "line_search_stalled", "max_iters")
        assert code == (0 if out.startswith("converged") else 2)
        assert (tmp_path / "m.json").exists()

    def test_failed_solve_exit_code(self, tmp_path, capsys, rng):
        # a fixed step of 4 throws the iterate out of the SPD cone
        mats = [selfcheck.random_spd(rng, 4, lo=1.0, hi=10.0).tolist()
                for _ in range(5)]
        inp = ensemble_file(tmp_path, mats)
        out = tmp_path / "m.json"
        code = main(["mean", inp, "--solver", "gd-fixed", "--nu", "4",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gd-fixed solve failed: ")
        assert "positive definite" in err
        assert not out.exists()
        assert not (tmp_path / "m.trace.csv").exists()

    @pytest.mark.parametrize("mats", [
        [[[1e300, 0.0], [0.0, 1e300]], [[3e-300, 0.0], [0.0, 1e-300]]],
        [[[1e200, 0.0], [0.0, 1e200]], [[1e-200, 0.0], [0.0, 1e-200]]],
    ])
    def test_extreme_magnitudes_fail_without_mean(self, tmp_path, capsys, mats):
        # the start point overflows Aᵢ^{-1/2} X Aᵢ^{-1/2}: a clean error, no NaN mean
        inp = ensemble_file(tmp_path, mats)
        out = tmp_path / "m.json"
        with np.errstate(all="ignore"):
            assert main(["mean", inp, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: mm solve failed: ")
        assert not out.exists()

    def test_overflow_named_without_mean(self, tmp_path, capsys):
        # one error line: numpy's overflow warning does not escape the solve
        inp = ensemble_file(tmp_path, [[[1e300, 0.0], [0.0, 1e300]],
                                       [[3e-300, 0.0], [0.0, 1e-300]]])
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["mean", inp, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: mm solve failed: A^(-1/2) X A^(-1/2) overflows float64 for matrix 1"]
        assert not out.exists()

    @pytest.mark.parametrize("bad", [
        [[2, True], [True, 2]],
        [["1", "0"], ["0", "1"]],
        [[1.0, 0.0], [0.0]],
        [[1, 1, 1], [1, 1, 1]],
        [[float("nan"), 0.0], [0.0, 1.0]],
        [[1, 2], [0, 1]],
        [[1, 0], [0, -1]],
        np.eye(3).tolist(),
        10 ** 400,
        [[10 ** 400, 0], [0, 1]],
        None,
        [[None, 0], [0, 1]],
        3.0,
    ], ids=["true", "strings", "ragged", "non-square", "nan", "not-symmetric",
            "not-positive-definite", "3x3", "int-beyond-float64", "entry-beyond-float64",
            "null", "null-entry", "scalar"])
    def test_refuses_a_matrix_as_the_library_does(self, tmp_path, capsys, bad):
        # the CLI reads no matrix itself: its error is from_matrices' refusal, word for word
        with pytest.raises(SpdMeanError) as info:
            karcher.Ensemble.from_matrices([np.eye(2).tolist(), bad])
        inp = ensemble_file(tmp_path, [np.eye(2).tolist(), bad], dim=2)
        assert main(["mean", inp]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    @pytest.mark.parametrize("second", [[[True, 0], [0, 1]], np.eye(3).tolist()],
                             ids=["true", "3x3"])
    def test_first_bad_matrix_is_named_first(self, tmp_path, capsys, second):
        inp = ensemble_file(tmp_path, [[[2, 1], [0, 2]], second], dim=2)
        assert main(["mean", inp]) == 1
        assert capsys.readouterr().err == "error: matrix 0 is not symmetric\n"

    def test_names_a_matrix_nested_deeper_than_numpy_reads(self, tmp_path, capsys):
        # matrix 0 is one number 900 lists deep: not ragged, but beyond numpy's dimensions
        inp = tmp_path / "deep.json"
        inp.write_text('{"dim": 2, "matrices": [' + "[" * 900 + "1" + "]" * 900 + "]}")
        assert main(["mean", str(inp)]) == 1
        assert capsys.readouterr().err == ("error: matrix 0 is nested deeper than numpy's "
                                           "maximum number of dimensions\n")

    def test_shape_mismatch_rejected(self, tmp_path, capsys):
        inp = ensemble_file(tmp_path, [[[1.0]]], dim=2)
        assert main(["mean", inp]) == 1
        assert "shape" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["mean", str(tmp_path / "nope.json")]) == 1
        assert "error" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["mean", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_iteration_cap_exit_code(self, tmp_path, capsys):
        # two noncommuting matrices cannot converge in one iteration
        inp = ensemble_file(
            tmp_path,
            [[[2.0, 1.0], [1.0, 2.0]], [[5.0, 0.0], [0.0, 1.0]]])
        code = main(["mean", inp, "--max-iters", "1",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert "max_iters" in capsys.readouterr().out


SPEC = {"n": 1, "p": 1, "runs": 1, "seed": 5,
        "spectrum": {"kind": "explicit", "dim": 1, "values": [3.0]},
        "solvers": [{"kind": "mm"}]}

# the content of a MALFORMED case whose input file is not made
NO_FILE = "no file"

# (command, file content) pairs that used to end in a traceback or,
# for "dim": true, be accepted as dim 1
MALFORMED = {
    "mean-string-entry": ("mean", {"dim": 1, "matrices": [[["a"]]]}),
    "mean-numeric-string-entry": ("mean", {"dim": 1, "matrices": [[["2.0"]]]}),
    "mean-boolean-entries": ("mean", {"dim": 2, "matrices": [[[2, True], [True, 2]]]}),
    "mean-ragged-rows": ("mean", {"dim": 2, "matrices": [[[1.0, 0.0], [0.0]]]}),
    "mean-integer-beyond-float": ("mean", {"dim": 1, "matrices": [[[10 ** 400]]]}),
    "mean-not-utf8": ("mean", b'{"dim": 1, "matrices": [[[1\xff]]]}'),
    "mean-dim-true": ("mean", {"dim": True, "matrices": [[[2.0]]]}),
    "mean-top-level-list": ("mean", [[[2.0]]]),
    "mean-no-matrices": ("mean", {"dim": 1}),
    "mean-empty-matrices": ("mean", {"dim": 1, "matrices": []}),
    "mean-matrices-object": ("mean", {"dim": 1, "matrices": {}}),
    "mean-matrices-string": ("mean", {"dim": 1, "matrices": "x"}),
    "mean-deeply-nested": ("mean", b"[" * 100000 + b"]" * 100000),
    "bench-directory": ("bench", None),
    "bench-missing-spec": ("bench", NO_FILE),
    # sizes whose float64 arrays numpy cannot hold
    "bench-geometric-dim-past-numpy": ("bench", {**SPEC, "spectrum": {
        "kind": "geometric", "dim": 10 ** 20, "a": 0.5}}),
    "bench-p-past-numpy": ("bench", {**SPEC, "p": 10 ** 20, "spectrum": {
        "kind": "uniform", "dim": 10 ** 20, "lo": 1.0, "hi": 2.0}}),
    "bench-runs-past-numpy": ("bench", {**SPEC, "runs": 10 ** 20}),
    "bench-not-utf8": ("bench", b'{"n": 1\xff}'),
    "bench-deeply-nested": ("bench", b"[" * 100000 + b"]" * 100000),
    "bench-top-level-list": ("bench", [SPEC]),
    "bench-solver-not-object": ("bench", {**SPEC, "solvers": ["mm"]}),
    "bench-solvers-string": ("bench", {**SPEC, "solvers": "mm"}),
    "bench-solvers-object": ("bench", {**SPEC, "solvers": {"kind": "mm"}}),
    "bench-max-iters-string": ("bench", {**SPEC, "solvers": [{"kind": "mm", "max_iters": "x"}]}),
    "bench-nu-string": ("bench", {**SPEC, "solvers": [{"kind": "mm", "nu": "x"}]}),
    "bench-nu-integer-past-float64": ("bench", {**SPEC, "solvers": [{"kind": "gd-ls",
                                                                     "nu": 10 ** 400}]}),
    "bench-n-float": ("bench", {**SPEC, "n": 2.5}),
    "bench-spectrum-dim-true": ("bench", {**SPEC, "spectrum": {**SPEC["spectrum"], "dim": True}}),
    "bench-spectrum-value-true": ("bench", {**SPEC, "spectrum": {**SPEC["spectrum"],
                                                                 "values": [True]}}),
    "bench-spectrum-value-string": ("bench", {**SPEC, "spectrum": {**SPEC["spectrum"],
                                                                   "values": ["3.0"]}}),
    "bench-spectrum-foreign-fields": ("bench", {**SPEC, "spectrum": {
        "kind": "uniform", "dim": 1, "lo": 1, "hi": 2, "values": [7], "a": 3}}),
    "bench-negative-seed": ("bench", {**SPEC, "seed": -1}),
    "bench-missing-n": ("bench", {k: v for k, v in SPEC.items() if k != "n"}),
    "bench-spectrum-without-dim": ("bench", {**SPEC, "spectrum": {"kind": "explicit",
                                                                  "values": [3.0]}}),
    # a sidecar written while the line search's factor and cap were settable
    "bench-line-search-settings": ("bench", {**SPEC, "solvers": [
        {"kind": "gd-ls", "max_iters": 500, "grad_tol": None, "nu": 1.0, "c": 0.5,
         "ls_max_j": 60}]}),
}

# the error line of the cases above that no other test reads
MALFORMED_MESSAGES = {
    "mean-top-level-list": "input.json must be an object with 'dim' and 'matrices'",
    "mean-no-matrices": "input.json must be an object with 'dim' and 'matrices'",
    "mean-empty-matrices": "error: expected at least one matrix, got none",
    "mean-matrices-object": "error: expected a sequence of matrices, got dict",
    "mean-matrices-string": "error: expected a sequence of matrices, got str",
    "bench-missing-spec": "input.json' not found (and no bundled spec matches)",
    "bench-geometric-dim-past-numpy": (
        "error: invalid experiment spec: spectrum dim 100000000000000000000 asks for a float64 "
        "array of 8e+20 bytes, over numpy's limit of 9223372036854775807"),
    "bench-p-past-numpy": ("error: invalid experiment spec: spectrum dim 100000000000000000000 "
                           "asks for a float64 array of 8e+20 bytes, over numpy's limit of "
                           "9223372036854775807"),
    "bench-runs-past-numpy": ("error: invalid experiment spec: runs 100000000000000000000 asks "
                              "for a float64 array of 8e+20 bytes, over numpy's limit of "
                              "9223372036854775807"),
    "bench-spectrum-without-dim": ("error: invalid experiment spec: "
                                   "spectrum spec requires field 'dim'"),
    "bench-line-search-settings": ("error: invalid experiment spec: unknown solver fields: "
                                   "['c', 'ls_max_j']"),
    "bench-nu-integer-past-float64": ("error: invalid experiment spec: "
                                      "nu must be positive and finite"),
    "bench-solvers-string": ("error: invalid experiment spec: "
                             "experiment spec requires a 'solvers' list"),
    "bench-solvers-object": ("error: invalid experiment spec: "
                             "experiment spec requires a 'solvers' list"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_one_error_line(tmp_path, capsys, case):
    command, content = MALFORMED[case]
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content != NO_FILE:
        write_json(path, content)
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(MALFORMED_MESSAGES.get(case, "") + "\n")
    assert "Traceback" not in err
    assert "__init__" not in err
    assert "invalid experiment spec: invalid experiment spec" not in err
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("message, line", [
    ("", "error: out of memory"),
    ("Unable to allocate 8 GiB", "error: Unable to allocate 8 GiB"),
], ids=["bare", "numpy"])
@pytest.mark.parametrize("command", ["mean", "bench"])
def test_memory_error_is_one_error_line(tmp_path, capsys, monkeypatch, command, message, line):
    def exhausted(*args):
        raise MemoryError(message)

    if command == "mean":
        path = ensemble_file(tmp_path, [[[1.0]], [[4.0]]])
        monkeypatch.setitem(solvers.SOLVERS, "mm", exhausted)
    else:
        path = write_json(tmp_path / "spec.json", SPEC)
        monkeypatch.setattr(bench, "generate_ensemble", exhausted)
    assert main([command, path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == line + "\n"
    assert not list(tmp_path.glob("out*"))


# (command, its input file, --out, a directory made first; each path relative
# to the test directory): an output that cannot be written, or that would
# overwrite the command's input, is an input error like a bad file
UNWRITABLE_OUT = {
    "mean-out-under-missing-directory": ("mean", "ens.json", "missing/m.json", None),
    "mean-out-is-a-directory": ("mean", "ens.json", "m.json", "m.json"),
    "mean-trace-is-a-directory": ("mean", "ens.json", "m.json", "m.trace.csv"),
    "mean-out-is-its-input": ("mean", "ens.json", "ens.json", None),
    "bench-out-under-missing-directory": ("bench", "spec.json", "missing/rep", None),
    "bench-out-csv-is-a-directory": ("bench", "spec.json", "rep", "rep.csv"),
    "bench-out-json-is-a-directory": ("bench", "spec.json", "rep", "rep.json"),
    "bench-out-csv-is-its-spec": ("bench", "spec.csv", "spec", None),
}


def _never_called(*args, **kwargs):
    raise AssertionError("solved before the output paths were checked")


def _files(tmp_path):
    """Every path under ``tmp_path`` with its bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}


def _unwritable_out_run(tmp_path, case):
    """Run ``case`` of UNWRITABLE_OUT; return its exit code and the files before it."""
    command, source, out, directory = UNWRITABLE_OUT[case]
    path = (ensemble_file(tmp_path, [[[1.0]], [[4.0]]], name=source) if command == "mean"
            else write_json(tmp_path / source, SPEC))
    if directory is not None:
        (tmp_path / directory).mkdir()
    before = _files(tmp_path)
    return main([command, path, "--out", str(tmp_path / out)]), before


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUT))
def test_unwritable_out_is_one_error_line(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "run_experiment", _never_called)
    monkeypatch.setitem(cli.SOLVERS, "mm", _never_called)
    code, before = _unwritable_out_run(tmp_path, case)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    _, _, out, directory = UNWRITABLE_OUT[case]
    assert str(tmp_path / (directory or out)) in err
    assert "Traceback" not in err
    assert _files(tmp_path) == before


# a second output that still fails after the check deletes the first
@pytest.mark.parametrize("case", ["mean-trace-is-a-directory", "bench-out-json-is-a-directory"])
def test_failed_second_write_leaves_no_file(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(cli, "_check_out", lambda *paths: None)
    code, before = _unwritable_out_run(tmp_path, case)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / UNWRITABLE_OUT[case][3]) in err
    assert _files(tmp_path) == before


# (what, keys from SPEC to the object that holds the field, field): every
# field of the three spec classes that has no default
REQUIRED_FIELDS = [
    ("experiment", (), "n"),
    ("experiment", (), "p"),
    ("experiment", (), "spectrum"),
    ("experiment", (), "solvers"),
    ("spectrum", ("spectrum",), "kind"),
    ("spectrum", ("spectrum",), "dim"),
    ("solver", ("solvers", 0), "kind"),
]


@pytest.mark.parametrize("what, owner, name", REQUIRED_FIELDS,
                         ids=[f"{what}-{name}" for what, _, name in REQUIRED_FIELDS])
def test_missing_field_is_named(tmp_path, capsys, what, owner, name):
    spec = json.loads(json.dumps(SPEC))
    holder = spec
    for key in owner:
        holder = holder[key]
    del holder[name]
    message = f"{what} spec requires field '{name}'"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        ExperimentSpec.from_dict(spec)
    path = write_json(tmp_path / "spec.json", spec)
    assert main(["bench", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: invalid experiment spec: {message}\n"
    assert not list(tmp_path.glob("out*"))


class TestEnsembleRoundTrip:
    def test_bitwise(self, tmp_path, rng):
        mats = [selfcheck.random_spd(rng, 4) for _ in range(3)]
        path = tmp_path / "rt.json"
        write_ensemble(path, mats)
        again = read_ensemble(path)
        for a, b in zip(mats, again.mats):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("matrices", [
        [[[2, True], [True, 2]]],
        [[[1.0]], [["2.0"]]],
    ])
    def test_booleans_and_strings_are_not_numbers(self, tmp_path, matrices):
        # numpy would read these as [[2, 1], [1, 2]] and [[2]]
        bad = len(matrices) - 1
        with pytest.raises(DomainError, match=f"^matrix {bad} has a non-numeric entry$"):
            read_ensemble(ensemble_file(tmp_path, matrices))

    def test_integer_entries_read_as_floats(self, tmp_path):
        # 10**20 does not fit in int64 but is a float
        e = read_ensemble(ensemble_file(tmp_path, [[[2]], [[10 ** 20]]]))
        assert e.mats.dtype == float
        assert e.mats[:, 0, 0].tolist() == [2.0, 1e20]


class TestBench:
    def spec_payload(self, runs=1):
        return {
            "n": 1, "p": 1, "runs": runs, "seed": 5,
            "spectrum": {"kind": "explicit", "dim": 1, "values": [3.0]},
            "solvers": [{"kind": "mm"}],
        }

    def test_trivial_spec(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", self.spec_payload())
        base = tmp_path / "rep"
        assert main(["bench", spec, "--out", str(base)]) == 0
        lines = (tmp_path / "rep.csv").read_text().strip().split("\n")
        assert lines[0] == "iter,mm"
        # single 1x1 matrix: the arithmetic-mean start is already exact
        assert len(lines) == 2
        sidecar = json.loads((tmp_path / "rep.json").read_text())
        assert sidecar["seed"] == 5

    def test_report_files(self, tmp_path):
        # the CSV is the report's text and the sidecar replays to the same spec
        spec = ExperimentSpec(
            n=4, p=3, spectrum=SpectrumSpec(kind="uniform", dim=3, lo=1.0, hi=10.0),
            solvers=[SolverSpec(kind="mm")], runs=1, seed=7)
        path = write_json(tmp_path / "spec.json", spec.to_dict())
        assert main(["bench", path, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out.csv").read_text()
        assert text == report_to_csv(run_experiment(spec))
        sidecar = json.loads((tmp_path / "out.json").read_text())
        assert ExperimentSpec.from_dict(sidecar) == spec

    def test_seed_override_lands_in_sidecar(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.spec_payload())
        base = tmp_path / "rep"
        main(["bench", spec, "--seed", "99", "--out", str(base)])
        assert json.loads((tmp_path / "rep.json").read_text())["seed"] == 99

    def test_negative_seed_override_refused(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", self.spec_payload())
        assert main(["bench", spec, "--seed", "-1", "--out", str(tmp_path / "rep")]) == 1
        assert capsys.readouterr().err == ("error: invalid experiment spec: "
                                           "seed must be an integer >= 0, got -1\n")
        assert not list(tmp_path.glob("rep*"))

    def test_invalid_field_diagnostic(self, tmp_path, capsys):
        payload = self.spec_payload()
        payload["temperature"] = 1.0
        spec = write_json(tmp_path / "spec.json", payload)
        assert main(["bench", spec]) == 1
        assert "temperature" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        ({"spectrum": {"kind": "uniform", "dim": 1, "lo": 1.0, "hi": float("inf")}},
         "spectrum field 'hi' must be a finite number, got inf"),
        ({"scale_first_by": float("inf")}, "scale_first_by must be positive and finite, got inf"),
        ({"p": 2, "spectrum": {"kind": "explicit", "dim": 2, "values": [1, float("inf")]}},
         "spectrum field 'values' entry 1 must be a finite number, got inf"),
        ({"p": 2, "spectrum": {"kind": "geometric", "dim": 2, "a": 400}},
         "geometric spectrum's top value 10^(1·400) overflows float64"),
        ({"n": 3, "p": 4, "spectrum": {"kind": "uniform", "dim": 4, "lo": 1.0, "hi": 10.0},
          "scale_first_by": 1e308},
         "scale_first_by 1e+308 times the spectrum's largest value 10.0 overflows float64"),
        ({"scale_first_by": 1e-320},
         "scale_first_by 1e-320 times the spectrum's smallest value 3.0 is below the smallest "
         "normal float64"),
    ], ids=["hi", "scale_first_by", "values", "geometric-top", "scaled-top", "scaled-bottom"])
    def test_non_finite_spec_field_is_an_input_error(self, tmp_path, capsys, fields, message):
        # json writes inf as Infinity, which it also reads
        spec = write_json(tmp_path / "spec.json", {**self.spec_payload(), **fields})
        base = tmp_path / "rep"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["bench", spec, "--out", str(base)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: invalid experiment spec: {message}"]
        assert not (tmp_path / "rep.csv").exists()

    def test_run_errors_exit_code(self, tmp_path, capsys):
        # spectra 1e300 and 1e-300 fail ensemble validation in every run
        payload = {
            "n": 2, "p": 2, "runs": 2, "seed": 0,
            "spectrum": {"kind": "explicit", "dim": 2, "values": [1e300, 1e-300]},
            "solvers": [{"kind": "mm"}],
        }
        spec = write_json(tmp_path / "spec.json", payload)
        base = tmp_path / "rep"
        with np.errstate(over="ignore"):
            assert main(["bench", spec, "--out", str(base)]) == 2
        err = capsys.readouterr().err
        assert err.count("warning: run ") == 2
        assert (tmp_path / "rep.csv").read_text() == "iter,mm\n"
        assert json.loads((tmp_path / "rep.json").read_text())["n"] == 2

    def test_duplicate_solver_ids_rejected(self, tmp_path, capsys):
        payload = self.spec_payload()
        payload["solvers"] = [{"kind": "mm"}, {"kind": "mm"}]
        spec = write_json(tmp_path / "spec.json", payload)
        assert main(["bench", spec]) == 1
        assert "duplicate solver ids" in capsys.readouterr().err

    def test_sidecar_never_overwrites_the_spec(self, tmp_path, capsys, monkeypatch):
        # the default output base is the spec's stem in the working directory
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path / "own.json", self.spec_payload())
        before = (tmp_path / "own.json").read_bytes()
        assert main(["bench", "own.json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "own.json" in err and "--out" in err
        assert (tmp_path / "own.json").read_bytes() == before
        assert not (tmp_path / "own.csv").exists()
        assert main(["bench", "own.json", "--out", "rep"]) == 0
        assert (tmp_path / "own.json").read_bytes() == before

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig1_small", "fig3_rescale.json"])
    def test_bundled_specs_resolve(self, tmp_path, name, monkeypatch):
        from spdmean.cli import _resolve_spec_path

        path = _resolve_spec_path(name)
        spec = ExperimentSpec.from_dict(json.loads(path.read_text()))
        assert spec.runs >= 1

    def test_bundled_fig3_runs(self, tmp_path, monkeypatch):
        # shrink the bundled rescaled regime so the smoke test stays fast
        from spdmean.cli import _resolve_spec_path

        data = json.loads(_resolve_spec_path("fig3_rescale").read_text())
        for s in data["solvers"]:
            s["max_iters"] = 40
            s["grad_tol"] = 1e-4
        spec = write_json(tmp_path / "fig3.json", data)
        assert main(["bench", spec, "--out", str(tmp_path / "rep")]) == 0
        header = (tmp_path / "rep.csv").read_text().split("\n", 1)[0]
        assert header.startswith("iter,mm")


def _noisy_objective(frame_terms):
    # MM records an objective that alternates ±1e-6 around the true one
    sign = itertools.cycle([1.0, -1.0])

    def terms(frame):
        f_val, *rest = frame_terms(frame)
        return (f_val + 1e-6 * next(sign), *rest)
    return terms


def _biased_grad(frame_grad):
    # GD descends along a gradient with a constant bias, so it stops elsewhere
    def grad(frame):
        f_val, gr = frame_grad(frame)
        return f_val, gr + 1e-3 * np.eye(len(gr))
    return grad


# one fault per `spdmean check` line, as (module, attribute, wrapper of
# the original); each flips its own line and no other
CHECK_FAULTS = {
    "scalar oracle agreement":
        (oracle, "scalar_karcher_oracle", lambda f: lambda vals: 1.01 * f(vals)),
    "commuting oracle agreement":
        (oracle, "commuting_oracle", lambda f: lambda e: 1.01 * f(e)),
    "two-matrix oracle agreement":
        (oracle, "two_matrix_oracle", lambda f: lambda a, b: 1.01 * f(a, b)),
    "g1*g2 == 1 across [1e-12, 1e12]":
        (karcher, "g2_scalar", lambda f: lambda x: 1.1 * f(x)),
    # lifted by 1e-6, the surrogate still majorizes F but no longer touches it
    "surrogate majorizes objective":
        (karcher, "surrogate_value", lambda f: lambda s, x: f(s, x) + 1e-6),
    "closed-form minimizer stationarity":
        (karcher, "_minimizer_factor", lambda f: lambda c1, c2: 1.01 * f(c1, c2)),
    "mm objective descent": (solvers, "_frame_terms", _noisy_objective),
    "mm vs gd line-search agreement": (solvers, "_frame_grad", _biased_grad),
    "objective gradient vs finite differences":
        (karcher, "euclidean_gradient", lambda f: lambda e, x: 1.01 * f(e, x)),
    "gradient vanishes at mm fixed point":
        (karcher, "grad_sum", lambda f: lambda e, x: f(e, x) + 1e-6 * np.eye(len(x))),
}


class TestCheck:
    def test_all_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out
        assert "FAIL" not in out

    def test_lines_name_their_criterion(self, capsys):
        main(["check"])
        lines = capsys.readouterr().out.splitlines()[:-1]
        criteria = [re.search(r" \(criterion (\d+)\)  ", line) for line in lines]
        assert [m and int(m[1]) for m in criteria] == [1, 1, 1, 10, 2, 3, 4, None, 8, None]

    @pytest.mark.parametrize("line", [name for name, *_ in selfcheck.TABLE],
                             ids=lambda line: CHECK_FAULTS[line][1])
    def test_each_line_catches_its_fault(self, capsys, monkeypatch, line):
        module, attr, wrap = CHECK_FAULTS[line]
        monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
        assert main(["check"]) == 3
        failed = [ln for ln in capsys.readouterr().out.splitlines() if "  FAIL  " in ln]
        assert len(failed) == 1 and failed[0].startswith(line)

    def test_a_check_that_raises_fails_its_own_line(self, capsys, monkeypatch):
        def raises(s, x):
            raise DomainError("surrogate broken")
        monkeypatch.setattr(karcher, "surrogate_value", raises)
        assert main(["check"]) == 3
        lines = capsys.readouterr().out.splitlines()
        failed = [ln for ln in lines if "  FAIL  " in ln]
        assert len(failed) == 1
        assert failed[0].startswith("surrogate majorizes objective")
        assert failed[0].endswith("  FAIL  DomainError: surrogate broken")
        assert lines[-1] == "9/10 checks passed"
