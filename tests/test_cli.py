import json

import numpy as np
import pytest

import spdmean.selfcheck as selfcheck
from spdmean.cli import main, read_ensemble, write_ensemble
from spdmean.errors import DomainError


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


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
        assert main(["mean", inp, "--c", "2"]) == 1
        assert "c must lie in (0, 1)" in capsys.readouterr().err

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
        inp = ensemble_file(tmp_path, [[[1e300, 0.0], [0.0, 1e300]],
                                       [[3e-300, 0.0], [0.0, 1e-300]]])
        out = tmp_path / "m.json"
        with np.errstate(all="ignore"):
            assert main(["mean", inp, "--out", str(out)]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: mm solve failed: A^(-1/2) X A^(-1/2) overflows float64 for matrix 1")
        assert not out.exists()

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


class TestEnsembleRoundTrip:
    def test_bitwise(self, tmp_path, rng):
        mats = [selfcheck.random_spd(rng, 4) for _ in range(3)]
        path = tmp_path / "rt.json"
        write_ensemble(path, mats)
        again = read_ensemble(path)
        for a, b in zip(mats, again.mats):
            assert np.array_equal(a, b)


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

    def test_seed_override_lands_in_sidecar(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", self.spec_payload())
        base = tmp_path / "rep"
        main(["bench", spec, "--seed", "99", "--out", str(base)])
        assert json.loads((tmp_path / "rep.json").read_text())["seed"] == 99

    def test_invalid_field_diagnostic(self, tmp_path, capsys):
        payload = self.spec_payload()
        payload["temperature"] = 1.0
        spec = write_json(tmp_path / "spec.json", payload)
        assert main(["bench", spec]) == 1
        assert "temperature" in capsys.readouterr().err

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

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["bench", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["fig1_small", "fig3_rescale.json"])
    def test_bundled_specs_resolve(self, tmp_path, name, monkeypatch):
        from spdmean.cli import _resolve_spec_path
        from spdmean.bench import ExperimentSpec

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


class TestCheck:
    def test_all_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "10/10 checks passed" in out
        assert "FAIL" not in out

    def test_fault_injection(self, capsys, monkeypatch):
        import spdmean.karcher as karcher

        # breaking g2 must be caught by the g1·g2 ≡ 1 identity check
        monkeypatch.setattr(karcher, "g2_scalar",
                            lambda x: 1.1 / karcher.g1_scalar(x))
        assert main(["check"]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out
