import json
import math
import re
import statistics
import warnings
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path
from typing import List, Optional

import numpy as np
import pytest

import spdmean.bench as bench
import spdmean.selfcheck as selfcheck
import spdmean.solvers as solvers
from spdmean.bench import (
    ExperimentSpec,
    SolverSpec,
    SpectrumSpec,
    generate_ensemble,
    random_orthogonal,
    report_to_csv,
    run_experiment,
)
from spdmean.errors import DomainError
from spdmean.solvers import SolverConfig

from refs import frozen_generate_ensemble


def small_spec(**overrides):
    base = dict(
        n=4, p=3,
        spectrum=SpectrumSpec(kind="uniform", dim=3, lo=1.0, hi=10.0),
        solvers=[SolverSpec(kind="mm")],
        runs=2, seed=7,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpectrumSpec:
    def test_uniform_sample_in_range(self, rng):
        s = SpectrumSpec(kind="uniform", dim=10, lo=1.0, hi=10.0)
        vals = s.sample(rng)
        assert vals.shape == (10,)
        assert np.all(vals >= 1.0) and np.all(vals <= 10.0)

    def test_geometric_is_fixed_series(self, rng):
        s = SpectrumSpec(kind="geometric", dim=4, a=0.3)
        want = 10.0 ** (0.3 * np.arange(4))
        assert np.allclose(s.sample(rng), want)
        # identical on every draw
        assert np.allclose(s.sample(rng), want)

    def test_explicit_verbatim(self, rng):
        s = SpectrumSpec(kind="explicit", dim=3, values=[1.0, 2.0, 5.0])
        assert np.allclose(s.sample(rng), [1.0, 2.0, 5.0])

    @pytest.mark.parametrize("kwargs", [
        {"kind": "uniform", "dim": 3},
        {"kind": "uniform", "dim": 3, "lo": 0.0, "hi": 1.0},
        {"kind": "uniform", "dim": 3, "lo": 2.0, "hi": 1.0},
        {"kind": "geometric", "dim": 3},
        {"kind": "geometric", "dim": 3, "a": -0.1},
        {"kind": "explicit", "dim": 3, "values": [1.0, 2.0]},
        {"kind": "explicit", "dim": 2, "values": [1.0, -2.0]},
        {"kind": "cauchy", "dim": 3},
        {"kind": "uniform", "dim": 0, "lo": 1.0, "hi": 2.0},
        # fields of another kind would be ignored and dropped from the sidecar
        {"kind": "uniform", "dim": 2, "lo": 1.0, "hi": 2.0, "values": [7.0, 8.0], "a": 3.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(DomainError):
            SpectrumSpec(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"kind": "uniform", "dim": 3, "lo": 1.0, "hi": math.inf},
         "spectrum field 'hi' must be a finite number, got inf"),
        ({"kind": "uniform", "dim": 3, "lo": math.nan, "hi": 2.0},
         "spectrum field 'lo' must be a finite number, got nan"),
        ({"kind": "uniform", "dim": 3, "lo": 1.0, "hi": 10**400},
         "spectrum field 'hi' must be a finite number"),
        ({"kind": "geometric", "dim": 3, "a": math.inf},
         "spectrum field 'a' must be a finite number"),
        ({"kind": "explicit", "dim": 2, "values": [1.0, math.inf]},
         "spectrum field 'values' entry 1 must be a finite number, got inf"),
        ({"kind": "explicit", "dim": 2, "values": [1.0, math.nan]}, "spectrum field 'values'"),
        # the top value 10^{(dim-1)a} overflows float64
        ({"kind": "geometric", "dim": 3, "a": 200.0}, "top value 10^(2·200.0) overflows float64"),
        ({"kind": "geometric", "dim": 2, "a": 308.3}, "top value 10^(1·308.3) overflows"),
        ({"kind": "geometric", "dim": 10**6, "a": 1e300}, "top value 10^(999999·1e+300)"),
    ], ids=["hi-inf", "lo-nan", "hi-int", "a-inf", "values-inf", "values-nan",
            "geometric-top", "geometric-top-edge", "geometric-exponent-inf"])
    def test_rejects_non_finite(self, kwargs, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            SpectrumSpec(**kwargs)

    def test_geometric_top_just_inside_float64(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = SpectrumSpec(kind="geometric", dim=2, a=308.0).sample(rng)
        assert np.isfinite(vals).all()

    def test_ends_are_the_drawn_values(self, rng):
        # top and bottom bound what scale_first_by may multiply, so they are the
        # extremes of the values drawn, to the last bit
        specs = [SpectrumSpec(kind="geometric", dim=dim, a=k / 20)
                 for dim in range(2, 11) for k in range(1, 60)]
        specs += [SpectrumSpec(kind="explicit", dim=4, values=[3, 1, 7, 2]),
                  SpectrumSpec(kind="explicit", dim=3, values=[1e300, 1e-300, 1.0])]
        missed = [s for s in specs
                  if (s.top, s.bottom) != (s.sample(rng).max(), s.sample(rng).min())]
        assert missed == []

    def test_round_trip(self):
        for s in (SpectrumSpec(kind="uniform", dim=3, lo=1.0, hi=10.0),
                  SpectrumSpec(kind="geometric", dim=4, a=0.3),
                  SpectrumSpec(kind="explicit", dim=2, values=[1.0, 3.0])):
            assert SpectrumSpec.from_dict(s.to_dict()) == s

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(DomainError, match="unknown spectrum"):
            SpectrumSpec.from_dict({"kind": "uniform", "dim": 3,
                                    "lo": 1.0, "hi": 2.0, "sigma": 1.0})


class TestRandomOrthogonal:
    def test_orthonormal(self, rng):
        for p in (1, 2, 5, 10):
            u = random_orthogonal(p, rng)
            assert np.linalg.norm(u.T @ u - np.eye(p)) <= 1e-12

    def test_deterministic_per_seed(self):
        u1 = random_orthogonal(4, np.random.default_rng(5))
        u2 = random_orthogonal(4, np.random.default_rng(5))
        assert np.array_equal(u1, u2)

    def test_rejects_bad_dim(self, rng):
        with pytest.raises(DomainError):
            random_orthogonal(0, rng)

    # each public generator keeps the specs' size rule, refusing before it draws anything
    @pytest.mark.parametrize("draw, field, nbytes", [
        (lambda rng: random_orthogonal(10**20, rng), "p", "8e+40"),
        (lambda rng: selfcheck.random_spd(rng, 10**20), "p", "8e+40"),
        (lambda rng: selfcheck.random_sym(rng, 10**20), "p", "8e+40"),
        (lambda rng: selfcheck.commuting_ensemble(rng, 2, 10**20), "p", "8e+40"),
        (lambda rng: selfcheck.random_ensemble(rng, 2, 10**20), "p", "8e+40"),
        (lambda rng: selfcheck.random_ensemble(rng, 10**20, 2), "n", "3.2e+21"),
        (lambda rng: selfcheck.commuting_ensemble(rng, 10**20, 2), "n", "3.2e+21"),
    ], ids=["random_orthogonal-p", "random_spd-p", "random_sym-p", "commuting_ensemble-p",
            "random_ensemble-p", "random_ensemble-n", "commuting_ensemble-n"])
    def test_generators_refuse_a_size_numpy_cannot_hold(self, draw, field, nbytes):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="^" + re.escape(
                f"{field} {10**20} asks for a float64 array of {nbytes} bytes, "
                f"over numpy's limit of {np.iinfo(np.intp).max}") + "$"):
            draw(rng)
        assert rng.bit_generator.state == state


class TestGenerateEnsemble:
    def test_shapes_and_spd(self, rng):
        e = generate_ensemble(small_spec(), rng)
        assert e.n == 4 and e.dim == 3

    def test_uniform_condition_bound(self, rng):
        spec = small_spec(n=6, p=10,
                          spectrum=SpectrumSpec(kind="uniform", dim=10,
                                                lo=1.0, hi=10.0))
        e = generate_ensemble(spec, rng)
        for a in e.mats:
            w = np.linalg.eigvalsh(a)
            assert w[-1] / w[0] <= 10.0 * (1.0 + 1e-9)

    def test_geometric_condition_exact(self, rng):
        spec = small_spec(
            n=2, p=10,
            spectrum=SpectrumSpec(kind="geometric", dim=10, a=0.3))
        e = generate_ensemble(spec, rng)
        for a in e.mats:
            w = np.linalg.eigvalsh(a)
            assert w[-1] / w[0] == pytest.approx(10.0 ** 2.7, rel=1e-6)

    def test_scale_first_by(self, rng):
        spec = small_spec(scale_first_by=10_000.0)
        seed_rng = np.random.default_rng(3)
        e = generate_ensemble(spec, seed_rng)
        seed_rng = np.random.default_rng(3)
        base = generate_ensemble(small_spec(), seed_rng)
        assert np.allclose(e.mats[0], 10_000.0 * base.mats[0])
        assert np.allclose(e.mats[1], base.mats[1])

    @pytest.mark.parametrize("spectrum", [
        SpectrumSpec(kind="uniform", dim=10, lo=1.0, hi=10.0),
        SpectrumSpec(kind="geometric", dim=10, a=0.3),
        SpectrumSpec(kind="explicit", dim=10, values=[float(v) for v in range(1, 11)]),
    ], ids=["uniform", "geometric", "explicit"])
    @pytest.mark.parametrize("scale", [1.0, 1e4, 2.0**-30])
    def test_draws_match_the_frozen_loop_bit_for_bit(self, spectrum, scale):
        spec = small_spec(n=3, p=10, spectrum=spectrum, scale_first_by=scale)
        for seed in range(5):
            got = generate_ensemble(spec, np.random.default_rng(seed)).mats
            want = frozen_generate_ensemble(spec, np.random.default_rng(seed)).mats
            assert got.tobytes() == want.tobytes()


# the start of the message that refuses a field of
# test_python_spec_holds_the_json_types other than "(spectrum )?<field> must be"
REFUSED = {
    "spectrum.lo": "spectrum field 'lo' must be a finite number, got ",
    "spectrum.kind": re.escape("unknown spectrum kind ['uniform']"),
    "spectrum.values": "spectrum field 'values' must be a list, got ",
    "solver.kind": re.escape("unknown solver kind ['mm']"),
    "solver.id": "solver id must be a string, got 5",
    "solver.config": "solver config must be a SolverConfig, got ",
}


class TestExperimentSpec:
    @pytest.mark.parametrize("source", ["small_spec", "fig1_small", "fig3_rescale"])
    def test_round_trip(self, source):
        # a bundled spec comes back as its sidecar is replayed: to_dict, JSON, from_dict
        if source == "small_spec":
            spec = small_spec(solvers=[
                SolverSpec(kind="mm"),
                SolverSpec(kind="gd-ls", config=SolverConfig(nu=2.0)),
                SolverSpec(kind="gd-fixed", id="fixed"),
            ])
        else:
            bundled = resources.files("spdmean").joinpath("specs", f"{source}.json")
            spec = ExperimentSpec.from_dict(json.loads(bundled.read_text()))
        again = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_solver_spec_round_trip_carries_every_config_field(self):
        cfg = SolverConfig(max_iters=7, grad_tol=1e-6, nu=2.5)
        assert all(getattr(cfg, f.name) != f.default for f in fields(SolverConfig))
        spec = SolverSpec(kind="gd-ls", config=cfg, id="tuned")
        d = json.loads(json.dumps(spec.to_dict()))
        assert list(d) == ["kind"] + [f.name for f in fields(SolverConfig)] + ["id"]
        assert SolverSpec.from_dict(d) == spec

    def test_solver_ids(self):
        assert SolverSpec(kind="mm").solver_id == "mm"
        assert SolverSpec(kind="gd-ls",
                          config=SolverConfig(nu=0.25)).solver_id == "gd-ls-nu0.25"
        assert SolverSpec(kind="gd-fixed", id="x").solver_id == "x"

    @pytest.mark.parametrize("field,value", [
        ("n", 0), ("p", 0), ("runs", 0), ("scale_first_by", 0.0),
        ("scale_first_by", float("nan")), ("seed", -1),
        ("scale_first_by", float("inf")),
        pytest.param("scale_first_by", 10**400, id="scale_first_by-int-past-float64"),
    ])
    def test_rejects_invalid_scalars(self, field, value):
        with pytest.raises(DomainError):
            small_spec(**{field: value})

    # (field, value, refused): a spec built in Python is held to the types its
    # JSON form must have, so every spec it accepts replays from its sidecar; a
    # field with a dot is one of the spectrum's, the solver's or its config's
    @pytest.mark.parametrize("field, value, refused", [
        ("n", 2.5, True), ("n", True, True), ("p", 3.0, True), ("runs", 1.5, True),
        ("seed", True, True), ("seed", "7", True), ("scale_first_by", True, True),
        ("dim", 3.0, True), ("dim", False, True),
        ("n", np.int64(4), False), ("seed", np.int64(9), False), ("dim", np.int64(3), False),
        ("scale_first_by", 2, False), ("scale_first_by", np.float64(0.5), False),
        ("spectrum.lo", "1", True), ("spectrum.lo", True, True),
        ("spectrum.kind", ["uniform"], True), ("spectrum.values", (1.0, 2.0, 5.0), True),
        ("solver.kind", ["mm"], True), ("solver.id", 5, True),
        ("solver.config", {"nu": 1.0}, True), ("spectrum", {"kind": "uniform"}, True),
        ("solvers", (SolverSpec("mm"),), True),
        ("spectrum.lo", np.int64(1), False), ("scale_first_by", np.float32(0.5), False),
        ("config.max_iters", np.int64(5), False), ("config.nu", np.float32(0.5), False),
        ("config.grad_tol", np.float32(1e-6), False),
    ])
    def test_python_spec_holds_the_json_types(self, field, value, refused):
        def build():
            owner, _, name = field.rpartition(".")
            if owner == "spectrum" or field == "dim":
                base = dict(kind="uniform", dim=3, lo=1.0, hi=10.0)
                if name == "values":
                    base = dict(kind="explicit", dim=3, values=[1.0, 2.0, 5.0])
                return small_spec(spectrum=SpectrumSpec(**{**base, name: value}))
            if owner == "solver":
                return small_spec(solvers=[SolverSpec(**{"kind": "gd-ls", name: value})])
            if owner == "config":
                config = SolverConfig(**{name: value})
                return small_spec(solvers=[SolverSpec(kind="gd-ls", config=config)])
            return small_spec(**{field: value})

        if refused:
            message = REFUSED.get(field, f"(spectrum )?{field} must be")
            with pytest.raises(DomainError, match=f"^{message}"):
                build()
            return
        spec = build()
        assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize("spectrum, top", [
        (SpectrumSpec(kind="uniform", dim=3, lo=1.0, hi=10.0), 10.0),
        (SpectrumSpec(kind="geometric", dim=3, a=100.0), 1e200),
        (SpectrumSpec(kind="explicit", dim=3, values=[2.0, 8.0, 4.0]), 8.0),
    ], ids=["uniform", "geometric", "explicit"])
    def test_scale_first_by_must_keep_the_spectrum_finite(self, spectrum, top):
        # the largest value A₁ can take is scale_first_by times the spectrum's top
        assert spectrum.top == top
        edge = float(np.nextafter(np.finfo(float).max / top, 0.0))
        assert small_spec(spectrum=spectrum, scale_first_by=edge).scale_first_by == edge
        for scale in (edge * 2, 1e308):
            message = f"scale_first_by {scale!r} times the spectrum's largest value {top!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)} overflows float64$"):
                small_spec(spectrum=spectrum, scale_first_by=scale)

    @pytest.mark.parametrize("spectrum, bottom", [
        (SpectrumSpec(kind="uniform", dim=3, lo=1.0, hi=10.0), 1.0),
        (SpectrumSpec(kind="geometric", dim=3, a=100.0), 1.0),
        (SpectrumSpec(kind="explicit", dim=3, values=[4.0, 2.0, 8.0]), 2.0),
    ], ids=["uniform", "geometric", "explicit"])
    def test_scale_first_by_must_keep_the_spectrum_normal(self, spectrum, bottom):
        # the smallest value A₁ can take is scale_first_by times the spectrum's
        # bottom; a subnormal A₁ validates, and then every solve overflows
        assert spectrum.bottom == bottom
        edge = np.finfo(float).tiny / bottom  # exact: bottom is a power of two
        assert small_spec(spectrum=spectrum, scale_first_by=edge).scale_first_by == edge
        for scale in (float(np.nextafter(edge, 0.0)), 1e-320):
            message = f"scale_first_by {scale!r} times the spectrum's smallest value {bottom!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(message)} is below the "
                                                  "smallest normal float64$"):
                small_spec(spectrum=spectrum, scale_first_by=scale)

    # sizes whose float64 array numpy cannot hold, refused before anything is allocated
    @pytest.mark.parametrize("build, message", [
        (lambda: SpectrumSpec(kind="geometric", dim=10**19, a=0.5),
         "spectrum dim 10000000000000000000 asks for a float64 array of 8e+19"),
        (lambda: small_spec(p=10**19), "p 10000000000000000000 asks for a float64 array of 8e+38"),
        (lambda: small_spec(n=10**19),
         "n 10000000000000000000 asks for a float64 array of 7.2e+20"),
        (lambda: small_spec(runs=10**19),
         "runs 10000000000000000000 asks for a float64 array of 8e+19"),
    ], ids=["dim", "p", "n", "runs"])
    def test_refuses_a_size_numpy_cannot_hold(self, build, message):
        with pytest.raises(DomainError, match="^" + re.escape(
                f"{message} bytes, over numpy's limit of {np.iinfo(np.intp).max}") + "$"):
            build()

    def test_rejects_spectrum_dim_mismatch(self):
        with pytest.raises(DomainError):
            small_spec(p=4)

    def test_rejects_empty_solvers(self):
        with pytest.raises(DomainError):
            small_spec(solvers=[])

    def test_from_dict_diagnostics(self):
        good = small_spec().to_dict()
        bad = dict(good)
        bad["gamma"] = 1.0
        with pytest.raises(DomainError, match="gamma"):
            ExperimentSpec.from_dict(bad)
        bad = dict(good)
        del bad["spectrum"]
        with pytest.raises(DomainError, match="spectrum"):
            ExperimentSpec.from_dict(bad)
        bad = dict(good)
        bad["solvers"] = []
        with pytest.raises(DomainError, match="^at least one solver is required$"):
            ExperimentSpec.from_dict(bad)

    def test_duplicate_solver_ids_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            small_spec(solvers=[SolverSpec(kind="mm"), SolverSpec(kind="mm")])


# A valid JSON spec, the spectrum that takes each field another kind lacks, and
# the keys from the spec to the object that holds each spec class's fields.
GUARD_SPEC = {"n": 2, "p": 2, "spectrum": {"kind": "uniform", "dim": 2, "lo": 1.0, "hi": 2.0},
              "solvers": [{"kind": "gd-ls"}]}
GUARD_SPECTRA = {"a": {"kind": "geometric", "dim": 2, "a": 0.5},
                 "values": {"kind": "explicit", "dim": 2, "values": [1.0, 2.0]}}
GUARD_OWNERS = {ExperimentSpec: (), SpectrumSpec: ("spectrum",), SolverSpec: ("solvers", 0),
                SolverConfig: ("solvers", 0)}
# Wrong values for every field, and those wrong for a field of each type: a
# string is wrong but for a string field (any id is valid), 2.5 for an integer one.
GUARD_VALUES = {"true": True, "list": [1], "object": {}}
GUARD_EXTRA = {int: {"string": "x", "fraction": 2.5}, str: {}, Optional[str]: {}}


def _guard_cases():
    """(class, field, value) for every field that is not a nested spec, and each wrong value."""
    for cls in GUARD_OWNERS:
        for f in fields(cls):
            if f.type in (SpectrumSpec, List[SolverSpec], SolverConfig):
                continue
            wrong = {**GUARD_VALUES, **GUARD_EXTRA.get(f.type, {"string": "x"})}
            for label, value in wrong.items():
                yield pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}-{label}")


@pytest.mark.parametrize("cls, name, value", list(_guard_cases()))
def test_every_spec_field_is_checked_where_it_is_built(cls, name, value):
    # a wrong value is refused with one message, built in Python or read from JSON;
    # a field added without a check ends in a TypeError, or in no error, and fails here
    spec = json.loads(json.dumps(GUARD_SPEC))
    if cls is SpectrumSpec and name in GUARD_SPECTRA:
        spec["spectrum"] = dict(GUARD_SPECTRA[name])
    built = ExperimentSpec.from_dict(spec)
    owner = {ExperimentSpec: built, SpectrumSpec: built.spectrum,
             SolverSpec: built.solvers[0], SolverConfig: built.solvers[0].config}[cls]
    with pytest.raises(DomainError) as direct:
        replace(owner, **{name: value})
    holder = spec
    for key in GUARD_OWNERS[cls]:
        holder = holder[key]
    holder[name] = value
    with pytest.raises(DomainError) as read:
        ExperimentSpec.from_dict(spec)
    assert str(read.value) == str(direct.value)


class TestRunExperiment:
    def test_deterministic_csv(self):
        spec = small_spec()
        csv1 = report_to_csv(run_experiment(spec))
        csv2 = report_to_csv(run_experiment(spec))
        assert csv1 == csv2

    def test_run_r_draws_the_rth_spawned_stream(self, monkeypatch):
        # SeedSequence(seed, spawn_key=(r,)) is numpy's SeedSequence(seed).spawn(runs)[r]
        states, generate = [], bench.generate_ensemble

        def recorded(spec, rng):
            states.append(rng.bit_generator.state)
            return generate(spec, rng)

        monkeypatch.setattr(bench, "generate_ensemble", recorded)
        for seed in (0, 1, 3, 2**70):
            states.clear()
            run_experiment(small_spec(seed=seed, runs=3))
            spawned = np.random.SeedSequence(seed).spawn(3)
            assert states == [np.random.PCG64(child).state for child in spawned]

    def test_seed_changes_output(self):
        c1 = report_to_csv(run_experiment(small_spec(seed=1)))
        c2 = report_to_csv(run_experiment(small_spec(seed=2)))
        assert c1 != c2

    def test_report_shape(self):
        spec = small_spec(solvers=[SolverSpec(kind="mm"),
                                   SolverSpec(kind="gd-ls")])
        rep = run_experiment(spec)
        assert rep.solver_ids == ["mm", "gd-ls-nu1"]
        assert rep.mean_log_error.shape[1] == 2
        assert not rep.errors
        assert np.all(np.isfinite(rep.mean_log_error[0]))

    def test_padding_repeats_final_value(self):
        # mm converges long before gd-ls with a tiny step exhausts its
        # budget, so mm's column must be constant over the padded tail
        spec = small_spec(runs=1, solvers=[
            SolverSpec(kind="mm"),
            SolverSpec(kind="gd-fixed",
                       config=SolverConfig(nu=0.05, max_iters=120)),
        ])
        rep = run_experiment(spec)
        mm_len = len(rep.results["mm"][0].trace)
        assert rep.mean_log_error.shape[0] > mm_len
        tail = rep.mean_log_error[mm_len - 1:, 0]
        assert np.all(tail == tail[0])

    def test_single_trivial_run(self):
        spec = small_spec(
            n=1, p=1, runs=1,
            spectrum=SpectrumSpec(kind="explicit", dim=1, values=[2.0]))
        rep = run_experiment(spec)
        assert rep.mean_log_error.shape[0] <= 2
        assert rep.results["mm"][0].converged

    def test_solver_error_collected_not_raised(self, monkeypatch):
        def boom(e, cfg, x0):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(solvers.SOLVERS, "mm", boom)
        spec = small_spec(solvers=[SolverSpec(kind="mm"),
                                   SolverSpec(kind="gd-ls")], runs=2)
        rep = run_experiment(spec)
        assert len(rep.errors) == 2
        assert "synthetic failure" in rep.errors[0]
        assert rep.results["mm"] == [None, None]
        # the healthy solver column is still aggregated
        assert np.all(np.isfinite(rep.mean_log_error[:, 1]))
        assert np.all(np.isnan(rep.mean_log_error[:, 0]))


    def test_ensemble_error_collected_not_raised(self):
        # 1e300 and 1e-300 are 600 orders of magnitude apart, far below
        # the relative positivity floor, so every draw is rejected
        spec = small_spec(
            n=2, p=2, spectrum=SpectrumSpec(kind="explicit", dim=2,
                                            values=[1e300, 1e-300]),
            solvers=[SolverSpec(kind="mm"), SolverSpec(kind="gd-ls")])
        with np.errstate(over="ignore"):
            rep = run_experiment(spec)
        assert len(rep.errors) == 2
        assert rep.errors[0].startswith("run 0 ensemble: matrix 0")
        assert rep.results == {"mm": [None, None], "gd-ls-nu1": [None, None]}
        assert rep.mean_log_error.shape == (0, 2)


class TestReportOutput:
    def test_csv_header_and_precision(self):
        rep = run_experiment(small_spec(runs=1))
        text = report_to_csv(rep)
        lines = text.strip().split("\n")
        assert lines[0] == "iter,mm"
        first = lines[1].split(",")
        assert first[0] == "0"
        # 17 significant digits survive a float round-trip bitwise
        assert float(first[1]) == rep.mean_log_error[0, 0]


# The committed records of alternating parent/change benchmark runs that
# back each speed claim, and the top-level keys every one of them carries.
BENCH_FILES = sorted(Path(__file__).resolve().parents[1].glob("BENCH_pr*.json"))
BENCH_KEYS = {"schema", "parent", "env", "pair_order", "statistics", "claim", "workloads"}


class TestBenchRecords:
    def test_files_are_found(self):
        assert "BENCH_pr7.json" in [p.name for p in BENCH_FILES]

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
    def test_statistics_match_the_runs(self, path):
        d = json.loads(path.read_text(encoding="utf-8"))
        assert BENCH_KEYS <= set(d) and d["schema"] == 1
        for name, w in d["workloads"].items():
            for metric, m in w["metrics"].items():
                runs = {side: m[f"{side}_runs"] for side in ("parent", "change")}
                assert m["pairs"] == len(runs["parent"]) == len(runs["change"]) == len(w["seeds"])
                for side, values in runs.items():
                    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
                    want = {"median": statistics.median(values), "q1": q1, "q3": q3}
                    assert m[side] == pytest.approx(want, rel=1e-12), (name, metric, side)
                sign = 1 if m["better"] == "higher" else -1
                pairs = list(zip(runs["parent"], runs["change"]))
                assert m["change_wins"] == sum(sign * (c - p) > 0 for p, c in pairs)
                assert m["ties"] == sum(c == p for p, c in pairs)

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
    def test_claim_follows_the_rule(self, path):
        # the change wins at least 9 of 10 pairs, and the medians differ by
        # more than the distance between the parent's quartiles
        d = json.loads(path.read_text(encoding="utf-8"))
        claim = d["claim"]
        m = d["workloads"][claim["workload"]]["metrics"][claim["metric"]]
        sign = 1 if m["better"] == "higher" else -1
        gain = sign * (m["change"]["median"] - m["parent"]["median"])
        met = 10 * m["change_wins"] >= 9 * m["pairs"] and \
            gain > m["parent"]["q3"] - m["parent"]["q1"]
        assert claim["met"] == met
