from __future__ import annotations

import csv
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievar
import sievar.cli
import sievar.model
from sievar import dataio
from sievar.cli import COMMANDS, KEYS, build_parser, main
from sievar.irf import ShockSpec

from conftest import make_plan


def run_cli(tmp_path: Path, command: str, cfg: dict, *extra: str) -> tuple[int, Path]:
    cfg_file = tmp_path / f"{command}.json"
    cfg_file.write_text(json.dumps(cfg))
    out = tmp_path / "runs"
    code = main(["--config", str(cfg_file), "--out", str(out), *extra, command])
    return code, out


def only_run_dir(out: Path, command: str) -> Path:
    dirs = sorted(out.glob(f"{command}-*"))
    assert len(dirs) >= 1
    return dirs[-1]


def read_rows(file: Path) -> list[dict]:
    with open(file, newline="") as fh:
        return list(csv.DictReader(fh))


def test_simulate_deterministic_output(tmp_path):
    cfg = {"dgp": 2, "n": 240, "seed": 1}
    code, out = run_cli(tmp_path, "simulate", cfg)
    assert code == 0
    run_dir = only_run_dir(out, "simulate")
    rows = read_rows(run_dir / "path.csv")
    assert len(rows) == 240
    assert list(rows[0]) == ["t", "X", "Y1", "eps1", "eps2"]
    first = (run_dir / "path.csv").read_bytes()
    code2, _ = run_cli(tmp_path, "simulate", cfg)
    assert code2 == 0
    assert (run_dir / "path.csv").read_bytes() == first
    echo = json.loads((run_dir / "config.json").read_text())
    assert echo == {"burn_in": 500, "phi_shift": False} | cfg  # resolved defaults included


def test_simulate_invalid_dgp_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "simulate", {"dgp": 11, "n": 50})
    assert code == 2


def test_invalid_study_config_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "mc", {"dgp": 2, "horizon": -1})
    assert code == 2
    code, _ = run_cli(tmp_path, "mc", {"dgp": 2}, "--threads", "0")
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "simulate", {"dgp": 2, "n": 50, "bogus": 1})
    assert code == 2


def test_estimate_on_linear_csv_data(tmp_path):
    lin = sievar.linearized(sievar.builtin_dgp(2))
    path = sievar.simulate(lin, 10_000, seed=9)
    dataio.write_simpath(path, tmp_path / "data.csv")
    cfg = {
        "data": {"path": str(tmp_path / "data.csv"), "structural": "X"},
        "p": 1,
        "sieve": {"degree": 3, "knots": [0.0], "domain": "data"},
    }
    code, out = run_cli(tmp_path, "estimate", cfg)
    assert code == 0
    run_dir = only_run_dir(out, "estimate")
    rows = read_rows(run_dir / "function_grid.csv")
    lag0 = [(float(r["x"]), float(r["value"])) for r in rows if r["equation"] == "0" and r["lag"] == "0"]
    grid = np.array([x for x, _ in lag0])
    vals = np.array([v for _, v in lag0])
    design = np.column_stack([np.ones_like(grid), grid])
    coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
    inner = np.abs(grid) <= 3.0
    assert np.max(np.abs(vals - design @ coef)[inner]) < 0.05


def test_estimate_missing_structural_column_exits_2(tmp_path):
    (tmp_path / "bad.csv").write_text("a,b\n1,2\n3,4\n")
    cfg = {"data": {"path": str(tmp_path / "bad.csv"), "structural": "X"}, "p": 1}
    code, _ = run_cli(tmp_path, "estimate", cfg)
    assert code == 2


def test_dataset_drops_gap_rows(tmp_path):
    (tmp_path / "gaps.csv").write_text("X,Y1\n1.0,2.0\n,3.0\n2.0,nan\n3.0,4.0\n")
    ds = dataio.read_dataset(tmp_path / "gaps.csv", "X")
    assert ds.n == 2
    assert ds.dropped_rows == 2


def test_irf_zero_delta_zero_curves(tmp_path):
    cfg = {
        "dgp": 2, "n": 300, "seed": 2, "deltas": [0.0], "horizon": 6,
        "methods": ["sieve"], "sieve": {"degree": 3, "knots": [0.0], "domain": "data"},
    }
    code, out = run_cli(tmp_path, "irf", cfg)
    assert code == 0
    rows = read_rows(only_run_dir(out, "irf") / "irf.csv")
    assert all(float(r["value"]) == 0.0 for r in rows)


def test_irf_checks_each_fit_once_for_all_deltas(tmp_path, monkeypatch):
    """Each fit's one-step sample check runs once and serves every delta,
    and the responses equal estimated_irf's, delta by delta."""
    checks = []
    real_check = sievar.irf._check_samples
    monkeypatch.setattr(sievar.irf, "_check_samples", lambda *a: checks.append(a[0]) or real_check(*a))
    deltas = [-1.0, 0.5, 1.0]
    cfg = {
        "dgp": 2, "n": 300, "seed": 2, "deltas": deltas, "horizon": 4,
        "methods": ["sieve", "parametric_max0"], "sieve": {"degree": 3, "knots": [0.0], "domain": "data"},
    }
    code, out = run_cli(tmp_path, "irf", cfg)
    assert code == 0
    assert len(checks) == 2
    monkeypatch.undo()
    rows = read_rows(only_run_dir(out, "irf") / "irf.csv")
    path = sievar.simulate(sievar.builtin_dgp(2), 300, seed=2)
    fit = sievar.fit_parametric(path, 1, sievar.max0_prior_form(1))
    rho = sievar.RelaxationFn.symmetric_bump(3.0, 4.0)
    for delta in deltas:
        values = sievar.estimated_irf(fit, path, ShockSpec(delta, rho, 4)).values
        got = [float(r["value"]) for r in rows if r["method"] == "parametric_max0" and float(r["delta"]) == delta]
        assert got == [float(v) for v in values.reshape(-1)]


def test_irf_incompatible_shock_exits_3(tmp_path, capsys):
    cfg = {
        "dgp": 2, "n": 300, "seed": 2, "deltas": [5.0], "horizon": 4,
        "methods": ["sieve"],
        "relaxation": {"kind": "symmetric_bump", "c": 3.0, "alpha": 4.0},
    }
    code, _ = run_cli(tmp_path, "irf", cfg)
    assert code == 3
    assert "worst margin" in capsys.readouterr().err


def test_irf_constant_one_warns_but_succeeds(tmp_path):
    cfg = {
        "dgp": 2, "n": 300, "seed": 2, "deltas": [1.0], "horizon": 4,
        "methods": ["sieve", "linear"], "relaxation": {"kind": "constant_one"},
    }
    with pytest.warns(sievar.SupportWarning):
        code, out = run_cli(tmp_path, "irf", cfg)
    assert code == 0
    svg = (only_run_dir(out, "irf") / "irf.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_irf_population_overlay(tmp_path):
    cfg = {
        "dgp": 1, "n": 400, "seed": 6, "deltas": [1.0], "horizon": 5,
        "methods": ["sieve", "parametric_max0", "linear", "population"],
        "population_replications": 3000,
    }
    code, out = run_cli(tmp_path, "irf", cfg)
    assert code == 0
    rows = read_rows(only_run_dir(out, "irf") / "irf.csv")
    methods = {r["method"] for r in rows}
    assert methods == {"estimated", "parametric_max0", "linear_closed_form", "population"}


def test_irf_population_zero_threads_exits_2(tmp_path):
    cfg = {"dgp": 1, "n": 100, "horizon": 2, "methods": ["population"], "population_replications": 100}
    code, _ = run_cli(tmp_path, "irf", cfg, "--threads", "0")
    assert code == 2


def test_irf_fit_bundle_roundtrip(tmp_path, monkeypatch):
    spec = sievar.builtin_dgp(2)
    path = sievar.simulate(spec, 400, seed=5)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    dataio.save_fitted(fit, tmp_path / "bundle")
    reloaded = dataio.load_fitted(tmp_path / "bundle")
    # each lag of the reloaded fit holds its own, equal knot vector
    lag0, lag1 = (terms[0].knots for terms in reloaded.impact[0])
    assert lag0 == lag1 and lag0 is not lag1
    shock = ShockSpec(1.0, sievar.RelaxationFn.symmetric_bump(3, 4), 8)
    calls = []
    real = sievar.model.span_offsets
    monkeypatch.setattr(sievar.model, "span_offsets", lambda kv, x: calls.append(kv) or real(kv, x))
    a = sievar.estimated_irf(fit, path, shock)
    in_memory_calls = len(calls)
    b = sievar.estimated_irf(reloaded, path, shock)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.clamped == b.clamped
    # the per-step spline spans are shared by value, not by object
    assert len(calls) == 2 * in_memory_calls


BUNDLE_PATH = sievar.simulate(sievar.builtin_dgp(2), 300, seed=21)
_LO, _HI = float(BUNDLE_PATH.x.min()), float(BUNDLE_PATH.x.max())
_blocks = st.one_of(
    st.none(),
    st.builds(
        lambda degree, knots: sievar.KnotVector(degree, tuple(sorted(knots)), _LO, _HI),
        st.integers(0, 3),
        st.lists(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]), max_size=3, unique=True),
    ),
)
_sieve_fits = st.tuples(_blocks, _blocks).map(
    lambda blocks: sievar.fit_two_step(BUNDLE_PATH, sievar.SievePlan(x_blocks=blocks))
)
_forms = st.builds(
    sievar.ParametricForm,
    st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(["max0", "smooth_phi", "cube", "identity"])),
        max_size=3,
    ).map(tuple),
    st.booleans(),
)
_parametric_fits = _forms.map(lambda form: sievar.fit_parametric(BUNDLE_PATH, 1, form))


@settings(max_examples=40, deadline=None)
@given(fit=st.one_of(_sieve_fits, _parametric_fits), regularized=st.booleans())
def test_fitted_bundle_round_trip_is_exact(fit, regularized):
    fit = dataclasses.replace(fit, regularized=regularized)
    with tempfile.TemporaryDirectory() as tmp:
        dataio.save_fitted(fit, Path(tmp) / "fitted.json")
        back = dataio.load_fitted(Path(tmp) / "fitted.json")
    for name in ("mu", "b0_21", "residuals2"):
        np.testing.assert_array_equal(getattr(back, name), getattr(fit, name))
    np.testing.assert_array_equal(back.lags.coeffs, fit.lags.coeffs)
    np.testing.assert_array_equal(back.first_stage.pi1, fit.first_stage.pi1)
    np.testing.assert_array_equal(back.first_stage.residuals, fit.first_stage.residuals)
    assert back.first_stage.sigma1 == fit.first_stage.sigma1
    assert back.first_stage.regularized == fit.first_stage.regularized
    assert back.impact == fit.impact
    assert back.innovation == fit.innovation
    assert back.coefficients == fit.coefficients
    assert back.plan == fit.plan
    assert back.parametric_form == fit.parametric_form
    assert back.regularized == fit.regularized
    assert back.n_obs == fit.n_obs
    assert back.generated == fit.generated


def test_infeasible_bundle_keeps_its_marker(tmp_path):
    path = sievar.simulate(sievar.builtin_dgp(2), 300, seed=6)
    fit = sievar.fit_infeasible(path, make_plan(path.x))
    dataio.save_fitted(fit, tmp_path / "fitted.json")
    back = dataio.load_fitted(tmp_path / "fitted.json")
    assert back.generated == fit.generated == "true_innovations"
    shock = ShockSpec(1.0, sievar.RelaxationFn.symmetric_bump(3, 4), 6)
    a = sievar.estimated_irf(fit, path, shock)
    b = sievar.estimated_irf(back, path, shock)
    np.testing.assert_array_equal(a.values, b.values)
    assert a.clamped == b.clamped


def test_bundle_without_marker_loads_as_first_stage(tmp_path):
    fit = sievar.fit_infeasible(BUNDLE_PATH, make_plan(BUNDLE_PATH.x))
    dataio.save_fitted(fit, tmp_path / "fitted.json")
    doc = json.loads((tmp_path / "fitted.json").read_text())
    del doc["generated"]
    (tmp_path / "fitted.json").write_text(json.dumps(doc))
    assert dataio.load_fitted(tmp_path / "fitted.json").generated == "first_stage"


def test_unknown_generated_source_rejected():
    fit = sievar.fit_two_step(BUNDLE_PATH, make_plan(BUNDLE_PATH.x))
    with pytest.raises(ValueError, match="generated regressor source"):
        dataclasses.replace(fit, generated="oracle")


def test_mc_command_writes_schema(tmp_path):
    cfg = {
        "dgp": 2, "n": 240, "replications": 8, "population_replications": 1000,
        "deltas": [1.0], "horizon": 4, "estimators": ["sieve"], "seed": 3,
    }
    code, out = run_cli(tmp_path, "mc", cfg)
    assert code == 0
    run_dir = only_run_dir(out, "mc")
    rows = read_rows(run_dir / "study.csv")
    assert list(rows[0]) == [
        "estimator", "delta", "var", "h", "mse", "bias", "se", "n_ok", "population", "population_mc_se"
    ]
    assert len(rows) == 2 * 5  # vars x horizons
    assert all(r["n_ok"] == "8" for r in rows)
    assert (run_dir / "study.svg").exists()


def test_mc_run_manifest_matches_direct_study(tmp_path):
    cfg = {
        "dgp": 2, "n": 240, "replications": 6, "population_replications": 1000,
        "deltas": [1.0, -1.0], "horizon": 4, "estimators": ["sieve"], "seed": 4,
    }
    code, out = run_cli(tmp_path, "mc", cfg, "--threads", "2")
    assert code == 0
    run_dir = only_run_dir(out, "mc")
    manifest = json.loads((run_dir / "run.json").read_text())
    # the replications ran in two processes; the direct study runs in one
    assert manifest["threads"] == manifest["processes"] == 2
    direct = sievar.run_study(sievar.default_study_config(
        2, n=240, mc_replications=6, pop_replications=1000, deltas=(1.0, -1.0),
        horizon=4, estimators=("sieve",), master_seed=4,
    ))
    assert manifest["n_ok"] == direct.n_ok == 6
    assert manifest["failed"] == len(direct.failed)
    assert manifest["failure_causes"] == direct.failure_causes
    assert manifest["regularized"] == direct.regularized == {"sieve": 0}
    assert manifest["clamped"] == direct.clamped > 0
    assert direct.processes == 1
    # the forked worker was reaped, so its peak counts among the children's
    assert manifest["peak_rss_mb"]["self"] > 0.0 and manifest["peak_rss_mb"]["children"] > 0.0
    assert manifest["population_max_mc_se"] == [
        {"delta": delta, "max_mc_se": float(np.max(direct.population[delta].mc_se))}
        for delta in (-1.0, 1.0)
    ]
    assert set(manifest["stage_seconds"]) == set(direct.stage_seconds)
    assert all(v > 0.0 for v in manifest["stage_seconds"].values())
    # study.csv carries the population reference beside each moment, by repr
    rows = read_rows(run_dir / "study.csv")
    assert len(rows) == 2 * 2 * 5  # deltas x vars x horizons
    for row in rows:
        pop = direct.population[float(row["delta"])]
        v = pop.variables.index(row["var"])
        h = int(row["h"])
        assert row["population"] == repr(float(pop.values[h, v]))
        assert row["population_mc_se"] == repr(float(pop.mc_se[h, v]))
    assert manifest["sievar_version"] == sievar.__version__
    assert manifest["numpy_version"] == np.__version__
    assert (run_dir / "config.json").exists()


def test_mc_paper_scale_flag_respects_explicit_counts(tmp_path):
    cfg = {
        "dgp": 2, "n": 240, "replications": 4, "population_replications": 800,
        "deltas": [1.0], "horizon": 3, "estimators": ["sieve"], "seed": 3,
    }
    code, out = run_cli(tmp_path, "mc", cfg, "--paper-scale")
    assert code == 0
    rows = read_rows(only_run_dir(out, "mc") / "study.csv")
    assert all(r["n_ok"] == "4" for r in rows)  # explicit counts win
    echo = json.loads((only_run_dir(out, "mc") / "config.json").read_text())
    assert echo["paper_scale"] is True


def test_diagnose_ar1_report(tmp_path, capsys):
    cfg = {"ar": [0.5], "mode": "both", "replications": 2000, "h_max": 8, "samples": 40, "seed": 2}
    code, out = run_cli(tmp_path, "diagnose", cfg)
    assert code == 0
    text = (only_run_dir(out, "diagnose") / "report.txt").read_text()
    a2 = float(text.split("a2=")[1].split()[0])
    assert abs(a2 - np.log(2.0)) < 0.1
    rows = read_rows(only_run_dir(out, "diagnose") / "dependence.csv")
    assert list(rows[0]) == ["h", "delta_r"]


def test_diagnose_run_manifest_matches_direct_calls(tmp_path):
    cfg = {"dgp": 2, "mode": "both", "replications": 300, "h_max": 5, "samples": 12, "h_cap": 4, "seed": 6}
    code, out = run_cli(tmp_path, "diagnose", cfg)
    assert code == 0
    run_dir = only_run_dir(out, "diagnose")
    manifest = json.loads((run_dir / "run.json").read_text())
    spec = sievar.builtin_dgp(2)
    profile = sievar.estimate_delta_r(spec, h_max=5, replications=300, seed=6)
    report = sievar.find_h_star(spec, h_cap=4, samples=12, seed=6)
    assert manifest["replications"] == profile.replications == 300
    assert manifest["fit_residual"] == profile.fit_residual
    assert (manifest["samples"], manifest["h_cap"]) == (report.samples, 4) == (12, 4)
    assert manifest["h_star"] == report.h_star
    assert manifest["c_z"] == report.c_z
    assert (manifest["mode"], manifest["seed"]) == ("both", 6)
    assert manifest["dependence_s"] >= 0.0 and manifest["stability_s"] >= 0.0
    assert set(manifest["peak_rss_mb"]) == {"self", "children"}
    assert manifest["peak_rss_mb"]["self"] > 0.0 and manifest["peak_rss_mb"]["children"] >= 0.0
    assert manifest["sievar_version"] == sievar.__version__
    assert manifest["numpy_version"] == np.__version__
    assert (run_dir / "config.json").exists()

    stability_only = tmp_path / "stability"
    stability_only.mkdir()
    code, out = run_cli(stability_only, "diagnose", {"ar": [0.5], "mode": "stability", "samples": 8, "seed": 1})
    assert code == 0
    manifest = json.loads((only_run_dir(out, "diagnose") / "run.json").read_text())
    assert manifest["replications"] is manifest["dependence_s"] is None
    assert manifest["h_star"] == 1 and manifest["stability_s"] >= 0.0


@pytest.mark.parametrize(
    "bad",
    [
        {"r": 0}, {"r": -1}, {"r": "two"}, {"h_max": 0}, {"h_max": -1}, {"replications": 50},
        {"h_cap": 0}, {"samples": 0}, {"mode": "bogus"}, {"dgp": 9}, {"seed": "one"},
    ],
)
def test_diagnose_bad_values_exit_2(tmp_path, capsys, bad):
    code, out = run_cli(tmp_path, "diagnose", {"dgp": 2, "replications": 100, "samples": 4, "seed": 1} | bad)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("diagnose-*"))


def test_relax_check_exit_codes(tmp_path):
    good = {"relaxation": {"kind": "symmetric_bump", "c": 3.0, "alpha": 4.0},
            "deltas": [1.0, -1.0], "support": [-3, 3]}
    code, _ = run_cli(tmp_path, "relax-check", good)
    assert code == 0
    bad = dict(good, deltas=[5.0])
    code, _ = run_cli(tmp_path, "relax-check", bad)
    assert code == 3


def test_numeric_failure_exits_4(tmp_path):
    cfg = {"dgp": 2, "n": 30, "seed": 1, "deltas": [1.0], "horizon": 29, "methods": ["sieve"]}
    code, _ = run_cli(tmp_path, "irf", cfg)
    assert code == 4


@pytest.mark.parametrize(
    ("sieve", "message"),
    [
        ({"domain": [-1, 1], "knots": [0.0, 5.0]}, "inside the domain"),
        ({"knots": [-0.5, 0.5, 0.0]}, "increasing"),
        ({"knots": [i / 10 for i in range(-9, 10)], "domain": [-1, 1]}, "overparameterized"),
    ],
)
def test_mc_sieve_config_error_exits_4_before_any_replication(tmp_path, capsys, monkeypatch, sieve, message):
    """A sieve that the config alone makes unusable fails the study with the
    library's message before the population phase, not as m failed
    replications."""
    calls = []
    monkeypatch.setattr(sievar.study, "population_irf", lambda *a, **k: calls.append(a))
    cfg = {"dgp": 2, "n": 30, "horizon": 2, "replications": 4, "population_replications": 200, "sieve": sieve}
    code, _ = run_cli(tmp_path, "mc", cfg)
    assert code == 4
    assert message in capsys.readouterr().err
    assert calls == []


def test_mc_whose_replications_all_fail_exits_4(tmp_path, capsys):
    """A knot outside every simulated sample's range fails each replication
    in its fit; the study then fails as a numeric failure, naming the cause."""
    cfg = {"dgp": 2, "n": 60, "horizon": 2, "replications": 4, "population_replications": 200,
           "sieve": {"knots": [5.0]}}
    code, _ = run_cli(tmp_path, "mc", cfg)
    assert code == 4
    err = capsys.readouterr().err
    assert "4 of 4 replications failed" in err and "'ValueError': 4" in err


def test_model_config_round_trip(tmp_path):
    spec = sievar.builtin_dgp(2)
    model_cfg = dataio.spec_to_config(spec)
    rebuilt = dataio.spec_from_config(json.loads(json.dumps(model_cfg)))
    a = sievar.simulate(spec, 100, seed=3)
    b = sievar.simulate(rebuilt, 100, seed=3)
    np.testing.assert_array_equal(a.z, b.z)

    code, out = run_cli(tmp_path, "simulate", {"model": model_cfg, "n": 60, "seed": 2})
    assert code == 0
    rows = read_rows(only_run_dir(out, "simulate") / "path.csv")
    assert len(rows) == 60

    code, _ = run_cli(tmp_path, "simulate", {"model": {"d_y": 1, "p": 1, "oops": 0}, "n": 20})
    assert code == 2


def test_quantile_knot_config(tmp_path):
    cfg = {
        "dgp": 2, "n": 500, "seed": 7, "p": 1,
        "sieve": {"degree": 3, "knots": "quantile:2", "domain": "data"},
    }
    code, out = run_cli(tmp_path, "estimate", cfg)
    assert code == 0
    bundle = json.loads((only_run_dir(out, "estimate") / "fitted.json").read_text())
    knots = bundle["plan"][0]["interior"]
    assert len(knots) == 2 and knots[0] < knots[1]


# (key, value) pairs that every command accepting the key must reject
MALFORMED = [
    ("n", "abc"), ("n", 240.5), ("n", True), ("seed", "one"), ("phi_shift", "no"),
    ("support", [1]), ("support", [-3.0, "3"]), ("support", [3.0, -3.0]),
    ("deltas", 1.0), ("deltas", ["1"]), ("relaxation", "bump"),
    ("relaxation", {"kind": "symmetric_bump"}), ("relaxation", {"kind": "bogus", "c": 3.0}),
    ("relaxation", {"c": 3.0, "alpha": 4.0, "beta": 1.0}),
    ("sieve", [3]), ("sieve", {"domain": [1]}), ("sieve", {"degree": 2.5}),
    ("sieve", {"knots": "quantile:x"}), ("estimators", "sieve"), ("methods", "sieve"),
    ("methods", ["oracle"]), ("mode", 2), ("h_max", 1.5), ("ar", 0.5), ("model", [1]),
    ("data", {"structural": "X"}), ("data", {"path": 3}), ("p", "1"), ("fit_bundle", 1),
]
# a small valid config of each command
SMALL = {
    "simulate": {"dgp": 2, "n": 60},
    "estimate": {"dgp": 2, "n": 60},
    "irf": {"dgp": 2, "n": 60, "horizon": 2},
    "mc": {"dgp": 2, "n": 60, "horizon": 2, "replications": 4, "population_replications": 200},
    "diagnose": {"dgp": 2, "replications": 100, "samples": 4, "h_max": 3},
    "relax-check": {},
}


@pytest.mark.parametrize(
    "command, bad",
    [(command, {key: value}) for key, value in MALFORMED for command in COMMANDS
     if key in COMMANDS[command].keys]
    # mc's knots go to the study config, which takes no quantile knots
    + [("mc", {"sieve": {"knots": "quantile:2"}}), ("simulate", {"model": {"d_y": 1}})]

    + [(command, {"bogus": 1}) for command in COMMANDS]
    # empty lists, and a study without population replications
    + [(command, {key: []}) for key in ("deltas", "methods", "estimators") for command in COMMANDS
       if key in COMMANDS[command].keys]
    + [("mc", {"population_replications": 0})]
    # library argument checks, rejected with the config
    + [("irf", {"methods": ["population"], "population_replications": 0}), ("irf", {"horizon": -1}),
       ("simulate", {"n": 0}), ("simulate", {"n": 1}), ("simulate", {"burn_in": -1}),
       ("estimate", {"grid_points": 0}), ("estimate", {"grid_points": -1})],
)
def test_malformed_config_exits_2_and_leaves_no_run_dir(tmp_path, capsys, command, bad):
    code, out = run_cli(tmp_path, command, SMALL[command] | bad)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob(f"{command}-*"))


@pytest.mark.parametrize("command", list(COMMANDS))
def test_zero_threads_exits_2_for_every_command(tmp_path, capsys, command):
    code, out = run_cli(tmp_path, command, SMALL[command], "--threads", "0")
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob(f"{command}-*"))


@pytest.mark.parametrize("command", [command for command in COMMANDS if command != "relax-check"])
def test_every_run_writes_the_manifest(tmp_path, command):
    code, out = run_cli(tmp_path, command, SMALL[command], "--seed", "5")
    assert code == 0
    run_dir = only_run_dir(out, command)
    manifest = json.loads((run_dir / "run.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["sievar_version"] == sievar.__version__
    assert manifest["numpy_version"] == np.__version__
    assert manifest["peak_rss_mb"]["self"] > 0.0
    echo = json.loads((run_dir / "config.json").read_text())
    assert echo["seed"] == 5 and echo["dgp"] == 2


def spy_calls(monkeypatch, module, names: tuple[str, ...]) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def spy(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
    return calls


def test_irf_fits_once_for_all_shock_sizes(tmp_path, monkeypatch):
    calls = spy_calls(monkeypatch, sievar.cli, ("fit_two_step", "fit_parametric"))
    cfg = {"dgp": 2, "n": 300, "seed": 4, "horizon": 4,
           "methods": ["sieve", "parametric_max0", "linear"]}
    deltas = [1.0, -1.0, 0.5]
    rows = {}
    for run in (deltas, *([d] for d in deltas)):
        calls.update(fit_two_step=0, fit_parametric=0)
        (tmp_path / str(len(rows))).mkdir()
        code, out = run_cli(tmp_path / str(len(rows)), "irf", cfg | {"deltas": run})
        assert code == 0
        assert calls == {"fit_two_step": 2, "fit_parametric": 1}
        rows[tuple(run)] = (only_run_dir(out, "irf") / "irf.csv").read_text().splitlines()[1:]
    by_delta = {}
    for row in rows[tuple(deltas)]:
        by_delta.setdefault(row.rsplit(",", 1)[1], []).append(row)
    assert len(by_delta) == len(deltas)
    for d in deltas:
        single = rows[(d,)]
        assert by_delta[single[0].rsplit(",", 1)[1]] == single


def test_irf_loads_the_fit_bundle_once(tmp_path, monkeypatch):
    path = sievar.simulate(sievar.builtin_dgp(2), 300, seed=2)
    dataio.save_fitted(sievar.fit_two_step(path, make_plan(path.x)), tmp_path / "fitted.json")
    calls = spy_calls(monkeypatch, dataio, ("load_fitted",))
    cfg = {"dgp": 2, "n": 300, "seed": 2, "horizon": 3, "deltas": [1.0, 0.5, -0.5],
           "methods": ["sieve"], "fit_bundle": str(tmp_path / "fitted.json")}
    code, _ = run_cli(tmp_path, "irf", cfg)
    assert code == 0
    assert calls == {"load_fitted": 1}


def readme_key_table() -> dict[str, set[str]]:
    """Command -> the keys that README's config-key table lists for it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table: dict[str, set[str]] = {}
    for line in readme.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            for command in cells[-1].split(", "):
                table.setdefault(command, set()).add(cells[0].strip("`"))
    return table


def test_readme_key_table_matches_the_declared_keys():
    declared = {
        command: set(spec.keys) | {
            f"{key}.{sub}" for key in spec.keys if KEYS[key].table for sub in KEYS[key].table
        }
        for command, spec in COMMANDS.items()
    }
    assert readme_key_table() == declared


def test_parser_commands_are_the_declared_commands():
    (action,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert list(action.choices) == list(COMMANDS)
