from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sievar
import sievar.cli
from sievar.irf import (
    Compatibility,
    IncompatibleShockError,
    RelaxationFn,
    ShockSpec,
    SupportWarning,
    check_compatibility,
    estimated_irf,
    linear_irf,
    linearized_reduction,
    population_irf,
    relax_eval,
    shocked_path,
)
from sievar.model import InnovationLaw, LagPolynomial, ModelSpec
from sievar.study import derive_seed

from conftest import make_plan


def test_bump_identities(bump34):
    assert relax_eval(bump34, 0.0) == 1.0
    assert relax_eval(bump34, 3.0) == 0.0
    assert relax_eval(bump34, -3.0) == 0.0
    assert relax_eval(bump34, 10.0) == 0.0
    # hand value: exp(1 + ((1/16) - 1)^-1) = exp(-1/15)
    assert relax_eval(bump34, 1.5) == pytest.approx(math.exp(-1.0 / 15.0), abs=1e-12)
    grid = np.linspace(-4, 4, 2001)
    vals = np.asarray(relax_eval(bump34, grid))
    assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    assert np.all(vals[np.abs(grid) >= 3.0] == 0.0)


def test_interval_bump_midpoint_one():
    rho = RelaxationFn.interval_bump(-1.0, 5.0, 6.0)
    assert relax_eval(rho, 2.0) == 1.0
    assert relax_eval(rho, -1.0) == 0.0
    assert relax_eval(rho, 5.0) == 0.0
    vals = np.asarray(relax_eval(rho, np.linspace(-1, 5, 501)))
    assert np.all((vals >= 0) & (vals <= 1))


def test_interval_bump_rejects_nonpositive_alpha():
    for alpha in (0.0, -2.0):
        with pytest.raises(ValueError, match="alpha > 0"):
            RelaxationFn.interval_bump(-1.0, 5.0, alpha)


def test_constant_one():
    rho = RelaxationFn.constant_one()
    assert relax_eval(rho, 123.0) == 1.0


def test_compatibility_verdicts(bump34):
    assert check_compatibility(bump34, 1.0, (-3, 3)).compatible
    assert check_compatibility(bump34, -1.0, (-3, 3)).compatible
    assert not check_compatibility(RelaxationFn.constant_one(), 1.0, (-3, 3)).compatible
    for delta in (5.0, -5.0):
        verdict = check_compatibility(bump34, delta, (-3, 3))
        assert not verdict.compatible
        assert verdict.worst_margin < 0

    # brute-force grid oracle for the incompatible case
    grid = np.linspace(-3, 3, 200_001)
    worst = np.max(grid + np.asarray(relax_eval(bump34, grid)) * 5.0)
    verdict = check_compatibility(bump34, 5.0, (-3, 3))
    assert verdict.worst_margin == pytest.approx(3.0 - worst, abs=1e-6)


_relaxations = st.one_of(
    st.builds(RelaxationFn.symmetric_bump, c=st.floats(0.2, 6.0), alpha=st.floats(0.5, 8.0)),
    st.builds(
        lambda a, width, alpha: RelaxationFn.interval_bump(a, a + width, alpha),
        a=st.floats(-6.0, 4.0), width=st.floats(0.2, 8.0), alpha=st.floats(0.5, 8.0),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    rho=_relaxations,
    delta=st.floats(0.05, 6.0).flatmap(lambda m: st.sampled_from((m, -m))),
    lo=st.floats(-6.0, -0.5),
    hi=st.floats(0.5, 6.0),
)
def test_compatibility_verdict_agrees_with_dense_grid(rho, delta, lo, hi):
    verdict = check_compatibility(rho, delta, (lo, hi))
    assume(abs(verdict.worst_margin) > 1e-6)
    grid = np.linspace(lo, hi, 200_000)
    mapped = grid + np.asarray(relax_eval(rho, grid)) * delta
    past = mapped > hi if delta > 0 else mapped < lo
    assert verdict.compatible == (not past.any())


def test_dgp7_relaxation_compatible_with_two():
    rho = RelaxationFn.symmetric_bump(5.0, 3.9)
    for delta in (2.0, -2.0):
        assert check_compatibility(rho, delta, (-5, 5)).compatible


def test_shocked_path_zero_delta_bit_exact(dgp2, bump34):
    history = np.array([[0.4, -0.2]])
    eps = np.array([[0.5, 0.1], [-0.2, 0.3], [1.0, -0.7]])
    base, shocked = shocked_path(dgp2, history, eps, ShockSpec(0.0, bump34, 2))
    np.testing.assert_array_equal(base, shocked)


def test_shocked_path_baseline_invariance(dgp2, bump34):
    history = np.array([[1.0, 0.5]])
    eps = np.array([[0.2, -0.1], [0.4, 0.6]])
    base1, _ = shocked_path(dgp2, history, eps, ShockSpec(1.0, bump34, 1))
    base2, _ = shocked_path(dgp2, history, eps, ShockSpec(-0.7, bump34, 1))
    np.testing.assert_array_equal(base1, base2)


def test_shocked_path_linear_history_independent(dgp2):
    lin = sievar.linearized(dgp2)
    rho = RelaxationFn.constant_one()
    eps = np.array([[0.3, 0.2], [0.1, -0.5], [-0.4, 0.9], [0.0, 0.0]])
    shock = ShockSpec(1.0, rho, 3)
    h1 = np.array([[0.7, -1.2]])
    h2 = np.array([[-2.0, 0.4]])
    b1, s1 = shocked_path(lin, h1, eps, shock)
    b2, s2 = shocked_path(lin, h2, eps, shock)
    np.testing.assert_allclose(s1 - b1, s2 - b2, atol=1e-12)
    # and the difference equals the closed-form MA response
    lags, b_eff, _ = linearized_reduction(lin)
    ma = linear_irf(lags, b_eff, 1.0, 3)
    np.testing.assert_allclose(s1 - b1, ma.values, atol=1e-12)


def test_shocked_path_hand_values(dgp2):
    # linearized DGP 2, unit impact: Y differences 0.5 then 0.80
    lin = sievar.linearized(dgp2)
    eps = np.array([[0.3, 0.2], [0.1, -0.5]])
    base, shocked = shocked_path(lin, np.array([[0.5, 0.1]]), eps, ShockSpec(1.0, RelaxationFn.constant_one(), 1))
    diff = shocked - base
    assert diff[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert diff[1, 1] == pytest.approx(0.80, abs=1e-12)


def test_linear_irf_ar1_geometric():
    lags = LagPolynomial(np.array([[[0.5]]]))
    res = linear_irf(lags, np.zeros(0), 2.0, 6)
    np.testing.assert_allclose(res.values[:, 0], 2.0 * 0.5 ** np.arange(7), atol=1e-14)


def test_linear_irf_companion_oracle(dgp2):
    # independent oracle: companion-matrix powers with a selection matrix
    lags, b_eff, _ = linearized_reduction(sievar.linearized(dgp2))
    comp = lags.companion()
    sel = np.zeros((2, 2))
    sel[:2, :2] = np.eye(2)
    e1 = np.concatenate([[1.0], b_eff])
    res = linear_irf(lags, b_eff, 1.0, 8)
    power = np.eye(2)
    for h in range(9):
        np.testing.assert_allclose(res.values[h], power[:2, :2] @ e1, atol=1e-12)
        power = comp @ power
    assert res.values[0, 1] == pytest.approx(0.5, abs=1e-10)
    assert res.values[1, 1] == pytest.approx(0.80, abs=1e-10)


def test_linear_irf_h0_is_impact_column():
    lags = LagPolynomial(np.zeros((1, 3, 3)))
    res = linear_irf(lags, np.array([0.4, -0.2]), 2.0, 0)
    np.testing.assert_allclose(res.values, [[2.0, 0.8, -0.4]])


def test_linear_irf_explosive_rejected():
    lags = LagPolynomial(np.array([[[1.05]]]))
    with pytest.raises(ValueError, match="explosive"):
        linear_irf(lags, np.zeros(0), 1.0, 5)


def zero_bivariate():
    return ModelSpec(
        d_y=1, p=1, mu=np.zeros(2), lags=LagPolynomial(np.zeros((1, 2, 2))),
        impact=(((), ()),), b0_21=np.zeros(1),
        innovation=InnovationLaw(sigma=(1.0, 1.0), bound=3.0),
    )


def test_population_zero_spec(bump34):
    spec = zero_bivariate()
    res = population_irf(spec, ShockSpec(0.0, bump34, 4), replications=500, seed=1)
    np.testing.assert_array_equal(res.values, 0.0)
    res1 = population_irf(spec, ShockSpec(1.0, bump34, 4), replications=2000, seed=1)
    # without dynamics only the X impact responds (by delta * mean rho)
    np.testing.assert_array_equal(res1.values[1:], 0.0)
    np.testing.assert_array_equal(res1.values[0, 1:], 0.0)
    assert 0.0 < res1.values[0, 0] < 1.0


def test_population_impact_identity(dgp2, bump34, dgp2_pop_irf):
    # row-0 invariant: X response at impact is delta * E[rho(eps_1)]
    gen = np.random.default_rng(5150)
    eps = np.clip(gen.standard_normal(1_000_000), -3, 3)
    mean_rho = float(np.mean(np.asarray(relax_eval(bump34, eps))))
    se = float(np.std(np.asarray(relax_eval(bump34, eps)))) / 1000.0
    tol = 3.0 * math.sqrt(se**2 + float(dgp2_pop_irf.mc_se[0, 0]) ** 2)
    assert abs(dgp2_pop_irf.values[0, 0] - mean_rho) < tol


def test_population_clamp_counter_zero_for_builtin(dgp2_pop_irf):
    assert dgp2_pop_irf.clamped == 0


def test_population_nonrelaxed_warns(dgp2):
    with pytest.warns(SupportWarning, match="support violation"):
        population_irf(dgp2, ShockSpec(1.0, RelaxationFn.constant_one(), 1), replications=200, seed=0)


def test_estimated_irf_zero_delta_exact(dgp2, bump34):
    path = sievar.simulate(dgp2, 300, seed=44)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    res = estimated_irf(fit, path, ShockSpec(0.0, bump34, 6))
    np.testing.assert_array_equal(res.values, 0.0)


def test_estimated_irf_rejects_fit_of_another_sample(dgp2, bump34):
    own = sievar.simulate(dgp2, 300, seed=2)
    other = sievar.simulate(dgp2, 300, seed=1)
    fit = sievar.fit_two_step(own, make_plan(own.x))
    estimated_irf(fit, own, ShockSpec(1.0, bump34, 6))
    with pytest.raises(ValueError, match="not produced from this sample"):
        estimated_irf(fit, other, ShockSpec(1.0, bump34, 6))


def test_estimated_irf_accepts_infeasible_and_parametric_fits_of_own_sample(dgp2, bump34):
    path = sievar.simulate(dgp2, 300, seed=3)
    shock = ShockSpec(1.0, bump34, 6)
    for fit in (
        sievar.fit_infeasible(path, make_plan(path.x)),
        sievar.fit_parametric(path, 1, sievar.benchmark_true_form(2)),
    ):
        res = estimated_irf(fit, path, shock)
        assert np.all(np.isfinite(res.values))


def test_estimated_irf_impact_linear_in_delta(dgp2, bump34):
    path = sievar.simulate(dgp2, 300, seed=45)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    r1 = estimated_irf(fit, path, ShockSpec(0.5, bump34, 0))
    r2 = estimated_irf(fit, path, ShockSpec(1.0, bump34, 0))
    assert r2.values[0, 0] == pytest.approx(2.0 * r1.values[0, 0], rel=1e-12)


def test_estimated_irf_horizon_exceeds_sample(dgp2, bump34):
    path = sievar.simulate(dgp2, 50, seed=1)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    with pytest.raises(ValueError, match="horizon exceeds sample"):
        estimated_irf(fit, path, ShockSpec(1.0, bump34, 49))


def test_estimated_matches_linear_oracle_on_linear_fit(dgp2):
    lin_spec = sievar.linearized(dgp2)
    path = sievar.simulate(lin_spec, 400, seed=4)
    fit = sievar.fit_two_step(path, sievar.SievePlan(x_blocks=(None, None)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportWarning)
        est = estimated_irf(fit, path, ShockSpec(1.0, RelaxationFn.constant_one(), 12))
    closed = linear_irf(fit.lags, fit.b0_21, 1.0, 12)
    assert np.max(np.abs(est.values - closed.values)) < 1e-6


def test_estimated_consistency_band(dgp2, bump34, dgp2_pop_irf):
    """Median over seeds stays within 3 population-MC s.e. + 0.05 at h <= 12."""
    shock = ShockSpec(1.0, bump34, 12)
    errs = []
    for s in range(50):
        path = sievar.simulate(dgp2, 2400, derive_seed(61, s))
        fit = sievar.fit_two_step(path, make_plan(path.x))
        est = estimated_irf(fit, path, shock)
        errs.append(np.abs(est.values[:, 1] - dgp2_pop_irf.values[:, 1]))
    med = np.median(np.stack(errs), axis=0)
    band = 3.0 * dgp2_pop_irf.mc_se[:, 1] + 0.05
    assert np.all(med < band)


def test_estimated_irf_thread_invariance(dgp2, bump34):
    path = sievar.simulate(dgp2, 500, seed=46)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    shock = ShockSpec(1.0, bump34, 8)
    a = estimated_irf(fit, path, shock, threads=1, chunk=64)
    b = estimated_irf(fit, path, shock, threads=4, chunk=64)
    np.testing.assert_array_equal(a.values, b.values)


def test_population_irf_thread_invariance(dgp2, bump34):
    shock = ShockSpec(1.0, bump34, 3)
    a = population_irf(dgp2, shock, replications=4000, seed=3, threads=1, chunk=512)
    b = population_irf(dgp2, shock, replications=4000, seed=3, threads=4, chunk=512)
    np.testing.assert_array_equal(a.values, b.values)


def test_domain_safety_assertion_on_compatible_shock(dgp2, bump34):
    # with a compatible rho the impact stays inside the innovation support
    res = population_irf(dgp2, ShockSpec(1.0, bump34, 1), replications=5000, seed=11)
    assert np.all(np.isfinite(res.values))


def test_population_chunks_draw_disjoint_streams(dgp2, bump34, monkeypatch):
    draws = []
    draw_clipped = sievar.irf.draw_clipped

    def recording_draw(gen, shape, bound):
        out = draw_clipped(gen, shape, bound)
        draws.append(out[np.abs(out) < bound])  # clipped values repeat by construction
        return out

    monkeypatch.setattr(sievar.irf, "draw_clipped", recording_draw)
    shock = ShockSpec(1.0, bump34, 3)
    a = population_irf(dgp2, shock, replications=400, seed=5, burn_in=50, chunk=200)
    assert len(draws) == 4  # burn-in and future per chunk, chunks in order
    chunk0 = np.concatenate(draws[:2])
    chunk1 = np.concatenate(draws[2:])
    assert np.intersect1d(chunk0, chunk1).size == 0
    b = population_irf(dgp2, shock, replications=400, seed=5, burn_in=50, chunk=200, threads=2)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.mc_se, b.mc_se)


def test_out_of_support_impact_raises_typed_error(dgp2, tmp_path, monkeypatch):
    # a compatibility check that wrongly passes must not surface as AssertionError
    wrong = lambda rho, delta, support: Compatibility(True, 0.0, 0.0)  # noqa: E731
    monkeypatch.setattr(sievar.irf, "check_compatibility", wrong)
    monkeypatch.setattr(sievar.cli, "check_compatibility", wrong)
    shock = ShockSpec(5.0, RelaxationFn.symmetric_bump(3.0, 4.0), 2)
    with pytest.raises(IncompatibleShockError, match="left the innovation support"):
        population_irf(dgp2, shock, replications=500, seed=1, burn_in=20)
    cfg = {"dgp": 2, "n": 100, "seed": 1, "deltas": [5.0], "horizon": 2,
           "methods": ["population"], "population_replications": 500}
    cfg_file = tmp_path / "irf.json"
    cfg_file.write_text(json.dumps(cfg))
    code = sievar.cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "runs"), "irf"])
    assert code == sievar.cli.EXIT_COMPAT
