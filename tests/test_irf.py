from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc
import warnings
from unittest import mock

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
)
from sievar.model import InnovationLaw, LagPolynomial, ModelSpec, iterate_paths
from sievar.study import _fit_one, default_study_config, derive_seed

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


def test_population_irf_zero_delta_bit_exact(dgp2, bump34):
    res = population_irf(dgp2, ShockSpec(0.0, bump34, 4), replications=700, seed=8, chunk=256)
    np.testing.assert_array_equal(res.values, 0.0)
    np.testing.assert_array_equal(res.mc_se, 0.0)


def _shocked(eps, delta, rho):
    out = eps.copy()
    out[:, 0, 0] += delta * np.asarray(relax_eval(rho, eps[:, 0, 0]))
    return out


def test_iterate_paths_baseline_invariance(dgp2, bump34):
    history = np.array([[[1.0, 0.5]]])
    eps = np.array([[[0.2, -0.1], [0.4, 0.6]]])
    base1, _ = iterate_paths(dgp2, history, eps)
    for delta in (1.0, -0.7):
        shocked, _ = iterate_paths(dgp2, history, _shocked(eps, delta, bump34))
        assert not np.array_equal(shocked, base1)
        base2, _ = iterate_paths(dgp2, history, eps)
        np.testing.assert_array_equal(base1, base2)
    np.testing.assert_array_equal(eps, [[[0.2, -0.1], [0.4, 0.6]]])


def test_estimated_irf_linear_history_independent(dgp2):
    # every history of a linear fit responds alike, so on any sample the
    # plug-in average is the closed-form MA response of the fitted coefficients
    shock = ShockSpec(1.0, RelaxationFn.constant_one(), 3)
    for seed in (4, 12):
        path = sievar.simulate(sievar.linearized(dgp2), 400, seed=seed)
        fit = sievar.fit_two_step(path, sievar.SievePlan(x_blocks=(None, None)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SupportWarning)
            est = estimated_irf(fit, path, shock, chunk=64)
        ma = linear_irf(fit.lags, fit.b0_21, 1.0, 3)
        np.testing.assert_allclose(est.values, ma.values, rtol=0, atol=1e-12)


def test_iterate_paths_hand_values(dgp2):
    # linearized DGP 2, unit impact: Y differences 0.5 then 0.80
    lin = sievar.linearized(dgp2)
    history = np.array([[[0.5, 0.1]]])
    eps = np.array([[[0.3, 0.2], [0.1, -0.5]]])
    base, _ = iterate_paths(lin, history, eps)
    shocked, _ = iterate_paths(lin, history, _shocked(eps, 1.0, RelaxationFn.constant_one()))
    diff = (shocked - base)[0]
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


def test_population_chunk_memory_is_one_burn_in_block():
    # a burn-in keeps only the state it hands on, so one chunk's traced peak
    # is its (4096, 500, 2) innovation block plus small change
    spec = sievar.builtin_dgp(7)
    shock = ShockSpec(2.0, RelaxationFn.symmetric_bump(5.0, 3.9), 20)
    population_irf(spec, shock, replications=64, seed=0, burn_in=5, chunk=64)
    block = 4096 * 500 * spec.d * 8
    tracemalloc.start()
    try:
        population_irf(spec, shock, replications=4096, seed=0, burn_in=500, threads=1, chunk=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block


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
    # a thread count below one, which `sievar irf --threads 0` passes on, runs serially
    c = population_irf(dgp2, shock, replications=4000, seed=3, threads=0, chunk=512)
    np.testing.assert_array_equal(a.values, c.values)


def test_domain_safety_assertion_on_compatible_shock(dgp2, bump34):
    # with a compatible rho the impact stays inside the innovation support
    res = population_irf(dgp2, ShockSpec(1.0, bump34, 1), replications=5000, seed=11)
    assert np.all(np.isfinite(res.values))


def test_population_chunks_draw_disjoint_streams(dgp2, bump34, monkeypatch):
    draws = []
    draw_clipped = sievar.irf.draw_clipped

    def recording_draw(gen, shape, bound, buffer=None):
        out = draw_clipped(gen, shape, bound, buffer)
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


@pytest.mark.parametrize("threads", [1, 2])
def test_population_draws_reuse_one_buffer_per_worker(dgp2, bump34, threads, monkeypatch):
    buffers = []
    draw_clipped = sievar.irf.draw_clipped

    def recording_draw(gen, shape, bound, buffer=None):
        buffers.append(buffer.base)
        return draw_clipped(gen, shape, bound, buffer)

    monkeypatch.setattr(sievar.irf, "draw_clipped", recording_draw)
    shock = ShockSpec(1.0, bump34, 3)
    got = population_irf(dgp2, shock, replications=500, seed=5, burn_in=50, chunk=200, threads=threads)
    # three chunks, the last one short, each draw its burn-in and future into
    # a buffer, and there is at most one buffer per worker
    assert len(buffers) == 6 and len({id(b) for b in buffers}) <= threads
    assert all(b.shape == (200 * 50 * 2,) for b in buffers)
    monkeypatch.undo()
    one_thread = population_irf(dgp2, shock, replications=500, seed=5, burn_in=50, chunk=200)
    np.testing.assert_array_equal(got.values, one_thread.values)
    np.testing.assert_array_equal(got.mc_se, one_thread.mc_se)


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


def oracle_estimated_irf(fit, path, shock, chunk=4096):
    """The two-pass plug-in IRF: iterate baseline and shocked paths from every
    impact time and average their difference (no sample check)."""
    x, y = path.x, path.y
    p, d, h = fit.p, fit.d, shock.horizon
    usable = x.size - p - h
    z = np.column_stack([x, y])
    resid = np.column_stack([fit.first_stage.residuals, fit.residuals2])
    rho_vals = np.asarray(relax_eval(shock.relaxation, resid[:, 0]))
    total = np.zeros((h + 1, d))
    clamped = 0
    for start in range(0, usable, chunk):
        idx = np.arange(start, min(start + chunk, usable))
        state = z[idx[:, None] + np.arange(p)[None, :]]
        eps_path = resid[idx[:, None] + np.arange(h + 1)[None, :]]
        shocked_eps = eps_path.copy()
        shocked_eps[:, 0, 0] += shock.delta * rho_vals[idx]
        base, clamp_b = iterate_paths(fit, state, eps_path)
        shocked, clamp_s = iterate_paths(fit, state, shocked_eps)
        diff = shocked - base
        total += diff.sum(axis=0)
        clamped += clamp_b + clamp_s
    return total / usable, clamped


STUDY_ESTIMATORS = ("parametric_true", "parametric_max0", "sieve")


@pytest.mark.parametrize("dgp_id", range(1, 8))
def test_estimated_irf_matches_two_pass_oracle(dgp_id):
    cfg = default_study_config(dgp_id, n=300, horizon=8)
    path = sievar.simulate(sievar.builtin_dgp(dgp_id), cfg.n, seed=dgp_id + 70)
    tolerance = 1e-12 * (1.0 + float(np.max(np.abs(path.z))))
    fits = {tag: _fit_one(cfg, tag, path) for tag in STUDY_ESTIMATORS}
    fits["infeasible"] = sievar.fit_infeasible(path, sievar.study._study_plan(cfg, path.x))
    for delta in (-1.0, 0.0, 1.0):
        shock = ShockSpec(delta, cfg.relaxation, cfg.horizon)
        for tag, fit in fits.items():
            res = estimated_irf(fit, path, shock, chunk=128)
            oracle, clamped = oracle_estimated_irf(fit, path, shock, chunk=128)
            if tag == "infeasible":
                np.testing.assert_array_equal(res.values, oracle)
                assert res.clamped == clamped
            else:
                np.testing.assert_allclose(res.values, oracle, rtol=0, atol=tolerance, err_msg=tag)
    assert fits["infeasible"].generated == "true_innovations"
    assert {fits[tag].generated for tag in STUDY_ESTIMATORS} == {"first_stage"}


def _counting_iterate():
    """An ``iterate_paths`` stand-in that records (rows, steps, clamped) per call."""
    calls = []

    def counting(spec, state, eps_path):
        out, clamped = iterate_paths(spec, state, eps_path)
        calls.append((*np.shape(eps_path)[:2], clamped))
        return out, clamped

    return calls, counting


IDLE_PATH = sievar.simulate(sievar.builtin_dgp(2), 240, seed=17)
IDLE_FITS = (
    sievar.fit_two_step(IDLE_PATH, make_plan(IDLE_PATH.x)),
    sievar.fit_parametric(IDLE_PATH, 1, sievar.benchmark_true_form(2)),
    sievar.fit_parametric(IDLE_PATH, 1, sievar.max0_prior_form(1)),
)
_RESID_LO = float(IDLE_FITS[0].first_stage.residuals.min())
_RESID_HI = float(IDLE_FITS[0].first_stage.residuals.max())


def _bump_beyond_residuals(gap, width, alpha, above):
    a = _RESID_HI + gap if above else _RESID_LO - gap - width
    return RelaxationFn.interval_bump(a, a + width, alpha)


_idle_shocks = st.one_of(
    # a zero shock with any relaxation
    st.tuples(st.sampled_from((0.0, -0.0)), _relaxations),
    # any shock whose relaxation is zero at every residual
    st.tuples(
        st.floats(-4.0, 4.0),
        st.builds(
            _bump_beyond_residuals, gap=st.floats(0.0, 3.0), width=st.floats(0.1, 5.0),
            alpha=st.floats(0.5, 8.0), above=st.booleans(),
        ),
    ),
)


@settings(max_examples=60, deadline=None)
@given(shock=_idle_shocks, fit_index=st.integers(0, 2), horizon=st.integers(0, 20))
def test_idle_shock_iterates_nothing(shock, fit_index, horizon):
    delta, rho = shock
    fit = IDLE_FITS[fit_index]
    calls, counting = _counting_iterate()
    with mock.patch.object(sievar.irf, "iterate_paths", counting):
        res = estimated_irf(fit, IDLE_PATH, ShockSpec(delta, rho, horizon))
    np.testing.assert_array_equal(res.values, 0.0)
    assert res.clamped == 0
    # only the sample check: one step from every observed history
    assert [call[:2] for call in calls] == [(IDLE_PATH.n - fit.p, 1)]


@pytest.mark.parametrize("fit", IDLE_FITS, ids=("sieve", "parametric_true", "parametric_max0"))
def test_estimated_irf_row_step_count(fit):
    # a narrow bump leaves many impact times unshocked; only the shocked ones iterate
    shock = ShockSpec(1.5, RelaxationFn.symmetric_bump(0.8, 2.0), 10)
    usable = IDLE_PATH.n - fit.p - shock.horizon
    live = np.count_nonzero(np.asarray(relax_eval(shock.relaxation, fit.first_stage.residuals[:usable])))
    assert 0 < live < usable
    calls, counting = _counting_iterate()
    with mock.patch.object(sievar.irf, "iterate_paths", counting):
        res = estimated_irf(fit, IDLE_PATH, shock, chunk=50)
    row_steps = sum(rows * steps for rows, steps, _ in calls)
    assert row_steps == live * (shock.horizon + 1) + (IDLE_PATH.n - fit.p)
    # clamped counts the shocked paths only, not the sample check
    assert res.clamped == sum(clamped for _, _, clamped in calls[1:])


def test_estimated_irf_rejects_mislabelled_infeasible_fit(bump34):
    path = sievar.simulate(sievar.builtin_dgp(2), 300, seed=3)
    fit = sievar.fit_infeasible(path, make_plan(path.x))
    shock = ShockSpec(1.0, bump34, 6)
    estimated_irf(fit, path, shock)
    with pytest.raises(ValueError, match="not produced from this sample"):
        estimated_irf(dataclasses.replace(fit, generated="first_stage"), path, shock)


def _snapshot(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def test_irfs_leave_their_inputs_unchanged(dgp2, bump34):
    path = sievar.simulate(dgp2, 300, seed=23)
    plan = make_plan(path.x)
    fits = (sievar.fit_two_step(path, plan), sievar.fit_infeasible(path, plan))
    shock = ShockSpec(1.0, bump34, 6)
    for fit in fits:
        inputs = (
            path.x, path.y, path.eps, fit.first_stage.residuals, fit.residuals2,
            fit.first_stage.pi1, fit.mu, fit.lags.coeffs, fit.b0_21,
        )
        before = _snapshot(*inputs)
        first = estimated_irf(fit, path, shock, chunk=64)
        again = estimated_irf(fit, path, shock, threads=2, chunk=64)
        for now, then in zip(inputs, before):
            assert now.tobytes() == then.tobytes()
        np.testing.assert_array_equal(first.values, again.values)
    state = (dgp2.mu, dgp2.lags.coeffs, dgp2.b0_21)
    before = _snapshot(*state)
    population_irf(dgp2, shock, replications=600, seed=4, burn_in=30, threads=2, chunk=200)
    for now, then in zip(state, before):
        assert now.tobytes() == then.tobytes()
