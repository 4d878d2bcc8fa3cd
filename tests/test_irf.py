from __future__ import annotations

import dataclasses
import json
import math
import os
import re
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
from sievar.model import (
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    final_states,
    iterate_paths,
    philox,
)
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
    # the verdict's own worst point joins the grid: a sharp (alpha < 1) bump
    # can peak between the grid points
    grid = np.append(np.linspace(lo, hi, 200_000), verdict.worst_point)
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
    # a chunk draws its burn-in one block at a time and keeps only the state
    # it hands on, so its traced peak is one draw block plus the future's
    # paths, whatever the burn-in's length
    spec = sievar.builtin_dgp(7)
    shock = ShockSpec(2.0, RelaxationFn.symmetric_bump(5.0, 3.9), 20)
    population_irf(spec, shock, replications=64, seed=0, burn_in=5, chunk=64)
    block = sievar.irf.DRAW_STEPS * spec.d * 4096 * 8
    path = (shock.horizon + 1) * spec.d * 4096 * 8
    for burn_in in (50, 500, 2000):
        tracemalloc.start()
        try:
            population_irf(spec, shock, replications=4096, seed=0, burn_in=burn_in, threads=1, chunk=4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (block + 3 * path)


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


def test_estimated_irf_chunk_invariance(dgp2, bump34):
    path = sievar.simulate(dgp2, 500, seed=46)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    shock = ShockSpec(1.0, bump34, 8)
    a = estimated_irf(fit, path, shock, chunk=64)
    b = estimated_irf(fit, path, shock, chunk=64)
    np.testing.assert_array_equal(a.values, b.values)
    # chunk sums merge in chunk order, so only their rounding depends on chunk
    whole = estimated_irf(fit, path, shock)
    np.testing.assert_allclose(a.values, whole.values, rtol=1e-12, atol=1e-15)
    assert a.clamped == whole.clamped


@pytest.mark.filterwarnings("ignore::sievar.StabilityWarning")
def test_population_irf_thread_invariance(dgp2, bump34):
    # 1000 replications in chunks of 300 leave a short last chunk; a sieve
    # fit's paths leave its knot domain, so clamped counts something. The
    # shock is compatible with both supports (about +-3)
    path = sievar.simulate(sievar.builtin_dgp(7), 400, seed=8)
    cfg = default_study_config(7)
    shock = ShockSpec(1.0, bump34, 3)
    for spec in (dgp2, _fit_one(cfg, "sieve", path)):
        runs = [
            population_irf(spec, shock, replications=1000, seed=3, burn_in=40, threads=t, chunk=300)
            for t in (1, 2, 3)
        ]
        for got in runs[1:]:
            assert got.values.tobytes() == runs[0].values.tobytes()
            assert got.mc_se.tobytes() == runs[0].mc_se.tobytes()
            assert got.clamped == runs[0].clamped
    assert runs[0].clamped > 0


def oracle_population_irf(spec, shock, replications, seed, burn_in, chunk):
    """The population IRF from each chunk's whole step-major draw: one
    (burn_in + H + 1, d, B) array per chunk, clipped, scaled and iterated
    through the public (B, T, d) calls."""
    h, d = shock.horizon, spec.d
    total, m2, clamped = np.zeros((h + 1, d)), np.zeros((h + 1, d)), 0
    for k, start in enumerate(range(0, replications, chunk)):
        size = min(chunk, replications - start)
        eps = philox(derive_seed(seed, k)).standard_normal((burn_in + h + 1, d, size))
        eps = np.clip(eps, -spec.innovation.bound, spec.innovation.bound)
        path = (eps * np.asarray(spec.innovation.sigma)[:, None]).transpose(2, 0, 1)
        state = np.zeros((size, max(spec.p, 1), d))
        if burn_in:
            state = final_states(spec, state, path[:, :burn_in])
        future = path[:, burn_in:]
        base, clamp_b = iterate_paths(spec, state, future)
        shocked_eps = future.copy()
        shocked_eps[:, 0, 0] += shock.delta * relax_eval(shock.relaxation, future[:, 0, 0])
        shocked, clamp_s = iterate_paths(spec, state, shocked_eps)
        # summed over the contiguous batch axis, as population_irf sums; the
        # chunk's squared deviations two-pass, merged by Chan, Golub & LeVeque
        diff = np.ascontiguousarray((shocked - base).transpose(1, 2, 0))
        chunk_sum = diff.sum(axis=2)
        dev = diff - (chunk_sum / size)[:, :, None]
        chunk_m2 = (dev**2).sum(axis=2) - dev.sum(axis=2) ** 2 / size
        if start:
            chunk_m2 += (chunk_sum / size - total / start) ** 2 * (start * size / (start + size))
        m2 += chunk_m2
        total += chunk_sum
        clamped += clamp_b + clamp_s
    return total / replications, np.sqrt(np.maximum(m2 / replications, 0.0) / replications), clamped


@pytest.mark.filterwarnings("ignore::sievar.irf.SupportWarning")
def test_population_mc_se_is_zero_for_constant_differences():
    # with X's innovations scaled to zero, X stays at zero and the shocked X
    # is delta times a power of two at every h: each difference is constant
    dgp2 = sievar.builtin_dgp(2)
    spec = dataclasses.replace(dgp2, innovation=InnovationLaw(sigma=(0.0, 1.0), bound=3.0))
    shock = ShockSpec(0.3, RelaxationFn.constant_one(), 4)
    # 20,000 replications leave a short last chunk of 3,616
    for threads in (1, 2):
        got = population_irf(spec, shock, replications=20_000, seed=2, burn_in=30, threads=threads)
        np.testing.assert_allclose(got.values[:, 0], 0.3 * 0.5 ** np.arange(5), rtol=1e-15)
        assert got.mc_se[:, 0].tolist() == [0.0] * 5
        assert np.all(got.mc_se[1:, 1] > 0.0)
    # DGP 2's h = 0 X differences vary only by rounding (about 1e-16), so
    # their standard error is of the order 1e-16 / sqrt(20,000)
    assert population_irf(dgp2, shock, replications=20_000, seed=0).mc_se[0, 0] < 1e-17


@pytest.mark.filterwarnings("ignore::sievar.StabilityWarning")
@pytest.mark.parametrize("horizon", [3, 40])
@pytest.mark.parametrize("model", ["dgp2", "dgp7_sieve_p2"])
def test_population_irf_equals_whole_draw_oracle(model, horizon, bump34):
    # a burn-in of 60 steps is two full draw blocks and a short one, a
    # 40-step horizon is longer than a block, and 700 replications in chunks
    # of 300 leave a short last chunk; the p = 2 sieve fit's paths clamp
    if model == "dgp2":
        spec = sievar.builtin_dgp(2)
    else:
        path = sievar.simulate(sievar.builtin_dgp(7), 400, seed=8)
        spec = sievar.fit_two_step(path, make_plan(path.x, knots=(-0.5, 0.5), lags=3))
    assert 60 % sievar.irf.DRAW_STEPS and 40 + 1 > sievar.irf.DRAW_STEPS
    shock = ShockSpec(1.0, bump34, horizon)
    got = population_irf(spec, shock, replications=700, seed=4, burn_in=60, chunk=300)
    values, mc_se, clamped = oracle_population_irf(spec, shock, 700, 4, 60, 300)
    assert got.values.tobytes() == values.tobytes()
    assert got.mc_se.tobytes() == mc_se.tobytes()
    assert got.clamped == clamped
    assert (clamped > 0) == (model != "dgp2")


@settings(max_examples=10, deadline=None)
@given(
    replications=st.integers(1, 80),
    chunk=st.integers(1, 30),
    burn_in=st.integers(0, 70),
    horizon=st.integers(0, 30),
    draw_steps=st.integers(1, 40),
)
def test_population_irf_independent_of_processes_and_block_size(
    replications, chunk, burn_in, horizon, draw_steps
):
    spec = sievar.builtin_dgp(2)
    shock = ShockSpec(1.0, RelaxationFn.symmetric_bump(3.0, 4.0), horizon)
    args = dict(replications=replications, seed=9, burn_in=burn_in, chunk=chunk)
    ref = population_irf(spec, shock, **args)
    with mock.patch.object(sievar.irf, "DRAW_STEPS", draw_steps):
        for threads in (1, 2, 3):
            got = population_irf(spec, shock, threads=threads, **args)
            assert got.values.tobytes() == ref.values.tobytes()
            assert got.mc_se.tobytes() == ref.mc_se.tobytes()


@pytest.mark.parametrize("in_child", [False, True])
def test_population_chunk_error_reraised_without_leftover_child(dgp2, bump34, monkeypatch, in_child):
    parent = os.getpid()
    forward = sievar.irf._forward

    def failing(spec, states, eps, impact=None, keep_path=True):
        if (os.getpid() != parent) == in_child:
            raise KeyError(f"chunk in {os.getpid()}")
        return forward(spec, states, eps, impact, keep_path)

    monkeypatch.setattr(sievar.irf, "_forward", failing)
    with pytest.raises(KeyError, match="chunk in") as info:
        population_irf(dgp2, ShockSpec(1.0, bump34, 3), replications=600, seed=1, burn_in=20, threads=2, chunk=200)
    assert (str(parent) in str(info.value)) == (not in_child)
    assert any("worker process" in note for note in getattr(info.value, "__notes__", ())) == in_child


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(chunk=0), "chunk must be at least 1"),
        (dict(chunk=-1), "chunk must be at least 1"),
        (dict(burn_in=-5), "burn_in must be non-negative"),
        (dict(replications=0), "replications must be at least 1"),
        (dict(threads=0), "threads must be at least 1"),
    ],
)
def test_population_irf_rejects_bad_arguments(dgp2, bump34, kwargs, match):
    with pytest.raises(ValueError, match=match):
        population_irf(dgp2, ShockSpec(1.0, bump34, 3), **{"replications": 100, **kwargs})


@pytest.mark.parametrize("chunk", [0, -1])
def test_estimated_irf_rejects_bad_chunk(dgp2, bump34, chunk):
    path = sievar.simulate(dgp2, 120, seed=3)
    fit = sievar.fit_two_step(path, make_plan(path.x))
    with pytest.raises(ValueError, match="chunk must be at least 1"):
        estimated_irf(fit, path, ShockSpec(1.0, bump34, 3), chunk=chunk)


def test_domain_safety_assertion_on_compatible_shock(dgp2, bump34):
    # with a compatible rho the impact stays inside the innovation support
    res = population_irf(dgp2, ShockSpec(1.0, bump34, 1), replications=5000, seed=11)
    assert np.all(np.isfinite(res.values))


def test_population_chunks_draw_disjoint_streams(dgp2, bump34, monkeypatch):
    draws: dict[int, list] = {}
    gens = []  # so that no finished chunk's generator id is reused
    innovations = sievar.irf._innovations

    def recording_draw(spec, gen, shape, axis=-1, out=None):
        gens.append(gen)
        out = innovations(spec, gen, shape, axis, out)
        # clipped values repeat by construction
        draws.setdefault(id(gen), []).append(out[np.abs(out) < spec.innovation.bound])
        return out

    monkeypatch.setattr(sievar.irf, "_innovations", recording_draw)
    shock = ShockSpec(1.0, bump34, 3)
    a = population_irf(dgp2, shock, replications=400, seed=5, burn_in=50, chunk=200)
    chunk0, chunk1 = (np.concatenate(d) for d in draws.values())  # one generator per chunk
    assert np.intersect1d(chunk0, chunk1).size == 0
    b = population_irf(dgp2, shock, replications=400, seed=5, burn_in=50, chunk=200, threads=2)
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.mc_se, b.mc_se)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_population_draws_reuse_one_buffer_per_worker(dgp2, bump34, threads, monkeypatch, tmp_path):
    # every process, the calling one and its forked workers, appends its
    # draws to one log, since a worker's own memory is gone when it exits
    log = tmp_path / "draws.log"
    innovations = sievar.irf._innovations
    alive = []  # so that no freed block's id is reused

    def recording_draw(spec, gen, shape, axis=-1, out=None):
        alive.append(out.base)
        with open(log, "a") as f:
            f.write(f"{os.getpid()} {id(out.base)} {out.base.size} {out.size}\n")
        return innovations(spec, gen, shape, axis, out)

    monkeypatch.setattr(sievar.irf, "_innovations", recording_draw)
    # blocks of 7 steps, not the default, so a burn-in that ignored the
    # block size would draw other sizes
    monkeypatch.setattr(sievar.irf, "DRAW_STEPS", 7)
    shock = ShockSpec(1.0, bump34, 3)
    got = population_irf(dgp2, shock, replications=500, seed=5, burn_in=60, chunk=200, threads=threads)
    draws = [[int(v) for v in line.split()] for line in log.read_text().splitlines()]
    # three chunks, the last one short, each draw fills at most its
    # process's block, and there is one block per process
    block = 7 * 2 * 200
    assert all(base == block and size <= block for _, _, base, size in draws)
    # per chunk of B columns: a 60-step burn-in in eight 7-step blocks and a
    # 4-step one, then the 4-step future
    steps = [7] * 8 + [4, 4]
    assert sorted(size for *_, size in draws) == sorted(s * 2 * b for b in (200, 200, 100) for s in steps)
    blocks = {(pid, base_id) for pid, base_id, _, _ in draws}
    assert len(blocks) == len({pid for pid, *_ in draws}) == min(threads, 3)
    monkeypatch.undo()
    one_thread = population_irf(dgp2, shock, replications=500, seed=5, burn_in=60, chunk=200)
    np.testing.assert_array_equal(got.values, one_thread.values)
    np.testing.assert_array_equal(got.mc_se, one_thread.mc_se)


def test_population_irf_rejects_an_incompatible_relaxed_shock(dgp2, monkeypatch):
    # the shocked impact can leave the +-3 support: raised before any chunk runs
    shock = ShockSpec(5.0, RelaxationFn.symmetric_bump(3.0, 4.0), 3)
    verdict = check_compatibility(shock.relaxation, shock.delta, dgp2.innovation.support(0))
    assert not verdict.compatible
    monkeypatch.setattr(sievar.irf, "_burn_in", None)
    with pytest.raises(IncompatibleShockError, match=re.escape(f"worst margin {verdict.worst_margin:.6g}")):
        population_irf(dgp2, shock, replications=500, seed=1)


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
        # summed over the contiguous batch axis, as estimated_irf sums
        diff = np.ascontiguousarray((shocked - base).transpose(1, 2, 0))
        total += diff.sum(axis=2)
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


def per_row_estimated_irf(fit, path, shock):
    """The plug-in IRF from one ``iterate_paths`` call per impact time and
    path, summed over impact times in order, and the clamped count that
    ``estimated_irf`` reports: a replay fit's shocked paths from its shocked
    impact times, both paths of every impact time otherwise."""
    p, h = fit.p, shock.horizon
    usable = path.n - p - h
    resid = np.column_stack([fit.first_stage.residuals, fit.residuals2])
    total, clamped = np.zeros((h + 1, fit.d)), 0
    for t in range(usable):
        state, eps = path.z[None, t : t + p], resid[None, t : t + h + 1]
        w = shock.delta * relax_eval(shock.relaxation, eps[0, 0, 0])
        base, clamp_b = iterate_paths(fit, state, eps)
        shocked, clamp_s = iterate_paths(fit, state, _shocked(eps, shock.delta, shock.relaxation))
        total += (shocked - base)[0]
        if fit.generated != "first_stage":
            clamped += clamp_b + clamp_s
        elif w != 0.0:
            clamped += clamp_s
    return total / usable, clamped


def per_row_population_irf(spec, shock, replications, seed, burn_in, chunk):
    """The population IRF and its MC standard error from one ``final_states``
    and two ``iterate_paths`` calls per replication, on the draws of
    ``oracle_population_irf``, summed over replications in order."""
    h, d, q = shock.horizon, spec.d, max(spec.p, 1)
    diffs = []
    for k, start in enumerate(range(0, replications, chunk)):
        size = min(chunk, replications - start)
        eps = philox(derive_seed(seed, k)).standard_normal((burn_in + h + 1, d, size))
        eps = np.clip(eps, -spec.innovation.bound, spec.innovation.bound)
        eps = (eps * np.asarray(spec.innovation.sigma)[:, None]).transpose(2, 0, 1)
        for row in eps[:, None]:
            state = final_states(spec, np.zeros((1, q, d)), row[:, :burn_in])
            base, _ = iterate_paths(spec, state, row[:, burn_in:])
            shocked, _ = iterate_paths(spec, state, _shocked(row[:, burn_in:], shock.delta, shock.relaxation))
            diffs.append((shocked - base)[0])
    total = total_sq = 0.0
    for diff in diffs:
        total = total + diff
        total_sq = total_sq + diff**2
    mean = total / replications
    return mean, np.sqrt(np.maximum(total_sq / replications - mean**2, 0.0) / replications)


# the IRFs sum their paths in another order than the per-row oracles, and a
# replay fit's observed baseline differs from its iterated one by rounding
IRF_RTOL = 1e-12


def _close(got, expected):
    np.testing.assert_allclose(got, expected, rtol=IRF_RTOL, atol=IRF_RTOL * np.max(np.abs(expected)))


@pytest.mark.parametrize("chunk", [50, 4096])
@pytest.mark.parametrize("fit_kind", ["sieve_p1", "sieve_p2", "parametric", "infeasible"])
@pytest.mark.parametrize("rho", ["narrow", "wide"])
def test_estimated_irf_equals_per_row_oracle(fit_kind, rho, chunk):
    # the narrow bump is zero at many residuals, so a replay fit's live rows
    # have gaps and are gathered; under the wide one they are consecutive
    # and read as windows
    path = sievar.simulate(sievar.builtin_dgp(7), 400, seed=31)
    if fit_kind == "parametric":
        fit = sievar.fit_parametric(path, 1, sievar.benchmark_true_form(7))
    else:
        plan = make_plan(path.x, knots=(-1.0, 1.0), lags=3 if fit_kind == "sieve_p2" else 2)
        fit = (sievar.fit_infeasible if fit_kind == "infeasible" else sievar.fit_two_step)(path, plan)
    relaxation = RelaxationFn.symmetric_bump(1.0, 2.0) if rho == "narrow" else RelaxationFn.symmetric_bump(5.0, 3.9)
    shock = ShockSpec(2.0, relaxation, 8)
    w = np.asarray(relax_eval(relaxation, fit.first_stage.residuals[: path.n - fit.p - 8]))
    live = np.flatnonzero(w)
    gaps = live[-1] - live[0] != live.size - 1
    assert gaps == (rho == "narrow") and live.size > 50
    got = estimated_irf(fit, path, shock, chunk=chunk)
    values, clamped = per_row_estimated_irf(fit, path, shock)
    _close(got.values, values)
    assert got.clamped == clamped
    assert (clamped > 0) == (fit_kind != "parametric")


@pytest.mark.filterwarnings("ignore::sievar.StabilityWarning")
@pytest.mark.parametrize("model", ["dgp2", "dgp7_sieve_p2"])
def test_population_irf_equals_per_row_oracle(model, bump34):
    if model == "dgp2":
        spec = sievar.builtin_dgp(2)
    else:
        path = sievar.simulate(sievar.builtin_dgp(7), 400, seed=8)
        spec = sievar.fit_two_step(path, make_plan(path.x, knots=(-0.5, 0.5), lags=3))
    shock = ShockSpec(1.0, bump34, 6)
    got = population_irf(spec, shock, replications=150, seed=4, burn_in=30, chunk=64)
    values, mc_se = per_row_population_irf(spec, shock, 150, 4, 30, 64)
    _close(got.values, values)
    _close(got.mc_se, mc_se)


def _counting_forward():
    """A ``_forward`` stand-in that records (rows, steps, clamped) per call."""
    calls = []
    forward = sievar.irf._forward

    def counting(spec, states, eps, impact=None, keep_path=True):
        out, clamped, diverged = forward(spec, states, eps, impact, keep_path)
        # the estimated IRF passes its fits' states and innovations as lists
        calls.append((sum(part.shape[2] for part in eps), eps[0].shape[0], clamped))
        return out, clamped, diverged

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
    calls, counting = _counting_forward()
    with mock.patch.object(sievar.irf, "_forward", counting):
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
    calls, counting = _counting_forward()
    with mock.patch.object(sievar.irf, "_forward", counting):
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
        again = estimated_irf(fit, path, shock, chunk=64)
        for now, then in zip(inputs, before):
            assert now.tobytes() == then.tobytes()
        np.testing.assert_array_equal(first.values, again.values)
    state = (dgp2.mu, dgp2.lags.coeffs, dgp2.b0_21)
    before = _snapshot(*state)
    population_irf(dgp2, shock, replications=600, seed=4, burn_in=30, threads=2, chunk=200)
    for now, then in zip(state, before):
        assert now.tobytes() == then.tobytes()


def _stacked_fits(count=3, n=400, lags=3, domain=1.0):
    """Sieve fits of DGP 7 samples, each on ``domain`` times its own
    sample's range, with the interior knots in common, and their
    ``_sample`` arrays."""
    paths = [sievar.simulate(sievar.builtin_dgp(7), n, seed=60 + r) for r in range(count)]
    fits = [sievar.fit_two_step(path, make_plan(domain * path.x, knots=(-1.0, 1.0), lags=lags)) for path in paths]
    return paths, fits, [sievar.irf._sample(fit, path.x, path.y) for fit, path in zip(fits, paths)]


@pytest.mark.parametrize("widths", [(40, 40, 40), (7, 60, 1)])
@pytest.mark.parametrize("lags", [2, 3])
def test_stacked_forward_equals_each_model_alone(widths, lags):
    # each model's lag product is its own gemm over its own columns, of equal
    # widths or not; narrow domains make the paths clamp
    _, fits, _ = _stacked_fits(lags=lags, domain=0.5)
    plan = sievar.model._stack([fit._step_plan for fit in fits])
    rng = np.random.default_rng(sum(widths) + lags)
    q, steps = max(fits[0].p, 1), 11
    states = [rng.uniform(-4.0, 4.0, size=(q, 2, w)) for w in widths]
    eps = [rng.uniform(-3.0, 3.0, size=(steps, 2, w)) for w in widths]
    impact = rng.uniform(-1.0, 1.0, size=sum(widths))
    edges = np.cumsum((0,) + widths)
    for keep_path in (True, False):
        got, clamped, diverged = sievar.model._forward(plan, states, eps, impact=impact, keep_path=keep_path)
        assert diverged is None
        total = 0
        for m, fit in enumerate(fits):
            alone, count, _ = sievar.model._forward(
                fit, states[m], eps[m], impact=impact[edges[m] : edges[m + 1]], keep_path=keep_path
            )
            assert got[:, :, edges[m] : edges[m + 1]].tobytes() == alone.tobytes()
            total += count
        assert clamped == total > 0


def test_stacked_sample_check_rejects_a_fit_of_another_sample():
    paths, fits, samples = _stacked_fits()
    plans = [fit._step_plan for fit in fits]
    sievar.irf._check_samples(plans, samples, True)
    wrong = [samples[0], samples[2], samples[1]]
    with pytest.raises(ValueError, match="not produced from this sample"):
        sievar.irf._check_samples(plans, wrong, True)


@pytest.mark.parametrize("chunk", [64, 4096])
def test_stacked_responses_equal_estimated_irf(chunk):
    # with a chunk below a fit's impact times, its pieces run in their own
    # calls and it sums them in order, as estimated_irf does
    paths, fits, samples = _stacked_fits()
    h = 6
    shocks = [ShockSpec(delta, RelaxationFn.symmetric_bump(1.0, 2.0), h) for delta in (2.0, -1.0)]
    impacts = [
        [sievar.irf._impact(shock, fit.first_stage.residuals[: path.n - fit.p - h]) for fit, path in zip(fits, paths)]
        for shock in shocks
    ]
    values, clamped, diverged = sievar.irf._responses([fit._step_plan for fit in fits], samples, impacts, h, True, chunk)
    assert diverged is None
    for k, shock in enumerate(shocks):
        alone = [estimated_irf(fit, path, shock, chunk=chunk) for fit, path in zip(fits, paths)]
        for m, res in enumerate(alone):
            assert values[k][m].tobytes() == res.values.tobytes()
        assert clamped[k] == sum(res.clamped for res in alone)
