"""Acceptance suite: one test per criterion, desk-scale replication counts.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. Tolerances are fixed here, not calibrated at run time.
Every test here carries the ``slow`` marker; ``pytest -m "not slow"``
skips the module.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import sievar
from sievar.basis import KnotVector, bspline_matrix, build_design
from sievar.diagnostics import estimate_delta_r, find_h_star
from sievar.estimator import first_stage, fit_two_step
from sievar.irf import (
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
from sievar.model import InnovationLaw, LagPolynomial, ModelSpec, StabilityWarning
from sievar.study import StudyConfig, default_study_config, derive_seed, run_study, run_study_variant_phi_shift

from conftest import make_plan

pytestmark = pytest.mark.slow

BUMP34 = RelaxationFn.symmetric_bump(3.0, 4.0)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {number}: {detail}"


def test_acceptance_1_linear_oracle_equivalence():
    t0 = time.time()
    lin_spec = sievar.linearized(sievar.builtin_dgp(2))
    path = sievar.simulate(lin_spec, 500, seed=4)
    fit = fit_two_step(path, sievar.SievePlan(x_blocks=(None, None)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SupportWarning)
        est = estimated_irf(fit, path, ShockSpec(1.0, RelaxationFn.constant_one(), 12))
    closed = linear_irf(fit.lags, fit.b0_21, 1.0, 12)
    gap = float(np.max(np.abs(est.values - closed.values)))

    lags, b_eff, _ = linearized_reduction(lin_spec)
    pop_lin = linear_irf(lags, b_eff, 1.0, 1)
    cp0 = abs(pop_lin.values[0, 1] - 0.5)
    cp1 = abs(pop_lin.values[1, 1] - 0.80)
    ok = gap < 1e-6 and cp0 < 1e-10 and cp1 < 1e-10
    report(
        1,
        ok,
        f"estimated-vs-closed-form gap {gap:.2e} (tol 1e-6); checkpoints "
        f"|0.5 err|={cp0:.1e}, |0.80 err|={cp1:.1e} (tol 1e-10); {time.time() - t0:.1f}s",
    )


def test_acceptance_2_population_irf_oracle():
    t0 = time.time()
    spec = sievar.builtin_dgp(1)
    pop = population_irf(spec, ShockSpec(1.0, BUMP34, 0), replications=100_000, seed=5)
    gen = np.random.default_rng(123456)
    eps = np.clip(gen.standard_normal(1_000_000), -3.0, 3.0)
    w = np.asarray(relax_eval(BUMP34, eps))
    x_oracle, x_se = float(w.mean()), float(w.std()) / 1000.0
    y_draws = 0.5 * w - 0.4 * (np.maximum(0.0, eps + w) - np.maximum(0.0, eps))
    y_oracle, y_se = float(y_draws.mean()), float(y_draws.std()) / 1000.0
    x_err = abs(pop.values[0, 0] - x_oracle)
    y_err = abs(pop.values[0, 1] - y_oracle)
    x_tol = 3.0 * math.sqrt(x_se**2 + float(pop.mc_se[0, 0]) ** 2)
    y_tol = 3.0 * math.sqrt(y_se**2 + float(pop.mc_se[0, 1]) ** 2)
    ok = x_err < x_tol and y_err < y_tol
    report(
        2,
        ok,
        f"impact X err {x_err:.5f} < {x_tol:.5f}; Y err {y_err:.5f} < {y_tol:.5f} "
        f"(3 combined MC s.e.); {time.time() - t0:.1f}s",
    )


def test_acceptance_3_dgp2_efficiency_loss():
    t0 = time.time()
    cfg = StudyConfig(
        dgp_id=2, n=240, mc_replications=200, pop_replications=20_000,
        deltas=(1.0,), estimators=("parametric_true", "sieve"), master_seed=20240,
    )
    res = run_study(cfg)
    key_s, key_p = ("sieve", 1.0), ("parametric_true", 1.0)
    ratio = res.mse[key_s][:3, 1] / res.mse[key_p][:3, 1]
    bias_gap = np.abs(res.bias[key_s][:7, 1] - res.bias[key_p][:7, 1])
    band = 2.0 * np.sqrt(res.se[key_s][:7, 1] ** 2 + res.se[key_p][:7, 1] ** 2)
    ok = bool(np.all(ratio >= 1.0) and np.all(ratio < 2.0) and np.all(bias_gap <= band))
    report(
        3,
        ok,
        f"sieve/parametric MSE ratio h<=2: {np.round(ratio, 3)} in [1, 2); "
        f"max |bias gap| h<=6 {bias_gap.max():.4f} within 2 s.e.; {time.time() - t0:.1f}s",
    )


def test_acceptance_4_dgp7_misspecification():
    t0 = time.time()
    cfg = default_study_config(7, mc_replications=200, pop_replications=20_000, master_seed=1)
    res = run_study(cfg)
    delta = cfg.deltas[0]
    ratio = res.mse[("parametric_max0", delta)][:4, 1] / res.mse[("sieve", delta)][:4, 1]
    shift = run_study_variant_phi_shift(cfg)
    bias_std = np.abs(res.bias[("parametric_max0", delta)][:4, 1])
    bias_shift = np.abs(shift.bias[("parametric_max0", delta)][:4, 1])
    ok = bool(np.all(ratio >= 2.0) and np.all(bias_shift < bias_std))
    report(
        4,
        ok,
        f"max0/sieve MSE ratio h<=3: {np.round(ratio, 2)} all >= 2; "
        f"phi-shift reverses bias ordering at h<=3 "
        f"({np.round(bias_shift, 4)} < {np.round(bias_std, 4)}); {time.time() - t0:.1f}s",
    )


def test_acceptance_5_consistency_sweep():
    t0 = time.time()
    spec = sievar.builtin_dgp(2)
    deltas = (-1.0, -0.5, 0.5, 1.0)
    pops = {
        d: population_irf(spec, ShockSpec(d, BUMP34, 12), replications=20_000, seed=derive_seed(123, 9, i))
        for i, d in enumerate(deltas)
    }

    def sweep_err(n: int, seed: int) -> float:
        path = sievar.simulate(spec, n, seed)
        fit = fit_two_step(path, make_plan(path.x))
        return max(
            float(np.max(np.abs(estimated_irf(fit, path, ShockSpec(d, BUMP34, 12)).values - pops[d].values)))
            for d in deltas
        )

    errs = {240: [], 2400: []}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for s in range(50):
            for n in errs:
                errs[n].append(sweep_err(n, derive_seed(123, n, s)))
    med240, med2400 = float(np.median(errs[240])), float(np.median(errs[2400]))
    ok = med2400 < med240
    report(
        5,
        ok,
        f"median max-delta IRF error: n=240 -> {med240:.4f}, n=2400 -> {med2400:.4f}, "
        f"strictly decreasing; {time.time() - t0:.1f}s",
    )


def test_acceptance_6_property_suites():
    t0 = time.time()
    checks: list[tuple[str, bool]] = []

    # B-spline partition of unity / local support / linear reproduction
    kvs = [
        KnotVector(3, (0.0,), -3.0, 3.0),
        KnotVector(3, (-3.0, -1.0, 1.0, 3.0), -5.0, 5.0),
        KnotVector(2, (0.5,), 0.0, 2.0),
    ]
    pou = ls = lr = True
    for kv in kvs:
        grid = np.linspace(kv.lo, kv.hi, 1000)
        basis = bspline_matrix(kv, grid)
        pou &= bool(np.max(np.abs(basis.sum(axis=1) - 1.0)) < 1e-10)
        t = kv.knots
        for i in range(kv.dim):
            outside = (grid < t[i] - 1e-12) | (grid > t[i + kv.degree + 1] + 1e-12)
            ls &= bool(np.max(np.abs(basis[outside, i]), initial=0.0) == 0.0)
        coef, *_ = np.linalg.lstsq(basis, grid, rcond=None)
        lr &= bool(np.max(np.abs(basis @ coef - grid)) < 1e-8)
    checks += [("partition of unity 1e-10", pou), ("local support", ls), ("linear reproduction 1e-8", lr)]

    # relaxation identities and compatibility verdicts
    checks.append(("rho(0)=1", relax_eval(BUMP34, 0.0) == 1.0))
    checks.append(("rho(+-c)=0", relax_eval(BUMP34, 3.0) == 0.0 and relax_eval(BUMP34, -3.0) == 0.0))
    verdicts = [
        check_compatibility(BUMP34, 1.0, (-3, 3)).compatible,
        check_compatibility(BUMP34, -1.0, (-3, 3)).compatible,
        not check_compatibility(BUMP34, 5.0, (-3, 3)).compatible,
        not check_compatibility(BUMP34, -5.0, (-3, 3)).compatible,
    ]
    checks.append(("compatibility verdicts", all(verdicts)))

    # residual orthogonality, both stages
    path = sievar.simulate(sievar.builtin_dgp(2), 600, seed=8)
    plan = make_plan(path.x)
    fit = fit_two_step(path, plan)
    w1 = np.column_stack([np.ones(path.n - 1), path.x[:-1], path.y[:-1, 0]])
    orth1 = float(np.max(np.abs(w1.T @ fit.first_stage.residuals))) / (path.n - 1)
    design = build_design(plan, path.x, path.y, fit.first_stage.residuals, 1)
    orth2 = float(np.max(np.abs(design.values.T @ fit.residuals2))) / design.n
    checks.append(("residual orthogonality 1e-8", orth1 < 1e-8 and orth2 < 1e-8))

    # structural / pseudo-reduced equivalence at 1e-10
    b0 = np.array([[1.0, 0.0, 0.0], [-0.45, 1.0, -0.3], [-0.05, 0.1, 1.0]])
    b1 = np.array([[0.0, 0.0, 0.0], [0.15, 0.17, -0.18], [-0.08, 0.03, 0.6]])
    c0 = np.array([0.0, -0.2, 0.08])
    c1 = np.array([0.0, -0.1, 0.2])
    gen = np.random.default_rng(404)
    eps = np.clip(gen.standard_normal((400, 3)), -3, 3)
    z = np.zeros(3)
    oracle = []
    for t_i in range(400):
        x_new = b1[0] @ z + eps[t_i, 0]
        rhs = b1[1:] @ z + c0[1:] * max(0.0, x_new) + c1[1:] * max(0.0, z[0]) + eps[t_i, 1:]
        y_new = np.linalg.solve(b0[1:, 1:], rhs - b0[1:, 0] * x_new)
        z = np.concatenate([[x_new], y_new])
        oracle.append(z)
    oracle = np.asarray(oracle)
    spec4 = sievar.builtin_dgp(4)
    eps_pr = eps.copy()
    eps_pr[:, 1:] = eps[:, 1:] @ np.linalg.inv(b0)[1:, 1:].T
    sim = sievar.simulate(spec4, 300, burn_in=100, eps=eps_pr)
    equiv = float(np.max(np.abs(sim.z - oracle[100:])))
    checks.append(("structural equivalence 1e-10", equiv < 1e-10))

    # bit-exact determinism across thread counts
    cfg = StudyConfig(dgp_id=2, n=240, mc_replications=30, pop_replications=3000,
                      deltas=(1.0,), estimators=("sieve",), master_seed=5)
    res1 = run_study(cfg)
    res4 = run_study(replace(cfg, threads=4))
    same = all(np.array_equal(res1.mse[k], res4.mse[k]) for k in res1.mse) and all(
        np.array_equal(res1.population[d].values, res4.population[d].values) for d in cfg.deltas
    )
    checks.append(("bit-exact thread determinism", same))

    ok = all(flag for _, flag in checks)
    failed = [name for name, flag in checks if not flag]
    report(6, ok, f"{len(checks)} property suites green{'' if ok else ', failed: ' + str(failed)}; {time.time() - t0:.1f}s")


def test_acceptance_7_dependence_diagnostics():
    t0 = time.time()
    ar1 = ModelSpec(
        d_y=0, p=1, mu=np.zeros(1), lags=LagPolynomial(np.array([[[0.5]]])), impact=(),
        b0_21=np.zeros(0), innovation=InnovationLaw(sigma=(1.0,), bound=3.0),
    )
    profile = estimate_delta_r(ar1, h_max=8, replications=5000, seed=3)
    a2_ok = abs(profile.a2 - math.log(2.0)) / math.log(2.0) < 0.25

    gen = np.random.default_rng(2024)
    violated = 0
    h_star_ok = True
    checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        for k in range(20):
            b1, b2 = gen.uniform(-0.8, 0.8, size=2)
            spec = ModelSpec(
                d_y=0, p=2, mu=np.zeros(1),
                lags=LagPolynomial(np.array([[[b1]], [[b2]]])), impact=(),
                b0_21=np.zeros(0), innovation=InnovationLaw(sigma=(1.0,), bound=3.0),
            )
            rep = find_h_star(spec, h_cap=10, samples=20, seed=k)
            violated += int(not rep.contractive)
            if spec.lags.spectral_radius() < 0.9:
                checked += 1
                h_star_ok &= rep.h_star is not None and rep.h_star <= 10
    ok = a2_ok and violated == 20 and h_star_ok and checked > 0
    report(
        7,
        ok,
        f"AR(1) a2={profile.a2:.3f} within 25% of log2; AR(2) contractivity violated "
        f"{violated}/20; h* <= 10 for all {checked} draws with sr < 0.9; {time.time() - t0:.1f}s",
    )


def test_acceptance_8_first_stage_rate():
    t0 = time.time()
    spec = sievar.builtin_dgp(2)
    truth = np.array([0.0, 0.5, 0.0])
    medians = {}
    for n in (240, 960, 3840):
        errs = [
            math.sqrt(n) * float(np.max(np.abs(first_stage(p.x, p.y, 1).pi1 - truth)))
            for p in (sievar.simulate(spec, n, derive_seed(55, n, s)) for s in range(40))
        ]
        medians[n] = float(np.median(errs))
    spread = max(medians.values()) / min(medians.values())
    ok = spread < 2.0
    report(
        8,
        ok,
        f"sqrt(n)*||Pi1_hat - Pi1|| medians {dict((k, round(v, 3)) for k, v in medians.items())}, "
        f"max/min {spread:.2f} < 2; {time.time() - t0:.1f}s",
    )
