from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

import sievar
from sievar.diagnostics import (
    CONTRACTIVE_MARGIN,
    FD_STEP,
    check_contractivity,
    estimate_delta_r,
    find_h_star,
)
from sievar.model import (
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    StabilityWarning,
    derive_seed,
    draw_clipped,
    iterate_paths,
    philox,
)


def ar_spec(*coeffs, bound=3.0):
    p = len(coeffs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return ModelSpec(
            d_y=0, p=p, mu=np.zeros(1),
            lags=LagPolynomial(np.array([[[c]] for c in coeffs])),
            impact=(), b0_21=np.zeros(0),
            innovation=InnovationLaw(sigma=(1.0,), bound=bound),
        )


def test_iid_component_has_zero_dependence():
    # DGP 1's X is the innovation itself: shared futures collapse the gap
    profile = estimate_delta_r(sievar.builtin_dgp(1), h_max=6, replications=500, seed=1, components=(0,))
    np.testing.assert_array_equal(profile.delta_hat, 0.0)
    assert profile.a1 == 0.0
    assert profile.a2 == math.inf


def test_ar1_coupling_ratio_and_decay_fit():
    profile = estimate_delta_r(ar_spec(0.5), h_max=7, replications=10_000, seed=3)
    ratios = profile.delta_hat[1:] / profile.delta_hat[:-1]
    assert np.all((ratios > 0.4) & (ratios < 0.6))
    assert abs(profile.a2 - math.log(2.0)) < 0.15
    assert np.all(np.diff(profile.delta_hat) <= 1e-12)  # monotone decay


def test_replication_floor():
    with pytest.raises(ValueError, match="100"):
        estimate_delta_r(ar_spec(0.5), replications=50)


def test_contractivity_ar1():
    report = check_contractivity(ar_spec(0.5), samples=40, seed=2)
    assert report.contractive
    assert report.c_z == pytest.approx(0.5, abs=1e-3)
    assert report.c_eps == pytest.approx(1.0, abs=1e-3)
    assert report.h_star == 1


def test_contractivity_always_violated_for_ar2():
    gen = np.random.default_rng(7)
    for _ in range(20):
        b1, b2 = gen.uniform(-0.8, 0.8, size=2)
        report = check_contractivity(ar_spec(b1, b2), samples=10, seed=1)
        assert not report.contractive
        assert report.c_z >= 1.0 - 1e-6


def test_contractivity_dgp2_finite():
    report = check_contractivity(sievar.builtin_dgp(2), samples=50, seed=4)
    assert np.isfinite(report.c_z) and np.isfinite(report.c_eps)
    assert report.c_z >= 1.0 - 1e-3  # companion with a unit sub-diagonal row


def test_h_star_ar2_small_coefficients():
    spec = ar_spec(0.1, 0.1)
    report = find_h_star(spec, h_cap=6, samples=30, seed=5)
    assert report.h_star == 2
    comp = spec.lags.companion()
    assert np.linalg.norm(comp, 2) >= 1.0
    assert np.linalg.norm(comp @ comp, 2) < 1.0
    assert report.decay[0] == pytest.approx(np.linalg.norm(comp, 2), abs=1e-3)
    assert report.decay[1] == pytest.approx(np.linalg.norm(comp @ comp, 2), abs=1e-3)


def test_h_star_contractive_ar1_is_one():
    assert find_h_star(ar_spec(0.5), h_cap=4, samples=20, seed=6).h_star == 1


def test_h_star_explosive_none_and_increasing():
    report = find_h_star(ar_spec(1.1, bound=3.0), h_cap=20, samples=10, seed=7)
    assert report.h_star is None
    decay = np.asarray(report.decay)
    assert np.all(np.diff(decay) > 0)


def test_gmc_rate_matches_contractivity_link():
    # fitted decay rate approximately -log(C_Z) for the stable linear map
    spec = ar_spec(0.5)
    profile = estimate_delta_r(spec, h_max=8, replications=5000, seed=8)
    report = check_contractivity(spec, samples=30, seed=8)
    assert abs(profile.a2 - (-math.log(report.c_z))) / (-math.log(report.c_z)) < 0.25


def test_nested_sampling_monotone():
    spec = sievar.builtin_dgp(2)
    small = check_contractivity(spec, samples=20, seed=9)
    large = check_contractivity(spec, samples=60, seed=9)
    assert large.c_z >= small.c_z


def test_explosive_sampling_divergence_raises():
    spec = ar_spec(1.5)
    with pytest.raises(sievar.PathDivergedError):
        estimate_delta_r(spec, h_max=4, replications=200, seed=1, burn_in=2500)


def _oracle_stationary(spec, size, seed, burn_in):
    p = max(spec.p, 1)
    sigma = np.asarray(spec.innovation.sigma)
    eps = draw_clipped(philox(seed), (size, burn_in, spec.d), spec.innovation.bound) * sigma
    warm, _ = iterate_paths(spec, np.zeros((size, p, spec.d)), eps)
    return warm[:, -p:, :]


def oracle_lipschitz_profile(spec, h_cap, samples, seed):
    """The probe one sample at a time: a batch-1 burn-in per even sample,
    one iterate_paths call per sample and stage, one norm per Jacobian."""
    p = max(spec.p, 1)
    d = spec.d
    dim = p * d
    sigma = np.asarray(spec.innovation.sigma)
    bound = spec.innovation.bound
    box_states = _oracle_stationary(spec, 512, derive_seed(seed, 21), 400).reshape(512, -1)
    lo, hi = box_states.min(axis=0), box_states.max(axis=0)
    c_z = np.zeros(h_cap)
    c_eps = 0.0
    for s_idx in range(samples):
        gen = philox(derive_seed(seed, 31, s_idx))
        if s_idx % 2 == 0:
            state = _oracle_stationary(spec, 1, derive_seed(seed, 32, s_idx), 400)[0]
            eps = draw_clipped(gen, (h_cap, d), bound) * sigma
        else:
            state = gen.uniform(lo, hi).reshape(p, d)
            eps = gen.uniform(-bound * sigma, bound * sigma, size=(h_cap, d))
        flat = state.reshape(dim)
        steps = FD_STEP * np.maximum(1.0, np.abs(flat))
        batch = [flat]
        for i in range(dim):
            for sign in (1.0, -1.0):
                pert = flat.copy()
                pert[i] += sign * steps[i]
                batch.append(pert)
        states = np.stack(batch).reshape(-1, p, d)
        paths, _ = iterate_paths(spec, states, np.broadcast_to(eps, (states.shape[0], h_cap, d)))
        traj = np.concatenate([states, paths], axis=1)
        for h in range(1, h_cap + 1):
            stacked = traj[:, h : h + p, :].reshape(states.shape[0], dim)
            base, plus, minus = stacked[0], stacked[1::2], stacked[2::2]
            norm = max(
                np.linalg.norm((plus - minus).T / (2.0 * steps), ord=2),
                np.linalg.norm((plus - base).T / steps, ord=2),
                np.linalg.norm((base - minus).T / steps, ord=2),
            )
            c_z[h - 1] = max(c_z[h - 1], norm)
        eps_steps = FD_STEP * np.maximum(1.0, np.abs(eps[0]))
        eps_batch = [eps[:1]]
        for i in range(d):
            for sign in (1.0, -1.0):
                pert = eps[:1].copy()
                pert[0, i] += sign * eps_steps[i]
                eps_batch.append(pert)
        one_step, _ = iterate_paths(spec, np.broadcast_to(state, (len(eps_batch), p, d)), np.stack(eps_batch))
        z1 = one_step[:, 0, :]
        j_eps = (z1[1::2] - z1[2::2]).T / (2.0 * eps_steps)
        c_eps = max(c_eps, float(np.linalg.norm(j_eps, ord=2)))
    return c_z, c_eps


def _probe_and_oracle(spec, h_cap, samples, seed):
    report = find_h_star(spec, h_cap=h_cap, samples=samples, seed=seed)
    one_step = check_contractivity(spec, samples=samples, seed=seed)
    c_z, c_eps = oracle_lipschitz_profile(spec, h_cap, samples, seed)
    below = np.nonzero(c_z < 1.0 - CONTRACTIVE_MARGIN)[0]
    h_star = int(below[0]) + 1 if below.size else None
    assert report.h_star == h_star
    assert report.contractive == one_step.contractive == bool(c_z[0] < 1.0 - CONTRACTIVE_MARGIN)
    assert one_step.h_star == (1 if one_step.contractive else None)
    assert report.samples == one_step.samples == samples
    return report, one_step, c_z, c_eps


@pytest.mark.parametrize(
    "spec",
    [sievar.builtin_dgp(7), ar_spec(0.5), ar_spec(0.1, 0.1), ar_spec(0.6, -0.3, 0.2)],
    ids=["dgp7", "ar1", "ar2", "ar3"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_batched_probe_equals_per_sample_oracle(spec, seed):
    # diagonal or scalar lag matrices: the batched products round as the
    # per-sample ones, so every number is identical
    report, one_step, c_z, c_eps = _probe_and_oracle(spec, 6, 41, seed)
    assert report.decay == tuple(float(v) for v in c_z)
    assert report.c_z == one_step.c_z == float(c_z[0])
    assert report.c_eps == one_step.c_eps == c_eps


@pytest.mark.parametrize("dgp_id", range(1, 7))
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_batched_probe_matches_oracle_on_dgps(dgp_id, seed):
    # non-diagonal lag matrices: a many-row product may round differently
    report, one_step, c_z, c_eps = _probe_and_oracle(sievar.builtin_dgp(dgp_id), 10, 40, seed)
    np.testing.assert_allclose(report.decay, c_z, rtol=1e-9, atol=0.0)
    np.testing.assert_allclose([report.c_z, one_step.c_z], c_z[0], rtol=1e-9, atol=0.0)
    np.testing.assert_allclose([report.c_eps, one_step.c_eps], c_eps, rtol=1e-9, atol=0.0)


def test_explosive_probe_raises_in_batch_and_oracle():
    # the 400-step burn-ins stay finite; the h-step probe iteration overflows
    spec = ar_spec(5.8, bound=3.0)
    step_in_probe = r"at step ([1-9]|10)$"
    with pytest.raises(sievar.PathDivergedError, match=step_in_probe):
        oracle_lipschitz_profile(spec, 10, 6, 0)
    with pytest.raises(sievar.PathDivergedError, match=step_in_probe):
        find_h_star(spec, h_cap=10, samples=6, seed=0)


def test_probe_needs_a_sample():
    with pytest.raises(ValueError, match="sample"):
        find_h_star(ar_spec(0.5), h_cap=2, samples=0)
