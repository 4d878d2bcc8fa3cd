from __future__ import annotations

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievar
import sievar.irf
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


def clipped_normals(gen, shape, spec):
    """The generator's next standard normals of ``shape``, clipped to the
    innovation bound and scaled by sigma along the last axis."""
    bound = spec.innovation.bound
    return np.clip(gen.standard_normal(shape), -bound, bound) * np.asarray(spec.innovation.sigma)


def _oracle_stationary(spec, size, seed, burn_in):
    """(size, max(p, 1), d) states burnt in from zeros over the whole
    step-major (burn_in, d, size) draw, made in one call."""
    p = max(spec.p, 1)
    sigma = np.asarray(spec.innovation.sigma)[:, None]
    bound = spec.innovation.bound
    eps = np.clip(philox(seed).standard_normal((burn_in, spec.d, size)), -bound, bound) * sigma
    warm, _ = iterate_paths(spec, np.zeros((size, p, spec.d)), eps.transpose(2, 0, 1))
    return warm[:, -p:, :]


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


def oracle_delta_r(spec, r, h_max, replications, seed, burn_in, components):
    """The coupling profile from one whole step-major burn-in draw: a
    (burn_in, d, 2R) array in one call, iterated from zeros, split into the
    copies' columns [0, R) and [R, 2R), each iterated over the shared
    innovations by its own call."""
    states = _oracle_stationary(spec, 2 * replications, derive_seed(seed, 11), burn_in)
    shared = clipped_normals(philox(derive_seed(seed, 13)), (replications, h_max, spec.d), spec)
    path_a, _ = iterate_paths(spec, states[:replications], shared)
    path_b, _ = iterate_paths(spec, states[replications:], shared)
    gap = np.linalg.norm(path_a[:, :, components] - path_b[:, :, components], axis=2)
    return np.mean(gap**r, axis=0) ** (1.0 / r)


COUPLING_CASES = [(2.0, None), (1.0, (0,)), (3.5, None)]


@pytest.mark.parametrize(
    "spec",
    [sievar.builtin_dgp(7), ar_spec(0.5), ar_spec(0.1, 0.1), ar_spec(0.6, -0.3, 0.2)],
    ids=["dgp7", "ar1", "ar2", "ar3"],
)
@pytest.mark.parametrize("r, components", COUPLING_CASES)
def test_coupling_equals_whole_draw_oracle(spec, r, components):
    # diagonal or scalar lag matrices: the 2R-column products round as the
    # R-column ones, so the profile is identical; a burn-in of 60 steps is
    # two full draw blocks and a short one
    assert 60 % sievar.irf.DRAW_STEPS
    comps = components or tuple(range(spec.d))
    got = estimate_delta_r(spec, r=r, h_max=6, replications=300, seed=4, burn_in=60, components=components)
    oracle = oracle_delta_r(spec, r, 6, 300, 4, 60, comps)
    assert got.delta_hat.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("dgp_id", range(1, 7))
@pytest.mark.parametrize("r, components", COUPLING_CASES)
def test_coupling_matches_whole_draw_oracle_on_dgps(dgp_id, r, components):
    # non-diagonal lag matrices: a many-column product may round differently
    spec = sievar.builtin_dgp(dgp_id)
    comps = components or tuple(range(spec.d))
    got = estimate_delta_r(spec, r=r, h_max=6, replications=300, seed=2, burn_in=60, components=components)
    np.testing.assert_allclose(got.delta_hat, oracle_delta_r(spec, r, 6, 300, 2, 60, comps), rtol=1e-12, atol=0.0)


@settings(max_examples=10, deadline=None)
@given(burn_in=st.integers(1, 70), draw_steps=st.integers(1, 40))
def test_coupling_independent_of_block_size(burn_in, draw_steps):
    spec = sievar.builtin_dgp(2)
    args = dict(h_max=4, replications=100, seed=3, burn_in=burn_in)
    ref = estimate_delta_r(spec, **args)
    innovations = sievar.irf._innovations
    steps = []

    def recording_draw(spec, gen, shape, axis=-1, out=None):
        steps.append(shape[0])
        return innovations(spec, gen, shape, axis, out)

    with mock.patch.object(sievar.irf, "DRAW_STEPS", draw_steps), \
            mock.patch.object(sievar.irf, "_innovations", recording_draw):
        got = estimate_delta_r(spec, **args)
    assert got.delta_hat.tobytes() == ref.delta_hat.tobytes()
    # both copies' burn-in is read draw_steps steps at a time
    assert sum(steps) == burn_in and max(steps) == min(draw_steps, burn_in)


def test_coupling_memory_is_one_burn_in_block():
    # both copies' burn-ins run in one loop that keeps one draw block of the
    # 2R columns and the states they hand on, so the traced peak is a small
    # multiple of that block, whatever the burn-in's length
    spec = sievar.builtin_dgp(2)
    estimate_delta_r(spec, replications=100, seed=0, burn_in=5)
    block = sievar.irf.DRAW_STEPS * spec.d * 2 * 2000 * 8
    peaks = []
    for burn_in in (500, 5000):
        tracemalloc.start()
        try:
            estimate_delta_r(spec, replications=2000, seed=0, burn_in=burn_in)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) <= 3 * block


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(h_max=0), "h_max"),
        (dict(h_max=-1), "h_max"),
        (dict(r=0.0), "r must"),
        (dict(r=-1.0), "r must"),
        (dict(r=0.5), "r must"),
        (dict(r=math.nan), "r must"),
        (dict(r=math.inf), "r must"),
        (dict(components=(5,)), "components"),
        (dict(components=(-1,)), "components"),
        (dict(components=()), "components"),
        (dict(components=(0, 0)), "components"),
    ],
)
def test_coupling_rejects_bad_arguments(kwargs, match):
    with pytest.raises(ValueError, match=match):
        estimate_delta_r(sievar.builtin_dgp(2), **{"replications": 100, **kwargs})


def test_replication_floor():
    with pytest.raises(ValueError, match="100"):
        estimate_delta_r(ar_spec(0.5), replications=50)
    with pytest.raises(ValueError, match="burn_in"):
        estimate_delta_r(ar_spec(0.5), replications=100, burn_in=0)


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
            eps = clipped_normals(gen, (h_cap, d), spec)
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
    # every field of the one-step probe is that of the h_cap = 1 probe
    assert one_step == find_h_star(spec, h_cap=1, samples=samples, seed=seed)
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
