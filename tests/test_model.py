from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievar
import sievar.model
from sievar.basis import KnotVector, span_offsets
from sievar.model import (
    NONLIN_KINDS,
    InnovationLaw,
    LagPolynomial,
    ModelSpec,
    NonlinFn,
    PathDivergedError,
    StabilityWarning,
    builtin_dgp,
    derive_seed,
    draw_innovations,
    final_states,
    iterate_paths,
    philox,
    simulate,
    simulate_batch,
)

B0_TRI = np.array([[1.0, 0.0, 0.0], [-0.45, 1.0, -0.3], [-0.05, 0.1, 1.0]])
C0_TRI = np.array([0.0, -0.2, 0.08])
C1_TRI = np.array([0.0, -0.1, 0.2])
B1_TRI = {
    4: np.array([[0.0, 0.0, 0.0], [0.15, 0.17, -0.18], [-0.08, 0.03, 0.6]]),
    5: np.array([[-0.13, 0.0, 0.0], [0.15, 0.17, -0.18], [-0.08, 0.03, 0.6]]),
    6: np.array([[-0.13, 0.05, -0.01], [0.15, 0.17, -0.18], [-0.08, 0.03, 0.6]]),
}


def zero_spec(d_y=1, p=1):
    return ModelSpec(
        d_y=d_y,
        p=p,
        mu=np.zeros(1 + d_y),
        lags=LagPolynomial(np.zeros((p, 1 + d_y, 1 + d_y))),
        impact=tuple(((),) * (p + 1) for _ in range(d_y)),
        b0_21=np.zeros(d_y),
        innovation=InnovationLaw(sigma=(1.0,) * (1 + d_y), bound=3.0),
    )


def ar_spec(*coeffs, bound=3.0):
    p = len(coeffs)
    return ModelSpec(
        d_y=0,
        p=p,
        mu=np.zeros(1),
        lags=LagPolynomial(np.array([[[c]] for c in coeffs])),
        impact=(),
        b0_21=np.zeros(0),
        innovation=InnovationLaw(sigma=(1.0,), bound=bound),
    )


def test_nonlin_kinds():
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(NonlinFn("max0", -0.4)(x), -0.4 * np.maximum(0, x))
    np.testing.assert_allclose(NonlinFn("cube")(x), x**3)
    phi = NonlinFn("smooth_phi")
    np.testing.assert_allclose(phi(x), (x - 1) * (0.5 + np.tanh(x - 1) / 2))
    np.testing.assert_allclose(NonlinFn("smooth_phi_shift")(x), phi(x + 1.0), atol=1e-15)
    assert NonlinFn("zero", 5.0)(2.0) == 0.0
    identity = NonlinFn("identity")(x)
    assert identity is not x and identity.tobytes() == x.tobytes()  # never the caller's array
    with pytest.raises(ValueError, match="unknown impact kind"):
        NonlinFn("sigmoid")


def test_draw_innovations_clipping_and_moments():
    spec = builtin_dgp(2)
    eps = draw_innovations(spec, 100_000, seed=42)
    assert eps.shape == (100_000, 2)
    assert np.max(np.abs(eps)) == 3.0
    assert np.count_nonzero(np.abs(eps) == 3.0) > 0
    assert abs(eps.mean()) < 0.02


def test_draw_innovations_zero_sigma():
    spec = zero_spec()
    law = InnovationLaw(sigma=(0.0, 0.0), bound=3.0)
    spec = ModelSpec(spec.d_y, spec.p, spec.mu, spec.lags, spec.impact, spec.b0_21, law)
    np.testing.assert_array_equal(draw_innovations(spec, 100, seed=1), 0.0)


def test_innovations_are_the_clipped_scaled_stream():
    bound, sigma = 1.5, (1.0, 0.5, 2.0)
    spec = ModelSpec(
        d_y=2, p=0, mu=np.zeros(3), lags=LagPolynomial(np.zeros((0, 3, 3))), impact=None,
        b0_21=np.zeros(2), innovation=InnovationLaw(sigma=sigma, bound=bound),
    )
    for axis, shape in [(0, (3, 4, 50)), (1, (4, 3, 50)), (-1, (4, 50, 3))]:
        # sigma_j along ``axis``, broadcast over the others
        scale = np.moveaxis(np.reshape(sigma, (3, 1, 1)), 0, axis)
        gen, twin = philox(17), philox(17)
        draws = sievar.model._innovations(spec, gen, shape, axis)
        expected = np.clip(twin.standard_normal(shape), -bound, bound) * scale
        assert draws.shape == shape and draws.tobytes() == expected.tobytes()
        assert np.count_nonzero(np.abs(draws) == bound) > 0
        # the generator's next draw is unchanged
        np.testing.assert_array_equal(gen.standard_normal(7), twin.standard_normal(7))
        # drawn into a buffer: the same stream, written in place
        buffer = np.full((5,) + shape[1:], np.nan)
        into = sievar.model._innovations(spec, gen, (3,) + shape[1:], axis, buffer[:3])
        assert np.shares_memory(into, buffer) and np.isnan(buffer[3:]).all()
        expected = np.clip(twin.standard_normal((3,) + shape[1:]), -bound, bound) * scale
        assert into.tobytes() == expected.tobytes()


def test_draw_innovations_deterministic():
    spec = builtin_dgp(3)
    np.testing.assert_array_equal(
        draw_innovations(spec, 500, seed=9), draw_innovations(spec, 500, seed=9)
    )


def test_simulate_zero_spec_passthrough():
    spec = zero_spec()
    path = simulate(spec, 200, seed=7, burn_in=50)
    np.testing.assert_array_equal(path.x, path.eps[:, 0])
    np.testing.assert_array_equal(path.y[:, 0], path.eps[:, 1])


def test_simulate_dgp1_x_is_innovation():
    path = simulate(builtin_dgp(1), 1000, seed=3)
    np.testing.assert_array_equal(path.x, path.eps[:, 0])


def test_simulate_dgp2_matches_scalar_recursion_oracle():
    spec = builtin_dgp(2)
    n, burn = 300, 40
    eps = draw_innovations(spec, burn + n, seed=21)
    x = y = 0.0
    xs, ys = [], []
    for t in range(burn + n):
        x_new = 0.5 * x + eps[t, 0]
        y_new = (
            0.5 * y + 0.5 * x_new + 0.3 * x
            - 0.4 * max(0.0, x_new) + 0.3 * max(0.0, x)
            + eps[t, 1]
        )
        x, y = x_new, y_new
        xs.append(x)
        ys.append(y)
    path = simulate(spec, n, seed=21, burn_in=burn)
    np.testing.assert_allclose(path.x, xs[burn:], atol=1e-12)
    np.testing.assert_allclose(path.y[:, 0], ys[burn:], atol=1e-12)


def test_simulate_dgp2_stationary_moments():
    path = simulate(builtin_dgp(2), 100_000, seed=5)
    assert abs(path.x.mean()) < 0.02
    ac1 = np.corrcoef(path.x[1:], path.x[:-1])[0, 1]
    assert abs(ac1 - 0.5) < 0.02


def test_simulate_deterministic():
    spec = builtin_dgp(6)
    a = simulate(spec, 400, seed=13)
    b = simulate(spec, 400, seed=13)
    np.testing.assert_array_equal(a.z, b.z)
    np.testing.assert_array_equal(a.eps, b.eps)


@pytest.mark.parametrize("dgp_id", range(1, 8))
def test_simulate_batch_matches_per_seed_simulate(dgp_id):
    spec = builtin_dgp(dgp_id)
    seeds = [101, 102, 103, 104, 105]
    batch = simulate_batch(spec, 300, seeds, burn_in=100)
    for seed, path in zip(seeds, batch):
        single = simulate(spec, 300, seed=seed, burn_in=100)
        np.testing.assert_array_equal(path.eps, single.eps)
        assert (path.seed, path.burn_in) == (seed, 100)
        if dgp_id == 7:  # diagonal lag matrix: no cross-row rounding in the batch
            np.testing.assert_array_equal(path.z, single.z)
        else:
            np.testing.assert_allclose(path.z, single.z, rtol=0.0, atol=1e-12)


def reference_iterate(spec, state, eps):
    """The forward recursion with every impact term evaluated through
    ``NonlinFn.__call__`` at every step, so no feature or basis is shared."""
    n_batch, steps, d = eps.shape
    p = spec.p
    buf = np.concatenate([state, np.zeros((n_batch, steps, d))], axis=1)
    clamped = 0
    for s in range(steps):
        pos = p + s
        new = np.tile(spec.mu, (n_batch, 1))
        for k in range(1, p + 1):
            new += buf[:, pos - k] @ spec.lags.coeffs[k - 1].T
        new[:, 0] += eps[:, s, 0]
        for i in range(spec.d_y):
            acc = new[:, 1 + i]
            for j in range(p + 1):
                x_lag = new[:, 0] if j == 0 else buf[:, pos - j, 0]
                for term in spec.impact[i][j]:
                    if term.kind == "spline":
                        clamped += int(np.count_nonzero((x_lag < term.knots.lo) | (x_lag > term.knots.hi)))
                    acc += term(x_lag)
            acc += spec.b0_21[i] * eps[:, s, 0] + eps[:, s, 1 + i]
        buf[:, pos] = new
    return buf[:, p:], clamped


def _spline(kv, scale, seed):
    coeffs = np.random.default_rng(seed).normal(size=kv.dim)
    return NonlinFn("spline", scale, kv, tuple(coeffs))


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("batch", [1, 64])
def test_spline_span_cache_is_exact(shared, batch, monkeypatch):
    kv = KnotVector(3, (-0.5, 0.4), -1.5, 1.5)
    twin = KnotVector(3, (-0.5, 0.4), -1.5, 1.5)  # equal value, distinct object
    other = KnotVector(2, (0.0,), -1.0, 1.2)
    lag2 = twin if shared else other
    impact = (
        ((_spline(kv, 0.7, 1), NonlinFn("max0", 0.2)), (_spline(kv, -0.4, 2),), (_spline(lag2, 0.3, 3),)),
        ((), (_spline(twin, 0.5, 4),), (NonlinFn("identity", 0.1),)),
    )
    lags = np.stack([np.diag([0.5, 0.3, 0.2]), np.full((3, 3), 0.05)])
    spec = ModelSpec(
        d_y=2, p=2, mu=np.array([0.1, 0.0, -0.2]), lags=LagPolynomial(lags), impact=impact,
        b0_21=np.array([0.4, -0.3]), innovation=InnovationLaw(sigma=(1.0, 0.5, 0.5), bound=3.0),
    )
    steps = 40
    rng = np.random.default_rng(7)
    state = rng.normal(size=(batch, 2, 3))
    eps = rng.normal(size=(batch, steps, 3))
    calls = []
    real = sievar.model.span_offsets
    monkeypatch.setattr(sievar.model, "span_offsets", lambda k, x: calls.append(k) or real(k, x))
    paths, clamped = iterate_paths(spec, state, eps)
    monkeypatch.undo()
    expected, expected_clamped = reference_iterate(spec, state, eps)
    np.testing.assert_array_equal(paths, expected)
    assert clamped == expected_clamped > 0
    # one span lookup per (knot vector, buffer row): rows 0..steps+1 when every lag
    # shares kv; else rows 1..steps+1 (lags 0, 1) plus 0..steps-1 (lag 2)
    assert len(calls) == (steps + 2 if shared else (steps + 1) + steps)


KV_A = KnotVector(3, (-0.5, 0.4), -1.5, 1.5)
KV_A_TWIN = KnotVector(3, (-0.5, 0.4), -1.5, 1.5)  # equal value, distinct object, as in a loaded fit
KV_B = KnotVector(1, (0.0,), -1.0, 1.2)


@st.composite
def impact_terms(draw):
    kind = draw(st.sampled_from(NONLIN_KINDS))
    scale = draw(st.floats(-0.5, 0.5, allow_subnormal=False))
    if kind != "spline":
        return NonlinFn(kind, scale)
    return _spline(draw(st.sampled_from((KV_A, KV_A_TWIN, KV_B))), scale, draw(st.integers(0, 99)))


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from((0, 1, 2)), batch=st.sampled_from((1, 64)), d_y=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_feature_cache_equals_per_term_oracle(p, batch, d_y, seed, data):
    impact = [[data.draw(st.lists(impact_terms(), max_size=3)) for _ in range(p + 1)] for _ in range(d_y)]
    # always one kind at two scales and equal but distinct knot vectors, at lags 0 and p
    impact[0][0] += [NonlinFn("smooth_phi", 0.3), _spline(KV_A, 0.5, 1)]
    impact[0][p] += [NonlinFn("smooth_phi", -0.2), _spline(KV_A_TWIN, -0.4, 2)]
    d = 1 + d_y
    rng = np.random.default_rng(seed)
    lags = rng.uniform(-0.15, 0.15, size=(p, d, d))
    lags[:, 0, 1:] = 0.0  # X follows its own lags, so cubes of X cannot feed back into X
    spec = ModelSpec(
        d_y=d_y, p=p, mu=rng.uniform(-0.2, 0.2, d), lags=LagPolynomial(lags.reshape(p, d, d)),
        impact=impact, b0_21=rng.uniform(-0.5, 0.5, d_y),
        innovation=InnovationLaw(sigma=(1.0,) * d, bound=3.0),
    )
    state = rng.uniform(-2.0, 2.0, size=(batch, max(p, 1), d))
    eps = rng.uniform(-2.0, 2.0, size=(batch, 12, d))
    paths, clamped = iterate_paths(spec, state, eps)
    expected, expected_clamped = reference_iterate(spec, state[:, state.shape[1] - p :], eps)
    assert paths.tobytes() == expected.tobytes()
    assert clamped == expected_clamped


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from((0, 1, 2)), batch=st.sampled_from((1, 3, 64)), d_y=st.integers(1, 2),
    steps=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), data=st.data(),
)
def test_final_states_equals_iterate_paths_oracle(p, batch, d_y, steps, seed, data):
    impact = [[data.draw(st.lists(impact_terms(), max_size=3)) for _ in range(p + 1)] for _ in range(d_y)]
    # a spline at lags 0 and p: states and innovations reach outside its knot domain
    impact[0][0] += [_spline(KV_A, 0.5, 1)]
    impact[0][p] += [_spline(KV_A_TWIN, -0.4, 2)]
    d = 1 + d_y
    rng = np.random.default_rng(seed)
    lags = rng.uniform(-0.15, 0.15, size=(p, d, d))  # non-diagonal
    lags[:, 0, 1:] = 0.0  # X follows its own lags, so cubes of X cannot feed back into X
    spec = ModelSpec(
        d_y=d_y, p=p, mu=rng.uniform(-0.2, 0.2, d), lags=LagPolynomial(lags.reshape(p, d, d)),
        impact=impact, b0_21=rng.uniform(-0.5, 0.5, d_y),
        innovation=InnovationLaw(sigma=(1.0,) * d, bound=3.0),
    )
    q = max(p, 1)
    state = rng.uniform(-2.0, 2.0, size=(batch, q, d))
    eps = rng.uniform(-2.0, 2.0, size=(batch, steps, d))
    state_before, eps_before = state.copy(), eps.copy()
    final = final_states(spec, state, eps)
    paths, _ = iterate_paths(spec, state, eps)
    # the last q rows of the path, preceded by the input state when steps < q
    expected = np.concatenate([state, paths], axis=1)[:, -q:]
    if steps >= q:
        np.testing.assert_array_equal(expected, paths[:, -q:])
    assert final.shape == (batch, q, d) and final.flags.c_contiguous
    assert final.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(state, state_before)
    np.testing.assert_array_equal(eps, eps_before)
    assert not np.shares_memory(final, state)


def test_final_states_of_an_empty_lag_zero_state():
    spec = zero_spec(p=0)
    eps = np.arange(12.0).reshape(2, 3, 2)
    np.testing.assert_array_equal(final_states(spec, np.zeros((2, 0, 2)), eps), eps[:, -1:])
    with pytest.raises(ValueError, match="state must be"):
        final_states(spec, np.zeros((3, 1, 2)), eps)


DGP7_FITS = ("parametric_true", "parametric_max0", "sieve")
LARGE_BATCH_MODELS = [f"dgp{i}" for i in range(1, 8)] + [f"dgp7_{tag}" for tag in DGP7_FITS]


@pytest.fixture(scope="module")
def dgp7_study_fits():
    """The three fits ``run_study`` makes on one DGP 7 sample, by tag."""
    from sievar.study import _fit_one, default_study_config

    cfg = default_study_config(7)
    assert cfg.estimators == DGP7_FITS
    path = simulate(builtin_dgp(7), cfg.n, seed=derive_seed(7, 11), burn_in=cfg.burn_in)
    return {tag: _fit_one(cfg, tag, path) for tag in cfg.estimators}


@pytest.mark.parametrize("batch", [1, 50, 2387, 4096])
@pytest.mark.parametrize("model", LARGE_BATCH_MODELS)
def test_large_batches_equal_per_term_oracle(model, batch, request):
    # BLAS changes its blocking with the batch size, which the small batches
    # of the property tests never reach; the innovations are read-only
    # sliding windows, as estimated_irf reads its residuals
    if model.startswith("dgp7_"):
        spec = request.getfixturevalue("dgp7_study_fits")[model[len("dgp7_") :]]
    else:
        spec = builtin_dgp(int(model[len("dgp") :]))
    steps, q, d = 5, max(spec.p, 1), spec.d
    rng = np.random.default_rng(1000 * LARGE_BATCH_MODELS.index(model) + batch)
    state = rng.uniform(-3.0, 3.0, size=(batch, q, d))
    series = rng.uniform(-3.0, 3.0, size=(batch + steps - 1, d))
    eps = np.lib.stride_tricks.sliding_window_view(series, steps, axis=0).transpose(0, 2, 1)
    assert eps.shape == (batch, steps, d) and not eps.flags.writeable
    paths, clamped = iterate_paths(spec, state, eps)
    expected, expected_clamped = reference_iterate(spec, state[:, q - spec.p :], np.ascontiguousarray(eps))
    assert paths.flags.c_contiguous and paths.tobytes() == expected.tobytes()
    assert clamped == expected_clamped
    final = final_states(spec, state, eps)
    assert final.flags.c_contiguous and final.tobytes() == expected[:, -q:].tobytes()


def _innovations(layout, rng, batch, steps, d):
    """Uniform (B, T, d) innovations in one of the layouts callers pass."""
    if layout == "sliding-window":  # read-only; row b starts at step b of one series
        series = rng.uniform(-3.0, 3.0, size=(batch + steps - 1, d))
        return np.lib.stride_tricks.sliding_window_view(series, steps, axis=0).transpose(0, 2, 1)
    eps = rng.uniform(-3.0, 3.0, size=(batch, steps, d))
    if layout == "read-only":
        eps.flags.writeable = False
    elif layout == "every-other-step":
        wide = np.full((batch, 2 * steps, d), np.nan)
        wide[:, ::2] = eps
        eps = wide[:, ::2]
    elif layout == "component-major":  # a transposed view of (T, d, B) rows
        eps = np.ascontiguousarray(eps.transpose(2, 1, 0)).transpose(2, 1, 0)
    return eps


K = sievar.model.STAGE_STEPS


@pytest.mark.parametrize("layout", ["read-only", "every-other-step", "component-major", "sliding-window"])
@pytest.mark.parametrize("steps", [1, K - 1, K, K + 1, 3 * K + 5])
@pytest.mark.parametrize("model", LARGE_BATCH_MODELS)
def test_staged_innovations_equal_per_term_oracle(model, steps, layout, request):
    # the loop copies its innovations STAGE_STEPS steps at a time; paths
    # shorter than, equal to and just past one block, and several blocks
    # with a short last one, must match the per-step oracle
    if model.startswith("dgp7_"):
        spec = request.getfixturevalue("dgp7_study_fits")[model[len("dgp7_") :]]
    else:
        spec = builtin_dgp(int(model[len("dgp") :]))
    batch, q, d = 37, max(spec.p, 1), spec.d
    rng = np.random.default_rng(LARGE_BATCH_MODELS.index(model) + 100 * steps)
    state = rng.uniform(-3.0, 3.0, size=(batch, q, d))
    eps = _innovations(layout, rng, batch, steps, d)
    assert eps.shape == (batch, steps, d)
    before = eps.copy()
    expected, expected_clamped = reference_iterate(spec, state[:, q - spec.p :], np.ascontiguousarray(eps))
    paths, clamped = iterate_paths(spec, state, eps)
    assert paths.flags.c_contiguous and paths.tobytes() == expected.tobytes()
    assert clamped == expected_clamped
    final = final_states(spec, state, eps)
    tail = np.concatenate([state, expected], axis=1)[:, -q:]
    assert final.flags.c_contiguous and final.tobytes() == tail.tobytes()
    np.testing.assert_array_equal(eps, before)


# the transforms as written out before the step plan
DICT_KEYED_TRANSFORMS = {
    "zero": np.zeros_like,
    "identity": lambda x: 1.0 * x,
    "max0": lambda x: np.maximum(0.0, x),
    "cube": lambda x: x**3,
    "smooth_phi": lambda x: (x - 1.0) * (0.5 + np.tanh(x - 1.0) / 2.0),
    "smooth_phi_shift": lambda x: x * (0.5 + np.tanh(x) / 2.0),
}


@np.errstate(over="ignore", invalid="ignore")
def dict_keyed_iterate(spec, state, eps_path, keep_path=True):
    """The forward loop before its step plan, kept as the reference: (d, B)
    state blocks, one feature per (term kind or knot vector, time index) in
    a dict rebuilt every step, and a fresh array per operation. Returns the
    (B, T, d) paths and the clamped count, or without ``keep_path`` the
    (B, max(p, 1), d) final states."""
    p, d_y = spec.p, spec.d_y
    recent = list(np.asarray(state, dtype=float)[:, -max(p, 1) :].transpose(1, 2, 0).copy())
    eps_path = np.asarray(eps_path, dtype=float).transpose(1, 2, 0)
    steps, d, n_batch = eps_path.shape
    a = spec.lags.coeffs
    mu = spec.mu[:, None]
    out = np.empty((steps, d, n_batch)) if keep_path else None
    stage = np.empty((min(sievar.model.STAGE_STEPS, steps), d, n_batch))
    features = {}
    clamped = 0
    for s in range(steps):
        pos = p + s
        if s % sievar.model.STAGE_STEPS == 0:
            stage[: min(sievar.model.STAGE_STEPS, steps - s)] = eps_path[s : s + sievar.model.STAGE_STEPS]
        eps = stage[s % sievar.model.STAGE_STEPS]
        new = out[s] if keep_path else np.empty((d, n_batch))
        if p:
            np.matmul(a[0], recent[p - 1], out=new)
            new += mu
        else:
            new[...] = mu
        for k in range(2, p + 1):
            new += a[k - 1] @ recent[p - k]
        new[0] += eps[0]
        x_new = new[0]
        for i in range(d_y):
            acc = new[1 + i]
            for j in range(p + 1):
                x_lag = x_new if j == 0 else recent[p - j][0]
                for term in spec.impact[i][j]:
                    spline = term.kind == "spline"
                    key = (term.knots if spline else term.kind, pos - j)
                    feature = features.get(key)
                    if feature is None:
                        feature = span_offsets(term.knots, x_lag) if spline else DICT_KEYED_TRANSFORMS[term.kind](x_lag)
                        features[key] = feature
                    if spline:
                        clamped += feature[2]
                        acc += term.from_spans(feature[0], feature[1])
                    else:
                        acc += term.scale * feature
            acc += spec.b0_21[i] * eps[0] + eps[1 + i]
        if not np.isfinite(new).all():
            raise PathDivergedError(f"path diverged at step {s + 1}", step=s + 1)
        recent = recent[1:] + [new]
        if features:
            features = {key: f for key, f in features.items() if key[1] > pos - p}
    if keep_path:
        return out.transpose(2, 0, 1).copy(), clamped
    return np.stack(recent).transpose(2, 0, 1).copy()


def dict_keyed_simulate_batch(spec, n, seeds, burn_in):
    """``simulate_batch``'s (R, n, d) paths through the reference loop."""
    eps = np.stack([draw_innovations(spec, burn_in + n, seed) for seed in seeds])
    state = np.zeros((len(seeds), max(spec.p, 1), spec.d))
    if burn_in:
        state = dict_keyed_iterate(spec, state, eps[:, :burn_in], keep_path=False)
    return dict_keyed_iterate(spec, state, eps[:, burn_in:])[0]


ORACLE_MODELS = [f"dgp{i}" for i in range(1, 8)] + ["dgp7_shift"] + [
    f"{fit}_p{p}" for fit in ("sieve", "max0", "smooth_phi") for p in (1, 2)
]


@pytest.fixture(scope="module")
def oracle_specs():
    """The builtin DGPs, the phi-shift variant, and sieve, max0 and
    smooth_phi fits at p = 1 and 2 to a DGP 7 sample, by name."""
    from sievar.estimator import ParametricForm, fit_parametric, fit_two_step, max0_prior_form

    from conftest import make_plan

    specs = {f"dgp{i}": builtin_dgp(i) for i in range(1, 8)}
    specs["dgp7_shift"] = builtin_dgp(7, phi_shift=True)
    path = simulate(builtin_dgp(7), 600, seed=derive_seed(7, 23))
    for p in (1, 2):
        phi = ParametricForm(terms=tuple((j, "smooth_phi") for j in range(p + 1)), x_lags_linear=False)
        specs[f"sieve_p{p}"] = fit_two_step(path, make_plan(path.x, knots=(-1.0, 1.0), lags=p + 1))
        specs[f"max0_p{p}"] = fit_parametric(path, p, max0_prior_form(p))
        specs[f"smooth_phi_p{p}"] = fit_parametric(path, p, phi)
    return specs


@pytest.mark.parametrize("batch", [1, 2, 50, 513])
@pytest.mark.parametrize("model", ORACLE_MODELS)
def test_step_plan_equals_dict_keyed_loop(model, batch, oracle_specs):
    spec = oracle_specs[model]
    steps, q, d = 3 * sievar.model.STAGE_STEPS + 5, max(spec.p, 1), spec.d
    rng = np.random.default_rng(7919 * ORACLE_MODELS.index(model) + batch)
    # wide enough that the sieve fits' paths leave their knot domain
    state = rng.uniform(-4.0, 4.0, size=(batch, q, d))
    eps = rng.uniform(-4.0, 4.0, size=(batch, steps, d))
    paths, clamped = iterate_paths(spec, state, eps)
    expected, expected_clamped = dict_keyed_iterate(spec, state, eps)
    assert paths.tobytes() == expected.tobytes()
    assert clamped == expected_clamped
    assert (clamped > 0) == model.startswith("sieve")
    final = final_states(spec, state, eps)
    assert final.tobytes() == dict_keyed_iterate(spec, state, eps, keep_path=False).tobytes()
    seeds = [derive_seed(batch, r) for r in range(batch)]
    z = np.stack([path.z for path in simulate_batch(spec, 30, seeds, burn_in=20)])
    assert z.tobytes() == dict_keyed_simulate_batch(spec, 30, seeds, 20).tobytes()


@pytest.mark.parametrize("batch", [1, 2, 50, 513])
@pytest.mark.parametrize("model", ["dgp7", "sieve_p2", "smooth_phi_p2"])
@pytest.mark.filterwarnings("ignore::sievar.StabilityWarning")
def test_divergence_step_equals_dict_keyed_loop(model, batch, oracle_specs):
    # X grows fourfold each step from between 1e290 and 1e305, so the rows
    # overflow at different steps and the batch fails at its first
    spec = oracle_specs[model]
    lags = spec.lags.coeffs.copy()
    lags[0, 0, 0] = 4.0
    diverging = dataclasses.replace(spec, lags=LagPolynomial(lags))
    q, d = max(spec.p, 1), spec.d
    rng = np.random.default_rng(batch)
    state = np.zeros((batch, q, d))
    state[:, -1, 0] = 10.0 ** rng.uniform(290.0, 305.0, size=batch)
    eps = rng.uniform(-1.0, 1.0, size=(batch, 40, d))
    with pytest.raises(PathDivergedError) as expected:
        dict_keyed_iterate(diverging, state, eps)
    assert 1 < expected.value.step < 40
    for call in (iterate_paths, final_states):
        with pytest.raises(PathDivergedError) as got:
            call(diverging, state, eps)
        assert got.value.step == expected.value.step


# non-finite innovations or states, and finite ones that may overflow later
INJECTED = (np.inf, -np.inf, np.nan, 1e200, 1e308)


@pytest.mark.parametrize("model", ORACLE_MODELS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_diverged_columns_leave_the_others_unchanged(model, oracle_specs, data):
    """A column that leaves the finite range is marked and runs on; every
    other column keeps the bits of the clean call, in a single-model call
    and in a stacked one, and the mask and first step are those of each
    column run alone."""
    spec = oracle_specs[model]
    widths = data.draw(st.lists(st.integers(1, 12), min_size=1, max_size=3), label="widths")
    n_batch = sum(widths)
    columns = sorted(data.draw(st.sets(st.integers(0, n_batch - 1), min_size=1), label="columns"))
    value = data.draw(st.sampled_from(INJECTED), label="value")
    keep_path = data.draw(st.booleans(), label="keep_path")
    steps, q, d = 2 * sievar.model.STAGE_STEPS + 3, max(spec.p, 1), spec.d
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    state = rng.uniform(-3.0, 3.0, size=(q, d, n_batch))
    eps = rng.uniform(-3.0, 3.0, size=(steps, d, n_batch))
    impact = rng.uniform(-1.0, 1.0, size=n_batch)
    bad_state, bad_eps = state.copy(), eps.copy()
    comp = data.draw(st.integers(0, d - 1), label="component")
    if data.draw(st.booleans(), label="in_state"):
        bad_state[-1, comp, columns] = value
    # each column from its own step on, so the columns diverge at different steps
    for c in columns:
        bad_eps[data.draw(st.integers(0, steps), label="step") :, comp, c] = value
    edges = np.cumsum([0] + widths)

    def run(states, innovations):
        if len(widths) == 1:
            return sievar.model._forward(spec, states, innovations, impact=impact, keep_path=keep_path)
        plan = sievar.model._stack([spec._step_plan] * len(widths))
        states, innovations = ([a[..., lo:hi] for lo, hi in zip(edges, edges[1:])] for a in (states, innovations))
        return sievar.model._forward(plan, list(states), list(innovations), impact=impact, keep_path=keep_path)

    clean, _, none = run(state, eps)
    assert none is None
    got, _, diverged = run(bad_state, bad_eps)
    alone = {
        c: sievar.model._forward(spec, bad_state[..., [c]], bad_eps[..., [c]], impact=impact[[c]],
                                 keep_path=keep_path)[2]
        for c in columns
    }
    expected = np.zeros(n_batch, dtype=bool)
    expected[[c for c, one in alone.items() if one is not None]] = True
    if expected.any():
        assert diverged.columns.tolist() == expected.tolist()
        assert diverged.step == min(one.step for one in alone.values() if one is not None)
    else:
        assert diverged is None
    others = np.setdiff1d(np.arange(n_batch), columns)
    assert got[..., others].tobytes() == clean[..., others].tobytes()


@pytest.mark.parametrize("shape", [(4, 6, 1), (4, 6, 3), (6, 3), (12,), (1, 4, 6, 2)])
def test_innovations_of_the_wrong_shape_raise(shape):
    # unchecked, a narrow array fails inside numpy and a wide one is cut to width
    spec = builtin_dgp(7)
    for call in (iterate_paths, final_states):
        with pytest.raises(ValueError, match=r"eps_path must be \(B, T, 2\) .*" + re.escape(str(shape))):
            call(spec, np.zeros((4, 1, 2)), np.zeros(shape))


def one_call_simulate_batch(spec, n, seeds, burn_in):
    """``simulate_batch`` as one ``iterate_paths`` call over the burn-in and
    the kept steps from innovations stacked per seed: (paths, innovations)."""
    eps = np.stack([draw_innovations(spec, burn_in + n, s) for s in seeds])
    paths, _ = iterate_paths(spec, np.zeros((len(seeds), max(spec.p, 1), spec.d)), eps)
    return paths[:, burn_in:], eps[:, burn_in:]


@pytest.mark.parametrize("dgp_id", range(1, 8))
@pytest.mark.parametrize("batch", [1, 25])
@pytest.mark.parametrize("burn_in", [0, 1, 37])
def test_simulate_batch_equals_one_call_oracle(dgp_id, batch, burn_in):
    spec = builtin_dgp(dgp_id)
    seeds = [derive_seed(dgp_id, burn_in, r) for r in range(batch)]
    paths = simulate_batch(spec, 60, seeds, burn_in=burn_in)
    z, eps = one_call_simulate_batch(spec, 60, seeds, burn_in)
    assert np.stack([path.z for path in paths]).tobytes() == z.tobytes()
    assert np.stack([path.eps for path in paths]).tobytes() == eps.tobytes()
    assert [(path.seed, path.burn_in) for path in paths] == [(s, burn_in) for s in seeds]


@pytest.mark.parametrize("burn_in", [0, 100, 1750, 2000])
def test_divergence_step_counts_from_the_first_burn_in_step(burn_in):
    # X_t = 1.5 X_{t-1} + eps_t from zero leaves the finite range at step 1751
    # of seed 1's stream, whether that step falls in the burn-in or after it
    with pytest.warns(StabilityWarning):
        spec = ar_spec(1.5)
    for call in (lambda: simulate(spec, 2000, seed=1, burn_in=burn_in),
                 lambda: simulate_batch(spec, 2000, (1, 2), burn_in=burn_in)):
        with pytest.raises(PathDivergedError, match=r"at step 1751$") as info:
            call()
        assert info.value.step == 1751


@pytest.mark.parametrize("p", [0, 1, 2])
def test_impact_none_means_no_terms_at_every_lag(p):
    base = zero_spec(d_y=2, p=p)
    spec = ModelSpec(
        d_y=2, p=p, mu=base.mu, lags=base.lags, impact=None, b0_21=base.b0_21,
        innovation=base.innovation,
    )
    assert spec.impact == (((),) * (p + 1),) * 2
    eps = np.random.default_rng(p).normal(size=(3, 8, 3))
    state = np.ones((3, max(p, 1), 3))
    np.testing.assert_array_equal(iterate_paths(spec, state, eps)[0], iterate_paths(base, state, eps)[0])


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("batch", [1, 64])
def test_iterate_paths_returns_fresh_contiguous_rows(p, batch):
    kv = KnotVector(3, (0.0,), -2.0, 2.0)
    impact = tuple(((_spline(kv, 0.4, 5 + j), NonlinFn("max0", -0.3)),) + tuple(
        (_spline(kv, 0.2, 9 + k),) for k in range(1, p + 1)
    ) for j in range(2))
    lags = np.array([np.full((3, 3), 0.1) + np.diag([0.3, 0.2, 0.1]) / (k + 1) for k in range(p)])
    spec = ModelSpec(
        d_y=2, p=p, mu=np.array([0.1, -0.1, 0.2]), lags=LagPolynomial(lags.reshape(p, 3, 3)),
        impact=impact, b0_21=np.array([0.5, -0.2]),
        innovation=InnovationLaw(sigma=(1.0, 0.5, 0.5), bound=3.0),
    )
    rng = np.random.default_rng(p + batch)
    state = rng.normal(size=(batch, max(p, 1), 3))
    eps = rng.normal(size=(batch, 30, 3))
    state_before, eps_before = state.copy(), eps.copy()
    paths, clamped = iterate_paths(spec, state, eps)
    expected, expected_clamped = reference_iterate(spec, state[:, state.shape[1] - p :], eps)
    np.testing.assert_array_equal(paths, expected)
    assert clamped == expected_clamped
    assert paths.flags.c_contiguous and paths.shape == (batch, 30, 3)
    np.testing.assert_array_equal(state, state_before)
    np.testing.assert_array_equal(eps, eps_before)
    kept = paths.copy()
    state[...] = np.nan
    eps[...] = np.nan
    np.testing.assert_array_equal(paths, kept)


def test_simulate_divergence_raises():
    with pytest.warns(StabilityWarning):
        spec = ar_spec(1.5)
    with pytest.raises(PathDivergedError, match="step"):
        simulate(spec, 2000, seed=1, burn_in=2000)


def test_builtin_dgp2_coefficients():
    spec = builtin_dgp(2)
    assert spec.lags.coeffs[0][0, 0] == 0.5
    assert spec.lags.coeffs[0][1, 1] == 0.5  # Y on Y_{t-1}
    assert spec.lags.coeffs[0][1, 0] == 0.3  # linear X_{t-1}
    lag0 = spec.impact_terms(0, 0)
    assert {(t.kind, t.scale) for t in lag0} == {("identity", 0.5), ("max0", -0.4)}
    lag1 = spec.impact_terms(0, 1)
    assert {(t.kind, t.scale) for t in lag1} == {("max0", 0.3)}


def test_builtin_dgp7_coefficients():
    spec = builtin_dgp(7)
    assert spec.lags.coeffs[0][0, 0] == 0.8
    assert spec.innovation.bound == 5.0
    kinds = [(t.kind, t.scale) for j in (0, 1) for t in spec.impact_terms(0, j)]
    assert kinds == [("smooth_phi", 0.9), ("smooth_phi", 0.5)]
    shifted = builtin_dgp(7, phi_shift=True)
    assert shifted.impact_terms(0, 0)[0].kind == "smooth_phi_shift"


def test_builtin_dgp4_b021_matches_inversion_oracle():
    spec = builtin_dgp(4)
    b0_inv = np.linalg.inv(B0_TRI)
    np.testing.assert_allclose(spec.b0_21, b0_inv[1:, 0], atol=1e-12)
    assert spec.lags.coeffs[0][0, 0] == 0.0  # DGP 4 X is exogenous noise


def test_builtin_dgp_out_of_range():
    with pytest.raises(ValueError, match="1..7"):
        builtin_dgp(0)
    with pytest.raises(ValueError, match="1..7"):
        builtin_dgp(8)


def structural_oracle(dgp_id: int, eps: np.ndarray) -> np.ndarray:
    """Direct per-step solve of B0 z_t = B1 z_{t-1} + C0 f(x_t) + C1 f(x_{t-1}) + eps_t."""
    b1 = B1_TRI[dgp_id]
    b22 = B0_TRI[1:, 1:]
    steps = eps.shape[0]
    z = np.zeros((steps + 1, 3))
    for t in range(steps):
        prev = z[t]
        x_new = b1[0] @ prev + eps[t, 0]
        rhs = (
            b1[1:] @ prev
            + C0_TRI[1:] * max(0.0, x_new)
            + C1_TRI[1:] * max(0.0, prev[0])
            + eps[t, 1:]
        )
        y_new = np.linalg.solve(b22, rhs - B0_TRI[1:, 0] * x_new)
        z[t + 1] = np.concatenate([[x_new], y_new])
    return z[1:]


@pytest.mark.parametrize("dgp_id", [4, 5, 6])
def test_structural_pseudo_reduced_equivalence(dgp_id):
    spec = builtin_dgp(dgp_id)
    n, burn = 300, 100
    gen = np.random.default_rng(1000 + dgp_id)
    eps = np.clip(gen.standard_normal((burn + n, 3)), -3, 3)
    oracle = structural_oracle(dgp_id, eps)
    # the converted model sees xi_2 = B0^22 eps_2 in its innovation slots
    b0_22 = np.linalg.inv(B0_TRI)[1:, 1:]
    eps_pr = eps.copy()
    eps_pr[:, 1:] = eps[:, 1:] @ b0_22.T
    path = simulate(spec, n, burn_in=burn, eps=eps_pr)
    np.testing.assert_allclose(path.z, oracle[burn:], atol=1e-10)


@pytest.mark.parametrize("dgp_id", range(1, 8))
def test_builtin_dgps_stay_bounded(dgp_id):
    spec = builtin_dgp(dgp_id)
    state = np.zeros((50, spec.p, spec.d))
    gen = np.random.default_rng(dgp_id)
    sigma = np.asarray(spec.innovation.sigma)
    eps = np.clip(gen.standard_normal((50, 20_000, spec.d)), -spec.innovation.bound, spec.innovation.bound) * sigma
    paths, _ = iterate_paths(spec, state, eps)  # raises PathDivergedError on blow-up
    assert np.all(np.isfinite(paths))


def test_unstable_linear_part_warns():
    with pytest.warns(StabilityWarning, match="spectral radius"):
        ar_spec(1.1)


def test_simulate_needs_seed_or_eps():
    with pytest.raises(ValueError, match="seed or explicit innovations"):
        simulate(builtin_dgp(1), 100)


def test_linearized_drops_nonlinear_terms():
    lin = sievar.linearized(builtin_dgp(2))
    assert all(t.kind == "identity" for row in lin.impact for terms in row for t in terms)
    path_l = simulate(lin, 100, seed=3)
    assert np.isfinite(path_l.z).all()
