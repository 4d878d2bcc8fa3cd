from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sievar
import sievar.model
from sievar.basis import KnotVector
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
    draw_clipped,
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


def test_draw_clipped_is_the_clipped_stream():
    shape, bound = (3, 50, 2), 1.5
    gen, twin = philox(17), philox(17)
    draws = draw_clipped(gen, shape, bound)
    expected = np.clip(twin.standard_normal(shape), -bound, bound)
    assert draws.tobytes() == expected.tobytes()
    assert np.count_nonzero(np.abs(draws) == bound) > 0
    # the generator's next draw is unchanged
    np.testing.assert_array_equal(gen.standard_normal(7), twin.standard_normal(7))
    # drawn into a buffer: the same stream, written in place
    buffer = np.full((5,) + shape[1:], np.nan)
    into = draw_clipped(gen, shape, bound, buffer[:3])
    assert np.shares_memory(into, buffer) and np.isnan(buffer[3:]).all()
    assert into.tobytes() == np.clip(twin.standard_normal(shape), -bound, bound).tobytes()


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
    # sliding windows, as estimated_irf passes them
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
