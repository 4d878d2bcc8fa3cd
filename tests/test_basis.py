from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sievar
from sievar.basis import (
    KnotVector,
    SievePlan,
    SpanLookup,
    block_matrix,
    block_to_full_coeffs,
    bspline_matrix,
    build_design,
    gram_diagnostics,
    knots_from_quantiles,
    span_offsets,
)
from sievar.estimator import first_stage
from sievar.model import InnovationLaw, LagPolynomial, ModelSpec, NonlinFn, iterate_paths
from sievar.study import derive_seed

from conftest import make_plan


def cox_de_boor_naive(t, degree, i, x):
    """Textbook recursive evaluation, the independent oracle."""
    if degree == 0:
        return 1.0 if t[i] <= x < t[i + 1] else 0.0
    left = 0.0
    if t[i + degree] > t[i]:
        left = (x - t[i]) / (t[i + degree] - t[i]) * cox_de_boor_naive(t, degree - 1, i, x)
    right = 0.0
    if t[i + degree + 1] > t[i + 1]:
        right = (t[i + degree + 1] - x) / (t[i + degree + 1] - t[i + 1]) * cox_de_boor_naive(
            t, degree - 1, i + 1, x
        )
    return left + right


def bspline_matrix_full_table(kv, x):
    """Cox-de Boor over every knot interval: the reference the local
    evaluator must match bit for bit."""
    x = np.clip(np.asarray(x, dtype=float), kv.lo, kv.hi)
    t = kv.knots
    m = t.size
    n = x.size
    values = np.zeros((n, m - 1))
    last = 0
    for i in range(m - 1):
        if t[i + 1] > t[i]:
            values[:, i] = (x >= t[i]) & (x < t[i + 1])
            last = i
    values[x == kv.hi, :] = 0.0
    values[x == kv.hi, last] = 1.0
    for k in range(1, kv.degree + 1):
        for i in range(m - k - 1):
            acc = np.zeros(n)
            if t[i + k] > t[i]:
                acc += (x - t[i]) / (t[i + k] - t[i]) * values[:, i]
            if t[i + k + 1] > t[i + 1]:
                acc += (t[i + k + 1] - x) / (t[i + k + 1] - t[i + 1]) * values[:, i + 1]
            values[:, i] = acc
    return values[:, : kv.dim]


KVS = [
    KnotVector(3, (0.0,), -3.0, 3.0),
    KnotVector(3, (-3.0, -1.0, 1.0, 3.0), -5.0, 5.0),
    KnotVector(2, (0.5,), 0.0, 2.0),
    KnotVector(1, (0.0,), -1.0, 1.0),
    KnotVector(0, (), 0.0, 1.0),
]


@pytest.mark.parametrize("kv", KVS)
def test_partition_of_unity_on_grid(kv):
    grid = np.linspace(kv.lo, kv.hi, 1000)
    basis = bspline_matrix(kv, grid)
    assert np.all(basis >= -1e-14)
    assert np.all(basis <= 1.0 + 1e-12)
    assert np.max(np.abs(basis.sum(axis=1) - 1.0)) < 1e-10
    assert np.all((basis > 1e-14).sum(axis=1) <= kv.degree + 1)


def test_cubic_single_knot_sums_to_one():
    kv = KnotVector(3, (0.0,), -3.0, 3.0)
    vals = bspline_matrix(kv, [0.7])[0]
    assert abs(vals.sum() - 1.0) < 1e-12


def test_degree_zero_whole_interval_indicator():
    kv = KnotVector(0, (), 0.0, 1.0)
    assert kv.dim == 1
    np.testing.assert_allclose(bspline_matrix(kv, [0.4])[0], [1.0])


def test_degree_one_hat_at_knot():
    kv = KnotVector(1, (0.0,), -1.0, 1.0)
    np.testing.assert_allclose(bspline_matrix(kv, [0.0])[0], [0.0, 1.0, 0.0], atol=1e-15)


@pytest.mark.parametrize("kv", KVS[:3])
def test_matches_naive_cox_de_boor(kv):
    t = kv.knots
    xs = np.linspace(kv.lo, kv.hi, 37)[:-1]  # naive recursion is open at the right end
    ours = bspline_matrix(kv, xs)
    for col in range(kv.dim):
        naive = np.array([cox_de_boor_naive(t, kv.degree, col, x) for x in xs])
        np.testing.assert_allclose(ours[:, col], naive, atol=1e-12)


_finite = dict(allow_nan=False, allow_infinity=False, allow_subnormal=False)


@st.composite
def clamped_knot_vectors(draw):
    lo = draw(st.floats(-10.0, 10.0, **_finite))
    hi = lo + draw(st.floats(1e-3, 20.0, **_finite))
    inside = st.floats(lo, hi, exclude_min=True, exclude_max=True, **_finite)
    interior = sorted(draw(st.lists(inside, max_size=8, unique=True)))
    # below ~1e-307 the full table's weights (x - t) / gap for functions off
    # the point's span overflow to inf, and inf * 0 puts NaN in its rows
    assume(np.min(np.diff([lo, *interior, hi])) > 1e-300)
    return KnotVector(draw(st.integers(0, 5)), tuple(interior), lo, hi)


@settings(max_examples=300, deadline=None)
@given(kv=clamped_knot_vectors(), data=st.data())
def test_local_evaluation_equals_full_table(kv, data):
    t = kv.knots
    inside = data.draw(st.lists(st.floats(kv.lo, kv.hi, **_finite), max_size=20))
    outside = [kv.lo - 1.0, kv.hi + 1.0, -np.inf, np.inf]
    x = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), outside, inside])
    ours = bspline_matrix(kv, x)
    reference = bspline_matrix_full_table(kv, x)
    np.testing.assert_array_equal(ours, reference)
    assert ours.tobytes() == reference.tobytes()  # signed zeros too
    assert np.max(np.abs(ours.sum(axis=1) - 1.0)) <= 1e-12
    assert np.all(np.count_nonzero(ours, axis=1) <= kv.degree + 1)


@pytest.mark.parametrize("kv", KVS[:4])
def test_local_support(kv):
    t = kv.knots
    grid = np.linspace(kv.lo, kv.hi, 801)
    basis = bspline_matrix(kv, grid)
    for i in range(kv.dim):
        outside = (grid < t[i] - 1e-12) | (grid > t[i + kv.degree + 1] + 1e-12)
        assert np.max(np.abs(basis[outside, i]), initial=0.0) == 0.0


@pytest.mark.parametrize("kv", KVS[:4])
def test_linear_reproduction(kv):
    if kv.degree < 1:
        pytest.skip("degree-0 basis has no linear span")
    grid = np.linspace(kv.lo, kv.hi, 500)
    basis = bspline_matrix(kv, grid)
    coef, *_ = np.linalg.lstsq(basis, grid, rcond=None)
    assert np.max(np.abs(basis @ coef - grid)) < 1e-8
    # Greville identity reproduces x exactly
    np.testing.assert_allclose(basis @ kv.greville, grid, atol=1e-10)


@pytest.mark.parametrize("kv", KVS)
def test_knot_tables_are_read_only_and_exact(kv):
    t, deg = kv.knots, kv.degree
    tables = (kv.span_knots, *kv.span_gaps, kv.greville, kv.linear_projection)
    assert not any(table.flags.writeable for table in tables)
    with pytest.raises(ValueError, match="read-only"):
        kv.greville[0] = 1.0
    assert kv.linear_projection is kv.linear_projection  # computed once
    spans = len(kv.interior) + 1
    assert len(kv.span_gaps) == deg
    for k, gaps in enumerate(kv.span_gaps, start=1):
        fresh = np.array(
            [[t[j + deg + 1 + r] - t[j + deg - k + 1 + r] for j in range(spans)] for r in range(k)]
        )
        fresh[fresh <= 0] = np.inf
        np.testing.assert_array_equal(gaps, fresh)
    if deg == 0:
        np.testing.assert_array_equal(kv.greville, 0.5 * (t[:-1] + t[1:]))
    else:
        np.testing.assert_array_equal(kv.greville, [np.mean(t[i + 1 : i + 1 + deg]) for i in range(kv.dim)])
    # projection onto {1, x} from a dense midpoint rule: Gram and cross moments
    grid = np.linspace(kv.lo, kv.hi, 200_001)
    mid = 0.5 * (grid[1:] + grid[:-1])
    lin = np.column_stack([np.ones_like(mid), mid])
    proj = np.linalg.solve(lin.T @ lin, lin.T @ bspline_matrix(kv, mid))
    np.testing.assert_allclose(kv.linear_projection, proj, rtol=0, atol=1e-8)


def test_out_of_domain_clamps(monkeypatch):
    kv = KnotVector(3, (0.0,), -3.0, 3.0)
    np.testing.assert_array_equal(bspline_matrix(kv, [5.0])[0], bspline_matrix(kv, [3.0])[0])
    np.testing.assert_array_equal(bspline_matrix(kv, [-9.0])[0], bspline_matrix(kv, [-3.0])[0])
    # the forward iteration counts clamped points per term evaluation, also
    # when the lag-1 term reuses the spans the lag-0 term found a step before
    spline = NonlinFn("spline", 1.0, kv, (0.0,) * kv.dim)
    spec = ModelSpec(
        d_y=1, p=1, mu=np.zeros(2), lags=LagPolynomial(np.zeros((1, 2, 2))),
        impact=(((spline,), (spline,)),), b0_21=np.zeros(1),
        innovation=InnovationLaw(sigma=(1.0, 1.0), bound=5.0),
    )
    xs = np.array([-4.0, 0.0, 3.5, 2.0])  # two points outside [-3, 3]
    state = np.zeros((4, 1, 2))
    state[:, 0, 0] = xs
    eps = np.zeros((4, 2, 2))
    eps[:, 0, 0] = xs  # X_0 = xs, X_1 = 0
    calls = []
    real = sievar.model.span_offsets
    monkeypatch.setattr(sievar.model, "span_offsets", lambda k, x: calls.append(k) or real(k, x))
    _, clamped = iterate_paths(spec, state, eps)
    # step 0: lag 0 at X_0, lag 1 at the state; step 1: lag 0 at X_1, lag 1 reuses X_0
    assert clamped == 2 + 2 + 0 + 2
    assert len(calls) == 3


def test_degenerate_knots_rejected():
    with pytest.raises(ValueError, match="degenerate|increasing"):
        KnotVector(3, (0.0, 0.0), -1.0, 1.0)
    with pytest.raises(ValueError, match="inside"):
        KnotVector(3, (-1.0,), -1.0, 1.0)


def test_block_columns_exclude_linear_span():
    kv = KnotVector(3, (0.0,), -3.0, 3.0)
    grid = np.linspace(-3, 3, 400)
    cols = block_matrix(kv, grid)
    assert cols.shape[1] == kv.dim - 2
    # projecting {1, x} onto the block columns leaves a large residual
    lin = np.column_stack([np.ones_like(grid), grid])
    coef, *_ = np.linalg.lstsq(cols, lin, rcond=None)
    resid = lin - cols @ coef
    assert np.min(np.linalg.norm(resid, axis=0) / np.linalg.norm(lin, axis=0)) > 0.05


def test_block_to_full_coeffs_exact():
    kv = KnotVector(3, (0.0,), -3.0, 3.0)
    rng = np.random.default_rng(3)
    cb = rng.standard_normal(kv.dim - 2)
    grid = np.linspace(-3, 3, 200)
    direct = block_matrix(kv, grid) @ cb
    full = block_to_full_coeffs(kv, cb)
    via_full = bspline_matrix(kv, grid) @ full
    np.testing.assert_allclose(via_full, direct, atol=1e-12)


def test_quantile_knots_median():
    kv = knots_from_quantiles(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 1, 3)
    assert kv.interior == (3.0,)
    assert (kv.lo, kv.hi) == (1.0, 5.0)


def test_quantile_knots_symmetry_oracle():
    gen = np.random.default_rng(11)
    sample = np.clip(gen.standard_normal(10_000), -3, 3)
    kv = knots_from_quantiles(sample, 1, 3)
    assert abs(kv.interior[0]) < 0.05


@st.composite
def zero_domain_knot_vectors(draw):
    """Clamped knot vectors on a domain around 0, no span below 1e-3 of it."""
    width = draw(st.floats(1e-2, 500.0, **_finite))
    lo = -width * draw(st.floats(0.0, 1.0, **_finite))
    hi = lo + width
    inside = st.floats(lo, hi, exclude_min=True, exclude_max=True, **_finite)
    interior = sorted(draw(st.lists(inside, max_size=8, unique=True)))
    assume(np.min(np.diff([lo, *interior, hi])) >= 1e-3 * width)
    return KnotVector(draw(st.integers(0, 5)), tuple(interior), lo, hi)


def _chebyshev_unit(degree):
    return 0.5 - 0.5 * np.cos((2 * np.arange(degree + 1) + 1) * np.pi / (2 * degree + 2))


@settings(max_examples=100, deadline=None)
@given(kv=zero_domain_knot_vectors())
def test_span_power_reproduces_basis_at_its_nodes(kv):
    power = kv.span_power
    assert not power.flags.writeable
    assert power is kv.span_power  # computed once
    deg = kv.degree
    left, right = kv.span_knots[deg], kv.span_knots[deg + 1]
    assert power.shape == (left.size, deg + 1, deg + 1)
    for j in range(left.size):
        x = left[j] + (right[j] - left[j]) * _chebyshev_unit(deg)
        powers = (x - left[j])[:, None] ** np.arange(deg + 1)
        live = bspline_matrix(kv, x)[:, j : j + deg + 1]
        np.testing.assert_allclose(powers @ power[j].T, live, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(kv=zero_domain_knot_vectors(), scale=st.floats(-5.0, 5.0, **_finite), data=st.data())
def test_span_table_matches_basis_path(kv, scale, data):
    coeffs = np.array(data.draw(st.lists(st.floats(-10.0, 10.0, **_finite), min_size=kv.dim, max_size=kv.dim)))
    term = NonlinFn("spline", scale, kv, tuple(coeffs))
    t = kv.knots
    inside = data.draw(st.lists(st.floats(kv.lo, kv.hi, **_finite), max_size=20))
    outside = [kv.lo - 1.0, kv.hi + 1.0, -np.inf, np.inf]
    x = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf), outside, inside])
    expected = scale * (bspline_matrix(kv, x) @ coeffs)
    tol = 1e-12 * (1.0 + abs(scale) * np.max(np.abs(coeffs)))
    np.testing.assert_allclose(term(x), expected, rtol=0, atol=tol)
    span, offset, n_out = span_offsets(kv, x)
    assert n_out == np.count_nonzero((x < kv.lo) | (x > kv.hi))
    assert term.from_spans(span, offset).tobytes() == term(x).tobytes()
    # NaN in gives NaN out, at every degree, and is not counted as clamped
    with_nan = np.append(x, np.nan)
    values = term(with_nan)
    assert np.isnan(values[-1]) and np.all(np.isfinite(values[:-1]))
    assert span_offsets(kv, with_nan)[2] == n_out


@settings(max_examples=80, deadline=None)
@given(
    interior=st.lists(st.floats(-4.0, 4.0, allow_subnormal=False), max_size=8, unique=True).map(sorted),
    models=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_spans_by_comparison_equal_searchsorted_oracle(interior, models, seed):
    """A point's span counts the interior knots at or below its clamped
    value: the span ``np.searchsorted(..., side="right")`` gives, for points
    on a knot or a bound, beyond the domain and NaN (the last span), with
    scalar bounds and no starts, per-model (M, 1) bounds and starts against
    (M, n) points, and per-point ones."""
    inner = np.array(interior)
    rng = np.random.default_rng(seed)
    lo = (inner[0] if inner.size else 0.0) - rng.uniform(0.01, 2.0, size=(models, 1))
    hi = (inner[-1] if inner.size else 0.0) + rng.uniform(0.01, 2.0, size=(models, 1))
    special = np.broadcast_to(np.concatenate([inner, [np.nan, -np.inf, np.inf]]), (models, inner.size + 3))
    x = np.concatenate([rng.uniform(lo - 1.0, hi + 1.0, size=(models, 20)), special, lo, hi], axis=1)
    spans = inner.size + 1
    start = np.arange(models)[:, None] * spans
    clamped = np.clip(x, lo, hi)
    expected = np.searchsorted(inner, clamped, side="right") + start
    left = np.zeros(models * spans)
    per_point = [np.broadcast_to(a, x.shape).reshape(-1) for a in (lo, hi, start)]
    for lookup, points in (
        (SpanLookup(inner, lo, hi, left, start), x),
        (SpanLookup(inner, per_point[0], per_point[1], left, per_point[2]), x.reshape(-1)),
    ):
        got_x, got_span = sievar.basis._clamp_to_spans(lookup, points)
        assert got_x.tobytes() == clamped.reshape(-1).tobytes()
        np.testing.assert_array_equal(got_span, expected.reshape(-1))
    for m in range(models):
        got_x, got_span = sievar.basis._clamp_to_spans(SpanLookup(inner, lo[m, 0], hi[m, 0], left[:spans]), x[m])
        np.testing.assert_array_equal(got_span, expected[m] - start[m])


DESIGN_PATH = sievar.simulate(sievar.builtin_dgp(2), 200, seed=13)
_DESIGN_KV = KnotVector(3, (-0.5, 0.5), float(DESIGN_PATH.x.min()), float(DESIGN_PATH.x.max()))
_DESIGN_BLOCKS = (
    None,
    _DESIGN_KV,
    KnotVector(3, (-0.5, 0.5), _DESIGN_KV.lo, _DESIGN_KV.hi),  # equal value, distinct object
    KnotVector(1, (0.0,), _DESIGN_KV.lo, _DESIGN_KV.hi),
)


@pytest.mark.parametrize("degree", [0, 1, 3])
def test_stacked_span_lookup_equals_each_knot_vector(degree):
    """One lookup of the points of knot vectors with shared interior knots,
    with per-point bounds and span starts, gives each vector's own spans,
    offsets and clamped count; NaN and out-of-domain points included."""
    interior = (-0.4, 0.3)
    kvs = [KnotVector(degree, interior, lo, hi) for lo, hi in ((-1.0, 1.0), (-0.5, 2.0), (-3.0, 0.5))]
    rng = np.random.default_rng(degree)
    xs = [np.append(rng.uniform(-4.0, 4.0, size=n), [np.nan, kv.lo, kv.hi]) for n, kv in zip((5, 9, 1), kvs)]
    sizes = [x.size for x in xs]
    spans = kvs[0].lookup.left.size
    lookup = SpanLookup(
        kvs[0].lookup.interior,
        np.repeat([kv.lo for kv in kvs], sizes),
        np.repeat([kv.hi for kv in kvs], sizes),
        np.concatenate([kv.lookup.left for kv in kvs]),
        np.repeat(np.arange(len(kvs)) * spans, sizes),
    )
    span, offset, count = span_offsets(lookup, np.concatenate(xs))
    edges = np.cumsum([0] + sizes)
    total = 0
    for m, (kv, x) in enumerate(zip(kvs, xs)):
        own_span, own_offset, own_count = span_offsets(kv, x)
        np.testing.assert_array_equal(span[edges[m] : edges[m + 1]], own_span + m * spans)
        assert offset[edges[m] : edges[m + 1]].tobytes() == own_offset.tobytes()
        total += own_count
    assert count == total > 0


@settings(max_examples=40, deadline=None)
@given(blocks=st.lists(st.sampled_from(_DESIGN_BLOCKS), min_size=1, max_size=4))
def test_shared_design_block_equals_per_lag_blocks(blocks):
    plan = SievePlan(x_blocks=tuple(blocks))
    x, y, p = DESIGN_PATH.x, DESIGN_PATH.y, plan.p
    design = build_design(plan, x, y, np.zeros(x.size), p)
    spline = sum(c.startswith("spline:") for c in design.column_labels)
    per_lag = [block_matrix(kv, x[p - j : x.size - j]) for j, kv in plan.x_terms]
    expected = np.column_stack(per_lag) if per_lag else np.zeros((x.size - p, 0))
    assert design.values[:, 1 : 1 + spline].tobytes() == expected.tobytes()


def test_quantile_knots_zero_count():
    kv = knots_from_quantiles(np.arange(10.0), 0, 3)
    assert kv.interior == ()
    assert kv.dim == 4


def test_quantile_knots_degenerate_sample():
    with pytest.raises(ValueError, match="degenerate sample"):
        knots_from_quantiles(np.array([1.0, 1.0, 1.0]), 2, 3)


def test_design_linear_plan_is_var_regressors_plus_generated(dgp2):
    path = sievar.simulate(dgp2, 120, seed=3)
    fs = first_stage(path.x, path.y, 1)
    plan = SievePlan(x_blocks=(None, None))
    design = build_design(plan, path.x, path.y, fs.residuals, 1)
    assert design.column_labels == ("intercept", "linear:x_lag1", "linear:y0_lag1", "generated")
    np.testing.assert_array_equal(design.values[:, 1], path.x[:-1])
    np.testing.assert_array_equal(design.values[:, 2], path.y[:-1, 0])
    np.testing.assert_array_equal(design.values[:, 3], fs.residuals)


def test_design_dgp1_plan_has_ten_columns(dgp2):
    path = sievar.simulate(sievar.builtin_dgp(1), 240, seed=5)
    plan = make_plan(path.x)
    assert plan.k_total(d_y=1) == 10
    fs = first_stage(path.x, path.y, 1)
    design = build_design(plan, path.x, path.y, fs.residuals, 1)
    assert design.k == 10
    assert design.n == 239


def test_design_rejects_bad_eps_length(dgp2):
    path = sievar.simulate(dgp2, 100, seed=1)
    plan = make_plan(path.x)
    with pytest.raises(ValueError, match="eps_hat of wrong length"):
        build_design(plan, path.x, path.y, np.zeros(57), 1)


def test_design_rejects_overparameterized(dgp2):
    path = sievar.simulate(dgp2, 11, seed=1)
    plan = make_plan(path.x)  # width 10 == usable rows
    with pytest.raises(ValueError, match="overparameterized sieve"):
        build_design(plan, path.x, path.y, np.zeros(10), 1)


def test_design_labels_rebuild_every_column(dgp2):
    path = sievar.simulate(dgp2, 150, seed=9)
    fs = first_stage(path.x, path.y, 1)
    plan = make_plan(path.x)
    design = build_design(plan, path.x, path.y, fs.residuals, 1)
    kv0, kv1 = plan.x_blocks
    x, y = path.x, path.y
    expected = np.column_stack(
        [np.ones(x.size - 1), block_matrix(kv0, x[1:]), block_matrix(kv1, x[:-1]),
         x[:-1], y[:-1, 0], fs.residuals]
    )
    labels = (
        ("intercept",)
        + tuple(f"spline:x_lag0:b{i}" for i in range(2, kv0.dim))
        + tuple(f"spline:x_lag1:b{i}" for i in range(2, kv1.dim))
        + ("linear:x_lag1", "linear:y0_lag1", "generated")
    )
    assert design.column_labels == labels
    np.testing.assert_array_equal(design.values, expected)


def test_gram_self_whitening_is_zero(dgp2):
    path = sievar.simulate(dgp2, 200, seed=2)
    fs = first_stage(path.x, path.y, 1)
    design = build_design(make_plan(path.x), path.x, path.y, fs.residuals, 1)
    diag = gram_diagnostics(design)
    assert diag.orthonormalized_deviation < 1e-10
    assert not diag.singular


def test_gram_intercept_only():
    diag = gram_diagnostics(np.ones((50, 1)))
    assert diag.min_eigenvalue == pytest.approx(1.0)
    assert diag.max_eigenvalue == pytest.approx(1.0)


def test_gram_singular_reports_inf():
    col = np.arange(30.0)
    diag = gram_diagnostics(np.column_stack([col, 2 * col]))
    assert diag.singular
    assert diag.orthonormalized_deviation == np.inf
    assert diag.min_eigenvalue == 0.0


def test_gram_deviation_shrinks_with_n(dgp2):
    """Whitened against a large-sample reference Gram, the deviation falls
    with the sample size (the Gram-convergence condition at work)."""
    kv = KnotVector(3, (0.0,), -6.0, 6.0)
    plan = SievePlan(x_blocks=(kv, kv))

    def design_of(n, seed):
        path = sievar.simulate(dgp2, n, seed)
        fs = first_stage(path.x, path.y, 1)
        return build_design(plan, path.x, path.y, fs.residuals, 1)

    big = design_of(100_000, 77)
    ref = big.values.T @ big.values / big.n
    devs = {n: [] for n in (240, 2400)}
    for s in range(50):
        for n in devs:
            devs[n].append(
                gram_diagnostics(design_of(n, derive_seed(8, n, s)), ref).orthonormalized_deviation
            )
    assert np.median(devs[2400]) < np.median(devs[240])
