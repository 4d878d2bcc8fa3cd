"""Clamped B-spline sieve bases and regression design assembly.

A sieve block is a univariate clamped B-spline basis attached to one lag of
the structural series. Blocks of degree >= 1 are stored *linear-free*: the
raw basis is orthogonalized against {1, x} under the uniform measure on the
domain and the first two (now redundant) columns are dropped, so that the
intercept, the explicit linear lag columns and the generated-regressor
column stay identified next to the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "KnotVector",
    "SievePlan",
    "DesignMatrix",
    "GramDiagnostics",
    "bspline_matrix",
    "span_offsets",
    "knot_tables",
    "knots_from_quantiles",
    "build_design",
    "gram_diagnostics",
]


@dataclass(frozen=True)
class KnotVector:
    """Clamped (open-uniform) knot configuration for one spline block.

    Its tables (``span_knots``, ``span_gaps``, ``span_power``, ``greville``
    and ``linear_projection``) are computed on first use, once per object,
    or filled in by a group's ``knot_tables`` pass, with the same bits; they
    are read-only arrays, and so is ``lookup``, a view of two of their rows.
    """

    degree: int
    interior: tuple[float, ...]
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if not np.isfinite(self.lo) or not np.isfinite(self.hi) or self.lo >= self.hi:
            raise ValueError("domain must be a finite interval [a, b] with a < b")
        interior = tuple(float(k) for k in self.interior)
        object.__setattr__(self, "interior", interior)
        if any(not np.isfinite(k) for k in interior):
            raise ValueError("interior knots must be finite")
        if any(k2 <= k1 for k1, k2 in zip(interior, interior[1:])):
            raise ValueError("degenerate knot vector: interior knots must be strictly increasing")
        if interior and (interior[0] <= self.lo or interior[-1] >= self.hi):
            raise ValueError("interior knots must lie strictly inside the domain")

    @property
    def dim(self) -> int:
        """Number of basis functions: #interior + degree + 1."""
        return len(self.interior) + self.degree + 1

    @property
    def knots(self) -> np.ndarray:
        """Full knot vector with boundary knots replicated degree+1 times."""
        return np.concatenate(
            [
                np.full(self.degree + 1, self.lo),
                np.asarray(self.interior, dtype=float),
                np.full(self.degree + 1, self.hi),
            ]
        )

    @cached_property
    def span_knots(self) -> np.ndarray:
        """(2*degree + 2, #interior + 1) table: column j holds the knots that
        define the degree+1 basis functions nonzero on the j-th knot span."""
        return _span_rows((self,))[1][:, 0]

    @cached_property
    def lookup(self) -> "SpanLookup":
        """The interior knots, bounds and left knot of each span, as
        ``span_offsets`` reads them."""
        deg = self.degree
        return SpanLookup(self.span_knots[deg + 1, :-1], self.lo, self.hi, self.span_knots[deg])

    @cached_property
    def span_gaps(self) -> tuple[np.ndarray, ...]:
        """Per recursion level k = 1..degree, the (k, #interior + 1) knot gaps
        t_{i+k} - t_i of the level-(k-1) functions live on each span, with a
        zero-width gap stored as inf so its Cox-de Boor term is exactly +0."""
        return _span_gaps(self.span_knots, self.degree)

    @cached_property
    def _tables(self) -> "KnotTables":
        """The tables below, a group of one of ``knot_tables`` unless a
        group's pass filled them in first."""
        return _group_tables((self,)).row(0)

    @property
    def span_power(self) -> np.ndarray:
        """(#interior + 1, degree + 1, degree + 1) pp-form table: entry
        [j, r, m] is the coefficient of (x - t_j)^m, with t_j the left knot of
        span j, in the r-th basis function live on span j (basis index j + r).
        """
        return self._tables.power

    @property
    def greville(self) -> np.ndarray:
        """Greville abscissae; the identity map is x = sum_i greville_i * b_i(x)."""
        return self._tables.greville

    @property
    def linear_projection(self) -> np.ndarray:
        """L2(uniform[lo,hi]) projection of each basis function onto {1, x}:
        a (2, dim) array of (alpha_i, beta_i) with proj b_i = alpha_i + beta_i * x."""
        return self._tables.projection


class KnotTables(NamedTuple):
    """The tables of R knot vectors of one degree and one set of interior
    knots, stacked (``knot_tables``); ``row(r)`` is knot vector r's own.
    ``knots`` is (2*degree + 2, R, #spans) and each level of ``gaps``
    (k, R, #spans), so that reshaped to R * #spans columns they serve one
    Cox-de Boor pass over every vector's points; ``lookup`` locates those
    points in one pass of ``span_offsets``, its bounds and span starts (R, 1)."""

    knots: np.ndarray
    gaps: tuple[np.ndarray, ...]
    power: np.ndarray  # (R, #spans, degree + 1, degree + 1)
    greville: np.ndarray  # (R, dim)
    projection: np.ndarray  # (R, 2, dim)
    lookup: "SpanLookup"

    @property
    def flat(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """``knots`` and ``gaps`` with one column per (vector, span)."""
        cols = self.knots.shape[1] * self.knots.shape[2]
        return self.knots.reshape(-1, cols), tuple(g.reshape(-1, cols) for g in self.gaps)

    def row(self, r: int) -> "KnotTables":
        return KnotTables(
            self.knots[:, r], tuple(g[:, r] for g in self.gaps), self.power[r], self.greville[r],
            self.projection[r], None,
        )


def knot_tables(kvs) -> KnotTables:
    """The tables of knot vectors that share their degree and interior knots,
    computed in one vectorised pass; each vector without tables of its own
    takes its row. Every step is elementwise or one LAPACK call per vector,
    so a vector's tables have the same bits in any group, alone included."""
    tables = _group_tables(tuple(kvs))
    for r, kv in enumerate(kvs):
        if "_tables" not in kv.__dict__:
            row = tables.row(r)
            for name, table in (("span_knots", row.knots), ("span_gaps", row.gaps), ("_tables", row)):
                kv.__dict__.setdefault(name, table)
    return tables


def _span_rows(kvs: tuple[KnotVector, ...]) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """The (R, dim + degree + 1) full knot vectors of knot vectors of one
    degree and one set of interior knots, their span knots and their gaps,
    read-only and laid out as in ``KnotTables``."""
    first = kvs[0]
    deg, inner = first.degree, first.interior
    if any(kv.degree != deg or kv.interior != inner for kv in kvs):
        raise ValueError("a group's knot vectors must share their degree and interior knots")
    t = np.empty((len(kvs), len(inner) + 2 * deg + 2))
    t[:, : deg + 1] = np.array([kv.lo for kv in kvs])[:, None]
    t[:, deg + 1 : deg + 1 + len(inner)] = inner
    t[:, deg + 1 + len(inner) :] = np.array([kv.hi for kv in kvs])[:, None]
    # row i of span j's column is knot j + i
    windows = t[:, np.arange(2 * deg + 2)[:, None] + np.arange(len(inner) + 1)]
    knots = _read_only(np.ascontiguousarray(windows.swapaxes(0, 1)))
    return _read_only(t), knots, _span_gaps(knots, deg)


def _span_gaps(knots: np.ndarray, deg: int) -> tuple[np.ndarray, ...]:
    """Per level k = 1..deg the gaps of a span-knot table (``span_gaps``)."""
    gaps = []
    for k in range(1, deg + 1):
        gap = knots[deg + 1 : deg + k + 1] - knots[deg - k + 1 : deg + 1]
        gap[~(gap > 0)] = np.inf
        gaps.append(_read_only(gap))
    return tuple(gaps)


def _group_tables(kvs: tuple[KnotVector, ...]) -> KnotTables:
    t, knots, gaps = _span_rows(kvs)
    first = kvs[0]
    deg, inner = first.degree, np.asarray(first.interior, dtype=float)
    count, spans, dim = len(kvs), inner.size + 1, first.dim
    lo, hi = t[:, 0], t[:, -1]
    flat = knots.reshape(2 * deg + 2, -1), [g.reshape(k, -1) for k, g in enumerate(gaps, start=1)]
    left = knots[deg]
    width = knots[deg + 1] - left

    # one Cox-de Boor pass at each span's degree+1 Chebyshev points (for the
    # pp-form) and degree+2 Gauss-Legendre nodes (for the projection), as
    # fractions of the span; each point lies inside its own span
    unit = 0.5 - 0.5 * np.cos((2 * np.arange(deg + 1) + 1) * np.pi / (2 * deg + 2))
    nodes, weights = _gauss_legendre(deg + 2)
    fractions = np.concatenate([unit, 0.5 + 0.5 * nodes])
    points = left[..., None] + width[..., None] * fractions
    cols = np.repeat(np.arange(count * spans), fractions.size)
    live = _cox_de_boor(*flat, cols, points.reshape(-1)).reshape((deg + 1,) + points.shape)

    # On each span the live functions are one polynomial each (de Boor, A
    # Practical Guide to Splines, 1978). They are interpolated at the
    # Chebyshev points, solved on the unit interval at the offsets the
    # rounded points really have, and coefficient m is divided by width^m.
    unit_offsets = (points[..., : deg + 1] - left[..., None]) / width[..., None]
    vandermonde = unit_offsets[..., None] ** np.arange(deg + 1)
    power = np.linalg.solve(vandermonde, live[..., : deg + 1].transpose(1, 2, 3, 0))
    power /= (width[..., None] ** np.arange(deg + 1))[..., None]
    power = np.ascontiguousarray(power.swapaxes(-1, -2))

    if deg == 0:
        greville = 0.5 * (t[:, :-1] + t[:, 1:])
    else:
        # the mean of knots i+1 .. i+deg
        greville = t[:, np.arange(1, dim + 1)[:, None] + np.arange(deg)].mean(axis=-1)

    # projection onto {1, x}: Gauss-Legendre per knot span is exact for
    # piecewise polynomials; the weights w, w x and w x^2 at each node
    wq = 0.5 * width[..., None] * weights
    xq = points[..., deg + 1 :]
    weighted = np.stack([wq, wq * xq, wq * xq * xq])
    # each live function's moments against 1 and x on its span
    moments = (weighted[:2, None] * live[..., deg + 1 :]).sum(axis=-1)
    cross = np.zeros((2, count, dim))
    for r in range(deg + 1):
        cross[:, :, r : r + spans] += moments[:, r]
    sums = weighted.reshape(3, count, -1).sum(axis=-1)
    gram = sums[[0, 1, 1, 2]].T.reshape(count, 2, 2)
    projection = np.linalg.solve(gram, cross.transpose(1, 0, 2))

    starts = (np.arange(count) * spans)[:, None]
    lookup = SpanLookup(_read_only(inner), lo[:, None], hi[:, None], left.reshape(-1), starts)
    return KnotTables(knots, gaps, _read_only(power), _read_only(greville), _read_only(projection), lookup)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per count."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return _read_only(nodes), _read_only(weights)


class SpanLookup(NamedTuple):
    """What ``span_offsets`` reads to locate points in knot spans: the
    interior knots, the domain bounds, the left knot of each span, and the
    row of ``left`` at which a point's spans start. For one knot vector
    (``KnotVector.lookup``) the bounds are scalars and ``start`` is None. The
    points of several knot vectors with the same interior knots are located
    in one call with per-point bounds and starts, their left knots stacked
    in ``left``."""

    interior: np.ndarray
    lo: float | np.ndarray
    hi: float | np.ndarray
    left: np.ndarray
    start: np.ndarray | None = None


def _clamp_to_spans(lookup: SpanLookup, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened x clamped to the domain, and each point's knot span. The
    bounds and span starts broadcast against x before it is flattened."""
    x = np.clip(np.asarray(x, dtype=float), lookup.lo, lookup.hi)
    # span j runs from interior knot j-1 to interior knot j, so a point's span
    # is the last, less one per knot above it (x = hi and NaN stay in the
    # last); for a sieve's few knots this beats a bisection
    span = np.full(x.shape, lookup.interior.size)
    if lookup.start is not None:
        span += lookup.start
    for knot in lookup.interior:
        span -= x < knot
    return x.reshape(-1), span.reshape(-1)


def span_offsets(knots: KnotVector | SpanLookup, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Each point's knot span, its offset from the span's left knot, and the
    count of points outside the domain, clamped as in ``bspline_matrix``.

    ``x`` is flattened. NaN stays NaN in the offset and is not counted.
    """
    lookup = knots.lookup if isinstance(knots, KnotVector) else knots
    x = np.asarray(x, dtype=float)
    clamped, span = _clamp_to_spans(lookup, x)
    offset = clamped - lookup.left.take(span)
    return span, offset, int(np.count_nonzero((x < lookup.lo) | (x > lookup.hi)))


def _cox_de_boor(t: np.ndarray, gaps, span: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The (degree + 1, n) values at clamped points ``x`` of the degree+1
    basis functions live on their spans: ``t`` is a span-knot table, ``gaps``
    its per-level gaps and ``span`` each point's column of them."""
    deg = len(gaps)
    n = x.size
    live = np.ones((1, n))
    # each level gathers only its own knot rows and works in place, so that a
    # call's temporaries stay small enough for the heap to reuse them
    for k in range(1, deg + 1):
        # live[r] is the level-(k-1) function whose first knot is t[deg-k+1+r]
        lo = t[deg - k + 1 : deg + 1].take(span, axis=1)
        hi = t[deg + 1 : deg + k + 1].take(span, axis=1)
        # a zero-width gap is inf, so its term is exactly +0 (numerators are
        # >= 0 on the span), as if skipped like the full recursion skips it
        gap = gaps[k - 1].take(span, axis=1)
        new = np.empty((k + 1, n))
        np.subtract(hi, x, out=new[:k])
        del hi
        new[:k] /= gap
        new[:k] *= live
        new[k] = 0.0
        np.subtract(x, lo, out=lo)
        lo /= gap
        lo *= live
        new[1:] += lo
        live = new
    return live


def bspline_matrix(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at each point; out-of-domain x is clamped.

    Returns an (n, dim) matrix; rows sum to one and have at most degree+1
    nonzero entries. Only those entries are computed: each point's knot span
    is found by comparison with each interior knot and the Cox-de Boor
    recursion runs over the degree+1 functions live on it (de Boor, A
    Practical Guide to Splines, 1978), with the same arithmetic as the
    recursion over every function, so the matrix is the same to the last
    bit.
    """
    x, span = _clamp_to_spans(kv.lookup, x)
    live = _cox_de_boor(kv.span_knots, kv.span_gaps, span, x)
    n = x.size
    values = np.zeros((n, kv.dim))
    flat = values.reshape(-1)
    first = span + kv.dim * np.arange(n)
    for r in range(kv.degree + 1):
        flat[first + r] = live[r]
    return values


def block_width(kv: KnotVector) -> int:
    """Design columns contributed by one block after identification drops."""
    return max(kv.dim - (2 if kv.degree >= 1 else 1), 0)


def _block_rows(tables: KnotTables, x: np.ndarray) -> np.ndarray:
    """The (R, block width, n) design rows of the blocks of R knot vectors
    with ``tables`` at the (R, n) samples ``x``: one span lookup and one
    Cox-de Boor pass for all of them. Degree >= 1 rows are the linear-free
    basis b_i(x) - alpha_i - beta_i * x; degree 0 drops the first
    indicator."""
    deg, dim = len(tables.gaps), tables.greville.shape[-1]
    count, n = x.shape
    clamped, span = _clamp_to_spans(tables.lookup, x)
    live = _cox_de_boor(*tables.flat, span, clamped)
    if deg == 0:
        rows = np.zeros((count, dim, n))
    else:
        # -(alpha_i + beta_i x) for every function, the two dropped ones too
        ab = tables.projection[..., None]
        rows = np.multiply(clamped.reshape(count, 1, n), ab[:, 1])
        rows += ab[:, 0]
        np.negative(rows, out=rows)
    flat = rows.reshape(-1)
    # point t of vector r in its span s adds live function i to row s + i of
    # rows[r], and span = r * #spans + s with #spans = dim - degree
    first = ((span.reshape(count, n) + deg * np.arange(count)[:, None]) * n + np.arange(n)).reshape(-1)
    for i in range(deg + 1):
        flat[first + i * n] += live[i]
    return rows[:, 2 if deg else 1 :]


def basis_rows(tables: KnotTables, x: np.ndarray) -> np.ndarray:
    """The (R, dim) basis values of the R knot vectors of ``tables`` at one
    (R, 1) point each, clamped."""
    count, dim = tables.greville.shape
    clamped, span = _clamp_to_spans(tables.lookup, x)
    live = _cox_de_boor(*tables.flat, span, clamped)
    rows = np.zeros((count, dim))
    first = span - tables.lookup.start[:, 0]
    rows[np.arange(count)[:, None], first[:, None] + np.arange(live.shape[0])] = live.T
    return rows


def block_matrix(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """Design columns of one block: linear-free basis for degree >= 1.

    Degree-0 blocks only drop the first indicator (no linear span to remove).
    """
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return _block_rows(knot_tables((kv,)), x)[0].T


def _full_coeffs(
    degree: int, greville: np.ndarray, projection: np.ndarray, block_coeffs: np.ndarray
) -> np.ndarray:
    """Full-basis coefficients (..., dim) of block coefficients (..., width),
    with ``greville`` (..., dim) and ``projection`` (..., 2, dim) broadcasting
    against them. Elementwise but for sums along the last axis."""
    full = np.zeros(block_coeffs.shape[:-1] + (greville.shape[-1],))
    if degree == 0:
        full[..., 1:] = block_coeffs
        return full
    full[..., 2:] = block_coeffs
    const = np.sum(projection[..., 0, 2:] * block_coeffs, axis=-1)
    slope = np.sum(projection[..., 1, 2:] * block_coeffs, axis=-1)
    full -= const[..., None]
    full -= slope[..., None] * greville
    return full


def block_to_full_coeffs(kv: KnotVector, block_coeffs: np.ndarray) -> np.ndarray:
    """Exact conversion of block-column coefficients to full-basis coefficients.

    The fitted block function sum_i c_i * btilde_i(x) equals a spline in the
    raw clamped basis because 1 = sum_k b_k and x = sum_k greville_k * b_k.
    """
    block_coeffs = np.asarray(block_coeffs, dtype=float)
    return _full_coeffs(kv.degree, kv.greville, kv.linear_projection, block_coeffs)


def knots_from_quantiles(sample: np.ndarray, count: int, degree: int) -> KnotVector:
    """Interior knots at the `count` equally spaced empirical quantiles.

    Levels are i/(count+1) for i = 1..count with linear interpolation between
    order statistics; the domain is the sample range.
    """
    sample = np.asarray(sample, dtype=float)
    if count < 0:
        raise ValueError("count must be non-negative")
    distinct = np.unique(sample)
    if distinct.size < count + 2:
        raise ValueError("degenerate sample: need at least count + 2 distinct values")
    lo, hi = float(sample.min()), float(sample.max())
    if count == 0:
        return KnotVector(degree=degree, interior=(), lo=lo, hi=hi)
    levels = np.arange(1, count + 1) / (count + 1)
    interior = np.quantile(sample, levels)
    if interior[0] <= lo or interior[-1] >= hi or np.any(np.diff(interior) <= 0):
        raise ValueError("degenerate sample: quantile knots collide with the domain boundary")
    return KnotVector(degree=degree, interior=tuple(float(k) for k in interior), lo=lo, hi=hi)


@dataclass(frozen=True)
class SievePlan:
    """Stage-II regressor layout: one optional spline block per lag of X.

    ``x_blocks[j]`` is the block for lag j (j = 0..p); ``None`` leaves that
    lag linear-only. Columns are ordered
    [intercept | blocks by lag | linear X lags 1..p | linear Y lags | generated].
    """

    x_blocks: tuple[KnotVector | None, ...]

    # sieve designs always carry the linear X lags next to the blocks
    x_lags_linear = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "x_blocks", tuple(self.x_blocks))
        if not self.x_blocks:
            raise ValueError("plan must cover at least lag 0 of X")

    @property
    def p(self) -> int:
        return len(self.x_blocks) - 1

    @property
    def x_terms(self) -> tuple[tuple[int, KnotVector], ...]:
        """(lag, block) pairs of the nonlinear X columns, in column order."""
        return tuple((j, kv) for j, kv in enumerate(self.x_blocks) if kv is not None)

    def k_total(self, d_y: int) -> int:
        """Total design width for a given Y dimension."""
        spline = sum(block_width(kv) for _, kv in self.x_terms)
        return 1 + spline + self.p + self.p * d_y + 1


@dataclass(frozen=True)
class DesignMatrix:
    """Feasible stage-II regressor matrix with per-column provenance labels."""

    values: np.ndarray
    column_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.values.shape[1] != len(self.column_labels):
            raise ValueError("labels must match design columns")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("design matrix contains non-finite entries")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def design_labels(layout, p: int, d_y: int) -> tuple[str, ...]:
    """Column labels of ``layout``'s stage-II design, in column order."""
    labels = ["intercept"]
    for idx, (j, term) in enumerate(layout.x_terms):
        if isinstance(term, KnotVector):
            start = term.dim - block_width(term)
            labels += [f"spline:x_lag{j}:b{i}" for i in range(start, term.dim)]
        else:
            labels.append(f"term{idx}:{term.kind}:x_lag{j}")
    if layout.x_lags_linear:
        labels += [f"linear:x_lag{j}" for j in range(1, p + 1)]
    for j in range(1, p + 1):
        labels += [f"linear:y{m}_lag{j}" for m in range(d_y)]
    labels.append("generated")
    return tuple(labels)


def check_design(layout, n: int, p: int, d_y: int) -> None:
    """Raise ``ValueError`` for a design that ``layout`` cannot give on a
    sample of ``n`` observations: a term lag above ``p``, no usable row, or
    as many columns as usable rows."""
    if any(j > p for j, _ in layout.x_terms):
        raise ValueError(f"transform lag exceeds the model lag order p = {p}")
    if n <= p:
        raise ValueError("need more than p observations")
    if len(design_labels(layout, p, d_y)) >= n - p:
        raise ValueError("overparameterized sieve: K_total must be below the usable sample size")


def _layout_key(layout) -> tuple:
    terms = tuple(
        (j, (term.degree, term.interior) if isinstance(term, KnotVector) else term)
        for j, term in layout.x_terms
    )
    return layout.x_lags_linear, terms


def layout_tables(layouts) -> list[KnotTables | None]:
    """Per x term of a group's layouts, which may differ only in their knot
    bounds, the ``knot_tables`` of the group's knot vectors for that term
    (None for a transform); a column of knot vectors that several lags
    share is tabled once."""
    first = _layout_key(layouts[0])
    if any(_layout_key(layout) != first for layout in layouts[1:]):
        raise ValueError("a group's layouts may differ only in their knot bounds")
    tables: dict[tuple, KnotTables] = {}
    out: list[KnotTables | None] = []
    for idx, (_, term) in enumerate(layouts[0].x_terms):
        if isinstance(term, KnotVector):
            kvs = tuple(layout.x_terms[idx][1] for layout in layouts)
            if kvs not in tables:
                tables[kvs] = knot_tables(kvs)
            out.append(tables[kvs])
        else:
            out.append(None)
    return out


def regression_rows(layouts, tables, x: np.ndarray, y: np.ndarray, p: int, tail) -> np.ndarray:
    """The regressions of R samples as one (R, rows, n - p) C-ordered array,
    so that each sample's block, transposed, reaches LAPACK in Fortran
    order: per sample the rows of ``build_design``'s columns before the
    generated one, over times t = p+1..n, then the (R, m, n - p) arrays of
    ``tail`` (the generated row and the responses). ``x`` is (R, n), ``y``
    (R, d_y, n), and ``tables`` is ``layout_tables(layouts)``. A block or
    transform is evaluated once over the whole sample and lag j takes
    times p-j .. n-j-1 of it. Every row is elementwise in the samples, so
    a sample's rows have the same bits in any group."""
    layout = layouts[0]
    count, n = x.shape
    d_y = y.shape[1]
    head = 1 + sum(1 if tab is None else block_width(term) for (_, term), tab in zip(layout.x_terms, tables))
    head += (p if layout.x_lags_linear else 0) + p * d_y
    out = np.empty((count, head + sum(part.shape[1] for part in tail), n - p))
    out[:, 0] = 1.0
    row = 1
    # each transform or block is evaluated once over the whole sample
    blocks: dict = {}
    for (j, term), tab in zip(layout.x_terms, tables):
        key = term if tab is None else id(tab)
        if key not in blocks:
            blocks[key] = term(x)[:, None] if tab is None else _block_rows(tab, x)
        block = blocks[key]
        out[:, row : row + block.shape[1]] = block[:, :, p - j : n - j]
        row += block.shape[1]
    if layout.x_lags_linear:
        for j in range(1, p + 1):
            out[:, row] = x[:, p - j : n - j]
            row += 1
    for j in range(1, p + 1):
        out[:, row : row + d_y] = y[:, :, p - j : n - j]
        row += d_y
    for part in tail:
        out[:, row : row + part.shape[1]] = part
        row += part.shape[1]
    return out


def build_design(
    layout,
    x_path: np.ndarray,
    y_path: np.ndarray,
    eps_hat: np.ndarray,
    p: int | None = None,
) -> DesignMatrix:
    """Assemble the feasible stage-II design over rows t = p+1..n.

    ``layout`` is a ``SievePlan`` or a ``ParametricForm``: its ``x_terms``
    are (lag, KnotVector | NonlinFn) pairs, a knot vector contributing a
    spline block and a transform one column, and ``x_lags_linear`` says
    whether the linear X lags 1..p enter. ``p`` defaults to ``layout.p``.
    ``eps_hat`` may have length n (sliced to the usable rows) or n - p.
    The values are a group of one of ``regression_rows``, in Fortran order.
    """
    x = np.asarray(x_path, dtype=float)
    y = np.asarray(y_path, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if p is None:
        p = layout.p
    n = x.size
    if y.shape[0] != n:
        raise ValueError("X and Y paths must have equal length")
    check_design(layout, n, p, y.shape[1])
    eps_hat = np.asarray(eps_hat, dtype=float)
    if eps_hat.size == n:
        eps_hat = eps_hat[p:]
    elif eps_hat.size != n - p:
        raise ValueError(f"eps_hat of wrong length: {eps_hat.size}, expected {n} or {n - p}")
    tail = (eps_hat.reshape(1, 1, -1),)
    values = regression_rows([layout], layout_tables([layout]), x[None], y.T[None], p, tail)
    return DesignMatrix(values=values[0].T, column_labels=design_labels(layout, p, y.shape[1]))


@dataclass(frozen=True)
class GramDiagnostics:
    min_eigenvalue: float
    max_eigenvalue: float
    orthonormalized_deviation: float
    singular: bool


def gram_diagnostics(
    design: DesignMatrix | np.ndarray, reference: np.ndarray | None = None
) -> GramDiagnostics:
    """Eigenvalue range of B'B/n and the whitened deviation ||R^-1/2 (B'B/n) R^-1/2 - I||.

    ``reference`` is the second-moment matrix used for whitening; the default
    is the sample Gram itself, for which the deviation is identically zero.
    An exactly singular reference yields deviation +inf instead of raising.
    """
    values = design.values if isinstance(design, DesignMatrix) else np.asarray(design, dtype=float)
    if values.size == 0:
        raise ValueError("empty design")
    n = values.shape[0]
    gram = values.T @ values / n
    eigs = np.linalg.eigvalsh(gram)
    min_eig, max_eig = float(eigs[0]), float(eigs[-1])
    ref = gram if reference is None else np.asarray(reference, dtype=float)
    ref_eigs, ref_vecs = np.linalg.eigh(ref)
    tol = 1e-12 * max(ref_eigs[-1], 0.0)
    singular = bool(ref_eigs[0] <= tol)
    if singular:
        return GramDiagnostics(max(min_eig, 0.0) if min_eig > tol else 0.0, max_eig, np.inf, True)
    whiten = ref_vecs @ np.diag(ref_eigs**-0.5) @ ref_vecs.T
    dev = np.linalg.norm(whiten @ gram @ whiten - np.eye(gram.shape[0]), ord=2)
    return GramDiagnostics(min_eig, max_eig, float(dev), False)
