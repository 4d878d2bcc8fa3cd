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

import numpy as np

__all__ = [
    "KnotVector",
    "SievePlan",
    "DesignMatrix",
    "GramDiagnostics",
    "bspline_matrix",
    "span_offsets",
    "knots_from_quantiles",
    "build_design",
    "gram_diagnostics",
]


@dataclass(frozen=True)
class KnotVector:
    """Clamped (open-uniform) knot configuration for one spline block.

    Its tables (``span_knots``, ``span_gaps``, ``span_power``, ``greville``
    and ``linear_projection``) are computed on first use, once per object,
    and are read-only arrays.
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
        width = 2 * self.degree + 2
        return _read_only(np.lib.stride_tricks.sliding_window_view(self.knots, width).T.copy())

    @cached_property
    def span_gaps(self) -> tuple[np.ndarray, ...]:
        """Per recursion level k = 1..degree, the (k, #interior + 1) knot gaps
        t_{i+k} - t_i of the level-(k-1) functions live on each span, with a
        zero-width gap stored as inf so its Cox-de Boor term is exactly +0."""
        t, deg = self.span_knots, self.degree
        gaps = []
        for k in range(1, deg + 1):
            gap = t[deg + 1 : deg + k + 1] - t[deg - k + 1 : deg + 1]
            gap[~(gap > 0)] = np.inf
            gaps.append(_read_only(gap))
        return tuple(gaps)

    @cached_property
    def span_power(self) -> np.ndarray:
        """(#interior + 1, degree + 1, degree + 1) pp-form table: entry
        [j, r, m] is the coefficient of (x - t_j)^m, with t_j the left knot of
        span j, in the r-th basis function live on span j (basis index j + r).

        On each span the live functions are one polynomial each (de Boor, A
        Practical Guide to Splines, 1978). They are interpolated at degree+1
        Chebyshev points inside the span, solved on the unit interval, and
        coefficient m is divided by width^m.
        """
        deg = self.degree
        left, right = self.span_knots[deg], self.span_knots[deg + 1]
        width = right - left
        spans = width.size
        # interior points of the unit interval, so each lies in its own span
        unit = 0.5 - 0.5 * np.cos((2 * np.arange(deg + 1) + 1) * np.pi / (2 * deg + 2))
        points = left[:, None] + width[:, None] * unit
        basis = bspline_matrix(self, points).reshape(spans, deg + 1, -1)
        live = np.stack([basis[j, :, j : j + deg + 1] for j in range(spans)])
        # solve at the offsets the rounded points really have, as fractions of the width
        unit_offsets = (points - left[:, None]) / width[:, None]
        power = np.linalg.solve(unit_offsets[:, :, None] ** np.arange(deg + 1), live)
        power /= (width[:, None] ** np.arange(deg + 1))[:, :, None]
        return _read_only(np.ascontiguousarray(power.swapaxes(1, 2)))

    @cached_property
    def greville(self) -> np.ndarray:
        """Greville abscissae; the identity map is x = sum_i greville_i * b_i(x)."""
        t = self.knots
        if self.degree == 0:
            return _read_only(0.5 * (t[:-1] + t[1:]))
        return _read_only(np.array([t[i + 1 : i + 1 + self.degree].mean() for i in range(self.dim)]))

    @cached_property
    def linear_projection(self) -> np.ndarray:
        """L2(uniform[lo,hi]) projection of each basis function onto {1, x}.

        A (2, dim) array of (alpha_i, beta_i) with proj b_i = alpha_i + beta_i * x.
        Gauss-Legendre per knot span is exact for piecewise polynomials.
        """
        nodes, weights = _gauss_legendre(self.degree + 2)
        spans = np.concatenate([[self.lo], np.asarray(self.interior), [self.hi]])
        xs, ws = [], []
        for a, b in zip(spans[:-1], spans[1:]):
            xs.append(0.5 * (b - a) * nodes + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * weights)
        xq = np.concatenate(xs)
        wq = np.concatenate(ws)
        basis = bspline_matrix(self, xq)
        lin = np.column_stack([np.ones_like(xq), xq])
        gram = (lin * wq[:, None]).T @ lin
        cross = (lin * wq[:, None]).T @ basis
        return _read_only(np.linalg.solve(gram, cross))


def _read_only(table: np.ndarray) -> np.ndarray:
    table.flags.writeable = False
    return table


@cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], once per count."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    return _read_only(nodes), _read_only(weights)


def _clamp_to_spans(kv: KnotVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flattened x clamped to the domain, and each point's knot span."""
    x = np.clip(np.asarray(x, dtype=float), kv.lo, kv.hi).reshape(-1)
    # span j runs from interior knot j-1 to interior knot j (the right knots of
    # all spans but the last); x = hi falls in the last
    return x, np.searchsorted(kv.span_knots[kv.degree + 1, :-1], x, side="right")


def span_offsets(kv: KnotVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Each point's knot span, its offset from the span's left knot, and the
    count of points outside the domain, clamped as in ``bspline_matrix``.

    ``x`` is flattened. NaN stays NaN in the offset and is not counted.
    """
    x = np.asarray(x, dtype=float)
    clamped, span = _clamp_to_spans(kv, x)
    offset = clamped - kv.span_knots[kv.degree].take(span)
    return span, offset, int(np.count_nonzero((x < kv.lo) | (x > kv.hi)))


def bspline_matrix(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """Evaluate all basis functions at each point; out-of-domain x is clamped.

    Returns an (n, dim) matrix; rows sum to one and have at most degree+1
    nonzero entries. Only those entries are computed: each point's knot span
    is found by bisection and the Cox-de Boor recursion runs over the
    degree+1 functions live on it (de Boor, A Practical Guide to Splines,
    1978), with the same arithmetic as the recursion over every function,
    so the matrix is the same to the last bit.
    """
    x, span = _clamp_to_spans(kv, x)
    deg = kv.degree
    n = x.size
    t = kv.span_knots
    live = np.ones((1, n))
    # each level gathers only its own knot rows and works in place, so that a
    # call's temporaries stay small enough for the heap to reuse them
    for k in range(1, deg + 1):
        # live[r] is the level-(k-1) function whose first knot is t[deg-k+1+r]
        lo = t[deg - k + 1 : deg + 1].take(span, axis=1)
        hi = t[deg + 1 : deg + k + 1].take(span, axis=1)
        # a zero-width gap is inf, so its term is exactly +0 (numerators are
        # >= 0 on the span), as if skipped like the full recursion skips it
        gap = kv.span_gaps[k - 1].take(span, axis=1)
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
    values = np.zeros((n, kv.dim))
    flat = values.reshape(-1)
    first = span + kv.dim * np.arange(n)
    for r in range(deg + 1):
        flat[first + r] = live[r]
    return values


def block_width(kv: KnotVector) -> int:
    """Design columns contributed by one block after identification drops."""
    return max(kv.dim - (2 if kv.degree >= 1 else 1), 0)


def block_matrix(kv: KnotVector, x: np.ndarray) -> np.ndarray:
    """Design columns of one block: linear-free basis for degree >= 1.

    Degree-0 blocks only drop the first indicator (no linear span to remove).
    """
    raw = bspline_matrix(kv, x)
    if kv.degree == 0:
        return raw[:, 1:]
    ab = kv.linear_projection
    xc = np.clip(np.asarray(x, dtype=float), kv.lo, kv.hi)
    centered = raw - ab[0][None, :] - xc[:, None] * ab[1][None, :]
    return centered[:, 2:]


def block_to_full_coeffs(kv: KnotVector, block_coeffs: np.ndarray) -> np.ndarray:
    """Exact conversion of block-column coefficients to full-basis coefficients.

    The fitted block function sum_i c_i * btilde_i(x) equals a spline in the
    raw clamped basis because 1 = sum_k b_k and x = sum_k greville_k * b_k.
    """
    block_coeffs = np.asarray(block_coeffs, dtype=float)
    full = np.zeros(kv.dim)
    if kv.degree == 0:
        full[1:] = block_coeffs
        return full
    ab = kv.linear_projection
    full[2:] = block_coeffs
    const = float(ab[0, 2:] @ block_coeffs)
    slope = float(ab[1, 2:] @ block_coeffs)
    full -= const
    full -= slope * kv.greville
    return full


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
    """
    x = np.asarray(x_path, dtype=float)
    y = np.asarray(y_path, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if p is None:
        p = layout.p
    if any(j > p for j, _ in layout.x_terms):
        raise ValueError(f"transform lag exceeds the model lag order p = {p}")
    n = x.size
    if y.shape[0] != n:
        raise ValueError("X and Y paths must have equal length")
    if n <= p:
        raise ValueError("need more than p observations")
    eps_hat = np.asarray(eps_hat, dtype=float)
    if eps_hat.size == n:
        eps_hat = eps_hat[p:]
    elif eps_hat.size != n - p:
        raise ValueError(f"eps_hat of wrong length: {eps_hat.size}, expected {n} or {n - p}")

    cols: list[np.ndarray] = [np.ones((n - p, 1))]
    labels = ["intercept"]
    # block_matrix works row by row, so each knot vector is evaluated once over
    # the whole sample and lag j takes rows p-j .. n-j-1 of it
    blocks: dict[KnotVector, np.ndarray] = {}
    for idx, (j, term) in enumerate(layout.x_terms):
        x_lag = x[p - j : n - j]
        if isinstance(term, KnotVector):
            if term not in blocks:
                blocks[term] = block_matrix(term, x)
            cols.append(blocks[term][p - j : n - j])
            start = term.dim - block_width(term)
            labels += [f"spline:x_lag{j}:b{i}" for i in range(start, term.dim)]
        else:
            cols.append(np.asarray(term(x_lag), dtype=float)[:, None])
            labels.append(f"term{idx}:{term.kind}:x_lag{j}")
    if layout.x_lags_linear:
        cols += [x[p - j : n - j, None] for j in range(1, p + 1)]
        labels += [f"linear:x_lag{j}" for j in range(1, p + 1)]
    for j in range(1, p + 1):
        cols.append(y[p - j : n - j, :])
        labels += [f"linear:y{m}_lag{j}" for m in range(y.shape[1])]
    cols.append(eps_hat[:, None])
    labels.append("generated")
    if len(labels) >= n - p:
        raise ValueError("overparameterized sieve: K_total must be below the usable sample size")
    return DesignMatrix(values=np.column_stack(cols), column_labels=tuple(labels))


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
