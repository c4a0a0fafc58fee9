"""Shared numerical kernels: normal/chi-square functions, Gaussian
expectations, partitioned information matrices, reproducible RNG streams.

Everything downstream (tolerance radii, risk curves, Monte Carlo studies)
funnels through this module so that quadrature rules and matrix algebra are
exercised by one set of tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special


class NumericsError(RuntimeError):
    """Raised when a kernel cannot produce a trustworthy value."""


class SingularBlockError(NumericsError):
    """A block of a partitioned information matrix is not invertible.

    Attributes:
        block: which block failed ("narrow" for the upper-left block,
            "schur" for the wide-direction Schur complement).
    """

    def __init__(self, block: str, detail: str = ""):
        self.block = block
        self.detail = detail
        msg = f"singular or non-positive-definite block: {block}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)

    def __reduce__(self):  # pickled whole, as a study's worker process sends it
        return type(self), (self.block, self.detail)


class DomainError(ValueError, NumericsError):
    """An argument lies outside a function's mathematical domain."""


# ---------------------------------------------------------------------------
# scalar special functions


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def std_normal_cdf(x):
    """Standard normal CDF, accurate to better than 1e-12 everywhere."""
    return special.ndtr(np.asarray(x, dtype=float))


def std_normal_mills_ratio(x):
    """Mills ratio (1 - Phi(x))/phi(x), without cancellation for large x."""
    return math.sqrt(math.pi / 2.0) * special.erfcx(np.asarray(x, dtype=float) / math.sqrt(2.0))


def std_normal_quantile(p):
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    return special.ndtri(p)


def chisq_quantile(p: float, df: int) -> float:
    """Quantile of the central chi-square distribution."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile argument must lie strictly in (0, 1)")
    if df <= 0:
        raise DomainError("degrees of freedom must be positive")
    return float(special.chdtri(df, 1.0 - p))


def noncentral_chisq_cdf(x: float, df: int, ncp: float) -> float:
    """CDF of the noncentral chi-square distribution (scipy's chndtr).

    Raises DomainError for x < 0, df <= 0 or ncp < 0, where chndtr would
    return nan instead.
    """
    if df <= 0:
        raise DomainError("degrees of freedom must be positive")
    if ncp < 0.0:
        raise DomainError("noncentrality must be nonnegative")
    if x < 0.0:
        raise DomainError("chi-square argument must be nonnegative")
    return float(special.chndtr(x, df, ncp))


def point_or_stack(x):
    """x as a float when it is 0-d, otherwise as it is: a function of a
    point gives a float, of a stack an array."""
    return float(x) if np.ndim(x) == 0 else x


def row_dots(x, y):
    """Each row of x (B, k) dotted on its own with y (k,), or with the same
    row of y (B, k): a matrix product blocks rows together, so a row's bits
    would depend on B."""
    return (x[:, None, :] @ y[..., None])[:, 0, 0]


def central_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar fn at x, step 1e-6*(1+|x_j|).

    x may also be a stack (B, k) of points; fn then maps a (B, k) stack to
    its B values, and row b of the result is the gradient at x[b]. Each
    coordinate costs two calls of fn whatever B is.
    """
    grad = np.empty_like(x)
    for j in range(x.shape[-1]):
        h = 1e-6 * (1.0 + np.abs(x[..., j]))
        up = x.copy()
        dn = x.copy()
        up[..., j] += h
        dn[..., j] -= h
        grad[..., j] = (fn(up) - fn(dn)) / (2.0 * h)
    return grad


# ---------------------------------------------------------------------------
# expectations under a shifted standard normal


@lru_cache(maxsize=8)
def _hermite_rule(nodes: int):
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return x, w


@lru_cache(maxsize=8)
def _legendre_rule(nodes: int):
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def legendre_panels(edges, nodes: int):
    """Gauss-Legendre nodes x and weights w of `nodes` points on each panel
    between consecutive edges, so that w @ f(x) approximates the integral of
    f from edges[0] to edges[-1]."""
    gx, gw = _legendre_rule(nodes)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        xs.append(mid + half * gx)
        ws.append(half * gw)
    return np.concatenate(xs), np.concatenate(ws)


def _check_finite(values: np.ndarray, context: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NumericsError(
            f"integrand returned {bad} non-finite value(s) during {context}; "
            "aborting rather than degrading accuracy"
        )
    return values


def knot_panels(lo: float, hi: float, knots=()):
    """Gauss-Legendre nodes z and weights w for integrals over [lo, hi] of
    an integrand with kinks or jumps at the knots: [lo, hi] is split at the
    knots inside it, each piece is cut into equal panels of width <= 2, and
    each panel gets 60 points, so that the knots land on panel boundaries.
    w @ f(z) approximates the integral of f from lo to hi.
    """
    splits = sorted({lo, hi, *(float(k) for k in knots if lo < float(k) < hi)})
    edges = [lo]
    for left, right in zip(splits[:-1], splits[1:]):
        edges.extend(np.linspace(left, right, max(1, math.ceil((right - left) / 2.0)) + 1)[1:])
    return legendre_panels(edges, 60)


def shifted_normal_nodes(shift: float):
    """Nodes z and weights w of the 200-node Gauss-Hermite rule, such that
    w @ f(z) approximates E f(Z), Z ~ N(shift, 1), for a smooth f. (Risk
    curves integrate on knot_panels instead.)"""
    x, w = _hermite_rule(200)
    return shift + math.sqrt(2.0) * x, w / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# partitioned information matrices


def _as_symmetric(m) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"information matrix must be square, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    scale = np.maximum(1.0, np.maximum(np.abs(m), np.abs(mt)))
    if (np.abs(m - mt) > 1e-8 * scale).any():
        raise ValueError("information matrix is not symmetric")
    return 0.5 * (m + mt)


@dataclass(frozen=True)
class PartitionedInfo:
    """Per-observation information matrix, split after its first p rows
    and columns into narrow and extra blocks.

    matrix is (p+q, p+q), or a stack (R, p+q, p+q) with one matrix per
    replication; it is stored as 0.5*(m + m') and must be symmetric to
    1e-8 relative entry by entry. j11 is the p x p block for the protected
    parameters, j22 the q x q block for the departure parameters, j12 the
    p x q cross block: views of matrix.
    """

    matrix: np.ndarray
    p: int

    def __post_init__(self):
        matrix = _as_symmetric(self.matrix)
        k = matrix.shape[-1]
        if not 0 < self.p < k:
            raise ValueError(f"narrow dimension {self.p} must split a {k} x {k} matrix")
        object.__setattr__(self, "matrix", matrix)

    @property
    def q(self) -> int:
        return self.matrix.shape[-1] - self.p

    @property
    def j11(self) -> np.ndarray:
        return self.matrix[..., :self.p, :self.p]

    @property
    def j12(self) -> np.ndarray:
        return self.matrix[..., :self.p, self.p:]

    @property
    def j22(self) -> np.ndarray:
        return self.matrix[..., self.p:, self.p:]


def each_that_holds(fn, items):
    """fn(item) for each item that does not raise a NumericsError, in order,
    and the indices of those items as an int array. This is the one rule
    that leaves a failing item out; any other exception propagates."""
    values, kept = [], []
    for i, item in enumerate(items):
        try:
            values.append(fn(item))
        except NumericsError:
            continue
        kept.append(i)
    return values, np.array(kept, dtype=int)


def rows_that_hold(evaluate, count: int):
    """evaluate(rows) on every row index at once, or, if a numerical
    failure stops that, on the rows that do not raise it on their own
    (each_that_holds).

    Returns (values, rows kept). evaluate is never called on an empty set
    of rows; values is then None.
    """
    rows = np.arange(count)
    if count:
        try:
            return evaluate(rows), rows
        except NumericsError:
            pass
    _, kept = each_that_holds(lambda r: evaluate(rows[r:r + 1]), range(count))
    return (evaluate(kept) if kept.size else None), kept


def _chol_inverse(m: np.ndarray, block: str, scale=None) -> np.ndarray:
    """Inverses of a stack of SPD matrices via Cholesky.

    Raises SingularBlockError naming block if any row is not positive
    definite. scale is the magnitude the pivots are judged against; for a
    Schur complement it must be the size of the terms that were subtracted,
    since exact cancellation can leave a rounding-level positive pivot that
    Cholesky happily accepts.
    """
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(block, str(err)) from None
    if scale is None:
        scale = np.max(np.abs(np.diagonal(m, axis1=-2, axis2=-1)), axis=-1)
    pivots = np.min(np.diagonal(c, axis1=-2, axis2=-1), axis=-1) ** 2
    if np.any(pivots <= 1e-12 * np.maximum(scale, 1e-300)):
        raise SingularBlockError(block, "singular to working precision")
    ident = np.broadcast_to(np.eye(m.shape[-1]), m.shape)
    inv = np.linalg.solve(np.swapaxes(c, -1, -2), np.linalg.solve(c, ident))
    return 0.5 * (inv + np.swapaxes(inv, -1, -2))


@dataclass(frozen=True)
class PartitionedInverse:
    """The two blocks of the inverse of a partitioned information matrix
    that the package reads.

    inv22 is the lower-right block of the full inverse: the limiting
    covariance of the departure-parameter estimator in the wide model.
    j11_inv is the inverse of the narrow block.
    """

    inv22: np.ndarray
    j11_inv: np.ndarray = field(repr=False)


def partitioned_inverse(info: PartitionedInfo) -> PartitionedInverse:
    """Blockwise inverse via the Schur complement of the narrow block.

    Raises SingularBlockError naming the offending block if the narrow
    block or the Schur complement is not positive definite; for a stacked
    info, if that holds for any row.
    """
    single = info.matrix.ndim == 2
    j11, j12, j22 = (b[None] if single else b for b in (info.j11, info.j12, info.j22))
    j11_inv = _chol_inverse(j11, "narrow")
    subtracted = np.swapaxes(j12, -1, -2) @ j11_inv @ j12
    schur = j22 - subtracted
    schur_scale = np.maximum(
        np.max(np.abs(np.diagonal(j22, axis1=-2, axis2=-1)), axis=-1),
        np.max(np.abs(np.diagonal(subtracted, axis1=-2, axis2=-1)), axis=-1),
    )
    inv22 = _chol_inverse(0.5 * (schur + np.swapaxes(schur, -1, -2)), "schur", schur_scale)
    return PartitionedInverse(*(b[0] if single else b for b in (inv22, j11_inv)))


# ---------------------------------------------------------------------------
# reproducible replication streams


def replication_rng(seed: int, rep: int) -> np.random.Generator:
    """Independent, order-free RNG stream for one Monte Carlo replication.

    Stream identity depends only on (seed, rep), so replications can run in
    any order or on any worker and still draw identical variates.
    """
    if seed < 0 or rep < 0:
        raise ValueError("seed and replication index must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence(entropy=(int(seed), int(rep))))

