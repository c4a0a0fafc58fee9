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
        msg = f"singular or non-positive-definite block: {block}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


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


def central_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a scalar fn at x, step 1e-6*(1+|x_j|)."""
    grad = np.empty_like(x)
    for j in range(x.size):
        h = 1e-6 * (1.0 + abs(x[j]))
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fn(up) - fn(dn)) / (2.0 * h)
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


def _check_finite(values: np.ndarray, context: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NumericsError(
            f"integrand returned {bad} non-finite value(s) during {context}; "
            "aborting rather than degrading accuracy"
        )
    return values


def shifted_normal_nodes(shift: float, knots=None):
    """Nodes z and weights w such that w @ f(z) approximates E f(Z), Z ~ N(shift, 1).

    With knots None (a smooth integrand) the rule is 200-node Gauss-Hermite.
    Otherwise [shift - 8, shift + 8] is split at the knots inside it, each
    panel is cut to width <= 2 and gets 60-node Gauss-Legendre with the
    normal density folded into the weights, so that kinks and jumps land
    on panel boundaries. An empty tuple of knots still takes this route.
    """
    if knots is None:
        x, w = _hermite_rule(200)
        return shift + math.sqrt(2.0) * x, w / math.sqrt(math.pi)
    lo, hi = shift - 8.0, shift + 8.0
    edges = sorted({lo, hi, *(float(k) for k in knots if lo < float(k) < hi)})
    gx, gw = _legendre_rule(60)
    zs, ws = [], []
    for left, right in zip(edges[:-1], edges[1:]):
        bounds = np.linspace(left, right, max(1, math.ceil((right - left) / 2.0)) + 1)
        for a, b in zip(bounds[:-1], bounds[1:]):
            mid, half = (a + b) / 2.0, (b - a) / 2.0
            z = mid + half * gx
            zs.append(z)
            ws.append(half * gw * std_normal_pdf(z - shift))
    return np.concatenate(zs), np.concatenate(ws)


# ---------------------------------------------------------------------------
# partitioned information matrices


def _as_symmetric(m, label: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{label} block must be square, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > 1e-8 * scale:
        raise ValueError(f"{label} block is not symmetric")
    return 0.5 * (m + m.T)


@dataclass(frozen=True)
class PartitionedInfo:
    """Per-observation information matrix split into narrow and extra blocks.

    j11 is the p x p block for the protected parameters, j22 the q x q block
    for the departure parameters, j12 the p x q cross block.
    """

    j11: np.ndarray
    j12: np.ndarray
    j22: np.ndarray

    def __post_init__(self):
        j11 = _as_symmetric(self.j11, "narrow")
        j22 = _as_symmetric(self.j22, "departure")
        j12 = np.atleast_2d(np.asarray(self.j12, dtype=float))
        if j12.shape != (j11.shape[0], j22.shape[0]):
            raise ValueError(
                f"cross block has shape {j12.shape}, expected "
                f"{(j11.shape[0], j22.shape[0])}"
            )
        object.__setattr__(self, "j11", j11)
        object.__setattr__(self, "j12", j12)
        object.__setattr__(self, "j22", j22)

    @property
    def p(self) -> int:
        return self.j11.shape[0]

    @property
    def q(self) -> int:
        return self.j22.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        top = np.hstack([self.j11, self.j12])
        bottom = np.hstack([self.j12.T, self.j22])
        return np.vstack([top, bottom])

    @classmethod
    def from_full(cls, full, p: int) -> "PartitionedInfo":
        full = _as_symmetric(full, "full information")
        if not 0 < p < full.shape[0]:
            raise ValueError("narrow dimension must split the matrix")
        return cls(full[:p, :p], full[:p, p:], full[p:, p:])


def _chol_inverse(m: np.ndarray, block: str, scale: float | None = None) -> np.ndarray:
    """Inverse of an SPD matrix via Cholesky; SingularBlockError otherwise.

    scale is the magnitude the pivots are judged against; for a Schur
    complement it must be the size of the terms that were subtracted,
    since exact cancellation can leave a rounding-level positive pivot
    that Cholesky happily accepts.
    """
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(block, str(err)) from None
    if scale is None:
        scale = float(np.max(np.abs(np.diag(m))))
    if float(np.min(np.diag(c))) ** 2 <= 1e-12 * max(scale, 1e-300):
        raise SingularBlockError(block, "singular to working precision")
    ident = np.eye(m.shape[0])
    inv = np.linalg.solve(c.T, np.linalg.solve(c, ident))
    return 0.5 * (inv + inv.T)


@dataclass(frozen=True)
class PartitionedInverse:
    """Blocks of the inverse of a partitioned information matrix.

    inv22 is the lower-right block of the full inverse: the limiting
    covariance of the departure-parameter estimator in the wide model.
    inv11 and inv12 are the matching upper-left and cross blocks.
    """

    inv11: np.ndarray
    inv12: np.ndarray
    inv22: np.ndarray
    j11_inv: np.ndarray = field(repr=False)


def partitioned_inverse(info: PartitionedInfo) -> PartitionedInverse:
    """Blockwise inverse via the Schur complement of the narrow block.

    Raises SingularBlockError naming the offending block if the narrow
    block or the Schur complement is not positive definite.
    """
    j11_inv = _chol_inverse(info.j11, "narrow")
    subtracted = info.j12.T @ j11_inv @ info.j12
    schur = info.j22 - subtracted
    schur_scale = float(
        max(np.max(np.abs(np.diag(info.j22))), np.max(np.abs(np.diag(subtracted))))
    )
    inv22 = _chol_inverse(0.5 * (schur + schur.T), "schur", scale=schur_scale)
    inv12 = -j11_inv @ info.j12 @ inv22
    inv11 = j11_inv + j11_inv @ info.j12 @ inv22 @ info.j12.T @ j11_inv
    return PartitionedInverse(
        inv11=0.5 * (inv11 + inv11.T), inv12=inv12, inv22=inv22, j11_inv=j11_inv
    )


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

