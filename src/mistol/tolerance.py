"""Tolerance radii and the scalar diagnostics attached to a narrow model.

The central quantity is the per-root-n radius below which every estimator
based on the narrow model is asymptotically at least as precise as its wide
counterpart, together with the correlation-style indices, distances between
the border densities, and detection/selection probabilities that describe
how visible a borderline departure is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .models import Design, ModelSpec, information_at_null, mean_abs_departure_score
from .numerics import (
    PartitionedInfo,
    chisq_quantile,
    noncentral_chisq_cdf,
    partitioned_inverse,
)

POWER_LEVELS = (0.01, 0.05, 0.10, 0.20)


def kappa_squared_block(info: PartitionedInfo) -> np.ndarray:
    """The departure block of the inverse information (a q x q matrix)."""
    return partitioned_inverse(info).inv22


def kappa(info: PartitionedInfo):
    """Limiting standard deviation of the scaled departure estimate.

    For one departure direction this is the scalar kappa; for several the
    full q x q block of the inverse information is returned instead.
    """
    block = kappa_squared_block(info)
    if block.shape == (1, 1):
        return math.sqrt(block[0, 0])
    return block


def danger_index(info: PartitionedInfo):
    """(d, rho^2): variance inflation of the departure estimate and the
    maximal squared correlation between departure and narrow scores.

    Defined for a single departure direction.
    """
    if info.q != 1:
        raise ValueError("the danger index is defined for one departure direction")
    k2 = float(kappa_squared_block(info)[0, 0])
    d = k2 * float(info.j22[0, 0])
    return d, 1.0 - 1.0 / d


def narrow_better(info: PartitionedInfo, delta, estimand_gradient_b=None) -> bool:
    """Whether the narrow estimator is at least as good at departure delta.

    One direction: |delta| <= kappa, boundary inclusive. Several directions:
    without an estimand the cautious (all-estimand) ellipsoid
    delta' (K)^{-1} delta <= 1 with K the inverse-information block; with an
    estimand direction b the band (b'delta)^2 <= b'Kb.
    """
    delta = np.atleast_1d(np.asarray(delta, dtype=float))
    if delta.size != info.q:
        raise ValueError(f"delta has {delta.size} components, expected {info.q}")
    block = kappa_squared_block(info)
    if info.q == 1:
        return bool(abs(delta[0]) <= math.sqrt(block[0, 0]))
    if estimand_gradient_b is None:
        return bool(delta @ np.linalg.solve(block, delta) <= 1.0)
    b = np.atleast_1d(np.asarray(estimand_gradient_b, dtype=float))
    if b.size != info.q:
        raise ValueError("estimand direction has the wrong length")
    return bool(float(b @ delta) ** 2 <= float(b @ block @ b))


def border_distances(model: ModelSpec, info: PartitionedInfo, n: int, delta,
                     design: Design | None = None):
    """Leading-order distances between the null and the departure density.

    Returns (kl, l1, weighted_l2):
      kl          ~ delta^2 J22 / (2n)
      l1          ~ (|delta|/sqrt(n)) E0|V(Y)| with V the departure score
      weighted_l2 ~ delta^2 J22 / n
    Only the leading terms in 1/n are computed.
    """
    if info.q != 1:
        raise ValueError("border distances are reported for one direction")
    if n < 1:
        raise ValueError("n must be at least 1")
    d = abs(float(np.atleast_1d(delta)[0]))
    j22 = float(info.j22[0, 0])
    if design is None:
        design = model.default_design(n)
    mean_abs_v = float(mean_abs_departure_score(model, design)[0])
    kl = 0.5 * d * d * j22 / n
    l1 = d / math.sqrt(n) * mean_abs_v
    wl2 = d * d * j22 / n
    return kl, l1, wl2


def detection_power(a: float, level: float, q: int = 1) -> float:
    """Power of the level-sized chi-square departure test.

    a is the departure in estimation-uncertainty units: the noncentrality
    is a^2 (for several directions pass the square root of the
    standardized quadratic form).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if a < 0.0:
        raise ValueError("the standardized departure must be nonnegative")
    cut = chisq_quantile(1.0 - level, q)
    return 1.0 - noncentral_chisq_cdf(cut, q, a * a)


def aic_narrow_prob(noncentrality: float, q: int) -> float:
    """Probability that the penalty-2 information criterion keeps the
    narrow model: Pr{chi2_q(ncp) <= 2q}."""
    if noncentrality < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    return noncentral_chisq_cdf(2.0 * q, q, noncentrality)


def schwarz_narrow_prob(noncentrality: float, q: int, n: int) -> float:
    """Probability the log(n)-penalty criterion keeps the narrow model."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if noncentrality < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    return noncentral_chisq_cdf(q * math.log(n), q, noncentrality)


@dataclass(frozen=True)
class ToleranceReport:
    """Everything the tolerance analysis says about one model and sample size."""

    model: str
    n: int
    kappa: float
    radius: float
    danger: float
    rho_squared: float
    border_kl: float
    border_l1: float
    border_wl2: float
    power_at_border: dict
    aic_null: float
    aic_border: float

    def lines(self):
        yield f"model: {self.model}"
        yield f"n: {self.n}"
        yield f"kappa: {self.kappa!r}"
        yield f"tolerance radius kappa/sqrt(n): {self.radius!r}"
        yield f"danger index d: {self.danger!r}"
        yield f"max squared score correlation rho^2: {self.rho_squared!r}"
        yield f"border KL distance: {self.border_kl!r}"
        yield f"border L1 distance: {self.border_l1!r}"
        yield f"border weighted-L2 distance: {self.border_wl2!r}"
        for level, power in self.power_at_border.items():
            yield f"border detection power at level {level:g}: {power!r}"
        yield f"narrow-model probability, penalty-2 criterion, no departure: {self.aic_null!r}"
        yield f"narrow-model probability, penalty-2 criterion, border: {self.aic_border!r}"


def tolerance_report(model: ModelSpec, design: Design) -> ToleranceReport:
    """Assemble the full set of q=1 diagnostics for one model and design."""
    info = information_at_null(model, design)
    if info.q != 1:
        raise ValueError("the scalar tolerance report needs one departure direction")
    k = float(kappa(info))
    d, rho2 = danger_index(info)
    n = design.n
    kl, l1, wl2 = border_distances(model, info, n, k, design)
    power = {level: detection_power(1.0, level, 1) for level in POWER_LEVELS}
    return ToleranceReport(
        model=model.name,
        n=n,
        kappa=k,
        radius=k / math.sqrt(n),
        danger=d,
        rho_squared=rho2,
        border_kl=kl,
        border_l1=l1,
        border_wl2=wl2,
        power_at_border=power,
        aic_null=aic_narrow_prob(0.0, 1),
        aic_border=aic_narrow_prob(1.0, 1),
    )

