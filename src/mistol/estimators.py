"""Maximum-likelihood fitting plus the catalogue of compromise estimators.

Every compromise between the narrow and the wide fit is represented by a
weight function c(z) applied to the standardized departure statistic, or
equivalently by the one-dimensional rule a_hat(z) = c(z)*z for the mean of
a unit-variance normal. The AEstimator type carries both faces of that
correspondence; risk evaluation and Monte Carlo studies consume it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .models import Design, ModelSpec
from .numerics import (
    DomainError,
    NumericsError,
    central_gradient,
    each_that_holds,
    legendre_panels,
    point_or_stack,
    row_dots,
    rows_that_hold,
    std_normal_mills_ratio,
)


# ---------------------------------------------------------------------------
# the weight-function / shrinkage-rule pair


@dataclass(frozen=True)
class AEstimator:
    """A compromise estimator seen as a rule a_hat(z) = c(z)*z.

    a_fn works entry by entry: each entry of a_fn(array) is, bit for bit,
    a_fn of that entry alone, so one replication's weight never depends on
    its batch, and c hands a whole array to a_fn. c0 is the continuation
    value of the weight at z = 0 (the limit of a_hat(z)/z). Non-smooth
    rules list their kink/jump locations in knots so quadrature can split
    there; a rule without knots is integrated as a smooth one.
    """

    name: str
    a_fn: Callable = field(repr=False)
    c0: float
    knots: tuple = ()
    params: tuple = ()  # ordered (key, value) pairs

    def a(self, z):
        return self.a_fn(np.asarray(z, dtype=float))

    def c(self, z):
        z = np.asarray(z, dtype=float)
        safe = np.where(z == 0.0, 1.0, z)
        return point_or_stack(np.where(z == 0.0, self.c0, self.a_fn(safe) / safe))

    def spec_string(self) -> str:
        if not self.params:
            return self.name
        inner = ";".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.name}:{inner}"


def _require(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def narrow_rule() -> AEstimator:
    return AEstimator("narrow", lambda z: np.zeros_like(z), c0=0.0)


def wide_rule() -> AEstimator:
    return AEstimator("wide", lambda z: z, c0=1.0)


def linear(c: float = 0.5) -> AEstimator:
    """Fixed-weight mixture of the two fits."""
    c = float(c)
    return AEstimator("linear", lambda z: c * z, c0=c, params=(("c", c),))


def pretest(m: float = 1.0) -> AEstimator:
    """Keep the narrow fit unless |z| reaches the cut-off m.

    The default cut-off 1 corresponds to testing at the point where the
    narrow and wide limiting risks cross; 1.645 and sqrt(2) are the usual
    10%-test and penalty-2 selection cut-offs (see PRETEST_PRESETS).
    """
    m = float(m)
    _require(m > 0.0, "pretest cut-off must be positive")
    return AEstimator(
        "pretest",
        lambda z: np.where(np.abs(z) >= m, z, 0.0),
        c0=0.0,
        knots=(-m, m),
        params=(("m", m),),
    )


PRETEST_PRESETS = {"pretest-10": 1.645, "pretest-sqrt2": math.sqrt(2.0)}


def eb() -> AEstimator:
    """Empirical-Bayes style shrinkage z^3/(1+z^2), weight z^2/(1+z^2)."""
    return AEstimator("eb", lambda z: z**3 / (1.0 + z * z), c0=0.0)


def qhat_weight(z, eps: float = 0.05):
    """Posterior-mean weight for a scale mixture restricted to [eps, 1].

    The ratio of int_0^tmax e^{-z^2 t^2/2} dt to the same integral with
    weight 1/(1 - t^2), tmax = sqrt(1 - eps). The substitution t = tanh u
    absorbs that weight's endpoint singularity: the numerator becomes
    int_0^atanh(tmax) e^{-z^2 tanh^2(u)/2} sech^2(u) du and the denominator
    the same integral without sech^2. Both are evaluated by a node-doubling
    Gauss-Legendre rule. Vectorized in z, entry by entry: an entry stops at
    the first doubling that moves its ratio by at most 1e-12*(1 + |ratio|).
    """
    eps = float(eps)
    _require(0.0 < eps < 1.0, "qhat needs eps strictly inside (0, 1)")
    z = np.asarray(z, dtype=float)
    z2 = np.ravel(z * z)
    umax = math.atanh(math.sqrt(1.0 - eps))
    out = np.empty(z2.shape)
    active = np.arange(z2.size)
    previous = None
    for nodes in (60, 120, 240, 480, 960, 1920):
        u, w = legendre_panels((0.0, umax), nodes)
        t = np.tanh(u)
        kernel = np.exp(-0.5 * np.multiply.outer(z2[active], t * t))
        ratio = row_dots(kernel, w / np.cosh(u) ** 2) / row_dots(kernel, w)
        if previous is not None:
            settled = np.abs(ratio - previous) <= 1e-12 * (1.0 + np.abs(ratio))
            out[active[settled]] = ratio[settled]
            active, ratio = active[~settled], ratio[~settled]
            if not active.size:
                return point_or_stack(out.reshape(z.shape))
        previous = ratio
    raise NumericsError("qhat weight quadrature did not stabilize")


def qhat(eps: float = 0.05) -> AEstimator:
    w0 = float(qhat_weight(0.0, eps))
    return AEstimator(
        "qhat",
        lambda z: np.asarray(qhat_weight(z, eps)) * z,
        c0=w0,
        params=(("eps", float(eps)),),
    )


def bayes(sigma: float = 1.0) -> AEstimator:
    """Posterior mean under a centered normal prior with scale sigma."""
    sigma = float(sigma)
    _require(sigma > 0.0, "prior scale must be positive")
    shrink = sigma * sigma / (sigma * sigma + 1.0)
    return AEstimator("bayes", lambda z: shrink * z, c0=shrink, params=(("sigma", sigma),))


def epsilon_bayes(eps: float = 0.05, sigma: float = 3.0) -> AEstimator:
    """Posterior mean under the spike-and-normal prior.

    Prior: mass 1-eps at the null, mass eps spread as N(0, sigma^2).
    eps = 1 reduces to the plain normal-prior rule.
    """
    eps, sigma = float(eps), float(sigma)
    _require(0.0 < eps <= 1.0, "epsilon must lie in (0, 1]")
    _require(sigma > 0.0, "prior scale must be positive")
    s2 = sigma * sigma
    shrink = s2 / (s2 + 1.0)

    def bayes_factor(z):
        return math.sqrt(s2 + 1.0) * np.exp(-0.5 * shrink * z * z)

    def a_fn(z):
        w = eps / (eps + (1.0 - eps) * bayes_factor(z))
        return w * shrink * z

    c0 = eps / (eps + (1.0 - eps) * math.sqrt(s2 + 1.0)) * shrink
    return AEstimator(
        "epsilon_bayes", a_fn, c0=c0, params=(("eps", eps), ("sigma", sigma))
    )


def tanh_twopoint(m: float = 1.0) -> AEstimator:
    """Bayes rule for the symmetric two-point prior at -m and +m."""
    m = float(m)
    _require(m > 0.0, "two-point prior location must be positive")
    return AEstimator(
        "tanh_twopoint", lambda z: m * np.tanh(m * z), c0=m * m, params=(("m", m),)
    )


def bickel(m: float = 2.0) -> AEstimator:
    """Posterior mean under the cosine-squared prior on [-m, m].

    The prior density cos(pi*a/(2m))^2 / m is approximately least
    favourable for bounded means, so this rule is near minimax on the
    interval.
    """
    m = float(m)
    _require(m > 0.0, "interval half-width must be positive")
    prior = DensityPrior(
        lambda a: np.cos(math.pi * a / (2.0 * m)) ** 2 / m, -m, m, name="cosine-squared"
    )
    return replace(bayes_estimator(prior), name="bickel", params=(("m", m),))


def restricted(m: float = 1.0) -> AEstimator:
    """ML estimate constrained to [-m, m]: clip the observation."""
    m = float(m)
    _require(m > 0.0, "restriction half-width must be positive")
    return AEstimator(
        "restricted",
        lambda z: np.clip(z, -m, m),
        c0=1.0,
        knots=(-m, m),
        params=(("m", m),),
    )


def efron_morris(m: float = 0.502) -> AEstimator:
    """Limited-translation rule: move z toward 0 by at most m (soft threshold)."""
    m = float(m)
    _require(m > 0.0, "translation limit must be positive")
    return AEstimator(
        "efron_morris",
        lambda z: np.sign(z) * np.maximum(np.abs(z) - m, 0.0),
        c0=0.0,
        knots=(-m, m),
        params=(("m", m),),
    )


def atan_shrink(m: float = 0.502) -> AEstimator:
    """Smooth analogue of limited translation: z - m*(2/pi)*arctan(z)."""
    m = float(m)
    _require(m > 0.0, "shrinkage scale must be positive")
    return AEstimator(
        "atan",
        lambda z: z - m * (2.0 / math.pi) * np.arctan(z),
        c0=1.0 - 2.0 * m / math.pi,
        params=(("m", m),),
    )


def uniform_bayes(m: float = 2.0) -> AEstimator:
    """Posterior mean under the uniform prior on [-m, m] (closed form).

    a(z) = z + (phi(z+m) - phi(z-m))/(Phi(z+m) - Phi(z-m)) is odd in z. For
    u = |z| it is written with the Mills ratio R and e = exp(-2mu) as
    u - (1 - e)/(R(u-m) - e R(u+m)), which keeps its digits where the
    difference of normal CDFs cancels.
    """
    m = float(m)
    _require(m > 0.0, "interval half-width must be positive")

    def a_fn(z):
        u = np.abs(z)
        x = -2.0 * m * u  # 1 - e is taken as -expm1(x) to keep c0's digits
        den = std_normal_mills_ratio(u - m) - np.exp(x) * std_normal_mills_ratio(u + m)
        return np.sign(z) * (u + np.expm1(x) / den)

    c0 = float(a_fn(np.array([1e-6]))[0]) / 1e-6
    return AEstimator("uniform_bayes", a_fn, c0=c0, params=(("m", m),))


def mlplus() -> AEstimator:
    """Positive-part ML weight (z^2-1)_+ / z^2."""

    def a_fn(z):
        z2 = z * z
        return np.where(z2 > 1.0, z - z / np.where(z2 > 1.0, z2, 1.0), 0.0)

    return AEstimator("mlplus", a_fn, c0=0.0, knots=(-1.0, 1.0))


def qtilde(l: float = 0.5) -> AEstimator:
    """Positive-part family (z^2-l)_+ / (z^2+1-l), one knob l in [0, 1]."""
    l = float(l)
    _require(0.0 <= l <= 1.0, "the qtilde knob must lie in [0, 1]")

    def a_fn(z):
        z2 = z * z
        return z * np.maximum(z2 - l, 0.0) / (z2 + 1.0 - l)

    root = math.sqrt(l) if l > 0.0 else None
    return AEstimator(
        "qtilde",
        a_fn,
        c0=0.0,
        knots=() if root is None else (-root, root),
        params=(("l", l),),
    )


_FACTORIES: dict[str, tuple[Callable, tuple]] = {
    "narrow": (narrow_rule, ()),
    "wide": (wide_rule, ()),
    "linear": (linear, ("c",)),
    "pretest": (pretest, ("m",)),
    "eb": (eb, ()),
    "qhat": (qhat, ("eps",)),
    "bayes": (bayes, ("sigma",)),
    "epsilon_bayes": (epsilon_bayes, ("eps", "sigma")),
    "tanh_twopoint": (tanh_twopoint, ("m",)),
    "bickel": (bickel, ("m",)),
    "restricted": (restricted, ("m",)),
    "efron_morris": (efron_morris, ("m",)),
    "atan": (atan_shrink, ("m",)),
    "uniform_bayes": (uniform_bayes, ("m",)),
    "mlplus": (mlplus, ()),
    "qtilde": (qtilde, ("l",)),
}


def catalogue() -> list[AEstimator]:
    """Every built-in compromise rule at its documented default parameters."""
    return [factory() for factory, _ in _FACTORIES.values()]


def estimator_names() -> tuple:
    return tuple(_FACTORIES) + tuple(PRETEST_PRESETS)


def parse_estimator(spec: str) -> AEstimator:
    """Build an estimator from a spec string `name[:key=val,...]`.

    Raises ValueError for unknown names, unknown keys, or bad values.
    """
    spec = spec.strip()
    name, _, arg_text = spec.partition(":")
    name = name.strip()
    if name in PRETEST_PRESETS:
        if arg_text:
            raise ValueError(f"preset {name!r} takes no parameters")
        return pretest(PRETEST_PRESETS[name])
    if name not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES) + sorted(PRETEST_PRESETS))
        raise ValueError(f"unknown estimator {name!r} (known: {known})")
    factory, allowed = _FACTORIES[name]
    kwargs = {}
    if arg_text:
        for piece in arg_text.replace(";", ",").split(","):
            if not piece.strip():
                continue
            key, sep, val = piece.partition("=")
            key = key.strip()
            if not sep or key not in allowed:
                raise ValueError(
                    f"estimator {name!r} does not take parameter {key!r} "
                    f"(allowed: {', '.join(allowed) or 'none'})"
                )
            try:
                kwargs[key] = float(val)
            except ValueError:
                raise ValueError(f"bad numeric value for {name}:{key}: {val!r}") from None
    return factory(**kwargs)


# ---------------------------------------------------------------------------
# posteriors for general priors


@dataclass(frozen=True)
class DensityPrior:
    """Continuous prior given by a density on a bounded interval."""

    density: Callable
    lo: float
    hi: float
    name: str = "density-prior"


@dataclass(frozen=True)
class AtomPrior:
    """Discrete prior with finitely many support points."""

    atoms: tuple
    weights: tuple
    name: str = "atom-prior"

    def __post_init__(self):
        total = float(sum(self.weights))
        if total <= 0.0 or any(w < 0.0 for w in self.weights):
            raise ValueError("atom weights must be nonnegative with positive sum")
        object.__setattr__(
            self, "weights", tuple(float(w) / total for w in self.weights)
        )


@dataclass(frozen=True)
class Posterior:
    points: np.ndarray
    weights: np.ndarray
    mean: float


def _prior_nodes(prior):
    if isinstance(prior, AtomPrior):
        return np.asarray(prior.atoms, dtype=float), np.asarray(prior.weights)
    points, w = legendre_panels((prior.lo, prior.hi), 400)
    weights = w * np.asarray(prior.density(points), dtype=float)
    if np.any(weights < -1e-12):
        raise ValueError("prior density must be nonnegative")
    return points, np.maximum(weights, 0.0)


def _joint(points, prior_weights, z):
    """Joint weights phi(z - point) * prior weight, one row per entry of the
    1-D array z, and each row's evidence (its sum), both up to a factor per
    row: each row's exponent is shifted so that its largest among the points
    of positive prior weight is 0, and the evidence cannot underflow."""
    live = prior_weights > 0.0
    if not np.any(live):
        raise NumericsError("posterior evidence vanished; the prior puts no mass anywhere")
    exponent = -0.5 * (z[:, None] - points[None, :]) ** 2
    shift = exponent.max(axis=1, initial=-np.inf, where=live, keepdims=True)
    joint = np.exp(exponent - shift) * prior_weights
    return joint, joint.sum(axis=1)


def _posterior_means(points, prior_weights, z):
    z = np.asarray(z, dtype=float)
    joint, evidence = _joint(points, prior_weights, np.ravel(z))
    return point_or_stack((row_dots(joint, points) / evidence).reshape(z.shape))


def bayes_posterior(prior, z: float):
    """Posterior over the shifted-normal mean after observing z.

    Returns (Posterior, posterior mean). The Posterior carries quadrature
    points and normalized weights (atoms and masses for a discrete prior);
    the mean is, bit for bit, bayes_estimator(prior).a(z).
    """
    points, prior_weights = _prior_nodes(prior)
    joint, evidence = _joint(points, prior_weights, np.array([float(z)]))
    mean = float(row_dots(joint, points)[0] / evidence[0])
    return Posterior(points, joint[0] / evidence[0], mean), mean


def bayes_estimator(prior, name: str = "bayes-custom") -> AEstimator:
    """Wrap a prior's posterior-mean rule as an AEstimator."""
    points, weights = _prior_nodes(prior)

    def a_fn(z):
        return _posterior_means(points, weights, z)

    c0 = float(a_fn(np.array([1e-6]))[0]) / 1e-6
    return AEstimator(name, a_fn, c0=c0)


# ---------------------------------------------------------------------------
# combining fits


def z_statistic(gamma_hat, gamma0, kappa_hat, n: int):
    """Standardized departure sqrt(n)*(gamma_hat - gamma0)/kappa_hat.

    Elementwise over arrays; scalar inputs give a float.
    """
    kappa_hat = np.asarray(kappa_hat, dtype=float)
    if np.any(kappa_hat <= 0.0):
        raise ValueError("kappa estimate must be positive")
    dev = np.asarray(gamma_hat, dtype=float) - np.asarray(gamma0, dtype=float)
    return point_or_stack(math.sqrt(n) * dev / kappa_hat)


def compromise_estimate(mu_narr, mu_wide, zn, est: AEstimator):
    """Weighted combination {1-c(zn)}*mu_narr + c(zn)*mu_wide.

    Elementwise over arrays; scalar inputs give a float.
    """
    c = np.asarray(est.c(zn), dtype=float)
    mu_narr, mu_wide = np.asarray(mu_narr, dtype=float), np.asarray(mu_wide, dtype=float)
    return point_or_stack((1.0 - c) * mu_narr + c * mu_wide)


def harmonic_compromise(mu_narr: float, mu_wide: float, zn: float, h: Callable) -> float:
    """Geometric-scale combination exp{(1-h(z)) log mu_narr + h(z) log mu_wide}.

    Both inputs must be positive; equal inputs are reproduced exactly for
    any weight.
    """
    if mu_narr <= 0.0 or mu_wide <= 0.0:
        raise DomainError("harmonic combination needs positive estimates")
    w = float(h(float(zn)))
    return math.exp((1.0 - w) * math.log(mu_narr) + w * math.log(mu_wide))


def debias_estimate(mu_narr, b, gamma_hat, gamma0):
    """First-order bias removal mu_narr - b*(gamma_hat - gamma0).

    Elementwise over arrays; scalar inputs give a float.
    """
    dev = np.asarray(gamma_hat, dtype=float) - np.asarray(gamma0, dtype=float)
    return point_or_stack(np.asarray(mu_narr, dtype=float) - np.asarray(b, dtype=float) * dev)


# ---------------------------------------------------------------------------
# likelihood fitting


class FitError(NumericsError):
    """Raised when a likelihood maximization cannot be certified.

    Carries the iteration trace (loglik, gradient norm per step).
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = list(trace or [])


class BoundaryFitError(FitError):
    """Raised when a wide fit has no finite maximum in sight: the departure
    walks toward a boundary of the parameter space and the likelihood keeps
    rising beyond it (see maximize_loglik). The message names the limit,
    for example "power -> +inf"."""


@dataclass(frozen=True)
class FitResult:
    """One maximized likelihood, or one per row of a stack of samples.

    params holds theta for a narrow fit and theta followed by gamma for a
    wide fit. The fit is certified: loglik is finite, and grad_norm, the
    central-difference gradient norm at params, is at most
    1e-8*(1+|loglik|), or a Newton fit stalled at the rounding floor of
    the log-likelihood (see maximize_loglik; its stacked gradient equals
    numerics.central_gradient bit for bit).

    A fit of a stack (B, n) of samples holds one row per sample in params,
    theta, gamma, loglik and grad_norm, and iterations is the total over
    the rows (0 for closed fits). Every row is fitted and certified: a
    stack with a row that fails raises that row's error instead.

    A narrow fit is closed when the model sets narrow_fit_exact, a wide
    fit when it sets wide_fit_exact, and Newton's otherwise; FitResult does
    not record which.
    """

    params: np.ndarray
    theta: np.ndarray
    gamma: np.ndarray | None
    loglik: float
    iterations: int
    grad_norm: float


@functools.lru_cache(maxsize=8)
def _probe_signs(k: int) -> np.ndarray:
    """_fd_derivatives' probes of k coordinates as signs, read-only: +-e_j
    for the gradient, +-e_i and (+,+), (+,-), (-,+), (-,-) on e_i, e_j for
    each i < j for the Hessian, and last 0 for x itself."""
    axes = [s * row for row in np.eye(k) for s in (1.0, -1.0)]
    pairs = [a + b for i in range(k) for j in range(i + 1, k)
             for a in axes[2 * i:2 * i + 2] for b in axes[2 * j:2 * j + 2]]
    signs = np.array(axes + axes + pairs + [np.zeros(k)])
    signs.setflags(write=False)
    return signs


def _fd_derivatives(f, x, f0):
    """(gradient, Hessian) of f at x by central differences, steps
    1e-6*(1+|x_i|) as in numerics.central_gradient and 1e-4*(1+|x_i|), from
    one call of f on the stack of every probe; f0 is f(x). A probe is x
    plus signs times the step (x + h, x - h or x, exactly), and the values
    are differenced as Python floats (two -inf probes give NaN, not a numpy
    warning). A result that is not one value per probe, or whose last, at
    x, is not f0, raises TypeError."""
    k, signs = x.size, _probe_signs(x.size)
    hg, hh = 1e-6 * (1.0 + np.abs(x)), 1e-4 * (1.0 + np.abs(x))
    values = np.asarray(f(x + signs * np.repeat([hg, hh], [2 * k, len(signs) - 2 * k], axis=0)))
    if values.shape != (len(signs),) or values[-1] != f0 and not _agrees(values[-1], f0):
        raise TypeError("the objective must map a stack (m, k) of points to the m values "
                        f"they have alone; on {len(signs)} points it gave shape {values.shape}")
    v, f0 = values.tolist(), float(f0)  # not the steps: h ** 2 overflows to inf, never raises
    grad = np.array([(v[2 * j] - v[2 * j + 1]) / (2.0 * hg[j]) for j in range(k)])
    hess, at = np.empty((k, k)), 4 * k
    for i in range(k):
        hess[i, i] = (v[2 * k + 2 * i] - 2.0 * f0 + v[2 * k + 2 * i + 1]) / hh[i] ** 2
        for j in range(i + 1, k):
            pp, pm, mp, mm = v[at:at + 4]
            at += 4
            hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * hh[i] * hh[j])
    return grad, hess


def _diverging(distances) -> bool:
    """distances rose at every step, by at least 1.5 times overall, and end
    above 1."""
    rising = all(b > a for a, b in zip(distances, distances[1:]))
    return rising and distances[-1] >= 1.5 * distances[0] and distances[-1] > 1.0


def _profile_top(f, x, origin) -> float:
    """The maximum of f over all but the last q = origin.size coordinates,
    ascending from x, with those q pinned at origin + 10*(x[-q:] - origin);
    -inf if that ascent raises FitError."""
    q = origin.size
    far = origin + 10.0 * (x[-q:] - origin)

    def profile(z):
        return f(np.concatenate([z, np.broadcast_to(far, z.shape[:-1] + (q,))], axis=-1))

    try:
        return maximize_loglik(profile, x[:-q])[1]
    except FitError:
        return -math.inf


def maximize_loglik(f, x0, *, departure=None):
    """Safeguarded Newton ascent with step-halving, at most 200 steps.

    f maps a point (k,) to its value and a stack (m, k) to its m values:
    each iteration takes its finite-difference gradient and Hessian from
    one call of f on a stack (_fd_derivatives).
    Returns (x, loglik, iterations, grad_norm). A point is certified when
    its gradient norm is at most 1e-8*(1+|loglik|), or, when no halving of
    an ascending Newton step raises f, when the Newton decrement
    g'(-H)^{-1}g is at most 4e-15*(1+|loglik|): f then cannot rise by more
    than its own rounding (Boyd & Vandenberghe 2004, section 9.5). Any
    other end raises FitError with the iteration trace, a gradient that is
    not finite at once as a stalled line search; an f that does not
    keep the stack contract raises TypeError.

    departure, which only _newton_fit sets (for a wide fit), maps the names
    of the last q coordinates of x, the departure gamma, to their null
    values gamma0. The ascent then raises BoundaryFitError, with the trace,
    when the departure diverges: |gamma - gamma0| rose in each of the last
    10 iterations, by at least 1.5 times over them, and is above 1, and
    the profile maximum at gamma0 + 10*(gamma - gamma0) (the other
    coordinates maximized from x by this function; a profile that raises
    does not count) exceeds loglik by more than 8 times the Newton
    decrement, so no local maximum near x explains the rise. The profile
    is tried at most once every 10 iterations.
    """
    x = np.asarray(x0, dtype=float).copy()
    loglik = f(x)
    if not np.isfinite(loglik):
        raise FitError("starting point lies outside the likelihood support")
    names = list(departure or ())
    origin = np.array([departure[name] for name in names], dtype=float)
    trace, distances, next_check = [], [], 10
    for iteration in range(200):
        grad, hess = _fd_derivatives(f, x, loglik)
        gnorm = float(np.linalg.norm(grad))
        trace.append((float(loglik), gnorm))
        if gnorm <= 1e-8 * (1.0 + abs(loglik)):
            return x, float(loglik), iteration, gnorm
        if not math.isfinite(gnorm):  # no step can be taken along it
            raise FitError(f"line search stalled at gradient norm {gnorm:.3e}", trace)
        try:
            step = np.linalg.solve(hess, -grad)
            decrement = float(step @ grad)
        except np.linalg.LinAlgError:
            decrement = math.nan
        if names:
            away = x[-len(names):] - origin
            distances.append(float(np.linalg.norm(away)))
            if iteration >= next_check and _diverging(distances[-11:]):
                next_check = iteration + 10
                if _profile_top(f, x, origin) > loglik + 8.0 * decrement:
                    j = int(np.argmax(np.abs(away)))
                    raise BoundaryFitError(
                        "no finite maximum: the log-likelihood keeps rising as "
                        f"{names[j]} -> {'+' if away[j] > 0 else '-'}inf", trace
                    )
        if not decrement > 0.0:  # the Newton step does not ascend
            step = grad / max(1.0, float(np.linalg.norm(grad)))
        scale = 1.0
        for _ in range(60):
            trial = x + scale * step
            trial_ll = f(trial)
            if np.isfinite(trial_ll) and trial_ll > loglik:
                x, loglik = trial, trial_ll
                break
            scale *= 0.5
        else:
            # x is unchanged, so its gradient is the one just found too large
            if 0.0 < decrement <= 4e-15 * (1.0 + abs(loglik)):
                return x, float(loglik), iteration, gnorm
            raise FitError(
                f"line search stalled at gradient norm {gnorm:.3e}", trace
            )
    raise FitError("maximum Newton iterations exceeded", trace)


def _checked_sample(model, y, design) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DomainError("cannot fit an empty sample")
    if model.data_check is not None:
        model.data_check(y, design)
    return y


def _fit_result(model, wide, params, loglik, gnorm, iterations):
    """The FitResult of params, (k,) for one sample or (B, k) for a stack,
    with loglik and gnorm a float or a (B,) array to match."""
    p = model.p
    return FitResult(
        params=params,
        theta=params[..., :p],
        gamma=params[..., p:] if wide else None,
        loglik=point_or_stack(loglik),
        iterations=iterations,
        grad_norm=point_or_stack(gnorm),
    )


def _stacked(model, wide, fits) -> FitResult:
    """The single Newton fits in fits as one stacked FitResult."""
    return _fit_result(
        model, wide, np.array([one.params for one in fits]),
        np.array([one.loglik for one in fits]), np.array([one.grad_norm for one in fits]),
        sum(one.iterations for one in fits),
    )


def _agrees(a, b) -> bool:
    """a equals b to 1e-12 relative to b's largest finite entry."""
    b = np.asarray(b, dtype=float)
    scale = np.max(np.abs(b[np.isfinite(b)]), initial=0.0)
    return bool(np.allclose(a, b, rtol=0.0, atol=1e-12 * scale, equal_nan=True))


def _loglik(model, y, design, wide):
    """x -> the log-likelihood of y at params x: one value for y (n,) and x
    (k,), one per row for a stack of params (m, k) against y (n,) or (m, n)."""
    p = model.p
    gamma0 = np.asarray(model.gamma0, dtype=float)

    def loglik(x):
        if wide:
            gamma = x[..., p:]
        else:
            gamma = gamma0 if x.ndim == 1 else np.broadcast_to(gamma0, (len(x), gamma0.size))
        return np.sum(model.log_density(y, design, x[..., :p], gamma), axis=-1)

    return loglik


def _closed_point(model, y, design, exact, wide):
    """The closed-form fit of y, (n,) or (B, n), and its _loglik."""
    p = model.p
    if wide:
        theta, gamma = exact(y, design)
        params = np.concatenate(
            [np.asarray(theta, dtype=float), np.asarray(gamma, dtype=float)], axis=-1
        )
    else:
        params = np.asarray(exact(y, design), dtype=float)
    expected = y.shape[:-1] + (p + model.q * wide,)
    if params.shape != expected:
        raise TypeError(
            f"closed fit of {model.name!r} has shape {params.shape}, expected {expected}"
        )
    return params, _loglik(model, y, design, wide)


def _closed_fit(model, y, design, exact, wide) -> FitResult:
    """Closed-form fits of one sample (n,) or of each row of a stack
    (B, n): each row's data check, then one support check and one
    central-difference gradient check over the whole stack.

    The fit holds for every row or raises the error of the first row that
    fails a check, word for word as that row alone would. For a stack, the
    last row is also fitted alone, and a fit or log-likelihood that differs
    raises TypeError.
    """
    for row in np.atleast_2d(y):
        _checked_sample(model, row, design)
    params, loglik = _closed_point(model, y, design, exact, wide)
    ll = loglik(params)
    if y.ndim == 2:
        one, one_loglik = _closed_point(model, y[-1], design, exact, wide)
        if not (_agrees(params[-1], one) and _agrees(ll[-1], one_loglik(one))):
            raise TypeError(
                f"closed-form callables of {model.name!r} fit the last row of a "
                "stack differently from that row alone; they must accept a "
                "leading replication axis"
            )
    # A closed fit of a built-in lands outside the support only where its
    # fitted scale is exactly 0 or a variance ratio is 0/0, and its gradient
    # overflows at a finite log-likelihood only where the scale is rounding
    # noise: in both cases, as for a constant response.
    degenerate = "; the sample looks degenerate (a constant response or group?)"
    if not np.all(np.isfinite(ll)):
        raise FitError(
            f"closed fit of {model.name!r} lands outside the likelihood support{degenerate}"
        )
    gnorm = np.linalg.norm(central_gradient(loglik, params), axis=-1)
    failing = np.flatnonzero(~(gnorm <= 1e-8 * (1.0 + np.abs(ll))))
    if failing.size:
        first_ll, first_gnorm = np.ravel(ll)[failing[0]], np.ravel(gnorm)[failing[0]]
        hint = "" if np.isfinite(first_gnorm) else degenerate
        raise FitError(
            f"closed fit of {model.name!r} reports gradient norm {first_gnorm:.3e} "
            f"above tolerance{hint}", [(float(first_ll), float(first_gnorm))]
        )
    return _fit_result(model, wide, params, ll, gnorm, 0)


def _newton_fit(model, y, design, wide) -> FitResult:
    """Newton ascent from theta0, or for a wide fit from the narrow fit
    followed by gamma0, certified by maximize_loglik itself, which watches a
    wide fit's departure for a boundary (BoundaryFitError); a TypeError
    from it, such as a broken stack contract, names the model."""
    if wide:
        start = np.concatenate([fit_narrow(model, y, design).theta, model.gamma0])
    else:
        start = np.asarray(model.theta0, dtype=float)
    departure = dict(zip(model.param_names[model.p:], model.gamma0)) if wide else None
    try:
        params, loglik, iterations, gnorm = maximize_loglik(
            _loglik(model, y, design, wide), start, departure=departure
        )
    except TypeError as err:
        raise TypeError(f"log density of {model.name!r}: {err}") from err
    return _fit_result(model, wide, params, loglik, gnorm, iterations)


def _fit(model, y, design, wide) -> FitResult:
    """The fit of y, (n,) or (B, n), by its one route: the closed form, one
    Newton fit, or one Newton fit per row of a stack, in order, raising the
    first row's failure."""
    y = np.asarray(y, dtype=float)
    exact = model.wide_fit_exact if wide else model.narrow_fit_exact
    if exact is not None:
        return _closed_fit(model, y, design, exact, wide)
    if y.ndim == 2:
        fit = fit_wide if wide else fit_narrow
        return _stacked(model, wide, [fit(model, row, design) for row in y])
    return _newton_fit(model, _checked_sample(model, y, design), design, wide)


def fit_rows(model: ModelSpec, y, design: Design, wide: bool) -> tuple:
    """fit_wide (wide True) or fit_narrow, as this module binds it at call
    time, on each row of the stack y that holds: (the stacked FitResult of
    the rows kept, or None if no row is, and their indices).

    wide alone names the fit, so a wrapper installed on either fit, as
    perfbench's spans are, sees each call. This is the one place of the fit
    layer that leaves failing fit rows out. A closed form fits the whole
    stack in one call when every row holds; otherwise each row is fitted
    alone and the rows that hold are fitted again as one stack
    (numerics.rows_that_hold). A Newton fit is called on each row, and a
    row that raises a NumericsError is left out (numerics.each_that_holds).
    The rows are separate calls so that each stays a fit of its own:
    perfbench's per-fit spans and its failure ledger count them so.
    """
    fit = fit_wide if wide else fit_narrow
    if (model.wide_fit_exact if wide else model.narrow_fit_exact) is not None:
        return rows_that_hold(lambda rows: fit(model, y[rows], design), len(y))
    fits, kept = each_that_holds(lambda row: fit(model, row, design), y)
    return (_stacked(model, wide, fits) if fits else None), kept


def fit_narrow(model: ModelSpec, y, design: Design) -> FitResult:
    """Maximize the narrow likelihood (departure pinned at its null value).

    y may also be a stack (B, n) of samples on the same design: a closed
    form then fits and certifies the whole stack in one pass of array
    operations, and a Newton fit runs row by row. A stacked fit holds for
    every row or raises (see FitResult; fit_rows leaves failing rows out).
    """
    return _fit(model, y, design, wide=False)


def fit_wide(model: ModelSpec, y, design: Design) -> FitResult:
    """Maximize the wide likelihood, warm-started at the narrow fit.

    The warm start plus monotone line search guarantees the wide maximum
    is no smaller than the narrow one on the same data. y may also be a
    stack (B, n), as for fit_narrow.
    """
    return _fit(model, y, design, wide=True)
