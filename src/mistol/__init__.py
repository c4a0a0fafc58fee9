"""Misspecification tolerance for narrow versus wide parametric models.

The library quantifies how large a parametric departure can get before
maximum-likelihood inference in a deliberately narrow model loses to the
wide model that includes the departure: tolerance radii, danger indices,
compromise estimators between the two fits, their limiting risk curves,
and seeded Monte Carlo verification.
"""

from .estimators import (
    AEstimator,
    AtomPrior,
    BoundaryFitError,
    DensityPrior,
    FitError,
    FitResult,
    bayes_estimator,
    bayes_posterior,
    catalogue,
    compromise_estimate,
    debias_estimate,
    estimator_names,
    fit_narrow,
    fit_wide,
    harmonic_compromise,
    parse_estimator,
    qhat_weight,
    z_statistic,
)
from .mcstudy import (
    KappaStudy,
    StudyConfig,
    StudyError,
    StudyResult,
    coverage_study,
    finite_sample_mse,
    kappa_by_simulation,
)
from .models import (
    Design,
    Estimand,
    ModelSpec,
    builtin_catalogue,
    get_model,
    information_at_null,
    mean_abs_departure_score,
    reparameterised_noise_summaries,
    transformation_constants,
    uniform_grid_design,
)
from .numerics import (
    DomainError,
    NumericsError,
    PartitionedInfo,
    SingularBlockError,
    partitioned_inverse,
    replication_rng,
)
from .risk import (
    LimitGeometry,
    RiskProfile,
    ci_coverage,
    crossing_points,
    interval_risk,
    l1_risk,
    l1_tolerance,
    level_crossings,
    limit_geometry,
    limit_mse,
    mean_abs_normal,
    risk_closed_form,
    risk_crossings,
    risk_numeric,
    risk_profile,
    risk_table,
    write_risk_csv,
)
from .tolerance import (
    ToleranceReport,
    aic_narrow_prob,
    border_distances,
    danger_index,
    detection_power,
    kappa,
    kappa_squared_block,
    narrow_better,
    schwarz_narrow_prob,
    tolerance_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
