"""Mass exponents, singularity spectrum and the tau nonlinearity test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dma import DmaError, HurstCurve
from .stats import PolyFitReport, ols_polyfit


@dataclass(frozen=True)
class JointSpectrumResult:
    """Scaling exponents and their Legendre-transform spectrum.

    tau = q*h - 1, alpha = dtau/dq, f = q*alpha - tau, and delta_alpha
    is the spread of alpha over the grid.  The defining identities are
    asserted on construction.
    """

    q_grid: np.ndarray
    h: np.ndarray
    tau: np.ndarray
    alpha: np.ndarray
    f_alpha: np.ndarray
    delta_alpha: float

    def __post_init__(self):
        q, h, tau = self.q_grid, self.h, self.tau
        if not (q.size == h.size == tau.size == self.alpha.size == self.f_alpha.size):
            raise DmaError("spectrum component lengths differ")
        if np.max(np.abs(tau - (q * h - 1.0))) > 1e-12:
            raise DmaError("tau does not satisfy tau = q*h - 1")
        if np.max(np.abs(self.f_alpha - (q * self.alpha - tau))) > 1e-12:
            raise DmaError("f does not satisfy f = q*alpha - tau")
        if abs(self.delta_alpha - (self.alpha.max() - self.alpha.min())) > 1e-12:
            raise DmaError("delta_alpha inconsistent with alpha range")


@dataclass(frozen=True)
class TauNonlinearityReport:
    """Quadratic fit of tau(q) with the curvature-significance flag.

    The flag is raised only for negative curvature that is significant at
    the configured level; a positive quadratic coefficient counts against
    multifractality no matter how significant.
    """

    fit: PolyFitReport
    significance_level: float
    multifractal_flag: bool


def joint_spectrum(hurst: HurstCurve) -> JointSpectrumResult:
    """The spectrum of a Hurst curve.

    tau = q*h - 1; alpha = dtau/dq by central differences inside and
    one-sided second-order stencils at the two endpoints, exact for
    quadratic tau; f = q*alpha - tau.
    """
    q = hurst.q_grid
    if not np.all(np.isfinite(hurst.h)):
        raise DmaError("non-finite Hurst values")
    if q.size < 3:
        raise DmaError("need at least 3 grid points for the derivative")
    tau = q * hurst.h - 1.0
    alpha = np.gradient(tau, q, edge_order=2)
    f_alpha = q * alpha - tau
    return JointSpectrumResult(q_grid=q, h=hurst.h, tau=tau, alpha=alpha,
                               f_alpha=f_alpha,
                               delta_alpha=float(alpha.max() - alpha.min()))


def tau_nonlinearity_test(q_grid: np.ndarray, tau: np.ndarray,
                          level: float) -> TauNonlinearityReport:
    """Quadratic regression tau ~ a0 + a1 q + a2 q^2 and curvature flag."""
    if not (0.0 < level < 1.0):
        raise DmaError(f"level must be in (0,1), got {level}")
    q_grid = np.asarray(q_grid, dtype=np.float64)
    if q_grid.size < 5:
        raise DmaError("need at least 5 grid points for the quadratic test")
    fit = ols_polyfit(q_grid, np.asarray(tau, dtype=np.float64), degree=2)
    a2 = fit.coefficients[2]
    flag = bool(a2 < 0.0 and fit.t_pvalues[2] < level)
    return TauNonlinearityReport(fit=fit, significance_level=level,
                                 multifractal_flag=flag)
