"""Generalized-variance portmanteau diagnostics for ARMA models.

Library surface: ARMA specification and algebra, residual portmanteau
statistics (Ljung-Box and generalized-variance), the exact asymptotic null
law of the generalized-variance statistic with its gamma surrogate, the
Monte-Carlo test, simulation generators, and a reproducible study harness.
"""
from .arma import (
    ArmaSpec,
    NotAdmissibleError,
    check_admissible,
    psi_weights_reciprocal,
    theoretical_acvf,
)
from .asymptotic import (
    EigenSpectrum,
    GammaApprox,
    InfeasibleGammaError,
    RankDeficientError,
    gamma_distortion,
    gamma_params,
    gamma_quantile,
    gamma_tail,
    imhof_cdf,
    imhof_quantile,
    lambda_spectrum,
    q_matrix,
    x_matrix,
)
from .diagnostics import (
    NotPositiveDefinite,
    NotPositiveDefiniteError,
    PortmanteauValue,
    ResidualAcf,
    box_pierce,
    d_hat,
    d_mod,
    ljung_box,
    residual_acf,
    toeplitz_corr_det,
)
from .estimation import FitOptions, FittedModel, css_residuals, fit_arma
from .generators import (
    EmbeddingError,
    FractionalNoiseSpec,
    GarchSpec,
    RngStream,
    fn_autocorrelations,
    simulate_arma,
    simulate_fractional_noise,
    simulate_garch,
)
from .mc import McTestResult, ReplicateFailedError, mc_portmanteau_test

__version__ = "0.1.0"

__all__ = [
    "ArmaSpec",
    "EigenSpectrum",
    "EmbeddingError",
    "FitOptions",
    "FittedModel",
    "FractionalNoiseSpec",
    "GammaApprox",
    "GarchSpec",
    "InfeasibleGammaError",
    "McTestResult",
    "NotAdmissibleError",
    "NotPositiveDefinite",
    "NotPositiveDefiniteError",
    "PortmanteauValue",
    "RankDeficientError",
    "ReplicateFailedError",
    "ResidualAcf",
    "RngStream",
    "box_pierce",
    "check_admissible",
    "css_residuals",
    "d_hat",
    "d_mod",
    "fit_arma",
    "fn_autocorrelations",
    "gamma_distortion",
    "gamma_params",
    "gamma_quantile",
    "gamma_tail",
    "imhof_cdf",
    "imhof_quantile",
    "lambda_spectrum",
    "ljung_box",
    "mc_portmanteau_test",
    "psi_weights_reciprocal",
    "q_matrix",
    "residual_acf",
    "simulate_arma",
    "simulate_fractional_noise",
    "simulate_garch",
    "theoretical_acvf",
    "toeplitz_corr_det",
    "x_matrix",
]
