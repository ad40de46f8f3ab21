"""Numerics for the elliptic polylogarithm: Weierstrass and theta kernels,
divided-power logarithm fibers with their connections, level-N Eisenstein
series, and the torsion specialization tying them together."""

from .eisenstein import (
    ConvergenceModeError,
    DegenerateLabelError,
    EisensteinQuery,
    F,
    F_tilde,
    eisenstein_sum_k2,
)
from .kronecker import (
    DVariantCoeffs,
    KroneckerPoint,
    default_cauchy_config,
    distribution_residual,
    dlog_kato_siegel,
    heat_residual,
    jacobi_J,
    s_coeffs,
)
from .logsheaf import (
    LogFiber,
    LogValuedForm,
    abs_connection,
    basis_indices,
    curvature_residual,
)
from .numerics import (
    AliasingError,
    CauchyConfig,
    LatticeTruncation,
    NonFiniteError,
    cauchy_coeffs,
    contour_integral,
)
from .polylog import (
    L_form,
    TorsionLabel,
    closedness_residual,
    specialize_eisenstein,
)
from .weierstrass import (
    ConvergenceError,
    ModuliPoint,
    PoleProximityError,
    QuasiPeriods,
    eta1_prime,
    eta_periods,
    g_invariants,
    lattice_dist,
    theta_normalized,
    wp,
    zeta_fn,
)

__version__ = "0.1.0"
