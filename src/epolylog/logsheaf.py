"""Finite-level fibers of the logarithm sheaf and their connection.

A level-n fiber is spanned by divided-power monomials w^[i,j] with
i + j <= n (i counts the first-kind direction, j the second-kind one), with
complex coefficients. The absolute connection nabla = d + Omega_z dz +
Omega_tau dtau is given by two matrices on that basis, built from the
quasi-period eta1(tau) and its closed-form derivative eta1'(tau); Omega_z
alone is the relative connection. Flatness is the matrix identity
dOmega_z/dtau = Omega_z Omega_tau - Omega_tau Omega_z, checked numerically
by curvature_residual.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .numerics import richardson, stencil_nodes
from .weierstrass import _tau_of, eta1_prime, eta_periods

TWO_PI_I = 2j * cmath.pi
# the step of curvature_residual's dOmega_z/dtau stencil
_CURVATURE_STEP = 1e-5


@dataclass(frozen=True)
class LogFiber:
    """Element of the level-n fiber: coefficients on the basis w^[i,j].

    Treat instances as immutable values.
    """

    n: int
    coeffs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"level must be >= 0, got {self.n}")
        clean = {}
        for (i, j), c in self.coeffs.items():
            if i < 0 or j < 0 or i + j > self.n:
                raise ValueError(f"index {(i, j)} outside level {self.n}")
            if c != 0:
                clean[(int(i), int(j))] = complex(c)
        object.__setattr__(self, "coeffs", clean)

    def get(self, i: int, j: int) -> complex:
        return self.coeffs.get((i, j), 0.0 + 0.0j)


@dataclass(frozen=True)
class LogValuedForm:
    """Fiber-valued 1-form P dz + Q dtau at a fixed level."""

    n: int
    dz: LogFiber
    dtau: LogFiber

    def __post_init__(self) -> None:
        if self.dz.n != self.n or self.dtau.n != self.n:
            raise ValueError("component levels disagree with the form level")


def basis_indices(n: int) -> list:
    """All (i, j) with i + j <= n, ordered by total degree then i."""
    return [(i, d - i) for d in range(n + 1) for i in range(d + 1)]


def abs_connection(n: int, tau) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (Omega_z, Omega_tau) of the absolute connection at level n,
    rows and columns in the order of basis_indices(n); column (i, j) is the
    image of w^[i,j]:

      nabla_z   w^[i,j] = -(i+1) eta1 w^[i+1,j] + (j+1) w^[i,j+1],
      nabla_tau w^[i,j] = (j-i) (eta1/2 pi i) w^[i,j]
                          + (j+1)/(2 pi i) w^[i-1,j+1]
                          + (i+1) (eta1' - eta1^2/2 pi i) w^[i+1,j-1].

    nabla_z drops images beyond total degree n; nabla_tau preserves total
    degree, so no truncation occurs there. Hence the level-m matrices are
    the leading (m+1)(m+2)/2 blocks of the level-n ones, m <= n.
    """
    t = _tau_of(tau)
    eta1 = eta_periods(t).eta1
    d_eta1 = eta1_prime(t)
    pos = {ij: k for k, ij in enumerate(basis_indices(n))}
    omega_z = np.zeros((len(pos), len(pos)), dtype=complex)
    omega_tau = np.zeros_like(omega_z)
    for (i, j), col in pos.items():
        if i + j < n:
            omega_z[pos[i + 1, j], col] = -(i + 1) * eta1
            omega_z[pos[i, j + 1], col] = j + 1
        omega_tau[col, col] = (j - i) * (eta1 / TWO_PI_I)
        if i >= 1:
            omega_tau[pos[i - 1, j + 1], col] = (j + 1) / TWO_PI_I
        if j >= 1:
            omega_tau[pos[i + 1, j - 1], col] = (i + 1) * (d_eta1 - eta1**2 / TWO_PI_I)
    return omega_z, omega_tau


def curvature_residual(n: int, tau) -> float:
    """Max curvature coefficient of the absolute connection at level n.

    The dz^dtau component of the curvature is the matrix
    -dOmega_z/dtau - Omega_tau Omega_z + Omega_z Omega_tau (Omega_tau does
    not depend on z); flatness means every entry vanishes. dOmega_z/dtau is
    taken by one finite-difference stencil of the matrix, which sets the
    residual floor. The stencil differences the Lambert series of eta1,
    while Omega_tau uses the closed-form eta1', so the residual compares two
    independent evaluations of eta1'.
    """
    t = _tau_of(tau)
    omega_z, omega_tau = abs_connection(n, t)
    h = _CURVATURE_STEP
    d_omega_z = richardson([abs_connection(n, s)[0] for s in stencil_nodes(t, h).tolist()], h)
    return float(np.max(np.abs(-d_omega_z - omega_tau @ omega_z + omega_z @ omega_tau)))
