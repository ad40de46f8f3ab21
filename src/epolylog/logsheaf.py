"""Finite-level fibers of the logarithm sheaf and their connection.

A level-n fiber is spanned by divided-power monomials w^[i,j] with
i + j <= n (i counts the first-kind direction, j the second-kind one), with
complex coefficients. The absolute connection nabla = d + Omega_z dz +
Omega_tau dtau is given by two matrices on that basis, built from the
quasi-period eta1(tau) and its closed-form derivative eta1'(tau); Omega_z
alone is the relative connection. Flatness is the matrix identity
dOmega_z/dtau = Omega_z Omega_tau - Omega_tau Omega_z, checked numerically
by curvature_residual.

The matrices come from a table per level, independent of tau and cached:
each entry's flat position in the stacked matrices, integer or constant
coefficient, and which of four scalars at one tau it takes (1, eta1,
eta1/2 pi i or eta1' - eta1^2/2 pi i). One gather, one product and one
scatter build them, each entry with the bits of an entry-by-entry loop.
Omega_z depends on tau only through eta1, and affinely, so the same table
with dOmega_z/dtau's one scalar, the derivative of eta1, builds that matrix.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import _integer, richardson, stencil_nodes
from .weierstrass import _eta1, _tau_of, eta1_prime

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
        n = _integer("level", self.n, 0)
        if type(self.n) is not int:  # a numpy integer, stored as its int
            object.__setattr__(self, "n", n)
        clean = {}
        for (i, j), c in self.coeffs.items():
            if type(i) is not int or type(j) is not int:  # a numpy integer, or no integer
                i, j = _integer("index", i), _integer("index", j)
            if i < 0 or j < 0 or i + j > self.n:
                raise ValueError(f"index {(i, j)} outside level {self.n}")
            if c != 0:
                clean[(i, j)] = complex(c)
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


@lru_cache(maxsize=64)
def _table(n: int) -> tuple:
    # tau-independent: every entry of abs_connection's docstring as its flat
    # position in the stacked (2, N, N) matrices, the index of its scalar among
    # (1, eta1, eta1/2 pi i, eta1' - eta1^2/2 pi i), and its integer or constant
    # coefficient
    pos = {ij: k for k, ij in enumerate(basis_indices(n))}
    size = len(pos)
    entries = []  # (matrix, row, column, scalar, coefficient)
    for (i, j), col in pos.items():
        if i + j < n:
            entries.append((0, pos[i + 1, j], col, 1, -(i + 1)))
            entries.append((0, pos[i, j + 1], col, 0, j + 1))
        entries.append((1, col, col, 2, j - i))
        if i >= 1:
            entries.append((1, pos[i - 1, j + 1], col, 0, (j + 1) / TWO_PI_I))
        if j >= 1:
            entries.append((1, pos[i + 1, j - 1], col, 3, i + 1))
    flat, scalar, coeff = zip(*[((m * size + row) * size + col, s, c)
                                for m, row, col, s, c in entries])
    arrays = (np.array(flat), np.array(scalar), np.array(coeff, dtype=complex))
    for arr in arrays:
        arr.flags.writeable = False
    return (size, *arrays)


def _connection(n: int, scalars: tuple) -> np.ndarray:
    # (Omega_z, Omega_tau) stacked (2, N, N) from one tau's four scalars, in one
    # scatter. A real coefficient times a scalar rounds each part once, as an
    # entry-by-entry loop's int times complex does, and a constant times 1 is
    # exact, so every entry has the loop's bits
    size, flat, scalar, coeff = _table(n)
    out = np.zeros(2 * size * size, dtype=complex)
    out[flat] = np.array(scalars, dtype=complex)[scalar] * coeff
    return out.reshape(2, size, size)


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
    the leading (m+1)(m+2)/2 blocks of the level-n ones, m <= n. ValueError
    for a level that is not an int >= 0.
    """
    n, t = _integer("level", n, 0), _tau_of(tau)
    eta1 = _eta1(t)  # Python complex division, as the loop's (numpy's rounds otherwise)
    return tuple(_connection(n, (1.0, eta1, eta1 / TWO_PI_I, eta1_prime(t) - eta1**2 / TWO_PI_I)))


def curvature_residual(n: int, tau) -> float:
    """Max curvature coefficient of the absolute connection at level n.

    The dz^dtau component of the curvature is the matrix
    -dOmega_z/dtau - Omega_tau Omega_z + Omega_z Omega_tau (Omega_tau does
    not depend on z); flatness means every entry vanishes. Omega_z is affine
    in eta1 with slope E, -(i+1) from w^[i,j] to w^[i+1,j], so dOmega_z/dtau
    is E times the stencil derivative of the Lambert series of eta1, while
    Omega_tau uses the closed-form eta1'. The residual compares those two
    evaluations of eta1', and the commutator is eta1' E up to roundoff, so
    level n reads n times the level-1 residual (up to that roundoff).
    """
    n, t, h = _integer("level", n, 0), _tau_of(tau), _CURVATURE_STEP
    omega_z, omega_tau = abs_connection(n, t)
    # eta1 at the stencil as a numpy array: Python complex division rounds otherwise
    d_eta1 = richardson(_eta1(stencil_nodes(t, h)), h)
    d_omega_z = _connection(n, (0.0, d_eta1, 0.0, 0.0))[0]
    return float(np.max(np.abs(-d_omega_z - omega_tau @ omega_z + omega_z @ omega_tau)))
