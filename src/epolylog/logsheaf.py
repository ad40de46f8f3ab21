"""Finite-level fibers of the logarithm sheaf and their connection.

A level-n fiber is spanned by divided-power monomials w^[i,j] with
i + j <= n (i counts the first-kind direction, j the second-kind one), with
complex coefficients. The absolute connection nabla = d + Omega_z dz +
Omega_tau dtau is given by two matrices on that basis, built from the
quasi-period eta1(tau) and its closed-form derivative eta1'(tau); Omega_z
alone is the relative connection. Flatness is the matrix identity
dOmega_z/dtau = Omega_z Omega_tau - Omega_tau Omega_z, checked numerically
by curvature_residual.

The matrices come from a table per level and count of tau, independent of
tau and cached: each entry's flat position in the stacked matrices, integer
or constant coefficient, and which per-tau scalar it takes (1, eta1,
eta1/2 pi i or eta1' - eta1^2/2 pi i, Python complexes). One gather, one
product and one scatter, all on flat arrays, then build them for a list of
tau, so curvature_residual builds the centre and its six stencil tau in one
pass, each entry with the bits of an entry-by-entry loop.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .numerics import _integer, richardson, stencil_nodes
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
        _integer("level", self.n, 0)
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


@lru_cache(maxsize=64)
def _table(n: int, count: int) -> tuple:
    # tau-independent: for count tau, every entry of abs_connection's docstring
    # as its flat position in the stacked (count, 2, N, N) matrices, the flat index
    # of its scalar among the count x 4 per-tau scalars (1, eta1, eta1/2 pi i,
    # eta1' - eta1^2/2 pi i), and its integer or constant coefficient
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
    per_tau = np.arange(count)[:, None]
    arrays = ((per_tau * (2 * size * size) + flat).ravel(), (per_tau * 4 + scalar).ravel(),
              np.tile(np.array(coeff, dtype=complex), count))
    for arr in arrays:
        arr.flags.writeable = False
    return (size, *arrays)


def _connection(n: int, taus: list) -> np.ndarray:
    # (Omega_z, Omega_tau) at each tau of a list of complex tau, stacked
    # (len(taus), 2, N, N), in one scatter. The per-tau scalars are Python
    # complexes computed as an entry-by-entry loop computes them (numpy's complex
    # division rounds otherwise); a real coefficient times a scalar rounds each
    # part once, as the loop's int times complex does, and a constant times 1 is
    # exact, so every entry has the loop's bits
    size, flat, scalar, coeff = _table(n, len(taus))
    scalars = []
    for t in taus:
        eta1 = eta_periods(t).eta1
        scalars += (1.0, eta1, eta1 / TWO_PI_I, eta1_prime(t) - eta1**2 / TWO_PI_I)
    out = np.zeros(len(taus) * 2 * size * size, dtype=complex)
    out[flat] = np.array(scalars, dtype=complex)[scalar] * coeff
    return out.reshape(len(taus), 2, size, size)


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
    return tuple(_connection(_integer("level", n, 0), [_tau_of(tau)])[0])


def curvature_residual(n: int, tau) -> float:
    """Max curvature coefficient of the absolute connection at level n.

    The dz^dtau component of the curvature is the matrix
    -dOmega_z/dtau - Omega_tau Omega_z + Omega_z Omega_tau (Omega_tau does
    not depend on z); flatness means every entry vanishes. dOmega_z/dtau is
    taken by one finite-difference stencil of the matrix, which sets the
    residual floor. The stencil differences the Lambert series of eta1,
    while Omega_tau uses the closed-form eta1', so the residual compares two
    independent evaluations of eta1'. The centre and the six stencil tau are
    one pass of the connection.
    """
    n = _integer("level", n, 0)
    t = _tau_of(tau)
    h = _CURVATURE_STEP
    mats = _connection(n, [t, *stencil_nodes(t, h).tolist()])
    omega_z, omega_tau = mats[0]
    d_omega_z = richardson(mats[1:, 0], h)
    return float(np.max(np.abs(-d_omega_z - omega_tau @ omega_z + omega_z @ omega_tau)))
