"""Finite-level fibers of the logarithm sheaf and their connections.

A level-n fiber is spanned by divided-power monomials w^[i,j] with
i + j <= n (i counts the first-kind direction, j the second-kind one), with
complex coefficients. The relative and absolute connections act through the
quasi-period eta1(tau) and its closed-form derivative eta1'(tau); their
flatness is an algebraic cancellation, checked numerically by
curvature_residual.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .numerics import DiffConfig, finite_diff
from .weierstrass import _tau_of, eta1_prime, eta_periods

TWO_PI_I = 2j * cmath.pi
# the dA/dtau stencil of curvature_residual
_CURVATURE_STENCIL = DiffConfig(step=1e-5, richardson_levels=2)


@dataclass(frozen=True)
class LogFiber:
    """Element of the level-n fiber: coefficients on the basis w^[i,j].

    Treat instances as immutable values; all operations return new fibers.
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

    @classmethod
    def zero(cls, n: int) -> "LogFiber":
        return cls(n, {})

    @classmethod
    def basis(cls, n: int, i: int, j: int) -> "LogFiber":
        return cls(n, {(i, j): 1.0 + 0.0j})

    def get(self, i: int, j: int) -> complex:
        return self.coeffs.get((i, j), 0.0 + 0.0j)

    def add(self, other: "LogFiber") -> "LogFiber":
        if other.n != self.n:
            raise ValueError(f"level mismatch {self.n} != {other.n}")
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0.0) + c
        return LogFiber(self.n, out)

    def scale(self, c: complex) -> "LogFiber":
        return LogFiber(self.n, {k: c * v for k, v in self.coeffs.items()})

    def max_abs(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)

    def vector(self) -> np.ndarray:
        """Dense coefficients in the order of basis_indices(n)."""
        return np.array([self.get(i, j) for (i, j) in basis_indices(self.n)], dtype=complex)

    @classmethod
    def from_vector(cls, n: int, vec) -> "LogFiber":
        """Inverse of vector(): coefficients in the order of basis_indices(n)."""
        return cls(n, dict(zip(basis_indices(n), vec)))


@dataclass(frozen=True)
class LogValuedForm:
    """Fiber-valued 1-form P dz + Q dtau at a fixed level."""

    n: int
    dz: LogFiber
    dtau: LogFiber

    def __post_init__(self) -> None:
        if self.dz.n != self.n or self.dtau.n != self.n:
            raise ValueError("component levels disagree with the form level")

    def max_abs(self) -> float:
        return max(self.dz.max_abs(), self.dtau.max_abs())


def basis_indices(n: int) -> list:
    """All (i, j) with i + j <= n, ordered by total degree then i."""
    return [(i, d - i) for d in range(n + 1) for i in range(d + 1)]


def rel_connection(v: LogFiber, tau) -> LogValuedForm:
    """Relative connection: only a dz component,

      w^[i,j] -> (-(i+1) eta1 w^[i+1,j] + (j+1) w^[i,j+1]) dz,

    with images beyond total degree n dropped."""
    t = _tau_of(tau)
    eta1 = eta_periods(t).eta1
    n = v.n
    dz: dict = {}
    for (i, j), c in v.coeffs.items():
        if i + j + 1 <= n:
            dz[(i + 1, j)] = dz.get((i + 1, j), 0.0) - (i + 1) * eta1 * c
            dz[(i, j + 1)] = dz.get((i, j + 1), 0.0) + (j + 1) * c
    return LogValuedForm(n=n, dz=LogFiber(n, dz), dtau=LogFiber.zero(n))


def abs_connection(v: LogFiber, tau) -> LogValuedForm:
    """Absolute connection: the relative dz part plus the dtau action

      w^[k,j] -> [ (j-k) (eta1/2 pi i) w^[k,j]
                   + (j+1)/(2 pi i) w^[k-1,j+1]
                   + (k+1) (eta1' - eta1^2/2 pi i) w^[k+1,j-1] ] dtau.

    The dtau action preserves total degree, so no truncation occurs there.
    """
    t = _tau_of(tau)
    eta1 = eta_periods(t).eta1
    d_eta1 = eta1_prime(t)
    n = v.n
    rel = rel_connection(v, t)
    dtau: dict = {}

    def acc(key, val):
        dtau[key] = dtau.get(key, 0.0) + val

    for (k, j), c in v.coeffs.items():
        if j != k:
            acc((k, j), (j - k) * (eta1 / TWO_PI_I) * c)
        if k >= 1:
            acc((k - 1, j + 1), (j + 1) / TWO_PI_I * c)
        if j >= 1:
            acc((k + 1, j - 1), (k + 1) * (d_eta1 - eta1**2 / TWO_PI_I) * c)
    return LogValuedForm(n=n, dz=rel.dz, dtau=LogFiber(n, dtau))


def curvature_residual(n: int, tau) -> float:
    """Max curvature coefficient of the absolute connection at level n.

    For each basis vector v with nabla v = A dz + B dtau, the dz^dtau
    component of (d + nabla^)(nabla v) is  -dA/dtau - nabla_tau(A)
    + nabla_z(B); flatness means every coefficient vanishes. A and B have
    tau-dependent coefficients, so dA/dtau is taken by finite differences;
    the residual floor is set by that stencil. The stencil differences the
    Lambert series of eta1, while nabla uses the closed-form eta1', so the
    residual compares two independent evaluations of eta1'.
    """
    t = _tau_of(tau)
    worst = 0.0
    for (i, j) in basis_indices(n):
        v = LogFiber.basis(n, i, j)
        conn = abs_connection(v, t)
        A, B = conn.dz, conn.dtau
        dA = LogFiber.from_vector(n, finite_diff(
            lambda s: abs_connection(v, s).dz.vector(), t, _CURVATURE_STENCIL))
        nab_tau_A = abs_connection(A, t).dtau
        nab_z_B = abs_connection(B, t).dz
        resid = dA.scale(-1.0).add(nab_tau_A.scale(-1.0)).add(nab_z_B)
        worst = max(worst, resid.max_abs())
    return worst

