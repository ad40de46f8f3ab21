"""Finite-level fibers of the logarithm sheaf and their connections.

A level-n fiber is spanned by divided-power monomials w^[i,j] with
i + j <= n (i counts the first-kind direction, j the second-kind one).
Coefficients are complex numbers; products follow the divided-power rule
w^[i,j] w^[k,l] = C(i+k,i) C(j+l,j) w^[i+k,j+l]. The relative and absolute
connections act through the quasi-period eta1(tau); their flatness is an
algebraic cancellation, checked numerically by curvature_residual.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .numerics import DiffConfig, finite_diff
from .weierstrass import _tau_of, eta1_prime, eta_periods

TWO_PI_I = 2j * cmath.pi


class LiftSupportError(ValueError):
    """Input form has coefficients outside the pure first-kind rows (j = 0)."""


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


def dp_multiply(a: LogFiber, b: LogFiber) -> LogFiber:
    """Divided-power product; lands in level a.n + b.n with no truncation."""
    out: dict = {}
    for (i, j), ca in a.coeffs.items():
        for (k, l), cb in b.coeffs.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0.0) + ca * cb * comb(i + k, i) * comb(j + l, j)
    return LogFiber(a.n + b.n, out)


def transition(v: LogFiber) -> LogFiber:
    """Projection from level n to level n-1: drop the top total degree."""
    if v.n < 1:
        raise ValueError("transition needs level >= 1")
    kept = {k: c for k, c in v.coeffs.items() if k[0] + k[1] <= v.n - 1}
    return LogFiber(v.n - 1, kept)


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


def abs_connection(
    v: LogFiber, tau, eta1_prime_method: str = "finite_diff"
) -> LogValuedForm:
    """Absolute connection: the relative dz part plus the dtau action

      w^[k,j] -> [ (j-k) (eta1/2 pi i) w^[k,j]
                   + (j+1)/(2 pi i) w^[k-1,j+1]
                   + (k+1) (eta1' - eta1^2/2 pi i) w^[k+1,j-1] ] dtau.

    The dtau action preserves total degree, so no truncation occurs there.
    """
    t = _tau_of(tau)
    eta1 = eta_periods(t).eta1
    d_eta1 = eta1_prime(t, method=eta1_prime_method)
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


def gauss_manin_matrix(tau, eta1_prime_method: str = "finite_diff") -> np.ndarray:
    """Connection matrix on the rank-2 de Rham fiber in the (first-kind,
    second-kind) basis; trace-free with the Legendre relation built in."""
    t = _tau_of(tau)
    eta1 = eta_periods(t).eta1
    d_eta1 = eta1_prime(t, method=eta1_prime_method)
    return np.array(
        [
            [-eta1 / TWO_PI_I, d_eta1 - eta1**2 / TWO_PI_I],
            [1.0 / TWO_PI_I, eta1 / TWO_PI_I],
        ],
        dtype=complex,
    )


def curvature_residual(
    n: int, tau, cfg: DiffConfig | None = None, eta1_prime_method: str = "finite_diff"
) -> float:
    """Max curvature coefficient of the absolute connection at level n.

    For each basis vector v with nabla v = A dz + B dtau, the dz^dtau
    component of (d + nabla^)(nabla v) is  -dA/dtau - nabla_tau(A)
    + nabla_z(B); flatness means every coefficient vanishes. A and B have
    tau-dependent coefficients, so dA/dtau is taken by finite differences;
    the residual floor is set by that stencil.
    """
    cfg = cfg or DiffConfig(step=1e-5, richardson_levels=2)
    t = _tau_of(tau)
    worst = 0.0
    for (i, j) in basis_indices(n):
        v = LogFiber.basis(n, i, j)
        conn = abs_connection(v, t, eta1_prime_method)
        A, B = conn.dz, conn.dtau
        dA = LogFiber.from_vector(n, finite_diff(
            lambda s: abs_connection(v, s, eta1_prime_method).dz.vector(), t, cfg))
        nab_tau_A = abs_connection(A, t, eta1_prime_method).dtau
        nab_z_B = abs_connection(B, t, eta1_prime_method).dz
        resid = dA.scale(-1.0).add(nab_tau_A.scale(-1.0)).add(nab_z_B)
        worst = max(worst, resid.max_abs())
    return worst


def ks_lift(form: LogValuedForm) -> LogValuedForm:
    """Lift of a relative 1-form to an absolute one, defined on forms whose
    dz component lives on the pure rows (k, 0) and whose dtau part vanishes:

      c w^[k,0] dz  ->  c w^[k,0] dz + (c / 2 pi i) w^[k-1,0] dtau

    at one level lower (coefficients beyond the target level are dropped).
    """
    if form.dtau.coeffs:
        raise LiftSupportError("input must be a purely relative (dz) form")
    if any(j != 0 for (_, j) in form.dz.coeffs):
        raise LiftSupportError("dz coefficients must sit on the rows (k, 0)")
    if form.n < 1:
        raise ValueError("lift needs level >= 1")
    m = form.n - 1
    dz: dict = {}
    dtau: dict = {}
    for (k, _), c in form.dz.coeffs.items():
        if k <= m:
            dz[(k, 0)] = c
        if k >= 1 and k - 1 <= m:
            dtau[(k - 1, 0)] = dtau.get((k - 1, 0), 0.0) + c / TWO_PI_I
    return LogValuedForm(n=m, dz=LogFiber(m, dz), dtau=LogFiber(m, dtau))
