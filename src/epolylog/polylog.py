"""Polylogarithm 1-forms with values in the logarithm fibers, and their
specialization at torsion points to level-N Eisenstein series.

The absolute form at level n, built from the degree-D kernel coefficients
s_k, is

  L_n = sum_{k<=n} k! s_k w^[k,0] dz
        + sum_{k<=n} (k+1)! s_{k+1} / (2 pi i) w^[k,0] dtau

and is closed for the absolute connection: with the matrices Omega_z,
Omega_tau of logsheaf.abs_connection, -dP/dtau - Omega_tau P + dQ/dz +
Omega_z Q = 0 for L_n = P dz + Q dtau. Evaluating the coefficient tower
at an N-torsion point collapses, for each k, to the smoothed weight-(k+1)
Eisenstein series D^2 F^(k+1)_(a,b) - D^(1-k) F^(k+1)_(Da,Db); the sum
computed here, by eisenstein._lattice_sums over the nonzero cosets, is

  (-1)^k k! D^(1-k) sum_{(c,d) mod D != (0,0)} sum_{(m,n) in Z^2}
      zeta_N^((Dm+c) b - (Dn+d) a) / ((m + c/D) tau + (n + d/D))^(k+1),

with the character on the actual lattice coordinates and the inner origin
included (only the global coset (0,0) is removed). That dispatch holds the
rules of where the sum converges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .eisenstein import _check_label, _factorial, _finite, _lattice_sums
from .kronecker import MAX_COEFF_ORDER, _s_columns
from .logsheaf import TWO_PI_I, LogFiber, LogValuedForm, abs_connection
from .numerics import _integer, richardson, stencil_nodes
from .weierstrass import PoleProximityError, _tau_of, lattice_dist

_FACT = np.array([float(math.factorial(k)) for k in range(MAX_COEFF_ORDER + 1)])
# the step of closedness_residual's dP/dtau and dQ/dz stencils
_CLOSEDNESS_STEP = 1e-4


@dataclass(frozen=True)
class TorsionLabel:
    """N-torsion label (a/N, b/N) with isogeny degree D.

    (a, b) must be nonzero mod N (DegenerateLabelError). D = 1 is allowed as
    the degenerate case (empty coset sum). a, b, N and D are integers (numpy
    integers too, stored as ints; not bools), N and D >= 1."""

    a: int
    b: int
    N: int
    D: int

    def __post_init__(self) -> None:
        _check_label(self, "D")


def _checked(D, n) -> tuple[int, int]:
    # the degree D and the level n of the public forms, before any tau work
    return _integer("D", D, 1), _integer("level", n, 0, MAX_COEFF_ORDER - 1)


def _rows(z, t, D: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The coefficients of L_n on the rows w^[k,0], k = 0..n, along the last
    axis, at z and t (as in kronecker._s_columns), from the s_k to order n + 1:
    k! s_k (dz) and (k+1)! s_(k+1) / (2 pi i) (dtau), for a D and n _checked."""
    f = _FACT[: n + 2] * _s_columns(z, t, D, n + 1)  # k! s_k, k = 0..n + 1
    y = f[..., 1:]  # over 2 pi i below as Python's complex division rounds it
    return f[..., :-1], y.imag / TWO_PI_I.imag - 1j * (y.real / TWO_PI_I.imag)


def L_form(z: complex, tau, D: int, n: int) -> LogValuedForm:
    """Absolute polylogarithm form at level n: the relative coefficients
    k! s_k dz plus the dtau tower (k+1)! s_(k+1) / (2 pi i), both on the
    rows w^[k,0]. ValueError for a D that is not an integer >= 1 or a level
    outside 0..MAX_COEFF_ORDER - 1, before any tau work."""
    D, n = _checked(D, n)
    dz, dtau = _rows(z, _tau_of(tau), D, n)
    return LogValuedForm(n=n, dz=LogFiber(n, {(k, 0): c for k, c in enumerate(dz.tolist())}),
                         dtau=LogFiber(n, {(k, 0): c for k, c in enumerate(dtau.tolist())}))


def closedness_residual(z: complex, tau, D: int, n: int) -> float:
    """Worst closedness residual of L_m over the levels m = 0..n: the max
    coefficient of d(L_m) + nabla ^ L_m over the level-m basis, normalized by
    the largest coefficient of L_m.

    With L = P dz + Q dtau, on dense coefficient vectors, the dz^dtau
    component is -dP/dtau - Omega_tau P + dQ/dz + Omega_z Q with the matrices
    of logsheaf.abs_connection; closedness of the absolute form makes every
    entry cancel. P and Q depend on (z, tau) through the kernel coefficients,
    differentiated by central stencils: one _rows call on the centre, the z
    nodes and the tau nodes (13 columns, each with the bits it has alone), then
    numerics.richardson. L_m is the rows k <= m of L_n and the level-m
    connection the leading block of the level-n one, so the level-m residual
    is the leading (m+1)(m+2)/2 entries of the level-n one. D and n are
    checked as in L_form.
    """
    D, n = _checked(D, n)
    t = _tau_of(tau)
    h = _CLOSEDNESS_STEP
    margin = 10.0 * h
    if lattice_dist(z, t) < margin or lattice_dist(D * z, t) < D * margin:
        raise PoleProximityError(f"z = {z} too close to the polar locus for the stencil")
    zs, ts = stencil_nodes(z, h), stencil_nodes(t, h)
    Ps, Qs = _rows(np.r_[z, zs, [z] * len(ts)], np.r_[t, [t] * len(zs), ts], D, n)
    P, Q = Ps[0], Qs[0]
    dP, dQ = richardson(Ps[-len(ts):], h), richardson(Qs[1:-len(ts)], h)
    omega_z, omega_tau = abs_connection(n, t)
    # dense vectors: w^[k,0] sits at k(k+3)/2 in basis_indices(n)
    p, q, dp, dq = np.zeros((4, len(omega_z)), dtype=complex)
    pos = [k * (k + 3) // 2 for k in range(n + 1)]
    p[pos], q[pos], dp[pos], dq[pos] = P, Q, dP, dQ
    resid = np.abs(-dp - omega_tau @ p + dq + omega_z @ q)
    scale = np.maximum(np.abs(P), np.abs(Q))
    levels = [np.max(resid[: (m + 1) * (m + 2) // 2]) / max(np.max(scale[: m + 1]), 1e-300)
              for m in range(n + 1)]
    return float(np.max(levels))  # nan wherever one sits, unlike max()


def specialize_eisenstein(
    label: TorsionLabel, tau, k: int, mode: str = "lipschitz", trunc=None
) -> complex:
    """Torsion specialization of the level-k polylogarithm coefficient: the
    coset lattice sum described in the module docstring, equal to the
    smoothed Eisenstein series D^2 F^(k+1)_(a,b) - D^(1-k) F^(k+1)_(Da,Db).

    k >= 2 gives absolutely convergent inner sums (any mode), k = 1 needs
    lipschitz rows or the naive eisenstein ordering, and k = 0 the latter. A
    value that overflows raises NonFiniteError naming the weight k + 1.
    """
    k, D = _integer("k", k, 0), label.D
    prefac = (-1) ** k * _factorial(k) * float(D) ** (1 - k)
    cosets = [(c, d) for c in range(D) for d in range(D) if c or d]
    total, = _lattice_sums([(label.a, label.b)], label.N, D, cosets, _tau_of(tau), k + 1, mode,
                           trunc)
    return _finite(prefac * total, k + 1, mode)
