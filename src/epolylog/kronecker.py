"""The Kronecker theta kernel J(z, w, tau) and its isogeny variants.

J(z, w) = theta(z + w) / (theta(z) theta(w)) has a simple pole along w = 0
with residue 1, satisfies the mixed heat equation
2*pi*i dJ/dtau = d^2 J / dz dw, and transforms by the z-independent factor
exp(-2*pi*i*c*w) under z -> z + c*tau + d. The degree-D variant
D^2 J(z, w) - D J(Dz, w/D) is analytic at w = 0; its Taylor coefficients
s_k, in closed form, feed the polylogarithm forms, and s_0 is the logarithmic
derivative of the Kato-Siegel theta function.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .numerics import CauchyConfig, _cosets, _integer, cauchy_coeffs, richardson, stencil_nodes
from .weierstrass import (
    ModuliPoint,
    PoleProximityError,
    _cell,
    _dist,
    _exp_taylor,
    _tau_of,
    _theta_taylor,
    _thetas,
    c_einsum,
    lattice_dist,
    theta_normalized,
)

MAX_COEFF_ORDER = 16
# heat_residual's stencil step: 1e-3 balances the nested stencil's roundoff and truncation
_HEAT_STEP = 1e-3
# _LAG[j, i]: the row j - i of the shift series, or -1, its zero row, for j < i
_LAG = np.subtract.outer(np.arange(MAX_COEFF_ORDER + 2), np.arange(MAX_COEFF_ORDER + 2))
_LAG[_LAG < 0] = -1
_LAG.flags.writeable = False
_ONE_MINUS_K = 1 - np.arange(MAX_COEFF_ORDER + 1)[:, None]  # the exponents of D^(1-k)
_ONE_MINUS_K.flags.writeable = False


@dataclass(frozen=True)
class KroneckerPoint:
    """Arguments (z, w) for the kernel at a fixed tau; z and w must keep a
    distance of 1e-8 from the lattice."""

    z: complex
    w: complex
    tau: ModuliPoint

    def __post_init__(self) -> None:
        t = _tau_of(self.tau)
        for name, x in (("z", self.z), ("w", self.w)):
            if _dist(_cell(x, t)[0]) < 1e-8:
                raise PoleProximityError(f"{name} = {x} within 1e-8 of the lattice")


def _J(z, w, t):
    # z and w scalars or arrays (broadcasting with each other and with t), at a
    # complex t or an array of tau: one engine call on the points z + w, z and w
    top, theta_z, theta_w = _thetas((z + w, z, w), t)
    return top / (theta_z * theta_w)


def _variant(z: complex, t: complex, D: int):
    """The function w -> D^2 J(z, w) - D J(Dz, w/D) on arrays w: theta(z) and
    theta(Dz) once, then one theta call at z + w, w, Dz + w/D, w/D per array."""
    theta_z, theta_dz = theta_normalized(z, t), theta_normalized(D * z, t)

    def variant(w):
        a, b, c, d = theta_normalized(np.stack([z + w, w, D * z + w / D, w / D]), t)
        return D * D * (a / (theta_z * b)) - D * (c / (theta_dz * d))
    return variant


def jacobi_J(p: KroneckerPoint) -> complex:
    """Kernel value J(z, w, tau). Symmetric in (z, w); w*J -> 1 as w -> 0."""
    return complex(_J(p.z, p.w, _tau_of(p.tau)))


def heat_residual(p: KroneckerPoint) -> float:
    """|2*pi*i dJ/dtau - d^2 J/dz dw| / max(1, |J|) by central differences from J
    on the tau stencil nodes and on the grid of z and w nodes, one call each, with
    the stencil step _HEAT_STEP."""
    h = _HEAT_STEP
    t = _tau_of(p.tau)
    margin = 10.0 * h
    for name, x in (("z", p.z), ("w", p.w), ("z+w", p.z + p.w)):
        if lattice_dist(x, t) < margin:
            raise PoleProximityError(f"{name} within {margin} of the polar locus")

    d_tau = richardson(_J(p.z, p.w, stencil_nodes(t, h)), h)
    grid = _J(stencil_nodes(p.z, h)[:, None], stencil_nodes(p.w, h), t)
    d_zw = richardson(richardson(grid.T, h), h)
    val = complex(_J(p.z, p.w, t))
    return abs(2j * cmath.pi * d_tau - d_zw) / max(1.0, abs(val))


@dataclass(frozen=True)
class DVariantCoeffs:
    """Taylor coefficients s_0..s_n of w -> D^2 J(z, w) - D J(Dz, w/D)."""

    D: int
    coeffs: tuple


def default_cauchy_config(tau, D: int) -> CauchyConfig:
    # contour must stay inside the disc punctured by the nearest D-torsion
    # offset (c*tau + d)/D; min(1, |tau|)/D bounds its distance from 0
    D = _integer("D", D, 1)
    t = _tau_of(tau)
    torsion_min = min(1.0, abs(t)) / D
    return CauchyConfig(radius=min(0.1, torsion_min / 2.0), samples=256)


def s_coeffs(z: complex, tau, D: int, n: int) -> DVariantCoeffs:
    """Coefficients s_k, k = 0..n, of the pole-free degree-D kernel variant.

    Closed form (Zagier, Invent. Math. 104, 1991): s_k = D^2 g_(k+1)(z) -
    D^(1-k) g_(k+1)(Dz), g_m(x) the w^m coefficient of w J(x, w) =
    [theta(x + w)/theta(x)] [w/theta(w)], where theta(x + w)/theta(x) =
    exp(-2 pi i c w) theta(x0 + w)/theta(x0) for x = x0 + m + c*tau.
    s_0 = D^2 zeta(z) - D zeta(Dz); rescaling w -> Dw multiplies s_k by D^k.
    ValueError for a D that is not an integer >= 1 or an order n outside
    0..MAX_COEFF_ORDER, before any tau work.
    """
    D, n = _integer("D", D, 1), _integer("coefficient order", n, 0, MAX_COEFF_ORDER)
    return DVariantCoeffs(D=D, coeffs=tuple(_s_columns(z, _tau_of(tau), D, n).tolist()))


def _s_columns(z, t, D: int, n: int) -> np.ndarray:
    """The s_k of s_coeffs, k = 0..n, along the last axis, at z and at t, a complex
    or an array of z's shape, for a checked D and n: one engine call, each column
    with its bits alone. z and Dz reduce by _cell (its scalar path for a scalar z
    at a complex t), z first, so a z that is not finite is refused before Dz."""
    (x0, _, c0), (x1, _, c1) = _cell(z, t), _cell(D * z, t)
    if min(_dist(x0), _dist(x1)) < 1e-8:
        raise PoleProximityError("z or Dz within 1e-8 of the lattice")
    # columns x = z, Dz; T holds the Taylor coefficients at x0 and at 0, per column
    x, c = np.array([x0, x1]).ravel(), np.array([c0, c1]).ravel()
    P = x.size // 2
    T = _theta_taylor(np.array([x, np.zeros(2 * P)]),
                      t if isinstance(t, complex) else np.tile(np.ravel(t), 2), n + 2)
    # the Toeplitz matrix of the shift series, its zero entries from a zero last row
    series = _exp_taylor(-2j * np.pi * c, n + 2)
    series[-1] = 0.0
    g = c_einsum("jic,ic->jc", series[_LAG[: n + 2, : n + 2]], T[: n + 2, 0] / T[0, 0])
    for j in range(1, n + 2):  # divide by theta(w)/w, the series T[1:, 1]
        g[j] -= c_einsum("ic,ic->c", T[j + 1 : 1 : -1, 1], g[:j])
    s = D * D * g[1:, :P] - float(D) ** _ONE_MINUS_K[: n + 1] * g[1:, P:]
    return s.T.reshape((() if isinstance(x0, complex) else x0.shape) + (n + 1,))


def dlog_kato_siegel(z, tau, D: int, cfg: CauchyConfig | None = None):
    """Logarithmic derivative of the Kato-Siegel theta function, the constant
    term s_0 = D^2 zeta(z) - D zeta(Dz); broadcasts over arrays of z. With
    cfg, s_0 is instead extracted on that contour (the reference path), which
    takes one scalar z: an array z raises TypeError before any sampling.

    Meromorphic with residue D^2 - 1 at lattice points and residue -1 at the
    nonzero D-torsion points; z must stay 1e-8 away from all of these.
    """
    if cfg is not None and np.ndim(z) != 0:
        raise TypeError(f"the contour path takes one z, got shape {np.shape(z)}")
    D = _integer("D", D, 1)
    t = _tau_of(tau)
    scalar = isinstance(z, (complex, float, int))
    if not (cmath.isfinite(z) if scalar else np.isfinite(z).all()):
        raise ValueError(f"z = {z} has no finite lattice coordinates")
    z = z if scalar else np.asarray(z)
    (x0, _, c0), (x1, _, c1) = _cell(z, t), _cell(D * z, t)
    if _dist(x1) / D < 1e-8:
        raise PoleProximityError(f"z = {z} within 1e-8 of the D-torsion locus")
    if cfg is not None:
        return cauchy_coeffs(_variant(z, t, D), 0, cfg)[0]
    T = _theta_taylor(np.array([x0, x1]), t, 1)
    dlog = T[1] / T[0] - 2j * np.pi * np.array([c0, c1])  # (log theta)' at z and Dz
    out = D * D * dlog[0] - D * dlog[1]
    return out if out.shape else complex(out)


def distribution_residual(p: KroneckerPoint, D: int) -> float:
    """Residual of the degree-D distribution law

      D * sum_{(c,d) mod D, != (0,0)} e^{2 pi i c z} J(Dz, w + (c tau + d)/D)
        = D^2 J(z, Dw) - D J(Dz, w),

    normalized by max(1, |J(z, w)|). Zero sum for D = 1 (residual of
    0 = D^2 J - D J collapses to 0 exactly)."""
    D = _integer("D", D, 1)
    t = _tau_of(p.tau)
    z, w = p.z, p.w
    if lattice_dist(D * w, t) / D < 1e-6:
        raise PoleProximityError("w within 1e-6 of the D-torsion locus")
    if lattice_dist(D * z, t) < 1e-6:
        raise PoleProximityError("Dz within 1e-6 of the lattice")
    cosets = _cosets(D)
    zs = np.array([D * z] * len(cosets) + [z, D * z, z])
    ws = np.array([w + (c * t + d) / D for c, d in cosets] + [D * w, w, w])
    *coset_vals, j_z_dw, j_dz_w, j_z_w = _J(zs, ws, t).tolist()
    lhs = D * sum(cmath.exp(2j * cmath.pi * c * z) * v for (c, _), v in zip(cosets, coset_vals))
    return abs(lhs - (D * D * j_z_dw - D * j_dz_w)) / max(1.0, abs(j_z_w))
