"""Weierstrass functions on the lattice Z + Z*tau via q-series: one theta engine
(_theta_taylor: Jacobi series weights, per tau times a tau-independent table) under
the theta family and kronecker._s_columns, and one Lambert engine (_lambert: half
lattices of rows T(x, xi, s), summed by frequency) under E2, E4 and E6, so eta1,
eta1', g2 and g3, and under eisenstein's Lipschitz sums, at tau' of _reduce.
The evaluators broadcast over z and tau; the package's batched paths call their
private cores (_cell, _theta, _thetas, _zeta, _wp, _eta1), so that a public
function is only ever called at one tau from inside the package.

Conventions: eta1 is the quasi-period with eta1(i) = +pi and
zeta(z+1) - zeta(z) = eta1; eta2 = eta1*tau - 2*pi*i (Legendre relation with
the period pair (1, tau)). theta_normalized is the odd Jacobi theta scaled so
that theta(z) = z + O(z^3) at the origin.

All evaluators reduce z into the fundamental cell around 0 and apply exact
quasi-period laws, so accuracy is uniform over the plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from numpy._core.multiarray import c_einsum  # np.einsum without its Python wrapper


class PoleProximityError(ValueError):
    """Evaluation point is too close to a pole (within 1e-8 of the lattice), or a
    finite-difference stencil around it would come within its margin of the polar
    locus."""


class ConvergenceError(ArithmeticError):
    """Series truncation cannot reach the requested accuracy."""


@dataclass(frozen=True)
class ModuliPoint:
    """A point tau of the upper half plane, finite (ValueError otherwise, as in every evaluator)."""

    tau: complex

    def __post_init__(self) -> None:
        _tau_of(self.tau)


@dataclass(frozen=True)
class QuasiPeriods:
    eta1: complex
    eta2: complex


def _tau_of(tau):
    # tau as a complex, or as a complex array for an array of tau; ValueError for a
    # tau that is not finite (whose q-series and reduction would give nan)
    t = tau.tau if isinstance(tau, ModuliPoint) else tau
    t = complex(t) if isinstance(t, (complex, float, int, np.number)) else np.asarray(t, complex)
    if not (cmath.isfinite(t) if isinstance(t, complex) else np.isfinite(t).all()):
        raise ValueError(f"tau must be finite, got {t}")
    if not (t.imag > 0.0 if isinstance(t, complex) else (t.imag > 0.0).all()):
        raise ValueError(f"Im tau must be positive, got {t}")
    return t


def _cell(z, t) -> tuple:
    # z = z0 + m + n*t with m = round(alpha), n = round(beta) for the real
    # coordinates z = alpha + beta*t, ties to even, at t from _tau_of. A Python or
    # numpy scalar z at a complex t gives a Python complex z0 and Python ints m, n;
    # any other input (an array of z, or of t, which broadcast) works elementwise
    # and gives arrays, with the same bits. Raises ValueError if alpha or beta is
    # not finite.
    if isinstance(z, (complex, float, int)) and isinstance(t, complex):
        z = complex(z)
        beta = z.imag / t.imag
        alpha = z.real - beta * t.real
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ValueError(f"z = {z} has no finite lattice coordinates")
        m, n = round(alpha), round(beta)
        # copysign keeps the signed zeros of np.round, so z0 matches the array path
        return z - math.copysign(m, alpha) - math.copysign(n, beta) * t, m, n
    z = np.asarray(z, dtype=complex)
    beta = z.imag / t.imag
    alpha = z.real - beta * t.real
    if not (np.isfinite(alpha).all() and np.isfinite(beta).all()):
        raise ValueError("z has no finite lattice coordinates")
    m = np.round(alpha)
    n = np.round(beta)
    z0 = z - m - n * t
    return z0, m.astype(int), n.astype(int)


def _dist(z0) -> float:
    # the least abs(z0) of a reduction
    return abs(z0) if isinstance(z0, complex) else float(np.abs(z0).min())


def lattice_dist(z, tau) -> float:
    """Distance from z to the lattice point m + n*tau it reduces to (the least
    such distance over an array)."""
    return _dist(_cell(z, _tau_of(tau))[0])


def _exp_taylor(x: np.ndarray, m: int) -> np.ndarray:
    """Rows x^j / j!, j = 0..m: the Taylor coefficients of exp(x w) in w, the running
    product of the rows 1 and x / j, in place in one array."""
    out = np.empty((m + 1, len(x)), dtype=x.dtype)
    out[0] = 1.0
    np.divide(x, np.arange(1, m + 1)[:, None], out=out[1:])
    return np.multiply.accumulate(out, axis=0, out=out)


@lru_cache(maxsize=None)  # K < 200 and m <= MAX_COEFF_ORDER + 2 bound the keys
def _jacobi_table(K: int, m: int) -> tuple:
    # tau-independent: k, (-1)^k, k + 1, a_k and the rows (-1)^(j//2) a_k^j / j!,
    # since d^j/dz^j sin(a z) = a^j sin(a z + j pi/2) (the sign + + - - is exact);
    # all but a_k are stored complex, the type numpy casts them to in the weights'
    # products, which then take the same values without the cast
    k = np.arange(K)
    sign, k1, a = (-1.0) ** k, k + 1, (2 * k + 1) * np.pi
    rows = (-1.0) ** (np.arange(m + 1) // 2)[:, None] * _exp_taylor(a, m)
    k, sign, k1, rows = (arr.astype(complex) for arr in (k, sign, k1, rows))
    for arr in (k, sign, k1, a, rows):
        arr.flags.writeable = False
    return k, sign, k1, a, rows


@lru_cache(maxsize=256)
def _jacobi_weights(t: complex, m: int) -> tuple:
    # frequencies a_k, and weights c_k times the table rows on sin(a_k z) (rows j
    # even) or cos(a_k z), at t reduced by _translate (the weights are 1-periodic);
    # at |Im z| <= Im(tau)/2 term k is below exp(-pi Im(tau) k^2)
    # (2k+1)^m times term 0, and the terms stop under e^-42; no k with
    # pi Im(tau) k^2 <= 42 passes, so the search starts at sqrt(42 / (pi Im tau))
    t = _translate(t)[0]
    pi_im = math.pi * t.imag
    k0 = max(1, int(min(math.sqrt(42.0 / pi_im), 200.0)))
    K = next((k for k in range(k0, 200) if pi_im * k * k - m * math.log(2 * k + 1) > 42.0
              and pi_im * k * (2 * k + 1) > m), None)
    if K is None:
        raise ConvergenceError(f"Im tau = {t.imag} too small for the theta series")
    k, sign, k1, a, rows = _jacobi_table(K, m)
    c = sign * np.exp(1j * np.pi * t * k * k1)  # q^(-1/4) cancels
    norm = c @ a
    # the result's relative error is about 1e-16 times the cancellation of
    # the alternating sum for theta_1'(0), which grows like e^(pi / (4 Im tau))
    cancellation = (np.abs(c) @ a) / abs(norm)
    if not cancellation < 1e6:
        raise ConvergenceError(f"Im tau = {t.imag} too small for the theta series: "
                               f"its terms cancel {cancellation:.1e}-fold")
    w = (c / norm) * rows
    w.flags.writeable = False
    return a, w


def _theta_taylor(z0, t, m: int) -> np.ndarray:
    """Taylor coefficients theta^(j)(z0)/j!, j = 0..m, shape (m + 1,) + the shape of
    z0 and t (a complex or an array) broadcast, at z0 in the cell of t: theta_1(pi z)
    = 2 sum_k (-1)^k q^((k+1/2)^2) sin((2k+1) pi z), q = e^(i pi tau), over pi
    theta_1'(0); 1-periodic in tau. One einsum sums each column in the order k = 0,
    1, ..., with its own tau's weights padded by zero weights at frequency 0 (finite
    at any Im z0), so a column has the bits of the call at its tau alone, and of a
    call at that point alone."""
    if isinstance(t, complex):  # x has the shape (K,) + the shape of z0
        a, w = _jacobi_weights(t, m)
        x = np.multiply.outer(a, z0, dtype=complex)
    else:  # x has the shape (K, P), P the points of z0 and t broadcast
        z0, t = np.broadcast_arrays(np.asarray(z0, dtype=complex), t)
        cols = [_jacobi_weights(x, m) for x in t.ravel().tolist()]
        K = max(len(ak) for ak, _ in cols)
        a, w = np.zeros((K, len(cols))), np.zeros((m + 1, K, len(cols)), dtype=complex)
        for p, (ak, wk) in enumerate(cols):
            a[: len(ak), p], w[:, : len(ak), p] = ak, wk
        x = a * z0.ravel()
    # the sums go straight into the even and odd rows of out
    out = np.empty((m + 1,) + x.shape[1:], dtype=complex)
    c_einsum("jk...,k...->j...", w[0::2], np.sin(x), out=out[0::2])
    if m:  # theta alone (m = 0) has no odd rows
        c_einsum("jk...,k...->j...", w[1::2], np.cos(x), out=out[1::2])
    return out if isinstance(t, complex) else out.reshape((m + 1,) + z0.shape)


def _translate(t: complex) -> tuple:
    # _reduce's T-step (t - n, n), n = round(Re t); alone, the 1-periodic weights' reduction
    n = round(t.real)
    return complex(t.real - n, t.imag), n


def _reduce(t: complex) -> tuple:
    """tau' with Im tau' >= 1/2 and gamma = (A, B, C, D) in SL2(Z), t = (A tau' + B)/(C tau'
    + D): while Im tau' < 1/2, the T-step (gamma T^n), then S: -1/tau', gamma S^-1 = gamma
    (0 1; -1 0), which at |tau'|^2 < 1/2 at least doubles Im tau'. gamma = 1 at Im t >= 1/2."""
    A, B, C, D = 1, 0, 0, 1
    while t.imag < 0.5:
        t, n = _translate(t)
        A, B, C, D = -(A * n + B), A, -(C * n + D), C
        t = -1 / t
    return t, (A, B, C, D)


def _translation(z0, m, n, t: complex):
    # theta(z0 + m + n*tau) / theta(z0), by the law in theta_normalized's docstring
    omega = n * t + m
    sign = 1.0 - 2.0 * ((m + n + m * n) % 2)
    return sign * np.exp(-2j * np.pi * n * (z0 + omega / 2.0))


def theta_normalized(z, tau):
    """Normalized odd theta: simple zeros exactly on the lattice, slope 1 at 0.

    Satisfies theta(z+1) = -theta(z) and
    theta(z+tau) = -exp(-2*pi*i*(z + tau/2)) * theta(z); the general law for
    z + n*tau + m carries the sign (-1)^(m+n+mn).
    """
    out = _theta(z, _tau_of(tau))
    return out if out.shape else complex(out)


def _theta(z, t):
    z0, m, n = _cell(z, t)
    return _translation(z0, m, n, t) * _theta_taylor(z0, t, 0)[0]


def _thetas(zs, t) -> list:
    # _theta at each of the points zs in one engine call. Python or numpy scalars
    # at a complex t end in numpy-scalar products, each with the bits of its own
    # _theta call (numpy's array complex product can round the same factors
    # differently in the last bit); any other points are broadcast with one
    # another and with t into one _theta call, with the bits of _theta on the
    # broadcast points
    if isinstance(t, complex) and all(isinstance(z, (complex, float, int)) for z in zs):
        cells = [_cell(z, t) for z in zs]
        T = _theta_taylor(np.array([x0 for x0, _, _ in cells]), t, 0)[0]
        return [_translation(*cell, t) * T[k] for k, cell in enumerate(cells)]
    *points, taus = np.broadcast_arrays(*zs, t)
    return list(_theta(np.stack(points),
                       t if isinstance(t, complex) else np.stack([taus] * len(zs))))


def _lambert(y, xi, rho, t: complex, s: int) -> np.ndarray:
    """sum_(m >= 0) rho^m T(y + m t, xi, s) for each half (y, xi, rho), Im y > 0,
    0 <= xi < 1 (not 0 at s = 1), |rho| <= 1, where for Im x > 0

      T(x, xi, s) = sum_n e^(2 pi i xi n)/(x+n)^s
                  = C_s sum_(l >= 1) (l - xi)^(s-1) e^(2 pi i (l - xi) x),

    C_s = (-2 pi i)^s/(s-1)!. At each frequency of T the rows are a geometric
    series, so this is

      C_s sum_(l >= 1) (l - xi)^(s-1) e^(2 pi i (l - xi) y) / (1 - rho e^(2 pi i (l - xi) t)),

    and rho = 0 gives T(y, xi, s) itself. y, xi and rho are sequences, one entry per
    half. Every half runs over the same L terms, summed in frequency order by a
    running sum (numpy's sum over one column would add pairwise), so a half keeps
    its bits whatever other halves share the call. Past 5000 terms it raises
    ConvergenceError, before it allocates any. A power past the float range
    reads inf or nan, without numpy's warnings."""
    im_min = min(v.imag for v in y)
    if im_min <= 0.0:
        raise ValueError("Lambert halves need Im y > 0")
    # terms u^(s-1) e^(-w u), u = l - xi, shrink by e^(-w/2) a step past 2(s-1)/w; with
    # A = 48 - log(1 - e^(-w/2)) those after L are e^-48 below the peak once r = u w/(s-1)
    # has r - log r >= 1 + a, a = A/(s-1), met via log r <= log c + r/c - 1 for c > 1;
    # there the denominators are 1 to e^-48, as Im t >= Im y
    w = 2.0 * math.pi * im_min
    A = 48.0 - math.log1p(-math.exp(-0.5 * w))
    a = A / max(s - 1, 1)
    c = 1.0 + a + math.log1p(a)
    u = (s - 1) * (a + math.log(c)) / ((1.0 - 1.0 / c) * w) if s > 1 else A / w
    L = max(int(math.ceil(48.0 / w)) + s + 6, math.ceil(u - 1.0 + max(xi)))
    if L > 5000:
        raise ConvergenceError(f"Im y = {im_min} too small for the Lambert series ({L} terms)")
    # e^(2 pi i (l - xi) x) = e^(2 pi i (1 - xi) x) u^(l-1), u = e^(2 pi i x), at x = y
    # and x = t: two exps per column and a running product along the frequencies
    H = len(y)
    z, xi = 2j * np.pi * np.array([*y, *[t] * H]), np.array([*xi, *xi])  # columns y, then t
    phase = np.empty((L, 2 * H), dtype=complex)
    phase[1:] = np.exp(z)
    np.exp((1.0 - xi) * z, out=phase[0])
    np.multiply.accumulate(phase, axis=0, out=phase)
    f = np.arange(1.0, L + 1.0)[:, None] - xi[:H]
    if (s - 1) * math.log(L + 1) <= 709.0:  # f^(s-1) <= L^(s-1) stays in the float range
        return _lambert_sum(f, phase, rho, s)
    with np.errstate(all="ignore"):
        return _lambert_sum(f, phase, rho, s)


def _lambert_sum(f, phase, rho, s: int) -> np.ndarray:
    """_lambert's halves from the frequencies f = l - xi and the phases (columns
    y, then t)."""
    H = f.shape[1]
    terms = f ** (s - 1) * phase[:, :H] / (1.0 - np.array(rho) * phase[:, H:])
    return np.add.accumulate(terms, axis=0, out=terms)[-1] * ((-2j * np.pi) ** s
                                                              / math.factorial(s - 1))


@lru_cache(maxsize=4096)
def _eisenstein_weights(t: complex) -> tuple:
    # E_s = G_s / (2 zeta(s)), G_s = sum' 1/(m t + n)^s = 2 zeta(s) + 2 sum_(m >= 1)
    # T(m t, 0, s): one Lambert half at y = t, xi = 0, rho = 1; 1-periodic in t
    t = _translate(t)[0]
    return tuple(complex(1.0 + _lambert([t], [0.0], [1.0], t, s)[0] / zeta_s) for s, zeta_s in
                 ((2, math.pi**2 / 6.0), (4, math.pi**4 / 90.0), (6, math.pi**6 / 945.0)))


def _eta1(t):
    # (pi^2/3) E2 at a complex t, or at each tau of an array (each from the cache)
    e2 = (_eisenstein_weights(t)[0] if isinstance(t, complex) else
          np.reshape([_eisenstein_weights(x)[0] for x in t.ravel().tolist()], t.shape))
    return (cmath.pi**2 / 3.0) * e2


def eta_periods(tau) -> QuasiPeriods:
    """Quasi-periods of zeta for the period pair (1, tau).

    eta1 = (pi^2/3) E2(q); eta2 = eta1*tau - 2*pi*i, which is the Legendre
    relation eta1*tau - eta2*1 = 2*pi*i.
    """
    t = _tau_of(tau)
    eta1 = _eta1(t)
    return QuasiPeriods(eta1=eta1, eta2=eta1 * t - 2j * cmath.pi)


def zeta_fn(z: complex, tau) -> complex:
    """Weierstrass zeta: zeta(z) = 1/z + O(z^3), zeta(z+1) - zeta(z) = eta1."""
    out = _zeta(z, _tau_of(tau))
    return out if out.shape else complex(out)


def _zeta(z, t):
    z0, _, n = _cell(z, t)
    if _dist(z0) < 1e-8:
        raise PoleProximityError(f"z = {z} within 1e-8 of the lattice")
    T = _theta_taylor(z0, t, 1)
    return T[1] / T[0] - 2j * np.pi * n + _eta1(t) * z


def wp(z: complex, tau) -> tuple[complex, complex]:
    """Weierstrass p-function and its derivative, (p(z), p'(z)), from the
    reduced point z0: p = -(log theta)'' - eta1 and p' = -sigma(2 z0)/sigma(z0)^4
    = -theta(2 z0)/theta(z0)^4, which keeps its digits at small Im tau where
    -(log theta)''' from Taylor coefficients cancels; one engine call serves both."""
    p, pp = _wp(z, _tau_of(tau))
    return (p, pp) if p.shape else (complex(p), complex(pp))


def _wp(z, t):
    z0, _, _ = _cell(z, t)
    if _dist(z0) < 1e-8:
        raise PoleProximityError(f"z = {z} within 1e-8 of the lattice")
    z2, m, n = _cell(2.0 * z0, t)
    T = _theta_taylor(np.array([z0, z2]), t, 2)
    log1 = T[1, 0] / T[0, 0]
    p = -(2.0 * T[2, 0] / T[0, 0] - log1 * log1) - _eta1(t)
    return p, -(_translation(z2, m, n, t) * T[0, 1]) / T[0, 0] ** 4


def g_invariants(tau) -> tuple[complex, complex]:
    """Modular invariants (g2, g3): p'^2 = 4 p^3 - g2 p - g3."""
    t = _tau_of(tau)
    _, e4, e6 = _eisenstein_weights(t)
    g2 = (4.0 * cmath.pi**4 / 3.0) * e4
    g3 = (8.0 * cmath.pi**6 / 27.0) * e6
    return g2, g3


def eta1_prime(tau) -> complex:
    """d(eta1)/dtau in closed form, eta1' = (pi^3 i / 18)(E2^2 - E4): with
    eta1 = (pi^2/3) E2 and d/dtau = 2 pi i q d/dq, this is Ramanujan's
    q dE2/dq = (E2^2 - E4)/12."""
    e2, e4, _ = _eisenstein_weights(_tau_of(tau))
    return (cmath.pi**3 * 1j / 18.0) * (e2 * e2 - e4)
