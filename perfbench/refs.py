"""Reference values and accuracy checks, computed outside the timed region.

point-eval references come from mpmath at 30 digits through the Jacobi
series of theta_1, written here and not taken from the package. The kernel
coefficients s_k come from a 64-node trapezoid rule in the same precision,
on a circle at half the distance to the nearest pole of the kernel variant
(aliasing error 2^-64 relative). The verify suites' per-point residuals
are checked against the suites' own tolerances, the Kato-Siegel residue
against its exact value 2 pi i (D^2 - 1).

lattice-sums checks each naive call against the package's Lipschitz
evaluator (cross-evaluator), each specialization against F_tilde at weight
k + 1, and every BRUTE_EVERY-th Lipschitz F or F_tilde of weight >= 4
against a box sum computed here with numpy.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpc, mpf

from workloads import lattice_dist, shortest_vector

mp.dps = 30

# stated accuracy per call kind: |got - ref| / max(1, |ref|), worst component
TOLERANCE = {
    "theta": 1e-10, "J": 1e-10, "zeta": 1e-10, "wp": 1e-10,
    "s_coeffs": 1e-6, "dlog": 1e-6, "L_form": 1e-6,
    ("F", "naive"): 1e-5, ("F_tilde", "naive"): 1e-5, ("k2", "naive"): 1e-4,
    ("specialize", "naive"): 1e-4,
    ("F", "lipschitz"): 1e-5, ("F_tilde", "lipschitz"): 1e-5,
    ("specialize", "lipschitz"): 1e-8,
    "closedness": 1e-4, "residue": 1e-7,
}
# the curvature suite's tolerance by level
CURVATURE_TOLERANCE = {0: 1e-12, 1: 1e-5}
RESIDUALS = ("curvature", "closedness", "residue", "verify")
BRUTE_R = 400  # truncation error below 1e-8 at weight >= 4
KERNEL_NODES = 64


def tolerance(spec) -> float:
    kind, a, tags = spec
    if kind == "curvature":
        return CURVATURE_TOLERANCE.get(a["n"], 1e-4)
    return TOLERANCE[(kind, tags["mode"])] if "mode" in tags else TOLERANCE[kind]


def residual_ratio(spec, value) -> float:
    """Error / tolerance of a verify suite's per-point residual."""
    kind, a, _ = spec
    if kind == "verify":
        return max(c["max_residual"] / c["tolerance"] for c in value["checks"])
    if kind == "residue":
        expect = 2j * math.pi * (a["D"] ** 2 - 1)
        return abs(complex(value) - expect) / abs(expect) / tolerance(spec)
    return float(value) / tolerance(spec)


class Theta:
    """theta_1 and its u-derivatives at one tau, q = exp(i pi tau), from the
    Jacobi series theta_1(u) = 2 sum_n (-1)^n q^((n+1/2)^2) sin((2n+1)u)."""

    def __init__(self, tau: complex):
        self.tau = complex(tau)
        self.q = mp.exp(1j * mp.pi * mpc(tau))
        self.c = []  # (-1)^n q^((n+1/2)^2)
        _, d1, _, d3 = self.series(mpc(0))
        self.d1_0 = d1
        self.eta1 = -(mp.pi**2 / 3) * d3 / d1

    def _terms(self, y: float) -> int:
        # past the peak of |q|^((n+1/2)^2) e^((2n+1)y) (2n+1)^3 and below 10^-(dps+4)
        a = math.pi * self.tau.imag
        n = max(0, int(y / a))
        while -a * (n + 0.5) ** 2 + (2 * n + 1) * y + 3 * math.log(2 * n + 1) > -(mp.dps + 4) * 2.31:
            n += 1
        while len(self.c) <= n:
            m = len(self.c)
            self.c.append((-1) ** m * self.q ** ((m + mpf(1) / 2) ** 2))
        return n + 1

    def series(self, u, orders: int = 4) -> list:
        """theta_1 and its first orders - 1 derivatives at u."""
        e1 = mp.exp(1j * u)
        e2, e2inv = e1 * e1, 1 / (e1 * e1)
        p, pinv = e1, 1 / e1
        out = [mpc(0)] * orders
        for n in range(self._terms(abs(float(mp.im(u))))):
            c = self.c[n]
            # d^j/du^j sin(ku) = k^j (i^j p - (-i)^j / p) / 2i, with p = e^(iku)
            diff = c * (p - pinv)
            out[0] += diff
            if orders > 1:
                k = 2 * n + 1
                summ = c * (p + pinv)
                out[1] += k * summ
                out[2] -= k * k * diff
                out[3] -= k**3 * summ
            p *= e2
            pinv *= e2inv
        return [out[0] / 1j] if orders == 1 else [out[0] / 1j, out[1], out[2] / 1j, out[3]]

    def theta(self, z):
        return self.series(mp.pi * mpc(z), 1)[0] / (mp.pi * self.d1_0)

    def logderivs(self, z):
        t0, t1, t2, t3 = self.series(mp.pi * mpc(z))
        return t1 / t0, t2 / t0, t3 / t0


def theta_at(cache: dict, tau: complex) -> Theta:
    if tau not in cache:
        cache[tau] = Theta(tau)
    return cache[tau]


def point_ref(spec, thetas: dict, kernels: dict):
    kind, a, _ = spec
    if kind in ("s_coeffs", "dlog", "L_form"):
        s = kernels[(a["z"], a["tau"], a["D"])]
        if kind == "s_coeffs":
            return [complex(c) for c in s[: a["n"] + 1]]
        if kind == "dlog":
            return [complex(s[0])]
        n = a["n"]
        dz = [complex(math.factorial(k) * s[k]) for k in range(n + 1)]
        dtau = [complex(math.factorial(k + 1) * s[k + 1] / (2j * mp.pi)) for k in range(n + 1)]
        return dz + dtau
    th = theta_at(thetas, a["tau"])
    if kind == "theta":
        return [complex(th.theta(a["z"]))]
    if kind == "J":
        z, w = mpc(a["z"]), mpc(a["w"])
        return [complex(th.theta(z + w) / (th.theta(z) * th.theta(w)))]
    l1, l2, l3 = th.logderivs(a["z"])
    if kind == "zeta":
        return [complex(mp.pi * l1 + th.eta1 * mpc(a["z"]))]
    if kind == "wp":
        p = -(mp.pi**2) * (l2 - l1**2) - th.eta1
        pp = -(mp.pi**3) * (l3 - 3 * l1 * l2 + 2 * l1**3)
        return [complex(p), complex(pp)]
    raise ValueError(kind)


def kernel_ref(z: complex, tau: complex, D: int, order: int, th: Theta) -> list:
    """s_0..s_order of w -> D^2 J(z, w) - D J(Dz, w/D) by the trapezoid rule."""
    rho = min(shortest_vector(tau), lattice_dist(z, tau), D * lattice_dist(D * z, tau))
    r = mpf(rho) / 2
    z = mpc(z)
    th_z, th_Dz = th.theta(z), th.theta(D * z)
    acc = [mpc(0)] * (order + 1)
    for j in range(KERNEL_NODES):
        w = r * mp.expjpi(mpf(2 * j) / KERNEL_NODES)
        f = (D * D * th.theta(z + w) / (th_z * th.theta(w))
             - D * th.theta(D * z + w / D) / (th_Dz * th.theta(w / D)))
        winv = 1 / w
        p = mpc(1)
        for k in range(order + 1):
            acc[k] += f * p
            p *= winv
    return [c / KERNEL_NODES for c in acc]


def point_refs(specs) -> list:
    """mpmath references, None for the per-point residuals."""
    thetas: dict = {}
    kernels: dict = {}
    for kind, a, _ in specs:
        if kind in ("s_coeffs", "dlog", "L_form"):
            key = (a["z"], a["tau"], a["D"])
            need = {"s_coeffs": a.get("n", 0), "dlog": 0, "L_form": a.get("n", 0) + 1}[kind]
            kernels[key] = max(kernels.get(key, 0), need)
    for (z, tau, D), order in list(kernels.items()):
        kernels[(z, tau, D)] = kernel_ref(z, tau, D, order, theta_at(thetas, tau))
    return [None if spec[0] in RESIDUALS else point_ref(spec, thetas, kernels)
            for spec in specs]


def point_values(kind: str, value) -> list:
    if kind in ("theta", "J", "zeta", "dlog"):
        return [complex(value)]
    if kind == "wp":
        return [complex(v) for v in value]
    if kind == "s_coeffs":
        return [complex(c) for c in value.coeffs]
    if kind == "L_form":  # the coefficients on w^[k,0], dz then dtau
        n = value.n
        return ([value.dz.get(k, 0) for k in range(n + 1)]
                + [value.dtau.get(k, 0) for k in range(n + 1)])
    raise ValueError(kind)


def box_sum(a: int, b: int, N: int, k: int, tau: complex) -> complex:
    """(-1)^(k+1) (k-1)! sum' zeta_N^(mb - na) / (m tau + n)^k over |m|, |n| <= R."""
    R = BRUTE_R
    n = np.arange(-R, R + 1)[None, :]
    total = 0j
    for m0 in range(-R, R + 1, 64):
        m = np.arange(m0, min(m0 + 64, R + 1))[:, None]
        w = m * tau + n
        origin = (m == 0) & (n == 0)
        w = np.where(origin, 1.0, w)
        char = np.exp(2j * np.pi * ((m * b - n * a) % N) / N)
        total += complex(np.sum(np.where(origin, 0.0, char / w**k)))
    return (-1) ** (k + 1) * math.factorial(k - 1) * total


def lattice_ref(spec, mods) -> complex | None:
    """The reference each lattice-sums call is checked against (None: only
    checked for raising)."""
    kind, a, tags = spec
    E = mods["eisenstein"]

    def lip(k):
        return E.F(E.EisensteinQuery(a["a"], a["b"], a["N"], k, a["tau"]))

    if kind == "specialize":
        return E.F_tilde(E.EisensteinQuery(a["a"], a["b"], a["N"], a["k"] + 1, a["tau"]),
                         a["D"], allow_degenerate=True)
    if tags["mode"] == "naive":
        if kind == "F":
            return lip(a["k"])
        if kind == "k2":
            return lip(2)
        return E.F_tilde(E.EisensteinQuery(a["a"], a["b"], a["N"], a["k"], a["tau"]),
                         a["D"], allow_degenerate=True)
    if not tags.get("brute"):
        return None
    first = box_sum(a["a"], a["b"], a["N"], a["k"], a["tau"])
    if kind == "F":
        return first
    D, N = a["D"], a["N"]
    second = box_sum(D * a["a"] % N, D * a["b"] % N, N, a["k"], a["tau"])
    return D**2 * first - D ** (2 - a["k"]) * second


def rel_error(got: list, ref: list) -> float:
    return max(abs(complex(g) - r) / max(1.0, abs(r)) for g, r in zip(got, ref))
