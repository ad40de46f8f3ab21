"""Command-line front end: verification suites and single-value evaluation.

Reports are canonical JSON: fixed key order, complex numbers as
{"re": ..., "im": ...}, floats in shortest round-trip form (full precision).
runtime_ms is null unless --timings is given, so a fixed seed and tolerance
overrides give byte-identical output. verify reads its run configuration from
its flags alone: --seed, --tolerance and --timings (and --out for the report).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .eisenstein import EisensteinQuery, F, F_tilde, _lipschitz_sums, eisenstein_sum_k2
from .kronecker import (
    KroneckerPoint,
    default_cauchy_config,
    distribution_residual,
    dlog_kato_siegel,
    heat_residual,
    jacobi_J,
    s_coeffs,
    _variant,
)
from .logsheaf import curvature_residual
from .numerics import (CauchyConfig, LatticeTruncation, NonFiniteError, _integer, cauchy_coeffs,
                       contour_integral)
from .polylog import TorsionLabel, L_form, closedness_residual, specialize_eisenstein
from .weierstrass import (
    ModuliPoint,
    _eta1,
    _theta,
    _wp,
    _zeta,
    eta_periods,
    g_invariants,
    lattice_dist,
    zeta_fn,
)

EVAL_TARGETS = ("J", "s_coeffs", "F", "F_tilde", "dlogtheta", "L_form")


@dataclass(frozen=True)
class RunConfig:
    """The run configuration of every suite, set by verify's --seed,
    --tolerance and --timings flags: a fixed seed and tolerance overrides give
    byte-identical output. tolerance_overrides maps check names, of any suite,
    to tolerances."""

    seed: int = 0
    tolerance_overrides: dict = field(default_factory=dict)
    timings: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0))
        if not isinstance(self.timings, bool):
            raise ValueError(f"timings must be true or false, got {self.timings!r}")
        known = {c[0] for checks in CHECKS.values() for c in checks}
        for name, tol in self.tolerance_overrides.items():
            if name not in known:
                raise ValueError(f"tolerance override for unknown check {name!r}")
            if (isinstance(tol, bool) or not isinstance(tol, (int, float))
                    or not math.isfinite(tol) or tol <= 0):
                raise ValueError(f"tolerance override {name}={tol!r} must be a finite number > 0")


# random evaluation boxes; margins keep every stencil and contour away from
# poles and torsion points for D <= 3
def _draw_tau(rng) -> complex:
    return complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))


def _draw_z(rng, t: complex) -> complex:
    while True:
        z = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
        if all(lattice_dist(D * z, t) >= 0.02 for D in (1, 2, 3)):
            return z


def _draw_zw(rng, t: complex) -> tuple[complex, complex]:
    while True:
        z = _draw_z(rng, t)
        w = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
        ok_w = all(lattice_dist(D * w, t) >= 0.02 for D in (1, 2, 3))
        if ok_w and lattice_dist(z + w, t) >= 0.02 and lattice_dist(z + 3 * w, t) >= 0.02:
            return z, w


def _draw_tz(rng) -> tuple[complex, complex]:
    t = _draw_tau(rng)
    return _draw_z(rng, t), t


def _draw_kpoint(rng) -> KroneckerPoint:
    t = _draw_tau(rng)
    z, w = _draw_zw(rng, t)
    return KroneckerPoint(z=z, w=w, tau=ModuliPoint(t))


def _draw_label(rng, N: int, mult: int) -> tuple[int, int]:
    # a label (a, b) with (mult*a, mult*b) != (0, 0) mod N
    a, b = 0, 0
    while (mult * a) % N == 0 and (mult * b) % N == 0:
        a, b = int(rng.integers(0, N)), int(rng.integers(0, N))
    return a, b


@dataclass(frozen=True, eq=False)
class Points:
    """The points of one or more checks: build(rng) on stream 0
    (default_rng(seed)) or stream 1 (default_rng(seed + 1)) of the suite.
    A suite builds its point sets in the order its checks first name them,
    which fixes the points of a seed; checks naming one Points share it."""

    stream: int
    build: Callable


def _each(stream: int, draw, count: int) -> Points:
    return Points(stream, lambda rng: [draw(rng) for _ in range(count)])


def _per_point(residual):
    """A check's residual on its point list from residual(point)."""
    return lambda points: [residual(p) for p in points]


def _per_degree(residual):
    """A kernel check's residual from residual(point, D): per point, D = 2 and 3."""
    return _per_point(lambda p: [residual(p, D) for D in (2, 3)])


# the weierstrass point checks: one evaluation on all points, each (z, tau) a column
def _legendre(points):
    z, t = np.array(points).T
    eta1 = _zeta(z + 1, t) - _zeta(z, t)
    eta2 = _zeta(z + t, t) - _zeta(z, t)
    return np.abs(eta1 * t - eta2 - 2j * cmath.pi)


def _zeta_law(points):
    z, t = np.array(points).T
    return np.abs(_zeta(z + 1, t) - _zeta(z, t) - _eta1(t))


def _sigma_law(points):
    z, t = np.array(points).T

    def sigma(x):  # the Weierstrass sigma, exp(eta1 x^2/2) theta(x)
        return np.exp(_eta1(t) * x * x / 2.0) * _theta(x, t)
    lhs = sigma(z + 1)
    rhs = -sigma(z) * np.exp(_eta1(t) * (z + 0.5))
    return np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))


def _wp_ode(points):
    z, t = np.array(points).T
    p, pp = _wp(z, t)
    g2, g3 = np.array([g_invariants(x) for x in t.tolist()]).T
    return np.abs(pp**2 - (4 * p**3 - g2 * p - g3)) / np.maximum(1.0, np.abs(pp) ** 2)


def _rel(got, ref) -> float:
    # the error of got relative to max(1, |ref|), by Python's abs
    return abs(got - ref) / max(1.0, abs(ref))


def _coeff_rescaling(pt, D: int) -> list:
    # contour oracle against closed form, one error per order k <= 8: the
    # w -> Dw scaled variant at radius r/D against D^k s_k; node rounding
    # noise grows like (D/r)^k, so the contour sits at 0.35 of the pole distance
    z, t = pt
    sc = s_coeffs(z, t, D, 8).coeffs
    f = _variant(z, t, D)
    cc = cauchy_coeffs(lambda u: f(D * u), 8,
                       CauchyConfig(radius=0.35 * min(1.0, abs(t)) / D, samples=256))
    return [_rel(c, D**k * s) for k, (c, s) in enumerate(zip(cc, sc))]


def _pole_removal(pt, D: int) -> np.ndarray:
    # the D-variant is holomorphic across w = 0: on 16 points of |w| = 1e-3,
    # where each J term alone is ~1e3, the value must match the degree-8
    # Taylor polynomial from contour extraction
    z, t = pt
    f = _variant(z, t, D)
    coeffs = cauchy_coeffs(f, 8, default_cauchy_config(t, D))
    ws = 1e-3 * np.exp(2j * np.pi * np.arange(16) / 16)
    return np.abs(f(ws) - sum(coeffs[k] * ws**k for k in range(9)))


def _ks_residue(t: complex, D: int, at_torsion: bool) -> float:
    # residue D^2 - 1 at the origin, -1 at the D-torsion point (tau + 1)/D
    if at_torsion:
        center, r, expect = (t + 1) / D, 0.3 * min(1.0, abs(t)) / D, -2j * cmath.pi
    else:
        center, r, expect = 0.0, 0.4 * min(1.0, abs(t)) / D, 2j * cmath.pi * (D * D - 1)
    return _rel(contour_integral(lambda u: dlog_kato_siegel(u, t, D), center, r, 128), expect)


def _ks_norm_trace(pt, D: int) -> float:
    z, t = pt
    M = 5 - D  # prime to D: 3 at D = 2, 2 at D = 3
    ref = dlog_kato_siegel(z, t, D)
    translates = [(z + c * t + d) / M for c in range(M) for d in range(M)]
    acc = sum(dlog_kato_siegel(np.array(translates), t, D).tolist(), 0.0 + 0.0j)
    return _rel(acc / M, ref)


def _dlog_zeta(pt, D: int) -> float:
    z, t = pt
    return _rel(s_coeffs(z, t, D, 0).coeffs[0], D * D * zeta_fn(z, t) - D * zeta_fn(D * z, t))


def _eisenstein_cases(rng) -> list:
    cases = []
    for k in (3, 4, 5):
        for _ in range(3):
            t = _draw_tau(rng)
            N = int(rng.integers(3, 6))
            cases.append((*_draw_label(rng, N, 1), N, k, t))
    return cases


def _naive_vs_lipschitz(case) -> float:
    a, b, N, k, t = case
    naive = F(EisensteinQuery(a=a, b=b, N=N, k=k, tau=t, mode="naive",
                              trunc=LatticeTruncation(500)))
    return _rel(naive, F(EisensteinQuery(a=a, b=b, N=N, k=k, tau=t)))


def _k2_ordered(case) -> float:
    a, b, N, t, v500 = case
    return _rel(v500, F(EisensteinQuery(a=a, b=b, N=N, k=2, tau=t)))


def _k2_doubling(case) -> float:
    a, b, N, t, v500 = case
    return abs(v500 - eisenstein_sum_k2(a, b, N, t, LatticeTruncation(1000)))


def _draw_modular_case(rng) -> tuple:
    t = _draw_tau(rng)
    N, k = int(rng.integers(2, 9)), int(rng.integers(3, 7))
    return (*_draw_label(rng, N, 1), N, k, t)


def _modularity(case) -> float:
    # the lattice sum of label (a, b) at -1/tau is tau^k times that of (b, -a) at
    # tau (swap (m, n) -> (n, -m)); from the Lipschitz kernel itself, so that no
    # reduction of tau inside F can make the two sides one computation
    a, b, N, k, t = case
    lhs = _lipschitz_sums([(a, b)], N, 1, -1 / t, k)[0]
    return _rel(lhs, t**k * _lipschitz_sums([(b, -a % N)], N, 1, t, k)[0])


def _draw_spec_case(rng, N: int) -> tuple:
    t = _draw_tau(rng)
    # reject labels fixed by (a,b) -> (-a,-b): those give identically zero
    # series at odd weight (0/0 residuals)
    return (*_draw_label(rng, N, 2), t)


def _specialization(case, k: int, N: int, D: int) -> float:
    a, b, t = case
    sp = specialize_eisenstein(TorsionLabel(a=a, b=b, N=N, D=D), t, k)
    ft = F_tilde(EisensteinQuery(a=a, b=b, N=N, k=k + 1, tau=t), D, allow_degenerate=True)
    return abs(sp - ft) / abs(ft)


# all 20 taus first, then a z for each
_W_TZ = Points(0, lambda rng: [(_draw_z(rng, t), t) for t in [_draw_tau(rng) for _ in range(20)]])
_DIST_TZ = _each(1, _draw_tz, 5)
_KS_TAUS = _each(0, _draw_tau, 5)
_KS_TZ = _each(1, _draw_tz, 5)
_CURV_TAUS = _each(0, _draw_tau, 10)
# fixed cases with a != 0 mod N: the inner rows then carry an oscillating
# character and the 500-shell ordered sum lands within ~1e-6 of the
# Lipschitz value; a = 0 rows converge only like 1/R. Each case carries its
# 500-shell sum, which both k2 checks use
_K2_CASES = Points(0, lambda rng: [
    (*c, eisenstein_sum_k2(*c, LatticeTruncation(500)))
    for c in ((1, 2, 5, 0.21 + 1.1j), (1, 1, 3, -0.3 + 1.6j), (2, 1, 5, 1.3j))])

# The verification suites, in report order: each check's name, anchor, tolerance,
# point set and residual(points): each point's raw errors, of one shape per check.
CHECKS = {
    "weierstrass": (
        ("eta1-at-i", "quasi-period-square-lattice", 1e-14, Points(0, lambda rng: [0]),
         _per_point(lambda _: abs(eta_periods(1j).eta1 - cmath.pi))),
        ("legendre", "legendre-relation", 1e-8, _W_TZ, _legendre),
        ("zeta-law", "zeta-quasi-periodicity", 1e-9, _W_TZ, _zeta_law),
        ("sigma-law", "sigma-quasi-periodicity", 1e-9, _W_TZ, _sigma_law),
        ("wp-ode", "wp-differential-equation", 1e-12, _each(1, _draw_tz, 50), _wp_ode),
    ),
    "heat": (
        ("heat", "mixed-heat-equation", 1e-6, _each(0, _draw_kpoint, 50),
         _per_point(heat_residual)),
    ),
    "curvature": (
        ("curvature-n0", "connection-flatness", 1e-12, _CURV_TAUS,
         _per_point(partial(curvature_residual, 0))),
        ("curvature-n1", "connection-flatness", 1e-8, _CURV_TAUS,
         _per_point(partial(curvature_residual, 1))),
        ("curvature", "connection-flatness", 1e-4, _CURV_TAUS,
         _per_point(partial(curvature_residual, 4))),
    ),
    "closedness": (
        ("closedness", "absolute-form-closedness", 1e-4, _each(0, _draw_tz, 10),
         _per_degree(lambda p, D: closedness_residual(*p, D, 4))),
    ),
    "distribution": (
        ("distribution", "isogeny-distribution-law", 1e-6, _each(0, _draw_kpoint, 50),
         _per_degree(distribution_residual)),
        ("pole-removal", "kernel-pole-removal", 1e-8, _DIST_TZ, _per_degree(_pole_removal)),
        ("coeff-rescaling", "kernel-coefficient-rescaling", 1e-9, _DIST_TZ,
         _per_degree(_coeff_rescaling)),
    ),
    "katosiegel": (
        ("ks-residue-origin", "kato-siegel-divisor", 1e-7, _KS_TAUS,
         _per_degree(partial(_ks_residue, at_torsion=False))),
        ("ks-residue-torsion", "kato-siegel-divisor", 1e-7, _KS_TAUS,
         _per_degree(partial(_ks_residue, at_torsion=True))),
        ("ks-norm-trace", "kato-siegel-norm-compatibility", 1e-7, _KS_TZ,
         _per_degree(_ks_norm_trace)),
        ("dlog-zeta", "kernel-constant-term", 1e-13, _KS_TZ, _per_degree(_dlog_zeta)),
    ),
    "eisenstein": (
        ("naive-vs-lipschitz", "level-series-cross-evaluators", 1e-5,
         Points(0, _eisenstein_cases), _per_point(_naive_vs_lipschitz)),
        ("k2-ordered", "weight-two-eisenstein-order", 1e-4, _K2_CASES, _per_point(_k2_ordered)),
        ("k2-doubling", "weight-two-eisenstein-order", 5e-4, _K2_CASES, _per_point(_k2_doubling)),
        ("eisenstein-modularity", "level-series-modularity", 1e-12,
         _each(1, _draw_modular_case, 20), _per_point(_modularity)),
    ),
    "specialization": tuple(
        (f"specialization[k={k},N={N},D={D}]", "torsion-specialization", 1e-6,
         _each(0, partial(_draw_spec_case, N=N), 5),
         _per_point(partial(_specialization, k=k, N=N, D=D)))
        for k in (2, 3, 4) for N in (3, 4, 5) for D in (2, 3)
    ),
}
SUITES = tuple(CHECKS)


def _check(name, anchor, tolerance, config, points, residual) -> dict:
    t0 = time.perf_counter()
    residuals = residual(points)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    tol = float(config.tolerance_overrides.get(name, tolerance))
    worst = float(np.max(residuals))  # the one fold of all errors: nan wherever one sits
    if not math.isfinite(worst):
        raise NonFiniteError(f"check {name} has a non-finite residual")
    return {
        "name": name,
        "anchor": anchor,
        "points_tested": len(points),
        "max_residual": worst,
        "tolerance": tol,
        "pass": worst < tol,
        "runtime_ms": round(elapsed_ms, 3) if config.timings else None,
    }


def cmd_verify(suite: str, config: RunConfig) -> dict:
    """Run one suite (or all of them) and return the report dict."""
    checks = []
    for name in SUITES if suite == "all" else (suite,):
        streams = (np.random.default_rng(config.seed), np.random.default_rng(config.seed + 1))
        drawn: dict = {}
        for check, anchor, tolerance, pts, residual in CHECKS[name]:
            if pts not in drawn:
                drawn[pts] = pts.build(streams[pts.stream])
            checks.append(_check(check, anchor, tolerance, config, drawn[pts], residual))
    return {
        "schema": "1",
        "suite": suite,
        "seed": config.seed,
        "overall_pass": all(c["pass"] for c in checks),
        "checks": checks,
    }


def _c2j(v: complex) -> dict:
    return {"re": float(v.real), "im": float(v.imag)}


def cmd_eval(target: str, args) -> dict:
    """Evaluate a single quantity; returns the result dict for JSON output."""
    t = _parse_complex(args.tau)
    if target == "J":
        p = KroneckerPoint(z=_point(args, target, "z"), w=_point(args, target, "w"),
                           tau=ModuliPoint(t))
        return {"target": "J", "value": _c2j(jacobi_J(p))}
    if target == "s_coeffs":
        sc = s_coeffs(_point(args, target, "z"), t, args.D, args.n)
        return {"target": "s_coeffs", "D": sc.D,
                "value": [_c2j(c) for c in sc.coeffs]}
    if target in ("F", "F_tilde"):
        q = EisensteinQuery(a=args.a, b=args.b, N=args.N, k=args.k, tau=t,
                            mode=args.mode, trunc=LatticeTruncation(args.shell_radius))
        val = F(q) if target == "F" else F_tilde(q, args.D, allow_degenerate=args.allow_degenerate)
        return {"target": target, "value": _c2j(val)}
    if target == "dlogtheta":
        return {"target": "dlogtheta",
                "value": _c2j(dlog_kato_siegel(_point(args, target, "z"), t, args.D))}
    if target == "L_form":
        form = L_form(_point(args, target, "z"), t, args.D, args.n)
        table = {
            "dz": {f"({i},{j})": _c2j(c) for (i, j), c in sorted(form.dz.coeffs.items())},
            "dtau": {f"({i},{j})": _c2j(c) for (i, j), c in sorted(form.dtau.coeffs.items())},
        }
        return {"target": "L_form", "n": form.n, "value": table}
    raise ValueError(f"unknown target {target!r}")


def _point(args, target: str, flag: str) -> complex:
    """The complex value of the eval flag --z or --w, which the target needs."""
    text = getattr(args, flag)
    if text is None:
        raise ValueError(f"eval {target} needs --{flag}")
    return _parse_complex(text)


def _parse_complex(text: str) -> complex:
    """Accept CLI complex formats like 0.2, 1.3i, 0+1.3i, -0.5+2j."""
    s = str(text).strip().replace(" ", "")
    allowed = set("0123456789+-.eEij()")
    if not s or not set(s) <= allowed:
        raise ValueError(f"cannot parse complex number from {text!r}")
    try:
        return complex(s.replace("i", "j").replace("J", "j"))
    except ValueError as exc:
        raise ValueError(f"cannot parse complex number from {text!r}") from exc


def _parse_tolerances(pairs) -> dict:
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"expected NAME=VALUE, got {item!r}")
        name, _, val = item.partition("=")
        out[name.strip()] = float(val)
    return out


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="epolylog",
        description="verification suites and evaluators for elliptic "
                    "polylogarithm numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=("all",) + SUITES)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                    help="override a check tolerance (repeatable)")
    pv.add_argument("--timings", action="store_true",
                    help="record wall-clock runtime_ms (non-canonical reports)")

    pe = sub.add_parser("eval", help="evaluate a single quantity")
    pe.add_argument("target", choices=EVAL_TARGETS)
    pe.add_argument("--z", type=str)
    pe.add_argument("--w", type=str)
    pe.add_argument("--tau", type=str, required=True)
    pe.add_argument("--a", type=int, default=0)
    pe.add_argument("--b", type=int, default=0)
    pe.add_argument("--N", type=int, default=1)
    pe.add_argument("--k", type=int, default=2)
    pe.add_argument("--D", type=int, default=2)
    pe.add_argument("--n", type=int, default=0)
    pe.add_argument("--mode", choices=("naive", "lipschitz"), default="lipschitz")
    pe.add_argument("--allow-degenerate", action="store_true", dest="allow_degenerate")
    pe.add_argument("--shell-radius", type=int, default=500, dest="shell_radius",
                    help="naive sum radius R, an integer >= 1")
    for p in (pv, pe):
        p.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout")

    args = parser.parse_args(argv)
    try:
        # an overflow past the float range surfaces as a typed error, not a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if args.command == "verify":
                tols = _parse_tolerances(args.tolerance)
                config = RunConfig(seed=args.seed, tolerance_overrides=tols, timings=args.timings)
                report = cmd_verify(args.suite, config)
                _emit(report, args.out)
                return 0 if report["overall_pass"] else 1
            _emit(cmd_eval(args.target, args), args.out)
            return 0
    except (ValueError, OSError, KeyError, TypeError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
