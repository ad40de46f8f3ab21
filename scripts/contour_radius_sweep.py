"""Contour radius sweep for the kernel coefficient oracle.

The verify suite's coeff-rescaling check reads the Taylor coefficients of
the substituted kernel variant u -> D^2 J(z, Du) - D J(Dz, u) off a circle
of radius frac * min(1, |tau|) / D and compares them with D^k s_k from the
closed form. Rounding noise on the contour nodes is amplified by (D/r)^k,
while the geometric truncation error grows as the circle approaches the
nearest pole. This sweep prints the check's residual across radius
fractions; the suite's 0.35 clears its 1e-9 bar by more than a decade
while keeping the contour well off the pole.

Run: PYTHONPATH=src python scripts/contour_radius_sweep.py [--seed S]
"""

import argparse

import numpy as np

from epolylog.kronecker import _J, s_coeffs
from epolylog.numerics import CauchyConfig, cauchy_coeffs


def rescale_residual(z: complex, t: complex, D: int, frac: float, order: int) -> float:
    closed = s_coeffs(z, t, D, order)
    contour = cauchy_coeffs(
        lambda u: D * D * _J(z, D * np.asarray(u), t) - D * _J(D * z, u, t),
        order, CauchyConfig(radius=frac * min(1.0, abs(t)) / D, samples=256),
    )
    worst = 0.0
    for k in range(order + 1):
        ref = float(D) ** k * closed.coeffs[k]
        worst = max(worst, abs(contour[k] - ref) / max(1.0, abs(ref)))
    return worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=5)
    ap.add_argument("--order", type=int, default=8)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    pts = []
    for _ in range(args.points):
        t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        z = complex(rng.uniform(0.17, 0.4), rng.uniform(0.1, 0.3))
        pts.append((z, t))

    fracs = (0.10, 0.20, 0.30, 0.35, 0.40, 0.45)
    print(f"order {args.order}, worst over {args.points} points, D in {{2, 3}}")
    print("radius/pole-dist   residual")
    for frac in fracs:
        worst = max(
            rescale_residual(z, t, D, frac, args.order)
            for z, t in pts
            for D in (2, 3)
        )
        print(f"{frac:16.2f}   {worst:9.2e}")


if __name__ == "__main__":
    main()
