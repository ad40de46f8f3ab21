"""Step-size scan for the mixed heat-equation residual.

Sweeps the first central-difference step used by heat_residual
(kronecker._HEAT_STEP) and prints the worst relative residual over a small
seeded point set. The column shows the usual V shape: truncation error falls
with the step until roundoff in the theta quotients takes over. Useful when
retuning _HEAT_STEP.
"""

import argparse

import numpy as np

from epolylog import kronecker
from epolylog.kronecker import KroneckerPoint, heat_residual
from epolylog.weierstrass import ModuliPoint, lattice_dist


def draw_points(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
        z = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
        w = complex(rng.uniform(0.1, 0.4), rng.uniform(0.05, 0.3))
        # heat_residual insists on 10x the step in lattice clearance, so
        # keep 0.15 of room and cap the scan at step 1e-2
        if min(lattice_dist(u, t) for u in (z, w, z + w)) < 0.15:
            continue
        pts.append(KroneckerPoint(z=z, w=w, tau=ModuliPoint(t)))
    return pts


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=10)
    args = ap.parse_args()

    pts = draw_points(args.seed, args.points)
    steps = [10.0 ** (-e) for e in (2, 3, 4, 5)]

    header = "step      worst residual"
    print(header)
    print("-" * len(header))
    default = kronecker._HEAT_STEP
    try:
        for step in steps:
            # heat_residual reads its step from the module constant
            kronecker._HEAT_STEP = step
            print(f"{step:8.0e}  {max(heat_residual(p) for p in pts):14.3e}")
    finally:
        kronecker._HEAT_STEP = default


if __name__ == "__main__":
    main()
