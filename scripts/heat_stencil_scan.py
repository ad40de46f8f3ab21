"""Step-size scan for the mixed heat-equation residual.

Sweeps the central-difference step and Richardson depth used by
heat_residual and prints the worst relative residual over a small seeded
point set. The table shows the usual V shape: truncation error falls with
the step until roundoff in the theta quotients takes over, with Richardson
extrapolation moving the floor left. Useful when retuning DiffConfig.
"""

import argparse

import numpy as np

from epolylog import kronecker
from epolylog.kronecker import KroneckerPoint, heat_residual
from epolylog.numerics import DiffConfig
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
    levels = (0, 1, 2)

    header = "step      " + "".join(f"  richardson={r}" for r in levels)
    print(header)
    print("-" * len(header))
    default = kronecker._HEAT_STENCIL
    try:
        for step in steps:
            row = f"{step:8.0e}  "
            for r in levels:
                # heat_residual reads its stencil from the module constant
                kronecker._HEAT_STENCIL = DiffConfig(step=step, richardson_levels=r)
                worst = max(heat_residual(p) for p in pts)
                row += f"  {worst:12.3e}"
            print(row)
    finally:
        kronecker._HEAT_STENCIL = default


if __name__ == "__main__":
    main()
