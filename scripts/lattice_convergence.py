"""Truncation study for the naive lattice evaluators.

Prints |naive - lipschitz| for the level-N series against a doubling shell
radius, one row per weight. Weights k >= 3 are absolutely convergent with a
R^(1-k) tail bound, typically a power faster once the character oscillates;
the conditionally convergent k = 2 column is the exactly rounded square sum
over |m|, |n| <= R and degrades to O(1/R) when a row index hits 0 mod N. Run
before trusting a naive truncation radius.
"""

import argparse

from epolylog.eisenstein import EisensteinQuery, F, eisenstein_sum_k2
from epolylog.numerics import LatticeTruncation


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=int, default=1)
    ap.add_argument("--b", type=int, default=2)
    ap.add_argument("--N", type=int, default=5)
    ap.add_argument("--tau", type=complex, default=0.21 + 1.1j)
    ap.add_argument("--max-radius", type=int, default=800)
    args = ap.parse_args()

    radii = []
    r = 25
    while r <= args.max_radius:
        radii.append(r)
        r *= 2

    print(f"label ({args.a},{args.b}) mod {args.N}, tau = {args.tau}")
    print("k      " + "".join(f"       R={r}" for r in radii))
    for k in (2, 3, 4, 5):
        lip = F(EisensteinQuery(a=args.a, b=args.b, N=args.N, k=k, tau=args.tau))
        row = f"k={k}   "
        for r in radii:
            trunc = LatticeTruncation(shell_radius=r)
            if k == 2:
                v = eisenstein_sum_k2(args.a, args.b, args.N, args.tau, trunc)
            else:
                v = F(EisensteinQuery(a=args.a, b=args.b, N=args.N, k=k,
                                      tau=args.tau, mode="naive", trunc=trunc))
            row += f"  {abs(v - lip):9.2e}"
        print(row + f"   (lipschitz {lip:.6g})")


if __name__ == "__main__":
    main()
