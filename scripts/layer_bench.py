"""Layer microbenchmarks: one fixed call per layer, timed best of N.

Prints, per call, the fastest of N timed runs after one warm-up run, then the
wall time and the md5 of the canonical `verify all --seed 0` report and the
line count of `src/epolylog/*.py`. The calls are the layer microbenchmarks of
the ROADMAP's performance aim:

  theta on a 256-point vector and scalar theta_normalized (weierstrass),
  s_coeffs at n = 8 (kronecker), F in Lipschitz mode and naive F at R = 500
  (eisenstein), naive box F at R = 400, the weight-2 eisenstein_sum_k2 at
  R = 500, naive F_tilde and naive specialize_eisenstein at R = 100,
  Lipschitz F_tilde at D = 2 and Lipschitz specialize_eisenstein at D = 3
  (eight cosets of the row kernel), the connection matrices abs_connection
  at level 4 (logsheaf), and the connection layer's real cost:
  curvature_residual and closedness_residual at level 4.

It also times cmd_verify(suite) at seed 0 for every verify suite, best of N
in the same way (the whole suite per run).

--src picks the source tree to import, so a parent commit checked out
elsewhere (git archive or git clone) and the working tree can be measured on
the same machine; --out merges the numbers into a JSON file under --label.

Run: python scripts/layer_bench.py [--src DIR] [--repeat N] [--label L --out FILE]
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np


def best_ms(fn, repeat: int) -> float:
    fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def calls():
    from epolylog.eisenstein import EisensteinQuery, F, F_tilde, eisenstein_sum_k2
    from epolylog.kronecker import s_coeffs
    from epolylog.logsheaf import abs_connection, curvature_residual
    from epolylog.numerics import LatticeTruncation
    from epolylog.polylog import TorsionLabel, closedness_residual, specialize_eisenstein
    from epolylog.weierstrass import theta_normalized

    tau = 0.21 + 1.1j
    zs = 0.1 + 0.3 * np.linspace(0.0, 1.0, 256) + 0.05j

    def naive(R, ordering="eisenstein"):
        return EisensteinQuery(1, 2, 5, 4, tau, mode="naive",
                               trunc=LatticeTruncation(R, ordering))

    return {
        "theta_vector_256": lambda: theta_normalized(zs, tau),
        "theta_scalar": lambda: theta_normalized(0.23 + 0.11j, tau),
        "s_coeffs_n8": lambda: s_coeffs(0.23 + 0.11j, tau, 2, 8),
        "F_lipschitz": lambda: F(EisensteinQuery(1, 2, 5, 4, tau)),
        "F_naive_R500": lambda: F(naive(500)),
        "F_naive_box_R400": lambda: F(naive(400, "box")),
        "k2_naive_R500": lambda: eisenstein_sum_k2(1, 2, 5, tau, LatticeTruncation(500)),
        "F_tilde_naive_R100": lambda: F_tilde(naive(100), 2),
        "specialize_naive_R100": lambda: specialize_eisenstein(
            TorsionLabel(1, 2, 5, 3), tau, 3, mode="naive", trunc=LatticeTruncation(100)),
        "F_tilde_lipschitz": lambda: F_tilde(EisensteinQuery(1, 2, 5, 4, tau), 2),
        "specialize_lipschitz": lambda: specialize_eisenstein(TorsionLabel(1, 2, 5, 3), tau, 3),
        "abs_connection_n4": lambda: abs_connection(4, tau),
        "curvature_n4": lambda: curvature_residual(4, tau),
        "closedness_n4": lambda: closedness_residual(0.23 + 0.11j, tau, 2, 4),
    }


def suite_seconds(repeat: int) -> dict:
    from epolylog.cli import SUITES, RunConfig, cmd_verify

    config = RunConfig(seed=0)
    return {name: best_ms(lambda: cmd_verify(name, config), repeat) / 1e3 for name in SUITES}


def verify_all() -> tuple:
    from epolylog.cli import RunConfig, cmd_verify

    t0 = time.perf_counter()
    report = cmd_verify("all", RunConfig(seed=0))
    wall = time.perf_counter() - t0
    # the CLI prints json.dumps(report, indent=2) and a newline
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    return wall, hashlib.md5(text.encode()).hexdigest()


def src_lines(src: str) -> int:
    pkg = os.path.join(src, "epolylog")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(here, "..", "src"),
                    help="source tree holding the epolylog package (default: this checkout's)")
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per call")
    ap.add_argument("--label", default="change", help="key of this run in --out")
    ap.add_argument("--out", default=None, help="JSON file to merge the numbers into")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)

    record = {"layers_ms": {}}
    for name, fn in calls().items():
        record["layers_ms"][name] = round(best_ms(fn, args.repeat), 4)
        print(f"{name:24s} {record['layers_ms'][name]:10.3f} ms")
    record["suites_s"] = {k: round(v, 4) for k, v in suite_seconds(args.repeat).items()}
    for name, sec in record["suites_s"].items():
        print(f"{'verify ' + name:24s} {sec:10.3f} s")
    wall, md5 = verify_all()
    record["verify_all_seed0_s"] = round(wall, 3)
    record["verify_all_seed0_md5"] = md5
    record["src_lines"] = src_lines(src)
    print(f"{'verify all --seed 0':24s} {wall:10.3f} s   md5 {md5}")
    print(f"{'src lines':24s} {record['src_lines']:10d}")

    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                           "numpy": np.__version__, "platform": platform.platform()}
        data["repeat"] = args.repeat
        data[args.label] = record
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
