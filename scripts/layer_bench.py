"""Layer microbenchmarks: one fixed call per layer, timed best of N, in
rounds over one or two source trees.

Prints, per call, the fastest of N timed runs after one warm-up run, then the
wall time and the md5 of the canonical `verify all --seed 0` report, the
fastest of N further `verify all --seed 0` runs (on a machine shared with
other work one run's wall time can move by 2x) and the line count of
`src/epolylog/*.py`. Next to each wall time it records the CPU time
(time.process_time, the smallest of the same runs), and it marks a call whose
CPU time exceeds 1.2 x its wall time: that call kept a second core busy (a
multithreaded BLAS, say), which a faster wall time alone hides. Next to
F_naive_R500 it prints naive_ns_per_term, that call's wall time over its
(2R+1)^2 - 1 lattice terms: the naive kernel's cost per term. The calls are
the layer microbenchmarks of the ROADMAP's performance aim:

  theta on a 256-point vector and scalar theta_normalized (weierstrass),
  s_coeffs at n = 8 (kronecker), F in Lipschitz mode (at the verify-box tau
  and at 0.5 + 0.03i, near the real axis) and naive F at R = 500
  (eisenstein), naive box F at R = 400, the weight-2 eisenstein_sum_k2 at
  R = 500, naive F_tilde at R = 500 (two labels over one lattice, the call
  of perfbench's lattice-sums F_tilde slots), naive F_tilde and naive
  specialize_eisenstein at R = 100,
  Lipschitz F_tilde at D = 2 and Lipschitz specialize_eisenstein at D = 3
  (eight cosets of the Lipschitz kernel), the connection matrices abs_connection
  at level 4 (logsheaf), and the connection layer's real cost:
  curvature_residual and closedness_residual at level 4 (closedness_n4
  covers the levels 0-4, the closedness suite's work for one point and D),
  and the kernel's per-point checks (kronecker): the Kato-Siegel residue at
  the origin by a 32-node contour integral of dlog_kato_siegel on its 64-sample
  contour reference path (the call of perfbench's point-eval residue kind),
  heat_residual and distribution_residual at D = 3 at one point.

Every call above repeats one tau, so its theta weights come from the cache.
The fresh-tau layers, scalar theta_normalized, wp and s_coeffs at n = 4, cycle
through 512 distinct verify-box tau (twice the 256 entries of the theta
weights' cache), so every call builds its weights; a timed run is one cycle
and the figure is its time per call. theta_vector_fresh_tau_256 is one
theta_normalized call on 256 points, each at its own tau (the first 256 of
those tau): the vector-tau engine's weight lookup per tau and its padded sum;
a tree whose theta takes one tau only records null for it. The round also
counts the theta weights' cache misses (`_jacobi_weights.cache_info().misses`)
over one `verify all --seed 0` run with that cache cleared first.

It also times cmd_verify(suite) at seed 0 for every verify suite, best of N
in the same way (the whole suite per run).

--src picks the source tree to import, the directory holding the epolylog
package or a checkout root whose src/ holds it; give it twice, say a parent
commit checked out elsewhere (git archive or git clone) and the working tree,
to compare them on the same machine. This interpreter times the layer
microbenchmarks: each tree is imported under its own package name (the
package's modules import one another only relatively), and with two trees
each of the N timed runs of a call runs it on both, the lead alternating,
so the host's drift within a round falls on both sides of every ratio. Each
round then measures every tree's verify suites and `verify all` in a fresh
interpreter, and the trees alternate: the first tree leads the odd rounds
and the second the even ones, so host drift over the rounds falls on both.
After that the round runs the tree's tier-1 pytest (`python -m pytest -q
--continue-on-collection-errors` in the tree's root, its src first on
PYTHONPATH) and records the wall seconds and the passed count. Two trees
also print, for every layer, every verify suite and the best `verify all`,
the second tree's time over the first's in each round, with the median and
range of those ratios, beside the ratio of the per-tree medians over the
rounds. A host whose speed drifts between rounds moves both trees of a round
alike, so the per-round ratios are the figure to compare; the ratio of
medians mixes rounds of different speeds. --out merges every round, the
per-tree medians and the per-round ratios into a JSON file.

Run: python scripts/layer_bench.py [--src DIR [--src DIR2]] [--label L [--label L2]]
         [--rounds N] [--repeat N] [--out FILE]
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy as np


def best_ms(fns: list, repeat: int) -> tuple:
    """The results of one warm-up run of each fn, and per fn the fastest wall
    time and the smallest CPU time (time.process_time, all threads of the
    process) of repeat timed runs, in ms. Each timed run runs every fn, the
    lead rotating from run to run."""
    results = [fn() for fn in fns]
    wall, cpu = [float("inf")] * len(fns), [float("inf")] * len(fns)
    for i in range(repeat):
        for k in [(i + j) % len(fns) for j in range(len(fns))]:
            c0, t0 = time.process_time(), time.perf_counter()
            fns[k]()
            wall[k] = min(wall[k], time.perf_counter() - t0)
            cpu[k] = min(cpu[k], time.process_time() - c0)
    return results, [(w * 1e3, c * 1e3) for w, c in zip(wall, cpu)]


# a call whose CPU time exceeds this multiple of its wall time ran on more
# than one core (say a multithreaded BLAS), and show() marks it
CPU_OVER_WALL = 1.2


# the naive F whose wall time per lattice term is naive_ns_per_term
NAIVE_R = 500
NAIVE_TERMS = (2 * NAIVE_R + 1) ** 2 - 1


FRESH_TAUS = 512  # distinct tau per fresh-tau run, twice the theta weights' cache


def fresh_taus() -> list:
    """FRESH_TAUS distinct tau of the verify box, |Re tau| <= 1/2, Im tau in [0.8, 2]."""
    rng = np.random.default_rng(0)
    return [complex(x, y) for x, y in zip(rng.uniform(-0.5, 0.5, FRESH_TAUS),
                                          rng.uniform(0.8, 2.0, FRESH_TAUS))]


def load_tree(src: str, name: str) -> str:
    """Import the epolylog package under src as the package name and return
    the name; its modules import one another only relatively, so two trees
    can live in one interpreter."""
    pkg = os.path.join(src, "epolylog")
    spec = importlib.util.spec_from_file_location(name, os.path.join(pkg, "__init__.py"),
                                                  submodule_search_locations=[pkg])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return name


def calls(pkg: str = "epolylog"):
    """The layer microbenchmarks of the package imported as pkg, by name."""
    E, K, Lg, Nm, P, W = (importlib.import_module(f"{pkg}.{m}") for m in (
        "eisenstein", "kronecker", "logsheaf", "numerics", "polylog", "weierstrass"))
    tau = 0.21 + 1.1j
    zs = 0.1 + 0.3 * np.linspace(0.0, 1.0, 256) + 0.05j

    taus = fresh_taus()

    kpoint = K.KroneckerPoint(0.23 + 0.11j, 0.17 + 0.05j, W.ModuliPoint(tau))
    residue_cfg = Nm.CauchyConfig(radius=K.default_cauchy_config(tau, 2).radius, samples=64,
                                  self_check=False)

    def naive(R, ordering="eisenstein"):
        return E.EisensteinQuery(1, 2, 5, 4, tau, mode="naive",
                                 trunc=Nm.LatticeTruncation(R, ordering))

    vector_taus = np.array(taus[:256])

    return {
        "theta_vector_256": lambda: W.theta_normalized(zs, tau),
        "theta_vector_fresh_tau_256": lambda: W.theta_normalized(zs, vector_taus),
        "theta_scalar": lambda: W.theta_normalized(0.23 + 0.11j, tau),
        "s_coeffs_n8": lambda: K.s_coeffs(0.23 + 0.11j, tau, 2, 8),
        # one cycle over the fresh tau; main() divides by FRESH_TAUS
        "theta_scalar_fresh_tau": lambda: [W.theta_normalized(0.23 + 0.11j, t) for t in taus],
        "s_coeffs_n4_fresh_tau": lambda: [K.s_coeffs(0.23 + 0.11j, t, 2, 4) for t in taus],
        "wp_fresh_tau": lambda: [W.wp(0.23 + 0.11j, t) for t in taus],
        "F_lipschitz": lambda: E.F(E.EisensteinQuery(1, 2, 5, 4, tau)),
        # near the real axis, outside the verify box, where the rows decay slowly
        "F_lipschitz_small_im": lambda: E.F(E.EisensteinQuery(1, 2, 5, 4, 0.5 + 0.03j)),
        "F_naive_R500": lambda: E.F(naive(NAIVE_R)),
        "F_naive_box_R400": lambda: E.F(naive(400, "box")),
        "k2_naive_R500": lambda: E.eisenstein_sum_k2(1, 2, 5, tau, Nm.LatticeTruncation(500)),
        "F_tilde_naive_R500": lambda: E.F_tilde(naive(500), 2),
        "F_tilde_naive_R100": lambda: E.F_tilde(naive(100), 2),
        "specialize_naive_R100": lambda: P.specialize_eisenstein(
            P.TorsionLabel(1, 2, 5, 3), tau, 3, mode="naive", trunc=Nm.LatticeTruncation(100)),
        "F_tilde_lipschitz": lambda: E.F_tilde(E.EisensteinQuery(1, 2, 5, 4, tau), 2),
        "specialize_lipschitz": lambda: P.specialize_eisenstein(
            P.TorsionLabel(1, 2, 5, 3), tau, 3),
        "abs_connection_n4": lambda: Lg.abs_connection(4, tau),
        "curvature_n4": lambda: Lg.curvature_residual(4, tau),
        "closedness_n4": lambda: P.closedness_residual(0.23 + 0.11j, tau, 2, 4),
        "residue_contour_32": lambda: Nm.contour_integral(
            lambda u: K.dlog_kato_siegel(u, tau, 2, residue_cfg), 0.0,
            0.4 * min(1.0, abs(tau)) / 2, 32),
        "heat_residual_point": lambda: K.heat_residual(kpoint),
        "distribution_point": lambda: K.distribution_residual(kpoint, 3),
    }


def layers(trees: list, repeat: int) -> tuple:
    """One round of the layer microbenchmarks on each tree (a calls() dict
    each), every call timed by best_ms on all trees at once: per tree the
    record of layers_ms, layers_cpu_ms and naive_ns_per_term, and the
    results of its calls."""
    records = [{"layers_ms": {}, "layers_cpu_ms": {}} for _ in trees]
    results = [{} for _ in trees]
    for name in trees[0]:
        per_run = FRESH_TAUS if name.endswith("_fresh_tau") else 1
        try:
            got, timed = best_ms([tree[name] for tree in trees], repeat)
        except TypeError:  # an array of tau where a tree takes one tau
            got, timed = [None] * len(trees), [None] * len(trees)
        for record, result, value, ms in zip(records, results, got, timed):
            wall, cpu = (None, None) if ms is None else (round(v / per_run, 4) for v in ms)
            record["layers_ms"][name], record["layers_cpu_ms"][name] = wall, cpu
            result[name] = value
    for record in records:
        record["naive_ns_per_term"] = round(
            record["layers_ms"]["F_naive_R500"] * 1e6 / NAIVE_TERMS, 3)
    return records, results


def suite_seconds(repeat: int) -> dict:
    """Per verify suite at seed 0: (wall s, CPU s), best of repeat."""
    from epolylog.cli import SUITES, RunConfig, cmd_verify

    config = RunConfig(seed=0)
    return {name: tuple(v / 1e3 for v in best_ms([lambda: cmd_verify(name, config)], repeat)[1][0])
            for name in SUITES}


def cold_misses() -> int:
    """Theta weight cache misses of one `verify all --seed 0` from a cleared cache."""
    from epolylog.cli import RunConfig, cmd_verify
    from epolylog.weierstrass import _jacobi_weights

    _jacobi_weights.cache_clear()
    cmd_verify("all", RunConfig(seed=0))
    return _jacobi_weights.cache_info().misses


def verify_all() -> tuple:
    """Wall s, CPU s and the md5 of the report of one `verify all --seed 0`."""
    from epolylog.cli import RunConfig, cmd_verify

    c0, t0 = time.process_time(), time.perf_counter()
    report = cmd_verify("all", RunConfig(seed=0))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    # the CLI prints json.dumps(report, indent=2) and a newline
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    return wall, cpu, hashlib.md5(text.encode()).hexdigest()


def src_lines(src: str) -> int:
    pkg = os.path.join(src, "epolylog")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def measure(src: str, repeat: int) -> dict:
    """The verify suites and `verify all` of one round on the tree under src,
    in this interpreter."""
    sys.path.insert(0, src)
    record = {"jacobi_weights_misses_verify_all_seed0": cold_misses()}
    suites = suite_seconds(repeat)
    record["suites_s"] = {k: round(wall, 4) for k, (wall, _) in suites.items()}
    record["suites_cpu_s"] = {k: round(cpu, 4) for k, (_, cpu) in suites.items()}
    wall, cpu, md5 = verify_all()
    record["verify_all_seed0_s"] = round(wall, 3)
    record["verify_all_seed0_cpu_s"] = round(cpu, 3)
    record["verify_all_seed0_md5"] = md5
    runs = [verify_all() for _ in range(repeat)]
    record["verify_all_seed0_best_s"] = round(min(r[0] for r in runs), 3)
    record["verify_all_seed0_best_cpu_s"] = round(min(r[1] for r in runs), 3)
    record["src_lines"] = src_lines(src)
    return record


def tier1(src: str) -> dict:
    """Wall seconds and passed count of the tier-1 pytest of the tree whose
    package lives under src."""
    root = os.path.dirname(src)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                         cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    passed = re.search(r"(\d+) passed", out.stdout)
    return {"tier1_s": round(wall, 3), "tier1_passed": int(passed.group(1)) if passed else 0}


def cpu_note(wall, cpu) -> str:
    return f"   CPU > {CPU_OVER_WALL} x wall" if wall and cpu > CPU_OVER_WALL * wall else ""


def show(title: str, record: dict) -> None:
    print(f"== {title}   (wall, CPU)")
    for name, ms in record["layers_ms"].items():
        cpu = record["layers_cpu_ms"][name]
        per_term = (f"   {record['naive_ns_per_term']:.3f} ns/term"
                    if name == "F_naive_R500" else "")
        print(f"{name:26s} " + ("       n/a ms" if ms is None else
                                f"{ms:10.4f} ms {cpu:10.4f} ms{per_term}{cpu_note(ms, cpu)}"))
    for name, sec in record["suites_s"].items():
        cpu = record["suites_cpu_s"][name]
        print(f"{'verify ' + name:24s} {sec:10.3f} s  {cpu:10.3f} s{cpu_note(sec, cpu)}")
    wall, cpu = record["verify_all_seed0_s"], record["verify_all_seed0_cpu_s"]
    print(f"{'verify all --seed 0':24s} {wall:10.3f} s  {cpu:10.3f} s"
          f"   md5 {record['verify_all_seed0_md5']}{cpu_note(wall, cpu)}")
    wall, cpu = record["verify_all_seed0_best_s"], record["verify_all_seed0_best_cpu_s"]
    print(f"{'verify all, best of N':24s} {wall:10.3f} s  {cpu:10.3f} s{cpu_note(wall, cpu)}")
    print(f"{'theta weight misses':24s} {record['jacobi_weights_misses_verify_all_seed0']:10d}"
          "   (cold verify all --seed 0)")
    print(f"{'src lines':24s} {record['src_lines']:10d}")
    print(f"{'tier-1 pytest':24s} {record['tier1_s']:10.3f} s   "
          f"{record['tier1_passed']} passed", flush=True)


def median_record(records: list) -> dict:
    """Numbers: the median over rounds; anything else: the value, or the list
    of values if the rounds disagree."""
    first = records[0]
    if isinstance(first, dict):
        return {k: median_record([r[k] for r in records]) for k in first}
    if isinstance(first, float):
        return round(statistics.median(records), 4)
    return first if all(r == first for r in records) else records


def times(record: dict) -> dict:
    """The timed figures of a record: each layer (ms), each verify suite and
    the best `verify all` (s)."""
    return {**record["layers_ms"],
            **{f"verify {k}": v for k, v in record["suites_s"].items()},
            "verify all, best of N": record["verify_all_seed0_best_s"]}


def round_ratios(rounds: dict, medians: dict, labels: list, n_rounds: int) -> dict:
    """Per timed figure: the second tree's time over the first's in each
    round, their median, min and max, and the ratio of the per-tree medians
    over the rounds."""
    pairs = [[times(rounds[f"{label}_round{r}"]) for label in labels]
             for r in range(1, n_rounds + 1)]
    first, second = (times(medians[label]) for label in labels)
    out = {}
    for name in first:
        ratios = [round(b[name] / a[name], 4) for a, b in pairs if a.get(name) and b.get(name)]
        if ratios:
            out[name] = {"rounds": ratios, "median": round(statistics.median(ratios), 4),
                         "min": min(ratios), "max": max(ratios),
                         "of_medians": round(second[name] / first[name], 4)}
    return out


def show_ratios(labels: list, ratios: dict) -> None:
    print(f"== {labels[1]} / {labels[0]}: per-round ratios, median [min, max], "
          "and the ratio of the medians over rounds")
    for name, r in ratios.items():
        print(f"{name:28s} {r['median']:7.3f} [{r['min']:.3f}, {r['max']:.3f}]"
              f"   {r['of_medians']:7.3f}")


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append",
                    help="source tree holding the epolylog package; give it once or twice "
                         "(default: this checkout's)")
    ap.add_argument("--label", action="append",
                    help="name of each tree in the output, in --src order "
                         "(default: change, or parent and change for two trees)")
    ap.add_argument("--rounds", type=int, default=3, help="rounds per tree")
    ap.add_argument("--repeat", type=int, default=7, help="timed runs per call")
    ap.add_argument("--out", default=None, help="JSON file to merge the numbers into")
    ap.add_argument("--one-round", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(here, "..", "src")]]
    # a checkout root: its package lives under src/
    srcs = [os.path.join(s, "src") if os.path.isdir(os.path.join(s, "src", "epolylog")) else s
            for s in srcs]
    labels = args.label or (["change"] if len(srcs) == 1 else ["parent", "change"])
    if len(srcs) > 2 or len(labels) != len(srcs) or len(set(labels)) != len(labels):
        ap.error("give one or two --src trees and, if any, one distinct --label per tree")
    if args.repeat < 1 or args.rounds < 1:
        ap.error("--repeat and --rounds must be >= 1")
    if args.one_round:  # a child: one tree's verify suites, the record as the last line
        print(json.dumps(measure(srcs[0], args.repeat)))
        return

    # this interpreter times the layers, each tree its own package, interleaved call by call
    packages = [calls(load_tree(src, f"epolylog_tree{i}")) for i, src in enumerate(srcs)]
    rounds, order = {}, []
    for r in range(1, args.rounds + 1):
        timed = dict(zip(labels, layers(packages, args.repeat)[0]))
        trees = list(zip(labels, srcs))
        for label, src in trees if r % 2 else trees[::-1]:
            out = subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                                  "--repeat", str(args.repeat), "--one-round"],
                                 stdout=subprocess.PIPE, text=True, check=True)
            key = f"{label}_round{r}"
            rounds[key] = {**timed[label], **json.loads(out.stdout.strip().splitlines()[-1]),
                           **tier1(src)}
            order.append(key)
            show(key, rounds[key])
    medians = {label: median_record([rounds[f"{label}_round{r}"]
                                     for r in range(1, args.rounds + 1)]) for label in labels}
    for label in labels:
        show(f"{label}, median of {args.rounds} rounds", medians[label])
    ratios = round_ratios(rounds, medians, labels, args.rounds) if len(labels) == 2 else None
    if ratios:
        show_ratios(labels, ratios)

    if args.out:
        data = {}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                data = json.load(fh)
        data["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                           "numpy": np.__version__, "platform": platform.platform()}
        data["repeat"] = args.repeat
        data["order"] = order
        data["rounds"] = rounds
        data["median_over_rounds"] = medians
        if ratios:
            data["round_ratios"] = {"of": f"{labels[1]} / {labels[0]}", **ratios}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
