"""Layer microbenchmarks: one fixed call per layer, timed best of N, in
rounds over one or two source trees.

Prints, per call, the fastest of N timed runs after one warm-up run (on a
machine shared with other work one run's wall time can move by 2x), then the
md5 of the canonical `verify all --seed 0` report and the line count of
`src/epolylog/*.py`. Next to each wall time it records the CPU time
(time.process_time, the smallest of the same runs), and it marks a call whose
CPU time exceeds 1.2 x its wall time: that call kept a second core busy (a
multithreaded BLAS, say), which a faster wall time alone hides. Next to
F_naive_R500 it prints naive_ns_per_term, that call's wall time over its
(2R+1)^2 - 1 lattice terms: the naive kernel's cost per term. The calls are
the layer microbenchmarks of the ROADMAP's performance aim:

  theta on a 256-point vector and scalar theta_normalized (weierstrass),
  s_coeffs at n = 8 and n = 2 (kronecker; n = 2 is mostly the kernel's fixed
  cost), L_form at levels 1 and 4 (polylog, the s_k to order 2 and 5 with
  their rows and fibers), F in Lipschitz mode (at the verify-box tau
  and at 0.5 + 0.03i, near the real axis) and naive F at R = 500
  (eisenstein), naive box F at R = 400, the weight-2 eisenstein_sum_k2 at
  R = 500, naive F_tilde at R = 500 (two labels over one lattice, the call
  of perfbench's lattice-sums F_tilde slots), naive F_tilde and naive
  specialize_eisenstein at R = 100,
  Lipschitz F_tilde at D = 2 and Lipschitz specialize_eisenstein at D = 3
  (eight cosets of the Lipschitz kernel), the connection matrices abs_connection
  at level 4 (logsheaf), and the connection layer's real cost:
  curvature_residual at levels 0, 1 and 4 (the levels of the curvature
  suite) and closedness_residual at level 4 (closedness_n4 covers the levels
  0-4, the closedness suite's work for one point and D),
  and the kernel's per-point checks (kronecker): the Kato-Siegel residue at
  the origin by a 32-node contour integral of dlog_kato_siegel on its 64-sample
  contour reference path (the call of perfbench's point-eval residue kind),
  heat_residual and distribution_residual at D = 3 at one point, and the
  kernel value jacobi_J with its KroneckerPoint built in the call (the call of
  perfbench's point-eval J kind).

Every call above repeats one tau, so its theta weights come from the cache.
The fresh-tau layers, scalar theta_normalized, wp, jacobi_J and s_coeffs at n =
4, cycle through 512 distinct verify-box tau (twice the 256 entries of the theta
weights' cache), so every call builds its weights; a timed run is one cycle
and the figure is its time per call. The 4096 entries of the E2, E4, E6 cache
hold all 512 tau, so eisenstein_weights_fresh_tau calls the uncached
_eisenstein_weights at each: what the Lambert sums of a tau new to eta1, g2
and g3 cost. theta_vector_fresh_tau_256 is one theta_normalized call on 256
points, each at its own tau (the first 256 of those tau): the vector-tau
engine's weight lookup per tau and its padded sum.
F_lipschitz_fresh_tau is Lipschitz F at one label over the same 512 tau: its
real row comes from the real row cache (eisenstein._real_row), which is keyed
without tau, and its Lambert halves are new at each tau.
The round also counts the theta weights' cache misses
(`_jacobi_weights.cache_info().misses`) and the real row cache's hits and
misses over one `verify all --seed 0` run with those caches cleared first
(None for a tree without the real row cache).

The verify suites are timed the same way: cmd_verify(suite) at seed 0 for
every verify suite and for `all` (the whole suite per run), each a call of
suites(), timed after the layers; the md5 of the canonical `verify all --seed
0` report comes from its warm-up run.

--src picks the source tree to import, the directory holding the epolylog
package or a checkout root whose src/ holds it; give it twice, say a parent
commit checked out elsewhere (git archive or git clone) and the working tree,
to compare them on the same machine. Each tree is imported into this
interpreter under its own package name (the package's modules import one
another only relatively), and with two trees each of the N timed runs of a
call runs it on both, the lead alternating, so the host's drift within a
round falls on both sides of every ratio. The trees alternate from round to
round too: the first tree leads the odd rounds and the second the even ones.
After its calls each round runs each tree's tier-1 pytest (`python -m pytest
-q --continue-on-collection-errors -p no:cacheprovider -p no:benchmark
--rootdir ROOT ROOT/tests` from a temporary working directory, its src first
on PYTHONPATH, with PYTHONDONTWRITEBYTECODE=1, so the run leaves no
.pytest_cache, __pycache__, .benchmarks or .hypothesis in the tree), in the
same order, and records the wall seconds and the passed, failed and error
counts. Two trees
also print, for every layer and every verify suite, the second tree's time
over the first's in each round, with the median and range of those ratios,
beside the ratio of the per-tree medians over the rounds. A host whose speed drifts between rounds moves both trees of
a round alike, so the per-round ratios are the figure to compare; the ratio
of medians mixes rounds of different speeds. --out merges every round, the
per-tree medians and the per-round ratios into a JSON file, written before the
medians are printed. A field the rounds disagree on (the line count of a tree
edited during the run, say) is kept and printed as its list of values.

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
import tempfile
import time
from functools import partial

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
        "s_coeffs_n2": lambda: K.s_coeffs(0.23 + 0.11j, tau, 2, 2),
        "L_form_n1": lambda: P.L_form(0.23 + 0.11j, tau, 2, 1),
        "L_form_n4": lambda: P.L_form(0.23 + 0.11j, tau, 2, 4),
        # one cycle over the fresh tau; main() divides by FRESH_TAUS
        "theta_scalar_fresh_tau": lambda: [W.theta_normalized(0.23 + 0.11j, t) for t in taus],
        "s_coeffs_n4_fresh_tau": lambda: [K.s_coeffs(0.23 + 0.11j, t, 2, 4) for t in taus],
        "wp_fresh_tau": lambda: [W.wp(0.23 + 0.11j, t) for t in taus],
        "eisenstein_weights_fresh_tau": lambda: [W._eisenstein_weights.__wrapped__(t)
                                                 for t in taus],
        "F_lipschitz": lambda: E.F(E.EisensteinQuery(1, 2, 5, 4, tau)),
        "F_lipschitz_fresh_tau": lambda: [E.F(E.EisensteinQuery(1, 2, 5, 4, t)) for t in taus],
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
        "curvature_n0": lambda: Lg.curvature_residual(0, tau),
        "curvature_n1": lambda: Lg.curvature_residual(1, tau),
        "curvature_n4": lambda: Lg.curvature_residual(4, tau),
        "closedness_n4": lambda: P.closedness_residual(0.23 + 0.11j, tau, 2, 4),
        "residue_contour_32": lambda: Nm.contour_integral(
            lambda u: K.dlog_kato_siegel(u, tau, 2, residue_cfg), 0.0,
            0.4 * min(1.0, abs(tau)) / 2, 32),
        "heat_residual_point": lambda: K.heat_residual(kpoint),
        "distribution_point": lambda: K.distribution_residual(kpoint, 3),
        "J_scalar": lambda: K.jacobi_J(K.KroneckerPoint(0.23 + 0.11j, 0.17 + 0.05j,
                                                        W.ModuliPoint(tau))),
        "J_fresh_tau": lambda: [K.jacobi_J(K.KroneckerPoint(0.23 + 0.11j, 0.17 + 0.05j,
                                                            W.ModuliPoint(t))) for t in taus],
    }


def suites(pkg: str) -> dict:
    """cmd_verify at seed 0 of every verify suite and of `all`, of the package
    imported as pkg, by name."""
    cli = importlib.import_module(f"{pkg}.cli")
    config = cli.RunConfig(seed=0)
    return {f"verify {name}": partial(cli.cmd_verify, name, config)
            for name in (*cli.SUITES, "all")}


def layers(trees: list, repeat: int) -> tuple:
    """One round of timed calls on each tree (a dict of calls each, such as
    calls() and suites()), every call timed by best_ms on all trees at once:
    per tree the record of layers_ms, layers_cpu_ms and, when F_naive_R500 is
    among the calls, naive_ns_per_term, and the results of its calls."""
    records = [{"layers_ms": {}, "layers_cpu_ms": {}} for _ in trees]
    results = [{} for _ in trees]
    for name in trees[0]:
        per_run = FRESH_TAUS if name.endswith("_fresh_tau") else 1
        got, timed = best_ms([tree[name] for tree in trees], repeat)
        for record, result, value, (wall, cpu) in zip(records, results, got, timed):
            record["layers_ms"][name] = round(wall / per_run, 4)
            record["layers_cpu_ms"][name] = round(cpu / per_run, 4)
            result[name] = value
    for record in records:
        if "F_naive_R500" in record["layers_ms"]:
            record["naive_ns_per_term"] = round(
                record["layers_ms"]["F_naive_R500"] * 1e6 / NAIVE_TERMS, 3)
    return records, results


def cold_misses(pkg: str) -> dict:
    """The theta weight cache's misses, and the real row cache's hits and
    misses (None in a tree without that cache), of one `verify all --seed 0`
    from cleared caches, of the package imported as pkg."""
    cli, E, W = (importlib.import_module(f"{pkg}.{m}")
                 for m in ("cli", "eisenstein", "weierstrass"))
    real_row = getattr(E, "_real_row", None)
    for cache in filter(None, (W._jacobi_weights, real_row)):
        cache.cache_clear()
    cli.cmd_verify("all", cli.RunConfig(seed=0))
    rows = real_row.cache_info() if real_row else None
    return {"jacobi_weights_misses_verify_all_seed0": W._jacobi_weights.cache_info().misses,
            "real_row_hits_verify_all_seed0": rows and rows.hits,
            "real_row_misses_verify_all_seed0": rows and rows.misses}


def report_md5(report: dict) -> str:
    # the CLI prints json.dumps(report, indent=2) and a newline
    text = json.dumps(report, indent=2, allow_nan=False) + "\n"
    return hashlib.md5(text.encode()).hexdigest()


def src_lines(src: str) -> int:
    pkg = os.path.join(src, "epolylog")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def tier1(src: str) -> dict:
    """Wall seconds and the passed, failed and error counts of the tier-1
    pytest of the tree whose package lives under src. The run writes nothing
    into the tree it measures: no bytecode, no pytest cache, no pytest-benchmark
    store (no test uses that plugin), and it runs in a temporary working
    directory, which takes hypothesis's example database."""
    src = os.path.abspath(src)
    root = os.path.dirname(src)
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    with tempfile.TemporaryDirectory() as cwd:
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                              "-p", "no:cacheprovider", "-p", "no:benchmark", "--rootdir", root,
                              os.path.join(root, "tests")],
                             cwd=cwd, env=env, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - t0
    # pytest's summary line, say "1 failed, 296 passed, 2 errors in 17.02s"
    summary = (out.stdout.strip().splitlines() or [""])[-1]
    found = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"tier1_s": round(wall, 3), "tier1_passed": found.get("passed", 0),
            "tier1_failed": found.get("failed", 0), "tier1_errors": found.get("error", 0)}


def cpu_note(wall, cpu) -> str:
    return f"   CPU > {CPU_OVER_WALL} x wall" if cpu > CPU_OVER_WALL * wall else ""


def count(value) -> str:
    """A count in 10 columns; a count the rounds disagree on, which median_record
    keeps as its list of values, as that list."""
    return f"{value!s:>10}" if isinstance(value, list) else f"{value:10d}"


def show(title: str, record: dict) -> None:
    print(f"== {title}   (wall, CPU)")
    for name, ms in record["layers_ms"].items():
        cpu = record["layers_cpu_ms"][name]
        per_term = (f"   {record['naive_ns_per_term']:.3f} ns/term"
                    if name == "F_naive_R500" else "")
        print(f"{name:28s} {ms:10.4f} ms {cpu:10.4f} ms{per_term}{cpu_note(ms, cpu)}")
    print(f"{'verify all --seed 0 md5':28s} {record['verify_all_seed0_md5']}")
    print(f"{'theta weight misses':28s} {count(record['jacobi_weights_misses_verify_all_seed0'])}"
          "   (cold verify all --seed 0)")
    print(f"{'real row hits, misses':28s} {record['real_row_hits_verify_all_seed0']!s:>10}"
          f" {record['real_row_misses_verify_all_seed0']!s:>10}   (cold verify all --seed 0)")
    print(f"{'src lines':28s} {count(record['src_lines'])}")
    print(f"{'tier-1 pytest':28s} {record['tier1_s']:10.3f} s   {record['tier1_passed']} passed, "
          f"{record['tier1_failed']} failed, {record['tier1_errors']} errors", flush=True)


def median_record(records: list) -> dict:
    """Numbers: the median over rounds; anything else: the value, or the list
    of values if the rounds disagree."""
    first = records[0]
    if isinstance(first, dict):
        return {k: median_record([r[k] for r in records]) for k in first}
    if isinstance(first, float):
        return round(statistics.median(records), 4)
    return first if all(r == first for r in records) else records


def round_ratios(rounds: dict, medians: dict, labels: list, n_rounds: int) -> dict:
    """Per timed call: the second tree's time over the first's in each round,
    their median, min and max, and the ratio of the per-tree medians over the
    rounds."""
    pairs = [[rounds[f"{label}_round{r}"]["layers_ms"] for label in labels]
             for r in range(1, n_rounds + 1)]
    first, second = (medians[label]["layers_ms"] for label in labels)
    out = {}
    for name in first:
        ratios = [round(b[name] / a[name], 4) for a, b in pairs]
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

    # each tree its own package in this interpreter, its calls interleaved call by call
    pkgs = [load_tree(src, f"epolylog_tree{i}") for i, src in enumerate(srcs)]
    trees = [(label, src, pkg, {**calls(pkg), **suites(pkg)})
             for label, src, pkg in zip(labels, srcs, pkgs)]
    rounds, order = {}, []
    for r in range(1, args.rounds + 1):
        lead = trees if r % 2 else trees[::-1]
        records, results = layers([fns for *_, fns in lead], args.repeat)
        for (label, src, pkg, _), record, result in zip(lead, records, results):
            key = f"{label}_round{r}"
            rounds[key] = {**record, "verify_all_seed0_md5": report_md5(result["verify all"]),
                           **cold_misses(pkg), "src_lines": src_lines(src), **tier1(src)}
            order.append(key)
            show(key, rounds[key])
    medians = {label: median_record([rounds[f"{label}_round{r}"]
                                     for r in range(1, args.rounds + 1)]) for label in labels}
    ratios = round_ratios(rounds, medians, labels, args.rounds) if len(labels) == 2 else None

    if args.out:  # first, so no printing below can lose the rounds
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
    for label in labels:
        show(f"{label}, median of {args.rounds} rounds", medians[label])
    if ratios:
        show_ratios(labels, ratios)


if __name__ == "__main__":
    main()
