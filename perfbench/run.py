"""epolylog benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload point-eval --seed 0 --seconds 40 --trace 0

Workloads (both closed loops with one client: each call is issued after
the previous one returns):

  lattice-sums  a seeded stream of F, F_tilde, eisenstein_sum_k2 and
                specialize_eisenstein queries, naive and Lipschitz
  point-eval    a seeded stream of single evaluations: theta, J, zeta, wp,
                s_coeffs, dlog_kato_siegel, L_form, and the verify suites'
                per-point residuals (curvature, closedness, Kato-Siegel
                residue, the weierstrass suite through cli.cmd_verify)

A run builds the inputs from the seed, times set-up in fresh interpreters
(setup_s, median of SETUP_REPEATS), makes one warm-up pass over the call
list, then repeats the list for --seconds (at least one pass). Each call's
time is its fastest over the passes: slowdowns of the shared host then
drop out call by call. Correctness is checked outside the timed region.
--trace 1 splits --seconds between untraced and traced passes and prints
the per-layer metrics instead of the end-to-end ones. The last stdout line
is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 7
OUT_DIR = ROOT / ".bench_out"


class Pass:
    """One closed-loop pass over the call list."""

    def __init__(self, fns):
        self.latencies, self.cpu, self.results = [], [], []
        for fn in fns:
            c, a = time.process_time(), time.perf_counter()
            try:
                value = fn()
            except Exception as exc:  # a failed call is a result to count
                value = exc
            self.latencies.append(time.perf_counter() - a)
            self.cpu.append(time.process_time() - c)
            self.results.append(value)


def fastest(passes, field: str) -> list:
    """Each call's fastest time over the passes."""
    return [min(c) for c in zip(*(getattr(p, field) for p in passes))]


def repeat(fns, seconds: float, reference: Pass, after_each=None) -> list:
    """Passes for `seconds` (at least one). Each pass's results are compared
    with the reference and dropped, so memory does not grow with the number
    of passes."""
    import calls

    ref = [calls.canonical(r) for r in reference.results]
    passes, start = [], time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        p = Pass(fns)
        p.repeats = [calls.canonical(r) for r in p.results] == ref
        p.results = None
        passes.append(p)
        if after_each:
            after_each()
    return passes


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(SRC)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def tail(samples: list) -> tuple:
    """The highest percentile that leaves 10 samples beyond it, and that
    percentile."""
    s = sorted(samples)
    n = len(s)
    return s[n - 11], 100.0 * (n - 10) / n


def check_calls(workload: str, specs, passes, reference, mods, probes=(), probed=()) -> dict:
    """Each call against its reference; a miss inside the gated domain fails
    the run, every miss counts as a failed call. The known-defect probes
    are checked the same way and reported on their own."""
    import refs

    if workload == "point-eval":
        expected = refs.point_refs(list(specs) + list(probes))
    else:
        expected = [refs.lattice_ref(s, mods) for s in specs]
    errors, margins = [], []
    for spec, value, ref in zip(list(specs) + list(probes),
                                list(reference.results) + list(probed), expected):
        err = ratio = None
        if isinstance(value, BaseException):
            err = type(value).__name__
        elif spec[0] in refs.RESIDUALS:
            ratio = refs.residual_ratio(spec, value)
        elif ref is not None:
            got = refs.point_values(spec[0], value) if workload == "point-eval" else [complex(value)]
            ratio = refs.rel_error(got, ref if isinstance(ref, list) else [ref]) / refs.tolerance(spec)
        if ratio is not None:
            err = None if ratio <= 1.0 else "accuracy"
            if spec[2]["gated"]:
                margins.append(ratio)
        errors.append(err)
    return {
        "errors": errors[:len(specs)],
        "probe_errors": errors[len(specs):],
        "worst_margin": max(margins, default=0.0),
        "gates": {"gated_calls_accurate": not any(e for e, s in zip(errors, specs) if s[2]["gated"]),
                  "identical_results": all(p.repeats for p in passes)},
    }


def input_shares(workload: str, specs) -> dict:
    out = {"calls_by_kind": dict(sorted(Counter(s[0] for s in specs).items()))}
    n = len(specs)
    seen, reuse, outside = set(), 0, 0
    for _, a, _ in specs:
        if "tau" not in a:  # a verify suite draws its own tau
            continue
        reuse += a["tau"] in seen
        seen.add(a["tau"])
        outside += not workloads.in_box(a["tau"])
    out["tau_outside_verify_box"] = outside / n
    out["tau_reuse"] = reuse / n
    modes = Counter(s[2]["mode"] for s in specs if "mode" in s[2])
    if modes:
        out["naive"] = modes["naive"] / n
        out["lipschitz"] = modes["lipschitz"] / n
    return out


def context(mods) -> dict:
    """Ungated size figures: source lines and settable configuration values."""
    src_lines = sum(len(f.read_text().splitlines()) for f in (SRC / "epolylog").glob("*.py"))
    fields = dataclasses.fields(mods["cli"].RunConfig)
    nested = sum(len(dataclasses.fields(f.default)) for f in fields
                 if dataclasses.is_dataclass(f.default))
    nested += len(dataclasses.fields(mods["numerics"].CauchyConfig))  # cauchy defaults to None
    flags = Path(mods["cli"].__file__).read_text().count('add_argument("--')
    return {"src_lines": src_lines, "runconfig_fields": len(fields),
            "runconfig_nested_fields": nested, "cli_flags": flags}


def traced_layers(fns, seconds: float, reference, mods, untraced_wall: float, spans_path: Path):
    """Per-layer metrics from traced passes, and the traced passes."""
    import tracing

    tracer = tracing.Tracer(mods)
    per_pass, last = [], []

    def collect():
        last[:] = tracer.take()
        per_pass.append(tracing.layer_metrics(last, tracer.names))

    tracer.install()
    try:
        traced = repeat(fns, seconds, reference, after_each=collect)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, last)
    # counts repeat exactly from pass to pass; times are the median
    layer = {k: statistics.median(m[k] for m in per_pass) if tracing.unit(k) == "s"
             else per_pass[-1][k] for k in per_pass[0]}
    layer["trace.overhead_s"] = sum(fastest(traced, "latencies")) - untraced_wall
    return layer, traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "epolylog" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import calls

    wl, seed = args.workload, args.seed
    specs = workloads.specs_for(wl, seed)
    probes = workloads.probes_for(wl, seed)
    setup_s = None if args.trace else measure_setup(wl, seed)
    mods = calls.modules()
    if Path(mods["epolylog"].__file__).resolve().parent != (SRC / "epolylog").resolve():
        print(f"error: imported epolylog from {mods['epolylog'].__file__}", file=sys.stderr)
        return 2
    fns = [calls.bind(s, mods) for s in specs]
    reference = Pass(fns)  # warm-up, and the reference results
    # a traced run splits its time between untraced and traced passes
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = repeat(fns, seconds, reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = fastest(passes, "latencies")
    wall_s = sum(samples)
    traced, shares = [], input_shares(wl, specs)
    if args.trace:
        import tracing

        layer, traced = traced_layers(fns, seconds, reference, mods, wall_s,
                                      OUT_DIR / f"spans-{wl}-seed{seed}.jsonl.gz")
    probed = Pass([calls.bind(s, mods) for s in probes]).results
    result = check_calls(wl, specs, passes + traced, reference, mods, probes, probed)

    failing = sum(map(bool, result["errors"]))
    op_tail, tail_pct = tail(samples)
    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "cpu_s": {"value": sum(fastest(passes, "cpu")), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(samples), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * op_tail, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    print(f"workload {wl}  seed {seed}  closed loop, 1 client, parallelism 1, "
          f"{len(passes)} timed passes of {len(specs)} calls")
    print("input shares: " + json.dumps(shares))
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  each call's time is its fastest of {len(passes)} passes; wall_s and cpu_s "
              f"sum them over the {len(samples)} calls; op_tail_ms is p{tail_pct:.1f} of "
              "them, op_p50_ms their median")
    print(f"  fail_share {failing / len(specs):.6g}: {failing} of {len(specs)} timed calls "
          f"fail, in every pass")
    errors = Counter((s[0], e) for s, e in zip(specs, result["errors"]) if e)
    for (kind, err), count in sorted(errors.items()):
        print(f"    {kind:10s} {err:22s} {count}")
    if probes:
        probe_errors = result["probe_errors"]
        failed_probes = sum(map(bool, probe_errors))
        print(f"  known-defect probes (untimed, not counted in 'failed'): fail_share "
              f"{failed_probes / len(probes):.6g}, {failed_probes} of {len(probes)} fail")
        errors = Counter((s[0], e) for s, e in zip(probes, probe_errors) if e)
        for (kind, err), count in sorted(errors.items()):
            print(f"    {kind:10s} {err:22s} {count}")
        for (kind, a, tags), err in zip(probes, probe_errors):
            print(f"    probe {kind}{tuple(a.values())} [tau {tags['tau']}]: {err or 'ok'} "
                  f"({tags['pinned']})")
    print(f"  worst_margin {result['worst_margin']:.6g} (worst error / tolerance, gated calls)")
    print("gates: " + json.dumps(result["gates"]))
    print("context (ungated): " + json.dumps(context(mods)))
    print(json.dumps({"correct": all(result["gates"].values()),
                      "attempted": (len(passes) + len(traced)) * len(specs),
                      "failed": (len(passes) + len(traced)) * failing,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
