"""The scripts under scripts/: each imports with src on the path, every
layer microbenchmark of layer_bench.calls() runs once, layer_bench's cache
counts of a cold verify run match the calls they count, its fresh-tau
Lipschitz layer reads one real row from the cache, its kernel-value layers
give one value per tau, its
two-tree timing runs once with this tree on both sides, on the layers and
on one verify suite, its tier-1 run writes nothing into the tree it
measures, and the private package names the scripts reach into
exist and act as the scripts assume.
A change to the package that would break a script fails here.
"""
import dataclasses
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epolylog import eisenstein, kronecker, weierstrass
from epolylog.cli import SUITES
from epolylog.kronecker import KroneckerPoint, heat_residual
from epolylog.weierstrass import ModuliPoint

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _load(path: Path):
    """Import a script as a module: its main() sits under the __main__ check."""
    spec = importlib.util.spec_from_file_location(f"scripts_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_script_imports(path):
    _load(path)


def test_layer_bench_calls_run_once():
    calls = _load(next(p for p in SCRIPTS if p.stem == "layer_bench")).calls()
    for fn in calls.values():
        fn()


def test_layer_bench_times_the_kernel_value():
    # point-eval's J kind: a KroneckerPoint and jacobi_J, at one tau and over
    # the fresh tau, one value per tau
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    calls = bench.calls()
    assert isinstance(calls["J_scalar"](), complex)
    values = calls["J_fresh_tau"]()
    assert len(values) == bench.FRESH_TAUS and all(isinstance(v, complex) for v in values)


def test_contour_radius_sweep_kernel():
    # kronecker._J on an array of w, as the sweep's rescaled contour samples it
    sweep = _load(next(p for p in SCRIPTS if p.stem == "contour_radius_sweep"))
    assert math.isfinite(sweep.rescale_residual(0.23 + 0.11j, 0.5 + 0.8j, 2, 0.4, 4))


def test_heat_stencil_is_the_module_constant(monkeypatch):
    # heat_stencil_scan swaps kronecker._HEAT_STEP, which heat_residual reads
    assert isinstance(kronecker._HEAT_STEP, float)
    point = KroneckerPoint(0.23 + 0.11j, 0.17 + 0.05j, ModuliPoint(0.21 + 1.1j))
    default = heat_residual(point)
    monkeypatch.setattr(kronecker, "_HEAT_STEP", 1e-2)
    assert heat_residual(point) != default


def test_theta_weights_cache_counts_misses():
    # layer_bench counts the theta weights' cache misses of one verify run
    info = weierstrass._jacobi_weights.cache_info()
    assert callable(weierstrass._jacobi_weights.cache_clear) and info.misses >= 0


def test_layer_bench_counts_real_row_traffic(monkeypatch):
    # cold_misses reports the real row cache's traffic over one cold verify run:
    # a lookup per _row_zero call, a miss per distinct key (a mod N, N, D, ds, s)
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    keys = []
    row_zero = eisenstein._row_zero

    def counted(a, N, D, ds, s):
        keys.append((a % N, N, D, tuple(ds), s))
        return row_zero(a, N, D, ds, s)

    monkeypatch.setattr(eisenstein, "_row_zero", counted)
    record = bench.cold_misses("epolylog")
    hits, misses = (record[f"real_row_{k}_verify_all_seed0"] for k in ("hits", "misses"))
    assert hits + misses == len(keys) and misses == len(set(keys)) < len(keys)
    assert record["jacobi_weights_misses_verify_all_seed0"] > 0


def test_layer_bench_fresh_tau_lipschitz_reads_one_real_row():
    # F_lipschitz_fresh_tau is one label at every fresh tau: the real row, keyed
    # without tau, misses once and is read from the cache at every other tau
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    layer = bench.calls()["F_lipschitz_fresh_tau"]
    eisenstein._real_row.cache_clear()
    layer()
    info = eisenstein._real_row.cache_info()
    assert (info.misses, info.hits) == (1, bench.FRESH_TAUS - 1)


def _bits(value):
    """A call's result in a form that == compares bit for bit: arrays by
    dtype, shape and bytes, numbers by repr (signed zeros and nan too),
    dataclasses and sequences item by item."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return repr(value)


def test_layer_bench_tier1_leaves_no_files(monkeypatch, tmp_path):
    # the tier-1 run writes no bytecode, .pytest_cache or .benchmarks into the
    # tree it measures, whatever the caller's environment, and runs outside it,
    # so hypothesis's .hypothesis lands elsewhere; the pytest call is captured
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    seen = []

    def run(args, **kwargs):
        seen.append((args, kwargs))
        return subprocess.CompletedProcess(args, 1,
                                           stdout="1 failed, 296 passed, 2 errors in 1.5s\n")

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(subprocess, "run", run)
    record = bench.tier1(str(tmp_path / "src"))
    (args, kwargs), = seen
    assert args[:3] == [sys.executable, "-m", "pytest"]
    plugins = [args[i + 1] for i, arg in enumerate(args) if arg == "-p"]
    assert plugins == ["no:cacheprovider", "no:benchmark"]
    assert kwargs["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert not Path(kwargs["cwd"]).is_relative_to(tmp_path)
    assert args[args.index("--rootdir") + 1] == str(tmp_path)
    assert args[-1] == str(tmp_path / "tests")
    assert kwargs["env"]["PYTHONPATH"].split(os.pathsep)[0] == str(tmp_path / "src")
    assert (record["tier1_passed"], record["tier1_failed"], record["tier1_errors"]) == (296, 1, 2)


def test_layer_bench_shows_counts_the_rounds_disagree_on(capsys):
    # median_record keeps a field the rounds disagree on as its list (a tree edited
    # between rounds changes its line count): show prints that list, not a TypeError
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    rounds = [{"layers_ms": {"F_naive_R500": ms}, "layers_cpu_ms": {"F_naive_R500": ms},
               "naive_ns_per_term": 2.5, "verify_all_seed0_md5": "0" * 32,
               "jacobi_weights_misses_verify_all_seed0": misses,
               "real_row_hits_verify_all_seed0": 200, "real_row_misses_verify_all_seed0": 122,
               "src_lines": lines, "tier1_s": 13.0, "tier1_passed": 544, "tier1_failed": 0,
               "tier1_errors": 0}
              for ms, misses, lines in ((3.0, 40, 1954), (3.2, 41, 1964), (3.1, 40, 1954))]
    median = bench.median_record(rounds)
    assert median["src_lines"] == [1954, 1964, 1954]
    assert median["jacobi_weights_misses_verify_all_seed0"] == [40, 41, 40]
    bench.show("parent, median of 3 rounds", median)
    shown = capsys.readouterr().out
    assert "[1954, 1964, 1954]" in shown and "[40, 41, 40]" in shown
    bench.show("parent_round1", rounds[0])
    assert f"{'src lines':28s} {1954:10d}\n" in capsys.readouterr().out


def test_layer_bench_interleaves_two_trees():
    # the two-tree form: both trees in this interpreter, each its own package,
    # every call timed on both; the working tree on both sides gives the same
    # results call by call, bit for bit
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    names = [bench.load_tree(src, f"epolylog_tree{i}") for i in range(2)]
    try:
        records, results = bench.layers([bench.calls(name) for name in names], 1)
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in names]:
            del sys.modules[key]
    assert results[0].keys() == results[1].keys() == records[0]["layers_ms"].keys()
    for name in results[0]:
        assert _bits(results[0][name]) == _bits(results[1][name]), name
    assert all(ms > 0 for record in records for ms in record["layers_ms"].values())
    assert all(record["naive_ns_per_term"] > 0 for record in records)


def test_layer_bench_times_suites_in_process():
    # the verify suites go through the same two-tree timing as the layers,
    # each tree's own cmd_verify; both sides return the same report, bit for bit
    bench = _load(next(p for p in SCRIPTS if p.stem == "layer_bench"))
    src = str(Path(__file__).resolve().parent.parent / "src")
    names = [bench.load_tree(src, f"epolylog_tree{i}") for i in range(2)]
    try:
        suites = [bench.suites(name) for name in names]
        records, results = bench.layers(
            [{"verify weierstrass": s["verify weierstrass"]} for s in suites], 1)
    finally:
        for key in [k for k in sys.modules if k.split(".")[0] in names]:
            del sys.modules[key]
    assert all(s.keys() == {f"verify {n}" for n in (*SUITES, "all")} for s in suites)
    report = results[0]["verify weierstrass"]
    assert report["suite"] == "weierstrass" and report["overall_pass"]
    assert _bits(report) == _bits(results[1]["verify weierstrass"])
    assert all(record["layers_ms"]["verify weierstrass"] > 0 for record in records)
