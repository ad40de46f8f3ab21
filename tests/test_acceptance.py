"""End-to-end acceptance checks, one test per shipped guarantee.

Each test drives the same verification code paths the CLI exposes
(cmd_verify with a fixed seed) and asserts the documented residual bound
and runtime budget for that guarantee. Budgets are wall-clock ceilings
with an order of magnitude of slack on this suite's typical runtimes, so
they only trip on real regressions, not scheduler noise.
"""

import cmath
import json
import time

import numpy as np

import oracles
from epolylog.cli import RunConfig, cmd_verify, main
from epolylog.kronecker import _J, s_coeffs
from epolylog.weierstrass import eta_periods

CFG = RunConfig(seed=0)


def _run(suite: str, budget_s: float) -> dict:
    t0 = time.perf_counter()
    report = cmd_verify(suite, CFG)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"{suite} suite took {elapsed:.1f}s, budget {budget_s}s"
    return {c["name"]: c for c in report["checks"]}


def _assert_check(checks: dict, name: str, bound: float) -> None:
    c = checks[name]
    assert c["pass"], f"{name}: max_residual {c['max_residual']:.3e}"
    assert c["max_residual"] < bound


def test_criterion_01_mixed_heat():
    checks = _run("heat", budget_s=10.0)
    _assert_check(checks, "heat", 1e-6)
    assert checks["heat"]["points_tested"] == 50


def test_criterion_02_quasi_period_suite():
    checks = _run("weierstrass", budget_s=30.0)
    _assert_check(checks, "legendre", 1e-8)
    assert checks["legendre"]["points_tested"] == 20
    _assert_check(checks, "eta1-at-i", 1e-14)
    _assert_check(checks, "wp-ode", 1e-12)
    assert checks["wp-ode"]["points_tested"] == 50
    # square-lattice value against the independent lattice-sum oracle
    lattice = complex(oracles.eta1_lattice_ref(1j))
    assert abs(complex(eta_periods(1j).eta1) - lattice) < 1e-8
    assert abs(lattice - cmath.pi) < 1e-12


def test_criterion_03_connection_flatness():
    checks = _run("curvature", budget_s=60.0)
    _assert_check(checks, "curvature", 1e-4)  # n <= 4
    assert checks["curvature"]["points_tested"] == 10
    _assert_check(checks, "curvature-n0", 1e-12)


def test_criterion_04_closedness():
    checks = _run("closedness", budget_s=120.0)
    _assert_check(checks, "closedness", 1e-4)  # n <= 4, D in {2, 3}
    assert checks["closedness"]["points_tested"] == 10


def test_criterion_05_kato_siegel():
    checks = _run("katosiegel", budget_s=60.0)
    _assert_check(checks, "ks-residue-origin", 1e-7)
    _assert_check(checks, "ks-residue-torsion", 1e-7)
    _assert_check(checks, "ks-norm-trace", 1e-7)


def test_criterion_06_pole_removal():
    t0 = time.perf_counter()
    checks = _run("distribution", budget_s=10.0)
    _assert_check(checks, "pole-removal", 1e-8)
    # literal boundedness on the tiny circle: the pole-free combination
    # stays within one unit of its own constant term
    z, t = 0.27 + 0.13j, 0.21 + 1.1j
    ws = 1e-3 * np.exp(2j * np.pi * np.arange(64) / 64)
    for D in (2, 3):
        f = D * D * _J(z, ws, t) - D * _J(D * z, ws / D, t)
        s0 = s_coeffs(z, t, D, 0).coeffs[0]
        assert float(np.max(np.abs(f))) <= abs(s0) + 1.0
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_distribution_relation():
    checks = _run("distribution", budget_s=60.0)
    _assert_check(checks, "distribution", 1e-6)
    assert checks["distribution"]["points_tested"] == 50


def test_criterion_08_eisenstein_specialization():
    checks = _run("specialization", budget_s=300.0)
    assert len(checks) == 18  # k in {2,3,4} x N in {3,4,5} x D in {2,3}
    for k in (2, 3, 4):
        for N in (3, 4, 5):
            for D in (2, 3):
                name = f"specialization[k={k},N={N},D={D}]"
                _assert_check(checks, name, 1e-6)
                assert checks[name]["points_tested"] == 5


def test_criterion_09_cross_evaluator_oracles():
    t0 = time.perf_counter()
    eis = _run("eisenstein", budget_s=120.0)
    _assert_check(eis, "naive-vs-lipschitz", 1e-5)  # k in {3, 4, 5}
    ks = _run("katosiegel", budget_s=120.0)
    _assert_check(ks, "dlog-zeta", 1e-13)  # level-0 form vs zeta combination
    dist = _run("distribution", budget_s=120.0)
    _assert_check(dist, "coeff-rescaling", 1e-9)  # D^k coefficient scaling
    assert time.perf_counter() - t0 < 120.0


def test_criterion_10_determinism(capsys):
    outs = []
    for _ in range(2):
        assert main(["verify", "all", "--seed", "0"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] != ""
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["overall_pass"] is True
