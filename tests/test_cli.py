import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from epolylog import cli
from epolylog.cli import main
from epolylog.kronecker import KroneckerPoint, jacobi_J
from epolylog.weierstrass import ModuliPoint

J_SQUARE_RE = 6.6064486418186168


def run_python(args, **kwargs):
    """A fresh interpreter that imports the package from this tree's src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path}, **kwargs)


def run_main(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestVerify:
    def test_weierstrass_passes(self, capsys):
        code, report = run_main(capsys, ["verify", "weierstrass"])
        assert code == 0
        assert report["schema"] == "1"
        assert report["overall_pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert "legendre" in names and "wp-ode" in names

    def test_check_record_fields(self, capsys):
        _, report = run_main(capsys, ["verify", "weierstrass"])
        for c in report["checks"]:
            assert set(c) == {"name", "anchor", "points_tested", "max_residual",
                              "tolerance", "pass", "runtime_ms"}
            assert c["runtime_ms"] is None  # canonical reports carry no timings

    def test_tolerance_override_honored(self, capsys):
        code, report = run_main(capsys, ["verify", "heat", "--tolerance", "heat=1e-20"])
        assert code == 1
        heat = next(c for c in report["checks"] if c["name"] == "heat")
        assert heat["tolerance"] == 1e-20
        assert heat["pass"] is False
        assert report["overall_pass"] is False

    def test_seed_changes_residuals(self, capsys):
        _, a = run_main(capsys, ["verify", "heat", "--seed", "7"])
        _, b = run_main(capsys, ["verify", "heat", "--seed", "8"])
        assert a["checks"][0]["max_residual"] != b["checks"][0]["max_residual"]
        assert a["checks"][0]["points_tested"] == 50

    def test_deterministic_across_runs(self, capsys):
        assert main(["verify", "katosiegel", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        main(["verify", "katosiegel", "--seed", "3"])
        second = capsys.readouterr().out
        assert first != ""
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code = main(["verify", "weierstrass", "--out", str(path)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(path.read_text())
        assert report["overall_pass"] is True


class TestBatchedChecks:
    def test_weierstrass_checks_match_per_point_formulas(self):
        # the four weierstrass point checks run once on all their points, each
        # (z, tau) a column; written out point by point with the scalar
        # evaluators they agree to roundoff
        import cmath

        import numpy as np

        from epolylog.cli import CHECKS
        from epolylog.weierstrass import eta_periods, g_invariants, theta_normalized, wp, zeta_fn

        def legendre(z, t):
            eta1 = zeta_fn(z + 1, t) - zeta_fn(z, t)
            eta2 = zeta_fn(z + t, t) - zeta_fn(z, t)
            return abs(eta1 * t - eta2 - 2j * cmath.pi)

        def zeta_law(z, t):
            return abs(zeta_fn(z + 1, t) - zeta_fn(z, t) - eta_periods(t).eta1)

        def sigma(z, t):
            return cmath.exp(eta_periods(t).eta1 * z * z / 2.0) * theta_normalized(z, t)

        def sigma_law(z, t):
            lhs = sigma(z + 1, t)
            rhs = -sigma(z, t) * cmath.exp(eta_periods(t).eta1 * (z + 0.5))
            return abs(lhs - rhs) / max(1.0, abs(lhs))

        def wp_ode(z, t):
            (p, pp), (g2, g3) = wp(z, t), g_invariants(t)
            return abs(pp**2 - (4 * p**3 - g2 * p - g3)) / max(1.0, abs(pp) ** 2)

        formulas = {"legendre": legendre, "zeta-law": zeta_law, "sigma-law": sigma_law,
                    "wp-ode": wp_ode}
        for seed in (0, 1, 2):
            for name, _, _, pts, residual in CHECKS["weierstrass"]:
                if name in formulas:
                    points = pts.build(np.random.default_rng(seed + pts.stream))
                    batched = residual(points)
                    assert len(batched) == len(points)
                    for (z, t), got in zip(points, batched):
                        assert abs(got - formulas[name](z, t)) < 1e-13

    def test_norm_trace_keeps_the_per_translate_sum(self):
        # one dlog_kato_siegel call on the M^2 translates, summed in the order
        # of the loop over them: the same bits as a call per translate
        from epolylog.cli import _ks_norm_trace
        from epolylog.kronecker import dlog_kato_siegel

        for z, t in ((0.23 + 0.11j, 0.5 + 0.8j), (0.14 + 0.21j, 0.13 + 1.7j)):
            for D, M in ((2, 3), (3, 2)):
                ref = dlog_kato_siegel(z, t, D)
                acc = 0.0 + 0.0j
                for c in range(M):
                    for d in range(M):
                        acc += dlog_kato_siegel((z + c * t + d) / M, t, D)
                assert _ks_norm_trace((z, t), D) == abs(acc / M - ref) / max(1.0, abs(ref))

    def test_modularity_sees_a_lattice_sum_defect(self, monkeypatch):
        # a 1e-9 relative defect in the Lambert halves or in row 0 of the
        # Lipschitz kernel, which no other check sees, fails the modularity law
        import numpy as np

        from epolylog import eisenstein

        (_, _, tol, pts, residual), = [c for c in cli.CHECKS["eisenstein"]
                                       if c[0] == "eisenstein-modularity"]
        points = pts.build(np.random.default_rng(pts.stream))
        assert max(residual(points)) < tol
        for attr in ("_lambert", "_row_zero"):
            orig = getattr(eisenstein, attr)
            with monkeypatch.context() as m:
                m.setattr(eisenstein, attr, lambda *a, _orig=orig: _orig(*a) * (1 + 1e-9))
                assert max(residual(points)) > 100 * tol

    @pytest.mark.parametrize("attr, check", [
        ("_eta1", "wp-ode"), ("_eisenstein_weights", "wp-ode"), ("g_invariants", "wp-ode"),
        ("_s_columns", "dlog-zeta"), ("_eta1", "eta1-at-i"), ("_eisenstein_weights", "eta1-at-i")])
    def test_tightened_check_sees_a_layer_defect(self, attr, check):
        # a 1e-9 relative defect in eta1, in E2/E4/E6, in g2/g3 or in the s_k,
        # patched in every module that holds the name and with every lru cache
        # cleared, fails its check at seeds 0-2; the clean residuals pass it
        # (eta1-at-i reads exactly 0 clean, and pi * 1e-9 under either defect)
        from epolylog import eisenstein, kronecker, logsheaf, numerics, polylog, weierstrass

        mods = (cli, eisenstein, kronecker, logsheaf, numerics, polylog, weierstrass)
        orig = getattr(kronecker if attr == "_s_columns" else weierstrass, attr)
        holders = [m for m in mods if getattr(m, attr, None) is orig]

        def defect(*args):
            out = orig(*args)
            return tuple(v * (1 + 1e-9) for v in out) if isinstance(out, tuple) else out * (1 + 1e-9)

        def clear_caches():
            for m in mods:
                for v in vars(m).values():
                    if hasattr(v, "cache_clear"):
                        v.cache_clear()

        (_, _, tol, pts, residual), = [c for checks in cli.CHECKS.values() for c in checks
                                       if c[0] == check]
        point_sets = [pts.build(np.random.default_rng(seed + pts.stream)) for seed in (0, 1, 2)]
        assert all(np.max(residual(points)) < tol for points in point_sets)
        clear_caches()
        try:
            for m in holders:
                setattr(m, attr, defect)
            assert all(np.max(residual(points)) > tol for points in point_sets)
        finally:
            for m in holders:
                setattr(m, attr, orig)
            clear_caches()


class TestEval:
    def test_J(self, capsys):
        code, res = run_main(
            capsys, ["eval", "J", "--z", "0.2", "--w", "0.3", "--tau", "0+1i"]
        )
        assert code == 0
        assert abs(res["value"]["re"] - J_SQUARE_RE) < 1e-12
        assert abs(res["value"]["im"]) < 1e-15

    def test_J_matches_library(self, capsys):
        _, res = run_main(
            capsys,
            ["eval", "J", "--z", "0.23+0.11i", "--w", "0.17-0.05i", "--tau", "0.5+0.8i"],
        )
        direct = jacobi_J(KroneckerPoint(0.23 + 0.11j, 0.17 - 0.05j,
                                         ModuliPoint(0.5 + 0.8j)))
        assert abs(complex(res["value"]["re"], res["value"]["im"]) - direct) < 1e-15

    def test_F(self, capsys):
        code, res = run_main(
            capsys,
            ["eval", "F", "--k", "3", "--N", "4", "--a", "0", "--b", "1",
             "--tau", "0+1.3i", "--mode", "lipschitz"],
        )
        assert code == 0
        assert set(res["value"]) == {"re", "im"}

    def test_F_tilde_degenerate_needs_flag(self, capsys):
        argv = ["eval", "F_tilde", "--k", "3", "--N", "2", "--a", "1", "--b", "0",
                "--D", "2", "--tau", "0+1.3i"]
        code, _ = run_main(capsys, argv)
        assert code == 2
        code, res = run_main(capsys, argv + ["--allow-degenerate"])
        assert code == 0

    def test_s_coeffs(self, capsys):
        code, res = run_main(
            capsys, ["eval", "s_coeffs", "--z", "0.23+0.11i", "--tau", "0.5+0.8i",
                     "--D", "2", "--n", "4"]
        )
        assert code == 0
        assert len(res["value"]) == 5

    def test_dlogtheta(self, capsys):
        code, res = run_main(
            capsys, ["eval", "dlogtheta", "--z", "0.23+0.11i", "--tau", "0.5+0.8i",
                     "--D", "3"]
        )
        assert code == 0

    @pytest.mark.parametrize("D", ["0", "-2"])
    def test_dlogtheta_degree_below_one(self, capsys, D):
        code = main(["eval", "dlogtheta", "--z", "0.2+0.1i", "--tau", "0+1i", "--D", D])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: D must be >= 1, got {D}"

    def test_F_naive_shell_radius(self, capsys):
        # --shell-radius is the naive sum's R: the printed value has the bits of F
        from epolylog.eisenstein import EisensteinQuery, F
        from epolylog.numerics import LatticeTruncation

        code, res = run_main(capsys, ["eval", "F", "--a", "1", "--b", "2", "--N", "5",
                                      "--k", "3", "--tau", "0.21+1.1i", "--mode", "naive",
                                      "--shell-radius", "60"])
        assert code == 0
        want = F(EisensteinQuery(a=1, b=2, N=5, k=3, tau=0.21 + 1.1j, mode="naive",
                                 trunc=LatticeTruncation(60)))
        got = complex(res["value"]["re"], res["value"]["im"])
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_L_form_table(self, capsys):
        code, res = run_main(
            capsys, ["eval", "L_form", "--n", "2", "--D", "2", "--z", "0.23",
                     "--tau", "0+1.2i"]
        )
        assert code == 0
        assert res["n"] == 2
        assert set(res["value"]) == {"dz", "dtau"}
        assert "(0,0)" in res["value"]["dz"]
        for entry in res["value"]["dz"].values():
            assert set(entry) == {"re", "im"}


class TestErrors:
    def test_unknown_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "noSuchSuite"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--seed", "5"], ["--tolerance", "heat=3"],
                                      ["--parallelism", "4"], ["--timings"],
                                      ["--config", "cfg.json"]])
    def test_eval_refuses_verify_options(self, capsys, flag):
        # eval reads none of the run configuration
        argv = ["eval", "J", "--z", "0.2+0.1i", "--w", "0.1", "--tau", "0+1i", *flag]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--shell-radius", "60"], ["--ordering", "box"],
                                      ["--config", "cfg.json"]])
    def test_verify_refuses_eval_options(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "heat", *flag])
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    def test_bad_complex(self, capsys):
        code = main(["eval", "J", "--z", "abc", "--w", "0.3", "--tau", "0+1i"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["J"], "--z"),
        (["J", "--z", "0.2"], "--w"),
        (["s_coeffs"], "--z"),
        (["dlogtheta"], "--z"),
        (["L_form"], "--z"),
    ])
    def test_eval_names_the_missing_flag(self, capsys, argv, flag):
        code = main(["eval", *argv, "--tau", "0.1+1.1i"])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: eval {argv[0]} needs {flag}"

    def test_eval_point_on_lattice(self, capsys):
        code = main(["eval", "J", "--z", "0", "--w", "0.3", "--tau", "0+1i"])
        assert code == 2

    def test_eval_lambert_term_count(self, capsys):
        # a Lipschitz sum past 5000 Lambert terms is a typed error, exit 2: weight 2
        # keeps tau (weight 4 is summed at the reduced tau and returns a value)
        code = main(["eval", "F", "--tau", "0.3+1e-4i", "--a", "1", "--b", "2", "--N", "5",
                     "--k", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_eval_F_near_a_cusp(self, capsys):
        # at 0.337 + 0.0055i, by the cusp 1/3, the rows reach about 1e12 and the value
        # cancels below 1e-20 (tests/oracles.py::F_rows_fine); summed at tau itself
        # its rounding reads 34.7 - 50.1i
        code, res = run_main(capsys, ["eval", "F", "--tau", "0.337+0.0055i", "--a", "7",
                                      "--b", "3", "--N", "8", "--k", "7"])
        assert code == 0
        assert abs(complex(res["value"]["re"], res["value"]["im"])) < 1e-9

    @pytest.mark.parametrize("mode, k", [("naive", "110"), ("naive", "150"), ("lipschitz", "150")])
    def test_eval_large_weight(self, capsys, mode, k):
        # a typed error naming the weight and the mode, not a NaN that JSON
        # rejects, and no numpy overflow warning before it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "F", "--tau", "0.21+1.1i", "--a", "1", "--b", "2", "--N", "5",
                         "--k", k, "--mode", mode])
        assert code == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: weight {k} overflows the float range in mode {mode!r}"

    def test_eval_non_finite_point(self, capsys):
        # 1e400 parses as inf: a typed error, not a NaN that JSON rejects
        code = main(["eval", "dlogtheta", "--z", "1e400", "--tau", "0.5+0.8i", "--D", "2"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    def test_bad_tolerance_syntax(self, capsys):
        code = main(["verify", "heat", "--tolerance", "heat"])
        assert code == 2

    def test_bad_tolerance_values(self, capsys, monkeypatch):
        # inf is refused, naming the check, before any suite runs
        def no_run(*args):
            raise AssertionError("a suite ran")
        monkeypatch.setattr(cli, "cmd_verify", no_run)
        assert main(["verify", "heat", "--tolerance", "heat=inf"]) == 2
        assert "heat" in capsys.readouterr().err

    @pytest.mark.parametrize("residuals", [[math.nan, 0.1, 0.2], [0.1, math.nan, 0.2],
                                           np.array([0.1, math.inf, 0.2])])
    def test_non_finite_residual(self, capsys, monkeypatch, residuals):
        # max() skipped a nan that was not first, and json refused a leading
        # nan or an inf: every one is a typed error naming the check
        (name, anchor, tol, pts, _), = cli.CHECKS["heat"]
        monkeypatch.setitem(cli.CHECKS, "heat", ((name, anchor, tol, pts, lambda _: residuals),))
        assert main(["verify", "heat"]) == 2
        assert capsys.readouterr().err.strip() == "error: check heat has a non-finite residual"

    @pytest.mark.parametrize("suite, check", [
        ("closedness", "closedness"), ("distribution", "distribution"),
        ("distribution", "pole-removal"), ("distribution", "coeff-rescaling"),
        ("katosiegel", "ks-residue-origin"), ("katosiegel", "ks-residue-torsion"),
        ("katosiegel", "ks-norm-trace"), ("katosiegel", "dlog-zeta")])
    def test_nan_at_one_degree(self, monkeypatch, suite, check):
        # a kernel check evaluates D = 2, then D = 3 at each point; a nan from
        # the D = 3 evaluation alone is a typed error naming the check (the suite
        # holds only that check). Each name is patched where the call looks it up.
        from dataclasses import replace

        from epolylog import kronecker
        from epolylog.numerics import NonFiniteError

        def nan_at_three(module, attr, spoil, degree_of=lambda args: args[2]):
            orig = getattr(module, attr)

            def patched(*args):
                out = orig(*args)
                return spoil(out) if degree_of(args) == 3 else out
            monkeypatch.setattr(module, attr, patched)

        def times_nan(v):
            return v * math.nan

        def nan_coeffs(sc):
            return replace(sc, coeffs=tuple(map(times_nan, sc.coeffs)))

        if check == "closedness":
            nan_at_three(cli, "closedness_residual", times_nan)
        elif check == "distribution":  # its _J call: D^2 - 1 cosets and 3 references
            nan_at_three(kronecker, "_J", times_nan, lambda a: math.isqrt(np.size(a[0]) - 2))
        elif check == "pole-removal":  # nan on the ring |w| = 1e-3, not on the contour
            nan_at_three(cli, "_variant",
                         lambda f: lambda w: np.where(np.abs(w) < 0.01, np.nan, f(w)))
        elif check in ("coeff-rescaling", "dlog-zeta"):
            nan_at_three(cli, "s_coeffs", nan_coeffs)
        elif check == "ks-norm-trace":
            nan_at_three(cli, "dlog_kato_siegel", times_nan)
        else:  # the contour integral of a degree-3 integrand
            degrees, dlog = [], cli.dlog_kato_siegel

            def noted(*args):
                degrees.append(args[2])
                return dlog(*args)
            monkeypatch.setattr(cli, "dlog_kato_siegel", noted)
            nan_at_three(cli, "contour_integral", times_nan, lambda _: degrees[-1])
        entry, = [c for c in cli.CHECKS[suite] if c[0] == check]
        monkeypatch.setitem(cli.CHECKS, suite, (entry,))
        with pytest.raises(NonFiniteError, match=f"^check {check} has a non-finite residual$"):
            cli.cmd_verify(suite, cli.RunConfig())

    def test_parallelism_is_refused(self, capsys):
        # checks always ran serially: the flag is gone
        with pytest.raises(SystemExit) as exc:
            main(["verify", "weierstrass", "--parallelism", "1"])
        assert exc.value.code == 2
        assert "--parallelism" in capsys.readouterr().err

    def test_zero_shell_radius(self, capsys):
        # 0 is an invalid radius, not "use the default"
        argv = ["eval", "F", "--a", "1", "--b", "2", "--N", "5", "--k", "3",
                "--tau", "0.21+1.1i", "--mode", "naive", "--shell-radius", "0"]
        assert main(argv) == 2
        assert "shell_radius" in capsys.readouterr().err

    def test_non_integer_shell_radius(self, capsys):
        argv = ["eval", "F", "--a", "1", "--b", "2", "--N", "5", "--k", "3",
                "--tau", "0.21+1.1i", "--mode", "naive", "--shell-radius", "2.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--shell-radius" in capsys.readouterr().err

    def test_unknown_tolerance_name(self, capsys):
        assert main(["verify", "heat", "--tolerance", "haet=1e-3"]) == 2
        assert "haet" in capsys.readouterr().err
        # names are checked against every suite, so one set of flags serves them all
        code, report = run_main(capsys, ["verify", "weierstrass", "--tolerance", "heat=1e-3"])
        assert code == 0
        assert report["overall_pass"] is True


class TestRunConfig:
    # the seed follows the package's one integer rule, numerics._integer
    @pytest.mark.parametrize("seed", [True, False, 2.0, 2.5, "2", None, -1])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ValueError) as info:
            cli.RunConfig(seed=seed)
        assert str(info.value) == f"seed must be >= 0, got {seed!r}"

    def test_numpy_integer_seed(self):
        config = cli.RunConfig(seed=np.int64(3))
        assert type(config.seed) is int and config == cli.RunConfig(seed=3)
        report = cli.cmd_verify("curvature", config)
        assert json.dumps(report) == json.dumps(cli.cmd_verify("curvature", cli.RunConfig(seed=3)))

    # wrong types used to run: timings "no" switched timings on
    @pytest.mark.parametrize("timings", ["no", 1])
    def test_timings_must_be_a_bool(self, timings):
        with pytest.raises(ValueError) as info:
            cli.RunConfig(timings=timings)
        assert str(info.value) == f"timings must be true or false, got {timings!r}"

    @pytest.mark.parametrize("tol", [True, "1e-3"])
    def test_tolerance_override_must_be_a_number(self, tol):
        with pytest.raises(ValueError) as info:
            cli.RunConfig(tolerance_overrides={"heat": tol})
        assert str(info.value) == f"tolerance override heat={tol!r} must be a finite number > 0"


class TestSubprocess:
    def test_module_entry_point(self):
        proc = run_python(["-m", "epolylog.cli", "verify", "weierstrass"], text=True)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["overall_pass"] is True

    def test_import_leaves_scipy_out(self):
        # numpy is the one runtime dependency: no module of the package, the
        # CLI included, imports scipy, whose import alone is most of the setup
        # time of a fresh process
        code = ("import sys, epolylog, epolylog.cli, epolylog.polylog, epolylog.eisenstein; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = run_python(["-c", code], text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_byte_identical_stdout(self):
        argv = ["-m", "epolylog.cli", "verify", "curvature", "--seed", "5"]
        a, b = run_python(argv), run_python(argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
