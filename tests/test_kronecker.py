import cmath
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from conftest import STANDARD_POINTS
from epolylog import kronecker
from epolylog.kronecker import (
    MAX_COEFF_ORDER,
    KroneckerPoint,
    default_cauchy_config,
    distribution_residual,
    dlog_kato_siegel,
    heat_residual,
    jacobi_J,
    s_coeffs,
)
from epolylog.numerics import CauchyConfig, contour_integral, richardson, stencil_nodes
from epolylog.weierstrass import ModuliPoint, PoleProximityError, _theta, lattice_dist, zeta_fn

TAU_A = 0.5 + 0.8j
Z_A = 0.23 + 0.11j
W_A = 0.17 - 0.05j

# pinned from the mpmath jtheta oracle at dps = 30
J_SQUARE = complex(6.6064486418186168, 0.0)
J_GEN = complex(7.5690218505079868, -0.29926650550938602)
# s_k of D^2 J(z, w) - D J(Dz, w/D) at D = 2, z = (0.23+0.11j), tau = (0.5+0.8j),
# k = 0..5, by mpmath.taylor(method="quad", radius=0.2) on oracles.J_ref at
# dps = 30; regenerate with scripts/taylor_refs.py
S_TAYLOR_REF = (
    complex(10.279662789313933, -4.901581091854576),
    complex(-11.290425996917449, 1.2594171531390899),
    complex(7.393138417724197, 2.1419682495718106),
    complex(-4.212708664206533, -9.15162788253005),
    complex(-23.42325879451187, -3.1739027859955327),
    complex(-12.452562337527905, 15.71889239279752),
)


def pt(z, w, t):
    return KroneckerPoint(z=z, w=w, tau=ModuliPoint(t))


def rel(got, expect):
    expect = complex(expect)
    return abs(complex(got) - expect) / max(1.0, abs(expect))


class TestKernel:
    def test_frozen_values(self):
        assert rel(jacobi_J(pt(0.2, 0.3, 1j)), J_SQUARE) < 1e-13
        assert rel(jacobi_J(pt(Z_A, W_A, TAU_A)), J_GEN) < 1e-13

    def test_oracle_sweep(self):
        for z, t in STANDARD_POINTS:
            got = jacobi_J(pt(z, 0.29 + 0.07j, t))
            assert rel(got, oracles.J_ref(z, 0.29 + 0.07j, t)) < 1e-12

    def test_symmetric(self):
        a = jacobi_J(pt(Z_A, W_A, TAU_A))
        b = jacobi_J(pt(W_A, Z_A, TAU_A))
        assert abs(a - b) < 1e-13 * abs(a)

    def test_simple_pole_at_origin(self):
        # w J(z, w) -> 1 as w -> 0
        for w in (1e-5, 1e-5j):
            v = jacobi_J(pt(Z_A, w, TAU_A))
            assert abs(w * v - 1.0) < 1e-4

    def test_quasi_periodicity(self):
        p = pt(Z_A, W_A, TAU_A)
        base = jacobi_J(p)
        # full period in d leaves J invariant
        assert rel(jacobi_J(pt(Z_A + 1, W_A, TAU_A)), base) < 1e-12
        for c, d in [(1, 0), (2, -1), (-1, 3)]:
            shifted = jacobi_J(pt(Z_A + c * TAU_A + d, W_A, TAU_A))
            assert rel(shifted, cmath.exp(-2j * cmath.pi * c * p.w) * base) < 1e-11

    def test_point_validation(self):
        with pytest.raises(PoleProximityError):
            pt(0.0, W_A, TAU_A)
        with pytest.raises(PoleProximityError):
            pt(Z_A, 1.0 + TAU_A, TAU_A)
        # z + w on the lattice is a zero of J, not a pole
        p = pt(0.3 + 0.2j, 0.7 - 0.2j, TAU_A)
        assert abs(jacobi_J(p)) < 1e-12


def three_theta_J(z, w, t):
    # the kernel from three _theta calls, each with its own reduction and engine
    # call: the form whose bits _J keeps
    return _theta(np.asarray(z) + np.asarray(w), t) / (_theta(z, t) * _theta(w, t))


def outcome(call):
    # a call's value as bytes, or its exception's type and message
    try:
        return np.asarray(call()).tobytes()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


COORDS = st.floats(-2.0, 2.0)
POINTS = st.builds(complex, COORDS, COORDS)
BOX_TAUS = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.8, 2.0))
OUT_TAUS = st.builds(complex, st.floats(-20.0, 20.0), st.floats(0.06, 3.0))


class TestOneEngineCall:
    @given(z=POINTS, w=POINTS, t=st.one_of(BOX_TAUS, OUT_TAUS))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_jacobi_J_keeps_the_three_call_bits(self, z, w, t):
        # z and w anywhere in [-2, 2]^2, mostly outside the cell, at tau in the
        # verify box and out of it (|Re tau| <= 20, Im tau down to 0.06): the
        # one engine call on z + w, z and w gives the bits of three _theta calls
        assume(min(lattice_dist(z, t), lattice_dist(w, t)) >= 1e-8)
        got = outcome(lambda: jacobi_J(pt(z, w, t)))
        assert got == outcome(lambda: complex(three_theta_J(z, w, t)))

    def test_batched_kernel_keeps_the_three_call_bits(self):
        # _J on heat's tau stencil (scalar z and w, an array of tau) and z-w grid
        # (a column of z nodes against a row of w nodes), on distribution's
        # paired arrays, and on test_acceptance's scalar z against an array of w
        # (and the reverse), at verify-box tau and out of the box; a scalar among
        # arrays keeps the bits of three _theta calls on the broadcast points
        from epolylog.kronecker import _J

        h = kronecker._HEAT_STEP
        rng = np.random.default_rng(38)
        for i in range(40):
            t = (complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0)) if i % 2 else
                 complex(rng.uniform(-20.0, 20.0), rng.uniform(0.06, 3.0)))
            z, w = (complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(2))
            zs, ws = (rng.uniform(-2.0, 2.0, 11) + 1j * rng.uniform(-2.0, 2.0, 11)
                      for _ in range(2))
            for args in ((z, w, stencil_nodes(t, h)),
                         (stencil_nodes(z, h)[:, None], stencil_nodes(w, h), t),
                         (zs, ws, t), (z, ws, t), (zs, w, t)):
                z_, w_, t_ = args
                if np.ndim(z_) != np.ndim(w_):
                    z_, w_ = np.broadcast_arrays(z_, w_)
                got, ref = _J(*args), three_theta_J(z_, w_, t_)
                assert got.shape == ref.shape and got.tobytes() == ref.tobytes()

    def test_one_engine_call_per_kernel_evaluation(self, monkeypatch):
        # jacobi_J and _J at heat's and distribution's shapes, and at a scalar
        # against arrays at one tau (test_acceptance's shape), each make one
        # engine call
        from epolylog import weierstrass
        from epolylog.kronecker import _J

        calls = []
        engine = weierstrass._theta_taylor

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(weierstrass, "_theta_taylor", counted)
        monkeypatch.setattr(kronecker, "_theta_taylor", counted)
        h = kronecker._HEAT_STEP
        zs, ws = Z_A + 0.1 * np.arange(11), W_A - 0.1j * np.arange(11)
        for call, engine_calls in (
                (lambda: jacobi_J(pt(Z_A, W_A, TAU_A)), 1),
                (lambda: _J(Z_A, W_A, stencil_nodes(TAU_A, h)), 1),
                (lambda: _J(stencil_nodes(Z_A, h)[:, None], stencil_nodes(W_A, h), TAU_A), 1),
                (lambda: _J(zs, ws, TAU_A), 1),
                (lambda: _J(Z_A, ws, TAU_A), 1),
                (lambda: _J(zs, W_A, TAU_A), 1)):
            calls.clear()
            call()
            assert len(calls) == engine_calls


class TestVariant:
    def test_one_theta_call_keeps_the_two_J_bits(self):
        # D^2 J(z, w) - D J(Dz, w/D) from one stacked theta call, against the
        # formula with two J's of three _theta calls each, theta(z) and theta(Dz)
        # scalar calls, on the contour rings of dlog_kato_siegel's reference path
        # (64 samples), of pole-removal's extraction (256 and 512) and
        # pole-removal's |w| = 1e-3 ring (16)
        from epolylog.kronecker import _variant

        rings = ((64, 0.05), (256, 0.1), (512, 0.1), (16, 1e-3))
        for (z, t), D in zip(STANDARD_POINTS + [(0.12 + 0.28j, 0.45 + 0.82j)], (2, 3, 2, 3, 3)):
            for samples, radius in rings:
                w = radius * np.exp(2j * np.pi * np.arange(samples) / samples)
                two_J = D * D * three_theta_J(z, w, t) - D * three_theta_J(D * z, w / D, t)
                assert _variant(z, t, D)(w).tobytes() == two_J.tobytes()

    def test_theta_of_z_once_per_variant(self, monkeypatch):
        # coeff-rescaling at one point, at D = 2 and 3: per D theta(z) and
        # theta(Dz) once, and one stacked theta call on each of the 256- and
        # 512-sample rings (s_coeffs calls the engine through kronecker's own
        # name, not counted)
        from epolylog import weierstrass
        from epolylog.cli import _coeff_rescaling

        calls = []
        engine = weierstrass._theta_taylor

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(weierstrass, "_theta_taylor", counted)
        for D in (2, 3):
            _coeff_rescaling((Z_A, TAU_A), D)
        assert len(calls) == 8


class TestHeat:
    def test_grid_matches_nested_stencil(self):
        # d^2 J/dz dw from J on the 6x6 grid of stencil nodes against nested
        # scalar stencils (oracles.stencil_loop in w inside one in z): both sit
        # at stencil precision, and over 500 verify-box points (seeds 0-9) they
        # differed by at most 7.8e-9 relative to max(1, |J|)
        from epolylog.cli import _draw_kpoint
        from epolylog.kronecker import _J

        h = kronecker._HEAT_STEP
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = _draw_kpoint(rng)
            t = p.tau.tau
            grid = _J(stencil_nodes(p.z, h)[:, None], stencil_nodes(p.w, h), t)
            got = richardson(richardson(grid.T, h), h)
            nested = oracles.stencil_loop(
                lambda zz: oracles.stencil_loop(lambda ww: complex(_J(zz, ww, t)), p.w, h), p.z, h)
            assert abs(got - nested) / max(1.0, abs(jacobi_J(p))) < 3e-8

    def test_residual_small(self):
        for z, t in STANDARD_POINTS[:2]:
            assert heat_residual(pt(z, 0.21 + 0.13j, t)) < 1e-6

    def test_margin_guard(self):
        with pytest.raises(PoleProximityError):
            heat_residual(pt(1e-3, W_A, TAU_A))
        with pytest.raises(PoleProximityError):
            # z + w lands on the lattice: numerator zeros cross the stencil
            heat_residual(pt(0.3 + 0.2j, 0.7 - 0.2j, TAU_A))


class TestSCoeffs:
    def test_constant_term_is_zeta_combination(self):
        for z, t in STANDARD_POINTS[:3]:
            for D in (2, 3):
                sc = s_coeffs(z, t, D, 0)
                ref = D * D * zeta_fn(z, t) - D * zeta_fn(D * z, t)
                assert rel(sc.coeffs[0], ref) < 1e-12

    def test_taylor_vs_mpmath(self):
        # mp.taylor differentiates the oracle kernel directly (frozen values)
        sc = s_coeffs(Z_A, TAU_A, 2, 5)
        for k in range(6):
            assert rel(sc.coeffs[k], S_TAYLOR_REF[k]) < 1e-10

    def test_rescaling_paired_radii(self):
        # closed form against the contour oracle: the w -> Dw substituted
        # variant on radius r/D has coefficients D^k s_k
        from epolylog.kronecker import _J
        from epolylog.numerics import cauchy_coeffs

        z, t, D = Z_A, TAU_A, 3
        r = 0.35 * min(1.0, abs(t))
        sc = s_coeffs(z, t, D, 8)
        cc = cauchy_coeffs(
            lambda u: D * D * _J(z, D * u, t) - D * _J(D * z, u, t),
            8, CauchyConfig(radius=r / D, samples=256),
        )
        for k in range(9):
            assert rel(cc[k], D**k * sc.coeffs[k]) < 1e-9

    def test_order_16_vs_oracle(self):
        # every order the API allows, against a dps-30 trapezoid rule on J
        for (z, t), D in zip(STANDARD_POINTS + [(0.12 + 0.28j, 0.45 + 0.82j)], (2, 3, 2, 3, 3)):
            sc = s_coeffs(z, t, D, MAX_COEFF_ORDER)
            ref = oracles.s_coeffs_ref(z, t, D, MAX_COEFF_ORDER)
            for k in range(MAX_COEFF_ORDER + 1):
                assert rel(sc.coeffs[k], ref[k]) < 1e-12

    def test_benchmark_known_defects(self):
        # order 16 in the verify box, and a lattice whose shortest vector
        # (0.1i) is far below min(1, |tau|): the contour extraction missed
        # the first by a relative 0.33 and raised NonFiniteError on the second
        for z, t, D, n in ((0.23 + 0.11j, 0.5 + 0.8j, 2, 16), (0.31 + 0.03j, 5 + 0.1j, 2, 4)):
            sc = s_coeffs(z, t, D, n)
            ref = oracles.s_coeffs_ref(z, t, D, n)
            for k in range(n + 1):
                assert abs(sc.coeffs[k] - ref[k]) / abs(ref[k]) < 1e-10

    def test_order_validation(self):
        with pytest.raises(ValueError):
            s_coeffs(Z_A, TAU_A, 2, MAX_COEFF_ORDER + 1)
        with pytest.raises(ValueError):
            s_coeffs(Z_A, TAU_A, 0, 3)

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            s_coeffs(0.5 * TAU_A, TAU_A, 2, 3)  # Dz on the lattice

    @pytest.mark.parametrize("D", [True, False, 2.5, 2.0, "2", None])
    def test_degree_must_be_an_integer(self, D):
        # refused before any tau work (-1j); else True runs as D = 1 (all zeros)
        # and 2.5 returns values for a degree that is not an integer
        for call in (lambda: s_coeffs(Z_A, -1j, D, 2), lambda: default_cauchy_config(-1j, D),
                     lambda: dlog_kato_siegel(Z_A, -1j, D),
                     lambda: distribution_residual(pt(Z_A, W_A, TAU_A), D)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"D must be >= 1, got {D!r}"

    @pytest.mark.parametrize("n", [-1, MAX_COEFF_ORDER + 1, 2.0, True])
    def test_order_must_be_an_integer_in_range(self, n):
        with pytest.raises(ValueError) as info:
            s_coeffs(Z_A, -1j, 2, n)
        assert str(info.value) == f"coefficient order must be in 0..{MAX_COEFF_ORDER}, got {n!r}"

    def test_numpy_integer_degree_and_order(self):
        got = s_coeffs(Z_A, TAU_A, np.int64(2), np.int32(5))
        assert got == s_coeffs(Z_A, TAU_A, 2, 5) and type(got.D) is int

    def test_non_finite_z(self):
        # z is refused before D * z is formed, where numpy would warn (0 * inf)
        inf, nan = float("inf"), float("nan")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (complex(inf, 0.0), complex(0.1, -inf), complex(nan, 0.2)):
                with pytest.raises(ValueError, match="has no finite lattice coordinates"):
                    s_coeffs(z, TAU_A, 2, 3)

    def test_default_config_shrinks_with_D(self):
        r2 = default_cauchy_config(TAU_A, 2).radius
        r12 = default_cauchy_config(TAU_A, 12).radius
        assert r12 < r2 <= 0.1


class TestSColumns:
    def test_columns_keep_the_scalar_bits(self):
        # the s_k kernel on (z, tau) columns, every column at its own tau or all
        # at one: each column has the bits of s_coeffs at its point
        from epolylog.kronecker import _s_columns

        rng = np.random.default_rng(12)
        for D in (1, 2, 3):
            for n in (0, 1, 5, MAX_COEFF_ORDER):
                t = rng.uniform(-3.0, 3.0, 13) + 1j * rng.choice([0.3, 0.8, 1.4, 2.0], 13)
                z = rng.uniform(0.1, 0.4, 13) + 1j * rng.uniform(0.05, 0.3, 13)
                for tau in (t, complex(t[0])):
                    cols = _s_columns(z, tau, D, n)
                    for p in range(len(z)):
                        one = s_coeffs(complex(z[p]), tau if np.ndim(tau) == 0 else tau[p], D, n)
                        assert cols[p].tobytes() == np.array(one.coeffs).tobytes()

    @pytest.mark.parametrize("box", [True, False], ids=["box", "out_of_box"])
    def test_bits_of_the_concatenated_kernel(self, box):
        # z and Dz reduced apart (by _cell's scalar path for a scalar z) and the shift
        # matrix gathered from a zero-padded series keep every bit of the kernel that
        # reduced the concatenated [z, Dz] column and masked its shift matrix by
        # np.where (oracles.s_columns_ref): scalar z, an array of z at one tau and at
        # one tau per z, z in the cell and shifted by m + n tau (a nonzero shift series)
        from epolylog.kronecker import _s_columns

        rng = np.random.default_rng(29 if box else 30)
        if box:
            taus = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(0.8, 2.0, 4)
        else:
            taus = np.r_[rng.uniform(-20.0, 20.0, 4) + 1j * rng.uniform(0.06, 0.8, 4),
                         20.0 + 0.06j, -20.0 + 0.06j]
        for t in taus.tolist():
            alpha, beta = rng.uniform(-0.45, 0.45, (2, 3))
            m, k = rng.integers(-3, 4, (2, 3))
            zs = np.r_[alpha + beta * t, alpha + m + (beta + k) * t]
            ts = np.resize(taus, zs.size)
            for D in (1, 2, 3):
                for n in range(MAX_COEFF_ORDER + 1):
                    for z in zs.tolist():
                        got, want = _s_columns(z, t, D, n), oracles.s_columns_ref(z, t, D, n)
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                    for tau in (t, ts):
                        got, want = _s_columns(zs, tau, D, n), oracles.s_columns_ref(zs, tau, D, n)
                        assert got.shape == want.shape
                        assert got.tobytes() == want.tobytes()

    def test_exp_taylor_is_the_cumprod_form(self):
        # the preallocated running product has the bits of np.cumprod over the
        # stacked rows 1 and x / j, for the real frequencies of the theta table and
        # the complex shifts of the s_k kernel
        from epolylog.weierstrass import _exp_taylor

        rng = np.random.default_rng(7)
        xs = [(2 * np.arange(40) + 1) * np.pi,
              -2j * np.pi * rng.integers(-40, 41, 12),
              rng.normal(size=9) + 1j * rng.normal(size=9)]
        for x in xs:
            for m in (0, 1, 2, 9, MAX_COEFF_ORDER + 2):
                got, want = _exp_taylor(x, m), oracles.exp_taylor_ref(x, m)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class TestDlog:
    def test_equals_zeta_combination(self):
        for z, t in STANDARD_POINTS:
            for D in (2, 3):
                got = dlog_kato_siegel(z, t, D)
                ref = D * D * zeta_fn(z, t) - D * zeta_fn(D * z, t)
                assert rel(got, ref) < 1e-10

    def test_one_engine_call_keeps_the_two_call_bits(self):
        # the closed path reduces z and Dz once each and makes one engine call
        # on both: the same bits as D^2 dlog(z) - D dlog(Dz), where dlog is the
        # log-derivative of theta from its own reduction and engine call, at
        # scalars and at arrays of z
        from epolylog.weierstrass import _cell, _theta_taylor

        def dlog(x, t):
            x0, _, n = _cell(x, t)
            T = _theta_taylor(x0, t, 1)
            return T[1] / T[0] - 2j * np.pi * n

        rng = np.random.default_rng(13)
        for D in (1, 2, 3):
            for _ in range(100):
                t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
                z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
                two = complex(D * D * dlog(z, t) - D * dlog(D * z, t))
                one = dlog_kato_siegel(z, t, D)
                assert type(one) is complex
                assert np.array(one).tobytes() == np.array(two).tobytes()
                zs = z + 0.1 * rng.standard_normal(9) + 0.1j * rng.standard_normal(9)
                two = D * D * dlog(zs, t) - D * dlog(D * zs, t)
                assert dlog_kato_siegel(zs, t, D).tobytes() == two.tobytes()

    def test_torsion_guard(self):
        with pytest.raises(PoleProximityError):
            dlog_kato_siegel((TAU_A + 1) / 2, TAU_A, 2)

    @pytest.mark.parametrize("D", [0, -2])
    def test_degree_below_one(self, D):
        # refused before any tau work (the tau -1j would raise otherwise); else
        # D = 0 divides by zero and D = -2 reports a torsion-locus pole
        for call in (lambda: dlog_kato_siegel(Z_A, -1j, D),
                     lambda: dlog_kato_siegel(Z_A, -1j, D, CauchyConfig(radius=0.05)),
                     lambda: default_cauchy_config(-1j, D)):
            with pytest.raises(ValueError, match=f"^D must be >= 1, got {D}$"):
                call()

    def test_non_finite_z(self):
        # the check comes before D * z, where numpy warns for inf (0 * inf),
        # and the error names the z that was passed
        inf = float("inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (complex(inf, 0.0), np.array([0.1, inf])):
                with pytest.raises(ValueError, match="inf") as info:
                    dlog_kato_siegel(z, TAU_A, 2)
                assert "nan" not in str(info.value)

    def test_custom_config(self):
        cfg = CauchyConfig(radius=0.05, samples=64, self_check=False)
        got = dlog_kato_siegel(Z_A, TAU_A, 2, cfg)
        ref = 4 * zeta_fn(Z_A, TAU_A) - 2 * zeta_fn(2 * Z_A, TAU_A)
        assert rel(got, ref) < 1e-9

    def test_contour_path_rejects_arrays(self, monkeypatch):
        # an array of z would broadcast against the contour's samples: with
        # as many z as samples it used to return one number for all of them;
        # the TypeError must come before any sampling
        def no_sampling(*args, **kwargs):
            raise AssertionError("the contour was sampled")

        monkeypatch.setattr(kronecker, "cauchy_coeffs", no_sampling)
        cfg = CauchyConfig(radius=0.05, samples=64, self_check=False)
        for count in (cfg.samples, 32):
            zs = Z_A + 0.01 * np.exp(2j * np.pi * np.arange(count) / count)
            with pytest.raises(TypeError):
                dlog_kato_siegel(zs, 0.2 + 1.1j, 2, cfg)

    def test_contour_integral_of_contour_path(self):
        # contour_integral goes node by node and sums exactly what an
        # explicit per-node trapezoid sums; the residue at 0 is D^2 - 1
        t, D, samples = 0.2 + 1.1j, 2, 32
        cfg = CauchyConfig(radius=default_cauchy_config(t, D).radius, samples=64,
                           self_check=False)
        r = 0.4 * min(1.0, abs(t)) / D
        got = contour_integral(lambda u: dlog_kato_siegel(u, t, D, cfg), 0.0, r, samples)
        nodes = np.exp(2j * np.pi * np.arange(samples) / samples)
        vals = np.array([dlog_kato_siegel(u, t, D, cfg) for u in 0.0 + r * nodes])
        assert got == complex(2j * np.pi * r / samples * np.sum(vals * nodes))
        assert abs(got / (2j * np.pi) - (D * D - 1)) < 1e-9


class TestDistribution:
    def test_residual_small(self):
        for z, t in STANDARD_POINTS[:2]:
            p = pt(z, 0.21 + 0.13j, t)
            for D in (2, 3):
                assert distribution_residual(p, D) < 1e-10

    def test_degree_one_collapses(self):
        assert distribution_residual(pt(Z_A, W_A, TAU_A), 1) == 0.0

    def test_torsion_guard(self):
        with pytest.raises(PoleProximityError):
            # Dz on the lattice for D = 2
            distribution_residual(pt(0.5, W_A, TAU_A), 2)
        with pytest.raises(PoleProximityError):
            # at D = 1 the D-torsion locus of w is the lattice
            distribution_residual(pt(Z_A, 1e-7, TAU_A), 1)
