import cmath
import math
import re

import mpmath
import numpy as np
import pytest

import oracles
from conftest import STANDARD_POINTS, STANDARD_TAUS
from epolylog.kronecker import MAX_COEFF_ORDER
from epolylog.weierstrass import (
    ConvergenceError,
    ModuliPoint,
    PoleProximityError,
    _eisenstein_weights,
    _jacobi_table,
    _jacobi_weights,
    _cell,
    _theta_taylor,
    eta1_prime,
    eta_periods,
    g_invariants,
    lattice_dist,
    theta_normalized,
    wp,
    zeta_fn,
)

TAU_A = 0.5 + 0.8j
Z_A = 0.23 + 0.11j

# pinned from the mpmath jtheta oracle (tests/oracles.py) at dps = 30
THETA_A = complex(0.22157774727843635, 0.081120782643904864)
THETA_B = complex(0.26963606026854395, -0.039688862090663994)
THETA_SHIFT = complex(-76064.475891982398, -121291.88135244525)
ZETA_A = complex(3.5473495316277429, -1.6817134272730667)
WP_A = complex(9.4953166569873459, -11.982465090298054)
WPP_A = complex(-28.685037527894157, 119.14063640992173)
ETA1_A = complex(3.288626736608861, -0.0013220866977492866)


def term_count(t, m):
    """The theta series' term count K for order m by a linear search from
    k = 1: the first k whose term bound is below e^-42, or None."""
    pi_im = math.pi * t.imag
    return next((k for k in range(1, 200) if pi_im * k * k - m * math.log(2 * k + 1) > 42.0
                 and pi_im * k * (2 * k + 1) > m), None)


def jacobi_weights_formula(t, m):
    """The theta weights (a, w) for the reduced t and order m as one formula:
    the Jacobi series' frequencies and coefficients times the Taylor rows of
    exp(a w), with the derivative sign + + - -."""
    K = term_count(t, m)
    if K is None:
        raise ConvergenceError(f"Im tau = {t.imag} too small for the theta series")
    k = np.arange(K)
    a = (2 * k + 1) * np.pi
    c = (-1.0) ** k * np.exp(1j * np.pi * t * k * (k + 1))
    norm = c @ a
    cancellation = (np.abs(c) @ a) / abs(norm)
    if not cancellation < 1e6:
        raise ConvergenceError(f"Im tau = {t.imag} too small for the theta series: "
                               f"its terms cancel {cancellation:.1e}-fold")
    rows = np.cumprod(np.vstack([np.ones(K), a / np.arange(1, m + 1)[:, None]]), axis=0)
    return a, (-1.0) ** (np.arange(m + 1) // 2)[:, None] * (c / norm) * rows


def rel(got, expect):
    expect = complex(expect)
    return abs(complex(got) - expect) / max(1.0, abs(expect))


class TestTheta:
    def test_frozen_values(self):
        assert rel(theta_normalized(Z_A, TAU_A), THETA_A) < 1e-13
        assert rel(theta_normalized(0.31 - 0.07j, -0.3 + 1.6j), THETA_B) < 1e-13

    def test_frozen_far_from_cell(self):
        # z = 1.7 + 2.3*tau exercises the reduction + translation factor
        z = 1.7 + 2.3 * TAU_A
        assert rel(theta_normalized(z, TAU_A), THETA_SHIFT) < 1e-12

    def test_oracle_sweep(self):
        for z, t in STANDARD_POINTS:
            assert rel(theta_normalized(z, t), oracles.theta_ref(z, t)) < 1e-13

    def test_odd(self):
        for z, t in STANDARD_POINTS:
            assert abs(theta_normalized(-z, t) + theta_normalized(z, t)) < 1e-14

    def test_derivative_at_zero_is_one(self):
        h = 1e-6
        d = (theta_normalized(h, TAU_A) - theta_normalized(-h, TAU_A)) / (2 * h)
        assert abs(d - 1.0) < 1e-10

    def test_translation_law(self):
        # theta(z + m + n*tau) = (-1)^(m+n+mn) exp(-2 pi i n (z + (n tau + m)/2)) theta(z)
        for m, n in [(1, 0), (0, 1), (-1, 2), (3, -2)]:
            for z, t in STANDARD_POINTS[:2]:
                lhs = theta_normalized(z + m + n * t, t)
                fac = (-1) ** (m + n + m * n) * cmath.exp(
                    -2j * cmath.pi * n * (z + (n * t + m) / 2.0)
                )
                assert rel(lhs, fac * theta_normalized(z, t)) < 1e-12

    def test_small_im_tau_raises(self):
        # the alternating Jacobi series cancels like e^(pi / (4 Im tau)):
        # past 1e6 it raises rather than return a value short of digits
        for t in (0.04j, 0.5 + 1e-3j, 1.0 + 1e-6j, 1e-300j):
            with pytest.raises(ConvergenceError):
                theta_normalized(Z_A * t.imag, t)
        # the guard measures the cancellation, which is mildest away from
        # the cusp at 0
        for t in (-7.0 + 0.06j, 0.5 + 0.04j, 0.3 + 1e-3j):
            z = 0.27 + 0.31 * t
            assert rel(theta_normalized(z, t), oracles.theta_ref(z, t)) < 1e-10

    def test_taylor_engine_matches_outer_form(self):
        # the engine's sums written out: row j at a point sums w[j, k] times
        # sin (j even) or cos (j odd) of a_k z over k = 0, 1, ... in that
        # order, in Python complex arithmetic; the engine must give the same
        # bits, for arrays and for scalars
        rng = np.random.default_rng(3)
        for t in STANDARD_TAUS + [0.3 + 0.12j]:
            zs = rng.uniform(-0.5, 0.5, 8) + 1j * t.imag * rng.uniform(-0.5, 0.5, 8)
            for m in (0, 1, 2, 5):
                a, w = _jacobi_weights(complex(t.real - round(t.real), t.imag), m)
                for z in (zs, complex(zs[0]), zs[1]):
                    x = np.outer(a, z)
                    trig = (np.sin(x), np.cos(x))
                    ref = np.array([[sum((complex(w[j, k]) * complex(trig[j % 2][k, p])
                                          for k in range(len(a))), 0j)
                                     for p in range(x.shape[1])] for j in range(m + 1)])
                    assert _theta_taylor(z, t, m).tobytes() == ref.tobytes()

    def test_weights_match_one_formula(self):
        # the theta weights split into a tau-independent table and a tau pass
        # must give the bits of the one formula, and raise where it raises
        rng = np.random.default_rng(10)
        taus = [complex(x - round(x), y)
                for x, y in zip(rng.uniform(-50.0, 50.0, 60), np.geomspace(0.05, 5.0, 60))]
        taus += [0.04j, 0.5 + 1e-3j, 1e-300j]
        for t in taus:
            for m in range(MAX_COEFF_ORDER + 3):
                try:
                    ref = jacobi_weights_formula(t, m)
                except ConvergenceError as exc:
                    with pytest.raises(ConvergenceError, match=re.escape(str(exc))):
                        _jacobi_weights(t, m)
                    continue
                a, w = _jacobi_weights(t, m)
                assert (a.tobytes(), w.tobytes()) == (ref[0].tobytes(), ref[1].tobytes())
        for t in (0.04j, 0.5 + 1e-3j, 1e-300j):
            for weights in (jacobi_weights_formula, _jacobi_weights):
                with pytest.raises(ConvergenceError):
                    weights(t, 1)

    def test_term_count_matches_linear_search(self):
        # the engine starts its K search at floor(sqrt(42 / (pi Im tau))); it
        # must find the K of a search from k = 1 (below Im tau = 0.06 the
        # cancellation guard raises before K shows)
        for y in np.linspace(0.06, 2.04, 397):
            t = complex(0.0, y)
            for m in range(MAX_COEFF_ORDER + 3):
                assert len(_jacobi_weights(t, m)[0]) == term_count(t, m)

    def test_weights_read_only(self):
        # the frequencies and rows are shared by every tau with the same term
        # count, so an in-place write into any cached array must raise
        a, w = _jacobi_weights(0.21 + 1.1j, 2)
        a2, w2 = _jacobi_weights(0.3 + 1.1j, 2)
        table = _jacobi_table(len(a), 2)
        assert a2 is a and table[3] is a
        for arr in (a, w, w2) + table:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_vectorized(self):
        # array and scalar paths may differ by 1 ulp (SIMD transcendentals)
        zs = np.array([Z_A, 0.31 + 0.17j, -0.4 + 0.09j])
        vals = theta_normalized(zs, TAU_A)
        singles = [theta_normalized(z, TAU_A) for z in zs]
        assert np.max(np.abs(vals - np.array(singles))) < 1e-14


def copy_assign_taylor(z0, t, m):
    """The one-tau engine with its sums in temporaries copied into the rows of
    the output, on a raveled z0: the form whose bits the engine keeps."""
    a, w = _jacobi_weights(complex(t.real - round(t.real), t.imag), m)
    z0 = np.asarray(z0, dtype=complex)
    x = a[:, None] * z0.ravel()
    out = np.empty((m + 1, z0.size), dtype=complex)
    out[0::2] = np.einsum("jk...,k...->j...", w[0::2], np.sin(x))
    if m:
        out[1::2] = np.einsum("jk...,k...->j...", w[1::2], np.cos(x))
    return out.reshape((m + 1,) + z0.shape)


class TestEngineColumns:
    # kronecker's kernel evaluates theta at z + w, z and w from one engine call,
    # and keeps the bits of three calls only if a column of a many-point call
    # is the call at that point alone

    TAUS = (0.21 + 1.1j, -0.4 + 0.8j, 13.3 + 0.07j, -7.6 + 2.9j)

    def test_columns_are_the_one_point_calls(self):
        rng = np.random.default_rng(38)
        for t in self.TAUS:
            for P in (1, 2, 3, 17, 258):
                z0 = _cell(rng.uniform(-2.0, 2.0, P) + 1j * rng.uniform(-2.0, 2.0, P), t)[0]
                for m in range(9):
                    T = _theta_taylor(z0, t, m)
                    for p in range(P):
                        assert T[:, p].tobytes() == _theta_taylor(complex(z0[p]), t, m).tobytes()

    def test_lean_path_is_the_copy_assign_form(self):
        # the sums written straight into the rows of the output, on z0 of any
        # shape (no ravel), give the bits of the copy-assign form on a raveled z0
        rng = np.random.default_rng(39)
        for t in self.TAUS:
            for shape in ((), (1,), (3,), (2, 5), (2, 3, 4)):
                z0 = _cell(rng.uniform(-2.0, 2.0, shape) + 1j * rng.uniform(-2.0, 2.0, shape),
                           t)[0]
                z0 = complex(z0) if shape == () else z0
                for m in (0, 1, 2, 7, 18):
                    got, ref = _theta_taylor(z0, t, m), copy_assign_taylor(z0, t, m)
                    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
                    if np.ndim(z0) == 2:  # a transposed, non-contiguous z0
                        assert _theta_taylor(z0.T, t, m).tobytes() == \
                            copy_assign_taylor(z0.T, t, m).tobytes()


class TestVectorTau:
    """The engine and the evaluators at an array of tau: each column keeps the
    bits of the call at its own tau (the engine) or its value (the evaluators)."""

    @staticmethod
    def mixed(rng, P):
        # tau from Im 0.05 (27 terms at order 18) to Im 5 (3 terms), and z0 in
        # each tau's cell
        ims = rng.choice([0.05, 0.3, 1.1, 2.0, 5.0], P)
        ims[: min(P, 2)] = [0.05, 5.0][: min(P, 2)]
        t = rng.uniform(-3.0, 3.0, P) + 1j * ims
        z0 = rng.uniform(-0.5, 0.5, P) + 1j * ims * rng.uniform(-0.5, 0.5, P)
        return z0, t

    def test_columns_keep_the_scalar_bits(self):
        rng = np.random.default_rng(14)
        for P in (1, 2, 3, 7, 8, 9, 16, 17, 64, 255, 300):
            z0, t = self.mixed(rng, P)
            for m in range(MAX_COEFF_ORDER + 3):
                out = _theta_taylor(z0, t, m)
                for p in range(P):
                    one = _theta_taylor(complex(z0[p]), complex(t[p]), m)
                    assert out[:, p].tobytes() == one.tobytes(), (P, m, p)

    def test_padded_terms_stay_finite(self):
        # the Im tau = 1e-3 column takes 116 terms; the Im tau = 5 column's z0
        # sits at |Im z0| = Im tau / 2, where sin(a_k z0) for k up to 115
        # overflows: its padded terms must not meet those frequencies
        t = np.array([0.3 + 1e-3j, 5j, 0.2 + 5j])
        z0 = np.array([0.1 + 2e-4j, 0.3 + 2.5j, -0.4 - 2.5j])
        for m in (0, 1, 2):
            out = _theta_taylor(z0, t, m)
            assert np.isfinite(out).all()
            for p in range(len(t)):
                assert out[:, p].tobytes() == _theta_taylor(z0[p], complex(t[p]), m).tobytes()

    def test_guard_raises_the_scalar_message(self):
        for bad in (0.04j, 0.5 + 1e-3j):
            with pytest.raises(ConvergenceError) as scalar:
                _theta_taylor(0.01, bad, 1)
            t = np.array([0.3 + 1.1j, bad, 1j])
            with pytest.raises(ConvergenceError, match=re.escape(str(scalar.value))):
                _theta_taylor(np.full(3, 0.01 + 0j), t, 1)
            with pytest.raises(ConvergenceError, match=re.escape(str(scalar.value))):
                theta_normalized(0.01, t)

    def test_reduction_broadcasts(self):
        rng = np.random.default_rng(15)
        t = rng.uniform(-0.5, 0.5, 40) + 1j * rng.uniform(0.8, 2.0, 40)
        z = rng.uniform(-3.0, 3.0, 40) + 1j * rng.uniform(-3.0, 3.0, 40)
        z0, m, n = _cell(z, t)
        for p in range(len(t)):
            one = _cell(complex(z[p]), complex(t[p]))
            assert (complex(z0[p]), int(m[p]), int(n[p])) == one

    def test_evaluators_broadcast(self):
        rng = np.random.default_rng(16)
        t = rng.uniform(-0.5, 0.5, 12) + 1j * rng.uniform(0.8, 2.0, 12)
        z = rng.uniform(-2.0, 2.0, 12) + 1j * rng.uniform(-2.0, 2.0, 12)
        p, pp = wp(z, t)
        eta = eta_periods(t)
        for i in range(len(t)):
            zi, ti = complex(z[i]), complex(t[i])
            assert rel(theta_normalized(z, t)[i], theta_normalized(zi, ti)) < 1e-14
            assert rel(zeta_fn(z, t)[i], zeta_fn(zi, ti)) < 1e-14
            assert rel(p[i], wp(zi, ti)[0]) < 1e-14 and rel(pp[i], wp(zi, ti)[1]) < 1e-14
            assert eta.eta1[i] == eta_periods(ti).eta1
            assert rel(eta.eta2[i], eta_periods(ti).eta2) < 1e-14


class TestReduction:
    def test_reconstruction(self):
        z = 3.7 - 2.2 * TAU_A + 0.23 + 0.11j
        z0, m, n = _cell(z, TAU_A)
        assert abs(complex(z0) + m + n * TAU_A - z) < 1e-12

    def test_cell_coordinates_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            z0, _, _ = _cell(z, TAU_A)
            beta = complex(z0).imag / TAU_A.imag
            alpha = complex(z0).real - beta * TAU_A.real
            assert abs(alpha) <= 0.5 + 1e-12
            assert abs(beta) <= 0.5 + 1e-12

    def test_lattice_dist(self):
        assert lattice_dist(2.0 + 3.0 * TAU_A, TAU_A) < 1e-14
        assert lattice_dist(Z_A, TAU_A) > 0.2
        zs = np.array([Z_A, 2.0 + 3.0 * TAU_A])
        assert lattice_dist(zs, TAU_A) == lattice_dist(zs[1], TAU_A)

    def test_scalar_and_array_paths_agree(self):
        # a scalar z takes a Python-float path; it must give the array path's
        # bits, signed zeros included, and its m, n as Python ints
        rng = np.random.default_rng(11)
        # Im tau and Re tau dyadic, so z = alpha + beta*tau at half-integer
        # alpha, beta reduces through exact ties
        taus = [TAU_A, 0.25 + 1j, -37.5 + 0.5j, 50.0 + 2j, -50.0 + 1j]
        taus += [complex(rng.uniform(-50, 50), rng.uniform(0.05, 3.0)) for _ in range(15)]
        halves = (-1.5, -0.5, 0.5, 1.5, 2.5)
        for t in taus:
            zs = [complex(rng.uniform(-60, 60), rng.uniform(-8, 8)) for _ in range(20)]
            zs += [a + b * t for a in halves for b in halves]
            zs += [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), -0.3,
                   -0.2 * t, 0.3 - 0.2 * t, 3]
            for z in zs:
                z0, m, n = _cell(z, t)
                a0, am, an = _cell(np.array([z]), t)
                assert type(z0) is complex and type(m) is int and type(n) is int
                assert np.array([z0]).tobytes() == a0.tobytes(), (z, t)
                assert (m, n) == (am[0], an[0]), (z, t)

    def test_ties_round_to_even(self):
        t = 0.25 + 1j
        for a, m in ((-1.5, -2), (-0.5, 0), (0.5, 0), (1.5, 2), (2.5, 2)):
            for z in (a + 0.5 * t, np.array([a + 0.5 * t])):
                _, mm, nn = _cell(z, t)
                assert (mm, nn) == (m, 0)

    def test_scalar_types(self):
        for z in (Z_A, np.complex128(Z_A), 0.3, np.float64(0.3), 3):
            z0, m, n = _cell(z, TAU_A)
            assert type(z0) is complex and type(m) is int and type(n) is int
        z0, m, n = _cell(np.asarray(Z_A), TAU_A)
        assert z0.shape == m.shape == n.shape == ()

    def test_non_finite_raises(self):
        inf, nan = float("inf"), float("nan")
        for bad in (inf, -inf, nan, complex(0.1, -inf), complex(nan, 0.1)):
            with pytest.raises(ValueError):
                _cell(bad, TAU_A)
            with pytest.raises(ValueError):
                _cell(np.array([Z_A, bad]), TAU_A)
            for fn in (lattice_dist, theta_normalized, zeta_fn, wp):
                with pytest.raises(ValueError):
                    fn(bad, TAU_A)


class TestQuasiPeriods:
    def test_eta1_frozen(self):
        assert rel(eta_periods(0.13 + 1.7j).eta1, ETA1_A) < 1e-13

    def test_eta1_square_lattice(self):
        assert abs(eta_periods(1j).eta1 - cmath.pi) < 1e-14

    def test_eta1_lattice_sum_oracle(self):
        # weight-2 double sum in inner-then-outer order, no theta involved
        for t in STANDARD_TAUS:
            assert rel(eta_periods(t).eta1, oracles.eta1_lattice_ref(t)) < 1e-13

    def test_legendre(self):
        for t in STANDARD_TAUS:
            qp = eta_periods(t)
            assert abs(qp.eta1 * t - qp.eta2 - 2j * cmath.pi) < 1e-12

    def test_eta1_matches_zeta_increment(self):
        for z, t in STANDARD_POINTS:
            measured = zeta_fn(z + 1, t) - zeta_fn(z, t)
            assert abs(measured - eta_periods(t).eta1) < 1e-12


class TestSigmaZeta:
    def test_frozen(self):
        assert rel(zeta_fn(Z_A, TAU_A), ZETA_A) < 1e-13

    def test_oracle_sweep(self):
        for z, t in STANDARD_POINTS:
            assert rel(zeta_fn(z, t), oracles.zeta_ref(z, t)) < 1e-13

    def test_zeta_quasi_periodicity(self):
        for z, t in STANDARD_POINTS[:2]:
            qp = eta_periods(t)
            assert abs(zeta_fn(z + 1, t) - zeta_fn(z, t) - qp.eta1) < 1e-12
            assert abs(zeta_fn(z + t, t) - zeta_fn(z, t) - qp.eta2) < 1e-12

    def test_zeta_pole_guard(self):
        with pytest.raises(PoleProximityError):
            zeta_fn(1e-12, TAU_A)
        with pytest.raises(PoleProximityError):
            zeta_fn(2.0 + 3.0 * TAU_A, TAU_A)

    def test_zeta_is_logderiv_plus_eta1_z(self):
        # one reduction serves the pole guard and the engine call: bit for bit
        # the log-derivative of theta, from its own reduction and engine call,
        # plus eta1 z
        rng = np.random.default_rng(4)
        for _ in range(50):
            t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            z0, _, n = _cell(z, t)
            T = _theta_taylor(z0, t, 1)
            logderiv = complex(T[1] / T[0] - 2j * np.pi * n)
            assert zeta_fn(z, t) == logderiv + eta_periods(t).eta1 * z


class TestWp:
    def test_frozen(self):
        p, pp = wp(Z_A, TAU_A)
        assert rel(p, WP_A) < 1e-13
        assert rel(pp, WPP_A) < 1e-13

    def test_oracle_sweep(self):
        for z, t in STANDARD_POINTS:
            p, pp = wp(z, t)
            assert rel(p, oracles.wp_ref(z, t)) < 1e-13
            assert rel(pp, oracles.wpprime_ref(z, t)) < 1e-13

    def test_small_im_tau(self):
        # p' = -theta(2z)/theta(z)^4 keeps its digits where the third
        # log-derivative from Taylor coefficients loses them (1.3e-11,
        # 5.9e-12 and 2.3e-12 on these points)
        for t, a, b in ((-16 + 0.06j, 0.12, 0.34), (-16.5 + 0.06j, 0.2, 0.39),
                        (19.9 + 0.06j, 0.4, 0.35)):
            z = a + b * t
            p, pp = wp(z, t)
            assert rel(p, oracles.wp_ref(z, t)) < 1e-12
            assert rel(pp, oracles.wpprime_ref(z, t)) < 1e-12

    def test_wpprime_out_of_box(self):
        # p' from one engine call at z0 and 2 z0 over the out-of-box domain the
        # benchmark draws (Im tau log-spaced in [0.06, 0.8], |Re tau| <= 20, z in
        # the box 0.1..0.4 of lattice coordinates); it read 5.0e-13 at most
        rng = np.random.default_rng(9)
        for im in np.geomspace(0.06, 0.8, 24):
            t = complex(rng.uniform(-20.0, 20.0), im)
            z = rng.uniform(0.1, 0.4) + rng.uniform(0.1, 0.4) * t
            if min(lattice_dist(D * z, t) for D in (1, 2, 3)) < 0.01 * im:
                continue
            assert rel(wp(z, t)[1], oracles.wpprime_ref(z, t)) < 1e-10

    def test_brute_lattice_sum(self):
        # box-truncated raw lattice sum, independent of any theta machinery
        p, _ = wp(Z_A, TAU_A)
        assert abs(p - oracles.wp_brute(Z_A, TAU_A, R=150)) < 1e-4

    def test_differential_equation(self):
        for z, t in STANDARD_POINTS:
            p, pp = wp(z, t)
            g2, g3 = g_invariants(t)
            res = pp**2 - (4 * p**3 - g2 * p - g3)
            assert abs(res) / max(1.0, abs(pp) ** 2) < 1e-12

    def test_even(self):
        p1, pp1 = wp(Z_A, TAU_A)
        p2, pp2 = wp(-Z_A, TAU_A)
        assert abs(p1 - p2) < 1e-13
        assert abs(pp1 + pp2) < 1e-12

    def test_periodicity(self):
        p1, _ = wp(Z_A, TAU_A)
        p2, _ = wp(Z_A + 2 + TAU_A, TAU_A)
        assert abs(p1 - p2) < 1e-11


class TestInvariants:
    def test_discriminant_vs_eta_product(self):
        # g2^3 - 27 g3^2 = (2 pi)^12 q prod (1-q^n)^24, q = e^{2 pi i tau}
        for t in STANDARD_TAUS:
            g2, g3 = g_invariants(t)
            q = complex(mpmath.exp(2j * mpmath.pi * t))
            disc = complex((2 * mpmath.pi) ** 12 * q * mpmath.qp(q) ** 24)
            assert rel(g2**3 - 27 * g3**2, disc) < 1e-12

    def test_square_lattice_g3_vanishes(self):
        g2, g3 = g_invariants(1j)
        assert abs(g3) < 1e-14 * max(1.0, abs(g2))

    @pytest.mark.parametrize("t", [0.5 + 0.03j, 19.9 + 0.06j, 0.02j, -16 + 0.06j])
    def test_e4_e6_vs_theta_constants(self, t):
        # near the real axis and far from Re tau = 0: E4 and E6 against the
        # theta-constant formulas at dps 30, independent of any Lambert series
        _, e4, e6 = _eisenstein_weights(t)
        for got, ref in zip((e4, e6), map(complex, oracles.e4_e6_ref(t))):
            assert abs(got - ref) < 1e-14 * max(1.0, abs(ref)), t


class TestEta1Prime:
    def test_backends_agree(self):
        for t in STANDARD_TAUS:
            ref = complex(oracles.eta1_prime_ref(t))
            assert abs(eta1_prime(t) - ref) < 1e-12 * max(1.0, abs(ref))

    def test_matches_direct_stencil(self):
        t = 0.13 + 1.7j
        h = 1e-5
        direct = (eta_periods(t + h).eta1 - eta_periods(t - h).eta1) / (2 * h)
        assert abs(eta1_prime(t) - direct) < 1e-6


class TestTauNotFinite:
    # a tau that is not finite is refused by name: else an infinite Im tau gives
    # nan (F) or a ConvergenceError about nan-fold cancellation (theta), and an
    # infinite or nan Re tau fails in round() with "cannot convert float NaN"
    INF, NAN = float("inf"), float("nan")
    TAUS = [complex(0.1, INF), complex(INF, 1.0), complex(NAN, 1.0), complex(-INF, 0.5)]

    @pytest.mark.parametrize("tau", TAUS, ids=str)
    def test_scalar_tau(self, tau):
        from epolylog.eisenstein import EisensteinQuery, F

        for call in (lambda: F(EisensteinQuery(1, 1, 5, 4, tau)),
                     lambda: theta_normalized(0.1, tau), lambda: eta_periods(tau),
                     lambda: eta1_prime(tau), lambda: wp(0.1, tau), lambda: g_invariants(tau),
                     lambda: lattice_dist(0.1, ModuliPoint(tau))):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == f"tau must be finite, got {tau}"

    def test_array_tau(self):
        taus = np.array([TAU_A, complex(0.1, self.INF)])
        with pytest.raises(ValueError, match="^tau must be finite"):
            theta_normalized(np.array([0.1, 0.2]), taus)


class TestModuliPoint:
    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            ModuliPoint(0.5 - 0.8j)
        with pytest.raises(ValueError):
            ModuliPoint(0.5)

    def test_accepts(self):
        assert ModuliPoint(TAU_A).tau == TAU_A

    @pytest.mark.parametrize("tau", TestTauNotFinite.TAUS, ids=str)
    def test_tau_not_finite(self, tau):
        # the one tau rule of the evaluators, at construction
        with pytest.raises(ValueError, match="^tau must be finite, got "):
            ModuliPoint(tau)
