import cmath
import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from epolylog import eisenstein, polylog
from epolylog.eisenstein import (
    ConvergenceModeError,
    DegenerateLabelError,
    EisensteinQuery,
    F,
    F_tilde,
    _lipschitz_sums,
    _naive_sums,
    _row_zero,
    eisenstein_sum_k2,
)
from epolylog.numerics import LatticeTruncation, NonFiniteError
from epolylog.weierstrass import ConvergenceError, _lambert, _reduce

TAU = 0.21 + 1.1j

# pinned lipschitz value; agreed with the box-sum oracle (R = 400) to 1.2e-8
# when frozen
F_PIN_135 = complex(-1.1333177993317052, -6.018861746495824)
# F at (1, 2) mod 5, k = 4 and tau = 0.3 + 1e-4i, by the cusp 3/10:
# oracles.F_rows_fine with cut = 1e-6 (at bits = 200 and 260 alike)
F_PIN_1254_CUSP = complex(9455175769700.502, -4.198941535985129)


class TestQueryValidation:
    def test_degenerate_label(self):
        with pytest.raises(DegenerateLabelError):
            EisensteinQuery(a=0, b=0, N=4, k=3, tau=TAU)
        with pytest.raises(DegenerateLabelError):
            EisensteinQuery(a=4, b=8, N=4, k=3, tau=TAU)

    def test_weight_and_level(self):
        with pytest.raises(ValueError):
            EisensteinQuery(a=1, b=0, N=0, k=3, tau=TAU)
        with pytest.raises(ValueError):
            EisensteinQuery(a=1, b=0, N=4, k=0, tau=TAU)
        with pytest.raises(ValueError):
            EisensteinQuery(a=1, b=0, N=4, k=3, tau=TAU, mode="magic")
        with pytest.raises(ValueError):
            EisensteinQuery(a=1, b=0, N=4, k=3, tau=0.5)


    @pytest.mark.parametrize("field, value", [
        ("k", True), ("k", 2.0), ("N", 2.5), ("N", True), ("a", 1.5), ("b", None), ("b", "2")])
    def test_integer_fields(self, field, value):
        # refused by name before the tau (-1j, which would raise too); else
        # k = True evaluates weight 1 and N = 2.5 or a = 1.5 dies in a list index
        args = dict(a=1, b=2, N=5, k=4, tau=-1j)
        bound = ">= 1" if field in ("N", "k") else "an integer"
        with pytest.raises(ValueError) as info:
            EisensteinQuery(**{**args, field: value})
        assert str(info.value) == f"{field} must be {bound}, got {value!r}"

    def test_numpy_integer_fields(self):
        # stored as ints: in int64 the exact Bernoulli numerator of row 0 wraps
        # from weight 16 at (1, 2) mod 5 (40 % off at k = 18, NonFiniteError
        # from k = 28), and F_tilde's D^(2-k) refuses a negative int64 power
        for k in (4, *range(14, 31)):
            q = EisensteinQuery(np.int64(1), np.int32(2), np.int64(5), np.int16(k), TAU)
            ref = EisensteinQuery(1, 2, 5, k, TAU)
            assert repr(complex(F(q))) == repr(F(ref)), k
            assert repr(complex(F_tilde(q, 2))) == repr(F_tilde(ref, 2)), k
        assert all(type(v) is int for v in (q.a, q.b, q.N, q.k))

    @pytest.mark.parametrize("D", [0, -1, True, 2.5, 2.0])
    def test_F_tilde_degree(self, D):
        q = EisensteinQuery(1, 2, 5, 4, TAU)
        with pytest.raises(ValueError, match=f"^D must be >= 1, got {D!r}$"):
            F_tilde(q, D)

    @pytest.mark.parametrize("name, args", [
        ("D", (1, 2, 5, 0, 4)), ("D", (1, 2, 5, -2, 4)), ("D", (1, 2, 5, True, 4)),
        ("D", (1, 2, 5, 2.0, 4)), ("N", (1, 2, 0, 2, 4)), ("N", (1, 2, 2.5, 2, 4)),
        ("s", (1, 2, 5, 2, 0)), ("s", (1, 2, 5, 2, True)), ("a", (1.5, 2, 5, 2, 4)),
        ("b", (1, False, 5, 2, 4))])
    def test_coset_sum_integers(self, name, args):
        # the coset sum of weight s is specialize_eisenstein at k = s - 1,
        # which refuses s as k (a bool s stays a bool k); all before any tau
        # work (-1j); else every D < 1 returns 0j
        a, b, N, D, s = args
        k = False if s is True else s - 1
        with pytest.raises(ValueError, match=f"^{'k' if name == 's' else name} must be "):
            polylog.specialize_eisenstein(polylog.TorsionLabel(a, b, N, D), -1j, k,
                                          mode="naive", trunc=LatticeTruncation(20))


def _lambert_batch(x, xi, s):
    """T(x, xi, s) for each x with its own xi: the Lambert halves at rho = 0,
    one row each (the denominators are exactly 1)."""
    return _lambert(x, xi, np.zeros(len(x)), 0j, s)


def _lambert_one(x, xi, s):
    """_lambert_batch on the single row x."""
    return _lambert_batch(np.array([x]), np.array([xi]), s)[0]


def _lambert_cumsum_form(y, xi, rho, t, s):
    """weierstrass._lambert as first written, through the np.cumprod, np.cumsum
    and np.asarray wrappers, with an integer arange: the reference for the
    direct ufunc calls, which must keep its bits."""
    w = 2.0 * math.pi * min(v.imag for v in y)
    A = 48.0 - math.log1p(-math.exp(-0.5 * w))
    a = A / max(s - 1, 1)
    c = 1.0 + a + math.log1p(a)
    u = (s - 1) * (a + math.log(c)) / ((1.0 - 1.0 / c) * w) if s > 1 else A / w
    L = max(int(math.ceil(48.0 / w)) + s + 6, math.ceil(u - 1.0 + max(xi)))
    H = len(y)
    z, xi = 2j * np.pi * np.array([*y, *[t] * H]), np.array([*xi, *xi])
    phase = np.empty((L, 2 * H), dtype=complex)
    phase[1:] = np.exp(z)
    np.exp((1.0 - xi) * z, out=phase[0])
    np.cumprod(phase, axis=0, out=phase)
    f = np.arange(1, L + 1)[:, None] - xi[:H]
    terms = f ** (s - 1) * phase[:, :H] / (1.0 - np.asarray(rho) * phase[:, H:])
    return np.cumsum(terms, axis=0, out=terms)[-1] * ((-2j * np.pi) ** s / math.factorial(s - 1))


class TestRowMachinery:
    def test_row_zero_vs_polylog(self):
        # without the origin, the real row at x = 0 is the polylogarithm pair
        # Li_s(u) + (-1)^s Li_s(conj u) at the root u = e^{2 pi i xi}, xi = -a/N
        for s, p, q in [(2, 1, 4), (3, 2, 5), (1, 1, 3), (4, 0, 1), (5, 1, 2)]:
            u = mpmath.exp(2j * mpmath.pi * p / q)
            ref = complex(mpmath.polylog(s, u) + (-1) ** s * mpmath.polylog(s, 1 / u))
            assert abs(_row_zero(-p, q, 1, [0], s) - ref) < 1e-13

    def test_row_zero_weight_one_at_one_diverges(self):
        with pytest.raises(ValueError):
            _row_zero(0, 1, 1, [0], 1)

    def test_row_zero_vs_lerchphi(self):
        # sum_n e^{2 pi i xi n}/(x+n)^s split into the two lerchphi halves: the
        # real row x = d/D = 1/4 of the coset (0, 1) at D = 4 and (a, N) = (2, 3),
        # xi = -Da/N = 1/3 mod 1, under its character zeta_N^(-da)
        x, p, q, s = 0.25, 1, 3, 3
        u = mpmath.exp(2j * mpmath.pi * p / q)
        ref = mpmath.lerchphi(u, s, x) + (-1) ** s / u * mpmath.lerchphi(1 / u, s, 1 - x)
        ref *= mpmath.exp(-2j * mpmath.pi * 2 / 3)
        assert abs(_row_zero(2, 3, 4, [1], s) - complex(ref)) < 1e-12

    def test_row_zero_domain(self):
        # weight 1 converges only off the integer frequencies theta + j/D
        for a, N, D in ((0, 3, 1), (5, 5, 1), (1, 2, 2)):
            with pytest.raises(ConvergenceModeError):
                _row_zero(a, N, D, [0], 1)

    def test_real_row_cache_is_bit_exact(self):
        # the cached row, keyed on (a mod N, N, D, tuple(ds), s) in ints, against
        # the uncached sum of the powers of p at a itself, bit for bit: a < 0, a >= N
        # and a numpy a, called first so that a row it wrapped in int64 would also
        # be served to the ints after it; ds a list or a tuple
        def uncached(a, N, D, ds, s):
            coeffs, M = eisenstein._bernoulli(s)
            q, total = N * D, 0j
            for j in range(D):
                p = (j * N - a * D) % q
                num = sum(c * p ** (s - k) * q**k for k, c in enumerate(coeffs))
                total += sum(cmath.exp(-2j * cmath.pi * j * d / D) for d in ds) * (num / (M * q**s))
            return -(2j * math.pi) ** s / math.factorial(s) * D ** (s - 1) * total

        rng = random.Random(35)
        eisenstein._real_row.cache_clear()
        for _ in range(300):
            N, D, s = rng.randint(1, 12), rng.randint(1, 4), rng.randint(2, 14)
            a = rng.randint(-3 * N, 3 * N)
            ds = sorted(rng.sample(range(D), rng.randint(1, D)))
            want = repr(uncached(a, N, D, ds, s))
            for arg, d_arg in ((np.int64(a), tuple(ds)), (a, ds), (a + N * rng.randint(-9, 9), ds)):
                assert repr(_row_zero(arg, N, D, d_arg, s)) == want, (a, N, D, ds, s)
        info = eisenstein._real_row.cache_info()
        assert info.hits >= 600 and info.misses == info.currsize <= 300

    def test_real_row_once_per_label(self):
        # Lipschitz F at 20 tau for one label does the exact Bernoulli
        # arithmetic once: the real row does not depend on tau
        eisenstein._real_row.cache_clear()
        for i in range(20):
            F(EisensteinQuery(a=1, b=2, N=5, k=4, tau=complex(0.05 * i - 0.5, 0.8 + 0.06 * i)))
        info = eisenstein._real_row.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_real_row_error_not_cached(self):
        eisenstein._real_row.cache_clear()
        for _ in range(2):
            with pytest.raises(ConvergenceModeError):
                _row_zero(3, 3, 1, [0], 1)
        assert eisenstein._real_row.cache_info().currsize == 0

    def test_row_zero_vs_hurwitz(self):
        # the split into the D classes of k mod D against the rows summed from
        # mpmath's Hurwitz zeta, class by class of n mod N: every d list of the
        # c = 0 cosets at D = 2, 3, 4
        def row(a, N, D, d, s):
            with mpmath.workdps(30):
                x, total = mpmath.mpf(d) / D, 0
                for r in range(N):
                    char = mpmath.expjpi(mpmath.mpf(-2 * ((D * r + d) * a % N)) / N)
                    total += char * mpmath.zeta(s, (r + x) / N if r or d else 1) / N**s
                    char = mpmath.expjpi(mpmath.mpf(-2 * ((-D * (r + 1) + d) * a % N)) / N)
                    total += (-1) ** s * char * mpmath.zeta(s, (r + 1 - x) / N) / N**s
                return complex(total)

        rng = random.Random(20)
        for D in (2, 3, 4):
            for ds in ([0], list(range(1, D)), list(range(D)), [D - 1]):
                N, s = rng.randint(2, 9), rng.randint(2, 8)
                a = rng.randrange(N)
                want = sum(row(a, N, D, d, s) for d in ds)
                assert abs(_row_zero(a, N, D, ds, s) - want) < 1e-13 * max(1.0, abs(want))

    def test_lambert_vs_direct_sum(self):
        x, xi, s = mpmath.mpc(0.3, 0.9), 0.25, 3
        acc = mpmath.mpf(0)
        for l in range(1, 80):
            acc += (l - xi) ** (s - 1) * mpmath.exp(2j * mpmath.pi * (l - xi) * x)
        ref = (-2j * mpmath.pi) ** s / mpmath.factorial(s - 1) * acc
        got = _lambert_one(0.3 + 0.9j, 0.25, 3)
        assert abs(got - complex(ref)) < 1e-14

    def test_lambert_phase_grid_vs_mpmath(self):
        # the phase grid as a running product u^(l-1), u = e^(2 pi i x), is no
        # less accurate than one exp per term, point by point within a factor
        # 4 (below a 1e-14 relative floor, roundoff of the phase of u at
        # |Re x| = 30), over a sweep against a dps-30 series; _lambert sums at
        # least the reference's ceil(48/y) + s + 6 terms, so its truncation
        # error is no larger
        def one_exp_per_term(x, xi, s):
            L = int(math.ceil(48.0 / (2.0 * math.pi * x.imag.min()))) + s + 6
            freq = np.arange(1, L + 1) - xi
            phase = np.exp(2j * np.pi * np.outer(x, freq))
            return phase @ (freq ** (s - 1)) * (-2j * np.pi) ** s / math.factorial(s - 1)

        def series(x, xi, s):
            with mpmath.workdps(30):
                x, xi = mpmath.mpc(x), mpmath.mpf(xi.numerator) / xi.denominator
                u = mpmath.exp(2j * mpmath.pi * x)
                term, acc = mpmath.exp(2j * mpmath.pi * (1 - xi) * x), 0
                for l in range(1, int(80.0 / (2.0 * math.pi * x.imag)) + 3 * s + 2):
                    acc += (l - xi) ** (s - 1) * term
                    term *= u
                return complex((-2j * mpmath.pi) ** s / mpmath.factorial(s - 1) * acc)

        rng = random.Random(12)
        xis = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(9, 10), Fraction(11, 12)]
        for _ in range(150):
            x = complex(rng.uniform(-30.0, 30.0), rng.uniform(0.05, 3.0))
            s, xi = rng.randint(1, 9), rng.choice(xis)
            if s == 1 and xi == 0:
                xi = Fraction(1, 3)
            ref = series(x, xi, s)
            old = abs(one_exp_per_term(np.array([x]), float(xi), s)[0] - ref) / abs(ref)
            new = abs(_lambert_one(x, float(xi), s) - ref) / abs(ref)
            assert new <= 4.0 * max(old, 1e-14), (x, s, xi, old, new)

    def test_lambert_keeps_its_term_count_in_the_box(self):
        # L is the larger of ceil(48/y) + s + 6, y = 2 pi Im x, and the bound on
        # the terms (l - xi)^(s-1) e^(-y (l - xi)); every row verify and the
        # lattice-sums workload draw has Im x >= Im tau/3 >= 0.8/3 (coset rows at
        # D = 3) and s <= 8, and there the first wins, so the sums keep the bits
        # of that count alone. Both fall with y, the first stepping at y = 48/k,
        # so the points just above those steps cover the whole range. Each row
        # has its own xi, and keeps the bits of a batch at that xi alone (rho = 0
        # makes every denominator exactly 1)
        def count_48(x, xi, s):
            L = int(math.ceil(48.0 / (2.0 * math.pi * x.imag.min()))) + s + 6
            z = 2j * np.pi * x
            phase = np.repeat(np.exp(z)[None], L, axis=0)
            phase[0] = np.exp((1.0 - xi) * z)
            np.cumprod(phase, axis=0, out=phase)
            terms = (np.arange(1, L + 1)[:, None] - xi) ** (s - 1) * phase
            return terms.sum(axis=0) * ((-2j * np.pi) ** s / math.factorial(s - 1))

        lo = 0.8 / 3
        steps = [48.0 / (2.0 * math.pi * k) * (1 + 1e-12)
                 for k in range(1, 100) if 48.0 / (2.0 * math.pi * k) >= lo]
        xis = (0.0, 0.5, 11 / 12, 1.0 - 1e-12)
        for im in steps + [lo, 0.4, 0.8, 2.0]:
            x = np.array([0.3 + 1j * im, -0.45 + 1j * (im + 0.8)])
            for s in range(1, 9):
                for pair in zip(xis, xis[1:] + xis[:1]):
                    if s == 1 and 0.0 in pair:
                        continue
                    want = np.array([count_48(x, xi, s)[r] for r, xi in enumerate(pair)])
                    got = _lambert_batch(x, np.array(pair), s)
                    assert got.tobytes() == want.tobytes()

    def test_lambert_term_count_counts_s(self):
        # ceil(48/y) + s + 6 terms alone ignore the (l - xi)^(s-1) growth: at
        # these rows that sum sits 9.5e-9 and 1.0e-11 (relative, in mpmath) from
        # the series; with the bound the truncation is below 1e-16 and float64
        # reaches 3.3e-10 and 5.9e-12, the roundoff of sums whose largest terms
        # are 3.7e5 and 1.2e4 times their value
        def series(x, xi, s):
            with mpmath.workdps(30):
                x, xi = mpmath.mpc(x), mpmath.mpf(xi.numerator) / xi.denominator
                u = mpmath.exp(2j * mpmath.pi * x)
                term, acc = mpmath.exp(2j * mpmath.pi * (1 - xi) * x), 0
                for l in range(1, 600):
                    acc += (l - xi) ** (s - 1) * term
                    term *= u
                return complex((-2j * mpmath.pi) ** s / mpmath.factorial(s - 1) * acc)

        for x, s, xi, tol in ((-20.64 + 0.0638j, 9, Fraction(9, 10), 1e-9),
                              (-22.34 + 0.0603j, 7, Fraction(0), 1e-11)):
            ref = series(x, xi, s)
            assert abs(_lambert_one(x, float(xi), s) - ref) / abs(ref) < tol

    def test_lambert_needs_upper_half(self):
        with pytest.raises(ValueError):
            _lambert_one(0.3 - 0.9j, 0.25, 3)

    def test_lambert_one_half_keeps_its_bits(self):
        # the frequencies are summed in order whatever the number of halves:
        # one half alone (a one-column sum, which a plain numpy sum would add
        # pairwise) equals the same half taken twice in one batch, bit for bit
        rng = random.Random(56)
        for _ in range(60):
            t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            N, s = rng.randint(2, 7), rng.randint(1, 8)
            y = complex(rng.uniform(-0.5, 0.5), t.imag * rng.choice((1 / 3, 1 / 2, 1.0)))
            xi = rng.randrange(1 if s == 1 else 0, N) / N
            rho = complex(np.exp(2j * np.pi * rng.randrange(N) / N))
            one = _lambert(np.array([y]), np.array([xi]), np.array([rho]), t, s)
            two = _lambert(np.array([y, y]), np.array([xi, xi]), np.array([rho, rho]), t, s)
            assert one.tobytes() == two[:1].tobytes() == two[1:].tobytes(), (y, xi, rho, t, s)

    def test_lambert_keeps_the_bits_of_the_cumsum_form(self):
        # the ufuncs called directly (np.multiply.accumulate, np.add.accumulate,
        # np.array, a float arange) against the wrappers' form, bit for bit, at 1, 2
        # and 16 halves, with rho = 0 (a row alone) and xi = 0 among them
        rng = random.Random(37)
        for _ in range(300):
            t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 2.0))
            H, N, s = rng.choice((1, 2, 16)), rng.randint(2, 12), rng.randint(2, 12)
            y = [complex(rng.uniform(-1.0, 1.0), t.imag * rng.choice((1 / 3, 1 / 2, 1.0)))
                 for _ in range(H)]
            xi = [rng.choice((0, rng.randrange(N))) / N for _ in range(H)]
            rho = [rng.choice((0j, complex(np.exp(2j * np.pi * rng.randrange(N) / N))))
                   for _ in range(H)]
            got = _lambert(tuple(y), tuple(xi), tuple(rho), t, s)
            assert got.tobytes() == _lambert_cumsum_form(y, xi, rho, t, s).tobytes(), (
                y, xi, rho, t, s)


def _draw_case(rng, ordering):
    N = rng.randint(2, 12)
    labels = [(rng.randrange(N), rng.randrange(N)) for _ in range(2)]
    tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
    return labels, N, tau, rng.randint(3 if ordering == "box" else 1, 8)


class TestNaiveKernel:
    """The blocked kernel against a row-at-a-time evaluation of the same
    operations, bit for bit, under either ordering: at a fixed R both hold
    the same terms, and each label's rows are one exactly rounded sum."""

    @staticmethod
    def _check(labels, N, D, c, d, tau, s, R, ordering):
        got = _naive_sums(labels, N, D, [(c, d)], tau, s, LatticeTruncation(R, ordering))
        want = [oracles.naive_sum_rows(a, b, N, D, c, d, tau, s, R, "eisenstein")
                for a, b in labels]
        assert got == want
        # the signs of zero parts too: == takes -0.0 for 0.0
        assert [(math.copysign(1, z.real), math.copysign(1, z.imag)) for z in got] \
            == [(math.copysign(1, z.real), math.copysign(1, z.imag)) for z in want]

    @pytest.mark.parametrize("ordering", ["eisenstein", "box"])
    @pytest.mark.parametrize("R", [1, 2, 9])
    def test_paired_rows_every_weight(self, ordering, R):
        # D = 1, c = d = 0: rows -m take row m's powers with the sign (-1)^s;
        # Re tau = 0 and 1/2 put exact zeros into x_m + n. At R = 1 an
        # eisenstein row has one term, where a broadcast complex product
        # rounds differently from the oracle's; R = 2 is the shortest row on
        # which numpy takes its contiguous loop
        rng = random.Random(6 + R)
        for s in range(3 if ordering == "box" else 1, 9):
            for re in (0.0, 0.5, rng.uniform(-0.5, 0.5)):
                labels, N, _, _ = _draw_case(rng, ordering)
                tau = complex(re, rng.uniform(0.8, 2.0))
                self._check(labels, N, 1, 0, 0, tau, s, R, ordering)

    @pytest.mark.parametrize("ordering", ["eisenstein", "box"])
    def test_every_coset(self, ordering):
        rng = random.Random(4)
        for D in (2, 3):
            for c in range(D):
                for d in range(D):
                    labels, N, tau, s = _draw_case(rng, ordering)
                    self._check(labels, N, D, c, d, tau, s, rng.choice((1, 7, 30)), ordering)

    @pytest.mark.parametrize("ordering", ["eisenstein", "box"])
    def test_radius_one(self, ordering):
        rng = random.Random(5)
        for D, c, d in ((1, 0, 0), (2, 1, 0), (3, 2, 1)):
            labels, N, tau, s = _draw_case(rng, ordering)
            self._check(labels, N, D, c, d, tau, s, 1, ordering)

    @pytest.mark.parametrize("ordering", ["eisenstein", "box"])
    @pytest.mark.parametrize("block, R", [
        # 3 grid rows of 13 per block: pairs run in blocks of rows {0, +-1, +-2},
        # {+-3, +-4, +-5}, {+-6}, with row 0 opening the first; other cosets
        # run 13 single rows in blocks of 3, 3, 3, 3, 1
        (39, 6),
        # 3 grid rows of 11 per block: the pair blocks {0, +-1, +-2} and
        # {+-3, +-4, +-5} end at R; the 11 single rows end in a block of 2
        (33, 5),
        # 15-term rows, _BLOCK smaller than one pair: row 0 alone, then one
        # pair (or one single row) per block
        (16, 7),
        # the default block, 20 grid rows of 401: 201 heads of pairs in 11
        # blocks, 401 single rows in 21
        (1 << 13, 200),
    ])
    def test_block_edges(self, monkeypatch, ordering, block, R):
        monkeypatch.setattr(eisenstein, "_BLOCK", block)
        rng = random.Random(block + R)
        for D, c, d in ((1, 0, 0), (2, 1, 1), (3, 0, 2)):
            labels, N, tau, s = _draw_case(rng, ordering)
            self._check(labels, N, D, c, d, tau, s, R, ordering)

    @pytest.mark.parametrize("N", [2, 5, 12])
    def test_class_edges_vs_box(self, N):
        # the columns are summed by class of n mod N: at R < N some classes are
        # empty, and R = 0, 1, -1 mod N makes the classes equal, the first one
        # longer or the last one shorter; a = 0 is the trivial n-character. Against
        # the box rows, the same terms in another rounding order, scaled by
        # max(1, |value|): at odd weights with real characters the sum is an
        # exact 0
        rng = random.Random(N)
        for R in (1, 2, 5, 11, 12, 13, 25):
            for D, c, d in ((1, 0, 0), (2, 1, 0), (3, 0, 2), (3, 2, 1)):
                for s in (3, 6, 8):
                    labels = [(0, rng.randrange(1, N)), (rng.randrange(1, N), rng.randrange(N))]
                    tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
                    got = _naive_sums(labels, N, D, [(c, d)], tau, s, LatticeTruncation(R))
                    for (a, b), v in zip(labels, got):
                        want = oracles.naive_sum_rows(a, b, N, D, c, d, tau, s, R, "box")
                        assert abs(v - want) < 1e-13 * max(1.0, abs(want)), (R, D, c, d, s)

    def test_vs_mpmath(self):
        # against a dps-30 brute-force sum of the same terms, to 1e-13 x
        # max(1, |value|): an accuracy check that no float summation order
        # enters, one coset at a time and a coset list in one call; s is
        # drawn per case
        def brute(a, b, N, D, cosets, tau, s, R):
            with mpmath.workdps(30):
                t, total = mpmath.mpc(tau), 0
                for c, d in cosets:
                    for m in range(-R, R + 1):
                        x = (m + mpmath.mpf(c) / D) * t + mpmath.mpf(d) / D
                        for n in range(-R, R + 1):
                            if c == d == m == n == 0:
                                continue
                            e = ((D * m + c) * b - (D * n + d) * a) % N
                            total += mpmath.expjpi(mpmath.mpf(2 * e) / N) / (x + n) ** s
                return complex(total)

        rng = random.Random(18)
        cases = [(R, D, [(c, d)]) for R in (1, 2, 5, 13)
                 for D, c, d in ((1, 0, 0), (2, 1, 0), (3, 0, 2), (3, 2, 1))]
        cases += [(5, D, [(c, d) for c in range(D) for d in range(D) if c or d]) for D in (2, 3)]
        for R, D, cosets in cases:
            N, s = rng.randint(2, 12), rng.randint(1, 8)
            labels = [(rng.randrange(N), rng.randrange(N)) for _ in range(2)]
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            got = _naive_sums(labels, N, D, cosets, tau, s, LatticeTruncation(R))
            for (a, b), v in zip(labels, got):
                want = brute(a, b, N, D, cosets, tau, s, R)
                assert abs(v - want) < 1e-13 * max(1.0, abs(want)), (R, D, cosets, s)

    def test_grid_work_does_not_grow_with_labels(self, monkeypatch):
        # every label reads the block's class sums: one grid of powers per
        # block, of columns 0, +n and -n, whatever the number of labels
        calls = []
        power = eisenstein._power

        def counted(work, s):
            calls.append(work[0].shape)
            return power(work, s)

        monkeypatch.setattr(eisenstein, "_power", counted)
        counts = []
        for labels in ([(1, 2)], [(1, 2), (0, 3), (4, 4)]):
            for D, c, d in ((1, 0, 0), (3, 2, 1)):
                calls.clear()
                _naive_sums(labels, 5, D, [(c, d)], TAU, 6, LatticeTruncation(40))
                counts.append(calls[:])
        assert counts[:2] == counts[2:]
        # R = 40 is one block: rows 0..40 (c = d = 0) or -40..40, by 2R + 1
        # columns; z^6 takes three nested _power calls
        assert counts[:2] == [[(41, 81)] * 3, [(81, 81)] * 3]

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_one_projection_per_span(self, monkeypatch, D):
        # the class sums of the blocks of a span meet the labels' class
        # characters in one einsum after the span's blocks: one c_einsum call
        # per coset while its rows fit one span of 2 _BLOCK class sums, with
        # _BLOCK splitting the rows into blocks of 8 rows (4 D^2 - 2 blocks)
        # or into one block; at _BLOCK = 25 a span is 4 rows of 11 class
        # sums: 4 spans for the paired coset (rows 0..12), 7 for each other
        # (rows -12..12), in 25 D^2 - 12 single-row blocks; the same sums
        # from each
        einsums, blocks = [], []
        einsum, power = eisenstein.c_einsum, eisenstein._power

        def counted_einsum(*args, **kwargs):
            einsums.append(args[0])
            return einsum(*args, **kwargs)

        def counted_power(work, s):
            if s == 4:  # a block's call, not a nested one
                blocks.append(len(work[0]))
            return power(work, s)

        monkeypatch.setattr(eisenstein, "c_einsum", counted_einsum)
        monkeypatch.setattr(eisenstein, "_power", counted_power)
        cosets = [(c, d) for c in range(D) for d in range(D)]
        sums = []
        for block, spans, count in ((25, 7 * D * D - 3, 25 * D * D - 12),
                                    (200, D * D, 4 * D * D - 2), (1 << 13, D * D, D * D)):
            monkeypatch.setattr(eisenstein, "_BLOCK", block)  # 25 columns at R = 12
            einsums.clear()
            blocks.clear()
            sums.append(_naive_sums([(1, 2), (3, 4)], 5, D, cosets, TAU, 4,
                                    LatticeTruncation(12)))
            assert len(einsums) == spans
            assert len(blocks) == count
        assert sums[0] == sums[1] == sums[2]

    @pytest.mark.parametrize("R, N, s, bound_kib", [
        # measured 796, 821 and 1096 KiB: the work buffer (_BLOCK terms per bit
        # of s: 500, 250 and 375 KiB), the class sums of at most two spans
        # (2 min(N, R) + 1 per row: 172, 344 and 500 KiB) and the rows; R =
        # 1000 at k = 2 is eisenstein_sum_k2 in verify; at N >= R every column
        # is its own class, and the spans keep the class sums from growing
        # with the lattice (all rows at once would be 16 MB)
        (500, 5, 8, 880), (1000, 5, 2, 900), (500, 1000, 4, 1200)])
    def test_peak_memory(self, R, N, s, bound_kib):
        args = ([(1, 2)], N, 1, [(0, 0)], TAU, s, LatticeTruncation(R))
        _naive_sums(*args)  # caches filled first
        tracemalloc.start()
        try:
            _naive_sums(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_kib * 1024, peak / 1024

    @pytest.mark.parametrize("ordering, k", [("eisenstein", 2), ("eisenstein", 5), ("box", 4)])
    def test_F_tilde_is_two_F_calls(self, ordering, k):
        # F_tilde sends both labels through one lattice-sum call (in naive mode
        # one pass over the lattice); in either mode the result is that of two
        # F calls, bit for bit
        for mode, trunc in (("naive", LatticeTruncation(60, ordering)), ("lipschitz", None)):
            q = EisensteinQuery(a=1, b=2, N=5, k=k, tau=TAU, mode=mode, trunc=trunc)
            for D in (2, 3):
                second = F(EisensteinQuery(a=D % 5, b=2 * D % 5, N=5, k=k, tau=TAU,
                                           mode=mode, trunc=trunc))
                assert F_tilde(q, D) == D**2 * F(q) - D ** (2 - k) * second


class TestLipschitzKernel:
    """The Lambert kernel against the naive box sum of the same cosets: each
    coset alone (D = 1, c = d = 0 is F without its prefactor), and two labels
    over the nonzero cosets of specialize_eisenstein (at D = 1 the coset of F)
    in one call; its halves against their rows summed one by one."""

    @staticmethod
    def _draw(rng, D, re):
        # s >= 4 with (Da, Db) != (0, 0) mod N: the box truncation error at
        # R = 400 is then about R^(1-s) (a trivial character leaves R^(2-s)),
        # and a level N that does not divide D has such labels
        N = rng.choice([n for n in range(2, 13) if D % n])
        a = b = 0
        while (D * a) % N == 0 and (D * b) % N == 0:
            a, b = rng.randrange(N), rng.randrange(N)
        return a, b, N, rng.randint(4, 7), complex(re, rng.uniform(0.8, 2.0))

    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_every_coset_vs_box(self, D):
        rng = random.Random(8 + D)
        for c in range(D):
            for d in range(D):
                for re in (0.0, 0.5, rng.uniform(-0.5, 0.5)):
                    a, b, N, s, tau = self._draw(rng, D, re)
                    got, = _lipschitz_sums([(a, b)], N, D, [(c, d)], tau, s)
                    want = oracles.naive_sum_rows(a, b, N, D, c, d, tau, s, 400, "box")
                    assert type(got) is complex
                    assert abs(got - want) < 1e-8 * max(1.0, abs(want))
        # every label and coset in one call: their halves share one frequency
        # pass, whose term count the smallest Im y of all of them sets. The second label
        # has another xi = -Da/N, and with it other row ranges, as in F_tilde;
        # it comes from its own stream, so the first labels are drawn as before
        cosets = [(c, d) for c in range(D) for d in range(D) if c or d] or [(0, 0)]
        second = random.Random(D)
        for re in (0.0, 0.5, rng.uniform(-0.5, 0.5)):
            a, b, N, s, tau = self._draw(rng, D, re)
            labels = [(a, b)]
            while len(labels) < 2:
                a2, b2 = second.randrange(N), second.randrange(N)
                if (D * a2) % N != (D * a) % N and ((D * a2) % N or (D * b2) % N):
                    labels.append((a2, b2))
            both = _lipschitz_sums(labels, N, D, cosets, tau, s)
            for (a, b), got in zip(labels, both):
                one, = _lipschitz_sums([(a, b)], N, D, cosets, tau, s)
                want = sum(oracles.naive_sum_rows(a, b, N, D, c, d, tau, s, 400, "box")
                           for c, d in cosets)
                assert type(got) is complex
                assert abs(got - want) < 1e-8 * max(1.0, abs(want))
                assert abs(got - one) < 1e-13 * abs(one)
            # the cosets can cancel far below their own size, so roundoff is
            # measured against the largest of them
            alone = [_lipschitz_sums(labels[:1], N, D, [coset], tau, s)[0] for coset in cosets]
            assert abs(both[0] - sum(alone)) < 1e-13 * max(map(abs, alone))

    def test_one_lambert_call_per_lattice_sum(self, monkeypatch):
        # F, both labels of F_tilde and the D^2 - 1 cosets of
        # specialize_eisenstein (weight k + 1 = 4): one frequency pass
        # (_lambert call) on the halves of every label and coset, as many as
        # the one-label one-coset calls have together, and one closed-form
        # row 0 per label when a coset has c = 0
        calls, rows0 = [], []
        lambert, row_zero = eisenstein._lambert, eisenstein._row_zero

        def counted(y, xi, rho, t, s):
            calls.append(len(y))
            return lambert(y, xi, rho, t, s)

        def counted_row(a, N, D, ds, s):
            rows0.append(len(ds))
            return row_zero(a, N, D, ds, s)

        monkeypatch.setattr(eisenstein, "_lambert", counted)
        monkeypatch.setattr(eisenstein, "_row_zero", counted_row)
        q = EisensteinQuery(a=1, b=2, N=5, k=4, tau=TAU)
        nonzero = [[(c, d) for c in range(D) for d in range(D) if c or d] for D in (2, 3)]
        specialize = [lambda D=D: polylog.specialize_eisenstein(polylog.TorsionLabel(1, 2, 5, D),
                                                                TAU, 3) for D in (2, 3)]
        for evaluate, labels, D, cosets in (
                (lambda: F(q), [(1, 2)], 1, [(0, 0)]),
                (lambda: F_tilde(q, 2), [(1, 2), (2, 4)], 1, [(0, 0)]),
                (specialize[0], [(1, 2)], 2, nonzero[0]),
                (specialize[1], [(1, 2)], 3, nonzero[1])):
            calls.clear()
            rows0.clear()
            evaluate()
            halves, real_rows = calls[:], rows0[:]
            assert real_rows == [D - 1 if D > 1 else 1] * len(labels)
            calls.clear()
            for label in labels:
                for coset in cosets:
                    _lipschitz_sums([label], 5, D, [coset], TAU, 4)
            assert halves == [2 * len(labels) * len(cosets)] == [sum(calls)]

    def test_one_hurwitz_call_per_coset_sum(self, monkeypatch):
        # the real rows 0 of the c = 0 cosets (0, d), d = 1 .. D-1, share theta
        # and go through one closed-form Hurwitz call (_row_zero) over all d;
        # that call is the sum of the one-d calls up to roundoff
        calls = []
        row_zero = eisenstein._row_zero

        def counted(a, N, D, ds, s):
            calls.append((a, N, D, list(ds), s))
            return row_zero(a, N, D, ds, s)

        monkeypatch.setattr(eisenstein, "_row_zero", counted)
        for D in (2, 3):
            calls.clear()
            polylog.specialize_eisenstein(polylog.TorsionLabel(1, 2, 5, D), TAU, 3)
            assert calls == [(1, 5, D, list(range(1, D)), 4)]
            for a, N, s in ((1, 5, 4), (2, 3, 3), (1, 2, 2)):
                ds = list(range(D))
                alone = [row_zero(a, N, D, [d], s) for d in ds]
                assert abs(row_zero(a, N, D, ds, s) - sum(alone)) < 1e-13 * max(map(abs, alone))

    def test_lambert_vs_rows_mpmath(self):
        # each half is sum_(m >= 0) rho^m T(y + m t, xi, s): against those rows
        # summed one by one, each by its exponential series, at dps 30, for
        # rho a root of unity (1 among them) and for Im y below and at Im t
        def rows(y, xi, rho, t, s):
            with mpmath.workdps(30):
                y, t, xi = mpmath.mpc(y), mpmath.mpc(t), mpmath.mpf(xi.numerator) / xi.denominator
                total, m = 0, 0
                while True:
                    x = y + m * t
                    u = mpmath.exp(2j * mpmath.pi * x)
                    term, row = mpmath.exp(2j * mpmath.pi * (1 - xi) * x), 0
                    for l in range(1, int(60.0 / (2.0 * math.pi * float(x.imag))) + 3 * s + 4):
                        row += (l - xi) ** (s - 1) * term
                        term *= u
                    total += rho**m * row
                    if abs(row) < 1e-22 * abs(total):
                        break
                    m += 1
                return complex((-2j * mpmath.pi) ** s / mpmath.factorial(s - 1) * total)

        rng = random.Random(19)
        for _ in range(12):
            t = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            N, s = rng.randint(2, 7), rng.randint(1, 8)
            halves = []
            for _ in range(3):
                xi = Fraction(rng.randrange(1 if s == 1 else 0, N), N)
                y = complex(rng.uniform(-0.5, 0.5), t.imag * rng.choice((1 / 3, 1 / 2, 1.0)))
                halves.append((y, xi, rng.randrange(N)))
            y, xi, r = map(np.array, zip(*halves))
            got = _lambert(y, xi.astype(float), np.exp(2j * np.pi * r / N), t, s)
            for v, (y, xi, r) in zip(got, halves):
                rho = mpmath.expjpi(mpmath.mpf(2 * r) / N)
                want = rows(y, xi, rho, t, s)
                assert abs(v - want) < 1e-13 * max(1.0, abs(want)), (y, xi, r, t, s)


class TestWeightOneDomain:
    """At k = 1 the row sum diverges when a = 0 mod N, and the naive square
    truncation misses the row sum when b = 0 mod N; the rows of a Lipschitz
    coset sum at weight 1 are principal values, and box needs weight 3."""

    @staticmethod
    def _no_sums(monkeypatch):
        def no_sum(*args):
            raise AssertionError("summed a lattice outside the weight-one domain")

        monkeypatch.setattr(eisenstein, "_lipschitz_sums", no_sum)
        monkeypatch.setattr(eisenstein, "_naive_sums", no_sum)

    # the whole domain in one table, each row refused before any kernel runs:
    # "F" is F and F_tilde at D = 2 (its first label), "degenerate" naive
    # F_tilde with the trivial second label allowed, "specialize" the coset
    # sum of specialize_eisenstein at weight k + 1 (D = 1 has no coset)
    @pytest.mark.parametrize("entry, a, b, N, D, k, mode, ordering", [
        pytest.param("F", 0, 2, 5, 2, 1, "lipschitz", None, id="0-2-lipschitz"),
        pytest.param("F", 5, 2, 5, 2, 1, "lipschitz", None, id="5-2-lipschitz"),
        pytest.param("F", 0, 2, 5, 2, 1, "naive", "eisenstein", id="0-2-naive"),
        pytest.param("F", 2, 0, 5, 2, 1, "naive", "eisenstein", id="2-0-naive"),
        pytest.param("F", 1, 0, 5, 2, 1, "naive", "eisenstein", id="1-0-naive"),
        pytest.param("degenerate", 2, 2, 4, 2, 1, "naive", "eisenstein",
                     id="F_tilde-degenerate-naive"),
        pytest.param("specialize", 1, 2, 5, 1, 0, "lipschitz", None, id="specialize-D1-lipschitz"),
        pytest.param("specialize", 1, 2, 5, 3, 0, "lipschitz", None, id="specialize-D3-lipschitz"),
        pytest.param("specialize", 1, 2, 5, 2, 0, "naive", "box", id="specialize-k0-box"),
        pytest.param("specialize", 1, 2, 5, 2, 1, "naive", "box", id="specialize-k1-box"),
    ])
    def test_raises_before_summing(self, monkeypatch, entry, a, b, N, D, k, mode, ordering):
        self._no_sums(monkeypatch)
        trunc = LatticeTruncation(250, ordering) if ordering else None
        if entry == "specialize":
            label = polylog.TorsionLabel(a, b, N, D)
            calls = [lambda: polylog.specialize_eisenstein(label, TAU, k, mode, trunc)]
        else:
            q = EisensteinQuery(a=a, b=b, N=N, k=k, tau=TAU, mode=mode, trunc=trunc)
            calls = ([lambda: F(q), lambda: F_tilde(q, D)] if entry == "F"
                     else [lambda: F_tilde(q, D, allow_degenerate=True)])
        for call in calls:
            with pytest.raises(ConvergenceModeError):
                call()

    @pytest.mark.parametrize("mode", ["lipschitz", "naive"])
    def test_F_tilde_second_label(self, monkeypatch, mode):
        # (a, b) = (2, 1) mod 4 is inside the domain, (Da, Db) = (0, 2) is not
        self._no_sums(monkeypatch)
        trunc = LatticeTruncation(250) if mode == "naive" else None
        q = EisensteinQuery(a=2, b=1, N=4, k=1, tau=TAU, mode=mode, trunc=trunc)
        with pytest.raises(ConvergenceModeError):
            F_tilde(q, 2)

    def test_lipschitz_at_b_zero_is_the_row_sum(self):
        # rows of 2R + 1 terms converge like 1/R to the Lipschitz value; the
        # naive square truncation stays 0.49 (a = 2) and 2.09 (a = 1) away
        for a in (1, 2):
            lip = F(EisensteinQuery(a=a, b=0, N=5, k=1, tau=TAU))
            assert abs(lip - oracles.F_rows(a, 0, 5, 1, TAU, 15, 100000)) < 1e-3


class TestF:
    def test_frozen_pin(self):
        v = F(EisensteinQuery(a=1, b=2, N=5, k=3, tau=TAU))
        assert abs(v - F_PIN_135) < 1e-12

    def test_box_oracle(self):
        for k, tol in ((3, 1e-6), (4, 1e-9)):
            lip = F(EisensteinQuery(a=1, b=2, N=5, k=k, tau=TAU))
            assert abs(lip - oracles.F_brute(1, 2, 5, k, TAU, R=400)) < tol

    def test_small_im_tau_vs_rows(self):
        # near the real axis the rows decay slowly (about 2000 rows of up to 500
        # terms at 0.02i); the Lambert halves sum them in closed form, within
        # 1e-12 relative of the rows summed one by one at dps 30
        for tau in (0.02j, 0.5 + 0.03j):
            got = F(EisensteinQuery(a=1, b=2, N=5, k=4, tau=tau))
            want = oracles.F_rows_mp(1, 2, 5, 4, tau)
            assert abs(got - want) < 1e-12 * abs(want), tau

    def test_naive_box_vs_brute(self):
        # the kernel's products and shared reciprocal against numpy ** and /
        # over one meshgrid, on the same term set, relative to max(1, |brute|);
        # labels fixed by (a, b) -> (-a, -b) are left out: at odd weight they
        # vanish, and both sums are (k-1)! times roundoff (1.9e-13 apart for
        # (0, 1) mod 2 at k = 7)
        for a, b, N in ((1, 2, 5), (0, 1, 3), (3, 0, 4), (2, 5, 7)):
            for k in range(3, 9):
                naive = F(EisensteinQuery(a=a, b=b, N=N, k=k, tau=TAU, mode="naive",
                                          trunc=LatticeTruncation(100, ordering="box")))
                brute = oracles.F_brute(a, b, N, k, TAU, R=100)
                assert abs(naive - brute) <= 1e-13 * max(1.0, abs(brute))

    def test_naive_eisenstein_cross(self):
        for k in (2, 3):
            q = EisensteinQuery(a=1, b=2, N=5, k=k, tau=TAU)
            naive = F(EisensteinQuery(a=1, b=2, N=5, k=k, tau=TAU, mode="naive",
                                      trunc=LatticeTruncation(500)))
            assert abs(naive - F(q)) < 1e-5

    def test_weight_one_slow_convergence(self):
        # symmetric inner rows converge to the principal value like 1/R
        lip = F(EisensteinQuery(a=1, b=2, N=5, k=1, tau=TAU))
        naive = F(EisensteinQuery(a=1, b=2, N=5, k=1, tau=TAU, mode="naive",
                                  trunc=LatticeTruncation(500)))
        assert abs(naive - lip) < 5e-3

    def test_naive_box(self):
        lip = F(EisensteinQuery(a=1, b=2, N=5, k=4, tau=TAU))
        box = F(EisensteinQuery(a=1, b=2, N=5, k=4, tau=TAU, mode="naive",
                                trunc=LatticeTruncation(200, ordering="box")))
        assert abs(box - lip) < 1e-8
        # box only declares absolute convergence: the same terms in the same order
        assert box == F(EisensteinQuery(a=1, b=2, N=5, k=4, tau=TAU, mode="naive",
                                        trunc=LatticeTruncation(200)))

    def test_lambert_term_count_guard(self):
        # at Im tau = 1e-4 the Lambert halves would need about 1e5 terms: past
        # 5000 the sum raises instead of returning a value dominated by roundoff.
        # Weight 2 keeps tau (weight 4 is summed at the reduced tau, TestReduction)
        with pytest.raises(ConvergenceError):
            F(EisensteinQuery(a=1, b=2, N=5, k=2, tau=0.3 + 1e-4j))
        with pytest.raises(ConvergenceError):
            _lambert([0.3 + 1e-4j], [0.4], [0.0], 0.3 + 1e-4j, 4)

    def test_weight_four_at_im_1e_4(self):
        # at tau itself the Lambert halves would need 108939 terms; at the reduced
        # tau the call reads the pin to 6.1e-13
        got = F(EisensteinQuery(a=1, b=2, N=5, k=4, tau=0.3 + 1e-4j))
        assert abs(got - F_PIN_1254_CUSP) < 1e-12 * abs(F_PIN_1254_CUSP)

    def test_box_rejected_below_weight_three(self):
        with pytest.raises(ConvergenceModeError):
            F(EisensteinQuery(a=1, b=2, N=5, k=2, tau=TAU, mode="naive",
                              trunc=LatticeTruncation(200, ordering="box")))

    def test_naive_requires_truncation(self):
        with pytest.raises(ValueError):
            F(EisensteinQuery(a=1, b=2, N=5, k=3, tau=TAU, mode="naive"))

    def test_parity(self):
        for k in (2, 3, 4):
            plus = F(EisensteinQuery(a=1, b=3, N=5, k=k, tau=TAU))
            minus = F(EisensteinQuery(a=-1, b=-3, N=5, k=k, tau=TAU))
            assert abs(minus - (-1) ** k * plus) < 1e-13 * max(1.0, abs(plus))

    def test_label_periodicity(self):
        a = F(EisensteinQuery(a=1, b=2, N=5, k=3, tau=TAU))
        b = F(EisensteinQuery(a=6, b=-3, N=5, k=3, tau=TAU))
        assert abs(a - b) < 1e-13 * max(1.0, abs(a))


# (a, b, N, k, tau, D) with D = +-1 mod N, so that F_tilde's second label is
# +-(a, b) and one oracle row sum gives F, F_tilde and specialize_eisenstein;
# Im tau in [0.005, 0.5), the first by the cusp 1/3, where the rows reach 1e12
_SMALL_IM = [
    (7, 3, 8, 7, 0.337 + 0.0055j, 9),
    (1, 2, 5, 4, -0.21 + 0.005j, 4),
    (2, 1, 5, 5, -0.48 + 0.0083j, 4),
    (1, 1, 3, 4, 0.31 + 0.02j, 2),
    (1, 3, 4, 6, -0.27 + 0.021j, 3),
    (1, 2, 5, 4, 0.5 + 0.03j, 4),
    (3, 5, 7, 3, 0.143 + 0.0142j, 6),
    (0, 1, 3, 3, -0.33 + 0.06j, 2),
    (2, 1, 3, 5, 0.41 + 0.13j, 2),
    (5, 2, 6, 8, 0.4 + 0.2j, 7),
    (3, 2, 4, 8, 0.22 + 0.25j, 3),
    (4, 0, 5, 7, 0.0817 + 0.3733j, 6),
]


class TestReduction:
    """Lipschitz sums at k >= 3 are summed at the tau' of weierstrass._reduce
    (Im tau' >= 1/2) by the modular law, against row sums at tau itself."""

    @pytest.mark.parametrize("t", [0.3 + 1e-4j, 0.337 + 0.0055j, -7.5 + 0.02j, 0.5 + 0.49j,
                                   1e-9 + 1e-7j, 0.21 + 1.1j, -0.5 + 0.5j])
    def test_reduce(self, t):
        # t = gamma tau' with gamma in SL2(Z) and Im tau' >= 1/2; gamma = 1 from 1/2 up
        tp, (A, B, C, D) = _reduce(t)
        assert A * D - B * C == 1 and tp.imag >= 0.5
        assert abs((A * tp + B) / (C * tp + D) - t) < 1e-9 * abs(t)
        if t.imag >= 0.5:
            assert (tp, (A, B, C, D)) == (t, (1, 0, 0, 1))

    def test_identity_keeps_the_kernel_bits(self, monkeypatch):
        # gamma = 1 at Im tau >= 1/2 (s >= 3) and at s <= 2 (any tau): the dispatch
        # never reduces tau and returns the kernel's sums of the live labels, given
        # unreduced, bit for bit, and exactly 0 for a parity-null label among them
        def no_reduce(t):
            raise AssertionError(f"reduced tau = {t} at gamma = 1")

        monkeypatch.setattr(eisenstein, "_reduce", no_reduce)
        rng = random.Random(7)
        for i in range(40):
            h = rng.randint(2, 4)  # N >= 4, so (a, 1) and (a, 3N - 1) are live
            N, D = 2 * h, rng.randint(1, 3)
            s = rng.randint(3, 8) if i % 2 else rng.randint(1 if D == 1 else 2, 2)
            t = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2) if s >= 3 else
                        math.exp(rng.uniform(-3, 0.7)))
            live = [(rng.choice([a for a in range(-N, 2 * N) if a % N]), b) for b in (1, 3 * N - 1)]
            # (h, 0) is parity-null: 0 at odd s, a live label at even s
            labels = [live[0], (h + N * rng.randint(-1, 1), 0), *live[1:]]
            if s % 2 == 0:
                live = labels
            cosets = [(c, d) for c in range(D) for d in range(D) if c or d] or [(0, 0)]
            got = eisenstein._lattice_sums(labels, N, D, cosets, t, s, "lipschitz", None)
            want = iter(_lipschitz_sums(live, N, D, cosets, t, s))
            want = [next(want) if label in live else 0j for label in labels]
            assert np.array(got).tobytes() == np.array(want).tobytes(), (labels, N, D, t, s)

    def test_identity_keeps_the_refusal(self, monkeypatch):
        # gamma = 1 keeps the coset sums' refusal with the factor 1: at D = 7, s = 7
        # the real row rounds to 2^-50 7^8 = 5.1e-9 > 1e-9, so a sum of 1e-30 raises
        monkeypatch.setattr(eisenstein, "_lipschitz_sums", lambda labels, *_: [1e-30] * len(labels))
        cosets = [(c, d) for c in range(7) for d in range(7) if c or d]
        with pytest.raises(ConvergenceError):
            eisenstein._lattice_sums([(1, 2)], 5, 7, cosets, 0.1 + 1.0j, 7, "lipschitz", None)

    @pytest.mark.parametrize("a, b, N, k, tau, D", _SMALL_IM)
    def test_vs_fine_rows(self, a, b, N, k, tau, D):
        # F and F_tilde against the row sums at tau to 1e-12 of max(1, |value|).
        # The first case reads 3e-21 under rows of about 1e12; summed at tau itself
        # its rounding reads 34.7 - 50.1i
        ref = oracles.F_rows_fine(a, b, N, k, tau)
        sign = 1 if D % N == 1 else (-1) ** k
        want = D**2 * ref - D ** (2 - k) * sign * ref
        q = EisensteinQuery(a=a, b=b, N=N, k=k, tau=tau)
        assert abs(F(q) - ref) < 1e-12 * max(1.0, abs(ref))
        assert abs(F_tilde(q, D) - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("a, b, N, k, tau, D", [c for c in _SMALL_IM if c[4] not in (
        0.337 + 0.0055j, -0.48 + 0.0083j, 0.0817 + 0.3733j)])
    def test_specialize_vs_fine_rows(self, a, b, N, k, tau, D):
        # the coset sums, but where they refuse (the next test) and at (4, 0) mod 5,
        # D = 6, which loses 1.2e-11 (the value is 2.3e3) to the rounding of its real
        # row times |C tau' + D|^7 = 850, under the refusal bound
        ref = oracles.F_rows_fine(a, b, N, k, tau)
        sign = 1 if D % N == 1 else (-1) ** k
        want = D**2 * ref - D ** (2 - k) * sign * ref
        got = polylog.specialize_eisenstein(polylog.TorsionLabel(a, b, N, D), tau, k - 1)
        assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    @pytest.mark.parametrize("a, b, N, k, tau, D", [
        (7, 3, 8, 7, 0.337 + 0.0055j, 2), (7, 3, 8, 7, 0.337 + 0.0055j, 3),
        (7, 3, 8, 7, 0.337 + 0.0055j, 7), (2, 1, 5, 5, -0.48 + 0.0083j, 4)])
    def test_coset_sums_refuse_below_their_rounding(self, a, b, N, k, tau, D):
        # at the cusp case the coset sums at tau' cancel to 1e-32 while their real
        # row rounds at about 1e-16 D^8: times |C tau' + D|^7 = 8e11 that read 2.0 at
        # D = 3 and 73 at D = 7 for a value of 1e-19, so they raise; F_tilde, whose
        # real rows are exactly rounded, does not (test_vs_fine_rows)
        with pytest.raises(ConvergenceError):
            polylog.specialize_eisenstein(polylog.TorsionLabel(a, b, N, D), tau, k - 1)
        F_tilde(EisensteinQuery(a, b, N, k, tau), D)

    def test_vanishing_label(self):
        # (2, 0) mod 5 at weight 3 and 0.02i: about 1e-129 at the reduced tau
        # (oracles.F_rows_fine reads below 1e-28 at cut = 1e-26)
        assert abs(F(EisensteinQuery(a=2, b=0, N=5, k=3, tau=0.02j))) < 1e-20

    @given(h=st.sampled_from([1, 2, 3, 4]), which=st.sampled_from([(1, 0), (0, 1), (1, 1)]),
           shift=st.integers(-2, 2), k=st.sampled_from([3, 5, 7, 9]), D=st.integers(1, 4),
           re=st.floats(-1.0, 1.0), im=st.floats(-5.3, 0.7))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_parity_zeros(self, h, which, shift, k, D, re, im):
        # (2a, 2b) = 0 mod N at odd weight: (m, n) -> (-m, -n) flips every term, so
        # the Lipschitz sums are exactly 0, decided before any kernel runs
        N = 2 * h
        a, b = which[0] * h + shift * N, which[1] * h
        tau = complex(re, math.exp(im))
        q = EisensteinQuery(a=a, b=b, N=N, k=k, tau=tau)
        assert F(q) == 0
        assert F_tilde(q, D, allow_degenerate=True) == 0
        assert polylog.specialize_eisenstein(polylog.TorsionLabel(a, b, N, D), tau, k - 1) == 0


class TestFTilde:
    def test_combination(self):
        # D^2 F_(a,b) - D^(2-k) F_(Da,Db) when the second label is alive
        D, k = 2, 3
        q = EisensteinQuery(a=1, b=2, N=5, k=k, tau=TAU)
        expect = (
            D**2 * F(q)
            - D ** (2 - k) * F(EisensteinQuery(a=2, b=4, N=5, k=k, tau=TAU))
        )
        assert abs(F_tilde(q, D) - expect) < 1e-13 * max(1.0, abs(expect))

    def test_degenerate_label_raises(self):
        # (Da, Db) = (0,0) mod N needs the explicit opt-in
        q = EisensteinQuery(a=1, b=2, N=2, k=3, tau=TAU)
        with pytest.raises(DegenerateLabelError):
            F_tilde(q, 2)

    def test_degenerate_label_raises_before_summing(self, monkeypatch):
        def no_sum(*args):
            raise AssertionError("summed a lattice before the label check")

        monkeypatch.setattr(eisenstein, "_naive_sums", no_sum)
        q = EisensteinQuery(a=1, b=1, N=2, k=3, tau=TAU, mode="naive",
                            trunc=LatticeTruncation(500))
        with pytest.raises(DegenerateLabelError):
            F_tilde(q, 2)

    def test_degenerate_label_allowed(self):
        # trivial-character extension: zero at odd weight
        q = EisensteinQuery(a=1, b=2, N=2, k=3, tau=TAU)
        v = F_tilde(q, 2, allow_degenerate=True)
        expect = 4 * F(q)
        assert abs(v - expect) < 1e-13 * max(1.0, abs(expect))

    @pytest.mark.parametrize("k", [2, 4])
    def test_degenerate_naive_takes_the_row_sum(self, k):
        # in naive mode the first label is the square sum and the trivial
        # character is the Lipschitz row sum, bit for bit
        D, N = 2, 2
        q = EisensteinQuery(a=1, b=1, N=N, k=k, tau=TAU, mode="naive",
                            trunc=LatticeTruncation(60))
        trivial, = eisenstein._lattice_sums([(0, 0)], N, 1, [(0, 0)], TAU, k, "lipschitz", None)
        second = (-1) ** (k + 1) * math.factorial(k - 1) * trivial
        assert F_tilde(q, D, allow_degenerate=True) == D**2 * F(q) - D ** (2 - k) * second


class TestOrderedWeightTwo:
    def test_matches_lipschitz(self):
        # a != 0 mod N keeps the inner rows oscillating (1/R^2 tail)
        v = eisenstein_sum_k2(1, 2, 5, TAU, LatticeTruncation(500))
        lip = F(EisensteinQuery(a=1, b=2, N=5, k=2, tau=TAU))
        assert abs(v - lip) < 1e-4

    def test_box_ordering_rejected(self):
        with pytest.raises(ConvergenceModeError):
            eisenstein_sum_k2(1, 2, 5, TAU, LatticeTruncation(200, ordering="box"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLargeWeights:
    """Past the float range a term (x+n)^k of the naive square, a Lambert term
    (l - xi)^(k-1) or (k-1)! overflows: a typed error, never a NaN, and no numpy
    RuntimeWarning on the way (an error here). At (1, 2) mod 5 and TAU, naive F
    and F_tilde read nan+nanj from k = 110, the Lipschitz values from k = 150,
    and k >= 171 raised a bare OverflowError."""

    @staticmethod
    def calls(k, mode, R):
        trunc = LatticeTruncation(R) if mode == "naive" else None
        q = EisensteinQuery(a=1, b=2, N=5, k=k, tau=TAU, mode=mode, trunc=trunc)
        label = polylog.TorsionLabel(a=1, b=2, N=5, D=2)
        return (("F", lambda: F(q)), ("F_tilde", lambda: F_tilde(q, 2)),
                ("specialize", lambda: polylog.specialize_eisenstein(label, TAU, k - 1, mode,
                                                                     trunc)))

    @pytest.mark.parametrize("mode", ["naive", "lipschitz"])
    def test_finite_at_weight_100(self, mode):
        values = [call() for _, call in self.calls(100, mode, 500)]
        assert all(np.isfinite(v) for v in values)
        assert abs(values[0] / F(EisensteinQuery(1, 2, 5, 100, TAU)) - 1) < 1e-12

    @pytest.mark.parametrize("mode, k, R", [
        ("naive", 110, 500), ("naive", 150, 500), ("lipschitz", 150, 500),
        ("lipschitz", 171, 500), ("lipschitz", 200, 500),
        ("naive", 172, 1)])  # the sums finite at R = 1, (k-1)! not
    def test_overflow_is_a_typed_error(self, mode, k, R):
        for name, call in self.calls(k, mode, R):
            with pytest.raises(NonFiniteError) as info:
                call()
            assert str(info.value) == f"weight {k} overflows the float range in mode {mode!r}", name
