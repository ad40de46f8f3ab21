"""Independent reference implementations used by the test suite.

Everything here goes through mpmath (arbitrary precision, external codebase)
or through raw numpy lattice sums; nothing imports from epolylog, except
s_columns_ref, an earlier form of the s_k kernel that the bit-level tests keep
on the package's theta engine. Frozen constants in the test files were
generated with these at dps >= 30.
"""
import math
from fractions import Fraction

import numpy as np
from mpmath import mp, mpc, jtheta, pi as mppi, exp as mpexp, sin as mpsin

mp.dps = 30


def _q(tau):
    return mpexp(1j * mppi * mpc(tau))


def theta_ref(z, tau):
    """Normalized odd theta: jtheta_1(pi z, q) / (pi jtheta_1'(0, q)), q = e^{i pi tau}.

    The extra pi makes d/dz theta(0) = 1 (jtheta derivatives are in u = pi z).
    """
    q = _q(tau)
    return jtheta(1, mppi * mpc(z), q) / (mppi * jtheta(1, 0, q, 1))


def theta_logderiv_ref(z, tau):
    q = _q(tau)
    u = mppi * mpc(z)
    return mppi * jtheta(1, u, q, 1) / jtheta(1, u, q)


def eta1_ref(tau):
    """-(pi^2/3) jtheta_1'''(0)/jtheta_1'(0); theta(z) = z - (eta1/2) z^3 + O(z^5)."""
    q = _q(tau)
    return -(mppi**2 / 3) * jtheta(1, 0, q, 3) / jtheta(1, 0, q, 1)


def eta1_prime_ref(tau):
    """d(eta1)/dtau: mpmath's numerical derivative of eta1_ref at dps 30."""
    with mp.workdps(30):
        return mp.diff(eta1_ref, mpc(tau))


def eta1_lattice_ref(tau, terms=60):
    """eta1 as the weight-2 lattice sum in inner-then-outer order; the inner
    row over n has the closed form pi^2/sin^2(pi m tau), so only the outer
    geometrically convergent sum remains."""
    acc = mppi**2 / 3
    for m in range(1, terms + 1):
        acc += 2 * mppi**2 / mpsin(mppi * m * mpc(tau)) ** 2
    return acc


def zeta_ref(z, tau):
    return theta_logderiv_ref(z, tau) + eta1_ref(tau) * mpc(z)


def e4_e6_ref(tau):
    """Eisenstein series E4 and E6 from the theta constants at nome q = e^{i pi tau}:
    E4 = (th2^8 + th3^8 + th4^8)/2, E6 = (th2^4 + th3^4)(th3^4 + th4^4)(th4^4 - th2^4)/2."""
    q = _q(tau)
    t2, t3, t4 = (jtheta(j, 0, q) ** 4 for j in (2, 3, 4))
    return (t2**2 + t3**2 + t4**2) / 2, (t2 + t3) * (t3 + t4) * (t4 - t2) / 2


def wp_ref(z, tau):
    """-(log theta)'' - eta1 via jtheta derivatives."""
    q = _q(tau)
    u = mppi * mpc(z)
    t0 = jtheta(1, u, q)
    t1 = jtheta(1, u, q, 1)
    t2 = jtheta(1, u, q, 2)
    return -(mppi**2) * (t2 / t0 - (t1 / t0) ** 2) - eta1_ref(tau)


def wpprime_ref(z, tau):
    """-(log theta)''' via jtheta derivatives."""
    q = _q(tau)
    u = mppi * mpc(z)
    t0 = jtheta(1, u, q)
    t1 = jtheta(1, u, q, 1)
    t2 = jtheta(1, u, q, 2)
    t3 = jtheta(1, u, q, 3)
    return -(mppi**3) * (t3 / t0 - 3 * t1 * t2 / t0**2 + 2 * (t1 / t0) ** 3)


def J_ref(z, w, tau):
    return theta_ref(mpc(z) + mpc(w), tau) / (theta_ref(z, tau) * theta_ref(w, tau))


def wp_brute(z, tau, R=150):
    """Plain lattice sum 1/z^2 + sum' [1/(z-w)^2 - 1/w^2] over the box |m|,|n| <= R.

    Symmetric box makes the odd 2z/w^3 terms cancel in pairs, leaving an
    O(1/R^2) tail; good to ~1e-3, no theta functions involved.
    """
    m, n = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
    w = m * complex(tau) + n
    mask = (m != 0) | (n != 0)
    w = w[mask]
    return 1.0 / complex(z) ** 2 + np.sum(1.0 / (complex(z) - w) ** 2 - 1.0 / w**2)


def F_brute(a, b, N, k, tau, R=400):
    """Box-truncated level-N weight-k sum, k >= 3 only (absolute convergence).

    (-1)^{k+1} (k-1)! sum'_{m,n} zeta_N^{mb-na} / (m tau + n)^k, one-shot
    numpy meshgrid; structured independently of the package evaluators.
    """
    if k < 3:
        raise ValueError("absolute convergence needs k >= 3")
    m, n = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1), indexing="ij")
    mask = (m != 0) | (n != 0)
    m, n = m[mask], n[mask]
    char = np.exp(2j * np.pi * ((m * b - n * a) % N) / N)
    den = (m * complex(tau) + n) ** k
    sign = 1.0 if k % 2 == 1 else -1.0
    return sign * float(math.factorial(k - 1)) * np.sum(char / den)


def F_rows(a, b, N, k, tau, M, R):
    """Level-N weight-k series summed in the eisenstein order with separate
    radii: rows |m| <= M, each row n = -R..R, origin excluded,

      (-1)^(k+1) (k-1)! sum_m zeta_N^(mb) sum_n zeta_N^(-na) / (m tau + n)^k.

    With a != 0 mod N a row's tail falls like 1/R, and with the rows' own
    exponential decay in m a few rows suffice, so this converges to the
    row-by-row value at weight 1 as well."""
    n = np.arange(-R, R + 1)
    char_n = np.exp(-2j * np.pi * ((n * a) % N) / N)
    total = 0.0 + 0.0j
    for m in range(-M, M + 1):
        keep = (m != 0) | (n != 0)
        row = np.sum(char_n[keep] / (m * complex(tau) + n[keep]) ** k)
        total += np.exp(2j * np.pi * ((m * b) % N) / N) * row
    return (-1) ** (k + 1) * math.factorial(k - 1) * total


def _row_terms(xi, k, y):
    """The number of terms l of sum_l (l - xi)^(k-1) e^(-y (l - xi)) down to
    e^-60 of its largest term, past which they only fall."""
    def log_term(f):
        return (k - 1) * math.log(f) - y * f

    top = log_term(max(1.0 - xi, (k - 1) / y))
    l = max(1, math.ceil((k - 1) / y + xi))
    while log_term(l - xi) > top - 60.0:
        l += 1
    return l


def F_rows_mp(a, b, N, k, tau):
    """Level-N weight-k series at dps 30, one row m at a time,

      (-1)^(k+1) (k-1)! sum_m zeta_N^(mb) sum_n zeta_N^(-na) / (m tau + n)^k:

    row 0 (origin left out) is the polylogarithm pair Li_k(u) + (-1)^k
    Li_k(1/u), u = e^(-2 pi i a/N); row m > 0 is the exponential series
    (-2 pi i)^k/(k-1)! sum_(l >= 1) (l - xi)^(k-1) e^(2 pi i (l - xi) m tau),
    xi = -a/N mod 1, and row -m that series at xi = a/N mod 1 times (-1)^k.
    The rows run until they fall below e^-50 of row 1, the terms of a row
    until e^-60 of its largest; a != 0 mod N at k = 1."""
    with mp.workdps(30):
        t = mpc(tau)
        u = mpexp(-2j * mppi * a / N)
        total = mp.polylog(k, u) + (-1) ** k * mp.polylog(k, 1 / u)
        roots = [mpexp(2j * mppi * r / N) for r in range(N)]
        scale = (-2j * mppi) ** k / mp.factorial(k - 1)
        for sign in (1, -1):
            xi = mp.mpf((-sign * a) % N) / N
            rows = int(50.0 / (2.0 * math.pi * float(t.imag) * float(1 - xi))) + 2
            for m in range(1, rows + 1):
                x = m * t
                step = mpexp(2j * mppi * x)
                term, row = mpexp(2j * mppi * (1 - xi) * x), 0
                for l in range(1, _row_terms(float(xi), k, 2.0 * math.pi * float(x.imag)) + 1):
                    row += (l - xi) ** (k - 1) * term
                    term *= step
                total += roots[sign * m * b % N] * (-1) ** (k * (sign < 0)) * scale * row
        return complex((-1) ** (k + 1) * mp.factorial(k - 1) * total)


def F_rows_fine(a, b, N, k, tau, bits=200, cut=1e-20):
    """F_rows_mp's rows without its cuts, for k >= 3 near the real axis, where the
    rows reach about 1e12 and the value cancels far below them. Row m's series over l
    is summed in closed form: with c = 1 - xi, w = e^(2 pi i m tau) and
    P(j) = (j + c)^(k-1), Newton's series of P and sum_j binom(j, i) w^j =
    w^i / (1 - w)^(i+1) give

      sum_(l >= 1) (l - xi)^(k-1) e^(2 pi i (l - xi) m tau)
          = e^(2 pi i c m tau) sum_(i < k) Delta^i P(0) u^i / (1 - w),  u = w/(1 - w).

    Each Delta^i P(0) is i! times a divided difference of x^(k-1) on x > 0, so >= 0,
    and the same sum at |w| and |e^(2 pi i c m tau)| bounds the row's terms in
    modulus; every later row's bound is at most e^(-2 pi c Im tau) times it. The rows
    run, in complex fixed point on Python ints at 2^-bits, until the bound on all the
    rows after them, in F's units, is below cut; row 0 is F_rows_mp's polylogarithm
    pair. a != 0 mod N needs no care: the closed form has no pole at |w| < 1."""
    one = 1 << bits

    def fixed(v):
        return int(mp.nint(v.real * one)), int(mp.nint(v.imag * one))

    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1]) >> bits, (x[0] * y[1] + x[1] * y[0]) >> bits

    with mp.workdps(bits * 3 // 10 + 10):
        t, y = mpc(tau), float(mpc(tau).imag)
        u0 = mpexp(-2j * mppi * a / N)
        total = mp.polylog(k, u0) + (-1) ** k * mp.polylog(k, 1 / u0)
        roots = [fixed(mpexp(2j * mppi * r / N)) for r in range(N)]
        rows = [0, 0]
        for sign in (1, -1):
            c = 1 - Fraction((-sign * a) % N, N)
            d = [sum((-1) ** (i - j) * math.comb(i, j) * (j + c) ** (k - 1) for j in range(i + 1))
                 for i in range(k)]
            d_fixed, d_float = [x.numerator * one // x.denominator for x in d], list(map(float, d))
            w1 = fixed(mpexp(2j * mppi * t))
            e1 = fixed(mpexp(2j * mppi * t * c.numerator / c.denominator))
            rho = math.exp(-2.0 * math.pi * float(c) * y)
            w, e, m = (one, 0), (one, 0), 0
            while True:
                m += 1
                w, e = mul(w, w1), mul(e, e1)
                z = (one - w[0], -w[1])  # 1 - w and its inverse
                n2 = z[0] * z[0] + z[1] * z[1]
                inv = (z[0] * one * one // n2, -z[1] * one * one // n2)
                u, acc = mul(w, inv), (d_fixed[-1], 0)
                for di in reversed(d_fixed[:-1]):
                    acc = mul(acc, u)
                    acc = (acc[0] + di, acc[1])
                row = mul(mul(acc, inv), mul(e, roots[sign * m * b % N]))
                sgn = -1 if sign < 0 and k % 2 else 1
                rows = [rows[0] + sgn * row[0], rows[1] + sgn * row[1]]
                r = math.exp(-2.0 * math.pi * m * y)
                bound = math.exp(-2.0 * math.pi * float(c) * m * y) * sum(
                    di * r**i / (1.0 - r) ** (i + 1) for i, di in enumerate(d_float))
                if (2.0 * math.pi) ** k * bound * rho / (1.0 - rho) < cut:
                    break
        total += (-2j * mppi) ** k / mp.factorial(k - 1) * mpc(rows[0], rows[1]) / one
        return complex((-1) ** (k + 1) * mp.factorial(k - 1) * total)


def s_coeffs_ref(z, tau, D, n, nodes=64):
    """Taylor coefficients s_0..s_n of w -> D^2 J(z, w) - D J(Dz, w/D), by the
    trapezoid rule on |w| = r with J from jtheta. The poles nearest to w = 0
    lie on the lattice, so r is half the shortest lattice vector and the
    aliasing error is about 2^-nodes relative."""
    tau = mpc(tau)
    q = _q(tau)
    norm = mppi * jtheta(1, 0, q, 1)

    def theta(x):
        return jtheta(1, mppi * x, q) / norm

    def J(x, w):
        return theta(x + w) / (theta(x) * theta(w))

    r = min(abs(m * tau + k) for m in range(4)
            for k in range(-int(mp.nint(m * tau.real)) - 1, -int(mp.nint(m * tau.real)) + 2)
            if m or k) / 2
    z = mpc(z)
    acc = [mpc(0)] * (n + 1)
    for j in range(nodes):
        w = r * mpexp(2j * mppi * j / nodes)
        f = D * D * J(z, w) - D * J(D * z, w / D)
        for k in range(n + 1):
            acc[k] += f / w**k
    return [complex(c / nodes) for c in acc]


def _kahan(terms):
    s = c = 0.0 + 0.0j
    for t in terms:
        y = complex(t) - c
        tmp = s + y
        c = (tmp - s) - y
        s = tmp
    return s


def _power(z, s):
    # z**s, s >= 1, by binary powering from z itself (a first product by 1
    # flips signed zeros)
    if s == 1:
        return z
    half = _power(z * z, s >> 1)
    return half * z if s & 1 else half


def naive_sum_rows(a, b, N, D, c, d, tau, s, R, ordering):
    """The naive lattice sum of one coset (c, d), one row m at a time:

      sum_{|m|,|n| <= R} zeta_N^((Dm+c) b - (Dn+d) a) / ((m + c/D) tau + n + d/D)^s,

    without the origin when c = d = 0. "eisenstein" computes each row m on
    its own, operation for operation as the package's blocked kernel
    computes its grid rows: the columns ordered by class of n mod N, class
    0 (n = 0), then n = r mod N, r = 1..min(N, R), for +n and then for -n;
    powers by binary powering with array products from the base itself; one
    reciprocal of the powers (the origin's power set to 1 first); the class
    sums by np.add.reduceat on the 1-d row (which rounds as the 2-d
    reduction does, row by row), the origin's class sum then set to 0;
    their dot with the class characters by einsum, in class order. The row
    characters multiply the stacked row values as one array product (a
    scalar complex product can round differently), and math.fsum sums the
    real and the imaginary parts exactly rounded. Row -m is evaluated from
    its own base point, not mirrored from row m, so the two agree exactly
    only if the kernel's mirror is exact. "box" Kahan-sums the full rows
    m = -R..R, each by one np.sum over n = -R..R: the same terms in another
    rounding order, an independent reference at absolutely convergent
    weights for both kernels (the naive one takes a list of cosets, the
    Lipschitz one sums the cosets of D; summed here one call per coset)."""
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    skip_origin = c == 0 and d == 0

    def base(m):
        return (m + c / D) * tau + d / D

    if ordering == "box":
        n = np.arange(-R, R + 1)
        char_n = roots[(-(D * n + d) * a) % N]

        def row(m):
            den = _power(base(m) + n, s)
            origin = skip_origin and m == 0
            if origin:
                den[R] = 1.0
            terms = char_n * np.reciprocal(den)
            if origin:
                terms[R] = 0.0
            return roots[((D * m + c) * b) % N] * complex(np.sum(terms))

        return _kahan(row(m) for m in range(-R, R + 1))

    # the columns by class: n = 0, then n = r mod N, r = 1..min(N, R), for +n then -n
    classes = [np.arange(r, R + 1, N) for r in range(1, min(N, R) + 1)]
    n = np.concatenate([[0]] + classes + [-k for k in classes])
    starts = np.cumsum([0, 1] + [len(k) for k in classes] * 2)[:-1]
    r = np.arange(len(classes) + 1)
    r = np.concatenate([r, -r[1:]])
    chars = roots[(-(D * r + d) * a) % N]

    def row(m):
        origin = skip_origin and m == 0
        den = _power(base(m) + n, s)
        if origin:
            den[0] = 1.0
        sums = np.add.reduceat(np.reciprocal(den), starts)
        if origin:
            sums[0] = 0.0
        return np.einsum("k,k->", chars, sums)

    m = np.arange(-R, R + 1)
    rows = np.array([row(k) for k in m.tolist()]) * roots[((D * m + c) * b) % N]
    return complex(math.fsum(rows.real.tolist()), math.fsum(rows.imag.tolist()))


def stencil_loop(f, at, step):
    """f' at `at` from f called node by node: central differences at step,
    step/2 and step/4, Richardson-extrapolated twice."""
    table = [(f(at + h) - f(at - h)) / (2.0 * h) for h in (step, step / 2.0, step / 4.0)]
    for fac in (4.0, 16.0):
        table = [(fac * b - a) / (fac - 1.0) for a, b in zip(table, table[1:])]
    return table[0]


def abs_connection_loop(n, eta1, d_eta1):
    """Omega_z and Omega_tau of the level-n absolute connection, entry by entry
    in Python complex arithmetic from eta1 and eta1' at one tau, on the basis
    w^[i,j], i + j <= n, ordered by total degree then i."""
    two_pi_i = 2j * math.pi
    pos = {(i, d - i): k for k, (i, d) in
           enumerate((i, d) for d in range(n + 1) for i in range(d + 1))}
    omega_z = np.zeros((len(pos), len(pos)), dtype=complex)
    omega_tau = np.zeros_like(omega_z)
    for (i, j), col in pos.items():
        if i + j < n:
            omega_z[pos[i + 1, j], col] = -(i + 1) * eta1
            omega_z[pos[i, j + 1], col] = j + 1
        omega_tau[col, col] = (j - i) * (eta1 / two_pi_i)
        if i >= 1:
            omega_tau[pos[i - 1, j + 1], col] = (j + 1) / two_pi_i
        if j >= 1:
            omega_tau[pos[i + 1, j - 1], col] = (i + 1) * (d_eta1 - eta1**2 / two_pi_i)
    return omega_z, omega_tau


def exp_taylor_ref(x, m):
    """Rows x^j / j!, j = 0..m, as np.cumprod of the stacked rows 1 and x / j."""
    return np.cumprod(np.vstack([np.ones(len(x)), x / np.arange(1, m + 1)[:, None]]), axis=0)


_LAG = np.subtract.outer(np.arange(18), np.arange(18))


def s_columns_ref(z, t, D, n):
    """The s_k, k = 0..n, of the degree-D kernel variant along the last axis: the
    earlier kronecker._s_columns without its argument checks (one reduction of
    the concatenated z and Dz columns, the shift matrix by np.where), on the
    package's theta engine."""
    from epolylog.weierstrass import PoleProximityError, _cell, _dist, _theta_taylor, c_einsum

    shape, z = np.shape(z), np.ravel(np.asarray(z, dtype=complex))
    t, P = (t if isinstance(t, complex) else np.tile(np.ravel(t), 2)), z.size
    # columns x = z, Dz; T holds the Taylor coefficients at x0 and at 0, per column
    x0, _, c = _cell(np.concatenate([z, D * z]), t)
    if _dist(x0) < 1e-8:
        raise PoleProximityError("z or Dz within 1e-8 of the lattice")
    T = _theta_taylor(np.array([x0, np.zeros(2 * P)]), t, n + 2)
    lag = _LAG[: n + 2, : n + 2]  # the Toeplitz matrix of the shift series
    shift = np.where(lag[..., None] >= 0, exp_taylor_ref(-2j * np.pi * c, n + 1)[lag], 0)
    g = c_einsum("jic,ic->jc", shift, T[: n + 2, 0] / T[0, 0])
    for j in range(1, n + 2):  # divide by theta(w)/w, the series T[1:, 1]
        g[j] -= c_einsum("ic,ic->c", T[j + 1 : 1 : -1, 1], g[:j])
    k = np.arange(n + 1)[:, None]
    s = D * D * g[1:, :P] - float(D) ** (1 - k) * g[1:, P:]
    return s.T.reshape(shape + (n + 1,))
