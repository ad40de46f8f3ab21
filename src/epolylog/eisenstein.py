"""Level-N Eisenstein series of weight k with character parameters (a, b):

  F_(a,b)^(k)(tau) = (-1)^(k+1) (k-1)! * sum'_{(m,n)} zeta_N^(mb - na) / (m tau + n)^k

(primed sum: origin excluded). Two evaluators: "naive" sums the terms of the
square |m|, |n| <= R of a LatticeTruncation, exactly rounded (_naive_sums),
and "lipschitz" row summation, which converts each row m to an exponential sum

  T(x, xi, s) = sum_n e^(2 pi i xi n)/(x+n)^s
             = (-2 pi i)^s/(s-1)! sum_{l>=1} (l-xi)^(s-1) e^(2 pi i (l-xi) x)

for Im x > 0 (Im x < 0 by the reflection T(x,xi,s) = (-1)^s T(-x, -xi mod 1, s)).
The real row m = 0 (origin left out in F) is summed exactly by one Hurwitz
zeta call at rational arguments, or at weight 1 in closed form. The row
decomposition realizes the eisenstein summation order, so it is also valid
at the conditionally convergent weights k <= 2. At k = 1 it needs a != 0
mod N: with a = 0 row m tends to -+pi i zeta_N^(+-mb) and the rows do not
sum. The naive square truncation at k = 1 also needs b != 0 mod N, without
which it converges to another value; outside this domain F raises
ConvergenceModeError.

coset_sum evaluates the shifted, character-twisted sums of the same kind
(Eisenstein-Kronecker series, Bannai-Kobayashi arXiv:math/0610163) over the
nonzero cosets of D^-1 Z^2 / Z^2, which the torsion specialization in polylog
needs. Every sum goes through one dispatch, _lattice_sums, the only place
that picks a kernel, and each kernel sums every label over every coset of a
call: _naive_sums from class sums of n mod N that the labels share, one
math.fsum per label; _lipschitz_sums with one _T_batch call on the rows of
both half-planes. F and both labels of F_tilde are the coset c = d = 0, D = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum without its Python wrapper
from scipy.special import zeta as hurwitz_zeta

from .numerics import LatticeTruncation
from .weierstrass import _tau_of


class ConvergenceModeError(ValueError):
    """Requested summation mode cannot converge at this weight."""


class DegenerateLabelError(ValueError):
    """Character label congruent to (0, 0) mod N."""


@dataclass(frozen=True)
class EisensteinQuery:
    """Weight-k level-N query with character (a, b) != (0,0) mod N."""

    a: int
    b: int
    N: int
    k: int
    tau: complex
    mode: str = "lipschitz"
    trunc: LatticeTruncation | None = None

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.a % self.N == 0 and self.b % self.N == 0:
            raise DegenerateLabelError(f"(a, b) = {(self.a, self.b)} is (0,0) mod {self.N}")
        if self.mode not in ("naive", "lipschitz"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _tau_of(self.tau)


def _roots_of_unity(N: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(N) / N)


def _row_real(xs, p: int, q: int, s: int) -> list:
    """sum_n e^{2 pi i xi n}/(x+n)^s for each real 0 <= x < 1 in xs and
    xi = p/q in lowest terms, q >= 1, leaving out the origin n = 0 at x = 0.

    Split n mod q: the terms n >= 0 and n < 0 are Hurwitz zeta values at the
    2q arguments (r+x)/q and (r+1-x)/q, r = 0..q-1, with the argument 0 at
    x = 0 replaced by 1 (which drops the origin). The arguments of every x go
    through one Hurwitz zeta call; each x weights its own 2q values. Exact
    up to roundoff. s = 1 converges only at x = 0 with xi != 0 mod 1,
    where the row is -log(1-u) + log(1-conj u) at u = e^{2 pi i xi}.
    """
    if not all(0.0 <= x < 1.0 for x in xs):
        raise ValueError(f"need 0 <= x < 1, got {xs}")
    p %= q
    if s == 1:
        if any(xs):
            raise ConvergenceModeError("real row needs absolute convergence (s >= 2)")
        u = cmath.exp(2j * cmath.pi * p / q)
        return [-cmath.log(1.0 - u) + cmath.log(1.0 - u.conjugate())] * len(xs)
    if not xs:
        return []
    r = np.arange(q)
    args = np.concatenate([a for x in xs for a in ((r + x) / q, (r + 1.0 - x) / q)])
    args[[2 * q * i for i, x in enumerate(xs) if not x]] = 1.0
    w = np.exp(2j * np.pi * p * np.concatenate([r, -(r + 1)]) / q)
    w[q:] *= (-1) ** s
    z = hurwitz_zeta(s, args)
    return [complex(w @ z[i:i + 2 * q]) / q**s for i in range(0, len(z), 2 * q)]


def _T_batch(x: np.ndarray, xi: np.ndarray, col: np.ndarray, s: int) -> np.ndarray:
    """T(x, xi[col], s) for an array of x with Im x > 0: xi holds one shift
    in [0, 1) per column (not 0 when s = 1), col the column of each x. The
    weights (l - xi)^(s-1) are one power per column, taken by index."""
    im_min = float(x.imag.min())
    if im_min <= 0.0:
        raise ValueError("batch rows need Im x > 0")
    # terms u^(s-1) e^(-y u), u = l - xi, shrink by e^(-y/2) a step past 2(s-1)/y; with
    # A = 48 - log(1 - e^(-y/2)) those after L are e^-48 below the peak once r = u y/(s-1)
    # has r - log r >= 1 + a, a = A/(s-1), met via log r <= log c + r/c - 1 for c > 1
    y = 2.0 * math.pi * im_min
    A = 48.0 - math.log1p(-math.exp(-0.5 * y))
    a = A / max(s - 1, 1)
    c = 1.0 + a + math.log1p(a)
    u = (s - 1) * (a + math.log(c)) / ((1.0 - 1.0 / c) * y) if s > 1 else A / y
    L = max(int(math.ceil(48.0 / y)) + s + 6, math.ceil(u - 1.0 + max(xi)))
    # e^(2 pi i (l - xi) x) = e^(2 pi i (1 - xi) x) u^(l-1), u = e^(2 pi i x):
    # two exps per row and a running product along the frequencies
    phase = np.repeat(np.exp(2j * np.pi * x)[None], L, axis=0)
    phase[0] = np.exp(2j * np.pi * (1.0 - xi)[col] * x)
    np.cumprod(phase, axis=0, out=phase)
    # summed in term order, each row alone, and off the (multithreaded) BLAS
    weights = ((np.arange(1, L + 1)[:, None] - xi) ** (s - 1)).take(col, axis=1)
    return c_einsum("lr,lr->r", weights, phase) * (-2j * np.pi) ** s / math.factorial(s - 1)


def _lipschitz_sums(labels, N: int, D: int, cosets, t: complex, s: int) -> list:
    """The lattice sum of coset_sum over the given cosets (c, d), one sum per
    character label (a, b) in labels, by rows: row m of coset (c, d) carries
    the character zeta_N^((Dm+c)b - da), and its sum over n is T(x, -Da/N, s)
    at x = (m + c/D) tau + d/D. Row 0 is real when c = 0: one _row_real call
    per label at the d/D of those cosets, without the origin when d = 0 (so F
    is the case D = 1, cosets [(0, 0)]). Every other row of every label and
    coset goes through one _T_batch call, whose term count the smallest Im x
    of all of them sets; the rows with Im x < 0 are reflected first,
    T(x, xi, s) = (-1)^s T(-x, -xi mod 1, s), so each label has two columns
    of xi. s = 1 needs Da != 0 mod N."""
    roots = _roots_of_unity(N)
    ds = [d for c, d in cosets if c == 0]
    row0s, sizes, xis, xs, chars = [], [], [], [], []
    for a, b in labels:
        g = math.gcd(D * a, N)  # xi = -Da/N = p/q in lowest terms
        p, q = -D * a // g, N // g
        xis += [p % q / q, -p % q / q]
        row0s.append(sum(roots[(-d * a) % N] * v
                         for d, v in zip(ds, _row_real([d / D for d in ds], p, q, s))))
        # rows m > 0 decay like e^(-2 pi m Im(tau) (1 - xi mod 1)), by the slowest
        # frequency of T(x, xi, s); rows m < 0 by that of T(-x, -xi, s)
        up, down = (int(math.ceil(45.0 / (2.0 * math.pi * t.imag * ((N - e) / N)))) + 4
                    for e in ((-D * a) % N, (D * a) % N))
        m = np.arange(-down, up + 1)
        for c, d in cosets:
            mc = m if c else m[m != 0]
            xs.append((mc + c / D) * t + d / D)
            chars.append(roots[(D * b * mc + (c * b - d * a)) % N])
        sizes.append(sum(map(len, xs[-len(cosets):])))
    x, chars = np.concatenate(xs), np.concatenate(chars)
    col = np.arange(0, 2 * len(labels), 2).repeat(sizes)
    down = x.imag < 0
    np.negative(x, out=x, where=down)
    np.multiply(chars, (-1) ** s, out=chars, where=down)
    col += down
    rows = chars * _T_batch(x, np.array(xis), col, s)
    return [complex(row0 + rows[end - n:end].sum())
            for row0, n, end in zip(row0s, sizes, np.cumsum(sizes))]


# terms per block of denominators in the naive kernel (a row longer than this
# is a block of its own), which bounds its arrays whatever the truncation radius
_BLOCK = 1 << 13


def _power(z: np.ndarray, s: int) -> np.ndarray:
    """z**s, s >= 1, by binary powering from z itself (a first product by 1
    would flip signed zeros), so (-z)**s is (-1)**s z**s bit for bit, z != 0."""
    if s == 1:
        return z
    half = _power(z * z, s >> 1)
    return half * z if s & 1 else half


def _naive_sums(labels, N: int, D: int, cosets, t: complex, s: int,
                trunc: LatticeTruncation) -> list:
    """The lattice sum of coset_sum over the given cosets (c, d), one sum per
    character label (a, b) in labels: the terms |m|, |n| <= R of each coset,
    without the origin at c = d = 0 (F is D = 1, cosets [(0, 0)]). "box" sums
    the same terms alike; it only declares absolute convergence and is
    refused below weight 3.

    The column characters zeta_N^(-(Dn+d)a) depend only on n mod N, so the
    columns are ordered by class: n = 0, then n = r mod N, r = 1..min(N, R),
    for +n and then for -n. Rows run in blocks of at most _BLOCK denominators
    (memory: _BLOCK plus one value per label and row): one grid of powers
    (x_m + n)^s by _power, one reciprocal of it (the origin's power set to 1
    and its class sum to 0), each grid row reduced to its class sums by
    np.add.reduceat, and one C einsum of every label's class characters with
    them. At c = d = 0, x_(-m) = -x_m exactly, and complex addition, _power
    and np.reciprocal are exactly odd under negation, so row -m takes row m's
    class sums with their +n and -n halves swapped and the sign (-1)^s. The
    row characters zeta_N^((Dm+c)b) are one array product, and each label's
    rows of all cosets one math.fsum of the real and of the imaginary parts:
    exactly rounded, so no order of the rows enters."""
    if trunc.ordering == "box" and s < 3:
        raise ConvergenceModeError(f"weight {s} is conditionally convergent; "
                                   "box ordering is not a sum")
    R = trunc.shell_radius
    roots = _roots_of_unity(N)
    classes = [np.arange(r, R + 1, N) for r in range(1, min(N, R) + 1)]
    n = np.concatenate([[0]] + classes + [-k for k in classes]).astype(complex)
    starts = np.cumsum([0, 1] + [len(k) for k in classes] * 2)[:-1]
    r = np.arange(len(classes) + 1)
    r = np.concatenate([r, -r[1:]])  # the signed class of each column segment
    swap = np.concatenate([[0], np.roll(np.arange(1, len(r)), len(classes))])  # class -r
    a, b = np.array(labels).T
    step = max(1, _BLOCK // len(n))
    rows = np.empty((len(labels), len(cosets), 2 * R + 1), dtype=complex)  # rows m = -R..R
    for j, (c, d) in enumerate(cosets):
        chars = roots[np.outer(-a, D * r + d) % N]
        paired = c == 0 and d == 0  # the origin is left out and row -m mirrors row m
        lo = R if paired else 0  # row m sits at R + m
        xs = (np.arange(lo - R, R + 1) + c / D) * t + d / D
        for i in range(0, len(xs), step):
            origin = paired and not i
            grid = _power(xs[i:i + step, None] + n, s)
            if origin:
                grid[0, 0] = 1.0
            sums = np.add.reduceat(np.reciprocal(grid), starts, axis=1)
            if origin:
                sums[0, 0] = 0.0
            at, to = lo + i, lo + i + len(grid)
            if paired:  # rows -m sit at 2R - (R + m); row 0, its own mirror, is written after
                rows[:, j, 2 * R + 1 - to:2 * R + 1 - at] = c_einsum(
                    "jk,mk->jm", chars, sums.take(swap, axis=1))[:, ::-1]
            rows[:, j, at:to] = c_einsum("jk,mk->jm", chars, sums)
    m, c = np.arange(-R, R + 1), np.array(cosets)
    row_chars = roots[np.multiply.outer(b, D * m + c[:, :1]) % N]
    mirrored = (m < 0) & (c == 0).all(axis=1)[:, None] & bool(s % 2)  # the sign (-1)^s
    rows = (rows * np.where(mirrored, -row_chars, row_chars)).reshape(len(labels), -1)
    return [complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist())) for v in rows]


def _lattice_sums(labels, N: int, D: int, cosets, t: complex, s: int, mode: str,
                  trunc: LatticeTruncation | None) -> list:
    """The one dispatch of every lattice sum here: one sum per character
    label (a, b) in labels, over the cosets (c, d) mod D (no coset sums to
    0), by the kernel of mode, _lipschitz_sums or _naive_sums, each called
    once with every label and every coset."""
    if mode not in ("naive", "lipschitz"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "naive" and trunc is None:
        raise ValueError("naive mode requires an explicit LatticeTruncation")
    if not cosets:
        return [0j] * len(labels)
    if mode == "lipschitz":
        return _lipschitz_sums(labels, N, D, cosets, t, s)
    return _naive_sums(labels, N, D, cosets, t, s, trunc)


def F(query: EisensteinQuery) -> complex:
    """Evaluate the weight-k level-N Eisenstein series for the query.

    mode "naive" requires trunc and sums the terms of its square |m|, |n| <= R,
    exactly rounded; box is refused below weight 3 (ConvergenceModeError).
    mode "lipschitz" sums rows in closed form and works for all k >= 1.
    Weight 1 raises ConvergenceModeError when a = 0 mod N, and in mode
    "naive" also when b = 0 mod N.
    """
    t = _tau_of(query.tau)
    _check_weight_one([(query.a, query.b)], query.N, query.k, query.mode)
    total, = _lattice_sums([(query.a, query.b)], query.N, 1, [(0, 0)], t, query.k, query.mode,
                           query.trunc)
    return (-1) ** (query.k + 1) * math.factorial(query.k - 1) * total


def _check_weight_one(labels, N: int, k: int, mode: str) -> None:
    # the weight-one domain of the module docstring, checked before any sum
    for a, b in labels:
        if k == 1 and (a % N == 0 or (mode == "naive" and b % N == 0)):
            raise ConvergenceModeError(
                f"weight 1 at (a, b) = {(a, b)} mod {N} does not converge in mode {mode!r}")


def F_tilde(query: EisensteinQuery, D: int, allow_degenerate: bool = False) -> complex:
    """Smoothed series D^2 F_(a,b) - D^(2-k) F_(Da,Db) at weight k.

    When (Da, Db) = (0,0) mod N the second label degenerates; by default this
    raises DegenerateLabelError. allow_degenerate extends F to the zero label
    by the trivial-character sum (zero at odd weight), under which the
    torsion-specialization identity continues to hold. That sum is the
    Lipschitz row sum in either mode: with no character the square
    truncation's tail does not cancel, so it falls off like R^(2-k) only and
    at k = 2 converges to another limit (at R = 500, tau = 0.21 + 1.1i it is
    0.93 relative away at k = 2 and 4.6e-7 at k = 4). Both labels must lie
    in F's weight-one domain.
    """
    if D < 1:
        raise ValueError(f"D must be >= 1, got {D}")
    t = _tau_of(query.tau)
    labels = [(query.a, query.b), ((D * query.a) % query.N, (D * query.b) % query.N)]
    degenerate = labels[1] == (0, 0)
    if degenerate and not allow_degenerate:
        raise DegenerateLabelError(
            f"(Da, Db) = {(D * query.a, D * query.b)} is (0,0) mod {query.N}")
    # this also keeps the trivial-character extension at k >= 2
    _check_weight_one(labels, query.N, query.k, query.mode)
    split = degenerate and query.mode == "naive"
    sums = _lattice_sums(labels[:1] if split else labels, query.N, 1, [(0, 0)], t, query.k,
                         query.mode, query.trunc)
    if split:
        sums += _lattice_sums(labels[1:], query.N, 1, [(0, 0)], t, query.k, "lipschitz", None)
    first, second = ((-1) ** (query.k + 1) * math.factorial(query.k - 1) * v for v in sums)
    return D**2 * first - D ** (2 - query.k) * second


def coset_sum(a: int, b: int, N: int, D: int, tau, s: int, mode: str = "lipschitz",
              trunc: LatticeTruncation | None = None) -> complex:
    """Sum over the cosets (c, d) mod D, (c, d) != (0, 0), of the shifted
    twisted lattice sums

      sum_{(m,n)} zeta_N^((Dm+c) b - (Dn+d) a) / ((m + c/D) tau + n + d/D)^s,

    the torsion specialization of the polylogarithm before its normalization.
    mode "lipschitz" needs s >= 2; mode "naive" requires trunc, and a box
    trunc, which declares absolute convergence, needs s >= 3.
    """
    t = _tau_of(tau)
    if mode == "lipschitz" and s < 2:
        raise ConvergenceModeError(
            "weight-1 inner rows are principal values; use the naive eisenstein ordering")
    cosets = [(c, d) for c in range(D) for d in range(D) if c or d]
    total, = _lattice_sums([(a, b)], N, D, cosets, t, s, mode, trunc)
    return total


def eisenstein_sum_k2(a: int, b: int, N: int, tau, trunc: LatticeTruncation) -> complex:
    """Weight-2 series as the naive sum of the terms of the square |m|, |n| <= R
    of trunc, exactly rounded; weight 2 converges only conditionally, so box
    is refused below weight 3 (ConvergenceModeError)."""
    return F(EisensteinQuery(a=a, b=b, N=N, k=2, tau=tau, mode="naive", trunc=trunc))
