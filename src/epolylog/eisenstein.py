"""Level-N Eisenstein series of weight k with character parameters (a, b):

  F_(a,b)^(k)(tau) = (-1)^(k+1) (k-1)! * sum'_{(m,n)} zeta_N^(mb - na) / (m tau + n)^k

(primed sum: origin excluded). Two evaluators: "naive" sums the terms of the
square |m|, |n| <= R of a LatticeTruncation, exactly rounded (_naive_sums),
and "lipschitz" sums by rows (_lipschitz_sums), row m being the exponential sum
T(x, xi, s) = sum_n e^(2 pi i xi n)/(x+n)^s of weierstrass._lambert for Im x > 0
(Im x < 0 by the reflection T(x,xi,s) = (-1)^s T(-x, -xi mod 1, s)). The rows
of a half-plane carry a geometric character, so at each frequency they sum in
closed form (a Lambert series, the engine that also gives E2, E4 and E6), and
the real row m = 0 is a Bernoulli polynomial at a rational point. The rows
realize the eisenstein summation order, so this also holds at the conditionally
convergent weights k <= 2. At k = 1 it needs a != 0 mod N: with a = 0 row m
tends to -+pi i zeta_N^(+-mb) and the rows do not sum. The naive square
truncation at k = 1 also needs b != 0 mod N, without which it converges to
another value; outside this domain F raises ConvergenceModeError.

The torsion specialization in polylog sums the shifted, character-twisted
sums of the same kind (Eisenstein-Kronecker series, Bannai-Kobayashi
arXiv:math/0610163) over the nonzero cosets of D^-1 Z^2 / Z^2. Every sum goes
through one dispatch, _lattice_sums, which alone holds the rules of where a
sum converges, and each kernel sums all labels and cosets of a call in one
pass. F and both labels of F_tilde are the coset c = d = 0, D = 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy._core.multiarray import c_einsum  # np.einsum without its Python wrapper

from .numerics import LatticeTruncation, NonFiniteError, _integer
from .weierstrass import _lambert, _tau_of


class ConvergenceModeError(ValueError):
    """Requested summation mode cannot converge at this weight."""


class DegenerateLabelError(ValueError):
    """Character label congruent to (0, 0) mod N."""


@dataclass(frozen=True)
class EisensteinQuery:
    """Weight-k level-N query with character (a, b) != (0,0) mod N: a, b, N and
    k integers (numpy integers too, stored as ints; not bools), N and k >= 1."""

    a: int
    b: int
    N: int
    k: int
    tau: complex
    mode: str = "lipschitz"
    trunc: LatticeTruncation | None = None

    def __post_init__(self) -> None:
        _check_label(self, "k")
        if self.mode not in ("naive", "lipschitz"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _tau_of(self.tau)


def _check_label(label, degree: str) -> None:
    """Check an EisensteinQuery or polylog.TorsionLabel: integers a, b, N >= 1, (a, b)
    != (0, 0) mod N, then degree (k or D) >= 1. It stores a numpy integer as its int,
    as the kernels' exact integer arithmetic takes Python ints."""
    a, b, N = _integer("a", label.a), _integer("b", label.b), _integer("N", label.N, 1)
    if a % N == 0 and b % N == 0:
        raise DegenerateLabelError(f"(a, b) = {(label.a, label.b)} is (0,0) mod {label.N}")
    d = getattr(label, degree)
    checked = a, b, N, _integer(degree, d, 1)
    if not type(label.a) is type(label.b) is type(label.N) is type(d) is int:
        for name, value in zip(("a", "b", "N", degree), checked):
            object.__setattr__(label, name, value)


def _finite(value: complex, k: int, mode: str) -> complex:
    # a weight-k sum or series of mode, refused where it left the float range
    if not cmath.isfinite(value):
        raise NonFiniteError(f"weight {k} overflows the float range in mode {mode!r}")
    return value


def _factorial(n: int) -> float:
    # n! as a float (the int's nearest, as in a product with a float), inf past 170!
    return float(math.factorial(n)) if n <= 170 else math.inf


@lru_cache(maxsize=None)
def _roots_of_unity(N: int) -> np.ndarray:
    roots = np.exp(2j * np.pi * np.arange(N) / N)
    roots.flags.writeable = False  # shared by every call at level N
    return roots


@lru_cache(maxsize=None)
def _bernoulli(s: int) -> tuple:
    """Integers c_0..c_s and M with M B_s(x) = sum_k c_k x^(s-k), B_s the
    Bernoulli polynomial (c_k = M binom(s, k) B_k, B_1 = -1/2)."""
    B = [Fraction(1)]
    for n in range(1, s + 1):
        B.append(-sum(math.comb(n + 1, k) * B[k] for k in range(n)) / (n + 1))
    M = math.lcm(*(v.denominator for v in B))
    return tuple(int(math.comb(s, k) * B[k] * M) for k in range(s + 1)), M


def _row_zero(a: int, N: int, D: int, ds, s: int) -> complex:
    """Row m = 0 of the cosets (0, d), d in ds: sum_n zeta_N^(-(Dn+d)a)/(n + d/D)^s,
    without the origin at d = 0. It does not depend on tau, so _real_row keeps it
    per label class: the key is (a mod N, N, D, tuple(ds), s) in ints, exact since
    only a mod N enters it, and a numpy integer neither wraps in int64 there nor
    keys the cache apart from its int."""
    N = int(N)
    return _real_row(int(a) % N, N, int(D), tuple(map(int, ds)), int(s))


@lru_cache(maxsize=None)
def _real_row(a: int, N: int, D: int, ds: tuple, s: int) -> complex:
    """_row_zero at 0 <= a < N. With k = Dn + d the row is D^s sum_(k = d mod D, k != 0)
    e^(2 pi i k theta)/k^s, theta = -a/N, which the D characters of k mod D split
    into full sums at theta + j/D, j < D, each -(2 pi i)^s B_s({theta})/s! with B_s
    at a rational point p/q, q = ND: one exactly rounded quotient of integers. At
    s = 1 that is the logarithm pair -log(1 - u) + log(1 - 1/u), u = e^(2 pi i theta),
    which needs theta != 0 mod 1 (a raised error is not cached)."""
    coeffs, M = _bernoulli(s)
    q, total = N * D, 0j
    for j in range(D):
        p = (j * N - a * D) % q  # depends on a mod N only
        if s == 1 and not p:
            raise ConvergenceModeError("the real row at weight 1 needs theta != 0 mod 1")
        num, qk = 0, 1
        for c in coeffs:  # M q^s B_s(p/q) = sum_k c_k p^(s-k) q^k, by Horner in p
            num, qk = num * p + c * qk, qk * q
        total += sum(cmath.exp(-2j * cmath.pi * j * d / D) for d in ds) * (num / (M * q**s))
    return -(2j * math.pi) ** s / math.factorial(s) * D ** (s - 1) * total


def _lipschitz_sums(labels, N: int, D: int, cosets, t: complex, s: int) -> list:
    """The lattice sum over the given cosets (c, d), one sum per character
    label (a, b) in labels, for _lattice_sums, which holds the domain rules.
    Row m of coset (c, d) is zeta_N^((Dm+c)b - da) T(x_m, xi, s), xi = -Da/N
    mod 1, x_m = (m + c/D) tau + d/D, and its character is a constant times
    zeta_N^(Dbm). So the rows m >= m0 = [c = 0] are one Lambert half at y =
    x_m0, rho = zeta_N^(Db), and the rows m <= -1, reflected by T(x, xi, s) =
    (-1)^s T(-x, -xi mod 1, s), one at y = -x_-1, rho = zeta_N^(-Db); all
    halves of all labels and cosets go through one _lambert call. Row 0 is real
    when c = 0: one _row_zero per label over those cosets, without the origin
    when d = 0 (F is D = 1, cosets [(0, 0)]). s = 1 needs Da != 0 mod N."""
    roots = _roots_of_unity(N).tolist()
    halves = []  # (y, xi, rho, character of the first row), label by label
    for a, b in labels:
        for c, d in cosets:
            m0 = c == 0
            halves += [((m0 + c / D) * t + d / D, -D * a % N / N, roots[D * b % N],
                        roots[((D * m0 + c) * b - d * a) % N]),
                       ((1 - c / D) * t - d / D, D * a % N / N, roots[-D * b % N],
                        (-1) ** s * roots[((c - D) * b - d * a) % N])]
    y, xi, rho, pref = zip(*halves)
    sums = (np.array(pref) * _lambert(y, xi, rho, t, s)).reshape(len(labels), -1).sum(axis=1)
    ds = [d for c, d in cosets if c == 0]
    return [complex(v + _row_zero(a, N, D, ds, s)) if ds else complex(v)
            for (a, _), v in zip(labels, sums)]


# terms per block of denominators in the naive kernel (a row longer than this
# is a block of its own), which bounds its arrays whatever the truncation radius
_BLOCK = 1 << 13


def _power(work: list, s: int) -> np.ndarray:
    """z**s, z = work[0], s >= 1, by binary powering from z itself (a first product
    by 1 would flip signed zeros), so (-z)**s is (-1)**s z**s bit for bit, z != 0;
    the products, z**s among them, go into work[1:] (s.bit_length() - 1 slots)."""
    if s == 1:
        return work[0]
    np.multiply(work[0], work[0], out=work[1])
    half = _power(work[1:], s >> 1)
    return np.multiply(half, work[0], out=half) if s & 1 else half


def _naive_sums(labels, N: int, D: int, cosets, t: complex, s: int,
                trunc: LatticeTruncation) -> list:
    """The lattice sum over the given cosets (c, d), one sum per character
    label (a, b) in labels, for _lattice_sums, which holds the domain rules:
    the terms |m|, |n| <= R of each coset, without the origin at c = d = 0 (F
    is D = 1, cosets [(0, 0)]). "box" sums the same terms alike; it only
    declares absolute convergence, and the dispatch refuses it below weight 3.

    The column characters zeta_N^(-(Dn+d)a) depend only on n mod N, so the
    columns are ordered by class: n = 0, then n = r mod N, r = 1..min(N, R),
    for +n and then for -n. Rows run in blocks of at most _BLOCK terms, and
    their class sums (2 min(N, R) + 1 per row) in spans of at most 2 _BLOCK
    of them or one block (memory: _BLOCK times the bits of s, two spans and
    one value per label, coset and row). A block's grid x_m + n is x_m plus
    the floats (n, 0.0) on its float view: Re x_m + n and Im x_m + 0.0, the
    complex addition's own IEEE additions, by numpy's faster float loop.
    _power, a reciprocal in place (the origin's power set to 1 and its class
    sum to 0) and np.add.reduceat give each row's class sums, and one C
    einsum per span (per coset, if its rows fit one span) projects them onto
    every label's class characters. At c = d = 0, x_(-m) = -x_m exactly, and
    the addition, _power and np.reciprocal are exactly odd under negation, so
    rows -m take rows m's class sums with their +n and -n halves swapped and
    the sign (-1)^s. The row characters zeta_N^((Dm+c)b) are one array
    product, and each label's rows of all cosets one math.fsum of the real
    and imaginary parts: exactly rounded, so no order of the rows enters."""
    R = trunc.shell_radius
    roots = _roots_of_unity(N)
    classes = [np.arange(r, R + 1, N) for r in range(1, min(N, R) + 1)]
    n = np.concatenate([[0]] + classes + [-k for k in classes]).astype(complex)
    n_float = n.view(float)  # interleaved (n, 0.0)
    starts = np.cumsum([0, 1] + [len(k) for k in classes] * 2)[:-1]
    r = np.arange(len(classes) + 1)
    r = np.concatenate([r, -r[1:]])  # the signed class of each column segment
    swap = np.concatenate([[0], np.roll(np.arange(1, len(r)), len(classes))])  # class -r
    a, b = np.array(labels).T
    step = max(1, _BLOCK // len(n))
    span = step * max(1, 2 * _BLOCK // (step * len(starts)))  # rows per projection
    work = list(np.empty((s.bit_length(), min(step, 2 * R + 1), len(n)), dtype=complex))
    sums = np.empty((min(2 * span, 2 * R + 1), len(starts)), dtype=complex)  # class sums
    rows = np.empty((len(labels), len(cosets), 2 * R + 1), dtype=complex)
    m = np.empty((len(cosets), 2 * R + 1), dtype=int)  # the row m of each row value
    for j, (c, d) in enumerate(cosets):
        paired = c == 0 and d == 0  # the origin is left out and row -m mirrors row m
        ms = np.arange(0 if paired else -R, R + 1)
        xs, chars = (ms + c / D) * t + d / D, roots[np.outer(-a, D * r + d) % N]
        for i0 in range(0, len(xs), span):
            h = len(span_ms := ms[i0:i0 + span])
            for i in range(0, h, step):
                x = xs[i0 + i:i0 + i + step, None]
                block = work if len(x) == len(work[0]) else [w[:len(x)] for w in work]
                np.copyto(block[0], x)
                np.add(floats := block[0].view(float), n_float, out=floats)
                grid = _power(block, s)
                if paired and not i0 + i:
                    grid[0, 0] = 1.0
                np.add.reduceat(np.reciprocal(grid, out=grid), starts, axis=1,
                                out=sums[i:i + len(x)])
            if paired:  # the origin's class sum, and rows -m from rows m >= 1
                f = int(not i0)
                sums[0, :f] = 0.0
                np.take(sums[f:h], swap, axis=1, out=sums[h:2 * h - f], mode="clip")
                span_ms = np.concatenate([span_ms, -span_ms[f:]])
            p = 2 * i0 - (i0 > 0) if paired else i0  # the rows of the earlier spans
            m[j, p:p + len(span_ms)] = span_ms
            c_einsum("jk,mk->jm", chars, sums[:len(span_ms)], out=rows[:, j, p:p + len(span_ms)])
    c = np.array(cosets)
    row_chars = roots[np.multiply.outer(b, D * m + c[:, :1]) % N]
    mirrored = (m < 0) & (c == 0).all(axis=1)[:, None] & bool(s % 2)  # the sign (-1)^s
    rows = (rows * np.where(mirrored, -row_chars, row_chars)).reshape(len(labels), -1)
    return [complex(math.fsum(v.real.tolist()), math.fsum(v.imag.tolist())) for v in rows]


def _lattice_sums(labels, N: int, D: int, cosets, t: complex, s: int, mode: str,
                  trunc: LatticeTruncation | None) -> list:
    """The one dispatch of every lattice sum here: one sum per character
    label (a, b) in labels, over the cosets (c, d) mod D, by the kernel of
    mode, _lipschitz_sums or _naive_sums, each called once with every label
    and every coset; a kernel's OverflowError reads nan, and so do values past
    the float range, without numpy's warnings (F raises NonFiniteError on
    them). It alone decides where a sum converges, before any kernel runs
    and in this order: the mode;
    at weight s = 1 the coset rule (the rows of a Lipschitz coset sum, any
    cosets but F's [(0, 0)], are principal values), then the label rule of
    the module docstring (F's coset); a truncation for naive mode; no coset
    sums to 0; box needs s >= 3. In naive mode a trailing trivial label
    (0, 0), F_tilde's degenerate one, is summed by Lipschitz rows."""
    if mode not in ("naive", "lipschitz"):
        raise ValueError(f"unknown mode {mode!r}")
    if s == 1 and mode == "lipschitz" and cosets != [(0, 0)]:
        raise ConvergenceModeError(
            "weight-1 inner rows are principal values; use the naive eisenstein ordering")
    for a, b in labels if s == 1 and cosets == [(0, 0)] else ():
        if a % N == 0 or (mode == "naive" and b % N == 0):
            raise ConvergenceModeError(
                f"weight 1 at (a, b) = {(a, b)} mod {N} does not converge in mode {mode!r}")
    if mode == "naive" and trunc is None:
        raise ValueError("naive mode requires an explicit LatticeTruncation")
    if not cosets:
        return [0j] * len(labels)
    if mode == "naive" and trunc.ordering == "box" and s < 3:
        raise ConvergenceModeError(f"weight {s} is conditionally convergent; "
                                   "box ordering is not a sum")
    if mode == "naive" and labels[-1] == (0, 0):
        return (_lattice_sums(labels[:-1], N, D, cosets, t, s, mode, trunc)
                + _lattice_sums(labels[-1:], N, D, cosets, t, s, "lipschitz", None))
    try:
        if mode == "lipschitz":
            return _lipschitz_sums(labels, N, D, cosets, t, s)
        # a naive denominator |x_m + n| lies in [min(1, Im t)/D, (R + 1)(|t| + 1)]: only
        # where its power or reciprocal may pass e^709 are numpy's warnings off
        R = trunc.shell_radius
        if s * math.log(max((R + 1) * (abs(t) + 1), D / min(1.0, t.imag))) <= 709.0:
            return _naive_sums(labels, N, D, cosets, t, s, trunc)
        with np.errstate(all="ignore"):
            return _naive_sums(labels, N, D, cosets, t, s, trunc)
    except OverflowError:  # a factorial of the Lipschitz kernel past the float range
        return [math.nan] * len(labels)


def F(query: EisensteinQuery) -> complex:
    """Evaluate the weight-k level-N Eisenstein series for the query.

    mode "naive" requires trunc and sums the terms of its square |m|, |n| <= R,
    exactly rounded; box is refused below weight 3 (ConvergenceModeError).
    mode "lipschitz" sums rows in closed form and works for all k >= 1.
    Weight 1 raises ConvergenceModeError when a = 0 mod N, and in mode
    "naive" also when b = 0 mod N. A value that overflows raises NonFiniteError.
    """
    t = _tau_of(query.tau)
    total, = _lattice_sums([(query.a, query.b)], query.N, 1, [(0, 0)], t, query.k, query.mode,
                           query.trunc)
    return _finite((-1) ** (query.k + 1) * _factorial(query.k - 1) * total, query.k, query.mode)


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
    in F's weight-one domain. ValueError for a D that is not an integer >= 1.
    """
    D = _integer("D", D, 1)
    t = _tau_of(query.tau)
    labels = [(query.a, query.b), ((D * query.a) % query.N, (D * query.b) % query.N)]
    if labels[1] == (0, 0) and not allow_degenerate:
        raise DegenerateLabelError(
            f"(Da, Db) = {(D * query.a, D * query.b)} is (0,0) mod {query.N}")
    sums = _lattice_sums(labels, query.N, 1, [(0, 0)], t, query.k, query.mode, query.trunc)
    first, second = ((-1) ** (query.k + 1) * _factorial(query.k - 1) * v for v in sums)
    return _finite(D**2 * first - D ** (2 - query.k) * second, query.k, query.mode)


def eisenstein_sum_k2(a: int, b: int, N: int, tau, trunc: LatticeTruncation) -> complex:
    """Weight-2 series as the naive sum of the terms of the square |m|, |n| <= R
    of trunc, exactly rounded; weight 2 converges only conditionally, so box
    is refused below weight 3 (ConvergenceModeError)."""
    return F(EisensteinQuery(a=a, b=b, N=N, k=2, tau=tau, mode="naive", trunc=trunc))
