import cmath
import math

from hypothesis import given, settings, strategies as st

from epolylog.eisenstein import EisensteinQuery, F
from epolylog.kronecker import KroneckerPoint, jacobi_J, s_coeffs
from epolylog.weierstrass import (
    ModuliPoint,
    _cell,
    eta_periods,
    theta_normalized,
    zeta_fn,
)

settings.register_profile("det", derandomize=True, deadline=None)
settings.load_profile("det")

finite = dict(allow_nan=False, allow_infinity=False)

taus = st.builds(
    complex,
    st.floats(-0.5, 0.5, **finite),
    st.floats(0.8, 2.0, **finite),
)
zs = st.builds(
    complex,
    st.floats(0.1, 0.4, **finite),
    st.floats(0.05, 0.3, **finite),
)
small_ints = st.integers(-3, 3)


@given(z=zs, t=taus, m=small_ints, n=small_ints)
@settings(max_examples=40)
def test_theta_translation_law(z, t, m, n):
    lhs = theta_normalized(z + m + n * t, t)
    fac = (-1) ** (m + n + m * n) * cmath.exp(-2j * cmath.pi * n * (z + (n * t + m) / 2.0))
    rhs = fac * theta_normalized(z, t)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


@given(z=zs, t=taus, m=small_ints, n=small_ints)
@settings(max_examples=40)
def test_zeta_quasi_periodicity(z, t, m, n):
    qp = eta_periods(t)
    lhs = zeta_fn(z + m + n * t, t)
    rhs = zeta_fn(z, t) + m * qp.eta1 + n * qp.eta2
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@given(z=zs, w=zs, t=taus)
@settings(max_examples=40)
def test_J_symmetric(z, w, t):
    p = KroneckerPoint(z=z, w=w, tau=ModuliPoint(t))
    q = KroneckerPoint(z=w, w=z, tau=ModuliPoint(t))
    a, b = jacobi_J(p), jacobi_J(q)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


@given(z=zs, w=zs, t=taus, c=st.integers(-2, 2), d=st.integers(-2, 2))
@settings(max_examples=30)
def test_J_quasi_periodicity(z, w, t, c, d):
    p = KroneckerPoint(z=z, w=w, tau=ModuliPoint(t))
    shifted = jacobi_J(KroneckerPoint(z=z + c * t + d, w=w, tau=ModuliPoint(t)))
    expect = cmath.exp(-2j * cmath.pi * c * p.w) * jacobi_J(p)
    assert abs(shifted - expect) <= 1e-8 * max(1.0, abs(expect))


@given(
    t=taus,
    k=st.integers(2, 5),
    N=st.integers(2, 6),
    a=st.integers(-6, 6),
    b=st.integers(-6, 6),
)
@settings(max_examples=40)
def test_F_parity(t, k, N, a, b):
    if a % N == 0 and b % N == 0:
        return
    plus = F(EisensteinQuery(a=a, b=b, N=N, k=k, tau=t))
    minus = F(EisensteinQuery(a=-a, b=-b, N=N, k=k, tau=t))
    assert abs(minus - (-1) ** k * plus) <= 1e-10 * max(1.0, abs(plus))


@given(
    z=st.builds(complex, st.floats(-20, 20, **finite), st.floats(-20, 20, **finite)),
    t=taus,
)
@settings(max_examples=60)
def test_reduce_to_cell_reconstruction(z, t):
    z0, m, n = _cell(z, t)
    assert abs(complex(z0) + int(m) + int(n) * t - z) <= 1e-10 * max(1.0, abs(z))
    beta = complex(z0).imag / t.imag
    alpha = complex(z0).real - beta * t.real
    assert abs(alpha) <= 0.5 + 1e-9
    assert abs(beta) <= 0.5 + 1e-9


@given(z=zs, t=taus, D=st.integers(2, 3))
@settings(max_examples=8)
def test_s0_is_zeta_combination(z, t, D):
    sc = s_coeffs(z, t, D, 0)
    ref = D * D * zeta_fn(z, t) - D * zeta_fn(D * z, t)
    assert abs(sc.coeffs[0] - ref) <= 1e-9 * max(1.0, abs(ref))
