import cmath
import math

import pytest

from conftest import STANDARD_POINTS
from epolylog.eisenstein import (
    ConvergenceModeError,
    EisensteinQuery,
    F_tilde,
)
from epolylog.kronecker import s_coeffs
from epolylog.numerics import LatticeTruncation
from epolylog.polylog import (
    TorsionLabel,
    L_form,
    closedness_residual,
    l_form,
    specialize_eisenstein,
)
from epolylog.weierstrass import PoleProximityError, zeta_fn

TAU_A = 0.5 + 0.8j
Z_A = 0.23 + 0.11j
TWO_PI_I = 2j * cmath.pi


class TestTorsionLabel:
    def test_rejects_zero_label(self):
        with pytest.raises(ValueError):
            TorsionLabel(a=0, b=0, N=4, D=2)
        with pytest.raises(ValueError):
            TorsionLabel(a=4, b=4, N=4, D=2)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            TorsionLabel(a=1, b=0, N=4, D=0)
        with pytest.raises(ValueError):
            TorsionLabel(a=1, b=0, N=0, D=2)

    def test_degree_one_allowed(self):
        assert TorsionLabel(a=1, b=0, N=4, D=1).D == 1


class TestForms:
    def test_l_form_coefficients(self):
        n, D = 3, 2
        form = l_form(Z_A, TAU_A, D, n)
        sc = s_coeffs(Z_A, TAU_A, D, n)
        assert form.dtau.max_abs() == 0.0
        for k in range(n + 1):
            assert form.dz.get(k, 0) == math.factorial(k) * sc.coeffs[k]
        assert all(j == 0 for (_, j) in form.dz.coeffs)

    def test_l_form_level_zero_constant(self):
        for z, t in STANDARD_POINTS[:2]:
            for D in (2, 3):
                form = l_form(z, t, D, 0)
                ref = D * D * zeta_fn(z, t) - D * zeta_fn(D * z, t)
                assert abs(form.dz.get(0, 0) - ref) / max(1.0, abs(ref)) < 1e-10

    def test_L_form_dtau_tower(self):
        n, D = 2, 3
        form = L_form(Z_A, TAU_A, D, n)
        sc = s_coeffs(Z_A, TAU_A, D, n + 1)
        for k in range(n + 1):
            expect = math.factorial(k + 1) * sc.coeffs[k + 1] / TWO_PI_I
            assert form.dtau.get(k, 0) == expect

    def test_ks_lift_reproduces_L_form(self):
        # the Kodaira-Spencer lift of l_form(n+1), c w^[k,0] dz ->
        # c w^[k,0] dz + (c / 2 pi i) w^[k-1,0] dtau truncated to level n,
        # is L_form(n); identical arithmetic, so the floats must match exactly
        n, D = 2, 2
        relative = l_form(Z_A, TAU_A, D, n + 1)
        direct = L_form(Z_A, TAU_A, D, n)
        assert direct.n == n
        assert not relative.dtau.coeffs
        dz = {(k, j): c for (k, j), c in relative.dz.coeffs.items() if k <= n}
        dtau = {(k - 1, 0): c / TWO_PI_I for (k, _), c in relative.dz.coeffs.items() if 1 <= k <= n + 1}
        assert direct.dz.coeffs == dz
        assert direct.dtau.coeffs == dtau


class TestClosedness:
    def test_residual_small(self):
        for n in (0, 1, 2):
            for D in (2, 3):
                assert closedness_residual(Z_A, TAU_A, D, n) < 1e-4

    def test_stencil_margin(self):
        with pytest.raises(PoleProximityError):
            closedness_residual(1e-5, TAU_A, 2, 1)
        with pytest.raises(PoleProximityError):
            # Dz on the lattice for D = 3
            closedness_residual(TAU_A / 3, TAU_A, 3, 1)


class TestSpecialization:
    def test_matches_F_tilde(self):
        for (a, b, N, D, k) in [(1, 0, 4, 2, 2), (1, 2, 5, 3, 3), (1, 1, 3, 2, 4)]:
            label = TorsionLabel(a=a, b=b, N=N, D=D)
            sp = specialize_eisenstein(label, TAU_A, k)
            ft = F_tilde(EisensteinQuery(a=a, b=b, N=N, k=k + 1, tau=TAU_A), D,
                         allow_degenerate=True)
            assert abs(sp - ft) / max(1.0, abs(ft)) < 1e-10

    def test_degenerate_cell(self):
        # (Da, Db) = (0,0) mod N: smoothing falls back to the trivial-character
        # extension, zero at odd weight
        label = TorsionLabel(a=1, b=2, N=3, D=3)
        sp = specialize_eisenstein(label, TAU_A, 2)
        ft = F_tilde(EisensteinQuery(a=1, b=2, N=3, k=3, tau=TAU_A), 3,
                     allow_degenerate=True)
        assert abs(sp - ft) / max(1.0, abs(ft)) < 1e-10

    def test_degree_one_vanishes(self):
        assert specialize_eisenstein(TorsionLabel(a=1, b=0, N=4, D=1), TAU_A, 3) == 0.0

    def test_degree_one_validates(self):
        # D = 1 sums no coset, but its mode, truncation and weight are
        # checked as at any D
        label = TorsionLabel(a=1, b=2, N=5, D=1)
        with pytest.raises(ValueError):
            specialize_eisenstein(label, 0.3 + 1j, 3, mode="lipschitzz")
        with pytest.raises(ValueError):
            specialize_eisenstein(label, 0.3 + 1j, 3, mode="naive")
        with pytest.raises(ConvergenceModeError):
            specialize_eisenstein(label, 0.3 + 1j, 0)

    def test_naive_cross_check(self):
        label = TorsionLabel(a=1, b=2, N=5, D=2)
        lip = specialize_eisenstein(label, TAU_A, 2)
        naive = specialize_eisenstein(label, TAU_A, 2, mode="naive",
                                      trunc=LatticeTruncation(300))
        assert abs(naive - lip) / max(1.0, abs(lip)) < 1e-4

    def test_naive_box_matches_lipschitz(self):
        label = TorsionLabel(a=1, b=2, N=5, D=2)
        box = LatticeTruncation(100, ordering="box")
        for k, bound in ((2, 1e-7), (3, 1e-9), (4, 1e-11)):
            lip = specialize_eisenstein(label, TAU_A, k)
            naive = specialize_eisenstein(label, TAU_A, k, mode="naive", trunc=box)
            assert abs(naive - lip) / abs(lip) < bound
        with pytest.raises(ConvergenceModeError):
            specialize_eisenstein(label, TAU_A, 1, mode="naive", trunc=box)

    def test_weight_zero_needs_naive(self):
        label = TorsionLabel(a=1, b=0, N=4, D=2)
        with pytest.raises(ConvergenceModeError):
            specialize_eisenstein(label, TAU_A, 0)
        v = specialize_eisenstein(label, TAU_A, 0, mode="naive",
                                  trunc=LatticeTruncation(200))
        assert abs(v) < 1e3  # converges to something finite

    def test_naive_requires_truncation(self):
        with pytest.raises(ValueError):
            specialize_eisenstein(TorsionLabel(a=1, b=0, N=4, D=2), TAU_A, 2,
                                  mode="naive")

    def test_parity_null_label_vanishes(self):
        # (2a, 2b) = (0,0) mod N forces F = 0 at odd weight; the smoothed
        # series and the specialization both collapse
        label = TorsionLabel(a=2, b=0, N=4, D=3)
        sp = specialize_eisenstein(label, TAU_A, 2)
        assert abs(sp) < 1e-12
