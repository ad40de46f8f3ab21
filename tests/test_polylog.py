import cmath
import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import STANDARD_POINTS
from epolylog import polylog
from epolylog.eisenstein import (
    ConvergenceModeError,
    DegenerateLabelError,
    EisensteinQuery,
    F_tilde,
)
from epolylog.kronecker import s_coeffs
from epolylog.logsheaf import abs_connection, basis_indices
from epolylog.numerics import LatticeTruncation, stencil_nodes
from epolylog.polylog import (
    _CLOSEDNESS_STEP,
    TorsionLabel,
    L_form,
    closedness_residual,
    specialize_eisenstein,
)
from epolylog.weierstrass import PoleProximityError, zeta_fn

TAU_A = 0.5 + 0.8j
Z_A = 0.23 + 0.11j
TWO_PI_I = 2j * cmath.pi


class TestTorsionLabel:
    def test_rejects_zero_label(self):
        # the label rule of EisensteinQuery: the same error, a ValueError
        assert issubclass(DegenerateLabelError, ValueError)
        for a, b in ((0, 0), (4, 4), (np.int64(8), -4)):
            with pytest.raises(DegenerateLabelError) as info:
                TorsionLabel(a=a, b=b, N=4, D=2)
            assert str(info.value) == f"(a, b) = {(a, b)} is (0,0) mod 4"
            with pytest.raises(DegenerateLabelError):
                EisensteinQuery(a=a, b=b, N=4, k=3, tau=0.21 + 1.1j)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            TorsionLabel(a=1, b=0, N=4, D=0)
        with pytest.raises(ValueError):
            TorsionLabel(a=1, b=0, N=0, D=2)

    def test_degree_one_allowed(self):
        assert TorsionLabel(a=1, b=0, N=4, D=1).D == 1

    def test_numpy_integer_fields_are_stored_as_ints(self):
        label = TorsionLabel(a=np.int64(1), b=np.int32(2), N=np.int64(5), D=np.int16(2))
        assert label == TorsionLabel(a=1, b=2, N=5, D=2)
        assert all(type(v) is int for v in (label.a, label.b, label.N, label.D))

    @pytest.mark.parametrize("field, value, message", [
        ("D", True, "D must be >= 1, got True"), ("D", 2.0, "D must be >= 1, got 2.0"),
        ("D", 0, "D must be >= 1, got 0"), ("D", -2, "D must be >= 1, got -2"),
        ("N", 4.5, "N must be >= 1, got 4.5"), ("N", 0, "N must be >= 1, got 0"),
        ("N", 2.5, "N must be >= 1, got 2.5"), ("a", 1.5, "a must be an integer, got 1.5"),
        ("b", None, "b must be an integer, got None"),
        ("b", False, "b must be an integer, got False")])
    def test_integer_fields(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TorsionLabel(**{**dict(a=1, b=2, N=4, D=2), field: value})
        assert str(info.value) == message


class TestArguments:
    # D and the level are checked before any tau work (-1j would raise too)
    @pytest.mark.parametrize("fn", [L_form, closedness_residual])
    @pytest.mark.parametrize("D, n, message", [
        (True, 1, "D must be >= 1, got True"), (2.5, 1, "D must be >= 1, got 2.5"),
        (0, 1, "D must be >= 1, got 0"), (2, 1.0, "level must be in 0..15, got 1.0"),
        (2, False, "level must be in 0..15, got False"), (2, 16, "level must be in 0..15, got 16")])
    def test_degree_and_level(self, fn, D, n, message):
        with pytest.raises(ValueError) as info:
            fn(Z_A, -1j, D, n)
        assert str(info.value) == message

    @pytest.mark.parametrize("k", [-1, 1.0, True, False])
    def test_specialization_weight(self, k):
        with pytest.raises(ValueError) as info:
            specialize_eisenstein(TorsionLabel(1, 2, 5, 2), -1j, k)
        assert str(info.value) == f"k must be >= 0, got {k!r}"

    def test_L_form_non_finite_z(self):
        # z is refused before D * z is formed, where numpy would warn (0 * inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (complex(float("inf"), 0.0), complex(0.1, float("nan"))):
                with pytest.raises(ValueError, match="has no finite lattice coordinates"):
                    L_form(z, TAU_A, 2, 2)


class TestForms:
    def test_L_form_dz_rows(self):
        n, D = 3, 2
        form = L_form(Z_A, TAU_A, D, n)
        sc = s_coeffs(Z_A, TAU_A, D, n + 1)
        for k in range(n + 1):
            assert form.dz.get(k, 0) == math.factorial(k) * sc.coeffs[k]
        assert all(j == 0 for part in (form.dz, form.dtau) for (_, j) in part.coeffs)

    def test_level_zero_constant(self):
        for z, t in STANDARD_POINTS[:2]:
            for D in (2, 3):
                s0 = s_coeffs(z, t, D, 0).coeffs[0]
                ref = D * D * zeta_fn(z, t) - D * zeta_fn(D * z, t)
                assert abs(s0 - ref) / max(1.0, abs(ref)) < 1e-10

    def test_lower_levels_are_leading_rows(self):
        # the tower: L_form(m) is the rows k <= m of L_form(4)
        for z, t in STANDARD_POINTS:
            for D in (2, 3):
                top = L_form(z, t, D, 4)
                for m in range(4):
                    form = L_form(z, t, D, m)
                    for low, high in ((form.dz, top.dz), (form.dtau, top.dtau)):
                        for k in range(m + 1):
                            ref = high.get(k, 0)
                            assert abs(low.get(k, 0) - ref) <= 1e-14 * abs(ref)

    def test_L_form_dtau_tower(self):
        n, D = 2, 3
        form = L_form(Z_A, TAU_A, D, n)
        sc = s_coeffs(Z_A, TAU_A, D, n + 1)
        for k in range(n + 1):
            expect = math.factorial(k + 1) * sc.coeffs[k + 1] / TWO_PI_I
            assert form.dtau.get(k, 0) == expect

    def test_ks_lift_reproduces_L_form(self):
        # the Kodaira-Spencer lift of the relative form k! s_k w^[k,0] dz,
        # k <= n + 1, c w^[k,0] dz -> c w^[k,0] dz + (c / 2 pi i) w^[k-1,0]
        # dtau truncated to level n, is L_form(n); identical arithmetic, so
        # the floats must match exactly
        n, D = 2, 2
        sc = s_coeffs(Z_A, TAU_A, D, n + 1)
        relative = {k: math.factorial(k) * sc.coeffs[k] for k in range(n + 2)}
        direct = L_form(Z_A, TAU_A, D, n)
        assert direct.n == n
        assert direct.dz.coeffs == {(k, 0): c for k, c in relative.items() if k <= n}
        assert direct.dtau.coeffs == {(k - 1, 0): c / TWO_PI_I for k, c in relative.items() if k >= 1}


def closedness_per_level(z, t, D, n):
    """The closedness residual level by level: dense vectors from L_form(m)
    at its own order, the same stencils, the worst over m <= n."""
    worst = 0.0
    for m in range(n + 1):
        def dense(x, s, part):
            fiber = getattr(L_form(x, s, D, m), part)
            return np.array([fiber.get(i, j) for i, j in basis_indices(m)])

        P, Q = dense(z, t, "dz"), dense(z, t, "dtau")
        dP = oracles.stencil_loop(lambda s: dense(z, s, "dz"), t, _CLOSEDNESS_STEP)
        dQ = oracles.stencil_loop(lambda x: dense(x, t, "dtau"), z, _CLOSEDNESS_STEP)
        omega_z, omega_tau = abs_connection(m, t)
        resid = np.max(np.abs(-dP - omega_tau @ P + dQ + omega_z @ Q))
        worst = max(worst, resid / max(np.max(np.abs(P)), np.max(np.abs(Q))))
    return worst


class TestClosedness:
    def test_residual_small(self):
        for n in (0, 1, 2):
            for D in (2, 3):
                assert closedness_residual(Z_A, TAU_A, D, n) < 1e-4

    def test_a_nan_at_one_level_is_the_residual(self, monkeypatch):
        # a nan in the level-4 block of Omega_z reaches only the level-4
        # residual; the fold over the levels keeps it, whatever levels 0-3 read
        connection = polylog.abs_connection

        def spoiled(n, t):
            omega_z, omega_tau = connection(n, t)
            omega_z = omega_z.copy()
            omega_z[-1, -1] = np.nan  # at w^[4,0], the last basis element of level 4
            return omega_z, omega_tau

        monkeypatch.setattr(polylog, "abs_connection", spoiled)
        assert math.isnan(closedness_residual(0.23 + 0.11j, 0.21 + 1.1j, 2, 4))

    def test_matches_per_level_oracle(self):
        for z, t in STANDARD_POINTS:
            for D in (2, 3):
                for n in (0, 2, 4):
                    ref = closedness_per_level(z, t, D, n)
                    assert abs(closedness_residual(z, t, D, n) - ref) <= 1e-6 * ref

    def test_stencil_columns_keep_the_scalar_bits(self):
        # closedness_residual evaluates its centre, z nodes and tau nodes in one
        # _rows call; each column must have the bits of _rows at that node alone
        z, t, D, n = Z_A, TAU_A, 3, 4
        zs, ts = stencil_nodes(z, _CLOSEDNESS_STEP), stencil_nodes(t, _CLOSEDNESS_STEP)
        nodes = [(z, t)] + [(x, t) for x in zs.tolist()] + [(z, s) for s in ts.tolist()]
        dz, dtau = polylog._rows(np.array([x for x, _ in nodes]), np.array([s for _, s in nodes]),
                                 D, n)
        for p, (x, s) in enumerate(nodes):
            one = polylog._rows(x, s, D, n)
            assert (dz[p].tobytes(), dtau[p].tobytes()) == (one[0].tobytes(), one[1].tobytes())

    def test_catches_low_level_defect(self, monkeypatch):
        # each level keeps its own normalization, so an error in the dtau row
        # k = 0 shows at n = 4 although L_4 has far larger coefficients
        rows = polylog._rows

        def skewed(z, t, D, n):
            dz, dtau = rows(z, t, D, n)
            return dz, dtau * np.r_[1 + 1e-3, np.ones(n)]

        monkeypatch.setattr(polylog, "_rows", skewed)
        for z, t in STANDARD_POINTS:
            for D in (2, 3):
                assert closedness_residual(z, t, D, 4) > 1e-4

    def test_stencil_margin(self):
        with pytest.raises(PoleProximityError):
            closedness_residual(1e-5, TAU_A, 2, 1)
        with pytest.raises(PoleProximityError):
            # Dz on the lattice for D = 3
            closedness_residual(TAU_A / 3, TAU_A, 3, 1)

    def test_level_range(self):
        # one level check for both forms, before any kernel call
        assert L_form(Z_A, TAU_A, 2, 15).n == 15
        assert closedness_residual(Z_A, TAU_A, 2, 15) < 1e-4
        for f in (L_form, closedness_residual):
            for n in (-1, 16):
                with pytest.raises(ValueError, match=r"level must be in 0\.\.15"):
                    f(Z_A, TAU_A, 2, n)


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
        # D = 1 has no nonzero coset: in either mode the empty sum 0j times
        # the prefactor -3! (k = 3), which is -0.0 + 0.0j exactly
        for label in (TorsionLabel(a=1, b=0, N=4, D=1), TorsionLabel(a=1, b=2, N=5, D=1)):
            for mode, trunc in (("lipschitz", None), ("naive", LatticeTruncation(50))):
                v = specialize_eisenstein(label, TAU_A, 3, mode=mode, trunc=trunc)
                assert type(v) is complex and v == 0
                assert (math.copysign(1.0, v.real), math.copysign(1.0, v.imag)) == (-1.0, 1.0)

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
