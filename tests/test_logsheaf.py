import cmath

import numpy as np
import pytest

from conftest import STANDARD_TAUS
from epolylog import logsheaf
from epolylog.logsheaf import (
    LogFiber,
    abs_connection,
    basis_indices,
    curvature_residual,
    rel_connection,
)
from epolylog.weierstrass import eta1_prime, eta_periods

TAU_A = 0.5 + 0.8j
TWO_PI_I = 2j * cmath.pi


class TestLogFiber:
    def test_basis_count(self):
        for n in range(6):
            assert len(basis_indices(n)) == (n + 1) * (n + 2) // 2

    def test_zero_coefficients_dropped(self):
        f = LogFiber(2, {(0, 0): 0.0, (1, 1): 2.0})
        assert (0, 0) not in f.coeffs
        assert f.get(1, 1) == 2.0
        assert f.get(0, 0) == 0.0

    def test_index_validation(self):
        with pytest.raises(ValueError):
            LogFiber(1, {(1, 1): 1.0})
        with pytest.raises(ValueError):
            LogFiber(1, {(-1, 0): 1.0})
        with pytest.raises(ValueError):
            LogFiber(-1, {})

    def test_add_scale(self):
        a = LogFiber(2, {(1, 0): 1.0, (0, 1): 2.0})
        b = LogFiber(2, {(1, 0): -1.0, (2, 0): 5.0})
        s = a.add(b)
        assert s.get(1, 0) == 0.0 and (1, 0) not in s.coeffs
        assert s.get(0, 1) == 2.0 and s.get(2, 0) == 5.0
        assert a.scale(3.0).get(0, 1) == 6.0
        with pytest.raises(ValueError):
            a.add(LogFiber(3, {}))

    def test_max_abs(self):
        assert LogFiber.zero(4).max_abs() == 0.0
        assert LogFiber(1, {(1, 0): 3.0 - 4.0j}).max_abs() == 5.0


class TestConnections:
    def test_rel_connection_on_basis(self):
        eta1 = eta_periods(TAU_A).eta1
        out = rel_connection(LogFiber.basis(2, 1, 0), TAU_A)
        assert out.dtau.max_abs() == 0.0
        assert abs(out.dz.get(2, 0) + 2 * eta1) < 1e-14
        assert out.dz.get(1, 1) == 1.0

    def test_rel_connection_truncates_at_top(self):
        out = rel_connection(LogFiber.basis(1, 1, 0), TAU_A)
        assert out.dz.max_abs() == 0.0

    def test_abs_connection_dtau_preserves_degree(self):
        v = LogFiber.basis(3, 1, 2)
        out = abs_connection(v, TAU_A)
        assert all(i + j == 3 for (i, j) in out.dtau.coeffs)

    @staticmethod
    def level_one_dtau(t):
        # dtau action of abs_connection on level 1, basis (w^[1,0], w^[0,1])
        c10 = abs_connection(LogFiber.basis(1, 1, 0), t).dtau
        c01 = abs_connection(LogFiber.basis(1, 0, 1), t).dtau
        return np.array(
            [[c10.get(1, 0), c01.get(1, 0)], [c10.get(0, 1), c01.get(0, 1)]]
        )

    def test_abs_connection_level_one_matches_gm(self):
        # the rank-2 Gauss-Manin connection in the (first-kind, second-kind)
        # basis, with the Legendre relation built in
        eta1 = eta_periods(TAU_A).eta1
        gm = np.array(
            [
                [-eta1 / TWO_PI_I, eta1_prime(TAU_A) - eta1**2 / TWO_PI_I],
                [1.0 / TWO_PI_I, eta1 / TWO_PI_I],
            ]
        )
        assert np.max(np.abs(self.level_one_dtau(TAU_A) - gm)) < 1e-14

    def test_gm_trace_free(self):
        for t in STANDARD_TAUS:
            assert abs(np.trace(self.level_one_dtau(t))) < 1e-14


class TestCurvature:
    def test_level_zero_exactly_flat(self):
        assert curvature_residual(0, TAU_A) == 0.0

    def test_low_levels_flat(self):
        for n in (1, 2, 3):
            assert curvature_residual(n, TAU_A) < 1e-6

    def test_qseries_backend(self):
        assert curvature_residual(2, 0.13 + 1.7j) < 1e-6

    def test_detects_wrong_eta1_prime(self, monkeypatch):
        # the dA/dtau stencil differences eta1 itself, so a relative error of
        # 1e-4 in the connection's eta1' must show at level 1
        monkeypatch.setattr(logsheaf, "eta1_prime", lambda t: eta1_prime(t) * (1 + 1e-4))
        assert curvature_residual(1, TAU_A) > 1e-5

