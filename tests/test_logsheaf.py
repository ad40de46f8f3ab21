import cmath

import numpy as np
import pytest

import oracles
from conftest import STANDARD_TAUS
from epolylog import logsheaf
from epolylog.logsheaf import (
    LogFiber,
    abs_connection,
    basis_indices,
    curvature_residual,
)
from epolylog.numerics import richardson, stencil_nodes
from epolylog.weierstrass import eta1_prime, eta_periods

TAU_A = 0.5 + 0.8j
TWO_PI_I = 2j * cmath.pi

_RNG = np.random.default_rng(27)
# the verify box (|Re tau| <= 1/2, Im tau in [0.8, 2]) and out of it (|Re tau|
# up to 20, Im tau down to 0.05), with the far corners
BOX_TAUS = [complex(x, y) for x, y in zip(_RNG.uniform(-0.5, 0.5, 8), _RNG.uniform(0.8, 2.0, 8))]
OUT_OF_BOX_TAUS = [complex(x, y) for x, y in zip(_RNG.uniform(-20.0, 20.0, 8),
                                                 _RNG.uniform(0.05, 0.8, 8))]
OUT_OF_BOX_TAUS += [20.0 + 0.05j, -20.0 + 0.05j, 0.05j]


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

    @pytest.mark.parametrize("index", [(1.5, 0), (True, 0), (0, False), (np.float64(1.0), 0.0),
                                       (1, "0"), (None, 0)])
    def test_index_not_an_integer(self, index):
        # refused, not truncated to an int index
        with pytest.raises(ValueError, match="^index must be an integer, got "):
            LogFiber(2, {index: 1.0})

    def test_numpy_integer_level(self):
        f = LogFiber(np.int64(2), {(1, 1): 1.0})
        assert type(f.n) is int and f == LogFiber(2, {(1, 1): 1.0})

    def test_numpy_integer_index(self):
        f = LogFiber(2, {(np.int64(1), np.int32(0)): 1.0})
        assert f == LogFiber(2, {(1, 0): 1.0})
        assert all(type(i) is int and type(j) is int for i, j in f.coeffs)
        with pytest.raises(ValueError, match=r"^index \(-1, 0\) outside level 2$"):
            LogFiber(2, {(np.int64(-1), 0): 1.0})


def entry(n, row, col, m):
    """Coefficient of w^row in the image of w^col under the matrix m."""
    pos = {ij: k for k, ij in enumerate(basis_indices(n))}
    return m[pos[row], pos[col]]


class TestConnections:
    def test_rel_connection_on_basis(self):
        eta1 = eta_periods(TAU_A).eta1
        omega_z, _ = abs_connection(2, TAU_A)
        col = omega_z[:, basis_indices(2).index((1, 0))]
        assert np.count_nonzero(col) == 2
        assert abs(entry(2, (2, 0), (1, 0), omega_z) + 2 * eta1) < 1e-14
        assert entry(2, (1, 1), (1, 0), omega_z) == 1.0

    def test_rel_connection_truncates_at_top(self):
        omega_z, _ = abs_connection(1, TAU_A)
        assert not np.any(omega_z[:, basis_indices(1).index((1, 0))])

    def test_abs_connection_dtau_preserves_degree(self):
        idx = basis_indices(3)
        _, omega_tau = abs_connection(3, TAU_A)
        rows, cols = np.nonzero(omega_tau)
        assert len(rows) > 0
        assert all(sum(idx[r]) == sum(idx[c]) for r, c in zip(rows, cols))

    @staticmethod
    def level_one_dtau(t):
        # Omega_tau on the degree-one block, basis (w^[1,0], w^[0,1])
        _, omega_tau = abs_connection(1, t)
        basis = [(1, 0), (0, 1)]
        return np.array([[entry(1, r, c, omega_tau) for c in basis] for r in basis])

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

    def test_levels_are_leading_blocks(self):
        # the tower: the level-m matrices are the leading block of the
        # level-n ones, bit for bit
        for t in STANDARD_TAUS:
            top = {n: abs_connection(n, t) for n in range(7)}
            for n in range(1, 7):
                for m in range(n):
                    size = len(basis_indices(m))
                    for low, high in zip(top[m], top[n]):
                        assert low.tobytes() == high[:size, :size].tobytes()

    @pytest.mark.parametrize("n", range(7))
    def test_flat_algebraically(self, n):
        # Omega_z is affine in eta1 with slope E: -(i+1) from w^[i,j] to
        # w^[i+1,j] below the top degree; so dOmega_z/dtau = eta1' E, and
        # flatness is [Omega_z, Omega_tau] = eta1' E with no stencil involved,
        # up to roundoff in the products (observed <= 4e-16 of their size)
        pos = {ij: k for k, ij in enumerate(basis_indices(n))}
        slope = np.zeros((len(pos), len(pos)))
        for (i, j), col in pos.items():
            if i + j < n:
                slope[pos[i + 1, j], col] = -(i + 1)
        for t in STANDARD_TAUS:
            omega_z, omega_tau = abs_connection(n, t)
            zt, tz = omega_z @ omega_tau, omega_tau @ omega_z
            scale = max(1.0, np.max(np.abs(zt)), np.max(np.abs(tz)))
            assert np.max(np.abs(zt - tz - eta1_prime(t) * slope)) < 1e-13 * scale


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
        # eta1' is small at large Im tau; the curvature-n1 check's tolerance
        # 1e-8 must still see the error there
        assert curvature_residual(1, -0.4 + 1.9j) > 1e-8

    @pytest.mark.parametrize("taus", [BOX_TAUS, OUT_OF_BOX_TAUS], ids=["box", "out_of_box"])
    def test_level_n_is_n_times_level_one(self, taus):
        # the residual is (eta1' - stencil eta1') times Omega_z's eta1 slope, whose
        # largest entry is n, plus the commutator's roundoff. That roundoff, an ulp
        # of its largest product, is below 1e-3 of the gap except at the Im tau =
        # 0.05 corners, where the gap is 1e-15 of eta1' and the products reach 6e9
        eps = np.finfo(float).eps
        for t in taus:
            one = curvature_residual(1, t)
            for n in range(2, 7):
                omega_z, omega_tau = abs_connection(n, t)
                roundoff = eps * max(np.max(np.abs(omega_z @ omega_tau)),
                                     np.max(np.abs(omega_tau @ omega_z)))
                assert abs(curvature_residual(n, t) - n * one) <= 1e-3 * n * one + roundoff

    def test_one_eta1_prime_call(self, monkeypatch):
        # eta1' enters Omega_tau at the centre only; the stencil reads eta1
        calls = []
        monkeypatch.setattr(logsheaf, "eta1_prime", lambda t: calls.append(t) or eta1_prime(t))
        curvature_residual(3, TAU_A)
        assert calls == [TAU_A]


def reference_connection(n, t):
    """abs_connection by the entry-by-entry loop, from eta1 and eta1' at t."""
    return oracles.abs_connection_loop(n, eta_periods(t).eta1, eta1_prime(t))


class TestBitsOfTheLoop:
    # abs_connection scatters a per-level table in one pass; every entry keeps
    # the bits of the entry-by-entry loop. curvature_residual keeps, at levels
    # 0-2, the bits of the loop over one matrix per stencil node (Omega_z's eta1
    # coefficients there are -1 and -2, which scale the stencil exactly), and at
    # every level those of the loop with the stencil derivative of eta1 alone

    @pytest.mark.parametrize("taus", [BOX_TAUS, OUT_OF_BOX_TAUS], ids=["box", "out_of_box"])
    def test_abs_connection(self, taus):
        for t in taus:
            for n in range(9):
                for got, want in zip(abs_connection(n, t), reference_connection(n, t)):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    @staticmethod
    def residual(n, t, d_omega_z):
        omega_z, omega_tau = reference_connection(n, t)
        return float(np.max(np.abs(-d_omega_z - omega_tau @ omega_z + omega_z @ omega_tau)))

    @pytest.mark.parametrize("taus", [BOX_TAUS, OUT_OF_BOX_TAUS], ids=["box", "out_of_box"])
    def test_curvature_residual_matrix_stencil(self, taus):
        h = logsheaf._CURVATURE_STEP
        for t in taus:
            for n in (0, 1, 2):
                d_omega_z = richardson(
                    [reference_connection(n, s)[0] for s in stencil_nodes(t, h).tolist()], h)
                assert curvature_residual(n, t) == self.residual(n, t, d_omega_z)

    @pytest.mark.parametrize("taus", [BOX_TAUS, OUT_OF_BOX_TAUS], ids=["box", "out_of_box"])
    def test_curvature_residual(self, taus):
        h = logsheaf._CURVATURE_STEP
        for t in taus:
            d_eta1 = richardson(
                np.array([eta_periods(s).eta1 for s in stencil_nodes(t, h).tolist()]), h)
            for n in range(7):
                d_omega_z = (oracles.abs_connection_loop(n, d_eta1, 0)[0]
                             - oracles.abs_connection_loop(n, 0, 0)[0])
                assert curvature_residual(n, t) == self.residual(n, t, d_omega_z)


class TestLevel:
    @pytest.mark.parametrize("level", [-1, True, False, 1.0, 1.5, "1", None])
    @pytest.mark.parametrize("fn", [abs_connection, curvature_residual])
    def test_not_a_level(self, fn, level):
        # refused before any tau work: the bad tau would raise otherwise
        with pytest.raises(ValueError, match=f"^level must be >= 0, got {level!r}$"):
            fn(level, -1j)

    @pytest.mark.parametrize("fn", [abs_connection, curvature_residual])
    def test_numpy_integer_level(self, fn):
        a, b = fn(np.int64(2), TAU_A), fn(2, TAU_A)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
