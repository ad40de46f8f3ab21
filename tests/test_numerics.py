import math

import numpy as np
import pytest

import oracles
from epolylog.numerics import (
    AliasingError,
    CauchyConfig,
    LatticeTruncation,
    NonFiniteError,
    cauchy_coeffs,
    contour_integral,
    richardson,
    stencil_nodes,
)


class TestLatticeTruncation:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatticeTruncation(0)
        with pytest.raises(ValueError):
            LatticeTruncation(5, ordering="spiral")

    def test_integer_radius(self):
        for bad in (2.5, 3.0, True, False, "3", None):
            with pytest.raises(ValueError):
                LatticeTruncation(bad)
        assert LatticeTruncation(1).shell_radius == 1

    def test_numpy_integer_radius(self):
        # a numpy integer radius is the int radius: same field, same naive F bits
        from epolylog.eisenstein import EisensteinQuery, F

        trunc = LatticeTruncation(np.int64(60))
        assert type(trunc.shell_radius) is int and trunc == LatticeTruncation(60)
        got, want = (F(EisensteinQuery(a=1, b=2, N=5, k=3, tau=0.21 + 1.1j, mode="naive",
                                       trunc=LatticeTruncation(R))) for R in (np.int64(60), 60))
        assert np.array(got).tobytes() == np.array(want).tobytes()
        with pytest.raises(ValueError, match=r"^shell_radius must be >= 1, got np.int64\(0\)$"):
            LatticeTruncation(np.int64(0))


def node_by_node(f, at, step):
    """richardson of f called at each stencil node, as curvature_residual runs it."""
    return richardson([f(x) for x in stencil_nodes(at, step).tolist()], step)


class TestRichardson:
    def test_exp(self):
        # roundoff floor ~ulp/step with step 1e-4
        at = 0.3 + 0.2j
        d = richardson(np.exp(stencil_nodes(at, 1e-4)), 1e-4)
        assert abs(d - np.exp(at)) < 1e-10

    def test_richardson_improves(self):
        # against the plain central difference at the same first step
        f, at, h = np.sin, 0.7, 1e-2
        coarse = abs((f(at + h) - f(at - h)) / (2.0 * h) - math.cos(at))
        fine = abs(richardson(f(stencil_nodes(at, h)), h) - math.cos(at))
        assert fine < coarse / 100.0

    def test_nonfinite(self):
        with pytest.raises(NonFiniteError):
            node_by_node(lambda z: math.nan, 0.3, 1e-4)

    def test_array_valued_matches_componentwise(self):
        f = lambda x: np.array([np.exp(x), 1j * np.sin(x), x**3 / 7.0])
        for at, step in ((0.3 + 0.2j, 1e-4), (2.5, 1e-3)):
            vec = node_by_node(f, at, step)
            assert vec.shape == (3,)
            for i in range(3):
                assert node_by_node(lambda x: f(x)[i], at, step) == vec[i]

    def test_array_valued_nonfinite_component(self):
        with pytest.raises(NonFiniteError):
            node_by_node(lambda x: np.array([x, math.nan]), 0.3, 1e-4)

    def test_split_keeps_the_loop_bits(self):
        # the central differences written as one loop over the levels are the
        # reference; richardson of an f that numpy evaluates elementwise, called
        # once on the whole node array as heat_residual's grid does, gives
        # the bits of f called node by node, and so does oracles.stencil_loop
        def loop(f, at, step):
            table = []
            for i in range(3):
                h = step / (2.0**i)
                table.append((f(at + h) - f(at - h)) / (2.0 * h))
            for j in (1, 2):
                fac = 4.0**j
                table = [(fac * table[i + 1] - table[i]) / (fac - 1.0)
                         for i in range(len(table) - 1)]
            return complex(table[0]) if np.ndim(table[0]) == 0 else table[0]

        f = lambda x: np.sin(np.exp(x))
        vec = lambda x: np.array([np.exp(x), np.sin(x), np.cos(2.0 * x)])
        for at in (0.3 + 0.2j, 2.5, -1.1 + 0.7j):
            for step in (1e-4, 1e-3, 0.1):
                got = node_by_node(f, at, step)
                assert got == loop(f, at, step) == oracles.stencil_loop(f, at, step)
                assert richardson(f(stencil_nodes(at, step)), step) == got
                assert np.array_equal(node_by_node(vec, at, step), loop(vec, at, step))
                assert np.array_equal(richardson(vec(stencil_nodes(at, step)).T, step),
                                      node_by_node(vec, at, step))


class TestCauchyCoeffs:
    def test_polynomial_exact(self):
        cs = cauchy_coeffs(lambda w: 3.0 + 2.0 * w + w**5, 6, CauchyConfig(radius=0.7))
        expect = [3.0, 2.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        assert max(abs(a - b) for a, b in zip(cs, expect)) < 1e-13

    def test_geometric(self):
        # 1/(1 - w/2) = sum (w/2)^k, pole at 2 comfortably outside |w| = 0.5
        cs = cauchy_coeffs(lambda w: 1.0 / (1.0 - w / 2.0), 8, CauchyConfig(radius=0.5))
        assert max(abs(cs[k] - 0.5**k) for k in range(9)) < 1e-14

    def test_vectorized_and_scalar_agree(self):
        cfg = CauchyConfig(radius=0.4)
        vec = cauchy_coeffs(np.exp, 5, cfg)
        scal = cauchy_coeffs(lambda w: math.e ** complex(w), 5, cfg)
        assert max(abs(a - b) for a, b in zip(vec, scal)) < 1e-15

    def test_aliasing_detected(self):
        # frequency-16 content folds onto c_0 at 16 samples, not at 32
        with pytest.raises(AliasingError):
            cauchy_coeffs(lambda w: 0.01 + (w / 0.5) ** 16, 0,
                          CauchyConfig(radius=0.5, samples=16))

    def test_self_check_off_keeps_alias(self):
        cs = cauchy_coeffs(lambda w: 0.01 + (w / 0.5) ** 16, 0,
                           CauchyConfig(radius=0.5, samples=16, self_check=False))
        assert abs(cs[0] - 1.01) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            cauchy_coeffs(np.exp, 20, CauchyConfig(radius=0.5, samples=32))
        with pytest.raises(ValueError):
            CauchyConfig(radius=-1.0)
        with pytest.raises(ValueError):
            CauchyConfig(radius=0.5, samples=8)

    @pytest.mark.parametrize("order", [-1, True, 2.5, "2", None])
    def test_order_must_be_an_integer(self, order):
        with pytest.raises(ValueError, match=f"^order must be >= 0, got {order!r}$"):
            cauchy_coeffs(np.exp, order, CauchyConfig(radius=0.5))

    def test_numpy_integer_order(self):
        cs = cauchy_coeffs(np.exp, np.int64(2), CauchyConfig(radius=0.5))
        assert cs == cauchy_coeffs(np.exp, 2, CauchyConfig(radius=0.5))

    @pytest.mark.parametrize("samples", [300.7, 64.0, True, "64", 8, None])
    def test_sample_count_must_be_an_integer(self, samples):
        # 300.7 samples read c_0 of exp as 1.0016: not a trapezoid rule
        with pytest.raises(ValueError) as info:
            CauchyConfig(radius=0.5, samples=samples)
        assert str(info.value) == f"samples must be >= 16, got {samples!r}"

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -1.0])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            CauchyConfig(radius=radius)

    def test_numpy_integer_sample_count(self):
        cfg = CauchyConfig(radius=0.5, samples=np.int64(64))
        assert type(cfg.samples) is int and cfg == CauchyConfig(radius=0.5, samples=64)
        assert cauchy_coeffs(np.exp, 2, cfg) == cauchy_coeffs(np.exp, 2, CauchyConfig(0.5, 64))


class TestContourIntegral:
    def test_residue(self):
        val = contour_integral(lambda w: 1.0 / w, 0.0, 0.7)
        assert abs(val - 2j * np.pi) < 1e-13

    def test_analytic_vanishes(self):
        assert abs(contour_integral(np.exp, 0.3, 0.5)) < 1e-13

    @pytest.mark.parametrize("samples", [-5, 0, 32.5, 32.0, False, True, "32"])
    def test_sample_count_must_be_a_positive_integer(self, samples):
        # -5 samples returned -0j and 32.5 returned 6.3798i for 6.2832i
        with pytest.raises(ValueError) as info:
            contour_integral(lambda w: 1.0 / w, 0.0, 0.5, samples)
        assert str(info.value) == f"samples must be >= 1, got {samples!r}"

    @pytest.mark.parametrize("radius", [math.nan, math.inf, 0.0, -0.5])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="radius must be finite and > 0"):
            contour_integral(lambda w: 1.0 / w, 0.0, radius)

    @pytest.mark.parametrize("samples", [1, 32, np.int64(32)])
    def test_integer_sample_counts_run(self, samples):
        val = contour_integral(lambda w: 1.0 / w, 0.0, 0.5, samples)
        assert abs(val - 2j * np.pi) < 1e-13

