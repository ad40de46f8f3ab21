"""Shared numerical kernels: lattice truncation recipes, finite differences
and Cauchy coefficient extraction.

Everything here is deterministic: fixed stencils, fixed sample counts. No
randomness, no environment-dependent branching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# central differences at step, step/2, step/4, extrapolated twice: O(step^6)
_RICHARDSON_DEPTH = 2


class NonFiniteError(ArithmeticError):
    """A stencil, quadrature or lattice-sum evaluation produced inf or nan."""


class AliasingError(ArithmeticError):
    """Cauchy coefficients disagree between two sample counts."""


@dataclass(frozen=True)
class LatticeTruncation:
    """Truncation recipe for double sums over the period lattice: the square
    |m|, |n| <= shell_radius, whose terms naive sums add exactly rounded (one
    math.fsum over the row sums), so no order of the rows enters. At a fixed
    radius both orderings hold the same terms; an order would matter only in
    a limit R -> oo, which this truncation never takes. ordering "box"
    declares the sum absolutely convergent: it is refused for conditionally
    convergent sums and otherwise sums as "eisenstein".
    """

    shell_radius: int
    ordering: str = "eisenstein"

    def __post_init__(self) -> None:
        object.__setattr__(self, "shell_radius", _integer("shell_radius", self.shell_radius, 1))
        if self.ordering not in ("eisenstein", "box"):
            raise ValueError(f"unknown ordering {self.ordering!r}")


def _integer(name: str, value, least: int | None = None, most: int | None = None) -> int:
    """value as an int if it is an int or a numpy integer, not a bool, within the
    bounds given; else ValueError naming it. Callers check before any tau work."""
    integer = type(value) is int or (isinstance(value, (int, np.integer))
                                     and not isinstance(value, bool))
    if not integer or (least is not None and value < least) or (most is not None and value > most):
        bound = ("an integer" if least is None else f">= {least}" if most is None
                 else f"in {least}..{most}")
        raise ValueError(f"{name} must be {bound}, got {value!r}")
    return int(value)


def _cosets(D: int) -> list:  # the D^2 - 1 nonzero cosets (c, d) mod D
    return [(c, d) for c in range(D) for d in range(D) if c or d]


def _check_contour(radius, samples, least: int) -> int:
    # a finite radius > 0, and an int sample count >= least (a trapezoid rule)
    if not 0.0 < radius < math.inf:
        raise ValueError(f"radius must be finite and > 0, got {radius!r}")
    return _integer("samples", samples, least)


@dataclass(frozen=True)
class CauchyConfig:
    """Contour sampling for Taylor coefficient extraction.

    self_check re-evaluates with doubled sample count and signals aliasing
    when the top coefficient moves by more than a factor of 10.
    """

    radius: float
    samples: int = 256
    self_check: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _check_contour(self.radius, self.samples, 16))


def stencil_nodes(at, step: float) -> np.ndarray:
    """The nodes at +-h, h = step / 2^i, i = 0.._RICHARDSON_DEPTH, in richardson's order."""
    hs = [step / (2.0**i) for i in range(_RICHARDSON_DEPTH + 1)]
    return np.array([x for h in hs for x in (at + h, at - h)])


def richardson(values, step: float):
    """Central differences, Richardson-extrapolated, from f's values (scalars or
    arrays) at stencil_nodes(at, step) along the first axis; NonFiniteError on inf or nan."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("non-finite stencil value")
    table = [(values[2 * i] - values[2 * i + 1]) / (2.0 * (step / (2.0**i)))
             for i in range(_RICHARDSON_DEPTH + 1)]
    for j in range(1, _RICHARDSON_DEPTH + 1):
        fac = 4.0**j
        table = [(fac * table[i + 1] - table[i]) / (fac - 1.0) for i in range(len(table) - 1)]
    return table[0] if isinstance(table[0], np.ndarray) else complex(table[0])


def _circle_values(
    f: Callable[[complex], complex], center: complex, radius: float, samples: int
) -> np.ndarray:
    nodes = center + radius * np.exp(2j * np.pi * np.arange(samples) / samples)
    try:
        vals = np.asarray(f(nodes), dtype=complex)
        if vals.shape != nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([f(w) for w in nodes], dtype=complex)
    if not np.all(np.isfinite(vals)):
        raise NonFiniteError("non-finite value on sampling circle")
    return vals


def cauchy_coeffs(
    f: Callable[[complex], complex], order: int, cfg: CauchyConfig
) -> list[complex]:
    """Taylor coefficients c_0..c_order of f about 0.

    Trapezoid rule on the circle |w| = cfg.radius, evaluated through
    the FFT; exponentially accurate for f analytic on a neighbourhood of the
    closed disc. f may be vectorized over numpy arrays (used if available).
    """
    order = _integer("order", order, 0)
    if cfg.samples <= 2 * (order + 1):
        raise ValueError(f"samples={cfg.samples} too small for order {order}")

    def coeffs_at(samples: int) -> np.ndarray:
        vals = _circle_values(f, 0.0, cfg.radius, samples)
        hat = np.fft.fft(vals) / samples
        k = np.arange(order + 1)
        return hat[: order + 1] / cfg.radius**k

    out = coeffs_at(cfg.samples)
    if cfg.self_check:
        fine = coeffs_at(2 * cfg.samples)
        scale = max(np.max(np.abs(out)), np.max(np.abs(fine)), 1e-300)
        a, b = abs(out[order]), abs(fine[order])
        floor = 1e-12 * scale
        if max(a, b) > floor and max(a, b) > 10.0 * max(min(a, b), floor):
            raise AliasingError(
                f"top coefficient moved {a:.3e} -> {b:.3e} when doubling samples"
            )
        out = fine
    return [complex(c) for c in out]


def contour_integral(
    f: Callable[[complex], complex], center: complex, radius: float, samples: int = 256
) -> complex:
    """Integral of f over the positively oriented circle of given center and
    radius, by the trapezoid rule (exponentially accurate for f analytic on
    an annulus around the contour)."""
    samples = _check_contour(radius, samples, 1)
    nodes = np.exp(2j * np.pi * np.arange(samples) / samples)
    vals = _circle_values(f, center, radius, samples)
    return complex(2j * np.pi * radius / samples * np.sum(vals * nodes))
