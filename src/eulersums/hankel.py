"""Hankel-integral cross-check for v(s).

The contour integral behind it reduces on the positive real axis to

    G(s) = (1/Gamma(s)) * integral_0^inf x^(s-1) e^(-x)/(1+e^(-x))
                                         log((1-e^(-x))/x) dx,

and the identity under test says

    G(s) = v(s) - zeta(s+1) - psi(s) eta(s) - eta'(s)

wherever both sides make sense.  The integral is evaluated here for real
s in (-1, inf) excluding the integers >= 0 (positive integers are outside
the identity's domain; at non-positive ones the 1/Gamma normalization
degenerates and the exact route ``g_exact_neg_even`` serves those points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleProximity, QuadratureFailure, UnsupportedRegion
from .numeric import (
    HEURISTIC,
    AccelConfig,
    DEFAULT_CONFIG,
    ValueWithError,
    _unit_nodes,
    digamma_num,
    direct_v,
    eta_num,
    eta_prime_num,
    gamma_num,
    harmonic_alt,
    v_num,
    zeta_num,
)

__all__ = [
    "ResidualReport",
    "g_integrand",
    "g_num",
    "theorem4_residual",
    "log_series_check",
]

# below this x the direct log((1-e^(-x))/x) loses digits to cancellation
# (relative error ~ 2 eps / x); at 1e-3 both branches carry >= 12 digits,
# which the seam unit test pins down
_SERIES_SWITCH = 1e-3


@dataclass(frozen=True)
class ResidualReport:
    """Both sides of the Hankel identity at s, and their mismatch."""

    s: complex
    lhs: ValueWithError
    rhs: ValueWithError
    residual: float


def _log_factor_series(x: np.ndarray) -> np.ndarray:
    # log((1-e^(-x))/x) = -x/2 + x^2/24 - x^4/2880 + x^6/181440 - ...
    x2 = x * x
    return x * (-0.5 + x / 24.0) - x2 * x2 / 2880.0 + x2 * x2 * x2 / 181440.0


def _log_factor_direct(x: np.ndarray) -> np.ndarray:
    return np.log(-np.expm1(-x) / x)


def _log_factor_vec(x: np.ndarray) -> np.ndarray:
    """log((1 - e^(-x))/x) for x > 0 without cancellation near 0."""
    small = x < _SERIES_SWITCH
    direct = _log_factor_direct(np.where(small, 1.0, x))
    return np.where(small, _log_factor_series(x), direct)


def _fermi_vec(x: np.ndarray) -> np.ndarray:
    # e^(-x)/(1+e^(-x)) = 1/(e^x + 1), overflow-safe
    capped = np.minimum(x, 700.0)
    return np.where(x < 700.0, 1.0 / (np.exp(capped) + 1.0), np.exp(-x))


def g_integrand(s: complex | float, x: float) -> complex:
    """x^(s-1) e^(-x)/(1+e^(-x)) log((1-e^(-x))/x), the real-axis reduction
    of the Hankel integrand."""
    if x <= 0:
        raise ValueError("x must be > 0")
    s = complex(s)
    exponent = s.real if s.imag == 0 else s
    return complex(_integrand_vec(exponent, np.array([float(x)]))[0])


def _integrand_vec(s: complex | float, x: np.ndarray) -> np.ndarray:
    return x ** (s - 1.0) * _fermi_vec(x) * _log_factor_vec(x)


def _panel_edges(s: float, tol_int: float) -> tuple[np.ndarray, float, float]:
    """Geometric panels [eps, X] plus rigorous bounds for the cut-off tails.

    Near 0 the integrand behaves like -x^s/4, so |tail_0| <= eps^(s+1)/3;
    above X >= 8 it is dominated by 2 e^(-X) X^max(s-1,0) (log X + 1).
    """
    eps = 0.25
    low = eps ** (s + 1.0) / 3.0
    halvings = 0
    while low > tol_int / 4.0:
        eps /= 2.0
        low = eps ** (s + 1.0) / 3.0
        halvings += 1
        if halvings > 5000:
            raise QuadratureFailure("endpoint refinement did not close")
    hi = 8.0
    while 2.0 * math.exp(-hi) * hi ** max(s - 1.0, 0.0) * (math.log(hi) + 1.0) > tol_int / 4.0:
        hi *= 2.0
        if hi > 1e5:
            raise QuadratureFailure("upper cutoff did not close")
    edges = [eps]
    while edges[-1] < hi:
        edges.append(min(edges[-1] * 2.0, hi))
    return np.array(edges), low, 2.0 * math.exp(-hi) * hi ** max(s - 1.0, 0.0) * (
        math.log(hi) + 1.0
    )


def _panel_integral(s: float, edges: np.ndarray, nodes: int) -> float:
    x01, w01 = _unit_nodes(nodes)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        xs = a + (b - a) * x01
        total += (b - a) * float(np.sum(w01 * _integrand_vec(s, xs)))
    return total


def g_num(s: float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """G(s) for real s > -1, s not a non-negative integer, by panelled
    Gauss-Legendre quadrature of the real-axis integral divided by
    Gamma(s).  Node doubling supplies the error estimate; a stalled
    refinement raises QuadratureFailure."""
    s = float(s)
    if s <= -1.0:
        raise UnsupportedRegion("the real-axis integral needs s > -1")
    guard = max(cfg.tol, 1e-9)
    if s > -guard and abs(s - round(s)) < guard:
        raise PoleProximity(
            f"G is not evaluated at integer s >= 0 (got s={s})"
        )
    gamma = gamma_num(s, cfg)
    tol_int = cfg.tol * abs(gamma.value) / 2.0
    edges, low_tail, high_tail = _panel_edges(s, tol_int)
    coarse = _panel_integral(s, edges, cfg.quad_nodes)
    fine = _panel_integral(s, edges, 2 * cfg.quad_nodes)
    diff = abs(fine - coarse)
    if diff > tol_int:
        finer = _panel_integral(s, edges, 4 * cfg.quad_nodes)
        diff = abs(finer - fine)
        fine = finer
        if diff > tol_int:
            raise QuadratureFailure(
                f"node doubling still moves the integral by {diff:.3g}"
            )
    int_err = diff + low_tail + high_tail
    value = fine / gamma.value
    bound = (
        int_err / abs(gamma.value)
        + abs(value) * gamma.error_bound / abs(gamma.value)
        + 1e-16 * abs(value)
    )
    return ValueWithError(complex(value), bound, HEURISTIC)


def theorem4_residual(
    s: float,
    cfg: AccelConfig = DEFAULT_CONFIG,
    v_source: str = "accelerated",
) -> ResidualReport:
    """Evaluate both sides of G(s) = v(s) - zeta(s+1) - psi(s) eta(s) - eta'(s)
    at real s > 0 (non-integer) and report the residual.

    v_source picks the v evaluator for the right side: "accelerated"
    (the tail-expansion continuation; default, accurate for all s > 0) or
    "direct" (plain partial sums; only competitive for s comfortably
    above 1, since the direct series converges like N^(-s))."""
    s = float(s)
    if s <= 0:
        raise UnsupportedRegion("identity test covers s > 0 only")
    if v_source not in ("accelerated", "direct"):
        raise ValueError(f"unknown v_source {v_source!r}")
    lhs = g_num(s, cfg)
    v = v_num(s, cfg) if v_source == "accelerated" else direct_v(s, cfg)
    z = zeta_num(s + 1.0, cfg)
    psi = digamma_num(s, cfg)
    eta = eta_num(s, cfg)
    etap = eta_prime_num(s, cfg)
    rhs_value = v.value - z.value - psi.value * eta.value - etap.value
    rhs_err = (
        v.error_bound
        + z.error_bound
        + abs(psi.value) * eta.error_bound
        + abs(eta.value) * psi.error_bound
        + psi.error_bound * eta.error_bound
        + etap.error_bound
    )
    rhs = ValueWithError(rhs_value, rhs_err, HEURISTIC)
    return ResidualReport(complex(s), lhs, rhs, abs(lhs.value - rhs.value))


def log_series_check(x: float, n_terms: int = 200) -> float:
    """|log(1-e^(-x))/(1+e^(-x)) - sum_{n=1}^{N} (-1)^n H_n^- e^(-nx)|,
    the expansion feeding the Hankel reduction; a unit-level identity."""
    if not 0 < x <= 1:
        raise ValueError("x must lie in (0, 1]")
    lhs = math.log(-math.expm1(-x)) / (1.0 + math.exp(-x))
    rhs = 0.0
    for n in range(1, n_terms + 1):
        rhs += (-1) ** n * float(harmonic_alt(n)) * math.exp(-n * x)
    return abs(lhs - rhs)
