"""Floating-point evaluators for eta, zeta, psi, and the series u, v, w.

The alternating series (eta and the tails of u, v) are accelerated with
Boole summation: the tail sum_{k>=0} (-1)^k f(N+k) for f(x) = x^(-s) is
expanded in Euler-polynomial values at 0,

    T(N, s) = N^(-s)/2
              - (1/2) sum_{m=0}^{q-1} (s)_{2m+1}/(2m+1)! E_{2m+1}(0)
                                      N^-(s+2m+1)
              + R,
    |R| <= (1/2) |(s)_{2q}|/(2q-1)! sup|E_{2q-1}| N^(1-sigma-2q)
           / (sigma + 2q - 1),

with (s)_k = s(s+1)...(s+k-1) and sigma = Re s.  Over a period,
sup|Ebar_{2q-1}| = |E_{2q-1}(0)|: the Fourier series of an odd-index
Euler polynomial is a cosine series that peaks at t = 0 (DLMF 24.8).
The same expansion with the remainder integral kept (a periodic-kernel
integral against the auxiliary series phi) yields the analytic
continuations of u, v; w uses the Euler-Maclaurin analogue with
Bernoulli numbers.  Every evaluator returns a ``ValueWithError``; bounds
are explicit tail majorants where available ("rigorous") and refinement
differences otherwise ("heuristic").
"""

from __future__ import annotations

import cmath
import contextvars
import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.polynomial import polyval

from .closed_forms import eta_nonpositive, zeta_nonpositive
from .errors import (
    DenominatorDegenerate,
    NonConvergence,
    PoleProximity,
    UnsupportedRegion,
)
from .exact import bernoulli, euler_polynomial, euler_zero

__all__ = [
    "ComplexValue",
    "ValueWithError",
    "AccelConfig",
    "DEFAULT_CONFIG",
    "TermCounter",
    "counting_terms",
    "harmonic",
    "harmonic_alt",
    "eta_num",
    "zeta_num",
    "eta_prime_num",
    "gamma_num",
    "digamma_num",
    "phi_minus",
    "phi_plus",
    "euler_bar",
    "bernoulli_bar",
    "u_num",
    "v_num",
    "w_num",
    "direct_u",
    "direct_v",
    "direct_w",
]

ComplexValue = complex

RIGOROUS = "rigorous"
HEURISTIC = "heuristic"


@dataclass(frozen=True)
class ValueWithError:
    """A numeric value plus an error bound and the bound's pedigree."""

    value: complex
    error_bound: float
    bound_kind: str = RIGOROUS

    def __post_init__(self) -> None:
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonConvergence("non-finite value produced")
        if not (math.isfinite(self.error_bound) and self.error_bound >= 0):
            raise NonConvergence("non-finite or negative error bound")
        if self.bound_kind not in (RIGOROUS, HEURISTIC):
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")


@dataclass(frozen=True)
class AccelConfig:
    """Knobs for the tail expansions and remainder quadrature.

    q          truncation order of the tail expansion; None = automatic
               ceil(|Re s|) + 3, which always satisfies the validity
               requirement q > 1 + |Re s|.
    series_cutoff   hard cap on the number of terms any one series sums.
    quad_nodes      Gauss-Legendre nodes per unit interval of the kernel.
    period_cap      maximum number of kernel periods integrated.
    tol             target tolerance for adaptive truncation choices.
    """

    q: int | None = None
    series_cutoff: int = 500_000
    quad_nodes: int = 24
    period_cap: int = 256
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.q is not None and self.q < 1:
            raise ValueError("q must be positive")
        if self.series_cutoff < 8:
            raise ValueError("series_cutoff too small")
        if self.quad_nodes < 2:
            raise ValueError("quad_nodes must be >= 2")
        if self.period_cap < 4:
            raise ValueError("period_cap must be >= 4")
        if not (self.tol > 0):
            raise ValueError("tol must be positive")

    def resolve_q(self, s: complex) -> int:
        if self.q is None:
            return math.ceil(abs(s.real)) + 3
        if self.q <= 1 + abs(s.real):
            raise ValueError(
                f"q={self.q} violates q > 1 + |Re s| at s={s}"
            )
        return self.q


DEFAULT_CONFIG = AccelConfig()


# --------------------------------------------------------------------------
# Term counting (used by the benchmark to compare method costs)

@dataclass
class TermCounter:
    series_terms: int = 0
    quad_evals: int = 0


_counter_var: contextvars.ContextVar[TermCounter | None] = contextvars.ContextVar(
    "eulersums_term_counter", default=None
)


@contextmanager
def counting_terms(counter: TermCounter):
    token = _counter_var.set(counter)
    try:
        yield counter
    finally:
        _counter_var.reset(token)


def _tick(series: int = 0, quad: int = 0) -> None:
    counter = _counter_var.get()
    if counter is not None:
        counter.series_terms += series
        counter.quad_evals += quad


# --------------------------------------------------------------------------
# Exact harmonic numbers

def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def harmonic_alt(n: int) -> Fraction:
    """H_n^- = 1 - 1/2 + 1/3 - ... + (-1)^(n-1)/n, exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(
        (Fraction((-1) ** (k - 1), k) for k in range(1, n + 1)), Fraction(0)
    )


# --------------------------------------------------------------------------
# Periodic polynomial kernels

@functools.cache
def _euler_coeffs(q: int) -> np.ndarray:
    return np.array(
        [float(c) for c in euler_polynomial(q).coefficients], dtype=float
    )


@functools.cache
def _bernoulli_poly_coeffs(k: int) -> np.ndarray:
    # B_k(x) = sum_j C(k, j) B_j x^(k-j); coefficient of x^i is C(k,i) B_{k-i}.
    return np.array(
        [float(math.comb(k, i) * bernoulli(k - i)) for i in range(k + 1)],
        dtype=float,
    )


def euler_bar(q: int, t: float) -> float:
    """Antiperiodic extension of E_q: equals E_q on [0, 1],
    flips sign on each unit step (period 2 overall)."""
    return float(_euler_bar_vec(q, np.asarray([t], dtype=float))[0])


def bernoulli_bar(k: int, t: float) -> float:
    """Period-1 extension of the Bernoulli polynomial B_k."""
    return float(_bern_bar_vec(k, np.asarray([t], dtype=float))[0])


def _euler_bar_vec(q: int, t: np.ndarray) -> np.ndarray:
    r = np.mod(t, 2.0)
    r = np.where(r >= 2.0, 0.0, r)  # np.mod can round up to the period
    flip = r >= 1.0
    rr = np.where(flip, r - 1.0, r)
    vals = polyval(rr, _euler_coeffs(q))
    return np.where(flip, -vals, vals)


def _bern_bar_vec(k: int, t: np.ndarray) -> np.ndarray:
    r = np.mod(t, 1.0)
    r = np.where(r >= 1.0, 0.0, r)
    return polyval(r, _bernoulli_poly_coeffs(k))


@functools.cache
def _kernel_sup(kind: str, order: int) -> float:
    """sup |kernel| over a period, from the Fourier series of the Euler
    and Bernoulli polynomials (DLMF 24.8): |E_n(0)| for odd n, and
    2 k! z/(2 pi)^k for odd k >= 3, with z = 1 + 2^-k + 2^(1-k)/(k-1)
    >= zeta(k).  The Bernoulli bound is formed exactly, with the float
    2 pi (below the true 2 pi); both are rounded up one ulp so the float
    never falls below the exact sup."""
    if kind == "euler":
        sup = abs(float(euler_zero(order)))
    else:
        z = 1 + Fraction(1, 2**order) + Fraction(2, 2**order * (order - 1))
        sup = float(2 * factorial(order) * z / Fraction(2 * math.pi) ** order)
    return math.nextafter(sup, math.inf)


# --------------------------------------------------------------------------
# Small helpers

def _poch(s: complex, k: int) -> complex:
    """Rising factorial (s)_k = s (s+1) ... (s+k-1); exact 0 when the range
    covers a zero."""
    p = complex(1.0)
    for j in range(k):
        p *= s + j
        if p == 0:
            return 0j
    return p


def _is_int(z: complex, eps: float = 1e-12) -> int | None:
    if abs(z.imag) < eps and abs(z.real - round(z.real)) < eps:
        return round(z.real)
    return None


def _cutoff_ladder(cap: int):
    n = 8
    while True:
        yield min(n, cap)
        if n >= cap:
            return
        n *= 2


def _cpow(base: float, expo: complex) -> complex:
    # base**(-expo) for base > 0 without branch surprises
    return cmath.exp(-expo * math.log(base))


# --------------------------------------------------------------------------
# eta, zeta and eta'

def _boole_remainder_bound(s: complex, q: int, n_cut: int) -> float:
    sigma = s.real
    coeff = abs(_poch(s, 2 * q)) / factorial(2 * q - 1)
    sup = _kernel_sup("euler", 2 * q - 1)
    return 0.5 * coeff * sup * n_cut ** (1 - sigma - 2 * q) / (sigma + 2 * q - 1)


def _alternating_partial(s: complex, n_cut: int) -> tuple[complex, float]:
    """sum_{n=1}^{n_cut-1} (-1)^(n-1) n^(-s), plus the sum of |terms|."""
    n = np.arange(1, n_cut, dtype=float)
    terms = np.exp(-complex(s) * np.log(n))
    signs = np.where((np.arange(1, n_cut) % 2) == 1, 1.0, -1.0)
    _tick(series=n_cut - 1)
    return complex(np.sum(signs * terms)), float(np.sum(np.abs(terms)))


def _boole_coeffs(s: complex, q: int):
    """Yield (m, (s)_{2m+1}/(2m+1)!, E_{2m+1}(0)) for m < q, skipping the
    terms whose Pochhammer factor vanishes exactly."""
    for m in range(q):
        c = _poch(s, 2 * m + 1) / factorial(2 * m + 1)
        if c != 0:
            yield m, c, float(euler_zero(2 * m + 1))


def _boole_tail(s: complex, q: int, n_cut: int) -> complex:
    """T(N, s) = sum_{k>=0} (-1)^k (N+k)^(-s), by the Euler-polynomial
    expansion (remainder dropped; bound it separately)."""
    tail = 0.5 * _cpow(n_cut, s)
    for m, c, e_val in _boole_coeffs(s, q):
        tail -= 0.5 * c * e_val * _cpow(n_cut, s + 2 * m + 1)
    _tick(series=q)
    return tail


def eta_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Dirichlet eta at any complex s: direct alternating partial sum plus
    the Boole tail expansion, which also provides the continuation to
    Re s <= 0 (the remainder coefficient vanishes identically at
    non-positive integers, making those values exact up to rounding)."""
    s = complex(s)
    q = cfg.resolve_q(s)
    for n_cut in _cutoff_ladder(cfg.series_cutoff):
        rem = _boole_remainder_bound(s, q, n_cut)
        if rem <= cfg.tol / 2:
            break
    else:
        raise NonConvergence(
            f"eta tail bound stuck at {rem:.3g} at the series cutoff (s={s})"
        )
    partial, absmag = _alternating_partial(s, n_cut)
    sign = 1.0 if n_cut % 2 == 1 else -1.0
    tail = _boole_tail(s, q, n_cut)
    value = partial + sign * tail
    slop = 4e-16 * (absmag + abs(tail))
    return ValueWithError(value, rem + slop, RIGOROUS)


def zeta_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """zeta(s) = eta(s) / (1 - 2^(1-s)).

    Refuses within tol of the pole s = 1 and near the complex zeros of
    the denominator (s = 1 + 2 pi i k / log 2, k != 0), where the formula
    is numerically degenerate."""
    s = complex(s)
    if abs(s - 1) < max(cfg.tol, 1e-14):
        raise PoleProximity(f"zeta has a pole at s=1 (got s={s})")
    denom = 1 - cmath.exp((1 - s) * math.log(2.0))
    if abs(denom) < max(cfg.tol, 1e-14):
        raise DenominatorDegenerate(
            f"1 - 2^(1-s) vanishes to working tolerance at s={s}"
        )
    e = eta_num(s, cfg)
    value = e.value / denom
    bound = e.error_bound / abs(denom) + 2e-16 * abs(value)
    return ValueWithError(value, bound, e.bound_kind)


def eta_prime_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """eta'(s) = sum (-1)^n log(n) n^(-s) for Re s > 0, by differentiating
    the partial-sum-plus-Boole-tail representation of eta in s."""
    s = complex(s)
    sigma = s.real
    if sigma <= 0:
        raise UnsupportedRegion("eta' is evaluated for Re s > 0 only")
    q = cfg.resolve_q(s)
    sup = _kernel_sup("euler", 2 * q - 1)
    poch = _poch(s, 2 * q)
    # d/ds (s)_2q = (s)_2q * sum 1/(s+j); safe since Re s > 0
    dig_sum = sum(1.0 / (s + j) for j in range(2 * q))
    for n_cut in _cutoff_ladder(cfg.series_cutoff):
        a = sigma + 2 * q
        i0 = n_cut ** (1 - a) / (a - 1)
        i1 = n_cut ** (1 - a) * (math.log(n_cut) / (a - 1) + 1.0 / (a - 1) ** 2)
        rem = 0.5 * sup / factorial(2 * q - 1) * (
            abs(poch * dig_sum) * i0 + abs(poch) * i1
        )
        if rem <= cfg.tol / 2:
            break
    else:
        raise NonConvergence(
            f"eta' tail bound stuck at {rem:.3g} at the series cutoff (s={s})"
        )
    # partial: sum_{n=2}^{N-1} (-1)^n log(n) n^(-s)
    n = np.arange(2, n_cut, dtype=float)
    logs = np.log(n)
    terms = logs * np.exp(-s * logs)
    signs = np.where((np.arange(2, n_cut) % 2) == 0, 1.0, -1.0)
    partial = complex(np.sum(signs * terms))
    absmag = float(np.sum(np.abs(terms)))
    _tick(series=n_cut - 2)
    logn = math.log(n_cut)
    tail = -0.5 * logn * _cpow(n_cut, s)
    for m, c, e_val in _boole_coeffs(s, q):
        cp = c * sum(1.0 / (s + j) for j in range(2 * m + 1))
        tail -= 0.5 * e_val * (cp - c * logn) * _cpow(n_cut, s + 2 * m + 1)
    sign = 1.0 if n_cut % 2 == 1 else -1.0
    value = partial + sign * tail
    slop = 4e-16 * (absmag + abs(tail))
    return ValueWithError(value, rem + slop, RIGOROUS)


# --------------------------------------------------------------------------
# gamma and digamma (Stirling series after upward shifts, reflection below)

_STIRLING_SHIFT = 12.0


@functools.cache
def _stirling_tables() -> tuple[list[float], list[float]]:
    lgamma_coeffs = [
        float(bernoulli(2 * k) / ((2 * k) * (2 * k - 1))) for k in range(1, 11)
    ]
    digamma_coeffs = [float(bernoulli(2 * k) / (2 * k)) for k in range(1, 10)]
    return lgamma_coeffs, digamma_coeffs


def _guard_gamma_pole(s: complex, cfg: AccelConfig, what: str) -> None:
    k = _is_int(s, eps=max(cfg.tol, 1e-12))
    if k is not None and k <= 0:
        raise PoleProximity(f"{what} has a pole at s={k}")


def _asymptotic_sum(
    coeffs: list[float], power: complex, step: complex
) -> tuple[complex, float]:
    """sum_j coeffs[j] * power * step^j, and the size of its last term."""
    series = 0j
    last = 0.0
    for c in coeffs:
        term = c * power
        series += term
        last = abs(term)
        power *= step
    return series, last


def _lgamma_core(z: complex) -> tuple[complex, float]:
    """log Gamma for Re z >= 0.5; returns (value, relative error estimate)."""
    lg_coeffs, _ = _stirling_tables()
    acc = 0j
    while z.real < _STIRLING_SHIFT:
        acc -= cmath.log(z)
        z += 1
    zi = 1.0 / z
    series, last = _asymptotic_sum(lg_coeffs, zi, zi * zi)
    val = (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series + acc
    rel = last / max(abs(val), 1.0) + 5e-16
    return val, rel


def gamma_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Gamma(s) via the Stirling series with argument shifts; reflection
    Gamma(s) Gamma(1-s) = pi / sin(pi s) for Re s < 1/2."""
    s = complex(s)
    _guard_gamma_pole(s, cfg, "Gamma")
    if s.real < 0.5:
        lg, rel = _lgamma_core(1 - s)
        value = math.pi / (cmath.sin(math.pi * s) * cmath.exp(lg))
        rel = 4 * rel + 1e-15 * (1 + abs(s))
    else:
        lg, rel = _lgamma_core(s)
        value = cmath.exp(lg)
        rel = 4 * rel
    return ValueWithError(value, abs(value) * rel, HEURISTIC)


def digamma_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """psi(s) by the asymptotic series after shifts; reflection
    psi(s) = psi(1-s) - pi cot(pi s) for Re s < 1/2."""
    s = complex(s)
    _guard_gamma_pole(s, cfg, "psi")
    reflect = s.real < 0.5
    z = (1 - s) if reflect else s
    _, dg_coeffs = _stirling_tables()
    acc = 0j
    while z.real < _STIRLING_SHIFT:
        acc -= 1.0 / z
        z += 1
    zi = 1.0 / z
    series, last = _asymptotic_sum(dg_coeffs, zi * zi, zi * zi)
    val = cmath.log(z) - 0.5 * zi - series + acc
    if reflect:
        val = val - math.pi / cmath.tan(math.pi * s)
    bound = last + 1e-14 * (1 + abs(val))
    return ValueWithError(val, bound, HEURISTIC)


# --------------------------------------------------------------------------
# The auxiliary series phi^-(s, t) and phi^+(s, t)

def _phi_cutoff(sigma: float, target: float, cap: int, alternating: bool,
                real_s: bool) -> tuple[int, float]:
    """Smallest cutoff whose tail bound meets target; returns (N, bound)."""
    for n_cut in _cutoff_ladder(cap):
        if alternating and real_s:
            bound = (n_cut + 1) ** (-1.0 - sigma)
        else:
            bound = n_cut ** (-sigma) / sigma
        if bound <= target:
            return n_cut, bound
    return cap, bound


def _phi_grid(sign: int, s: complex, ts: np.ndarray, n_cut: int) -> np.ndarray:
    """phi^{sign}(s, t) truncated at n_cut, vectorized over the t grid."""
    n = np.arange(1, n_cut + 1, dtype=float)[:, None]
    powers = np.exp(-s * np.log(n + ts[None, :]))
    if sign < 0:
        coeff = (np.where((np.arange(1, n_cut + 1) % 2) == 1, 1.0, -1.0) / n[:, 0])[:, None]
    else:
        coeff = (1.0 / n[:, 0])[:, None]
    _tick(series=n_cut * ts.size)
    return np.sum(coeff * powers, axis=0)


def _phi_scalar(sign: int, s: complex, t: float, cfg: AccelConfig) -> ValueWithError:
    sigma = s.real
    if sigma <= 0:
        raise UnsupportedRegion("phi series need Re s > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    real_s = abs(s.imag) == 0.0
    n_cut, bound = _phi_cutoff(sigma, cfg.tol, cfg.series_cutoff,
                               alternating=(sign < 0), real_s=real_s)
    if bound > cfg.tol:
        raise NonConvergence(
            f"phi truncation bound {bound:.3g} exceeds tol at s={s}"
        )
    val = complex(_phi_grid(sign, s, np.asarray([float(t)]), n_cut)[0])
    if sign < 0 and real_s:
        # alternating next-term bound, sharpened by the actual t
        bound = 1.0 / ((n_cut + 1) * (n_cut + 1 + t) ** sigma)
    return ValueWithError(val, bound + 4e-16 * abs(val) * n_cut ** 0.5, RIGOROUS)


def phi_minus(s: complex | float, t: float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """phi^-(s, t) = sum (-1)^(n-1) / (n (n+t)^s)."""
    return _phi_scalar(-1, complex(s), t, cfg)


def phi_plus(s: complex | float, t: float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """phi^+(s, t) = sum 1 / (n (n+t)^s)."""
    return _phi_scalar(+1, complex(s), t, cfg)


# --------------------------------------------------------------------------
# Remainder integrals: periodic kernel times phi, period by period

@functools.cache
def _unit_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = leggauss(count)
    return (x + 1.0) / 2.0, w / 2.0


def _phi_abs_tail_integral(sup: float, sigma: float, t0: float) -> float:
    """Rigorous bound on integral_{t0}^inf sup * |phi(s, t)| dt using
    |phi(s,t)| <= t^-sigma (2 + 1/sigma + log t) for t >= 1."""
    if sigma <= 1:
        return math.inf
    c0 = 2.0 + 1.0 / sigma
    return sup * t0 ** (1 - sigma) * (
        (c0 + math.log(t0)) / (sigma - 1) + 1.0 / (sigma - 1) ** 2
    )


def _kernel_integral(
    s_shift: complex,
    cfg: AccelConfig,
    kernel: str,
    order: int,
    phi_sign: int,
    tol_local: float,
) -> tuple[complex, float]:
    """integral_0^inf K(t) phi^{phi_sign}(s_shift, t) dt.

    K is the antiperiodic Euler kernel evaluated at -t (kernel="euler",
    period 2) or the periodic Bernoulli kernel at +t (kernel="bernoulli",
    period 1).  Gauss-Legendre nodes per unit interval; periods are added
    until the rigorous remaining-tail majorant drops below tol_local.
    """
    sigma = s_shift.real
    nodes, weights = _unit_nodes(cfg.quad_nodes)
    sup = _kernel_sup(kernel, order)
    # phi truncation target: keep total quadrature-weighted phi error small
    n_cut, phi_bound = _phi_cutoff(
        sigma, tol_local / (8.0 * max(sup, 1e-300)), cfg.series_cutoff,
        alternating=(phi_sign < 0), real_s=abs(s_shift.imag) == 0.0,
    )
    units_per_period = 2 if kernel == "euler" else 1
    total = 0j
    err_phi = 0.0
    absacc = 0.0
    for period in range(cfg.period_cap):
        for half in range(units_per_period):
            j = period * units_per_period + half
            ts = j + nodes
            if kernel == "euler":
                kvals = _euler_bar_vec(order, -ts)
            else:
                kvals = _bern_bar_vec(order, ts)
            phi_vals = _phi_grid(phi_sign, s_shift, ts, n_cut)
            _tick(quad=ts.size)
            wk = weights * kvals
            total += complex(np.sum(wk * phi_vals))
            absacc += float(np.sum(np.abs(wk * phi_vals)))
            err_phi += float(np.sum(np.abs(wk))) * phi_bound
        t_done = (period + 1) * units_per_period
        tail_bound = _phi_abs_tail_integral(sup, sigma, float(t_done))
        if tail_bound <= tol_local and period >= 1:
            break
    else:
        raise NonConvergence(
            f"kernel integral tail {tail_bound:.3g} above target after "
            f"{cfg.period_cap} periods"
        )
    err = err_phi + tail_bound + 1e-14 * absacc
    return total, err


# --------------------------------------------------------------------------
# eta/zeta dispatch helpers (exact at integer arguments where available)

def _eta_at(z: complex, cfg: AccelConfig) -> ValueWithError:
    k = _is_int(z)
    if k is not None and k <= 0:
        v = float(eta_nonpositive(-k))
        return ValueWithError(complex(v), abs(v) * 2e-16, RIGOROUS)
    if k == 1:
        return ValueWithError(complex(math.log(2.0)), 2e-16, RIGOROUS)
    return eta_num(z, cfg)


def _zeta_at(z: complex, cfg: AccelConfig) -> ValueWithError:
    k = _is_int(z)
    if k is not None and k <= 0:
        v = float(zeta_nonpositive(-k))
        return ValueWithError(complex(v), abs(v) * 2e-16, RIGOROUS)
    return zeta_num(z, cfg)


# --------------------------------------------------------------------------
# The three analytic continuations

def _tail_eval(
    terms: list[tuple[complex, complex]],
    fetch,
    cfg: AccelConfig,
    c_rem: complex,
    kernel: str,
    order: int,
    phi_sign: int,
    s_shift: complex,
) -> tuple[complex, float, str]:
    """sum c * fetch(arg) over the (c, arg) terms, plus c_rem times the
    kernel-times-phi remainder integral at s_shift.

    The terms come first, so the eta/zeta tolerance budget can be split by
    total coefficient mass and the final bound lands under cfg.tol.
    Returns (value, error bound, bound kind)."""
    mass = sum(abs(c) for c, _ in terms)
    inner = replace(cfg, q=None, tol=cfg.tol / (3.0 * mass))
    value = 0j
    err = 0.0
    magacc = 0.0
    kinds = []
    for c, arg in terms:
        term = fetch(arg, inner)
        value += c * term.value
        err += abs(c) * term.error_bound
        magacc += abs(c * term.value)
        kinds.append(term.bound_kind)
    if c_rem != 0:
        tol_local = cfg.tol / (10.0 * max(1.0, abs(c_rem)))
        integral, ierr = _kernel_integral(
            s_shift, inner, kernel, order, phi_sign, tol_local
        )
        value += c_rem * integral
        err += abs(c_rem) * ierr
        magacc += abs(c_rem * integral)
        kinds.append(HEURISTIC)
    # the representation's terms can be large before they cancel; charge
    # the rounding cost of that cancellation to the bound
    err += 4e-16 * magacc
    kind = RIGOROUS if all(k == RIGOROUS for k in kinds) else HEURISTIC
    return value, err, kind


def _uv_num(s: complex, cfg: AccelConfig, fetch, phi_sign: int) -> ValueWithError:
    q = cfg.resolve_q(s)
    terms = [(complex(1.0), s + 1)] + [
        (-c * e_val, s + 2 * m + 2) for m, c, e_val in _boole_coeffs(s, q)
    ]
    value, err, kind = _tail_eval(
        terms, fetch, cfg, _poch(s, 2 * q) / factorial(2 * q - 1),
        "euler", 2 * q - 1, phi_sign, s + 2 * q,
    )
    return ValueWithError(value / 2, err / 2, kind)


def u_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """u(s) through the alternating tail representation

      2 u(s) = eta(s+1)
               - sum_{m=0}^{q-1} (s)_{2m+1}/(2m+1)! E_{2m+1}(0) eta(s+2m+2)
               + (s)_{2q}/(2q-1)! integral_0^inf Ebar_{2q-1}(-t)
                                                 phi^-(s+2q, t) dt.

    Entire in s; at non-positive integers the integral coefficient
    vanishes identically and the finite eta combination is exact."""
    return _uv_num(complex(s), cfg, _eta_at, -1)


def v_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """v(s): same representation as u with zeta in place of eta and
    phi^+ in place of phi^-.  Simple poles at s = 0, -1, -3, -5, ...
    are guarded with a tol-radius exclusion disk."""
    s = complex(s)
    guard = max(cfg.tol, 1e-14)
    if abs(s) < guard:
        raise PoleProximity("v has a simple pole at s=0")
    k = _is_int(s, eps=guard)
    if k is not None and k < 0 and k % 2 != 0 and abs(s - k) < guard:
        raise PoleProximity(f"v has a simple pole at s={k}")
    return _uv_num(s, cfg, _zeta_at, +1)


def w_num(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """w(s) through the Euler-Maclaurin representation

      w(s) = eta(s)/(s-1) + eta(s+1)/2
             + sum_{m=1}^{q} (s)_{2m-1} B_{2m}/(2m)! eta(s+2m)
             - (s)_{2q+1}/(2q+1)! integral_0^inf Bbar_{2q+1}(t)
                                                 phi^-(s+2q+1, t) dt.

    The remainder is bounded with sup|Bbar_k| <= 2 k! zeta(k)/(2 pi)^k,
    k = 2q+1 (Fourier series, DLMF 24.8), taking 1 + 2^-k + 2^(1-k)/(k-1)
    for zeta(k).  Simple pole at s = 1 (tol-radius exclusion disk)."""
    s = complex(s)
    if abs(s - 1) < max(cfg.tol, 1e-14):
        raise PoleProximity("w has a simple pole at s=1")
    q = cfg.resolve_q(s)
    terms: list[tuple[complex, complex]] = [
        (1.0 / (s - 1), s),
        (complex(0.5), s + 1),
    ]
    for m in range(1, q + 1):
        c = _poch(s, 2 * m - 1) * float(bernoulli(2 * m)) / factorial(2 * m)
        if c != 0:
            terms.append((c, s + 2 * m))
    value, err, kind = _tail_eval(
        terms, _eta_at, cfg, -(_poch(s, 2 * q + 1) / factorial(2 * q + 1)),
        "bernoulli", 2 * q + 1, -1, s + 2 * q + 1,
    )
    return ValueWithError(value, err, kind)


# --------------------------------------------------------------------------
# Direct partial-sum oracles

_CHUNK = 1_000_000
# abscissa of convergence of each series' defining sum
_ABSCISSA = {"u": 0.0, "v": 0.0, "w": 1.0}


def _harmonic_chunks(coeff: str, n_max: int, size: int = _CHUNK):
    """Walk the series selected by coeff over n = 1..n_max in chunks,
    yielding (n, weights) where weights is the outer sign times the
    harmonic weight:
      "u": (-1)^(n-1) H_n   "v": (-1)^(n-1) H_n^-   "w": H_n^-
    Chunks start at size terms and double up to _CHUNK."""
    h_carry = 0.0
    start = 1
    while start <= n_max:
        stop = min(start + size - 1, n_max)
        n = np.arange(start, stop + 1, dtype=float)
        signs = np.where((np.arange(start, stop + 1) % 2) == 1, 1.0, -1.0)
        if coeff == "u":
            h = h_carry + np.cumsum(1.0 / n)
            outer = signs
        else:
            h = h_carry + np.cumsum(signs / n)
            outer = signs if coeff == "v" else 1.0
        h_carry = float(h[-1])
        yield n, outer * h
        start = stop + 1
        size = min(2 * size, _CHUNK)


def _direct_sum(s: complex, n_max: int, coeff: str) -> tuple[complex, complex, float]:
    """Partial sum to n_max of the series coeff selects (see
    _harmonic_chunks), the magnitude-sum for rounding estimates, and the
    (n_max+1)-th term."""
    if s.real <= _ABSCISSA[coeff] + 1e-9:
        raise NonConvergence(
            f"direct {coeff} series needs Re s > {_ABSCISSA[coeff]:g}"
        )
    real_s = abs(s.imag) == 0.0
    total = 0j
    absacc = 0.0
    for n, weights in _harmonic_chunks(coeff, n_max + 1):
        if real_s:
            powers = n ** (-s.real)
        else:
            powers = np.exp(-s * np.log(n))
        terms = weights * powers
        # the final term (index n_max+1) is reported, not accumulated
        if n[-1] == n_max + 1:
            last_term = complex(terms[-1])
            terms = terms[:-1]
        total += complex(np.sum(terms))
        absacc += float(np.sum(np.abs(terms)))
        _tick(series=n.size)
    return total, last_term, absacc


def direct_u(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Partial sums of sum (-1)^(n-1) H_n n^-s (Re s > 0); for real s the
    midpoint of consecutive partial sums with the classical bracketing
    bound, for complex s the paired-difference majorant."""
    s = complex(s)
    sigma = s.real
    n_max = cfg.series_cutoff
    total, last, absacc = _direct_sum(s, n_max, "u")
    slop = 4e-16 * absacc
    if abs(s.imag) == 0.0 and n_max >= 16:
        value = total + last / 2
        bound = abs(last) / 2 + slop
    else:
        value = total
        h_est = math.log(n_max) + 1
        bound = (
            abs(last)
            + 0.5 * n_max ** (-sigma) * ((1 + abs(s) * h_est) / sigma + abs(s) / sigma**2)
            + slop
        )
    return ValueWithError(value, bound, RIGOROUS)


def direct_v(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Partial sums of sum (-1)^(n-1) H_n^- n^-s (Re s > 0).

    The tail splits as log2 * (alternating part) plus a one-signed
    fluctuation series whose terms are below n^-(s+1)/2; the bound adds
    both majorants.  Convergence is O(N^-Re s): slow for small Re s, and
    the reported bound says so honestly."""
    s = complex(s)
    sigma = s.real
    n_max = cfg.series_cutoff
    total, last, absacc = _direct_sum(s, n_max, "v")
    ln2 = math.log(2.0)
    alt_part = ln2 * (n_max + 1) ** (-sigma) * (1 + abs(s) / (2 * sigma))
    fluct_part = n_max ** (-sigma) / (2 * sigma) + 0.5 * (n_max + 1) ** (-sigma - 1)
    return ValueWithError(total, alt_part + fluct_part + 4e-16 * absacc, RIGOROUS)


def direct_w(s: complex | float, cfg: AccelConfig = DEFAULT_CONFIG) -> ValueWithError:
    """Partial sums of sum H_n^- n^-s (Re s > 1) with the integral
    comparison tail bound (H_n^- <= 1)."""
    s = complex(s)
    sigma = s.real
    n_max = cfg.series_cutoff
    total, _, absacc = _direct_sum(s, n_max, "w")
    bound = n_max ** (1 - sigma) / (sigma - 1) + 4e-16 * absacc
    return ValueWithError(total, bound, RIGOROUS)
