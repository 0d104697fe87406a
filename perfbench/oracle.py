"""Reference values that do not depend on eulersums.

Numeric references (mpmath):

* u(s) = sum (-1)^(n-1) H_n n^-s by the Cohen-Rodriguez Villegas-Zagier
  (CVZ) alternating-series acceleration.
* w(s) = log2 * zeta(s) + sum (-1)^(n-1) g(n) n^-s, the alternating part by
  CVZ, with g(n) = (psi((n+2)/2) - psi((n+1)/2)) / 2 = H_n^- - log 2 up to
  sign, so that H_n^- = log 2 + (-1)^(n-1) g(n).
* v(s) = log2 * eta(s) + sum g(n) n^-s.  The second sum is split at M: the
  first M terms directly, the rest through the asymptotic expansion
  g(n) ~ sum_k E_(k-1)(0) / (2 n^k) and Hurwitz zeta values, which also
  continues it to Re s <= 0.
* eta and zeta from mpmath; G(s) by tanh-sinh quadrature of its real-axis
  integral divided by Gamma(s).

Every numeric reference is computed twice with different truncations and
working precisions; the difference is returned as the reference's own error.
A reference whose error is not far below the tolerance being checked is
treated as unverified, and the op is counted as unchecked.

Exact references come from ``mpmath.bernfrac`` and the closed forms of the
paper (values at non-positive integers, v residues, corollary 1), plus an
independent route to the odd C_n through tanh(z/2) * log(sinh(z/2)/(z/2)).
``self_check`` ties the closed forms to the numeric references.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import mpmath as mp

# (working digits, CVZ terms) for the two independent evaluations
_CVZ_RUNS = ((50, 100), (65, 140))
# (working digits, direct terms M, expansion terms K) for the v reference
_V_RUNS = ((50, 30, 30), (65, 50, 45))
_QUAD_DIGITS = (20, 26)


def _cvz(term, n: int):
    """sum_{k>=0} (-1)^k term(k) by CVZ algorithm 1 with n terms."""
    d = (3 + mp.sqrt(8)) ** n
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    acc = mp.mpf(0)
    for k in range(n):
        c = b - c
        acc += c * term(k)
        b = 2 * (k + n) * (k - n) * b / ((2 * k + 1) * (k + 1))
    return acc / d


def _g(n: int):
    return (mp.digamma(mp.mpf(n + 2) / 2) - mp.digamma(mp.mpf(n + 1) / 2)) / 2


class Oracle:
    """Caches tables per working precision; one instance per benchmark run."""

    def __init__(self) -> None:
        self._g: dict[int, list] = {}
        self._h: dict[int, list] = {}
        self._bern: list[Fraction] = []
        self._c_odd: list[Fraction] = []  # C_1, C_3, C_5, ...
        self._numeric: dict[tuple, tuple[complex, float]] = {}

    # ------------------------------------------------------------------
    # numeric references

    def _g_table(self, dps: int, count: int) -> list:
        """g(0..count) at dps digits (g(0) is a placeholder)."""
        table = self._g.setdefault(dps, [mp.mpf(0)])
        while len(table) <= count:
            table.append(_g(len(table)))
        return table

    def _u(self, s, dps: int, n: int):
        h = self._h.setdefault(dps, [mp.mpf(0)])  # harmonic numbers H_0..
        while len(h) <= n + 1:
            h.append(h[-1] + mp.mpf(1) / len(h))
        return _cvz(lambda k: h[k + 1] * mp.power(k + 1, -s), n)

    def _w(self, s, dps: int, n: int):
        g = self._g_table(dps, n + 1)
        return mp.log(2) * mp.zeta(s) + _cvz(
            lambda k: g[k + 1] * mp.power(k + 1, -s), n
        )

    def _v(self, s, big_m: int, big_k: int, dps: int):
        g = self._g_table(dps, big_m)
        total = mp.log(2) * mp.altzeta(s)
        total += mp.fsum(g[n] * mp.power(n, -s) for n in range(1, big_m + 1))
        for k in range(1, big_k + 1):
            c = self.euler_zero(k - 1)
            if c:
                total += mp.mpf(c.numerator) / (2 * c.denominator) * mp.zeta(
                    s + k, big_m + 1
                )
        return total

    def _g_value(self, s):
        integrand = lambda x: (
            x ** (s - 1) / (mp.exp(x) + 1) * mp.log(-mp.expm1(-x) / x)
        )
        return mp.quad(integrand, [0, 1, 10, mp.inf]) / mp.gamma(s)

    def _evaluate(self, fn: str, s, run: int):
        if fn == "v":
            dps, big_m, big_k = _V_RUNS[run]
            with mp.workdps(dps):
                return self._v(mp.mpmathify(s), big_m, big_k, dps)
        if fn == "G":
            with mp.workdps(_QUAD_DIGITS[run]):
                return self._g_value(mp.re(mp.mpmathify(s)))
        dps, n = _CVZ_RUNS[run]
        with mp.workdps(dps):
            z = mp.mpmathify(s)
            if fn == "u":
                return self._u(z, dps, n)
            if fn == "w":
                return self._w(z, dps, n)
            if fn == "eta":
                return mp.altzeta(z)
            if fn == "zeta":
                return mp.zeta(z)
        raise ValueError(f"no reference for {fn!r}")

    def numeric(self, fn: str, s: complex) -> tuple[complex, float]:
        """(reference value, reference error) for fn at s."""
        key = (fn, s)
        hit = self._numeric.get(key)
        if hit is None:
            hit = self._numeric[key] = self._reference(fn, s)
        return hit

    def _reference(self, fn: str, s) -> tuple[complex, float]:
        a = self._evaluate(fn, s, 0)
        b = self._evaluate(fn, s, 1)
        return complex(b), float(abs(a - b)) + 1e-25 * float(abs(b))

    # ------------------------------------------------------------------
    # exact references

    def bernoulli(self, n: int) -> Fraction:
        while len(self._bern) <= n:
            self._bern.append(Fraction(*mp.bernfrac(len(self._bern))))
        return self._bern[n]

    def euler_zero(self, n: int) -> Fraction:
        """E_n(0) = 2 (1 - 2^(n+1)) B_(n+1) / (n+1)."""
        return 2 * (1 - 2 ** (n + 1)) * self.bernoulli(n + 1) / (n + 1)

    def genocchi(self, n: int) -> int:
        value = 2 * (1 - 2**n) * self.bernoulli(n)
        if value.denominator != 1:
            raise ArithmeticError(f"Genocchi reference not integral at {n}")
        return int(value)

    def eta_nonpositive(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(1, 2)
        if k % 2 == 0:
            return Fraction(0)
        return (2 ** (k + 1) - 1) * self.bernoulli(k + 1) / (k + 1)

    def zeta_nonpositive(self, k: int) -> Fraction:
        if k == 0:
            return Fraction(-1, 2)
        if k % 2 == 0:
            return Fraction(0)
        return -self.bernoulli(k + 1) / (k + 1)

    def c_coefficient(self, n: int) -> Fraction:
        """C_n of (e^z/(e^z+1)) log((e^z-1)/z).

        Even n: corollary 1, (2k)! C_2k = (1/(4k) + 2^(2k-1) - 1/2) B_2k.
        Odd n: the odd part z/4 + tanh(z/2) L(z)/2 with
        L(z) = log(sinh(z/2)/(z/2)) = sum B_2j z^2j / (2j (2j)!) and
        tanh(z/2) = sum 2 (2^2j - 1) B_2j z^(2j-1) / (2j)!.
        """
        if n % 2 == 0:
            k = n // 2
            return (
                (Fraction(1, 4 * k) + 2 ** (2 * k - 1) - Fraction(1, 2))
                * self.bernoulli(2 * k)
                / factorial(2 * k)
            )
        while len(self._c_odd) <= n // 2:
            m = 2 * len(self._c_odd) + 1  # the odd index being filled
            total = Fraction(1, 4) if m == 1 else Fraction(0)
            # tanh term z^(2a-1) times L term z^(2b), 2a - 1 + 2b = m
            for a in range(1, (m + 1) // 2 + 1):
                b = (m + 1) // 2 - a
                if b < 1:
                    continue
                t = 2 * (2 ** (2 * a) - 1) * self.bernoulli(2 * a) / factorial(2 * a)
                el = self.bernoulli(2 * b) / (2 * b * factorial(2 * b))
                total += t * el / 2
            self._c_odd.append(total)
        return self._c_odd[n // 2]

    def u_value(self, m: int) -> tuple[Fraction, Fraction]:
        """u(-m) as (rational part, log 2 coefficient)."""
        if m == 0:
            return Fraction(0), Fraction(1, 2)
        if m % 2 == 0:
            n = m // 2
            return (self.eta_nonpositive(2 * n - 1) + n * self.euler_zero(2 * n - 1)) / 2, Fraction(0)
        n = (m + 1) // 2
        rational = self.eta_nonpositive(2 * n - 2)
        for j in range(1, n):
            rational += (
                comb(2 * n - 1, 2 * j - 1)
                * self.euler_zero(2 * j - 1)
                * self.eta_nonpositive(2 * n - 2 * j - 1)
            )
        return rational / 2, self.euler_zero(2 * n - 1) / 2

    def w_value(self, m: int) -> tuple[Fraction, Fraction]:
        """w(-m) as (rational part, log 2 coefficient)."""
        if m == 0:
            return Fraction(-1, 2), Fraction(1, 2)
        if m % 2 == 0:
            n = m // 2
            return self.eta_nonpositive(2 * n - 1) / 2 - self.bernoulli(2 * n) / 2, Fraction(0)
        n = (m + 1) // 2
        rational = (
            -self.eta_nonpositive(2 * n - 1) / (2 * n)
            + self.eta_nonpositive(2 * n - 2) / 2
        )
        for j in range(1, n):
            rational -= (
                Fraction(comb(2 * n - 1, 2 * j - 1), 2 * j)
                * self.bernoulli(2 * j)
                * self.eta_nonpositive(2 * n - 2 * j - 1)
            )
        return rational, -self.bernoulli(2 * n) / (2 * n)

    def v_value(self, m: int) -> tuple[str, Fraction]:
        """("value", v(-m)) at even m >= 2, else ("pole", residue)."""
        if m == 0:
            return "pole", Fraction(1, 2)
        if m % 2 == 1:
            return "pole", self.euler_zero(m) / 2
        n = m // 2
        return "value", (self.zeta_nonpositive(2 * n - 1) - n * self.euler_zero(2 * n - 1)) / 2

    # ------------------------------------------------------------------

    def self_check(self, program_values=None) -> list[str]:
        """Problems found when the references are tied to known values.

        Checks u(1) = pi^2/12 - (log 2)^2/2, the closed forms at s = 0..-8
        (and v at -2..-8) against the numeric references, and, when given,
        the program's exact values {("u"|"w", m): float} at the same points.
        """
        problems = []
        with mp.workdps(40):
            target = mp.pi**2 / 12 - mp.log(2) ** 2 / 2
        got, err = self.numeric("u", complex(1.0))
        if abs(got - complex(target)) > 1e-14 or err > 1e-20:
            problems.append(f"u(1) reference {got} != {complex(target)}")
        ln2 = float(mp.log(2))
        for m in range(0, 9):
            for fn, closed in (("u", self.u_value), ("w", self.w_value)):
                rat, lg = closed(m)
                exact = float(rat) + float(lg) * ln2
                ref, err = self.numeric(fn, complex(-m))
                if abs(ref - exact) > 1e-13 * max(1.0, abs(exact)) or err > 1e-15:
                    problems.append(f"{fn}({-m}): closed form {exact} vs reference {ref}")
                if program_values is not None:
                    prog = program_values[(fn, m)]
                    if abs(prog - exact) > 1e-13 * max(1.0, abs(exact)):
                        problems.append(f"{fn}({-m}): program {prog} vs reference {exact}")
            if m >= 2 and m % 2 == 0:
                _, exact_v = self.v_value(m)
                # the Hurwitz split has poles at the integers; approach -m
                ref, err = self._reference("v", -m + mp.mpf("1e-30"))
                if abs(ref - float(exact_v)) > 1e-13 * max(1.0, abs(float(exact_v))):
                    problems.append(f"v({-m}): closed form {exact_v} vs reference {ref}")
        return problems
