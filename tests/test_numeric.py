"""Numeric evaluators: eta/zeta, gamma/digamma, phi, kernels, u/v/w."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EULER_GAMMA, eta_oracle, eta_prime_oracle
from eulersums.closed_forms import u_value, v_value_even, w_value
from eulersums.errors import (
    DenominatorDegenerate,
    NonConvergence,
    PoleProximity,
    UnsupportedRegion,
)
from eulersums.numeric import (
    AccelConfig,
    ValueWithError,
    _bern_bar_vec,
    _euler_bar_vec,
    _kernel_sup,
    bernoulli_bar,
    digamma_num,
    direct_u,
    direct_v,
    direct_w,
    eta_num,
    eta_prime_num,
    euler_bar,
    gamma_num,
    harmonic,
    harmonic_alt,
    phi_minus,
    phi_plus,
    u_num,
    v_num,
    w_num,
    zeta_num,
)

LN2 = math.log(2.0)


class TestHarmonic:
    def test_examples(self):
        assert harmonic(1) == 1
        assert harmonic(3) == Fraction(11, 6)
        assert harmonic_alt(4) == Fraction(7, 12)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic(0)
        with pytest.raises(ValueError):
            harmonic_alt(0)


class TestEtaZeta:
    def test_eta_at_one_is_log_two(self):
        got = eta_num(1)
        assert abs(got.value - LN2) < 1e-12
        assert abs(got.value - LN2) <= got.error_bound

    def test_eta_at_two(self):
        got = eta_num(2)
        assert abs(got.value - math.pi**2 / 12) <= got.error_bound
        assert got.error_bound < 1e-10

    def test_eta_continuation_to_negative_one(self):
        got = eta_num(-1)
        assert abs(got.value - 0.25) < 1e-12

    def test_eta_bound_honest_on_grid(self):
        n_oracle = 100_000
        for s in (0.5, 1.0, 2.0, 3.5):
            got = eta_num(s)
            # allow for the oracle's own midpoint truncation error
            oracle_err = 4 * (s + 1) * (n_oracle + 1.0) ** (-s - 1)
            assert (
                abs(got.value - eta_oracle(s, n_oracle))
                <= got.error_bound + oracle_err
            )

    def test_zeta_at_two(self):
        got = zeta_num(2)
        assert abs(got.value - math.pi**2 / 6) < 1e-11

    def test_zeta_at_three_vs_alternating_oracle(self):
        # zeta(3) = eta(3) / (1 - 2^-2)
        expected = eta_oracle(3.0, 50_000) / (1 - 2.0 ** (1 - 3))
        got = zeta_num(3)
        assert abs(got.value - expected) < 1e-11

    def test_zeta_at_zero(self):
        assert abs(zeta_num(0).value - (-0.5)) < 1e-13

    def test_zeta_pole_guard(self):
        with pytest.raises(PoleProximity):
            zeta_num(1)

    def test_zeta_degenerate_denominator(self):
        with pytest.raises(DenominatorDegenerate):
            zeta_num(complex(1.0, 2 * math.pi / LN2))

    def test_functional_relation(self):
        for s in (2, 2.5, 3, 4, 2 + 1j):
            s = complex(s)
            e = eta_num(s)
            z = zeta_num(s)
            assert abs(e.value - (1 - 2 ** (1 - s)) * z.value) < 1e-10


class TestGammaDigamma:
    def test_gamma_factorial(self):
        assert abs(gamma_num(5).value - 24.0) < 24 * 1e-12

    def test_gamma_half_reflection(self):
        assert abs(gamma_num(0.5).value - math.sqrt(math.pi)) < 1e-13

    def test_gamma_pole(self):
        for s in (0, -3):
            with pytest.raises(PoleProximity):
                gamma_num(s)

    def test_digamma_at_two(self):
        assert abs(digamma_num(2).value - (1 - EULER_GAMMA)) < 1e-12

    def test_digamma_recurrence(self):
        one = digamma_num(1).value
        assert abs(one + EULER_GAMMA) < 1e-12
        assert abs(digamma_num(2).value - (one + 1.0)) < 1e-12

    def test_digamma_reflection_point(self):
        # cot(-pi/2) = 0, so psi(-1/2) = psi(3/2)
        assert abs(digamma_num(-0.5).value - digamma_num(1.5).value) < 1e-11


class TestEtaPrime:
    def test_at_one_closed_form(self):
        got = eta_prime_num(1)
        expected = EULER_GAMMA * LN2 - LN2**2 / 2
        assert abs(got.value - expected) < 1e-11
        assert abs(got.value - expected) <= got.error_bound

    def test_against_averaging_oracle(self):
        for s in (0.5, 1.5, 2.0):
            got = eta_prime_num(s)
            assert abs(got.value - eta_prime_oracle(s)) < 1e-10

    def test_sign_and_size_at_two(self):
        # first term of sum (-1)^n log(n)/n^s is +log(2)/4, and the closed
        # route 2^(1-s) ln2 zeta(s) + (1 - 2^(1-s)) zeta'(s) confirms the
        # positive sign (zeta'(2) ~ -0.9375)
        got = eta_prime_num(2)
        assert 0 < got.value.real < 1
        assert abs(got.value - eta_prime_oracle(2.0)) < 1e-11

    def test_far_right_dominated_by_first_term(self):
        got = eta_prime_num(10)
        brute = sum((-1) ** n * math.log(n) / n**10 for n in range(2, 60))
        assert abs(got.value - brute) <= got.error_bound
        assert got.error_bound < 1e-10
        assert abs(got.value - math.log(2) / 2**10) < 2e-5

    def test_left_of_axis_rejected(self):
        with pytest.raises(UnsupportedRegion):
            eta_prime_num(-1.0)


class TestPhi:
    def test_reduces_to_eta_two(self):
        cfg = AccelConfig(tol=1e-7, series_cutoff=200_000)
        got = phi_minus(1, 0.0, cfg)
        assert abs(got.value - math.pi**2 / 12) <= got.error_bound

    def test_reduces_to_zeta_two(self):
        cfg = AccelConfig(tol=2e-6, series_cutoff=2_000_000)
        got = phi_plus(1, 0.0, cfg)
        assert abs(got.value - math.pi**2 / 6) <= got.error_bound

    def test_phi_minus_against_brute_sum(self):
        n = np.arange(1, 100_002, dtype=float)
        terms = 1.0 / (n * (n + 1.0) ** 2)
        signs = np.where(np.arange(1, 100_002) % 2 == 1, 1.0, -1.0)
        oracle = float(np.sum((signs * terms)[:-1])) + signs[-1] * terms[-1] / 2
        got = phi_minus(2, 1.0)
        assert abs(got.value - oracle) < 1e-10

    def test_needs_positive_real_part(self):
        with pytest.raises(UnsupportedRegion):
            phi_plus(-0.5, 1.0)

    def test_unreachable_tolerance(self):
        with pytest.raises(NonConvergence):
            phi_plus(0.5, 0.0, AccelConfig(tol=1e-12, series_cutoff=1000))


class TestKernels:
    def test_euler_bar_examples(self):
        assert abs(euler_bar(1, 0.25) - (-0.25)) < 1e-15
        assert abs(euler_bar(1, 1.25) - 0.25) < 1e-15

    def test_bernoulli_bar_example(self):
        assert abs(bernoulli_bar(2, 1.5) - (-1.0 / 12.0)) < 1e-15

    @given(
        q=st.integers(min_value=0, max_value=9),
        t=st.floats(min_value=-8, max_value=8, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_euler_bar_antiperiodic(self, q, t):
        # the low-order kernels jump at integers; sampling exactly on a
        # discontinuity says nothing about the identity
        assume(abs(t - round(t)) > 1e-6)
        assert euler_bar(q, t + 1) == pytest.approx(-euler_bar(q, t), abs=1e-9)

    @given(
        k=st.integers(min_value=0, max_value=9),
        t=st.floats(min_value=-8, max_value=8, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_bernoulli_bar_periodic(self, k, t):
        assume(abs(t - round(t)) > 1e-6)
        assert bernoulli_bar(k, t + 1) == pytest.approx(
            bernoulli_bar(k, t), abs=1e-9
        )

    def test_kernel_sups_bound_the_kernels(self):
        # the Euler sup is attained at t = 0; the Bernoulli one is an
        # upper bound from the Fourier series
        grid = np.linspace(0.0, 2.0, 8001)
        for n in range(1, 42, 2):
            scanned = float(np.max(np.abs(_euler_bar_vec(n, grid))))
            assert _kernel_sup("euler", n) == pytest.approx(scanned, rel=1e-12)
        for k in range(5, 42, 2):
            scanned = float(np.max(np.abs(_bern_bar_vec(k, grid))))
            assert _kernel_sup("bernoulli", k) >= scanned


class TestContinuation:
    def test_u_at_two_matches_zeta_identity(self):
        # u(2) = (5/8) zeta(3); the right side from the alternating oracle
        expected = 0.625 * eta_oracle(3.0, 50_000) / (1 - 0.25)
        got = u_num(2)
        assert abs(got.value - expected) < 1e-10

    def test_u_nonpositive_integers(self):
        for m in range(0, 7):
            got = u_num(-m)
            assert abs(got.value - u_value(m).to_float()) < 1e-8

    def test_v_nonpositive_even(self):
        for n in (1, 2, 3):
            got = v_num(-2 * n)
            assert abs(got.value - float(v_value_even(n))) < 1e-8

    def test_w_nonpositive_integers(self):
        for m in range(0, 5):
            got = w_num(-m)
            assert abs(got.value - w_value(m).to_float()) < 1e-8

    def test_v_pole_guards(self):
        for s in (0, -1, -3, -5):
            with pytest.raises(PoleProximity):
                v_num(s)

    def test_w_pole_guard(self):
        with pytest.raises(PoleProximity):
            w_num(1)

    def test_explicit_q_validation(self):
        with pytest.raises(ValueError):
            u_num(3.0, AccelConfig(q=2))


class TestOracleAgreement:
    CFG = AccelConfig(series_cutoff=200_000)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0, 2 + 1j])
    def test_u(self, s):
        d = direct_u(s, self.CFG)
        a = u_num(s)
        assert abs(d.value - a.value) <= d.error_bound + a.error_bound

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0, 2 + 1j])
    def test_v(self, s):
        d = direct_v(s, self.CFG)
        a = v_num(s)
        assert abs(d.value - a.value) <= d.error_bound + a.error_bound

    @pytest.mark.parametrize("s", [2.0, 3.0, 2 + 1j])
    def test_w(self, s):
        d = direct_w(s, self.CFG)
        a = w_num(s)
        assert abs(d.value - a.value) <= d.error_bound + a.error_bound

    def test_direct_u_value_example(self):
        d = direct_u(2.0, self.CFG)
        assert abs(d.value - 0.7512855644748) < 1e-9

    def test_direct_v_converges_at_one(self):
        d = direct_v(1.0, AccelConfig(series_cutoff=50_000))
        assert math.isfinite(d.value.real)

    def test_direct_outside_abscissa(self):
        with pytest.raises(NonConvergence):
            direct_u(-0.5)
        with pytest.raises(NonConvergence):
            direct_v(0.0)
        with pytest.raises(NonConvergence):
            direct_w(1.0)


class TestQStability:
    # raising the expansion order by 2 moves the value by less than the
    # reported bounds
    @pytest.mark.parametrize("s", [0.5, 1.5, 2.0, 3.0, 2 + 1j])
    def test_u(self, s):
        base = u_num(s)
        bumped = u_num(s, AccelConfig(q=math.ceil(abs(complex(s).real)) + 5))
        assert abs(base.value - bumped.value) <= base.error_bound + bumped.error_bound

    @pytest.mark.parametrize("s", [0.5, 2.0, 2 + 1j])
    def test_v(self, s):
        base = v_num(s)
        bumped = v_num(s, AccelConfig(q=math.ceil(abs(complex(s).real)) + 5))
        assert abs(base.value - bumped.value) <= base.error_bound + bumped.error_bound

    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_w(self, s):
        base = w_num(s)
        bumped = w_num(s, AccelConfig(q=math.ceil(abs(complex(s).real)) + 5))
        assert abs(base.value - bumped.value) <= base.error_bound + bumped.error_bound


class TestNegativeNonIntegerConsistency:
    # off the integers there is no closed form; agreement across expansion
    # orders is the consistency evidence for the continuation
    @pytest.mark.parametrize("s", [-2.5, -0.7])
    def test_order_independence(self, s):
        for f in (u_num, v_num, w_num):
            base = f(s)
            bumped = f(s, AccelConfig(q=math.ceil(abs(s)) + 5))
            assert abs(base.value - bumped.value) <= (
                base.error_bound + bumped.error_bound
            )

    def test_u_complex_left_half_plane(self):
        got = u_num(complex(-1.5, 2.0))
        assert got.error_bound < 1e-8


class TestResidueLimits:
    def test_v_residue_at_zero(self):
        for h in (1e-2, 1e-3):
            s = -h
            got = v_num(s)
            assert abs(s * got.value - 0.5) <= 10 * abs(s)

    def test_w_residue_at_one(self):
        for h in (1e-2, 1e-3):
            s = 1 + h
            got = w_num(s)
            assert abs((s - 1) * got.value - LN2) <= 10 * abs(s - 1)


class TestValueWithError:
    def test_rejects_nan(self):
        with pytest.raises(NonConvergence):
            ValueWithError(complex(float("nan"), 0), 0.0)

    def test_rejects_negative_bound(self):
        with pytest.raises(NonConvergence):
            ValueWithError(1 + 0j, -1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AccelConfig(tol=0.0)
        with pytest.raises(ValueError):
            AccelConfig(quad_nodes=1)
        with pytest.raises(ValueError):
            AccelConfig(q=0)
