"""Hankel-integral identity: integrand, quadrature, and residual checks."""

import math

import numpy as np
import pytest

from eulersums.errors import PoleProximity, UnsupportedRegion
from eulersums.hankel import (
    _log_factor_direct,
    _log_factor_series,
    g_integrand,
    g_num,
    log_series_check,
    theorem4_residual,
)
from eulersums.numeric import AccelConfig, direct_v, zeta_num


class TestIntegrand:
    def test_small_x_slope(self):
        # integrand ~ -x/4 near 0 when s = 1
        x = 1e-6
        assert g_integrand(1, x).real / x == pytest.approx(-0.25, abs=1e-5)

    def test_moderate_point_finite_negative(self):
        val = g_integrand(2, 1.0)
        assert val.imag == 0
        assert -1.0 < val.real < 0.0

    def test_far_tail_negligible(self):
        peak = abs(g_integrand(2, 1.0))
        assert abs(g_integrand(2, 50.0)) < 1e-15 * peak

    def test_rejects_nonpositive_x(self):
        with pytest.raises(ValueError):
            g_integrand(1, 0.0)

    def test_seam_agreement(self):
        # the series and direct branches of the log factor agree to >= 12
        # digits at the switch point
        x = np.array([1e-3, 9e-4, 1.2e-3])
        series = _log_factor_series(x)
        direct = _log_factor_direct(x)
        assert np.all(np.abs(series - direct) <= 1e-12 * np.abs(series))


class TestLogSeries:
    def test_examples(self):
        assert log_series_check(1.0, 200) < 1e-12
        assert log_series_check(0.5, 500) < 1e-10

    def test_single_term(self):
        lhs = math.log(-math.expm1(-1.0)) / (1.0 + math.exp(-1.0))
        assert log_series_check(1.0, 1) == pytest.approx(
            abs(lhs + 1.0 * math.exp(-1.0)), abs=1e-15
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            log_series_check(1.5)
        with pytest.raises(ValueError):
            log_series_check(0.0)


class TestGNum:
    def test_finite_at_half_integers(self):
        for s in (0.5, 1.5):
            got = g_num(s)
            assert math.isfinite(got.value.real)
            assert got.value.imag == 0

    def test_below_zero_still_integrable(self):
        # the x^(s-1) endpoint stays integrable down to s > -1
        got = g_num(-0.5)
        assert math.isfinite(got.value.real)

    def test_excluded_points(self):
        with pytest.raises(PoleProximity):
            g_num(2.0)
        with pytest.raises(PoleProximity):
            g_num(0.0)
        with pytest.raises(UnsupportedRegion):
            g_num(-1.5)

    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    def test_node_doubling_stability(self, s):
        coarse = g_num(s, AccelConfig(quad_nodes=16))
        fine = g_num(s, AccelConfig(quad_nodes=32))
        assert abs(coarse.value - fine.value) <= coarse.error_bound


class TestIdentity:
    @pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
    def test_residual_with_accelerated_v(self, s):
        rep = theorem4_residual(s)
        assert rep.residual < 1e-8
        assert rep.residual == abs(rep.lhs.value - rep.rhs.value)

    @pytest.mark.parametrize("s", [1.5, 2.5])
    def test_residual_with_direct_v(self, s):
        # plain partial sums are accurate enough here (error ~ N^-s)
        cfg = AccelConfig(series_cutoff=2_000_000)
        rep = theorem4_residual(s, cfg, v_source="direct")
        assert rep.residual < 1e-8

    def test_domain_and_args(self):
        with pytest.raises(UnsupportedRegion):
            theorem4_residual(-0.5)
        with pytest.raises(ValueError):
            theorem4_residual(0.5, v_source="nonsense")

    @pytest.mark.parametrize("s", [2.0, 3.0])
    def test_shifted_series_identity(self, s):
        # sum_{n>=1} (-1)^n H_n^-/(n+1)^s = v(s) - zeta(s+1)
        n_terms = 400_000
        n = np.arange(1, n_terms + 1, dtype=float)
        signs = np.where(np.arange(1, n_terms + 1) % 2 == 1, 1.0, -1.0)
        h_alt = np.cumsum(signs / n)
        lhs = float(np.sum(-signs * h_alt / (n + 1.0) ** s))
        lhs_bound = math.log(2.0) * (n_terms + 2.0) ** (-s) + n_terms ** (-s) / s
        v = direct_v(s, AccelConfig(series_cutoff=500_000))
        z = zeta_num(s + 1.0)
        rhs = v.value - z.value
        assert abs(lhs - rhs) <= lhs_bound + v.error_bound + z.error_bound
