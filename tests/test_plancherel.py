import math

import mpmath as mp
import numpy as np
import pytest

from heatflat.gevrey import GevreyParams
from heatflat.plancherel import (
    MAX_LAPLACE_N,
    an_vs_Mn_bridge,
    convolution_An,
    discrete_laplace,
    laplace_remainder_split,
    varpi_coeffs,
    varpi_log,
    varpi_params,
)

P = GevreyParams(2.0, 1.0, -0.5)  # alpha = 4, beta = 1


def _log_h_u(x, alpha=4.0):
    """u = log h, h(x) = x^{alpha x} (1-x)^{alpha(1-x)}, with u''(1/2) = 4 alpha."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return alpha * (x * math.log(x) + (1 - x) * math.log(1 - x))


class TestVarpiCoeffs:
    def test_parameter_map(self):
        assert varpi_params(P) == (4.0, 1.0)

    def test_a0(self):
        c = varpi_coeffs(P, 10)
        assert abs(c.phase[0].real * math.exp(c.log_mag[0]) - 1.0 / math.gamma(2.0)) < 1e-15

    def test_a1_is_1_over_120(self):
        c = varpi_coeffs(P, 10)
        assert abs(c.phase[1].real * math.exp(c.log_mag[1]) - 1.0 / 120.0) < 1e-16

    def test_domain(self):
        with pytest.raises(ValueError):
            varpi_params(GevreyParams(2.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            varpi_params(GevreyParams(2.0, 0.5, -0.5))

    def test_asymptotic_reconstruction_at_1e6(self):
        c = varpi_coeffs(P, 2000)
        xi = 1e6
        got = varpi_log(c, xi)
        alpha, beta = 4.0, 1.0
        want = -math.log(alpha) + P.gamma * math.log(xi) + xi ** (1.0 / P.s)
        assert abs(math.expm1(got - want)) < 0.02


def _convolution_An_rowwise(p, N):
    """Reference: row by row, with one exp over every term."""
    loga = varpi_coeffs(p, N).log_mag
    logA = np.empty(N + 1)
    for n in range(N + 1):
        terms = loga[: n + 1] + loga[n::-1]
        m = terms.max()
        logA[n] = m + math.log(np.exp(terms - m).sum())
    return logA


class TestConvolutionAn:
    @pytest.mark.parametrize("s, gamma", [(2.0, -0.5), (1.2, -2.0), (5.0, -0.1)])
    @pytest.mark.parametrize("N", [1, 15, 16, 17, 33, 300, 2000])
    def test_blocks_equal_rowwise_loop(self, s, gamma, N):
        # N = 15, 16, 17 and 33 put the last row at each edge of a 16-row block
        p = GevreyParams(s, 1.0, gamma)
        assert np.array_equal(convolution_An(p, N), _convolution_An_rowwise(p, N))

    def test_against_mpmath(self):
        # 40-digit sums of a_k a_{n-k} with a_k = 1/Gamma(alpha k + beta + 1)
        # exactly; log A_2000 is about -5.8e4
        logA = convolution_An(P, 2000)
        alpha, beta = varpi_params(P)
        with mp.workdps(40):
            loga = [-mp.loggamma(alpha * k + beta + 1) for k in range(2001)]
            for n in (1, 2, 17, 50, 500, 2000):
                ref = float(mp.log(mp.fsum(mp.exp(loga[k] + loga[n - k])
                                           for k in range(n + 1))))
                assert abs(logA[n] - ref) <= 1e-15 * max(abs(ref), 1.0)

    def test_A0_A1(self):
        logA = convolution_An(P, 5)
        a0 = 1.0 / math.gamma(2.0)
        a1 = 1.0 / math.gamma(6.0)
        assert abs(math.exp(logA[0]) - a0 * a0) < 1e-15
        assert abs(math.exp(logA[1]) - 2 * a0 * a1) < 1e-16
        assert math.exp(logA[1]) == pytest.approx(2 * a0 * a1, rel=1e-14)

    def test_cap(self):
        with pytest.raises(ValueError):
            convolution_An(P, 5001)

    def test_band_over_50_2000(self):
        # A_n asymptotics: ratio to (2e/(alpha n))^{alpha n} n^{-2beta-1/2}
        # stays in a band of width factor <= 10.  (The band sits near 0.0125,
        # not near 1: the hidden Stirling constant; see the decisions ledger.)
        N = 2000
        logA = convolution_An(P, N)
        n = np.arange(50, N + 1)
        alpha, beta = 4.0, 1.0
        logpred = (alpha * n * (np.log(2 * math.e) - np.log(alpha * n))
                   + (-2 * beta - 0.5) * np.log(n))
        ratio = np.exp(logA[50:] - logpred)
        assert ratio.max() / ratio.min() <= 10.0

    def test_positive_and_smooth(self):
        logA = convolution_An(P, 300)
        assert np.all(np.isfinite(logA))
        d2 = np.diff(logA, 2)
        assert np.max(np.abs(d2[10:])) < 1.0


class TestBridge:
    def test_band_below_ln10(self):
        r = an_vs_Mn_bridge(P, 1000)
        assert r.band_width < math.log(10.0)
        assert np.isfinite(r.values[0])

    def test_band_stable_when_N_doubles(self):
        b500 = an_vs_Mn_bridge(P, 500).band_width
        b1000 = an_vs_Mn_bridge(P, 1000).band_width
        assert abs(b1000 - b500) <= 0.1 * b500


class TestDiscreteLaplace:
    def test_quadratic_small_error(self):
        r = discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, 10000)
        assert r.rel_err < 1e-2

    def test_quadratic_decreasing_highprec(self):
        logs = []
        for n in (100, 1000, 10000):
            dps = int(0.25 * n / math.log(10)) + 40
            r = discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, n, dps=dps)
            logs.append(r.log10_rel_err)
            # the error is the two boundary tails of the bilateral sum,
            # sum_{k > n} e^{-(k - n/2)^2/n} ~ e^{-n/4}/(e - 1) each, over sqrt(pi n)
            law = (math.log10(2.0) - n / (4.0 * math.log(10)) - math.log10(math.e - 1.0)
                   - 0.5 * math.log10(math.pi * n))
            assert abs(r.log10_rel_err - law) < 0.2
        assert logs[0] > logs[1] > logs[2]
        assert logs[0] < -10  # already tiny at n = 100

    def test_gaussian_agreement_with_theta_rate(self):
        # pure-Gaussian case: rel_err < C/n with a small observed C
        for n in (100, 400):
            r = discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, n)
            assert r.rel_err < 5.0 / n

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            discrete_laplace(lambda x: 1.0, 1.0, 0.5, 100)

    def test_wrong_minimum_rejected(self):
        with pytest.raises(ValueError):
            discrete_laplace(lambda x: (x - 0.2) ** 2, 2.0, 0.7, 200)

    def test_nonpositive_curvature_rejected(self):
        with pytest.raises(ValueError):
            discrete_laplace(lambda x: (x - 0.5) ** 2, 0.0, 0.5, 100)

    def test_dps_mode_requires_the_gaussian_model(self):
        # the dps mode sums the Gaussian model u(x0) + u''(x0)/2 (x - x0)^2 exactly
        with pytest.raises(ValueError, match="Gaussian model"):
            discrete_laplace(_log_h_u, 16.0, 0.5, 200, dps=40)
        shifted = lambda x: 3.0 + 2.0 * (x - 0.25) ** 2
        exact = discrete_laplace(shifted, 4.0, 0.25, 200, dps=60)
        flt = discrete_laplace(shifted, 4.0, 0.25, 200)
        assert exact.log_sum == pytest.approx(flt.log_sum, abs=1e-12)
        assert exact.log_prediction == pytest.approx(flt.log_prediction, abs=1e-12)

    def test_small_n_rejected(self):
        for n in (1, 0, -5):
            with pytest.raises(ValueError, match="requires n >= 2"):
                discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, n)

    @pytest.mark.parametrize("n", [MAX_LAPLACE_N + 1, 10**8])
    def test_large_n_rejected_before_sampling_u(self, n):
        sampled = []
        u = lambda x: sampled.append(x) or (x - 0.5) ** 2
        with pytest.raises(ValueError, match=f"n = {n} is above the cap of {MAX_LAPLACE_N}"):
            discrete_laplace(u, 2.0, 0.5, n)
        assert sampled == []

    def test_log_h_case(self):
        # u = log h, h(x) = x^{alpha x}(1-x)^{alpha(1-x)}, alpha = 4:
        # (1/n) sum h^{-n} ~ 2^{alpha n} sqrt(2 pi/(u''(1/2) n)), u''(1/2) = 4 alpha
        alpha = 4.0
        r = discrete_laplace(_log_h_u, 4.0 * alpha, 0.5, 2000)
        assert r.rel_err < 5e-2
        # the prediction's leading factor is 2^{alpha n}: check in log
        want = alpha * 2000 * math.log(2.0)
        assert abs(r.log_prediction - (want + 0.5 * math.log(2 * math.pi / (16 * 2000)))) < 1e-9


class TestRemainderSplit:
    @pytest.mark.parametrize("mu", [0.3, 0.45])
    def test_decay_trend(self, mu):
        vals = [laplace_remainder_split(4.0, 1.0, n, mu) for n in (500, 1000, 2000)]
        near = [v.near for v in vals]
        far = [v.far for v in vals]
        assert near[0] > near[1] > near[2]
        assert far[0] >= far[1] >= far[2]

    def test_gn_half_limit(self):
        # g_n(1/2) = (1/2 + 1/n)^{-2 beta - 1} -> 4^{beta + 1/2} at rate ~ 48/n
        gaps = []
        for n in (1000, 10000, 100000):
            v = laplace_remainder_split(4.0, 1.0, n, 0.3)
            gap = abs(v.gn_half - 4.0 ** (1.0 + 0.5))
            assert gap < 60.0 / n
            gaps.append(gap)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_mu_domain(self):
        with pytest.raises(ValueError):
            laplace_remainder_split(4.0, 1.0, 500, 0.2)
        with pytest.raises(ValueError):
            laplace_remainder_split(4.0, 1.0, 500, 0.5)
