import math

import mpmath as mp
import numpy as np
import pytest

from heatflat import plancherel
from heatflat.gevrey import GevreyParams
from heatflat.numkit import gauss_sum
from heatflat.plancherel import (
    MAX_LAPLACE_N,
    convolution_An,
    discrete_laplace,
    varpi_coeffs,
    varpi_params,
)

P = GevreyParams(2.0, 1.0, -0.5)  # alpha = 4, beta = 1


def _log_h_u(x, alpha=4.0):
    """u = log h, h(x) = x^{alpha x} (1-x)^{alpha(1-x)}, with u''(1/2) = 4 alpha, on an
    array: 0.0 outside (0, 1)."""
    x = np.asarray(x, float)
    u, inside = np.zeros_like(x), (0 < x) & (x < 1)
    xi = x[inside]
    u[inside] = alpha * (xi * np.log(xi) + (1 - xi) * np.log(1 - xi))
    return u


class TestVarpiCoeffs:
    def test_parameter_map(self):
        assert varpi_params(P) == (4.0, 1.0)

    def test_a0(self):
        assert abs(math.exp(varpi_coeffs(P, 10)[0]) - 1.0 / math.gamma(2.0)) < 1e-15

    def test_a1_is_1_over_120(self):
        assert abs(math.exp(varpi_coeffs(P, 10)[1]) - 1.0 / 120.0) < 1e-16

    def test_domain(self):
        with pytest.raises(ValueError):
            varpi_params(GevreyParams(2.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            varpi_params(GevreyParams(2.0, 0.5, -0.5))


def _convolution_An_rowwise(p, N):
    """Reference: row by row, with one exp over every term."""
    loga = varpi_coeffs(p, N)
    logA = np.empty(N + 1)
    for n in range(N + 1):
        terms = loga[: n + 1] + loga[n::-1]
        m = terms.max()
        logA[n] = m + math.log(np.exp(terms - m).sum())
    return logA


# (s, gamma) of a band where every term is live, and of a narrow one
ALL_LIVE, NARROW = (0.05, -1.0), (50.0, -0.5)


class TestConvolutionAn:
    @pytest.mark.parametrize("s, gamma", [(2.0, -0.5), (1.2, -2.0), (5.0, -0.1), NARROW])
    @pytest.mark.parametrize("N", [1, 15, 16, 17, 31, 32, 33, 300, 2000, 5000])
    def test_blocks_equal_rowwise_loop(self, s, gamma, N):
        # N = 31, 32 and 33 put the last row at each edge of a 32-row block
        p = GevreyParams(s, 1.0, gamma)
        assert np.array_equal(convolution_An(p, N), _convolution_An_rowwise(p, N))

    @pytest.mark.parametrize("N", [1, 15, 16, 17, 31, 32, 33, 300, 2000, 5000])
    def test_all_live_band_equals_rowwise_loop_to_rounding(self, N):
        # the half-band sum adds a row's terms in another order than the full row: where
        # hundreds of terms are alike, 22 of the 5001 rows differ in their last 1 to 4 ulp
        p = GevreyParams(ALL_LIVE[0], 1.0, ALL_LIVE[1])
        got, ref = convolution_An(p, N), _convolution_An_rowwise(p, N)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(np.abs(ref), 1.0))

    @pytest.mark.parametrize("s, gamma", [(2.0, -0.5), (1.2, -2.0), (5.0, -0.1), NARROW,
                                          ALL_LIVE, (5e300, -1e4)])
    def test_live_band_is_rowwise_keep_set(self, s, gamma):
        # each row's terms within 746 of its max are [lo_n, n - lo_n], and t_{n//2} is the max
        N = 5000
        loga = varpi_coeffs(GevreyParams(s, 1.0, gamma), N)
        m, lo = plancherel._live_band(loga)
        for n in range(N + 1):
            t = loga[: n + 1] + loga[n::-1]
            assert m[n] == t[n // 2] == t.max()
            assert np.array_equal(np.flatnonzero(t - t.max() > -746.0),
                                  np.arange(lo[n], n - lo[n] + 1))

    def test_rules_edge(self):
        # alpha n_max = 2 s n_max and beta = -gamma s both at cli._AN_PRODUCT = 5e304
        p, N = GevreyParams(5e300, 1.0, -1e4), 5000
        logA = convolution_An(p, N)
        assert np.all(np.isfinite(logA))
        assert np.array_equal(logA, _convolution_An_rowwise(p, N))

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



def _model(x0, d2u):
    return lambda x: 0.5 * d2u * (x - x0) ** 2


def _model_digits(n, x0, d2u):
    """The CLI's former precision rule 0.25 n/ln 10 + 40 for any model: 40 digits below
    e^{-u'' n d^2/2}, the first term beyond the nearer end, d = min(x0, 1 - x0)."""
    d = min(x0, 1.0 - x0)
    return int(d2u * n * d * d / (2.0 * math.log(10))) + 40


def _fields(pred, delta):
    """(log_sum, log_prediction, rel_err, log10_rel_err) for a sum of pred (1 + delta)."""
    rel = abs(delta)
    return (float(mp.log(pred * (1 + delta))), float(mp.log(pred)), float(rel),
            float(mp.log10(rel)) if rel > 0 else -math.inf)


def _direct(n, x0, d2u, dps):
    """The four fields from the model sum over k = 0..n, by one gauss_sum at dps digits."""
    with mp.workdps(dps):
        d2 = mp.mpf(d2u)
        pred = mp.sqrt(2 * mp.pi / (d2 * n))
        return _fields(pred, gauss_sum(d2 / (2 * n), n * mp.mpf(x0), 0, n) / n / pred - 1)


def _per_term(n, x0, d2u, dps=60):
    """The four fields from the dual form with every term its own mp.exp: the two tails
    and theta - 1, each up to the first term below 10^-(dps + 5) of its first."""
    with mp.workdps(dps):
        c, kc, small = mp.mpf(d2u) / (2 * n), n * mp.mpf(x0), mp.mpf(10) ** -(dps + 5)

        def walk(term, start, step):
            first, total, j = term(start), 0, start
            while (t := term(j)) >= small * first:
                total, j = total + t, j + step
            return total

        gauss = lambda k: mp.exp(-c * (k - kc) ** 2)
        # up to m with pi^2 (m^2 - 1)/c past (dps + 5) ln 10
        m_hi = 2 + int(mp.sqrt(1 + c * (dps + 5) * mp.ln(10)) / mp.pi)
        theta1 = 2 * mp.fsum(mp.exp(-mp.pi**2 * m * m / c) * mp.cospi(2 * m * kc)
                             for m in range(1, m_hi))
        tails = (walk(gauss, -1, -1) + walk(gauss, n + 1, 1)) / mp.sqrt(mp.pi / c)
        return _fields(mp.sqrt(2 * mp.pi / (mp.mpf(d2u) * n)), theta1 - tails)


def _ulps(a, b):
    return 0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


_GRID = [(n, x0, d2u) for n in (2, 3, 7, 100, 1000, 12345) for x0 in (0.3, 0.37, 0.45, 0.5, 0.61)
         for d2u in (0.5, 2, 3, 7, 200)]
# the direct reference needs twice the model's digits, plus 50, over all n + 1 terms: up to
# 2000 digits it costs under 0.6 s a case
_DIRECT = [g for g in _GRID if 2 * _model_digits(*g) + 50 <= 2000]
_BEYOND = [g for g in _GRID if g not in _DIRECT]


class TestDualForm:
    """The dps mode's Poisson-dual form at a fixed 40 digits against the model sum."""

    @pytest.mark.parametrize("n, x0, d2u", _DIRECT)
    def test_equals_the_direct_sum(self, n, x0, d2u):
        r = discrete_laplace(_model(x0, d2u), d2u, x0, n, dps=40)
        ref = _direct(n, x0, d2u, 2 * _model_digits(n, x0, d2u) + 50)
        got = (r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err)
        assert max(_ulps(a, b) for a, b in zip(got, ref)) <= 1

    @pytest.mark.parametrize("n, x0, d2u", _BEYOND)
    def test_equals_per_term_sums_beyond_the_direct_reach(self, n, x0, d2u):
        r = discrete_laplace(_model(x0, d2u), d2u, x0, n, dps=40)
        ref = _per_term(n, x0, d2u)
        got = (r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err)
        assert max(_ulps(a, b) for a, b in zip(got, ref)) <= 1

    def test_error_below_the_callers_digits_is_resolved(self):
        # the former rule gave 583 digits here, for an error of 10^-1159: rel_err 0, log10 -inf
        r = discrete_laplace(_model(0.61, 7.0), 7.0, 0.61, 5000, dps=583)
        assert r.rel_err == 0.0  # below the float range
        assert r.log10_rel_err == pytest.approx(-1158.97, abs=0.005)
        assert r.log10_rel_err == _per_term(5000, 0.61, 7.0)[3]

    def test_truncation_law_at_the_cap(self):
        # 40 digits resolve an error of 10^-108577
        n = MAX_LAPLACE_N
        r = discrete_laplace(_model(0.5, 2.0), 2.0, 0.5, n, dps=40)
        law = (math.log10(2.0) - n / (4.0 * math.log(10)) - math.log10(math.e - 1.0)
               - 0.5 * math.log10(math.pi * n))
        assert abs(r.log10_rel_err - law) < 1e-5  # the law is good to O(1/n)

    @pytest.mark.parametrize("dps, passes", [(30, [30, 45]), (40, [40])])
    def test_cancellation_is_summed_again(self, monkeypatch, dps, passes):
        # u'' near 2 pi/x0: theta - 1 and the tails, both near 2e-9, cancel in 14.2 digits,
        # leaving 15.8 of 30 (a second pass at 30 + 15) and 25.8 of 40 (none)
        n, x0, d2u = 20, 0.3, 17.277881294762857
        model, seen = plancherel._gaussian_model, []
        monkeypatch.setattr(plancherel, "_gaussian_model",
                            lambda *a: seen.append(a[-1]) or model(*a))
        r = discrete_laplace(_model(x0, d2u), d2u, x0, n, dps=dps)
        assert seen == passes
        ref = _direct(n, x0, d2u, 200)
        assert ref[3] == pytest.approx(-23.8633, abs=1e-4)
        got = (r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err)
        assert max(_ulps(a, b) for a, b in zip(got, ref)) <= 1

    def test_cancellation_past_the_second_pass_raises(self, monkeypatch):
        model = plancherel._gaussian_model
        monkeypatch.setattr(plancherel, "_gaussian_model",  # every digit lost
                            lambda *a: (model(*a)[0], a[-1]))
        with pytest.raises(ValueError, match="cancels to fewer than 20 digits at 80 digits"):
            discrete_laplace(_model(0.5, 2.0), 2.0, 0.5, 100, dps=40)

    @pytest.mark.parametrize("dps", [None, 40])
    def test_u_is_called_once_on_the_grid_array(self, dps):
        shapes = []
        u = lambda x: shapes.append(np.shape(x)) or (np.asarray(x) - 0.5) ** 2
        discrete_laplace(u, 2.0, 0.5, 100, dps=dps)
        assert shapes == [(101,), ()]  # the grid, then x0
