"""Each reference check passes on its reference and fails on a perturbed value.

    python3 -m pytest -q perfbench/test_refs.py
"""

import math

import numpy as np
import pytest

import refs


def test_gaussian_norms_closed_form_and_check():
    t = refs.gaussian_sum_time_norm([(0.0, 1.0)], 8, 2.0, 0.5, 0.0)
    f = refs.gaussian_fourier_norm([(0.0, 1.0)], 2.0, 0.5, 0.0)
    assert round(t, 7) == 1.7920525 and round(f, 7) == 3.6951743
    assert refs.check_gaussian_member(t, f, t, f) == []
    assert refs.check_gaussian_member(t * (1 + 1e-5), f, t, f)
    assert refs.check_gaussian_member(t, f * (1 - 1e-5), t, f)


def test_gaussian_sum_moments_match_quadrature():
    members = [(0.0, 1.0), (2.0, 0.7)]
    terms = [refs.gaussian_phi(c, s) for c, s in members]
    sq = refs.deriv_sq_norms(terms, range(4), [-14.0, 0.0, 2.0, 14.0])
    closed = [refs.gaussian_sum_time_norm(members, n, 1.0, 1.0, -0.25) for n in range(4)]
    # with s=1, R=1, gamma=-1/4 the weights are M_n = n!, so undo them term by term
    moments = [closed[0]] + [(closed[n] - closed[n - 1]) * math.factorial(n) ** 2
                             for n in range(1, 4)]
    assert np.allclose(sq, moments, rtol=1e-9, atol=0)


def test_faa_di_bruno_derivative():
    phis = refs.gaussian_phi(0.5, 0.8)
    t = np.array([-0.3, 0.2, 1.7])
    x = t - 0.5
    exact = (x ** 2 / 0.8 ** 4 - 1 / 0.8 ** 2) * np.exp(-x ** 2 / (2 * 0.8 ** 2))
    assert np.allclose(refs.exp_sum_deriv([phis], t, 2), exact, rtol=1e-13)


def test_increments_check():
    terms = [refs.two_sided_phi(0.0, 3.0, 1.5)]
    sq = refs.deriv_sq_norms(terms, range(4), [-3.0, 0.0, 3.0])
    logw = [refs.log_weight(n, 2.0, 0.5, 0.0) for n in range(4)]
    incs = [v * math.exp(-2 * lw) for v, lw in zip(sq, logw)]
    assert refs.check_increments(incs, sq, logw) == []
    incs[3] *= 1 + 1e-5
    assert refs.check_increments(incs, sq, logw)


def test_flags_and_ratio_band():
    assert refs.check_norm_flags(True, True) == []
    assert refs.check_norm_flags(False, True)
    assert refs.check_norm_flags(True, False)
    assert refs.check_ratio_band([1.0, 2.0]) == []
    assert refs.check_ratio_band([1.0, 60.0])
    assert refs.check_ratio_band([1.0 / 60.0, 1.0])


def test_bracket_and_counterexample():
    assert refs.check_bracket(0.703, 0.711, 0.01) == []
    assert refs.check_bracket(0.708, 0.716, 0.01)
    assert refs.check_bracket(0.700, 0.711, 0.01)
    assert refs.check_counterexample(-1.52, "divergent") == []
    assert refs.check_counterexample(-1.35, "divergent")
    assert refs.check_counterexample(-1.5, "undecided")


def test_laplace_law_and_checks():
    assert [round(refs.laplace_truncation_log10(n), 2) for n in (100, 1000, 10000)] == \
        [-12.04, -110.26, -1087.92]
    law = refs.laplace_truncation_log10(5000)
    assert refs.check_laplace_quadratic(5000, law + 0.1) == []
    assert refs.check_laplace_quadratic(5000, law + 0.3)
    ref = refs.laplace_log_h_sum(500, 4.0)
    assert refs.check_log_sum(ref, ref) == []
    assert refs.check_log_sum(ref + 1e-8, ref)


def test_theta_dual():
    total, gap = refs.theta_dual(100, 2.0, 0.5)
    # the gap is 2 exp(-2 n pi^2 / a) to leading order
    assert abs(gap - math.log10(2.0) + 100 * math.pi ** 2 / math.log(10)) < 1e-9
    assert refs.check_theta(total, gap, total, gap) == []
    assert refs.check_theta(total * (1 + 1e-13), gap, total, gap)
    assert refs.check_theta(total, gap + 1e-5, total, gap)


def test_log_An():
    ref = refs.log_An(50, 4.0, 1.0)
    assert ref[0] == pytest.approx(-2 * math.lgamma(2.0), abs=1e-15)
    assert refs.check_log_An(ref, ref) == []
    bad = list(ref)
    bad[37] += 1e-10
    assert refs.check_log_An(bad, ref)


def test_kernel_theta():
    ts = [0.01, 0.1, 1.0, 10.0]
    ref = refs.kernel_theta(ts)
    eigen = [1 + 2 * sum((-1) ** j * math.exp(-(j * math.pi) ** 2 * t) for j in range(1, 60))
             for t in ts[1:]]
    assert np.allclose(ref[1:], eigen, rtol=1e-12)
    assert refs.check_kernel(ref, ref) == []
    assert refs.check_kernel([ref[0] * (1 + 1e-9)] + ref[1:], ref)


def test_tracking_check():
    good = {(1e-3, 25): 5.10e-6, (5e-4, 25): 1.27e-6, (2.5e-4, 25): 3.18e-7,
            (1e-3, 10): 6e-5, (5e-4, 10): 6e-5, (2.5e-4, 10): 6e-5}
    assert refs.check_tracking(good, 25, 10) == []
    assert refs.check_tracking({(2e-4, 25): 3.05e-4, (2e-4, 10): 8e-4}, 25, 10)
    assert refs.check_tracking({**good, (2.5e-4, 25): 5e-7}, 25, 10)
    assert refs.check_tracking({**good, (1e-3, 10): 4e-5}, 25, 10)


def test_terminal_check():
    assert refs.check_terminal("convergent", True) == []
    assert refs.check_terminal("undecided", True)
    assert refs.check_terminal("convergent", False)
