"""Reference values computed apart from heatflat, and the checks that use them.

Nothing here imports heatflat.  Every reference is a closed form, an mpmath
computation, an adaptive quadrature of a closed-form derivative, or a
property of the method.  Each
``check_*`` function returns a list of failure messages; an empty list is a
pass.  ``test_refs.py`` feeds every check a perturbed value and confirms that
it fails.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _expect(fails: list, ok: bool, msg: str) -> list:
    if not ok:
        fails.append(msg)
    return fails


# ---------------------------------------------------------------------------
# Gevrey weights and norms
# ---------------------------------------------------------------------------

def log_weight(n: int, s: float, R: float, gamma: float) -> float:
    """log M_n with M_n = (ns)!/R^{ns} (1+n)^{-s gamma - 1/4}."""
    return math.lgamma(n * s + 1.0) - n * s * math.log(R) - (s * gamma + 0.25) * math.log1p(n)


def log_weight_trackable(k: int) -> float:
    """log of (2k)! 2^k (1+k)^{3/4}, the weight of the infinite-horizon series."""
    return math.lgamma(2 * k + 1.0) + k * math.log(2.0) + 0.75 * math.log1p(k)


def gaussian_sum_time_norm(members, N: int, s: float, R: float, gamma: float) -> float:
    """Time norm of sum_i exp(-(t-c_i)^2/(2 sigma_i^2)) from its closed-form spectrum.

    By Parseval ||f^(n)||^2 is the 2n-th moment of |F f|^2, a sum over pairs
    (i, j) of (-1)^n sigma_i sigma_j sqrt(pi/p) (4p)^{-n} H_2n(q/(2 sqrt p)) e^{-q^2/(4p)}
    with p = (sigma_i^2 + sigma_j^2)/2, q = c_i - c_j.  For one Gaussian this is
    sum_n Gamma(n+1/2) sigma^{1-2n} / M_n^2.
    """
    with mp.workdps(30):
        total = mp.mpf(0)
        for n in range(N + 1):
            sq = mp.fsum(
                si * sj * (-1) ** n * mp.sqrt(mp.pi / p) * (4 * p) ** (-n)
                * mp.hermite(2 * n, q / (2 * mp.sqrt(p))) * mp.exp(-q * q / (4 * p))
                for ci, si in members for cj, sj in members
                for p, q in [(mp.mpf(si * si + sj * sj) / 2, mp.mpf(ci - cj))])
            total += sq * mp.exp(-2 * log_weight(n, s, R, gamma))
        return float(total)


def gaussian_fourier_norm(members, s: float, R: float, gamma: float) -> float:
    """integral |F f|^2 (1+|xi|)^{2 gamma} e^{2 R |xi|^{1/s}} by mpmath quadrature."""
    def F2(xi):
        re = mp.fsum(sg * mp.exp(-(sg * xi) ** 2 / 2) * mp.cos(c * xi) for c, sg in members)
        im = mp.fsum(sg * mp.exp(-(sg * xi) ** 2 / 2) * mp.sin(c * xi) for c, sg in members)
        return re * re + im * im

    with mp.workdps(25):
        val = mp.quad(lambda x: F2(x) * (1 + x) ** (2 * gamma) * mp.exp(2 * R * x ** (1.0 / s)),
                      [0, 1, 10, mp.inf])
    return 2.0 * float(val)


def _falling(x: float, k: int) -> float:
    return math.prod(x - j for j in range(k))


def gaussian_phi(center: float, sigma: float):
    """phi and its derivatives for exp(phi(t)) = exp(-(t-c)^2 / (2 sigma^2))."""
    def phis(t, n):
        x = t - center
        return ([-x * x / (2 * sigma ** 2), -x / sigma ** 2, -1.0 / sigma ** 2 + 0 * x]
                + [0 * x] * n)[: n + 1]
    return phis, (-math.inf, math.inf)


def one_sided_phi(g: float, scale: float = 1.0):
    """phi and its derivatives for exp(phi(t)) = exp(-(t/scale)^-g), t > 0."""
    def phis(t, n):
        x = np.maximum(t / scale, 1e-300)
        return [-_falling(-g, k) * x ** (-g - k) / scale ** k for k in range(n + 1)]
    return phis, (0.0, math.inf)


def two_sided_phi(center: float, halfwidth: float, g: float):
    """phi and its derivatives for the unit-peak two-sided bump on [c - h, c + h]."""
    a, b = center - halfwidth, center + halfwidth

    def phis(t, n):
        xa, xb = np.maximum(t - a, 1e-300), np.maximum(b - t, 1e-300)
        out = [-_falling(-g, k) * (xa ** (-g - k) + (-1) ** k * xb ** (-g - k))
               for k in range(n + 1)]
        out[0] = out[0] + 2.0 * halfwidth ** (-g)
        return out
    return phis, (a, b)


def exp_sum_deriv(terms, t, n: int):
    """n-th derivative of sum_i exp(phi_i(t)) by Faa di Bruno: e^phi B_n(phi', ..., phi^(n)).

    ``terms`` holds (phis, (lo, hi)) pairs; each term vanishes outside (lo, hi).
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    total = np.zeros_like(t)
    for phis, (lo, hi) in terms:
        inside = (t > lo) & (t < hi)
        if not inside.any():
            continue
        x = phis(t[inside], n)
        bell = [np.ones(inside.sum())]
        for m in range(n):
            bell.append(sum(math.comb(m, k) * bell[m - k] * x[k + 1] for k in range(m + 1)))
        total[inside] += np.exp(x[0]) * bell[n]
    return total


def deriv_sq_norms(terms, orders, breaks) -> list:
    """||f^(n)||^2 of f = sum_i exp(phi_i) over [breaks[0], breaks[-1]].

    Adaptive Gauss-Kronrod quadrature (QUADPACK) of the closed-form derivative,
    piecewise between the given break points.
    """
    return [math.fsum(quad(lambda t: float(exp_sum_deriv(terms, t, n)[0]) ** 2, lo, hi,
                           epsabs=0.0, epsrel=1e-11, limit=400)[0]
                      for lo, hi in zip(breaks, breaks[1:]))
            for n in orders]


def check_gaussian_member(time_total, fourier, ref_time, ref_fourier, rtol=1e-6) -> list:
    fails = []
    _expect(fails, _rel(time_total, ref_time) <= rtol,
            f"time norm {time_total!r} vs closed form {ref_time!r}")
    return _expect(fails, _rel(fourier, ref_fourier) <= rtol,
                   f"Fourier norm {fourier!r} vs mpmath {ref_fourier!r}")


def check_increments(incs, ref_sq_norms, log_weights, rtol=1e-6) -> list:
    """incs[n] == ||f^(n)||^2 / W_n^2 for the orders the reference covers."""
    fails = []
    for n, (sq, lw) in enumerate(zip(ref_sq_norms, log_weights)):
        ref = sq * math.exp(-2.0 * lw)
        _expect(fails, _rel(incs[n], ref) <= rtol,
                f"increment {n}: {incs[n]!r} vs mpmath {ref!r}")
    return fails


def check_norm_flags(converged: bool, quadrature_ok: bool) -> list:
    fails = _expect([], converged, "norm series not flagged converged")
    return _expect(fails, quadrature_ok, "quadrature not converged")


def check_ratio_band(ratios, c_hat_max: float = 50.0) -> list:
    c_hat = max(max(ratios), 1.0 / min(ratios))
    return _expect([], c_hat <= c_hat_max, f"C_hat {c_hat:.3f} > {c_hat_max}")


# ---------------------------------------------------------------------------
# Bergman radius and the counterexample
# ---------------------------------------------------------------------------

def check_bracket(lo: float, hi: float, tol: float) -> list:
    fails = _expect([], lo <= INV_SQRT2 <= hi, f"bracket [{lo}, {hi}] misses 1/sqrt2")
    return _expect(fails, hi - lo <= tol, f"bracket width {hi - lo} > tol {tol}")


def check_counterexample(exponent: float, trackability_class: str) -> list:
    fails = _expect([], abs(exponent + 1.5) <= 0.1, f"residual exponent {exponent} not -3/2")
    return _expect(fails, trackability_class == "divergent",
                   f"membership series {trackability_class!r}, expected 'divergent'")


# ---------------------------------------------------------------------------
# Extended-precision sums
# ---------------------------------------------------------------------------

def laplace_truncation_log10(n: int) -> float:
    """log10 of 2 e^{-n/4} / ((e-1) sqrt(pi n)), the boundary-truncation error law."""
    return (math.log10(2.0) - n / (4.0 * math.log(10.0)) - math.log10(math.e - 1.0)
            - 0.5 * math.log10(math.pi * n))


def check_laplace_quadratic(n: int, log10_rel_err: float) -> list:
    law = laplace_truncation_log10(n)
    return _expect([], abs(log10_rel_err - law) <= 0.2,
                   f"n={n}: log10 error {log10_rel_err:.3f} vs truncation law {law:.3f}")


def laplace_log_h_sum(n: int, alpha: float) -> float:
    """log of (1/n) sum_k e^{-n u(k/n)}, u(x) = alpha (x log x + (1-x) log(1-x))."""
    with mp.workdps(30):
        def u(x):
            return alpha * (x * mp.log(x) + (1 - x) * mp.log(1 - x)) if 0 < x < 1 else 0
        return float(mp.log(mp.fsum(mp.exp(-n * u(mp.mpf(k) / n)) for k in range(n + 1)) / n))


def check_log_sum(log_sum: float, ref: float, atol: float = 1e-9) -> list:
    return _expect([], abs(log_sum - ref) <= atol, f"log sum {log_sum!r} vs mpmath {ref!r}")


def theta_dual(n: int, a: float, b: float):
    """Poisson-dual form of sum_k exp[-n (a/2)(k/n - b)^2]: (sum, log10 |S/pred - 1|)."""
    with mp.workdps(30):
        an, bn = mp.mpf(a), mp.mpf(b)
        q = [mp.exp(-2 * mp.pi ** 2 * m * m * n / an) * mp.cos(2 * mp.pi * m * n * bn)
             for m in range(1, 4)]
        gap = 2 * mp.fsum(q)
        pred = mp.sqrt(2 * n * mp.pi / an)
        return float(pred * (1 + gap)), float(mp.log10(abs(gap)))


def check_theta(total: float, log10_gap: float, ref_total: float, ref_log10_gap: float) -> list:
    fails = _expect([], _rel(total, ref_total) <= 1e-14,
                    f"theta sum {total!r} vs dual {ref_total!r}")
    return _expect(fails, abs(log10_gap - ref_log10_gap) <= 1e-6,
                   f"log10 gap {log10_gap!r} vs dual {ref_log10_gap!r}")


def log_An(n_max: int, alpha: float, beta: float) -> list:
    """log A_n, A_n = sum_k a_k a_{n-k}, a_k = 1/Gamma(alpha k + beta + 1), by mpmath."""
    with mp.workdps(30):
        a = [1 / mp.gamma(alpha * k + beta + 1) for k in range(n_max + 1)]
        return [float(mp.log(mp.fsum(a[k] * a[n - k] for k in range(n + 1))))
                for n in range(n_max + 1)]


def check_log_An(logA, ref, atol: float = 1e-11) -> list:
    fails = []
    for n, r in enumerate(ref):
        _expect(fails, abs(logA[n] - r) <= atol, f"log A_{n} {logA[n]!r} vs mpmath {r!r}")
    return fails


# ---------------------------------------------------------------------------
# Kernel, tracking and the terminal state
# ---------------------------------------------------------------------------

def kernel_theta(ts) -> list:
    """k(t) = theta_4(0, e^{-pi^2 t}) by mpmath."""
    with mp.workdps(40):
        return [float(mp.jtheta(4, 0, mp.exp(-mp.pi ** 2 * mp.mpf(t)))) for t in ts]


def check_kernel(values, ref, rtol: float = 1e-10) -> list:
    worst = max(_rel(v, r) for v, r in zip(values, ref))
    return _expect([], worst <= rtol, f"kernel off theta_4 by {worst:.3e} relative")


def bump_target(t, gamma_exp: float, t_scale: float):
    """exp(-(t/t_scale)^-gamma_exp) for t > 0, else 0, on a numpy array."""
    x = np.asarray(t, dtype=float) / t_scale
    out = np.zeros_like(x)
    pos = x > 0
    out[pos] = np.exp(-x[pos] ** -gamma_exp)
    return out


def check_tracking(errors: dict, K: int, K_low: int, threshold: float = 1e-4,
                   shrink_k: float = 10.0, shrink_dt: float = 3.0) -> list:
    """errors[(dt, K)] = max |y_sim - y_target| against the closed-form target.

    At every dt the error at K is below ``threshold`` and at least ``shrink_k``
    times smaller than at K_low; at K it drops ``shrink_dt`` times per halving
    of dt.
    """
    fails = []
    dts = sorted({dt for dt, _ in errors}, reverse=True)
    for dt in dts:
        e_hi, e_lo = errors[(dt, K)], errors[(dt, K_low)]
        _expect(fails, e_hi < threshold, f"dt={dt}: error {e_hi:.3e} at K={K}")
        _expect(fails, e_lo >= shrink_k * e_hi,
                f"dt={dt}: K={K_low} -> {K} shrink x{e_lo / e_hi:.1f}")
    for big, small in zip(dts, dts[1:]):
        ratio = errors[(big, K)] / errors[(small, K)]
        _expect(fails, ratio >= shrink_dt, f"dt {big} -> {small}: error drop x{ratio:.2f}")
    return fails


def check_terminal(reachable_class: str, converged: bool) -> list:
    fails = _expect([], reachable_class == "convergent",
                    f"terminal state {reachable_class!r}, expected 'convergent'")
    return _expect(fails, converged, "regularity series not flagged converged")
