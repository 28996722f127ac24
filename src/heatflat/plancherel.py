"""Numerical verification of the Plancherel-theorem engine.

The Fourier weight (1+|xi|)^gamma e^{R|xi|^{1/s}} with gamma < 0, R = 1 is
comparable to the entire even function

    varpi(xi) = E_{alpha, beta+1}(xi^2) = sum_k a_k xi^{2k},
    a_k = 1/Gamma(alpha k + beta + 1),  alpha = 2s,  beta = -gamma*s,

whose square has Taylor-type coefficients A_n = sum_k a_k a_{n-k}.  The
machinery checked here: the asymptotics A_n ~ (2e/(alpha n))^{alpha n}
n^{-2 beta - 1/2} and the discrete Laplace method behind it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gevrey import GevreyParams
from .numkit import _GUARD_BITS, gauss_sum, log_gamma

__all__ = [
    "varpi_params",
    "varpi_coeffs",
    "convolution_An",
    "discrete_laplace",
    "LaplaceResult",
]

# largest N of convolution_An: its exps grow as N^2, to (N + 1)^2/4 where every term is live;
# at N = 5000, 17 ms at s = 2 and 21 ms with every term live (s = 0.05)
MAX_AN_TERMS = 5000
_AN_BLOCK = 32  # rows per block of convolution_An: 32 x (N/2 + 1) floats at most
MAX_LAPLACE_N = 1_000_000  # largest n of discrete_laplace: n + 1-point arrays and fsum, 0.15 s
_MODEL_DIGITS = 20  # digits the dps mode of discrete_laplace keeps after cancellation


def varpi_params(p: GevreyParams) -> tuple:
    """(alpha, beta) of the Mittag-Leffler weight for the class (s, 1, gamma<0)."""
    if not p.gamma < 0:
        raise ValueError("the particular-case weight requires gamma < 0 "
                         "(general gamma is reduced by differentiation shifts)")
    if abs(p.R - 1.0) > 1e-12:
        raise ValueError("the particular-case weight requires R = 1 "
                         "(general R is reduced by dilation)")
    alpha = 2.0 * p.s
    beta = -p.gamma * p.s
    return alpha, beta


def varpi_coeffs(p: GevreyParams, N: int) -> np.ndarray:
    """log a_k = -log Gamma(alpha k + beta + 1) for k <= N (every a_k is positive)."""
    alpha, beta = varpi_params(p)
    return -log_gamma(alpha * np.arange(N + 1) + beta + 1.0)


def convolution_An(p: GevreyParams, N: int):
    """A_n = sum_{k<=n} a_k a_{n-k} for n <= N, by log-domain convolution over live half-bands.

    Positive terms, fixed-order summation, capped at N = MAX_AN_TERMS.  Row n's
    log terms t_k = log a_k + log a_{n-k} are symmetric about n/2 and concave in
    k, log Gamma being convex on (0, inf) (Bohr-Mollerup) and alpha, beta + 1 > 0,
    so the row's max is m_n = t_{n//2}, and the terms whose exp is not exactly
    0.0 (t_k - m_n > -746) form one band [lo_n, n - lo_n] (:func:`_live_band`).
    Rows go in blocks of at most _AN_BLOCK: a block reads columns k in
    [min lo_n, max n//2] of a reversed, -inf-padded copy of log a_k, sets each
    row's cells past n//2 to -inf, and takes exp of t_k - m_n (0.0 left of
    lo_n as well); one reduction gives every row's half sum H_n, and
    A_n e^{-m_n} = 2 H_n - [n even] (the centre term of an even row is 1).  A
    row sums the terms that are nonzero when exp is taken of every term, in
    another order: where many terms are alike, log A_n differs from a
    full-row sum in its last bits.
    Returns the array of log A_n.
    """
    if N > MAX_AN_TERMS:
        raise ValueError(f"N capped at {MAX_AN_TERMS} (documented; up to (N + 1)^2/4 exps, "
                         "21 ms at N = 5000)")
    loga = varpi_coeffs(p, N)
    n = np.arange(N + 1)
    h = n // 2
    m, lo = _live_band(loga)
    # row n: log a_{n-k} for k <= n, then -inf
    win = sliding_window_view(np.concatenate([loga[::-1], np.full(N, -np.inf)]), N + 1)[::-1]
    half = np.empty(N + 1)
    for n0 in range(0, N + 1, _AN_BLOCK):
        rows = slice(n0, min(n0 + _AN_BLOCK, N + 1))
        c0, c1 = lo[rows].min(), h[rows][-1] + 1
        T = loga[c0:c1] + win[rows, c0:c1]
        T -= m[rows, None]
        # the cells past a row's n//2 lie right of the block's first n//2
        j = h[n0] + 1
        np.copyto(T[:, j - c0:], -np.inf, where=np.arange(j, c1) > h[rows, None])
        half[rows] = np.exp(T, out=T).sum(axis=1)
    return m + np.log(2.0 * half - (n % 2 == 0))


def _live_band(loga):
    """(m, lo) over the rows n of :func:`convolution_An`: m_n = t_{n//2} and lo_n, the
    least k <= n//2 with t_k - m_n > -746, where t_k = loga[k] + loga[n - k].

    One bisection over all rows at once; hi stays live, as t_{n//2} - m_n = 0.
    """
    n = np.arange(len(loga))
    lo, hi = np.zeros_like(n), n // 2
    m = loga[hi] + loga[n - hi]
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        live = loga[mid] + loga[n - mid] - m > -746.0
        lo, hi = np.where(live, lo, mid + 1), np.where(live, mid, hi)
    return m, lo


# ---------------------------------------------------------------------------
# Discrete Laplace method
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaplaceResult:
    log_sum: float
    log_prediction: float
    rel_err: float
    log10_rel_err: float  # resolves below float range in the dps mode


def discrete_laplace(u, d2u_x0: float, x0: float, n: int, dps: int = None) -> LaplaceResult:
    """(1/n) sum_{k=0}^n e^{-n u(k/n)} against sqrt(2 pi/(u''(x0) n)) e^{-n u(x0)}.

    ``u`` must have a strict global minimum at x0 in (0,1) with u''(x0) > 0
    (``d2u_x0``), and 2 <= n <= MAX_LAPLACE_N.  ``u`` is called once on the
    array of grid points k/n (a scalar is broadcast) and once at x0.  Sums
    run in the log domain.

    With ``dps`` set, ``u`` must be its own Gaussian model
    u(x0) + u''(x0)/2 (x - x0)^2: the float values u(k/n) must match it to
    1e-12 max(1, max |model|), and any other ``u`` raises ValueError.  The
    model sum is then evaluated exactly, at ``dps`` digits of working
    precision, in the Poisson-dual form of :func:`_gaussian_model`, which
    resolves its superexponentially small error at a precision that does not
    grow with n.  That error is the boundary truncation of the bilateral
    Gaussian sum, the terms beyond k = 0 and k = n: for u = (x - 1/2)^2 it is
    about 2 e^{-n/4} / ((e - 1) sqrt(pi n)).  Where the dual's terms cancel
    to fewer than 20 digits the sum is taken once more at ``dps`` raised by
    the digits lost, and ValueError is raised if that is not enough either.
    """
    if n < 2:
        raise ValueError(f"discrete Laplace requires n >= 2, got n = {n}")
    if n > MAX_LAPLACE_N:
        raise ValueError(f"discrete Laplace with n = {n} is above the cap of {MAX_LAPLACE_N}")
    if not (0.0 < x0 < 1.0):
        raise ValueError("x0 must lie strictly inside (0, 1)")
    if not d2u_x0 > 0:
        raise ValueError("discrete Laplace requires u''(x0) > 0")
    k = np.arange(n + 1)
    uvals = np.broadcast_to(np.asarray(u(k / n), float), k.shape)
    umin = uvals.min()
    if uvals.max() - umin < 1e-14:
        raise ValueError("u appears constant: no strict minimum")
    if abs(k[np.argmin(uvals)] / n - x0) > 2.0 / n + 1e-12:
        raise ValueError("grid minimum is not at x0; u must have its strict minimum there")
    u0 = float(u(x0))

    if dps is None:
        expo = -n * uvals
        m = expo.max()
        log_sum = m + math.log(math.fsum(np.exp(expo - m))) - math.log(n)
        log_pred = 0.5 * (math.log(2.0 * math.pi) - math.log(d2u_x0 * n)) - n * u0
        rel = abs(math.expm1(log_sum - log_pred))
        return LaplaceResult(log_sum, log_pred, rel,
                             math.log10(rel) if rel > 0 else -math.inf)

    model = u0 + 0.5 * d2u_x0 * (k / n - x0) ** 2
    if np.max(np.abs(uvals - model)) > 1e-12 * max(1.0, np.max(np.abs(model))):
        raise ValueError("the dps mode sums the Gaussian model exactly: u must equal "
                         "u(x0) + u''(x0)/2 (x - x0)^2 on the grid k/n")
    res, lost = _gaussian_model(u0, d2u_x0, x0, n, dps)
    if dps - lost < _MODEL_DIGITS:  # cancelled: once more, with the digits lost added
        dps = max(dps, _MODEL_DIGITS) + math.ceil(lost)
        res, lost = _gaussian_model(u0, d2u_x0, x0, n, dps)
        if dps - lost < _MODEL_DIGITS:
            raise ValueError(f"the Gaussian model sum cancels to fewer than {_MODEL_DIGITS} "
                             f"digits at {dps} digits of working precision")
    return res


def _gaussian_model(u0, d2u_x0, x0, n, dps):
    """The dps mode of :func:`discrete_laplace` at ``dps`` digits, and the digits it lost.

    With c = u''(x0)/(2n) and kc = n x0 the model sum over k = 0..n is
    e^{-n u0}/n (sqrt(pi/c) theta - T_lo - T_hi), where, by Poisson summation,
    theta = 1 + 2 sum_{m>=1} e^{-pi^2 m^2/c} cos(2 pi m kc), and T_lo and T_hi
    are the Gaussian sums over k < 0 and k > n.  So the ratio to the
    prediction is q = 1 + delta with delta = (theta - 1) - (T_lo + T_hi)/sqrt(pi/c),
    and rel_err is |delta|, with no digits lost to the 1 that cancels.  Each
    tail is a :func:`gauss_sum` of M = ceil(sqrt((prec + 64) ln 2 / c)) + 1
    terms, beyond which every term is below 2^-(prec + 64) of its first.
    Where M > n the tails would be longer than the sum itself, whose error is
    then not small: the sum over k = 0..n is taken directly.  The digits lost
    are log10 of the operands' size over |delta|, and over q.
    """
    with mp.workdps(dps):
        d2u, scale = mp.mpf(d2u_x0), mp.exp(-n * mp.mpf(u0))
        c, kc = d2u / (2 * n), n * mp.mpf(x0)
        root = mp.sqrt(mp.pi / c)
        M = int(mp.ceil(mp.sqrt((mp.mp.prec + _GUARD_BITS) * mp.ln2 / c))) + 1
        if M > n:
            q = gauss_sum(c, kc, 0, n) / root
            delta, size, q_size = q - 1, max(q, 1), q
        else:
            theta1, env = _theta_minus_one(c, kc)
            tails = (gauss_sum(c, kc, -M, -1) + gauss_sum(c, kc, n + 1, n + M)) / root
            delta, size = theta1 - tails, max(env, tails)
            q, q_size = 1 + delta, 1 + size
        lost = float(mp.log10(max(size / abs(delta), q_size / q))) if delta and q > 0 else dps
        pred = mp.sqrt(2 * mp.pi / (d2u * n)) * scale
        rel = abs(delta)
        log10_rel = float(mp.log10(rel)) if rel > 0 else -math.inf
        return LaplaceResult(float(mp.log(pred * q)), float(mp.log(pred)), float(rel),
                             log10_rel), lost


def _theta_minus_one(c, kc):
    """(theta - 1, its terms' size): 2 sum_{m>=1} e^{-pi^2 m^2/c} cos(2 pi m kc) and
    2 sum e^{-pi^2 m^2/c}, over the m whose e^{-pi^2 m^2/c} is at least 2^-prec of the first."""
    a = mp.pi**2 / c
    total = size = mp.mpf(0)
    m = 1
    while a * (m * m - 1) <= mp.mp.prec * mp.ln2:
        t = 2 * mp.exp(-a * m * m)
        total, size, m = total + t * mp.cospi(2 * m * kc), size + t, m + 1
    return total, size
