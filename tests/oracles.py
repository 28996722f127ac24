"""References that the tests compare heatflat against.  No run reads them.

polylog                    Li_s(zeta) inside the unit disc, by its plain series
polylog_seq                the coefficients (2k)! k^-s, whose series is Li_s-type
eval_series                one-point value of a coefficient series by its raw
                           Taylor sum, with raw_eval, EvalResult and l1
kernel_laplace_quadrature  the Laplace transform of the kernel k(t) by quadrature
neu_dir_transfer           its closed form 1/(sqrt(s) sinh sqrt(s))
"""

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from heatflat import holo
from heatflat.heatsim import kernel_k
from heatflat.holo import CoeffSeq
from heatflat.numkit import log_gamma


def polylog(s: float, zeta: complex) -> complex:
    """Li_s(zeta) = sum_{n>=1} zeta^n / n^s for |zeta| < 1.

    Plain series, summed in vectorized blocks with a geometric tail bound.
    Relative accuracy target 1e-13, relaxed to 1e-8 for |zeta| > 0.999.
    No analytic continuation past the unit circle is attempted.
    """
    zeta = complex(zeta)
    r = abs(zeta)
    if r >= 1.0:
        raise ValueError(f"polylog requires |zeta| < 1, got |zeta| = {r}")
    if r == 0.0:
        return 0.0 + 0.0j
    rtol = 1e-8 if r > 0.999 else 1e-13
    block = 4096
    total = 0.0 + 0.0j
    n0 = 1
    # tail bound: for q = r ((n0+1)/n0)^{-s} < 1 the terms beyond n0 are
    # dominated by the geometric series term(n0) * q / (1-q)
    while True:
        n = np.arange(n0, n0 + block)
        total += np.sum(zeta**n / n.astype(float) ** s)
        n0 += block
        q = r * math.exp(-s * math.log1p(1.0 / n0))
        if q < 1.0:
            tail_log = n0 * math.log(r) - s * math.log(n0) + math.log(q / (1.0 - q))
            if tail_log < math.log(rtol) + math.log(max(abs(total), 1e-300)):
                return total


def polylog_seq(s: float, N: int = 600) -> CoeffSeq:
    """a_k = (2k)! k^{-s} (k >= 1): the series is Li_s(2 R^2 zeta^2)-type."""
    k = np.arange(N)
    lm = np.full(N, -math.inf)
    lm[1:] = log_gamma(2 * k[1:] + 1) - s * np.log(k[1:])
    return CoeffSeq(lm, np.ones(N, dtype=complex), "even")


# ---------------------------------------------------------------------------
# One-point series values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    value: complex
    tail_proxy: float
    diverged: bool


def l1(zeta) -> np.ndarray:
    """|Re zeta| + |Im zeta|, below 1 exactly on the tilted square."""
    z = np.asarray(zeta, dtype=complex)
    return np.abs(z.real) + np.abs(z.imag)


def raw_eval(lg, ph, w):
    """Sum of g(w) = sum b_k w^k, b_k = exp(lg_k) ph_k, by holo's raw series.

    Returns (values, tail_proxy_per_node, diverged_mask); the tail proxy is
    the last finite term over the sum.
    """
    terms = holo._raw_terms(lg, ph)
    acc, diverged = holo._raw_sum(terms, w)
    k = np.flatnonzero(np.isfinite(lg))
    k_last = k[-1] if len(k) else -1
    with np.errstate(over="ignore", invalid="ignore"):
        last = terms[1][k_last] * np.abs(w) ** k_last if k_last >= 0 else np.zeros(acc.shape)
        tail = last / np.maximum(np.abs(acc), 1e-300)
    return acc, tail, diverged


def eval_series(c: CoeffSeq, zeta: complex, R_scale: float) -> EvalResult:
    """Partial sum of the coefficient series at one point of Omega.

    Raw Taylor sum of all terms with a last-term tail proxy, in units of the
    estimated radius of g as in holo.SeriesEvaluator.  A diverged result
    (|zeta| past the scaled Gevrey radius) may carry a non-finite value.
    """
    if l1(zeta) > 1.0 + 1e-12:
        raise ValueError("zeta lies outside the closed tilted square")
    R = holo._scale(R_scale)
    lg, ph = holo._series_coeffs_g(c)
    _, lb, unit = holo._radius_units(lg)
    z = R * complex(zeta)
    vals, tail, div = raw_eval(lb, ph, np.array([z * z / unit]))
    v = vals[0] * z if c.parity == "odd" else vals[0]
    return EvalResult(complex(v), float(tail[0]), bool(div[0]))


# ---------------------------------------------------------------------------
# The two sides of the transfer identity
# ---------------------------------------------------------------------------

def kernel_laplace_quadrature(s: float) -> float:
    """Numerical Laplace transform of k: mpmath's tanh-sinh quadrature on
    [0, 3] plus the analytic integral of the eigen tail beyond it."""
    val = float(mp.quad(lambda t: math.exp(-s * float(t)) * kernel_k(float(t), "poisson"),
                        [0.0, 3.0]))
    # beyond t = 3: k(t) = 1 + 2 sum (-1)^j e^{-lam_j t}, integrated exactly
    # over its first 8 modes (the ninth is below e^{-2398})
    tail = math.exp(-s * 3.0) / s
    for j in range(1, 9):
        lam = (j * math.pi) ** 2
        tail += 2.0 * (-1) ** j * math.exp(-(s + lam) * 3.0) / (s + lam)
    return val + tail


def neu_dir_transfer(s):
    """1/(sqrt(s) sinh sqrt(s)) at Re s > 0, cancellation-safe: with w = sqrt(s)
    on the principal branch it is 2 e^-w / (w (1 - e^-2w)), finite at large |s|."""
    sarr = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(sarr.real <= 0):
        raise ValueError("transfer requires Re s > 0")
    w = np.sqrt(sarr)
    em = np.exp(-w)
    out = 2.0 * em / (w * (1.0 - em * em))
    return out if np.ndim(s) else complex(out[0])
