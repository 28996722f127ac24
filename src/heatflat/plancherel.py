"""Numerical verification of the Plancherel-theorem engine.

The Fourier weight (1+|xi|)^gamma e^{R|xi|^{1/s}} with gamma < 0, R = 1 is
comparable to the entire even function

    varpi(xi) = E_{alpha, beta+1}(xi^2) = sum_k a_k xi^{2k},
    a_k = 1/Gamma(alpha k + beta + 1),  alpha = 2s,  beta = -gamma*s,

whose square has Taylor-type coefficients A_n = sum_k a_k a_{n-k}.  The
machinery checked here: the asymptotics A_n ~ (2e/(alpha n))^{alpha n}
n^{-2 beta - 1/2}, the bridge M_n ~ 1/sqrt(A_n) to the derivative-weight
sequence, the discrete Laplace method behind it, and the epsilon_n = n^{-mu}
remainder split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy.special import gammaln

from .gevrey import GevreyParams, _log_Mn
from .holo import CoeffSeq
from .numkit import gauss_sum

__all__ = [
    "varpi_params",
    "varpi_coeffs",
    "varpi_log",
    "convolution_An",
    "an_vs_Mn_bridge",
    "discrete_laplace",
    "laplace_remainder_split",
    "BridgeResult",
    "LaplaceResult",
    "RemainderSplit",
]

MAX_AN_TERMS = 5000  # largest N of convolution_An, an O(N^2) loop


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


def varpi_coeffs(p: GevreyParams, N: int) -> CoeffSeq:
    """Coefficients a_k = 1/Gamma(alpha k + beta + 1), k <= N, as a CoeffSeq."""
    alpha, beta = varpi_params(p)
    k = np.arange(N + 1)
    lm = -gammaln(alpha * k + beta + 1.0)
    return CoeffSeq(lm, np.ones(N + 1, dtype=complex), "even",
                    name="varpi", params={"alpha": alpha, "beta": beta})


def varpi_log(c: CoeffSeq, xi: float) -> float:
    """log varpi(xi) = log sum_k a_k xi^{2k} by log-domain summation."""
    k = np.arange(len(c))
    logt = c.log_mag + 2.0 * k * math.log(abs(xi)) if xi != 0 else c.log_mag
    m = np.max(logt)
    return float(m + math.log(np.exp(logt - m).sum()))


def convolution_An(p: GevreyParams, N: int):
    """A_n = sum_{k<=n} a_k a_{n-k} for n <= N, by direct log-domain convolution.

    Positive terms, fixed-order summation; O(N^2), capped at N = MAX_AN_TERMS.
    Returns the array of log A_n.
    """
    if N > MAX_AN_TERMS:
        raise ValueError(f"N capped at {MAX_AN_TERMS} (documented; O(N^2) convolution)")
    c = varpi_coeffs(p, N)
    loga = c.log_mag
    logA = np.empty(N + 1)
    for n in range(N + 1):
        terms = loga[: n + 1] + loga[n::-1]
        m = terms.max()
        logA[n] = m + math.log(np.exp(terms - m).sum())
    return logA


@dataclass(frozen=True)
class BridgeResult:
    band_width: float
    median: float
    values: np.ndarray


def an_vs_Mn_bridge(p: GevreyParams, N: int) -> BridgeResult:
    """Bounds max_n |log(M_n sqrt(A_n)) - median| over n <= N.

    A bounded band confirms M_n ~ 1/sqrt(A_n) for the weight sequence of the
    class (s, 1, gamma).
    """
    logA = convolution_An(p, N)
    logM = _log_Mn(p, np.arange(N + 1, dtype=float))
    v = logM + 0.5 * logA
    med = float(np.median(v))
    return BridgeResult(float(np.max(np.abs(v - med))), med, v)


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
    (``d2u_x0``), and n >= 2.  Sums run in the log domain.

    With ``dps`` set, ``u`` must be its own Gaussian model
    u(x0) + u''(x0)/2 (x - x0)^2: the float values u(k/n) must match it to
    1e-12 max(1, max |model|), and any other ``u`` raises ValueError.  The
    model sum is then evaluated exactly, at ``dps`` digits, as
    e^{-n u(x0)} gauss_sum(u''(x0)/(2n), n x0, 0, n) / n -- required to resolve
    the superexponentially small error of the pure-Gaussian case.  That error
    is the boundary truncation of the bilateral Gaussian sum, the terms
    beyond k = 0 and k = n: for u = (x - 1/2)^2 it is about
    2 e^{-n/4} / ((e - 1) sqrt(pi n)).  The theta gap of the bilateral sum,
    O(e^{-pi^2 n}), lies far below it.  The CLI's rule
    dps = 0.25 n/ln 10 + 40 is matched to the truncation law (40 digits below
    e^{-n/4}), not to the theta gap.
    """
    if n < 2:
        raise ValueError(f"discrete Laplace requires n >= 2, got n = {n}")
    if not (0.0 < x0 < 1.0):
        raise ValueError("x0 must lie strictly inside (0, 1)")
    if not d2u_x0 > 0:
        raise ValueError("discrete Laplace requires u''(x0) > 0")
    k = np.arange(n + 1)
    uvals = np.array([float(u(ki / n)) for ki in k])
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
    with mp.workdps(dps):
        d2u, scale = mp.mpf(d2u_x0), mp.exp(-n * mp.mpf(u0))
        s = scale * gauss_sum(d2u / (2 * n), n * mp.mpf(x0), 0, n) / n
        pred = mp.sqrt(2 * mp.pi / (d2u * n)) * scale
        rel = abs(s / pred - 1)
        log10_rel = float(mp.log10(rel)) if rel > 0 else -math.inf
        return LaplaceResult(float(mp.log(s)), float(mp.log(pred)), float(rel), log10_rel)


# ---------------------------------------------------------------------------
# Remainder split of the A_n derivation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RemainderSplit:
    near: float
    far: float
    gn_half: float
    eps_n: float


def _log_h(x: np.ndarray, alpha: float) -> np.ndarray:
    # h(x) = x^{alpha x} (1-x)^{alpha(1-x)}; xlogx -> 0 at the endpoints
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = np.where(x > 0, x * np.log(x), 0.0)
        t2 = np.where(x < 1, (1 - x) * np.log(1 - x), 0.0)
    return alpha * (t1 + t2)


def laplace_remainder_split(alpha: float, beta: float, n: int, mu: float) -> RemainderSplit:
    """The two remainder sums of the A_n derivation, normalized by 2^{alpha n}/sqrt(n).

    Splits (1/n) sum_k (g_n(k/n) - g_n(1/2)) h(k/n)^{-n} at |k/n - 1/2| =
    eps_n = n^{-mu} with 1/4 < mu < 1/2; both normalized magnitudes must
    vanish as n grows for the Laplace asymptotics to absorb the remainder.
    """
    if not (0.25 < mu < 0.5):
        raise ValueError("mu must lie in (1/4, 1/2)")
    eps_n = float(n) ** (-mu)
    k = np.arange(n + 1)
    x = k / n
    i_n = (1.0 / n + x) * (1.0 / n + 1.0 - x)
    g = i_n ** (-beta - 0.5)
    g_half = (1.0 / n + 0.5) ** (2.0 * (-beta - 0.5))
    dg = np.abs(g - g_half)
    logterms = np.where(dg > 0, np.log(np.maximum(dg, 1e-300)), -math.inf) - n * _log_h(x, alpha)
    near_mask = np.abs(x - 0.5) <= eps_n
    log_norm = alpha * n * math.log(2.0) - 0.5 * math.log(n) + math.log(n)

    def normed(mask):
        lt = logterms[mask]
        lt = lt[np.isfinite(lt)]
        if len(lt) == 0:
            return 0.0
        m = lt.max()
        return math.exp(m + math.log(math.fsum(np.exp(lt - m))) - log_norm)

    return RemainderSplit(normed(near_mask), normed(~near_mask), float(g_half), eps_n)
