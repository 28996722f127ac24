"""Log-domain special functions, extended-precision sums and the CSV writer.

Everything factorial-sized in this package -- (2k)!, R^{ns}, Mittag-Leffler
tails -- is carried as a natural-log magnitude plus a unit phase, so products
and positive sums stay representable far beyond float range.

All functions are pure.  The one caveat for concurrent use: theta_gauss_sum
temporarily raises mpmath's working precision, and that context is global,
so concurrent callers of the mpmath-backed paths should serialize.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

__all__ = [
    "MLParams",
    "log_gamma",
    "log_mittag_leffler",
    "mittag_type_imaginary",
    "polylog",
    "gauss_sum",
    "MAX_DPS",
    "MAX_SERIES_TERMS",
    "MAX_LOST_DIGITS",
    "theta_dps",
    "theta_gauss_sum",
    "ThetaResult",
    "MittagTypeFit",
    "SERIES_RTOL",
    "series_tail",
    "series_converged",
    "write_csv",
]

_GUARD_BITS = 64  # guard bits of gauss_sum's fixed-point walks

# Largest working precision (decimal digits) the extended-precision sums may
# ask for; the acceptance configs need at most 1126.  A laplace-discrete sum
# at the cap (n ~ 91 000) takes under a minute, one at 10^5 digits
# (n ~ 10^6) hours.
MAX_DPS = 10_000

# Largest number of terms the series of E_beta(i y) in mittag_type_imaginary
# may start from (``_imag_series_terms``), which bounds the log-gamma entries
# one series evaluates; the acceptance config needs 57.
MAX_SERIES_TERMS = 100_000

# Most float64 digits the series of E_beta(i y) may lose to cancellation
# (``_imag_digits_lost``): its terms peak near e^(y^(1/beta)) while the sum
# is about e^(cos(pi/(2 beta)) y^(1/beta)).  At the limit ln|E_beta(i y)| is
# within 3e-8 relative of a 120-digit sum for beta in [1.2, 5]; at beta = 2
# x = y^(1/beta) = 100 loses 12.7 digits and is off by 0.028.  The acceptance
# config loses 3.2.
MAX_LOST_DIGITS = 8.0

# A series is converged when its tail estimate (``series_tail``) is at most
# this share of its sum.  The one-ratio Gaussian series at N = 1 reads 1.1e-3
# (7.6e-5 is missing), so 1e-3 would call it unconverged.
SERIES_RTOL = 1e-2


@dataclass(frozen=True)
class MLParams:
    """Parameters of the two-parameter Mittag-Leffler function E_{alpha,beta}."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError("MLParams requires alpha > 0 and beta > 0")


_LGAMMA = np.frompyfunc(math.lgamma, 1, 1)


def log_gamma(x):
    """ln Gamma(x) for x > 0: a float for a scalar, a float array for an array.

    The package's one log-gamma: ``math.lgamma``, called directly on a
    scalar and entry by entry on an array.
    """
    if np.ndim(x) == 0:
        if not x > 0:
            raise ValueError(f"log_gamma requires x > 0, got {x}")
        return math.lgamma(x)
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):
        raise ValueError(f"log_gamma requires x > 0, got {x[~(x > 0)][0]}")
    return _LGAMMA(x).astype(float)


# ---------------------------------------------------------------------------
# Mittag-Leffler on the positive real axis
# ---------------------------------------------------------------------------

def _ml_series_log(alpha: float, beta: float, x: float) -> float:
    """log E_{alpha,beta}(x) for x >= 0 by log-domain summation of the series."""
    if x == 0.0:
        return -math.lgamma(beta)
    logx = math.log(x)
    # peak index ~ x^{1/alpha}/alpha; sum well past it
    kpeak = max(8, int(x ** (1.0 / alpha) / alpha) + 8)
    kmax = 2 * kpeak + 64
    while True:
        k = np.arange(kmax + 1)
        logt = k * logx - log_gamma(alpha * k + beta)
        m = logt.max()
        # positive terms; ratio of successive terms at the end
        ratio = x / (alpha * kmax + beta) ** alpha
        if ratio < 0.5 and logt[-1] - m < math.log(1e-15) - 4:
            s = np.exp(logt - m).sum()
            return m + math.log(s)
        kmax *= 2


def _ml_asymptotic_log(alpha: float, beta: float, x: float) -> float:
    """log of (1/alpha) x^{(1-beta)/alpha} exp(x^{1/alpha}) (leading growth term)."""
    return -math.log(alpha) + (1.0 - beta) / alpha * math.log(x) + x ** (1.0 / alpha)


def log_mittag_leffler(p: MLParams, x: float) -> float:
    """log E_{alpha,beta}(x) for x >= 0.

    The power series is summed in the log domain until the relative tail is
    below 1e-14; once x^{1/alpha} reaches 35 the dominant-exponential
    asymptotic form is used instead (the two branches agree to ~1e-12
    there, see the tests).
    """
    if not x >= 0:
        raise ValueError(f"log_mittag_leffler requires x >= 0, got x = {x!r}")
    if x > 0 and x ** (1.0 / p.alpha) >= 35.0:
        return _ml_asymptotic_log(p.alpha, p.beta, x)
    return float(_ml_series_log(p.alpha, p.beta, x))


@dataclass(frozen=True)
class MittagTypeFit:
    type_fitted: float
    intercept: float
    residual_rms: float
    y_grid: tuple
    logabs: tuple


def mittag_type_imaginary(beta: float, y_grid) -> MittagTypeFit:
    """Fit the exponential type of E_beta on the imaginary axis.

    Evaluates |E_beta(i y)| by a log-scaled complex series with a certified
    tail bound and fits ln|E_beta(iy)| against |y|^{1/beta}.  The slope
    estimates the type, which equals cos(pi/(2 beta)) for beta > 1.  A grid
    whose series would lose more than MAX_LOST_DIGITS float64 digits to
    cancellation raises ValueError.
    """
    if not beta > 1:
        raise ValueError("mittag_type_imaginary requires beta > 1")
    y = np.asarray(y_grid, dtype=float)
    if (y.ndim != 1 or len(y) < 4 or not np.all(np.isfinite(y))
            or np.any(np.diff(y) <= 0) or np.any(y <= 0)):
        raise ValueError("y_grid must be finite, increasing, positive, length >= 4")
    if y[-1] ** (1.0 / beta) < 20.0:
        raise ValueError(
            "insufficient grid range: need max(y)^(1/beta) >= 20 to expose the exponential regime"
        )
    terms = _imag_series_terms(beta, y[-1] ** (1.0 / beta))
    if terms > MAX_SERIES_TERMS:
        raise ValueError(f"max(y) = {y[-1]:g} needs {terms:.6g} series terms at beta = {beta:g}, "
                         f"above the cap of {MAX_SERIES_TERMS}")
    lost = _imag_digits_lost(beta, y[-1] ** (1.0 / beta))
    if lost > MAX_LOST_DIGITS:
        raise ValueError(f"max(y) = {y[-1]:g} loses {lost:.3g} float64 digits to cancellation "
                         f"at beta = {beta:g}, above the limit of {MAX_LOST_DIGITS:g}")

    logabs = np.array([_log_abs_E_beta_imag(beta, yi) for yi in y])
    xfit = y ** (1.0 / beta)
    slope, intercept = np.polyfit(xfit, logabs, 1)
    resid = logabs - (slope * xfit + intercept)
    return MittagTypeFit(
        type_fitted=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt(np.mean(resid**2))),
        y_grid=tuple(y),
        logabs=tuple(logabs),
    )


def _imag_series_terms(beta: float, x: float) -> int:
    """Terms the series of E_beta(i y) at y = x^beta starts from: twice its
    peak index x / beta, plus 32."""
    return int(2 * x / beta) + 32


def _imag_digits_lost(beta: float, x: float) -> float:
    """Decimal digits the series of E_beta(i y) at y = x^beta loses to
    cancellation: (1 - cos(pi/(2 beta))) x / ln 10."""
    return (1.0 - math.cos(math.pi / (2.0 * beta))) * x / math.log(10.0)


def _log_abs_E_beta_imag(beta: float, y: float) -> float:
    """ln |E_{beta,1}(i y)| by scaled complex summation with tail bound."""
    logy = math.log(y)
    kmax = _imag_series_terms(beta, y ** (1.0 / beta))
    while True:
        k = np.arange(kmax + 1)
        logt = k * logy - log_gamma(beta * k + 1)
        m = logt.max()
        ratio = y / (beta * kmax + 1) ** beta
        if ratio < 0.5 and logt[-1] - m < math.log(1e-18):
            terms = np.exp(logt - m) * np.exp(1j * (np.pi / 2.0) * k)
            s = terms.sum()
            # tail <= t_{kmax} * ratio/(1-ratio) <= e^{logt[-1]} relative to m-scale
            return m + math.log(abs(s))
        kmax *= 2


# ---------------------------------------------------------------------------
# Convergence of a series
# ---------------------------------------------------------------------------

def series_tail(mags) -> float:
    """Estimate of what a series of term magnitudes ``mags`` misses past its last term.

    The geometric tail last * r / (1 - r), where r is the largest ratio of
    each of the last five terms to its predecessor (all of them when there
    are fewer): the ratio method of Domb & Sykes, Proc. R. Soc. A 240 (1957).
    0 when the last term is exactly 0; inf when r >= 1, when a term is not
    finite, or when a single term leaves no ratio to read r from.
    """
    m = np.asarray(mags, dtype=float)
    if not np.isfinite(m).all():
        return math.inf
    last = float(m[-1])
    if last == 0.0:
        return 0.0
    if len(m) < 2:
        return math.inf
    m = m[-6:]
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 after 0 is no growth
        r = float(np.max(np.where(m[1:] == 0.0, 0.0, m[1:] / m[:-1])))
    return last * r / (1.0 - r) if r < 1.0 else math.inf


def series_converged(total: float, tail: float) -> bool:
    """The one convergence verdict: the sum is finite and its tail at most SERIES_RTOL of it."""
    return bool(math.isfinite(total) and tail <= SERIES_RTOL * abs(total))


# ---------------------------------------------------------------------------
# Polylogarithm inside the unit disc
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Bilateral Gaussian sums and the theta identity
# ---------------------------------------------------------------------------

def gauss_sum(c, kc, k_lo: int, k_hi: int):
    """sum_{k=k_lo}^{k_hi} exp(-c (k - kc)^2) at the caller's mpmath precision.

    The one extended-precision Gaussian-sum loop of the package.  The range
    is split at kc: an up walk over k >= kc and a down walk over k < kc, along
    each of which the terms only decrease when c > 0 (c <= 0 is summed
    correctly too, without the savings).  Each walk (:func:`_walk`) runs in
    Python integers, in fixed point scaled by its own first term, so a range
    far out in the tail keeps full relative precision.  When 2 kc is an exact
    integer the down walk's terms are the up walk's shifted by 0 or 1 places,
    and its sum is taken from the up walk's running sums.

    Error model (c > 0): a walk of M terms with P = prec + 64 fractional bits
    is off by less than M^2/2 units of 2^-P of its first term, which is below
    one unit of the working precision for M < 2^32; the first-term factor and
    the final rounding add about one unit each.  So the sum is good to about
    one unit in the last digit, whatever the number of terms.
    """
    c, kc = mp.mpf(c), mp.mpf(kc)
    ku = min(max(int(mp.ceil(kc)), k_lo), k_hi + 1)  # the up walk's first index
    n_up, n_down = k_hi - ku + 1, ku - k_lo
    p = mp.mp.prec + _GUARD_BITS
    with mp.workprec(p):
        d_up, d_down = ku - kc, kc - (ku - 1)  # both walks' first offsets, >= 0
        shift = d_down - d_up
        if n_up > 0 and n_down > 0 and mp.isint(shift):
            j = int(shift)
            s_up, s_j, s_jn = _walk(c, d_up, (n_up, j, j + n_down), p)
            total = mp.exp(-c * d_up**2) * (s_up + s_jn - s_j)
        else:
            total = sum(mp.exp(-c * d**2) * _walk(c, d, (n,), p)[0]
                        for d, n in ((d_up, n_up), (d_down, n_down)) if n > 0)
        total = mp.ldexp(total, -p)
    return +total


def _walk(c, d0, stops, p):
    """Running sums of t_m = exp(-c ((d0 + m)^2 - d0^2)), m = 0, 1, ..., d0 >= 0.

    Returns, for each n in ``stops``, t_0 + ... + t_{n-1} as an integer
    scaled by 2^p.  t, the ratio r = t_{m+1}/t_m = exp(-c (2 (d0 + m) + 1))
    and q = r_{m+1}/r_m = exp(-2c) are fixed-point integers, r and q with w
    fractional bits (w = p at first); each step is t <- t r, r <- r q.  For
    c > 0 the terms only decrease, so once t's length plus 64 guard bits
    falls more than 64 bits below w, r and q are cut to that length, which
    keeps t r good to one unit and makes each later product cheaper.  The
    walk stops at the last stop, or once t is 0.
    """
    r = int(mp.ldexp(mp.exp(-c * (2 * d0 + 1)), p))
    q = int(mp.ldexp(mp.exp(-2 * c), p))
    t, w, m, tot, sums = 1 << p, p, 0, 0, {}
    for n in sorted(stops):
        while m < n and t:
            tot += t
            t = t * r >> w
            r = r * q >> w
            m += 1
            cut = w - t.bit_length() - _GUARD_BITS
            if cut > _GUARD_BITS:
                r, q, w = r >> cut, q >> cut, w - cut
        sums[n] = tot
    return [sums[n] for n in stops]


@dataclass(frozen=True)
class ThetaResult:
    sum: float
    predicted: float
    log10_gap: float
    c_uniform: float
    log10_bound: float
    n: int
    a: float
    b: float


def theta_dps(n: int, a: float) -> int:
    """Working precision (decimal digits) of theta_gauss_sum(n, a, b): 40 digits
    below the gap bound exp(-2 n pi^2 / a).  Raises ValueError above MAX_DPS."""
    if n < 1:
        raise ValueError("theta_gauss_sum requires n >= 1")
    if not a > 0:
        raise ValueError("theta_gauss_sum requires a > 0")
    dps = int(2 * n * math.pi**2 / a / math.log(10)) + 40
    if dps > MAX_DPS:
        raise ValueError(f"the theta sum with n = {n}, a = {a:g} needs {dps} digits of "
                         f"working precision, above the cap of {MAX_DPS}")
    return dps


def theta_gauss_sum(n: int, a: float, b: float) -> ThetaResult:
    """Bilateral sum S = sum_k exp[-n (a/2) (k/n - b)^2] against sqrt(2 n pi / a).

    The relative gap obeys |S/pred - 1| = O(exp(-2 n pi^2 / a)) uniformly in b.
    That bound is far below float resolution for moderate n, so the sum and
    the gap are evaluated with :func:`gauss_sum` (c = a/(2n), kc = n b) at the
    working precision :func:`theta_dps`; ``c_uniform`` reports
    gap / exp(-2 n pi^2 / a).
    """
    dps = theta_dps(n, a)
    log10_bound = -2 * n * math.pi**2 / a / math.log(10)
    with mp.workdps(dps):
        an, bn = mp.mpf(a), mp.mpf(b)
        halfw = int(math.sqrt(2 * n * (dps + 20) * math.log(10) / a)) + 2
        k0 = int(round(n * b))
        ssum = gauss_sum(an / (2 * n), n * bn, k0 - halfw, k0 + halfw)
        pred = mp.sqrt(2 * n * mp.pi / an)
        gap = abs(ssum / pred - 1)
        log10_gap = float(mp.log10(gap)) if gap > 0 else -math.inf
        c_uniform = float(gap * mp.exp(2 * n * mp.pi**2 / an))
        return ThetaResult(
            sum=float(ssum),
            predicted=float(pred),
            log10_gap=log10_gap,
            c_uniform=c_uniform,
            log10_bound=log10_bound,
            n=n,
            a=float(a),
            b=float(b),
        )


# ---------------------------------------------------------------------------
# Result files
# ---------------------------------------------------------------------------

_NUMBER = (int, float, np.floating)  # written as %.17g; anything else by str


@functools.lru_cache(maxsize=128)
def _line_format(types: tuple) -> str:
    return ",".join("%.17g" if issubclass(t, _NUMBER) else "%s" for t in types) + "\n"


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row: numbers as repr-exact ``.17g``, the rest by str.

    Each block of up to 256 rows is formatted by one %-format, built from
    each row's value types.
    """
    rows = iter(rows)
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        while block := [tuple(r) for r in itertools.islice(rows, 256)]:
            fmt = "".join([_line_format(tuple(map(type, r))) for r in block])
            f.write(fmt % tuple([v for r in block for v in r]))
