"""Log-domain special functions, extended-precision sums and the CSV writer.

Everything factorial-sized in this package -- (2k)!, R^{ns}, Mittag-Leffler
coefficients -- is carried as a natural-log magnitude plus a unit phase, so
products and positive sums stay representable far beyond float range.

All functions are pure.  The one caveat for concurrent use: theta_gauss_sum
temporarily raises mpmath's working precision, and that context is global,
so concurrent callers of the mpmath-backed paths should serialize.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

__all__ = [
    "log_gamma",
    "mittag_type_imaginary",
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
# Mittag-Leffler type on the imaginary axis
# ---------------------------------------------------------------------------

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
    beyond = _imag_beyond_reach(beta, y[-1] ** (1.0 / beta))
    if beyond:
        raise ValueError(f"max(y) = {y[-1]:g} {beyond}")

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


def _imag_series_terms(beta: float, x: float) -> int | float:
    """Terms the series of E_beta(i y) at y = x^beta starts from: twice its
    peak index x / beta, plus 32; inf past the float range."""
    terms = 2 * (x / beta)
    return int(terms) + 32 if terms < math.inf else math.inf


def _imag_digits_lost(beta: float, x: float) -> float:
    """Decimal digits the series of E_beta(i y) at y = x^beta loses to
    cancellation: (1 - cos(pi/(2 beta))) x / ln 10."""
    return (1.0 - math.cos(math.pi / (2.0 * beta))) * x / math.log(10.0)


def _imag_beyond_reach(beta: float, hi: float):
    """Why the series of E_beta(i y) at y = hi^beta is not summed, or None: it
    needs more than MAX_SERIES_TERMS terms, y is beyond the float range, or it
    loses more than MAX_LOST_DIGITS digits."""
    terms = _imag_series_terms(beta, hi)
    if terms > MAX_SERIES_TERMS:
        return (f"needs {terms:.6g} series terms at beta = {beta:g}, above the cap of "
                f"{MAX_SERIES_TERMS}")
    if beta * math.log(hi) > math.log(sys.float_info.max):
        return f"gives y = hi^beta beyond the float range at beta = {beta:g}"
    lost = _imag_digits_lost(beta, hi)
    if lost > MAX_LOST_DIGITS:
        return (f"loses {lost:.3g} float64 digits to cancellation at beta = {beta:g}, above "
                f"the limit of {MAX_LOST_DIGITS:g}")
    return None


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
# Bilateral Gaussian sums and the theta identity
# ---------------------------------------------------------------------------

def gauss_sum(c, kc, k_lo: int, k_hi: int):
    """sum_{k=k_lo}^{k_hi} exp(-c (k - kc)^2) at the caller's mpmath precision.

    The extended-precision Gaussian sum of the package.  The range is split
    at kc: an up walk over k >= kc and a down walk over k < kc, along each of
    which the terms only decrease when c > 0 (c <= 0 is summed correctly too,
    without the savings).  Each walk runs in Python integers, in fixed point
    scaled by its own first term, so a range far out in the tail keeps full
    relative precision.  The walks are :func:`_walk`, the package's one
    fixed-point loop, which the small-t eigen kernel
    (``heatsim._kernel_eigen_small_t``) runs too, alternating.  When 2 kc is
    an exact integer the down walk's terms are the up walk's shifted by 0 or
    1 places, and its sum is taken from the up walk's running sums.

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


def _walk(c, d0, stops, p, alternating=False):
    """Running sums of t_m = exp(-c ((d0 + m)^2 - d0^2)), m = 0, 1, ..., d0 >= 0.

    Returns, for each n in ``stops``, t_0 + ... + t_{n-1} as an integer
    scaled by 2^p; with ``alternating``, t_0 - t_1 + ... + (-1)^(n-1) t_{n-1}.
    t, the ratio r = t_{m+1}/t_m = exp(-c (2 (d0 + m) + 1))
    and q = r_{m+1}/r_m = exp(-2c) are fixed-point integers, r and q with w
    fractional bits (w = p at first); each step is t <- t r, r <- r q.  For
    c > 0 the terms only decrease, so once t's length plus 64 guard bits
    falls more than 64 bits below w, r and q are cut to that length, which
    keeps t r good to one unit and makes each later product cheaper.  t, r
    and q stay positive either way: the terms of even and odd m are summed
    apart, exactly, and the sums added or subtracted at each stop.  The walk
    stops at the last stop, or once t is 0.
    """
    r = int(mp.ldexp(mp.exp(-c * (2 * d0 + 1)), p))
    q = int(mp.ldexp(mp.exp(-2 * c), p))
    t, w, m, parts, sums = 1 << p, p, 0, [0, 0], {}  # parts: the even-m and odd-m sums
    for n in sorted(stops):
        while m < n and t:
            parts[m & 1] += t
            t = t * r >> w
            r = r * q >> w
            m += 1
            cut = w - t.bit_length() - _GUARD_BITS
            if cut > _GUARD_BITS:
                r, q, w = r >> cut, q >> cut, w - cut
        sums[n] = parts[0] - parts[1] if alternating else parts[0] + parts[1]
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


def _theta_digits(n: int, a: float):
    """40 digits below the gap bound exp(-2 n pi^2 / a), for n >= 1 and a > 0:
    an int, or inf where the bound's exponent passes the float range."""
    digits = 2.0 * n * math.pi**2 / a / math.log(10)
    return int(digits) + 40 if digits < math.inf else math.inf


def theta_dps(n: int, a: float) -> int:
    """Working precision (decimal digits) of theta_gauss_sum(n, a, b):
    :func:`_theta_digits`.  Raises ValueError above MAX_DPS."""
    if n < 1:
        raise ValueError("theta_gauss_sum requires n >= 1")
    if not a > 0:
        raise ValueError("theta_gauss_sum requires a > 0")
    dps = _theta_digits(n, a)
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


def _blocks(rows):
    """(%-format, values) of each block of up to 256 rows."""
    if isinstance(rows, np.ndarray) and rows.dtype != object:
        # the format comes from the dtype, and tolist hands % Python scalars:
        # int and bool columns are written by str, as np.int64 and np.bool_ are
        line = _line_format((rows.dtype.type,) * rows.shape[1])
        for i in range(0, len(rows), 256):
            block = rows[i:i + 256]
            yield line * len(block), tuple(block.ravel().tolist())
        return
    rows = iter(rows)
    while block := [tuple(r) for r in itertools.islice(rows, 256)]:
        yield ("".join([_line_format(tuple(map(type, r))) for r in block]),
               tuple([v for r in block for v in r]))


def write_csv(path, header, rows) -> None:
    """Header line, then one line per row: numbers as repr-exact ``.17g``, the rest by str.

    ``rows`` is an iterable of rows or a 2-D array.  Each block of up to 256
    rows is formatted by one %-format, built from the array's dtype (an
    object array's rows go by their values' types) or from each row's value
    types.  An array row is written as the row of its numpy scalars would be.
    """
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for fmt, values in _blocks(rows):
            f.write(fmt % values)
