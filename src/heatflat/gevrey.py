"""Gevrey classes: weight sequences, time/Fourier norms, analytic test signals.

The Hilbert norm of order s, radius R, exponent gamma is

    ||phi||^2 = sum_n ( ||phi^(n)||_{L2} / M_n )^2,
    M_n = (ns)! / R^{ns} * (1+n)^(-s*gamma - 1/4),

and its Fourier-side counterpart is the L2 norm against the weight
(1+|xi|)^gamma exp(R |xi|^{1/s}).  Test signals carry closed-form derivative
tables (all orders up to N in one call); numerical differentiation is never used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .numkit import log_gamma

__all__ = [
    "GevreyParams",
    "Signal",
    "gevrey_norm_time",
    "weighted_fourier_norm",
    "bump_gevrey",
    "bump_derivs",
    "two_sided_bump",
    "gaussian_signal",
    "gevrey_cutoff",
    "product_signal",
    "fourier_decay_fit",
    "GevreyNormResult",
    "DecayFit",
]


@dataclass(frozen=True)
class GevreyParams:
    """Order s > 0, radius R > 0 and polynomial exponent gamma."""

    s: float
    R: float
    gamma: float = 0.0

    def __post_init__(self):
        if not (self.s > 0 and self.R > 0):
            raise ValueError("GevreyParams requires s > 0 and R > 0")


@dataclass
class Signal:
    """A uniformly sampled signal with an optional analytic derivative table.

    ``derivs(N, t)`` must return an (N+1, len t) array whose row n is the n-th
    derivative at the points ``t``: one call yields every order up to N, so a
    provider shares the work of the lower orders (recurrences, Leibniz
    factors) instead of redoing it per order.  A provider is pointwise:
    column j of ``derivs(N, t)`` depends on ``t[j]`` alone, bit for bit, so a
    table on a subset of the points is the same subset of the table's columns
    (the norm quadrature relies on this to evaluate every node once).

    ``values`` may be None when ``derivs`` is given: it is then row 0 of
    ``derivs(0, grid)``.  Otherwise that row is checked against ``values``.
    """

    grid: np.ndarray
    values: np.ndarray = None  # None: row 0 of derivs(0, grid)
    derivs: object = None  # callable (N, t_array) -> (N+1, len t) array
    compact_support: bool = False
    family: str = "raw"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) < 2:
            raise ValueError("grid must be 1-D with at least two points")
        # spacings of a uniform grid differ only by the rounding of its values
        h = np.diff(self.grid)
        if np.any(np.abs(h - h[0]) > 8.0 * np.finfo(float).eps * np.max(np.abs(self.grid))):
            raise ValueError("grid must be uniform to a few ulps of its largest value")
        if self.values is None:
            if self.derivs is None:
                raise ValueError("a signal needs values or a derivative provider")
            self.values = self.derivs(0, self.grid)[0]
            return
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError("values must match grid shape")
        if self.derivs is not None:
            v0 = self.derivs(0, self.grid)[0]
            scale = max(np.max(np.abs(self.values)), 1e-300)
            if not np.max(np.abs(v0 - self.values)) <= 1e-10 * scale:  # NaN fails too
                raise ValueError("derivs(0, .)[0] disagrees with sampled values beyond 1e-10")

    def deriv(self, n: int, t) -> np.ndarray:
        """The n-th derivative alone: row n of the table up to order n."""
        return self.derivs(n, t)[n]

    @property
    def step(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def t0(self) -> float:
        return float(self.grid[0])

    @property
    def t1(self) -> float:
        return float(self.grid[-1])

    def __add__(self, other: "Signal") -> "Signal":
        _same_grid(self, other)
        da, db = self.derivs, other.derivs
        return Signal(
            self.grid,
            self.values + other.values,
            derivs=(lambda N, t: da(N, t) + db(N, t)) if (da and db) else None,
            compact_support=self.compact_support and other.compact_support,
            family="sum",
            params={"terms": [self.descriptor(), other.descriptor()]},
        )

    def descriptor(self) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "t0": self.t0,
            "t1": self.t1,
            "n": len(self.grid),
            "compact_support": self.compact_support,
        }


def _same_grid(a: Signal, b: Signal) -> None:
    if len(a.grid) != len(b.grid) or np.max(np.abs(a.grid - b.grid)) > 1e-12:
        raise ValueError("signals must share a grid")


def _leibniz(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Derivative table of a product: row n is sum_j C(n, j) A[j] B[n - j], in increasing j."""
    out = np.zeros_like(A)
    for n in range(len(A)):
        for j in range(n + 1):
            out[n] += comb(n, j) * A[j] * B[n - j]
    return out


def product_signal(a: Signal, b: Signal, family: str = "product") -> Signal:
    """Pointwise product with a Leibniz-rule derivative table."""
    _same_grid(a, b)
    da, db = a.derivs, b.derivs
    return Signal(
        a.grid,
        a.values * b.values,
        derivs=(lambda N, t: _leibniz(da(N, t), db(N, t))) if (da and db) else None,
        compact_support=a.compact_support or b.compact_support,
        family=family,
        params={"factors": [a.descriptor(), b.descriptor()]},
    )


# ---------------------------------------------------------------------------
# Weight sequence M_n
# ---------------------------------------------------------------------------

def _log_Mn(p: GevreyParams, n: np.ndarray) -> np.ndarray:
    """log M_n = log[(ns)!/R^{ns} (1+n)^{-s gamma - 1/4}] at the orders n."""
    return (
        log_gamma(n * p.s + 1.0)
        - n * p.s * math.log(p.R)
        - (p.s * p.gamma + 0.25) * np.log1p(n)
    )


# ---------------------------------------------------------------------------
# Time-domain norm
# ---------------------------------------------------------------------------

# fourth-order end weights of the trapezoid rule (Press et al., Numerical
# Recipes, eq. 4.1.14): the rule stays exact for cubics on m >= 8 nodes
_END_WEIGHTS = np.array([17.0, 59.0, 43.0, 49.0], dtype=np.longdouble) / 48.0


def _log_l2_norm(f, a: float, b: float, log_w=0.0, rtol: float = 1e-8, m0: int = 513,
                 mmax: int = 32769):
    """log of the L2 norms of the rows of f over [a, b]; end-corrected trapezoid with halving.

    The weights are h at the interior nodes and h (17, 59, 43, 49)/48 at the
    four nodes of each end.  The trapezoid rule converges exponentially on
    integrands flat at both ends (Trefethen & Weideman, SIAM Review 56,
    2014), as every bump and Gaussian is; where an end is not flat, the end
    weights keep the O(h^4) error of Simpson's rule, which carries the error
    of the previous level's trapezoid sum and so settles a halving later.

    ``f(t)`` returns one row per function on the nodes ``t`` (or a single 1-D
    row), and must be pointwise (column j depends on t[j] alone, as a
    ``Signal.derivs`` is).  Every node is evaluated once: the first level
    takes ``f`` on linspace(a, b, m0); each later level of m = 2m' - 1 nodes
    takes it only on the new odd nodes linspace(a, b, m)[1::2] and
    interleaves them with the rows it has.  The even nodes of that level are
    the previous level's nodes bit for bit, since linspace(a, b, 2m' - 1)[::2]
    == linspace(a, b, m') (the step halves exactly), so each level's rows are
    those of a fresh table on its own nodes.

    One decision per level: the ladder stops where the log of the weighted
    total sum_n exp(2 (l_n - log_w[n])), l_n the log norm of row n and
    ``log_w`` one log weight per row, moves by less than rtol (for one row
    and log_w = 0: |dl| < rtol/2), so a row with a tiny share of the total
    never keeps it going.  A total that is not finite (a row overflowed, or
    is NaN) stops it at once, unsettled.  Returns (log_norms shaped like one
    column of f(t), -inf where a row vanishes on the nodes; the total
    settled).  Scaled so arbitrarily large derivative values stay in range.
    ValueError when m0 < 8, where the two end patches would overlap.
    """
    if m0 < 8:
        raise ValueError(f"the end-corrected rule needs m0 >= 8 nodes, got {m0}")
    rows = np.asarray(f(np.linspace(a, b, m0)))
    shape, rows = rows.shape[:-1], rows.reshape(-1, m0)
    prev, m = math.nan, m0  # prev: the level before's total; none for the first level
    while True:
        w = np.ones(m, dtype=np.longdouble)
        w[:4], w[-4:] = _END_WEIGHTS, _END_WEIGHTS[::-1]
        v = rows.astype(np.longdouble)
        mx = np.max(np.abs(v), axis=1)
        with np.errstate(divide="ignore"):  # log 0 = -inf for a vanishing row
            sq = np.sum(w * (v / np.where(mx > 0.0, mx, 1.0)[:, None]) ** 2, axis=1)
            integral = (np.log(sq) + np.log((b - a) / (m - 1))).astype(float)
            log_norms = np.log(mx).astype(float) + 0.5 * integral
        x = 2.0 * (log_norms - log_w)
        top = np.max(x)  # -inf when every row vanishes
        total = top + math.log(np.sum(np.exp(x - top))) if np.isfinite(top) else top
        settled = bool(abs(total - prev) < rtol or total == -math.inf)
        if settled or not math.isfinite(total) or 2 * m - 1 > mmax:
            return log_norms.reshape(shape), settled
        prev, m = total, 2 * m - 1
        odd = np.asarray(f(np.linspace(a, b, m)[1::2])).reshape(len(rows), -1)
        both = np.empty((len(rows), m), dtype=np.result_type(rows, odd))
        both[:, ::2], both[:, 1::2] = rows, odd
        rows = both


@dataclass(frozen=True)
class GevreyNormResult:
    partial_sums: np.ndarray
    increments: np.ndarray
    converged: bool
    quadrature_ok: bool

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1])


def gevrey_norm_time(sig: Signal, p: GevreyParams, N: int) -> GevreyNormResult:
    """Partial sums of sum_n (||phi^(n)||_{L2} / M_n)^2 up to n = N, for any N >= 1.

    The quadrature settles on this weighted total (``quadrature_ok``); a row
    that overflows or is NaN makes it non-finite, without a warning.
    The convergence flag is set when the last five increments (all of them
    after the first when N < 5) decay geometrically, each at most 0.95 times
    its predecessor, or are below 1e-14 of the total.
    """
    if sig.derivs is None:
        raise ValueError("gevrey_norm_time requires a signal with a derivative provider")
    if N < 1:
        raise ValueError("N must be >= 1")
    logM = _log_Mn(p, np.arange(N + 1, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        log_norms, quad_ok = _log_l2_norm(lambda t: sig.derivs(N, t), sig.t0, sig.t1, logM)
        incs = np.exp(2.0 * (log_norms - logM))
    partial = np.cumsum(incs)
    total = partial[-1]
    tail = incs[-6:]
    last = tail[1:]
    converged = bool(np.isfinite(total) and (np.all(last <= 1e-14 * total)
                     or np.all(last / np.maximum(tail[:-1], 1e-300) <= 0.95)))
    return GevreyNormResult(partial, incs, converged, quad_ok)


# ---------------------------------------------------------------------------
# Fourier-domain norm
# ---------------------------------------------------------------------------

def _spectrum(sig: Signal, pad: int = 4):
    """|F phi| on the positive rFFT grid with zero padding (unitary convention)."""
    n = len(sig.grid)
    n2 = 1 << int(math.ceil(math.log2(pad * n)))
    V = np.fft.rfft(np.real(sig.values), n=n2)
    xi = 2.0 * np.pi * np.fft.rfftfreq(n2, d=sig.step)
    F = sig.step / math.sqrt(2.0 * math.pi) * np.abs(V)
    return xi, F


def _lagrange8(f: np.ndarray, x0: float, h: float, x) -> np.ndarray:
    """Values at x of the 8-point local Lagrange interpolant of the table
    f[j] = f(x0 + j h) (Berrut & Trefethen, SIAM Review 46, 2004).

    A point in [x0 + j h, x0 + (j+1) h) reads the nodes j-3 .. j+4, the
    stencil shifted inside the table at its ends; a caller whose function is
    known beyond the table (by symmetry, or as a constant) extends the table
    by 3 nodes on each side so that every stencil stays centred.
    """
    s = (np.asarray(x, dtype=float) - x0) / h
    j0 = np.clip(np.floor(s).astype(int) - 3, 0, len(f) - 8)
    s -= j0
    d = [s - k for k in range(8)]  # distances to the stencil nodes
    # l_i = prod_{k != i} d_k / prod_{k != i} (i - k), as the product of the
    # d_k left of i and those right of i; the denominator is (-1)^(7-i) i! (7-i)!
    right = [None] * 8
    right[7] = np.ones_like(s)
    for i in range(7, 0, -1):
        right[i - 1] = right[i] * d[i]
    out = np.zeros_like(s)
    left = np.ones_like(s)
    for i in range(8):
        denom = (-1) ** (7 - i) * math.factorial(i) * math.factorial(7 - i)
        out += left * right[i] * f[j0 + i] / denom
        left = left * d[i]
    return out


def weighted_fourier_norm(sig: Signal, p: GevreyParams) -> float:
    """integral over xi of |F phi(xi)|^2 (1+|xi|)^{2 gamma} e^{2 R |xi|^{1/s}}.

    Discrete Fourier transform on a zero-padded grid (factor 8 >= 4, length a
    power of two); |F|^2, even in xi, is read between the grid frequencies by
    ``_lagrange8`` on its table mirrored at xi = 0, and the integral is taken
    in the variable xi = rho^s, which removes the |xi|^{1/s} cusp of the
    weight at zero for s >= 1 (ValueError for s < 1, where its Jacobian
    s rho^(s-1) is infinite).  Frequencies where |F|^2 is at or below 1e-30
    of its maximum (the transform's noise floor) are cut, then those where
    the integrand falls below 1e-16 of its maximum.  The signal must be
    compactly supported inside the grid or decay below 1e-14 (relative) at
    the grid ends.
    """
    vmax = np.max(np.abs(sig.values))
    if vmax == 0.0:
        return 0.0
    if not sig.compact_support:
        edge = max(abs(sig.values[0]), abs(sig.values[-1]))
        if edge > 1e-14 * vmax:
            raise ValueError("signal does not decay at grid ends; Fourier norm would leak")
    xi, F = _spectrum(sig, pad=8)
    F2 = F * F
    with np.errstate(over="ignore"):
        logw2 = 2.0 * p.gamma * np.log1p(xi) + 2.0 * p.R * xi ** (1.0 / p.s)
    # |F|^2 at or below 1e-30 of its peak is the FFT's rounding noise: the
    # weight would lift it into the integrand, so it is cut first
    logint = np.where(F2 > 1e-30 * F2.max(), np.log(np.maximum(F2, 1e-300)) + logw2, -np.inf)
    live = logint > logint.max() + math.log(1e-16)
    if not live.any():  # the log weight overflows, or is too large to resolve the cut
        raise ValueError(f"the weight e^(2 R xi^(1/s)) overflows on the frequency grid "
                         f"at s = {p.s:g}, R = {p.R:g}")
    if p.s < 1.0:  # after the overflow test, which also names R
        raise ValueError(f"the substitution xi = rho^s removes the cusp of the weight only "
                         f"for s >= 1, got s = {p.s:g}")
    xi_hi = xi[np.where(live)[0][-1]]
    m = 8193
    rho = np.linspace(0.0, xi_hi ** (1.0 / p.s), m)
    xs = rho**p.s
    F2_xs = _lagrange8(np.concatenate([F2[3:0:-1], F2]), -3.0 * xi[1], xi[1], xs)
    vals = (p.s * rho ** (p.s - 1.0) * np.maximum(F2_xs, 0.0)
            * np.exp(2.0 * p.R * rho) * (1.0 + xs) ** (2.0 * p.gamma))
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = rho[1] - rho[0]
    # bilateral integral; |F| is even for real signals
    return 2.0 * float(np.sum(w * vals) * h / 3.0)


# ---------------------------------------------------------------------------
# Analytic test signals
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _bump_coeffs(g: float, N: int):
    """Coefficients d[n] (read-only, long double) of D_n(u) for n <= N, and
    log max_n sum_m |d[n, m]|; d[n+1, m] = -(m g + n) d[n, m] + g d[n, m-1]."""
    d = [np.ones(1, dtype=np.longdouble)]
    for k in range(N):
        nxt = np.zeros(k + 2, dtype=np.longdouble)
        nxt[: k + 1] += -(np.arange(k + 1) * g + k) * d[k]
        nxt[1:] += g * d[k]
        d.append(nxt)
    for c in d:
        c.flags.writeable = False
    # the log in long double: the largest sum passes the float64 range near N = 250
    return tuple(d), float(np.log(max(np.sum(np.abs(c)) for c in d)))


def _one_sided_bump(g: float, N: int, t) -> np.ndarray:
    """Derivative table of f(t) = exp(-t^-g) for t > 0 (0 for t <= 0).

    f^(n) = f t^-n D_n(u), u = t^-g, with the coefficients of ``_bump_coeffs``:
    in long double, one Horner pass in u per row (the alternating D_n(u) loses
    digits at large n) times the scale t^-n e^-u.  That scale takes one exp
    per point: row n's is row n-1's times 1/t, within about n 2^-64 relative.
    Where e^-u is not a normal long double (u > 11355), the walk would carry
    a subnormal's few digits up the rows, so those points take
    exp(-n log t - u) per row.  Rows stay 0.0 where the bound
    max_n sum_m |d[n,m]| max(u, 1)^(N(1+1/g)) e^-u underflows float64.
    """
    g, t = float(g), np.asarray(t, dtype=np.longdouble)
    out = np.zeros((N + 1, len(t)))
    d, log_dsum = _bump_coeffs(g, N)
    pos = np.flatnonzero(t > 0)
    logt = np.log(t[pos])
    with np.errstate(over="ignore"):  # u = inf only where the bound drops the point
        u = np.exp(-g * logt)
    live = (log_dsum - u
            + N * (1.0 + 1.0 / g) * np.maximum(-g * logt, 0.0) > -745.2)  # e^-745.2 < 2^-1075
    pos, logt, u = pos[live], logt[live], u[live]
    inv_t = 1.0 / t[pos]
    scale = np.exp(-u)
    sub = np.flatnonzero(scale < np.finfo(np.longdouble).smallest_normal)
    for n in range(N + 1):
        if n:
            scale *= inv_t
        if len(sub):
            scale[sub] = np.exp(-n * logt[sub] - u[sub])
        out[n, pos] = np.polyval(d[n][::-1], u) * scale
    return out


def _bump_pair(g: float, a: float, b: float, N: int, t) -> np.ndarray:
    """Derivative table of f(t - a) * f(b - t), f the one-sided bump; zero outside (a, b)."""
    t = np.asarray(t, dtype=float)
    out = np.zeros((N + 1, len(t)))
    inside = (t > a) & (t < b)
    right = _one_sided_bump(g, N, b - t[inside])
    right[1::2] *= -1.0  # chain rule of the reflection
    out[:, inside] = _leibniz(_one_sided_bump(g, N, t[inside] - a), right)
    return out


def bump_derivs(gamma_exp: float, t_scale: float = 1.0):
    """The derivative provider (N, t) -> table of y(t) = exp(-(t/t_scale)^-gamma_exp)."""
    if not gamma_exp > 0:
        raise ValueError("gamma_exp must be > 0")
    s = float(t_scale)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"t_scale must be finite and > 0, got {t_scale:g}")

    def derivs(N, t):
        tab = _one_sided_bump(gamma_exp, N, np.asarray(t, dtype=float) / s)
        for n in range(1, N + 1):
            # the Python power: s ** arange(N + 1) differs in the last ulp; an
            # exact 0.0 stays 0.0 where s**n underflows (0/0 would be NaN)
            np.divide(tab[n], s**n, out=tab[n], where=tab[n] != 0.0)
        return tab

    return derivs


def bump_gevrey(gamma_exp: float, t_scale: float = 1.0, grid: np.ndarray = None,
                npts: int = 2049) -> Signal:
    """One-sided Gevrey bump y(t) = exp(-(t/t_scale)^-gamma_exp) for t > 0.

    Flat at 0 with all derivatives vanishing; nominal Gevrey order
    1 + 1/gamma_exp.  Derivatives come from the exact rational recurrence
    (``bump_derivs``).
    """
    derivs = bump_derivs(gamma_exp, t_scale)
    s = float(t_scale)
    if grid is None:
        grid = np.linspace(-0.5 * s, 4.0 * s, npts)
    grid = np.asarray(grid, dtype=float)
    return Signal(grid, None, derivs=derivs, compact_support=False,
                  family="bump_gevrey", params={"gamma_exp": gamma_exp, "t_scale": s})


def two_sided_bump(center: float, halfwidth: float, gamma_exp: float,
                   grid: np.ndarray = None, npts: int = 2049) -> Signal:
    """Compactly supported bump on [center-halfwidth, center+halfwidth].

    Product of two one-sided bumps, normalized to unit peak; Gevrey of order
    1 + 1/gamma_exp.
    """
    if not gamma_exp > 0:
        raise ValueError("gamma_exp must be > 0")
    if not halfwidth > 0:
        raise ValueError("halfwidth must be > 0")
    a = center - halfwidth
    b = center + halfwidth
    peak = float(_one_sided_bump(gamma_exp, 0, np.array([halfwidth]))[0, 0]) ** 2
    if not peak > 0:
        raise ValueError(f"the bump's peak exp(-2 halfwidth^-gamma_exp) underflows to 0 "
                         f"(halfwidth = {halfwidth:g}, gamma_exp = {gamma_exp:g})")

    def derivs(N, t):
        return _bump_pair(gamma_exp, a, b, N, t) / peak

    if grid is None:
        grid = np.linspace(a - halfwidth, b + halfwidth, npts)
    grid = np.asarray(grid, dtype=float)
    return Signal(grid, None, derivs=derivs, compact_support=True,
                  family="two_sided_bump",
                  params={"center": center, "halfwidth": halfwidth, "gamma_exp": gamma_exp})


def gaussian_signal(center: float = 0.0, sigma: float = 1.0,
                    grid: np.ndarray = None, npts: int = 2049) -> Signal:
    """Gaussian exp(-(t-c)^2 / (2 sigma^2)) with Hermite-recurrence derivatives."""

    def derivs(N, t):
        x = (np.asarray(t, dtype=float) - center)
        f0 = np.exp(-(x**2) / (2.0 * sigma**2))
        out = [f0, -(x / sigma**2) * f0]
        for n in range(1, N):
            out.append(-(x / sigma**2) * out[n] - (n / sigma**2) * out[n - 1])
        return np.array(out[: N + 1])

    if grid is None:
        grid = np.linspace(center - 8.7 * sigma, center + 8.7 * sigma, npts)
    grid = np.asarray(grid, dtype=float)
    return Signal(grid, None, derivs=derivs, compact_support=False,
                  family="gaussian", params={"center": center, "sigma": sigma})


def gevrey_cutoff(t_a: float, t_b: float, order_s: float,
                  grid: np.ndarray = None, npts: int = 2049) -> Signal:
    """Cutoff identical to 1 on (-inf, t_a], 0 on [t_b, inf), Gevrey of order order_s.

    chi(t) = 1 - (1/Z) * integral_{t_a}^t rho, where rho is a normalized
    two-sided Gevrey bump supported on [t_a, t_b]; derivatives of chi are
    exact (chi^(n) = -rho^(n-1)/Z); chi itself is read by ``_lagrange8`` from
    a dense cumulative Simpson table, extended by 1 on the left and 0 on the
    right, where chi is exactly flat.
    """
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    if not (1.0 < order_s < 2.0):
        raise ValueError("order_s must lie in (1, 2)")
    g = 1.0 / (order_s - 1.0)
    w = 0.5 * (t_b - t_a)

    # cumulative integral of rho over [t_a, t_b]: composite Simpson on pairs
    # of subintervals, read at the even nodes
    mdense = 8193
    td = np.linspace(t_a, t_b, mdense)
    rd = _bump_pair(g, t_a, t_b, 0, td)[0]
    h = td[1] - td[0]
    cum_even = np.concatenate(
        [[0.0], np.cumsum((rd[0:-2:2] + 4.0 * rd[1:-1:2] + rd[2::2]) * (h / 3.0))]
    )
    Z = cum_even[-1]
    if not Z > 0:
        raise ValueError(f"order_s = {order_s:g} is too close to 1: its bump underflows "
                         f"to 0 over the whole support [{t_a:g}, {t_b:g}]")
    chi_tab = np.concatenate([np.ones(3), 1.0 - cum_even / Z, np.zeros(3)])
    h_even = (t_b - t_a) / (len(cum_even) - 1)  # td[1] - td[0] is off in its last digits

    def derivs(N, t):
        t = np.asarray(t, dtype=float)
        out = np.ones((N + 1, len(t)))
        inside = (t > t_a) & (t < t_b)
        out[0][t >= t_b] = 0.0
        out[0][inside] = _lagrange8(chi_tab, t_a - 3.0 * h_even, h_even, t[inside])
        out[1:] = -_bump_pair(g, t_a, t_b, N - 1, t) / Z  # empty when N = 0
        return out

    if grid is None:
        grid = np.linspace(t_a - w, t_b + w, npts)
    grid = np.asarray(grid, dtype=float)
    return Signal(grid, None, derivs=derivs, compact_support=False,
                  family="gevrey_cutoff",
                  params={"t_a": t_a, "t_b": t_b, "order_s": order_s})


# ---------------------------------------------------------------------------
# Fourier decay fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    delta: float
    intercept: float
    residual_rms: float
    mismatch: bool
    window: tuple
    npoints: int


def fourier_decay_fit(sig: Signal, order_s: float, rel_window=(1e-12, 1e-3),
                      mismatch_tol: float = 0.02) -> DecayFit:
    """Fit -ln|F phi(xi)| = c + delta * |xi|^{1/s} over a decay window.

    The window keeps the frequencies where |F phi| lies between 1e-12 and
    1e-3 of its maximum, cut before the FFT noise floor.  A large normalized
    fit residual flags that the signal does not decay at the claimed order
    (``mismatch``); the fitted slope delta estimates the decay rate.
    """
    if not sig.compact_support:
        raise ValueError("fourier_decay_fit expects a compactly supported signal")
    xi, F = _spectrum(sig, pad=4)
    Fmax = F.max()
    rel = F / Fmax
    lo, hi = rel_window
    # the Gevrey estimate bounds the *envelope*: bump spectra oscillate
    # through near-zeros, so fit only the points visible from the right
    # (suffix maxima = lobe peaks; every point for monotone spectra)
    imax = int(np.argmax(F))
    env = np.maximum.accumulate(F[::-1])[::-1]
    onenv = F >= env * (1.0 - 1e-12)
    floor = max(lo, 1e-13)
    window = (np.arange(len(F)) > imax) & (rel < hi) & (rel > floor) & onenv
    idx = np.where(window)[0]
    if len(idx) < 8:
        raise ValueError("decay window too small; enlarge the grid or padding")
    x = xi[idx] ** (1.0 / order_s)
    y = -np.log(F[idx])
    delta, icpt = np.polyfit(x, y, 1)
    resid = y - (delta * x + icpt)
    rms = float(np.sqrt(np.mean(resid**2)))
    spread = float(y.max() - y.min())
    mismatch = rms > mismatch_tol * max(spread, 1.0)
    return DecayFit(float(delta), float(icpt), rms, bool(mismatch),
                    (float(xi[idx[0]]), float(xi[idx[-1]])), len(idx))
