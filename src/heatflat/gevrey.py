"""Gevrey classes: weight sequences, time/Fourier norms, analytic test signals.

The Hilbert norm of order s, radius R, exponent gamma is

    ||phi||^2 = sum_n ( ||phi^(n)||_{L2} / M_n )^2,
    M_n = (ns)! / R^{ns} * (1+n)^(-s*gamma - 1/4),

and its Fourier-side counterpart is the L2 norm against the weight
(1+|xi|)^gamma exp(R |xi|^{1/s}).  Test signals carry closed-form derivative
tables (all orders up to N in one call); numerical differentiation is never used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .numkit import fit_line, log_gamma, series_converged, series_tail

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
    "nominal_order",
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


def product_signal(a: Signal, b: Signal) -> Signal:
    """Pointwise product with a Leibniz-rule derivative table."""
    _same_grid(a, b)
    da, db = a.derivs, b.derivs
    return Signal(
        a.grid,
        a.values * b.values,
        derivs=(lambda N, t: _leibniz(da(N, t), db(N, t))) if (da and db) else None,
        compact_support=a.compact_support or b.compact_support,
        family="product",
        params={"factors": [a.descriptor(), b.descriptor()]},
    )


def nominal_order(desc: dict):
    """Nominal Gevrey order of a signal descriptor, or None for a family without one.

    bump_gevrey and two_sided_bump: 1 + 1/gamma_exp; gaussian: 1/2;
    gevrey_cutoff: order_s; sum and product: the largest order of their parts.
    """
    family, params = desc["family"], desc["params"]
    if family in ("bump_gevrey", "two_sided_bump"):
        return 1.0 + 1.0 / params["gamma_exp"]
    if family == "gaussian":
        return 0.5
    if family == "gevrey_cutoff":
        return params["order_s"]
    if family in ("sum", "product"):
        orders = [nominal_order(d) for d in params["terms" if family == "sum" else "factors"]]
        return None if None in orders else max(orders)
    return None


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
_QUAD_M0 = 513  # nodes of the first level of _log_l2_norm's ladder (at least 8)
_QUAD_MMAX = 32769  # nodes of its last level
_QUAD_RTOL = 1e-8  # the change of the log total that settles it


def _log_l2_norm(f, a: float, b: float, log_w=0.0):
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
    takes ``f`` on linspace(a, b, _QUAD_M0); each later level of m = 2m' - 1 nodes
    takes it only on the new odd nodes linspace(a, b, m)[1::2] and
    interleaves them with the rows it has.  The even nodes of that level are
    the previous level's nodes bit for bit, since linspace(a, b, 2m' - 1)[::2]
    == linspace(a, b, m') (the step halves exactly), so each level's rows are
    those of a fresh table on its own nodes.

    One decision per level: the ladder stops where the log of the weighted
    total sum_n exp(2 (l_n - log_w[n])), l_n the log norm of row n and
    ``log_w`` one log weight per row, moves by less than _QUAD_RTOL (for one
    row and log_w = 0: |dl| < _QUAD_RTOL/2), so a row with a tiny share of
    the total never keeps it going; a level of _QUAD_MMAX nodes is the last.
    A total that is not finite (a row overflowed, or is NaN) stops it at
    once, unsettled.  Returns (log_norms shaped like one column of f(t),
    -inf where a row vanishes on the nodes; the total settled).  Scaled so
    arbitrarily large derivative values stay in range.
    """
    m = _QUAD_M0
    rows = np.asarray(f(np.linspace(a, b, m)))
    shape, rows = rows.shape[:-1], rows.reshape(-1, m)
    prev = math.nan  # the level before's total; none for the first level
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
        settled = bool(abs(total - prev) < _QUAD_RTOL or total == -math.inf)
        if settled or not math.isfinite(total) or 2 * m - 1 > _QUAD_MMAX:
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
    tail: float
    converged: bool
    quadrature_ok: bool

    @property
    def total(self) -> float:
        return float(self.partial_sums[-1])


def gevrey_norm_time(sig: Signal, p: GevreyParams, N: int) -> GevreyNormResult:
    """Partial sums of sum_n (||phi^(n)||_{L2} / M_n)^2 up to n = N, for any N >= 1.

    The quadrature settles on this weighted total (``quadrature_ok``); a row
    that overflows or is NaN makes it non-finite, without a warning.
    ``tail`` is ``numkit.series_tail`` of the increments, and ``converged``
    its verdict ``numkit.series_converged``.
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
    tail = series_tail(incs)
    return GevreyNormResult(partial, incs, tail, series_converged(partial[-1], tail), quad_ok)


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
    w = np.ones(m)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = rho[1] - rho[0]
    # where e^(2 R rho) or the Simpson sum overflows, the norm is inf or NaN: the caller
    # names it
    with np.errstate(over="ignore", invalid="ignore"):
        vals = (p.s * rho ** (p.s - 1.0) * np.maximum(F2_xs, 0.0)
                * np.exp(2.0 * p.R * rho) * (1.0 + xs) ** (2.0 * p.gamma))
        # bilateral integral; |F| is even for real signals
        return 2.0 * float(np.sum(w * vals) * h / 3.0)


# ---------------------------------------------------------------------------
# Analytic test signals
# ---------------------------------------------------------------------------

_NPTS = 2049  # points of a test signal's default grid


def _exp_series_rows(g: float, N: int, terms, r, out: np.ndarray, cols) -> None:
    """Derivatives 0..N in h at h = 0 of exp(-sum_i u_i (1 + c_i h/r)^-g), into out[:, cols].

    ``terms`` holds the (u_i, c_i) and ``r`` is the unit of x = h/r, all long
    double arrays over the points ``cols`` (an index array).  With the exponent's binomial series
    H_0 = -sum u_i, H_j = -C(-g, j) sum_i u_i c_i^j, the Taylor coefficients of
    its exp are F_0 = e^H_0, F_k = (1/k) sum_{j=1..k} j H_j F_{k-j}
    (Taylor-mode differentiation; Griewank & Walther, Evaluating
    Derivatives, SIAM 2008), and row n is n! F_n / r^n.  In long double, in
    blocks of at most 1024 points (fewer for N > 63), the recurrence runs on
    G_k = F_k / F_0 in the unit rho = r/(1 + g sum u_i), where the H_j are of
    order 1, so G stays in range where rows underflow.  Row n is G_n S_n,
    S_n = n! e^H_0 / rho^n = S_{n-1} n / rho: one exp per point, except where
    e^H_0 is not a normal long double, whose few digits the walk would carry
    up the rows; those points take one exp per row.  Rows that underflow are
    0.0, and points where rho underflows are left as they are.

    Each ladder, the powers u_i q_i^j (q_i = c_i rho / r) and the scales
    S_n, is one ``multiply.accumulate`` down an (N+1, points) array.  jH and G
    are held point-major, shape (points, N+1), so that each G_k is one einsum
    over contiguous rows, summed in increasing j for every point.  A block
    takes two buffers of its size: the power ladder's then holds G, and jH's
    the scale ladder.
    """
    if not len(cols):
        return
    n = np.arange(N + 1, dtype=np.longdouble)
    with np.errstate(over="ignore"):  # a coefficient past the range makes its rows not finite
        jC = -n * np.cumprod(np.concatenate([[1.0], (-g - n[:-1]) / n[1:]]))  # j H_j / sum u c^j
    log_fact = np.cumsum(np.log(n.clip(1.0)))
    step = max(1, min(1024, (1 << 16) // (N + 1)))
    for lo in range(0, len(cols), step):
        blk = slice(lo, lo + step)
        U = sum(u[blk] for u, _ in terms)
        k = 1.0 + g * U
        live = np.flatnonzero(r[blk] / k > 0.0)  # rho is 0 where g sum u passes the range
        k, U, rho = k[live], U[live], r[blk][live] / k[live]
        jH = np.zeros((len(live), N + 1), dtype=np.longdouble)
        ladder = np.empty((N + 1, len(live)), dtype=np.longdouble)
        with np.errstate(under="ignore"):  # a row that underflows is 0.0
            for u, c in terms:
                ladder[0], ladder[1:] = u[blk][live], c[blk][live] / k
                np.multiply.accumulate(ladder, axis=0, out=ladder)
                ladder[1:] *= jC[1:, None]
                jH.T[1:] += ladder[1:]
            G = ladder.reshape(jH.shape)
            G[:, 0] = 1.0
            for m in range(1, N + 1):
                G[:, m] = np.einsum("pj,pj->p", jH[:, 1:m + 1], G[:, m - 1::-1]) / m
            ladder = jH.reshape(N + 1, len(live))
            ladder[0] = np.exp(-U)
            np.divide(n[1:, None], rho, out=ladder[1:])
            sub = np.flatnonzero(ladder[0] < np.finfo(np.longdouble).smallest_normal)
            np.multiply.accumulate(ladder, axis=0, out=ladder)
            if len(sub):
                ladder[:, sub] = np.exp(log_fact[:, None] - n[:, None] * np.log(rho[sub])
                                        - U[sub])
            ladder *= G.T
            out[:, cols[blk][live]] = ladder
        del jH, ladder, G  # before the next block's buffers are allocated


def _one_sided_bump(g: float, N: int, t, s: float = 1.0) -> np.ndarray:
    """Derivative table of f(t) = exp(-(t/s)^-g) for t > 0 (0 for t <= 0).

    ``_exp_series_rows`` of one term: u = exp(-g log(t/s)) in long double,
    t/s rounded to float64 first, with c = 1 in the unit r = t.
    """
    g, t = float(g), np.asarray(t, dtype=float)
    out = np.zeros((N + 1, len(t)))
    tau = t / s
    pos = np.flatnonzero(tau > 0)
    with np.errstate(over="ignore"):  # u = inf: every row underflows there
        u = np.exp(-g * np.log(tau[pos].astype(np.longdouble)))
    c = np.broadcast_to(np.longdouble(1.0), u.shape)
    _exp_series_rows(g, N, [(u, c)], t[pos].astype(np.longdouble), out, pos)
    return out


def _bump_pair(g: float, a: float, b: float, N: int, t) -> np.ndarray:
    """Derivative table of f(t - a) * f(b - t), f the one-sided bump; zero outside (a, b).

    ``_exp_series_rows`` of two terms in the unit r = min(t - a, b - t):
    ((t - a)^-g, r/(t - a)) and ((b - t)^-g, -r/(b - t)).
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((N + 1, len(t)))
    inside = np.flatnonzero((t > a) & (t < b))
    da, db = (t[inside] - a).astype(np.longdouble), (b - t[inside]).astype(np.longdouble)
    r = np.minimum(da, db)
    with np.errstate(over="ignore"):  # u = inf: every row underflows there
        terms = [(np.exp(-g * np.log(da)), r / da), (np.exp(-g * np.log(db)), -r / db)]
    _exp_series_rows(g, N, terms, r, out, inside)
    return out


def bump_derivs(gamma_exp: float, t_scale: float = 1.0):
    """The derivative provider (N, t) -> table of y(t) = exp(-(t/t_scale)^-gamma_exp)."""
    if not gamma_exp > 0:
        raise ValueError("gamma_exp must be > 0")
    s = float(t_scale)
    if not (math.isfinite(s) and s > 0):
        raise ValueError(f"t_scale must be finite and > 0, got {t_scale:g}")

    def derivs(N, t):
        return _one_sided_bump(gamma_exp, N, t, s)

    return derivs


def bump_gevrey(gamma_exp: float, t_scale: float = 1.0, grid: np.ndarray = None) -> Signal:
    """One-sided Gevrey bump y(t) = exp(-(t/t_scale)^-gamma_exp) for t > 0.

    Flat at 0 with all derivatives vanishing; nominal Gevrey order
    1 + 1/gamma_exp.  Derivative rows come from ``bump_derivs``: the Taylor
    coefficients of the exp of the exponent's binomial series, by one
    recurrence in long double (``_exp_series_rows``).
    """
    derivs = bump_derivs(gamma_exp, t_scale)
    s = float(t_scale)
    if grid is None:
        grid = np.linspace(-0.5 * s, 4.0 * s, _NPTS)
    return Signal(grid, None, derivs=derivs, compact_support=False,
                  family="bump_gevrey", params={"gamma_exp": gamma_exp, "t_scale": s})


def two_sided_bump(center: float, halfwidth: float, gamma_exp: float,
                   grid: np.ndarray = None) -> Signal:
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
        grid = np.linspace(a - halfwidth, b + halfwidth, _NPTS)
    return Signal(grid, None, derivs=derivs, compact_support=True,
                  family="two_sided_bump",
                  params={"center": center, "halfwidth": halfwidth, "gamma_exp": gamma_exp})


def gaussian_signal(center: float = 0.0, sigma: float = 1.0,
                    grid: np.ndarray = None) -> Signal:
    """Gaussian exp(-(t-c)^2 / (2 sigma^2)) with Hermite-recurrence derivatives."""

    def derivs(N, t):
        x = (np.asarray(t, dtype=float) - center)
        f0 = np.exp(-(x**2) / (2.0 * sigma**2))
        out = [f0, -(x / sigma**2) * f0]
        for n in range(1, N):
            out.append(-(x / sigma**2) * out[n] - (n / sigma**2) * out[n - 1])
        return np.array(out[: N + 1])

    if grid is None:
        grid = np.linspace(center - 8.7 * sigma, center + 8.7 * sigma, _NPTS)
    return Signal(grid, None, derivs=derivs, compact_support=False,
                  family="gaussian", params={"center": center, "sigma": sigma})


def gevrey_cutoff(t_a: float, t_b: float, order_s: float,
                  grid: np.ndarray = None) -> Signal:
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
        if N:
            out[1:] = -_bump_pair(g, t_a, t_b, N - 1, t) / Z
        return out

    if grid is None:
        grid = np.linspace(t_a - w, t_b + w, _NPTS)
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


def fourier_decay_fit(sig: Signal, order_s: float) -> DecayFit:
    """Fit -ln|F phi(xi)| = c + delta * |xi|^{1/s} over a decay window.

    The window keeps the frequencies where |F phi| lies between 1e-12 and
    1e-3 of its maximum, cut before the FFT noise floor.  A large normalized
    fit residual (rms above 0.02 of the window's spread of -ln|F phi|, or of
    1) flags that the signal does not decay at the claimed order
    (``mismatch``); the fitted slope delta estimates the decay rate.
    """
    if not sig.compact_support:
        raise ValueError("fourier_decay_fit expects a compactly supported signal")
    xi, F = _spectrum(sig, pad=4)
    Fmax = F.max()
    rel = F / Fmax
    # the Gevrey estimate bounds the *envelope*: bump spectra oscillate
    # through near-zeros, so fit only the points visible from the right
    # (suffix maxima = lobe peaks; every point for monotone spectra)
    imax = int(np.argmax(F))
    env = np.maximum.accumulate(F[::-1])[::-1]
    onenv = F >= env * (1.0 - 1e-12)
    window = (np.arange(len(F)) > imax) & (rel < 1e-3) & (rel > 1e-12) & onenv
    idx = np.where(window)[0]
    if len(idx) < 8:
        raise ValueError("decay window too small; enlarge the grid or padding")
    x = xi[idx] ** (1.0 / order_s)
    y = -np.log(F[idx])
    delta, icpt, rms = fit_line(x, y)
    spread = float(y.max() - y.min())
    mismatch = rms > 0.02 * max(spread, 1.0)
    return DecayFit(delta, icpt, rms, bool(mismatch),
                    (float(xi[idx[0]]), float(xi[idx[-1]])), len(idx))
