"""Spectral simulation of the boundary-controlled 1-D heat equation.

System: z_t = z_xx on (0,1), z_x(t,1) = u(t), z_x(t,0) = 0, z(0,.) = 0,
output y(t) = z(t,0).  The Neumann Laplacian modes are lambda_j = (j pi)^2
with e_0 = 1, e_j = sqrt(2) cos(j pi x).  The input kernel

    k(t) = 1 + 2 sum_j (-1)^j e^{-(j pi)^2 t}
         = (pi t)^{-1/2} sum_m e^{-(m+1/2)^2 / t}

gives y = k * u.  ``simulate`` computes that convolution in blocks of time
steps: the kernel integrated over one step acts on the control and its
slopes by Toeplitz products, and only the mode state carried from block to
block steps in sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numkit import _GUARD_BITS, _walk

__all__ = [
    "SimConfig",
    "MAX_STEPS",
    "SimResult",
    "kernel_k",
    "simulate",
]

# cap on the time steps T/dt of one run: dt = 1e-6 at T = 1, where the target's
# float64 derivative table alone takes 0.2 GB at K = 25
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    J: int = 128
    dt: float = 1e-3
    T: float = 1.0
    x_grid: tuple = ()

    def __post_init__(self):
        if self.J < 1 or not self.dt > 0 or not 0 < self.T < math.inf:
            raise ValueError("SimConfig requires J >= 1, dt > 0, finite T > 0")
        if self.T / self.dt > MAX_STEPS:  # before any grid of that length is allocated
            raise ValueError(f"SimConfig with dt={self.dt:g} needs {self.T / self.dt:.4g} "
                             f"time steps over T={self.T:g}, above the cap of {MAX_STEPS}")
        if not _whole_steps(self.T, self.dt):
            raise ValueError(f"SimConfig requires T to be a multiple of dt "
                             f"(T={self.T:g}, dt={self.dt:g})")
        if len(self.x_grid) and (min(self.x_grid) < 0 or max(self.x_grid) > 1):
            raise ValueError("x_grid must lie in [0, 1]")

    def time_grid(self) -> np.ndarray:
        return np.arange(0.0, self.T + 0.5 * self.dt, self.dt)


def _whole_steps(T: float, dt: float) -> bool:
    """Whether T is a multiple of dt, to 1e-9 of T."""
    return abs(round(T / dt) * dt - T) <= 1e-9 * T


# ---------------------------------------------------------------------------
# The kernel k(t)
# ---------------------------------------------------------------------------

def _poisson_terms(t):
    """Image terms m = 0, 1, ... of k(t) that _kernel_poisson sums at each t: those
    with (m + 1/2)^2 / t up to 42, and one more.  Whole floats, exact below 2^53
    and finite for every finite t; np.sqrt rounds as math.sqrt does."""
    return np.floor(math.sqrt(42.0) * np.sqrt(t)) + 2


def _by_term_count(t: np.ndarray, counts: np.ndarray, row_sums) -> np.ndarray:
    """row_sums(n, ts) on each group ts of the points t with count n: one 2-D
    sum per group, whose contiguous rows reduce in the pairwise order of a
    point's own 1-D sum."""
    out = np.empty_like(t)
    for n in np.unique(counts):
        sel = counts == n
        out[sel] = row_sums(int(n), t[sel])
    return out


def _kernel_poisson(t: np.ndarray) -> np.ndarray:
    def row_sums(n, ts):
        a = -((np.arange(n) + 0.5) ** 2)
        return 2.0 * np.exp(a / ts[:, None]).sum(axis=1) / np.sqrt(math.pi * ts)

    return _by_term_count(t, _poisson_terms(t), row_sums)


def _kernel_eigen_f64(t: np.ndarray) -> np.ndarray:
    # terms j = 1 .. jmax: those with (j pi)^2 t up to 42, and one more
    jmax = np.floor(np.sqrt(42.0 / (math.pi**2 * t))) + 1

    def row_sums(n, ts):
        j = np.arange(1, n + 1)
        c = -(math.pi**2) * j**2
        return 1.0 + 2.0 * ((-1.0) ** j * np.exp(c * ts[:, None])).sum(axis=1)

    return _by_term_count(t, jmax, row_sums)

def _kernel_eigen_small_t(ti: float, k_est: float) -> float:
    # alternating eigen sum cancels to ~k(t); extend precision to keep the
    # *relative* error of this representation below 1e-13.  Terms past jmax
    # lie below 10^-dps.  k(t) = 2 sum_{j=0..jmax} (-1)^j e^{-j^2 pi^2 t} - 1
    # is one alternating walk of numkit._walk (d0 = 0), in fixed point with
    # prec + 64 bits below its first term 1, which bounds every partial sum.
    # It is off by less than jmax^2/2 units of its last bit, so the further
    # 5 + 2 log10(2 jmax + 1) digits are spare margin.
    # Where the float estimate underflows, k ~ 2 e^{-1/(4t)} / sqrt(pi t) sets
    # the size; below half the least subnormal k(t) rounds to 0.0.
    log10_k = (math.log10(k_est) if k_est >= 1e-300 else
               (math.log(2.0 / math.sqrt(math.pi * ti)) - 0.25 / ti) / math.log(10.0))
    if log10_k < -324.5:
        return 0.0
    dps = 20 + max(0, int(-log10_k))
    jmax = int(math.sqrt(dps * math.log(10) / (math.pi**2 * ti))) + 1
    with mp.workdps(dps + 5 + int(2 * math.log10(2 * jmax + 1))):
        c = mp.pi**2 * mp.mpf(ti)
        p = mp.mp.prec + _GUARD_BITS
        with mp.workprec(p):
            s = _walk(c, 0, (jmax + 1,), p, alternating=True)[0]
        return float(mp.ldexp(2 * s - (1 << p), -p))


def kernel_k(t, rep: str):
    """Input kernel of the Neumann-to-Dirichlet system, k(t) for t > 0.

    rep = "eigen" uses the eigenmode series, "poisson" the image-charge form
    from the Poisson summation formula.  Both representations carry tail
    bounds below 1e-14; the eigen branch switches to extended precision where
    the alternating sum cancels (k(t) -> 0 as t -> 0+) and returns k(t)
    rounded to float: a subnormal below t ~ 3.5e-4 and 0.0 below t ~ 3.3e-4.
    """
    if rep not in ("eigen", "poisson"):
        raise ValueError(f"unknown representation {rep!r}")
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tarr <= 0):
        raise ValueError("kernel_k requires t > 0")
    if rep == "poisson":
        out = _kernel_poisson(tarr)
    else:
        out = _kernel_eigen_f64(tarr)
        est = _kernel_poisson(tarr)
        for i in np.flatnonzero(est < 1e-3):
            out[i] = _kernel_eigen_small_t(tarr[i], est[i])
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass
class SimResult:
    t: np.ndarray
    y: np.ndarray  # the state at x = 0
    u: np.ndarray
    x_grid: np.ndarray
    z: np.ndarray  # shape (nt, len(x_grid)); (nt, 0) without state points
    closure_active: bool
    tail_bound: float


# simulate's kernel convolution runs in blocks of _BLOCK time steps and holds
# _GROUP blocks at a time.  Blocks of 64 or 128 steps were no faster and held
# more memory (the Toeplitz kernels grow as the block squared); blocks of 16
# doubled the carry steps, whose rounding builds up: 1.5e-14 of max|y| after
# 10^5 steps, against 6e-15.
_BLOCK = 32
_GROUP = 64


def simulate(u, cfg: SimConfig) -> SimResult:
    """Run the Neumann-to-Dirichlet system with piecewise-linear control.

    ``u`` is the control sampled on ``cfg.time_grid()``, an array of that
    length.  One modal synthesis gives the state z(t, x) on x = [0, *x_grid]:
    the output y is its x = 0 column, bit for bit the same with or without
    state points.  Per-mode integration is exact for the linear interpolant
    of ``u`` on the time grid.  Within each block of steps the state at a
    point is the step-integrated kernel convolution of u and its slopes,
    plus the decay of the mode state carried in from the previous block;
    only the carry runs step by step, once per block.  Each step's output is
    a sum over lags and modes, not over the modes of a running mode state;
    that order moved y by a few units in the last place against the former
    per-mode prefix scan: at most 1.2e-15 on the ``track`` ladder (max|y| =
    0.91) and 7e-15 of max|y| over 10^5 steps, where both stay within 6e-15
    of max|y| of the recurrence run in long double.  Modes beyond J are
    closed quasi-statically (they relax within a single step once
    lambda_{J+1} dt >= 35): their aggregate contribution to z is the
    closed-form steady profile driven by u and its slope.  J is raised to
    the least value that meets the condition, so the closure is always
    active, J is not accuracy-limiting and the reported tail bound is
    max|u| exp(-lambda_{J+1} dt).  A control that is not finite raises
    ValueError naming its first bad sample.
    """
    tgrid = cfg.time_grid()
    nt = len(tgrid)
    uval = np.asarray(u, dtype=float)
    if uval.shape != (nt,):
        raise ValueError(f"control array must have length {nt}")
    bad = ~np.isfinite(uval)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"control is not finite at index {i} (t={tgrid[i]:g})")

    dt = cfg.dt
    J = max(cfg.J, math.ceil(math.sqrt(35.0 / dt) / math.pi) - 1)
    j = np.arange(0.0, J + 1)  # float: j**4 wraps in int64 past j = 55 108
    lam = (j * math.pi) ** 2
    ej1 = np.where(j == 0, 1.0, math.sqrt(2.0) * (-1.0) ** j)
    lam_safe = np.where(lam > 0, lam, 1.0)
    I0 = np.where(lam > 0, -np.expm1(-lam * dt) / lam_safe, dt)
    I1 = np.where(lam > 0, (dt + np.expm1(-lam * dt) / lam_safe) / lam_safe, 0.5 * dt * dt)
    lamJ1 = ((J + 1) * math.pi) ** 2

    # e_j(x) and the closure profiles, one row per point of x = [0, *x_grid]:
    # P_p(x) = 2 sum_{j>J} (-1)^j cos(j pi x) / lam_j^p is the closed-form sum
    # over all j less the first J terms, both in units of j.  P_2(0) ~ 4e-11
    # is a difference of O(1) numbers, so the order of the partial sum shows
    # in y: it runs along each row, as a sum over j alone.
    x = np.concatenate(([0.0], cfg.x_grid))
    cos = np.cos(np.outer(x, j * math.pi))
    ex = np.where(j == 0, 1.0, math.sqrt(2.0) * cos)
    alt = (-1.0) ** j[1:] * cos[:, 1:]
    pi2, pi4 = math.pi**2, math.pi**4
    P1 = 2.0 / pi2 * (-pi2 / 12.0 + pi2 * x**2 / 4.0 - (alt / j[1:] ** 2).sum(axis=1))
    P2 = 2.0 / pi4 * (-7.0 * pi4 / 720.0 + pi4 * x**2 / 24.0 - pi4 * x**4 / 48.0
                      - (alt / j[1:] ** 4).sum(axis=1))

    # c_{m+1} = E c_m + f_m with f_m = e_j(1) (I0 u_m + I1 b_m) per mode.  In a
    # block of B steps from step m with mode state c, step m+i+1 has
    #   c_{m+i+1} = E^{i+1} c + sum_{k<=i} E^{i-k} f_{m+k},
    # so the state at x is sum_{k<=i} (H0_x[i-k] u_{m+k} + H1_x[i-k] b_{m+k})
    # + (V_x c)_i, with H0_x[d] = sum_j e_j(x) e_j(1) I0_j E_j^d (H1_x with
    # I1; at x = 0, H0 is k integrated over one step) and V_x = e_j(x) E_j^{i+1}.
    # A row of A holds one block's u, its slopes and its carried state; each
    # point takes its own product A @ K_x, so a point's column does not depend
    # on how many points there are.  The carry is c <- E^B c + A[:, :2B] @ W.
    # Both products broadcast over the blocks as one vector-matrix product
    # per block.  A matrix-matrix product is faster over 10^5 steps, but its
    # first call keeps about 0.5 MB of BLAS packing buffers resident, which
    # raised the peak memory of a track run.
    B = _BLOCK
    Epow = np.exp(-np.outer(np.arange(B + 1), lam * dt))  # E^0 .. E^B
    # a mode decayed below 1e-250 adds nothing to any digit of z: make it 0,
    # so that no product runs on subnormal terms, which halved their speed
    Epow[Epow < 1e-250] = 0.0
    g = np.vstack((ej1 * I0, ej1 * I1))
    W = (g[:, None] * Epow[B - 1::-1]).reshape(2 * B, J + 1)
    kernels = []
    for e in ex:
        # K_x[k, i] = H_x[i - k], zero above the diagonal, over V_x transposed
        H = np.zeros((2, 2 * B - 1))
        H[:, B - 1:] = [Epow[:B] @ (e * gp) for gp in g]
        K = np.empty((2 * B + J + 1, B))
        K[:2 * B] = sliding_window_view(H, B, axis=1)[:, ::-1].reshape(2 * B, B)
        K[2 * B:] = Epow[1:].T * e[:, None]
        kernels.append(K)
    c = np.zeros(J + 1)
    z = np.zeros((nt, len(x)))
    for m0 in range(0, nt - 1, _GROUP * B):
        m1 = min(m0 + _GROUP * B, nt - 1)
        n = m1 - m0
        nb = -(-n // B)
        b = np.diff(uval[m0:m1 + 1]) / dt
        # a short last block is padded with zeros, which move no earlier step
        A = np.zeros((nb, 2 * B + J + 1))
        A[:, :B].flat[:n] = uval[m0:m1]
        A[:, B:2 * B].flat[:n] = b
        F = (A[:, None, :2 * B] @ W)[:, 0]
        for r in range(nb):
            A[r, 2 * B:] = c
            c = Epow[B] * c + F[r]
        for i, K in enumerate(kernels):
            z[m0 + 1:m1 + 1, i] = ((A[:, None] @ K).ravel()[:n]
                                   + (uval[m0 + 1:m1 + 1] * P1[i] - b * P2[i]))

    umax = float(np.max(np.abs(uval))) if nt else 0.0
    return SimResult(tgrid, z[:, 0], uval, x[1:], z[:, 1:], True, umax * math.exp(-lamJ1 * dt))

