"""Spectral simulation of the boundary-controlled 1-D heat equation.

System: z_t = z_xx on (0,1), z_x(t,1) = u(t), z_x(t,0) = 0, z(0,.) = 0,
output y(t) = z(t,0).  The Neumann Laplacian modes are lambda_j = (j pi)^2
with e_0 = 1, e_j = sqrt(2) cos(j pi x).  The input kernel

    k(t) = 1 + 2 sum_j (-1)^j e^{-(j pi)^2 t}
         = (pi t)^{-1/2} sum_m e^{-(m+1/2)^2 / t}

gives y = k * u, and the Laplace-domain transfer function catalogue covers
the four boundary configurations plus interior-point observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .numkit import gauss_sum

__all__ = [
    "TransferKind",
    "NEU_DIR",
    "NEU_NEU",
    "DIR_NEU",
    "DIR_DIR",
    "interior",
    "SimConfig",
    "MAX_STEPS",
    "SimResult",
    "kernel_k",
    "simulate",
    "transfer",
    "omega_characterization",
    "omega_log",
    "kernel_laplace_quadrature",
]


@dataclass(frozen=True)
class TransferKind:
    """One of the five boundary-observation configurations."""

    tag: str  # "NeuDir" | "NeuNeu" | "DirNeu" | "DirDir" | "InteriorX0"
    x0: float = None

    def __post_init__(self):
        if self.tag not in ("NeuDir", "NeuNeu", "DirNeu", "DirDir", "InteriorX0"):
            raise ValueError(f"unknown transfer kind {self.tag!r}")
        if self.tag == "InteriorX0":
            if self.x0 is None or not (0.0 < self.x0 < 1.0):
                raise ValueError("InteriorX0 requires x0 strictly inside (0, 1)")
        elif self.x0 is not None:
            raise ValueError("x0 only applies to InteriorX0")


NEU_DIR = TransferKind("NeuDir")
NEU_NEU = TransferKind("NeuNeu")
DIR_NEU = TransferKind("DirNeu")
DIR_DIR = TransferKind("DirDir")


def interior(x0: float) -> TransferKind:
    return TransferKind("InteriorX0", x0)


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
        if not abs(round(self.T / self.dt) * self.dt - self.T) <= 1e-9 * self.T:
            raise ValueError(f"SimConfig requires T to be a multiple of dt "
                             f"(T={self.T:g}, dt={self.dt:g})")
        if len(self.x_grid) and (min(self.x_grid) < 0 or max(self.x_grid) > 1):
            raise ValueError("x_grid must lie in [0, 1]")

    def time_grid(self) -> np.ndarray:
        return np.arange(0.0, self.T + 0.5 * self.dt, self.dt)


# ---------------------------------------------------------------------------
# The kernel k(t)
# ---------------------------------------------------------------------------

def _kernel_poisson(t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for i, ti in enumerate(t):
        mmax = int(math.sqrt(42.0 * ti)) + 1
        m = np.arange(0, mmax + 1)
        out[i] = 2.0 * np.exp(-((m + 0.5) ** 2) / ti).sum() / math.sqrt(math.pi * ti)
    return out

def _kernel_eigen_f64(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    for i, ti in enumerate(t):
        jmax = int(math.sqrt(42.0 / (math.pi**2 * ti))) + 1
        j = np.arange(1, jmax + 1)
        out[i] = 1.0 + 2.0 * np.sum((-1.0) ** j * np.exp(-(math.pi**2) * j**2 * ti))
    return out

def _kernel_eigen_small_t(ti: float, k_est: float) -> float:
    # alternating eigen sum cancels to ~k(t); extend precision to keep the
    # *relative* error of this representation below 1e-13.  Terms past jmax
    # lie below 10^-dps.  The alternating sum is twice the even-j Gaussian sum
    # minus the full one; the guard digits cover their ~1/sqrt(pi t) size.
    # gauss_sum is good to about one unit of the working precision, so the
    # further 2 log10(2 jmax + 1) digits are spare margin.
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
        return float(2 * gauss_sum(4 * c, 0, -(jmax // 2), jmax // 2)
                     - gauss_sum(c, 0, -jmax, jmax))


def kernel_k(t, rep: str = "auto"):
    """Input kernel of the Neumann-to-Dirichlet system, k(t) for t > 0.

    rep = "eigen" uses the eigenmode series, "poisson" the image-charge form
    from the Poisson summation formula, "auto" picks poisson for t < 1/pi and
    eigen otherwise.  Both representations carry tail bounds below 1e-14; the
    eigen branch switches to extended precision where the alternating sum
    cancels (k(t) -> 0 as t -> 0+) and returns k(t) rounded to float: a
    subnormal below t ~ 3.5e-4 and 0.0 below t ~ 3.3e-4.
    """
    if rep not in ("eigen", "poisson", "auto"):
        raise ValueError(f"unknown representation {rep!r}")
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(tarr <= 0):
        raise ValueError("kernel_k requires t > 0")
    if rep == "auto":  # each branch only where it is chosen
        small = tarr < 1.0 / math.pi
        out = np.empty_like(tarr)
        out[small] = _kernel_poisson(tarr[small])
        out[~small] = _kernel_eigen_f64(tarr[~small])
    elif rep == "poisson":
        out = _kernel_poisson(tarr)
    else:
        out = _kernel_eigen_f64(tarr)
        est = _kernel_poisson(tarr)
        for i, ti in enumerate(tarr):
            if est[i] < 1e-3:
                out[i] = _kernel_eigen_small_t(ti, est[i])
    return out if np.ndim(t) else float(out[0])


def kernel_laplace_quadrature(s: float, t_split: float = 3.0, jtail: int = 8) -> float:
    """Numerical Laplace transform of k: mpmath's tanh-sinh quadrature on
    [0, t_split] plus the analytic integral of the eigen tail beyond it."""
    val = float(mp.quad(lambda t: math.exp(-s * float(t)) * kernel_k(float(t), "auto"),
                        [0.0, t_split]))
    # beyond t_split: k(t) = 1 + 2 sum (-1)^j e^{-lam_j t}, integrate exactly
    tail = math.exp(-s * t_split) / s
    for j in range(1, jtail + 1):
        lam = (j * math.pi) ** 2
        tail += 2.0 * (-1) ** j * math.exp(-(s + lam) * t_split) / (s + lam)
    return val + tail


# ---------------------------------------------------------------------------
# Simulation
# ---------------------------------------------------------------------------

@dataclass
class SimResult:
    t: np.ndarray
    y: np.ndarray
    u: np.ndarray
    x_grid: np.ndarray
    z: np.ndarray  # shape (nt, nx) or empty
    closure_active: bool
    tail_bound: float


_SCAN_BLOCK = 128  # time steps per block of the prefix scan in simulate


def _alt_zeta_partial(J: int, power: int) -> float:
    j = np.arange(1, J + 1, dtype=float)
    return float(np.sum((-1.0) ** j / j**power))


def simulate(u, cfg: SimConfig) -> SimResult:
    """Run the Neumann-to-Dirichlet system with piecewise-linear control.

    Per-mode integration is exact for the linear interpolant of ``u`` on the
    time grid; the per-mode recurrence over the steps runs as a blocked
    prefix scan, which changes only the order of the floating-point sums.
    Modes beyond J are closed quasi-statically (they relax within a single
    step once lambda_{J+1} dt >= 35): their aggregate contribution to y and
    z is the closed-form steady profile driven by u and its slope.  J is
    raised to the least value that meets the condition, so the closure is
    always active, J is not accuracy-limiting and the reported tail bound is
    max|u| exp(-lambda_{J+1} dt).  A control that is not finite raises
    ValueError naming its first bad sample.
    """
    tgrid = cfg.time_grid()
    nt = len(tgrid)
    if getattr(u, "derivs", None) is not None:
        uval = np.asarray(u.derivs(0, tgrid)[0], dtype=float)
    elif hasattr(u, "values"):
        if len(u.values) < nt:
            raise ValueError("control signal shorter than the simulation grid")
        uval = np.asarray(u.values[:nt], dtype=float)
    else:
        uval = np.asarray(u, dtype=float)
        if len(uval) != nt:
            raise ValueError(f"control array must have length {nt}")
    bad = ~np.isfinite(uval)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"control is not finite at index {i} (t={tgrid[i]:g})")

    dt = cfg.dt
    J = max(cfg.J, math.ceil(math.sqrt(35.0 / dt) / math.pi) - 1)
    j = np.arange(0, J + 1)
    lam = (j * math.pi) ** 2
    ej1 = np.where(j == 0, 1.0, math.sqrt(2.0) * (-1.0) ** j)
    ej0 = np.where(j == 0, 1.0, math.sqrt(2.0))
    lam_safe = np.where(lam > 0, lam, 1.0)
    I0 = np.where(lam > 0, -np.expm1(-lam * dt) / lam_safe, dt)
    I1 = np.where(lam > 0, (dt + np.expm1(-lam * dt) / lam_safe) / lam_safe, 0.5 * dt * dt)

    lamJ1 = ((J + 1) * math.pi) ** 2
    # tail sums at x = 0: 2 sum_{j>J} (-1)^j / lam_j^p
    T1 = 2.0 / math.pi**2 * (-(math.pi**2) / 12.0 - _alt_zeta_partial(J, 2))
    T2 = 2.0 / math.pi**4 * (-7.0 * math.pi**4 / 720.0 - _alt_zeta_partial(J, 4))

    x = np.asarray(cfg.x_grid, dtype=float)
    store_state = len(x) > 0
    if store_state:
        ejx = np.empty((J + 1, len(x)))
        ejx[0] = 1.0
        for jj in range(1, J + 1):
            ejx[jj] = math.sqrt(2.0) * np.cos(jj * math.pi * x)
        # closed tail profiles: sum over ALL j of 2 (-1)^j cos(j pi x)/lam_j^p
        P1_full = 0.5 * (x**2 - 1.0 / 3.0)
        P2_full = -(x**4) / 24.0 + x**2 / 12.0 - 7.0 / 360.0
        cosj = np.cos(np.outer(np.arange(1, J + 1) * math.pi, x))
        sgn = ((-1.0) ** np.arange(1, J + 1))[:, None]
        P1 = P1_full - (2.0 * sgn * cosj / (lam[1:, None])).sum(axis=0)
        P2 = P2_full - (2.0 * sgn * cosj / (lam[1:, None] ** 2)).sum(axis=0)
        z = np.zeros((nt, len(x)))
    else:
        z = np.zeros((0, 0))

    # c_{m+1} = E c_m + f_m is a first-order linear filter per mode: each
    # block of _SCAN_BLOCK steps is an inclusive Hillis-Steele scan of the
    # f_m, plus E^{i+1} times the state carried in from the previous block
    # (each pass forms E^s F[:-s] in full before adding it into F[s:])
    b = np.diff(uval) / dt
    Epow = np.exp(-np.outer(np.arange(1, _SCAN_BLOCK + 1), lam * dt))
    c = np.zeros(J + 1)
    y = np.zeros(nt)
    for m0 in range(0, nt - 1, _SCAN_BLOCK):
        m1 = min(m0 + _SCAN_BLOCK, nt - 1)
        F = np.outer(uval[m0:m1], ej1 * I0) + np.outer(b[m0:m1], ej1 * I1)
        s = 1
        while s < m1 - m0:
            F[s:] += Epow[s - 1] * F[:-s]
            s *= 2
        F += Epow[:m1 - m0] * c
        c = F[-1]
        y[m0 + 1:m1 + 1] = F @ ej0
        if store_state:
            z[m0 + 1:m1 + 1] = F @ ejx
    y[1:] += uval[1:] * T1 - b * T2
    if store_state:
        z[1:] += np.outer(uval[1:], P1) - np.outer(b, P2)

    umax = float(np.max(np.abs(uval))) if nt else 0.0
    return SimResult(tgrid, y, uval, x, z, True, umax * math.exp(-lamJ1 * dt))


# ---------------------------------------------------------------------------
# Transfer functions
# ---------------------------------------------------------------------------

def transfer(kind: TransferKind, s):
    """Closed-form transfer function at Re s > 0, cancellation-safe.

    NeuDir 1/(sqrt(s) sinh sqrt(s)); NeuNeu and DirDir 1/cosh sqrt(s);
    DirNeu sqrt(s)/sinh sqrt(s); interior cosh(sqrt(s) x0)/(sqrt(s) sinh sqrt(s)).
    """
    sarr = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(sarr.real <= 0):
        raise ValueError("transfer requires Re s > 0")
    w = np.sqrt(sarr)  # principal branch, Re w > 0
    em = np.exp(-w)
    em2 = em * em
    if kind.tag == "NeuDir":
        out = 2.0 * em / (w * (1.0 - em2))
    elif kind.tag in ("NeuNeu", "DirDir"):
        out = 2.0 * em / (1.0 + em2)
    elif kind.tag == "DirNeu":
        out = 2.0 * w * em / (1.0 - em2)
    else:  # InteriorX0
        x0 = kind.x0
        out = np.exp(-w * (1.0 - x0)) * (1.0 + np.exp(-2.0 * w * x0)) / (w * (1.0 - em2))
    return out if np.ndim(s) else complex(out[0])


def omega_log(xi, kind: TransferKind) -> np.ndarray:
    """log of the frequency weight characterizing the trackable class."""
    x = np.abs(np.atleast_1d(np.asarray(xi, dtype=float)))
    root = np.sqrt(x)
    if kind.tag == "NeuDir":
        out = np.sqrt(x / 2.0) - 0.5 * np.log1p(x)
    elif kind.tag == "InteriorX0":
        out = (1.0 - kind.x0) / math.sqrt(2.0) * root - np.log1p(root)
    elif kind.tag in ("NeuNeu", "DirDir"):
        out = np.sqrt(x / 2.0)
    else:  # DirNeu: gamma = -1/2 class weight
        out = np.sqrt(x / 2.0) - 0.5 * np.log1p(x)
    return out if np.ndim(xi) else float(out[0])


def omega_characterization(xi, kind: TransferKind):
    """The weight itself (use omega_log for large xi)."""
    return np.exp(omega_log(xi, kind))
