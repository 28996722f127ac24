"""Flatness-based control synthesis and trackability checks.

The state of the Neumann-controlled system is parameterized by the output's
time derivatives,

    z(t, x) = sum_k y^(k)(t) x^{2k} / (2k)!,
    u(t)    = z_x(t, 1) = sum_{k>=1} y^(k)(t) / (2k-1)!,

so any sufficiently regular target output can be tracked exactly by an
open-loop control.  Trackability over the infinite horizon is the weighted
square-summability

    sum_k ( ||y^(k+1)||_{L2} / [ (2k)! 2^k (1+k)^{3/4} ] )^2 < infinity,

equivalently membership of y' in the Gevrey Hilbert class of order 2,
radius 1/sqrt(2), exponent -1/2 (the index bridge in the weights is exact).
On a finite horizon the terminal Taylor sequence y^(k)(T) must additionally
generate a reachable state; the reachable class is tested through the
Bergman machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gevrey import GevreyNormResult, GevreyParams, Signal, gevrey_norm_time
from .heatsim import SimConfig, SimResult, simulate
from .holo import BergmanReport, CoeffSeq, bergman_norm_estimate, borel_range_test
from .numkit import log_gamma, series_converged, series_tail, write_csv

__all__ = [
    "flat_state",
    "flat_control",
    "tracking_experiment",
    "check_trackable_infinite",
    "check_trackable_finite",
    "terminal_state_report",
    "FlatSum",
    "TrackingResult",
    "Trackable2Result",
]


@dataclass(frozen=True)
class FlatSum:
    """A partial sum of a flat series: its value at each point (a float at
    one point), the tail estimate of its terms and the convergence verdict."""
    value: float | np.ndarray
    tail: float
    converged: bool


def flat_state(y_derivs, t: float, x: float, K: int) -> FlatSum:
    """Partial sum of z(t,x) = sum_k y^(k)(t) x^{2k}/(2k)! up to K terms.

    ``y_derivs`` is the target's derivative table (``Signal.derivs``).  The
    sum, its tail, its verdict and its ValueError for a row that is not
    finite are those of ``_flat_sum``; for |x| beyond the Gevrey radius of
    the target the series reads not converged.
    """
    if abs(x) > 1.0:
        raise ValueError("flat series is used for |x| <= 1")
    w = [abs(x) ** (2 * k) * math.exp(-log_gamma(2 * k + 1)) for k in range(K + 1)]
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _flat_sum
        Y = np.asarray(y_derivs(K, np.array([t])), dtype=float)
    res = _flat_sum(Y, w, "flat state")
    return replace(res, value=float(res.value[0]))


def flat_control(y_derivs, t_grid, K: int) -> FlatSum:
    """u(t) = sum_{k=1}^K y^(k)(t)/(2k-1)! on the grid (x-derivative at x=1).

    ``y_derivs`` is the target's derivative table (``Signal.derivs``).  A
    series that has not converged at the cutoff is reported, not raised: for
    near-critical targets the synthesized control is still returned with its
    tail and the experiment is treated as heuristic.  A derivative row that
    overflows float range raises ValueError naming K and that row.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _flat_sum
        Y = np.asarray(y_derivs(K, t_grid), dtype=float)
    w = [0.0] + [math.exp(-log_gamma(2 * k)) for k in range(1, K + 1)]
    return _flat_sum(Y, w, "flat control")


def _flat_sum(Y, w, name) -> FlatSum:
    """The flat series sum_k w_k Y[k] over the points of the table Y, term by term in k.

    The tail is ``numkit.series_tail`` of the largest term magnitude of each
    k from the first nonzero weight on (a zero weight after it is an exact
    zero term), and the verdict ``numkit.series_converged`` against the
    sum's largest magnitude.  Rows of weight 0 are skipped; a row of nonzero
    weight that is not finite (the table overflowed) raises ValueError
    naming the series, K and that row.
    """
    bad = [k for k, wk in enumerate(w) if wk and not np.isfinite(Y[k]).all()]
    if bad:
        raise ValueError(f"{name} with K={len(w) - 1}: derivative row {bad[0]} of the target "
                         f"is not finite; lower K below {bad[0]}")
    total = np.zeros(Y.shape[1])
    mags = []
    for k, wk in enumerate(w):
        term = Y[k] * wk if wk else np.zeros_like(total)
        total += term
        mags.append(float(np.max(np.abs(term))))
    first = next((k for k, wk in enumerate(w) if wk), 0)
    tail = series_tail(mags[first:])
    return FlatSum(total, tail, series_converged(float(np.max(np.abs(total))), tail))


# ---------------------------------------------------------------------------
# End-to-end tracking
# ---------------------------------------------------------------------------

@dataclass
class TrackingResult:
    sim: SimResult
    y_target: np.ndarray
    max_error: float
    synthesis: FlatSum
    K: int

    def to_csv(self, path) -> None:
        write_csv(path, ["t", "y_target", "y_sim", "u"],
                  np.column_stack((self.sim.t, self.y_target, self.sim.y, self.sim.u)))


def tracking_experiment(y_target: Signal, cfg: SimConfig, K: int) -> TrackingResult:
    """Synthesize the flat control for the target, simulate, report max error.

    The target must be sampled on the time grid ``cfg.time_grid()``; its
    samples are what the simulated output is compared with.  It must be flat
    at t = 0: derivatives up to order K+1 below 1e-12 there (the
    compatibility condition for zero initial data).
    """
    if y_target.derivs is None:
        raise ValueError("tracking needs a target with derivatives")
    tgrid = cfg.time_grid()
    if not np.array_equal(y_target.grid, tgrid):
        raise ValueError("the target must be sampled on the simulation's time grid")
    flat0 = float(np.max(np.abs(y_target.derivs(K + 1, np.array([0.0])))))
    if not flat0 <= 1e-12:  # NaN fails too
        raise ValueError(f"target is not flat at t=0 (max |y^(k)(0)| = {flat0:.2e})")
    synth = flat_control(y_target.derivs, tgrid, K)
    sim = simulate(synth.value, cfg)
    yt = np.asarray(y_target.values, dtype=float)
    err = float(np.max(np.abs(sim.y - yt)))
    return TrackingResult(sim, yt, err, synth, K)


# ---------------------------------------------------------------------------
# Trackability conditions
# ---------------------------------------------------------------------------

def check_trackable_infinite(y: Signal, N: int) -> GevreyNormResult:
    """Partial sums of sum_k (||y^(k+1)||_{L2} / [(2k)! 2^k (1+k)^{3/4}])^2, k <= N.

    The weight is M_k of the Gevrey class (2, 1/sqrt(2), -1/2), so the series
    is the Gevrey time norm of y' and shares its quadrature and convergence
    flag; any N >= 1 works.
    """
    if y.derivs is None:
        raise ValueError("needs analytic derivatives")
    yprime = Signal(y.grid, None, derivs=lambda N, t: y.derivs(N + 1, t)[1:],
                    family="derivative")
    return gevrey_norm_time(yprime, GevreyParams(2.0, 1.0 / math.sqrt(2.0), -0.5), N)


@dataclass
class Trackable2Result:
    condition13: GevreyNormResult
    terminal_even: BergmanReport
    terminal_derivative: BergmanReport

    @property
    def reachable_class(self) -> str:
        """Combined classification of the terminal state membership."""
        if "divergent" in (self.terminal_even.classification,
                           self.terminal_derivative.classification):
            return "divergent"
        if (self.terminal_even.classification == "convergent"
                and self.terminal_derivative.classification == "convergent"):
            return "convergent"
        return "undecided"


def terminal_state_report(seq: CoeffSeq):
    """Reachability test of a terminal Taylor sequence (a_k) = (y^(k)(T)).

    The terminal state sum a_k zeta^{2k}/(2k)! must be an even holomorphic
    H^1 function on the tilted square: both the series itself and its
    termwise derivative (the odd series with entries shifted by one) are put
    through the Bergman estimate at scale 1/sqrt(2); the derivative test is
    the decisive one (the flat series of the two-sided counterexample stays
    square-integrable while its derivative blows up like Li_{-1/2}).
    """
    R = 1.0 / math.sqrt(2.0)
    even = bergman_norm_estimate(seq, R)
    deriv = borel_range_test(seq, p=1, parity="odd", R=R)
    return even, deriv


def check_trackable_finite(y: Signal, N: int, K: int) -> Trackable2Result:
    """Finite-horizon trackability: regularity series plus terminal-state test."""
    cond13 = check_trackable_infinite(y, N)
    T = y.t1
    a = y.derivs(K, np.array([T]))[:, 0].tolist()
    seq = CoeffSeq.from_values(a, parity="even")
    even, deriv = terminal_state_report(seq)
    return Trackable2Result(cond13, even, deriv)
