"""Bergman-space membership tests on the tilted square.

Omega = { zeta : |Re zeta| + |Im zeta| < 1 } (area 2).  For a coefficient
sequence (a_k) the even series  f_R(zeta) = sum a_k (sqrt(2) R zeta)^{2k}/(2k)!
(or the odd variant with 2k+1) is tested for membership in A^2(Omega) by
quadrature of |f_R|^2 over the exhaustion Omega_eps = (1-eps) Omega, with a
three-way classification: convergent / divergent / undecided.  Since
f_R(zeta) = f_1(R zeta), one evaluator of f_1 per sequence serves every R:
the scale multiplies the quadrature nodes and divides the singularity gauge.

Membership in A^2 is undecidable from finite data; the judgment calls are:

* quadrature in rotated coordinates (tensor Gauss-Legendre, the square maps
  to an axis-aligned one),
* evaluation by the raw Taylor series inside its disc of convergence (Horner,
  cut where a majorant tail falls below 1e-17) and by a scaled diagonal Pade
  continuation beyond it (the disc need not cover Omega even for genuine A^2
  members), cross-validated at two orders,
* divergence when a validated singularity of the continuation sits strictly
  inside Omega (guard band 0.005 in the |Re|+|Im| gauge), or when the
  series itself certifiably diverges at quadrature nodes and no validated
  continuation exists, or -- singularity location unresolved -- when the
  per-margin norms grow with log-log slope >= 0.5 in 1/eps,
* convergence when the coefficients certify an entire-type function, when
  all validated singularities lie strictly outside the closed square
  (holomorphic on a neighborhood of the closure), or when margin-norm
  increments decay geometrically (ratio <= 0.7).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import gammaln

from .numkit import LogScalar

__all__ = [
    "OmegaDomain",
    "CoeffSeq",
    "EvalResult",
    "BergmanReport",
    "eval_series",
    "bergman_norm_estimate",
    "radius_Ra",
    "interpolation_counterexample",
    "loss_factors",
    "loss_crossover",
    "borel_range_test",
    "DEFAULT_MARGINS",
]

DEFAULT_MARGINS = (0.2, 0.1, 0.05, 0.025, 0.0125)
_POLE_GUARD = 0.005  # ~5x the observed Pade pole-location bias


class OmegaDomain:
    """The tilted square |Re zeta| + |Im zeta| < 1 and its exhaustion."""

    area = 2.0

    @staticmethod
    def l1(zeta) -> np.ndarray:
        z = np.asarray(zeta, dtype=complex)
        return np.abs(z.real) + np.abs(z.imag)

    @classmethod
    def contains(cls, zeta, eps: float = 0.0) -> np.ndarray:
        return cls.l1(zeta) < 1.0 - eps

    @staticmethod
    @functools.lru_cache(maxsize=32)
    def quad_nodes(eps: float, n: int):
        """Tensor Gauss-Legendre nodes for Omega_eps in rotated coordinates.

        (u, v) = ((a+b)/sqrt2, (b-a)/sqrt2) maps Omega_eps to the square
        max(|u|,|v|) < (1-eps)/sqrt2; the rotation has unit Jacobian.
        Cached per (eps, n); the arrays are shared, hence read-only.
        """
        x, w = leggauss(n)
        half = (1.0 - eps) / math.sqrt(2.0)
        u = half * x
        wu = half * w
        U, V = np.meshgrid(u, u, indexing="ij")
        W = np.outer(wu, wu)
        zeta = ((U - V) + 1j * (U + V)) / math.sqrt(2.0)
        zeta, W = zeta.ravel(), W.ravel()
        zeta.flags.writeable = W.flags.writeable = False
        return zeta, W


@dataclass
class CoeffSeq:
    """Derivative/Taylor coefficient sequence stored in the log domain.

    ``parity`` selects the series form: "even" for sum a_k zeta^{2k}/(2k)!,
    "odd" for sum a_k zeta^{2k+1}/(2k+1)!.
    """

    log_mag: np.ndarray
    phase: np.ndarray
    parity: str = "even"
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.log_mag = np.asarray(self.log_mag, dtype=float)
        self.phase = np.asarray(self.phase, dtype=complex)
        if self.parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        if self.log_mag.shape != self.phase.shape:
            raise ValueError("log_mag and phase must have equal length")

    def __len__(self):
        return len(self.log_mag)

    @property
    def entries(self):
        return [LogScalar(float(l), complex(p) if p.imag else float(p.real))
                for l, p in zip(self.log_mag, self.phase)]

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.log_mag == -math.inf))

    def shifted(self, p: int) -> "CoeffSeq":
        """Drop the first p entries (p >= 0) or left-pad with zeros (p < 0)."""
        if p >= 0:
            lm, ph = self.log_mag[p:], self.phase[p:]
        else:
            lm = np.concatenate([np.full(-p, -math.inf), self.log_mag])
            ph = np.concatenate([np.ones(-p, dtype=complex), self.phase])
        return CoeffSeq(lm, ph, self.parity, name=f"{self.name}[shift {p}]", params=self.params)

    def growth_margin(self) -> float:
        """max_k (log|a_k| - log(2k)!)/(1+k); finite for well-posed inputs."""
        k = np.arange(len(self))
        fac = gammaln(2 * k + 1) if self.parity == "even" else gammaln(2 * k + 2)
        d = self.log_mag - fac
        good = np.isfinite(d)
        return float(np.max(d[good] / (1.0 + k[good]))) if good.any() else -math.inf

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_logscalars(cls, entries, parity="even", name="custom") -> "CoeffSeq":
        lm = np.array([e.log_mag for e in entries])
        ph = np.array([complex(e.phase) for e in entries])
        return cls(lm, ph, parity, name=name)

    @classmethod
    def from_values(cls, values, parity="even", name="custom") -> "CoeffSeq":
        return cls.from_logscalars([LogScalar.from_value(v) for v in values], parity, name)

    @classmethod
    def geometric(cls, c: float = 1.0, N: int = 600) -> "CoeffSeq":
        """a_k = (2k)! c^k  (series 1/(1 - 2 R^2 c zeta^2) at scale R)."""
        k = np.arange(N)
        lm = gammaln(2 * k + 1) + k * math.log(abs(c))
        ph = np.sign(c) ** k + 0j
        return cls(lm, ph.astype(complex), "even", name=f"geometric({c})", params={"c": c})

    @classmethod
    def polylog_seq(cls, s: float, N: int = 600) -> "CoeffSeq":
        """a_k = (2k)! k^{-s} (k >= 1): the series is Li_s(2 R^2 zeta^2)-type."""
        k = np.arange(N)
        lm = np.full(N, -math.inf)
        lm[1:] = gammaln(2 * k[1:] + 1) - s * np.log(k[1:])
        return cls(lm, np.ones(N, dtype=complex), "even", name=f"polylog({s})", params={"s": s})

    @classmethod
    def sharp_radius(cls, N: int = 600) -> "CoeffSeq":
        """a_k = (2k)! 2^k i^k / sqrt(k) (k >= 1), a_0 = 0."""
        k = np.arange(N)
        lm = np.full(N, -math.inf)
        lm[1:] = gammaln(2 * k[1:] + 1) + k[1:] * math.log(2.0) - 0.5 * np.log(k[1:])
        ph = np.exp(1j * (math.pi / 2.0) * k)
        return cls(lm, ph, "even", name="sharp_radius")

    @classmethod
    def factorial_pair(cls, N: int = 600) -> "CoeffSeq":
        """b_0 = 1, b_{n+1} = n!(n+1)!, a_n = 4^n b_n."""
        n = np.arange(N)
        lm = np.zeros(N)
        lm[1:] = n[1:] * math.log(4.0) + gammaln(n[1:]) + gammaln(n[1:] + 1)
        return cls(lm, np.ones(N, dtype=complex), "even", name="factorial_pair")

    @classmethod
    def from_json(cls, obj) -> "CoeffSeq":
        """JSON array of {log_mag, sign} entries, or {"generator": name, ...}."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        if isinstance(obj, dict):
            gen = obj["generator"]
            N = int(obj.get("N", 600))
            if gen in ("factorial_pair", "prop1"):  # second form: legacy alias
                return cls.factorial_pair(N)
            if gen == "sharp_radius":
                return cls.sharp_radius(N)
            if gen.startswith("geometric"):
                c = float(gen[len("geometric("):-1]) if "(" in gen else float(obj.get("c", 1.0))
                return cls.geometric(c, N)
            if gen.startswith("polylog"):
                s = float(gen[len("polylog("):-1]) if "(" in gen else float(obj.get("s", 0.5))
                return cls.polylog_seq(s, N)
            raise ValueError(f"unknown generator {gen!r}")
        lm = np.array([e["log_mag"] for e in obj], dtype=float)
        ph = np.array([e.get("sign", 1) for e in obj], dtype=complex)
        return cls(lm, ph, "even", name="json")


# ---------------------------------------------------------------------------
# Series evaluation: raw Taylor + scaled diagonal Pade continuation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    value: complex
    tail_proxy: float
    diverged: bool


def _series_coeffs_g(c: CoeffSeq):
    """Coefficients of g(w): f_1(zeta) = g(zeta^2) (even) or zeta*g(zeta^2) (odd)."""
    p = 2 * np.arange(len(c)) + (c.parity == "odd")
    lg = c.log_mag + p * math.log(math.sqrt(2.0)) - gammaln(p + 1)
    return lg, c.phase.copy()


def _radius_units(lg):
    """(log_r, lb, unit): the log radius r of g and its coefficients in units of r.

    log r is minus the median tail increment of log|g_k| (inf, i.e. entire,
    below 8 finite terms).  lb_k = lg_k + k log(unit), where unit is r
    clamped to e^(+-700) so that it stays finite for extreme sequences; the
    series is then evaluated at v = w / unit.
    """
    idx = np.flatnonzero(np.isfinite(lg))
    log_r = math.inf
    if len(idx) >= 8:
        ks = idx[-min(60, len(idx) // 2):]
        log_r = -float(np.median(np.diff(lg[ks]) / np.diff(ks)))
    log_unit = min(max(log_r, -700.0), 700.0) if math.isfinite(log_r) else 0.0
    return log_r, lg + np.arange(len(lg)) * log_unit, math.exp(log_unit)


def _raw_eval(lg, ph, w, kmax=None):
    """Sum of g(w) = sum b_k w^k, b_k = exp(lg_k) ph_k, by Horner's rule.

    Returns (values, tail_proxy_per_node, diverged_mask).  When max|w| < 1 the
    sum stops where the majorant tail sum_{j>=n} |b_j| max|w|^j falls below
    1e-17 of its largest term.  A node is dead when a term exceeds 1e100 and
    growing when each of its last 26 finite terms exceeds the one before by
    1 + 1e-12: two thresholds on log|w| set once from lg.  A node is diverged
    when either holds, whatever the sign pattern of the terms; values at
    diverged nodes may be non-finite.
    """
    w = np.asarray(w, dtype=complex)
    K = len(lg) if kmax is None else min(kmax, len(lg))
    k = np.flatnonzero(np.isfinite(lg[:K]))
    b = np.zeros(K, dtype=complex)
    b[k] = np.exp(np.minimum(lg[k], 690.0)) * ph[k]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logb, logw = np.log(np.abs(b[k])), np.log(np.abs(w))
        dead = logw > np.min((math.log(1e100) - logb[k > 0]) / k[k > 0], initial=math.inf)
        dead |= bool(len(k) and k[0] == 0 and logb[0] > math.log(1e100))
        # the first finite term grows from a zero term at k = -1
        kg, logb_g = np.append(-1, k)[-27:], np.append(-math.inf, logb)[-27:]
        grow_at = (np.max((math.log1p(1e-12) - np.diff(logb_g)) / np.diff(kg))
                   if len(kg) == 27 else math.inf)
        last = np.abs(b[k[-1]]) * np.abs(w) ** k[-1] if len(k) else np.zeros(w.shape)
        m = float(np.max(np.abs(w), initial=0.0))
        t = np.abs(b) * m ** np.arange(K)
        small = np.cumsum(t[::-1])[::-1] < 1e-17 * np.max(t, initial=0.0)
        acc = np.polyval(b[:np.argmax(small) if m < 1.0 and small.any() else K][::-1], w)
        diverged = dead | (logw > grow_at)
        tail = last / np.maximum(np.abs(acc), 1e-300)
    return acc, tail, diverged


class _Pade:
    def __init__(self, b: np.ndarray, m: int):
        self.m = m
        C = b[m + np.subtract.outer(np.arange(m), np.arange(m))]  # C[i, j] = b[m+i-j]
        rhs = -b[m + 1: 2 * m + 1]
        qt, *_ = np.linalg.lstsq(C, rhs, rcond=1e-13)
        self.q = np.concatenate([[1.0 + 0j], qt])
        self.p = np.array(
            [np.sum(self.q[: k + 1] * b[k::-1][: k + 1]) for k in range(m + 1)]
        )

    def __call__(self, v):
        v = np.asarray(v, dtype=complex)
        return np.polyval(self.p[::-1], v) / np.polyval(self.q[::-1], v)

    def poles(self):
        if self.m == 0:
            return np.array([], dtype=complex)
        pl = np.roots(self.q[::-1])
        zr = np.roots(self.p[::-1]) if len(self.p) > 1 else np.array([])
        keep = []
        for p_ in pl:
            if len(zr) and np.min(np.abs(zr - p_)) < 1e-7:
                continue  # Froissart pole-zero pair
            keep.append(p_)
        return np.array(keep)


class SeriesEvaluator:
    """Evaluates the unscaled series f_1; the scale R is applied as f_1(R zeta).

    Built once per sequence.  The coefficients of g are normalized by its
    estimated radius r, lb_k = lg_k + k log r: the raw series (inside 0.85 r),
    both Pade fits and their validation ring work in v = w / r.
    """

    def __init__(self, c: CoeffSeq):
        lg, self.ph = _series_coeffs_g(c)
        self.odd = c.parity == "odd"
        self.n_finite = int(np.count_nonzero(np.isfinite(lg)))
        self.log_r, self.lb, self.unit = _radius_units(lg)
        self._build_pade()

    def _build_pade(self):
        self.pade = None
        self.pade_hi = None
        self.singularities = np.array([], dtype=complex)
        self.pade_valid = False
        if not math.isfinite(self.log_r) or self.n_finite < 40:
            return
        K = len(self.lb)
        m2 = min(40, (K - 2) // 2)
        m1 = max(8, m2 - 10)
        if m2 < 12:
            return
        lb = self.lb[: 2 * m2 + 1]
        b = np.where(np.isfinite(lb), np.exp(np.minimum(lb, 690.0)), 0.0) * self.ph[: 2 * m2 + 1]
        # effective numerical rank caps the useful order (exact rational inputs)
        sv = np.linalg.svd(b[m2 + np.subtract.outer(np.arange(m2), np.arange(m2))],
                           compute_uv=False)
        rank = int(np.sum(sv > 1e-12 * sv[0])) if sv[0] > 0 else 0
        if rank < m2:
            m2 = max(rank, 1)
            m1 = max(min(m1, m2), 1)
        try:
            self.pade = _Pade(b, m1)
            self.pade_hi = _Pade(b, m2)
        except np.linalg.LinAlgError:
            return
        # validation ring well inside the disc
        ang = 2 * np.pi * (np.arange(17) + 0.31) / 17
        ring = 0.75 * np.exp(1j * ang)
        raw, _, _ = _raw_eval(self.lb, self.ph, ring)
        scale = np.max(np.abs(raw)) + 1e-300
        ok_ring = np.max(np.abs(self.pade_hi(ring) - raw)) <= 1e-7 * scale
        # stable singularities: poles agreeing between the two orders
        p1, p2 = self.pade.poles(), self.pade_hi.poles()
        stable = []
        for p_ in p2:
            if abs(p_) > 25.0:
                continue
            if len(p1) and np.min(np.abs(p1 - p_)) <= 2e-3 * max(abs(p_), 0.1):
                stable.append(p_ * self.unit)  # back to w
        self.singularities = np.array(stable)
        self.pade_valid = bool(ok_ring)

    def singularity_l1(self) -> float:
        """min over validated singularities w_p of |Re|+|Im| of sqrt(w_p)."""
        if not self.pade_valid or len(self.singularities) == 0:
            return math.inf
        zp = np.sqrt(self.singularities)
        return float(np.min(np.abs(zp.real) + np.abs(zp.imag)))

    def values(self, zeta):
        """f_1 at the given points; returns (values, unresolved_mask, raw_diverged_mask).
        Values at raw-diverged points may be non-finite."""
        zeta = np.asarray(zeta, dtype=complex)
        v = zeta * zeta / self.unit
        vals = np.empty_like(v)
        unresolved = np.zeros(v.shape, dtype=bool)
        rawdiv = np.zeros(v.shape, dtype=bool)
        if math.isfinite(self.log_r):
            inner = np.abs(v) <= 0.85
        else:
            inner = np.ones(v.shape, dtype=bool)
        if inner.any():
            vals[inner], _, rawdiv[inner] = _raw_eval(self.lb, self.ph, v[inner])
        outer = ~inner
        if outer.any():
            if self.pade_valid:
                a = self.pade(v[outer])
                bb = self.pade_hi(v[outer])
                vals[outer] = bb
                scale = np.maximum(np.abs(bb), 1e-300)
                unresolved[outer] = np.abs(a - bb) > 1e-5 * scale
            else:
                vals[outer], _, rawdiv[outer] = _raw_eval(self.lb, self.ph, v[outer])
        if self.odd:
            vals = vals * zeta
        return vals, unresolved, rawdiv


def eval_series(c: CoeffSeq, zeta: complex, R_scale: float, K: int = None) -> EvalResult:
    """Partial sum of the coefficient series at one point of Omega.

    Raw Taylor sum with a last-term tail proxy, in units of the estimated
    radius of g as in SeriesEvaluator.  A diverged result (|zeta| past the
    scaled Gevrey radius) may carry a non-finite value.
    """
    if OmegaDomain.l1(zeta) > 1.0 + 1e-12:
        raise ValueError("zeta lies outside the closed tilted square")
    lg, ph = _series_coeffs_g(c)
    _, lb, unit = _radius_units(lg)
    z = R_scale * complex(zeta)
    vals, tail, div = _raw_eval(lb, ph, np.array([z * z / unit]), kmax=K)
    v = vals[0] * z if c.parity == "odd" else vals[0]
    return EvalResult(complex(v), float(tail[0]), bool(div[0]))


# ---------------------------------------------------------------------------
# Bergman norm estimation and classification
# ---------------------------------------------------------------------------

@dataclass
class BergmanReport:
    margins: tuple
    norms: tuple
    classification: str
    slope: float
    singularity_l1: float
    notes: str
    quad_refinement: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "margins": list(self.margins),
                "norms": list(self.norms),
                "classification": self.classification,
                "slope": self.slope,
                "singularity_l1": None if math.isinf(self.singularity_l1) else self.singularity_l1,
                "notes": self.notes,
                "quad_refinement": self.quad_refinement,
            }
        )


def _margin_norm(ev: SeriesEvaluator, R: float, eps: float, n: int):
    zeta, W = OmegaDomain.quad_nodes(eps, n)
    vals, unresolved, rawdiv = ev.values(R * zeta)
    if rawdiv.any():
        return None, "raw-divergence", float(np.mean(rawdiv))
    if unresolved.any():
        return None, "continuation-disagreement", float(np.mean(unresolved))
    return float(np.sum(W * np.abs(vals) ** 2)), "", 0.0


def bergman_norm_estimate(c: CoeffSeq, R_scale: float, margins=DEFAULT_MARGINS,
                          nodes: int = 64) -> BergmanReport:
    """Per-margin A^2(Omega_eps) norms of the scaled series plus a trend class.

    See the module docstring for the decision rules.  Norms are quadrature
    refinement-checked (nodes vs 3/2 nodes).
    """
    margins = tuple(margins)
    if any(not (0 < m < 0.5) for m in margins) or any(
        margins[i] <= margins[i + 1] for i in range(len(margins) - 1)
    ):
        raise ValueError("margins must be a decreasing sequence inside (0, 0.5)")
    if c.is_zero:
        return BergmanReport(margins, tuple(0.0 for _ in margins), "convergent",
                             0.0, math.inf, "zero sequence", 0.0)
    return _classify(SeriesEvaluator(c), float(R_scale), margins, nodes)


def _classify(ev: SeriesEvaluator, R: float, margins: tuple, nodes: int) -> BergmanReport:
    """Bergman report of f_R(zeta) = f_1(R zeta) from the evaluator of f_1."""
    # tail increments of log|g_R| below -25: superexponential decay, effectively
    # entire on our domain, so the continuation and its singularities play no part
    entire = ev.log_r - 2.0 * math.log(R) > 25.0
    pade_valid = ev.pade_valid and not entire
    l1sing = math.inf if entire else ev.singularity_l1() / R

    norms = []
    notes = ""
    refine_gap = 0.0
    for eps in margins:
        val, why, frac = _margin_norm(ev, R, eps, nodes)
        if val is None:
            if why == "raw-divergence" and not pade_valid:
                return BergmanReport(tuple(margins[: len(norms)]), tuple(norms),
                                     "divergent", math.nan, l1sing,
                                     f"series divergence at eps={eps} ({frac:.0%} of nodes)",
                                     refine_gap)
            notes = f"{why} at eps={eps}"
            break
        val2, why2, _ = _margin_norm(ev, R, eps, nodes + nodes // 2)
        if val2 is not None:
            refine_gap = max(refine_gap, abs(val2 - val) / max(abs(val2), 1e-300))
            val = val2
        norms.append(val)

    if l1sing <= 1.0 - _POLE_GUARD:
        return BergmanReport(tuple(margins[: len(norms)]), tuple(norms), "divergent",
                             math.nan, l1sing,
                             "validated singularity inside Omega; " + notes, refine_gap)
    if len(norms) < 3:
        return BergmanReport(tuple(margins[: len(norms)]), tuple(norms), "undecided",
                             math.nan, l1sing, "too few resolvable margins; " + notes,
                             refine_gap)

    eps_arr = np.array(margins[: len(norms)])
    n_arr = np.array(norms)
    slope = float(np.polyfit(np.log(1.0 / eps_arr[-3:]), np.log(np.maximum(n_arr[-3:], 1e-300)), 1)[0])
    certified_outside = (pade_valid and len(ev.singularities) > 0
                         and l1sing >= 1.0 + _POLE_GUARD)
    if entire or certified_outside:
        # entire-type coefficient decay, or all validated singularities
        # strictly outside the closed square: holomorphic on a neighborhood
        # of the closure, hence a member even while the margin norms are
        # still climbing toward their limit
        cls = "convergent"
    elif slope >= 0.5:
        cls = "divergent"
    else:
        incs = np.diff(n_arr)
        if np.all(np.abs(incs) <= 1e-12 * max(n_arr[-1], 1e-300)):
            cls = "convergent"
        elif np.any(incs < 0):
            cls = "undecided"  # quadrature wobble; domains grow monotone
        else:
            ratios = incs[1:] / np.maximum(incs[:-1], 1e-300)
            if float(np.max(ratios[-2:])) <= 0.7:
                cls = "convergent"
            else:
                cls = "undecided"
    return BergmanReport(tuple(margins[: len(norms)]), tuple(norms), cls, slope,
                         l1sing, notes, refine_gap)


# ---------------------------------------------------------------------------
# Interpolation radius
# ---------------------------------------------------------------------------

def radius_Ra(c: CoeffSeq, tol: float, R_max: float = 64.0):
    """Bracket of R_a = sup{ R : the scaled series lies in A^2(Omega) }.

    One evaluator serves every R and each distinct R is classified once.  One
    bisection runs for the supremum of certified-convergent R and again for the
    infimum of certified-divergent R; undecided classifications widen the
    bracket instead of being guessed.  Returns (R_lo, R_hi) or "unbounded".
    """
    if not tol > 1e-4:
        raise ValueError("tol must exceed 1e-4")
    if c.is_zero:
        return "unbounded"
    ev = SeriesEvaluator(c)
    memo = {}

    def cls(R):
        if R not in memo:
            memo[R] = _classify(ev, R, DEFAULT_MARGINS, 64).classification
        return memo[R]

    # initial bracket
    R_div = None
    R_conv = None
    R = 0.05
    while R <= R_max:
        k = cls(R)
        if k == "convergent":
            R_conv = R
        elif k == "divergent":
            R_div = R
            break
        R *= 2.0
    if R_div is None:
        return "unbounded"
    if R_conv is None:
        # search downward for a convergent scale
        R = R_div / 2.0
        while R > 1e-6:
            if cls(R) == "convergent":
                R_conv = R
                break
            R /= 2.0
        if R_conv is None:
            return (0.0, R_div)

    def bisect(below):
        lo, hi = R_conv, R_div
        while hi - lo > tol / 2.0:
            mid = 0.5 * (lo + hi)
            if below(cls(mid)):
                lo = mid
            else:
                hi = mid
        return lo, hi

    return (bisect(lambda k: k == "convergent")[0], bisect(lambda k: k != "divergent")[1])


# ---------------------------------------------------------------------------
# Two-sided interpolation counterexample and the loss-factor table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CounterexampleReport:
    residual_exponent: float
    residual_amplitude: float
    growth_sup: float
    growth_tail: float
    trackability_class: str
    trackability_slope: float
    fn_class: str

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


def interpolation_counterexample(N: int = 1000) -> CounterexampleReport:
    """Numerical audit of the two-sided interpolation counterexample.

    The sequence b_0 = 1, b_{n+1} = n!(n+1)!, a_n = 4^n b_n satisfies
    a_n/(2n)! = sqrt(pi/n) + O(n^{-3/2}) (fitted residual exponent ~ -3/2)
    and |a_n| <~ (2n)!/sqrt(1+n) (bounded growth ratio), yet the trackability
    membership series -- the odd-parity derivative series at radius
    1/sqrt(2), the Li_{-1/2}(zeta^2)-type object of the impossibility proof
    -- falls outside A^2(Omega) ("divergent", norms growing like 1/eps).
    """
    if N < 100:
        raise ValueError("N must be >= 100")
    seq = CoeffSeq.factorial_pair(N)
    n = np.arange(10, min(400, N - 1))
    ratio = np.exp(seq.log_mag[n] - gammaln(2 * n + 1))
    resid = np.abs(ratio - np.sqrt(np.pi / n))
    expo, amp = np.polyfit(np.log(n), np.log(resid), 1)

    grow = np.exp(seq.log_mag - gammaln(2 * np.arange(N) + 1)) * np.sqrt(1.0 + np.arange(N))
    growth_sup = float(np.max(grow))
    growth_tail = float(grow[-1])

    # membership series of the reachable/trackable class: odd parity, shift 1
    track = borel_range_test(seq, p=1, parity="odd", R=1.0 / math.sqrt(2.0))
    # the flat series itself (even, R = 1/sqrt2): integrable boundary blow-up
    fn = bergman_norm_estimate(seq, 1.0 / math.sqrt(2.0))
    return CounterexampleReport(
        residual_exponent=float(expo),
        residual_amplitude=float(math.exp(amp)),
        growth_sup=growth_sup,
        growth_tail=growth_tail,
        trackability_class=track.classification,
        trackability_slope=track.slope,
        fn_class=fn.classification,
    )


def borel_range_test(c: CoeffSeq, p: int, parity: str, R: float,
                     margins=DEFAULT_MARGINS) -> BergmanReport:
    """Range test for the shifted Borel sequence: reindex by p, set the series
    parity, and delegate to the Bergman estimate at scale R."""
    shifted = c.shifted(p)
    shifted = CoeffSeq(shifted.log_mag, shifted.phase, parity,
                       name=f"{c.name}[p={p},{parity}]", params=c.params)
    return bergman_norm_estimate(shifted, R, margins)


def loss_factors(s_grid):
    """Loss-factor table rows (s, rho_s, Gamma_s, rho_mrr, sign).

    rho_s = cos(pi/(2s)) is the sharp interpolation loss factor; Gamma_s =
    rho_s^{-s} is the same constant in the n^{ns} normalization (rho_s =
    Gamma_s^{-1/s}); rho_mrr = exp(-1/(e s)) is the (flawed) competing value,
    larger than rho_s for s in (1,3) and smaller for s > 4.
    """
    rows = []
    for s in s_grid:
        if not s > 1:
            raise ValueError("loss factors require s > 1")
        rho = math.cos(math.pi / (2.0 * s))
        rows.append(
            {
                "s": float(s),
                "rho_s": rho,
                "Gamma_s": rho ** (-s),
                "rho_mrr": math.exp(-1.0 / (math.e * s)),
                "sign": int(np.sign(math.exp(-1.0 / (math.e * s)) - rho)),
            }
        )
    return rows


def loss_crossover(bracket=(3.0, 4.0), xtol: float = 1e-10) -> float:
    """Root of cos(pi/2s) = exp(-1/(es)) between s = 3 and s = 4."""
    f = lambda s: math.exp(-1.0 / (math.e * s)) - math.cos(math.pi / (2.0 * s))
    return float(brentq(f, bracket[0], bracket[1], xtol=xtol))
