"""Bergman-space membership tests on the tilted square.

Omega = { zeta : |Re zeta| + |Im zeta| < 1 } (area 2).  For a coefficient
sequence (a_k) the even series  f_R(zeta) = sum a_k (sqrt(2) R zeta)^{2k}/(2k)!
(or the odd variant with 2k+1) is tested for membership in A^2(Omega) by
quadrature of |f_R|^2 over the exhaustion Omega_eps = (1-eps) Omega, with a
three-way classification: convergent / divergent / undecided.  Since
f_R(zeta) = f_1(R zeta), one evaluator of f_1 per sequence serves every R:
the scale multiplies the quadrature nodes and divides the singularity gauge.
The evaluator sets up the coefficient terms of the raw series once.  The
quadrature grid is symmetric under zeta -> -zeta and zeta -> conj(zeta), and
|f_1| is even, so one node of each orbit is evaluated: of each pair +-zeta in
general, and of each four +-zeta, +-conj(zeta) when the raw terms and both
Pade fits have real coefficients, where f_1(conj zeta) is exactly
conj(f_1(zeta)).  The raw series is summed by blocked Horner
(_poly_eval) under one majorant cutoff per call: per chunk of at most 512
nodes, one complex matrix product evaluates every block of about sqrt(K)
coefficients and Horner in x^L joins the blocks.  The short Pade
polynomials keep plain Horner.

Membership in A^2 is undecidable from finite data; the judgment calls are:

* quadrature in rotated coordinates (tensor Gauss-Legendre, the square maps
  to an axis-aligned one),
* evaluation by the raw Taylor series inside its disc of convergence (cut
  where a majorant tail falls below 1e-17) and by a scaled diagonal Pade
  continuation beyond it (the disc need not cover Omega even for genuine A^2
  members), cross-validated at two orders,
* a convergent / divergent / undecided rule over the coefficient evidence
  (entire type, validated singularities) and the per-margin norms, stated
  once in _classify.  radius_Ra and the counterexample's flat series ask it
  for the class alone: it reads only the divergence and continuation masks
  where the class needs no norm, so no raw series is summed there, and no
  margin at all where the coefficients settle the class.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .numkit import log_gamma

__all__ = [
    "OmegaDomain",
    "CoeffSeq",
    "BergmanReport",
    "bergman_norm_estimate",
    "radius_Ra",
    "interpolation_counterexample",
    "loss_factors",
    "loss_crossover",
    "borel_range_test",
    "DEFAULT_MARGINS",
]

DEFAULT_MARGINS = (0.2, 0.1, 0.05, 0.025, 0.0125)
_NODES = 64  # Gauss-Legendre nodes per axis of a margin's grid (3/2 of it to refine)
_POLE_GUARD = 0.005  # ~5x the observed Pade pole-location bias


class OmegaDomain:
    """The tilted square |Re zeta| + |Im zeta| < 1 and its exhaustion."""

    area = 2.0

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
    def is_zero(self) -> bool:
        return bool(np.all(self.log_mag == -math.inf))

    def shifted(self, p: int) -> "CoeffSeq":
        """Drop the first p entries (p >= 0) or left-pad with zeros (p < 0)."""
        if p >= 0:
            lm, ph = self.log_mag[p:], self.phase[p:]
        else:
            lm = np.concatenate([np.full(-p, -math.inf), self.log_mag])
            ph = np.concatenate([np.ones(-p, dtype=complex), self.phase])
        return CoeffSeq(lm, ph, self.parity)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_values(cls, values, parity="even") -> "CoeffSeq":
        """A value v becomes (log|v|, v/|v|), and 0 becomes (-inf, 1).

        log|v| is taken by math.log one entry at a time: np.log can differ
        from it in the last bit.
        """
        lm, ph = [], []
        for v in values:
            r = abs(v)
            lm.append(math.log(r) if r else -math.inf)
            if isinstance(v, complex):
                ph.append(v / r if r else 1.0)
            else:
                ph.append(1.0 if v >= 0 else -1.0)
        return cls(lm, ph, parity)

    @classmethod
    def geometric(cls, c: float = 1.0, N: int = 600) -> "CoeffSeq":
        """a_k = (2k)! c^k  (series 1/(1 - 2 R^2 c zeta^2) at scale R)."""
        k = np.arange(N)
        lm = log_gamma(2 * k + 1) + k * math.log(abs(c))
        ph = np.sign(c) ** k + 0j
        return cls(lm, ph.astype(complex), "even")

    @classmethod
    def sharp_radius(cls, N: int = 600) -> "CoeffSeq":
        """a_k = (2k)! 2^k i^k / sqrt(k) (k >= 1), a_0 = 0."""
        k = np.arange(N)
        lm = np.full(N, -math.inf)
        lm[1:] = log_gamma(2 * k[1:] + 1) + k[1:] * math.log(2.0) - 0.5 * np.log(k[1:])
        ph = np.exp(1j * (math.pi / 2.0) * k)
        return cls(lm, ph, "even")

    @classmethod
    def factorial_pair(cls, N: int = 600) -> "CoeffSeq":
        """b_0 = 1, b_{n+1} = n!(n+1)!, a_n = 4^n b_n."""
        n = np.arange(N)
        lm = np.zeros(N)
        lm[1:] = n[1:] * math.log(4.0) + log_gamma(n[1:]) + log_gamma(n[1:] + 1)
        return cls(lm, np.ones(N, dtype=complex), "even")


# ---------------------------------------------------------------------------
# Series evaluation: raw Taylor + scaled diagonal Pade continuation
# ---------------------------------------------------------------------------

def _series_coeffs_g(c: CoeffSeq):
    """Coefficients of g(w): f_1(zeta) = g(zeta^2) (even) or zeta*g(zeta^2) (odd)."""
    p = 2 * np.arange(len(c)) + (c.parity == "odd")
    lg = c.log_mag + p * math.log(math.sqrt(2.0)) - log_gamma(p + 1)
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
        # the median by np.sort: np.median imports numpy.ma on its first call
        d = np.sort(np.diff(lg[ks]) / np.diff(ks))
        m = len(d) // 2
        log_r = -float(d[m] if len(d) % 2 else (d[m - 1] + d[m]) / 2)
    log_unit = min(max(log_r, -700.0), 700.0) if math.isfinite(log_r) else 0.0
    return log_r, lg + np.arange(len(lg)) * log_unit, math.exp(log_unit)


def _raw_terms(lg, ph):
    """Coefficient part of the raw series, set up once per coefficient sequence.

    Returns (b, |b|, dead_at, grow_at): the terms b_k = exp(lg_k) ph_k of
    g(w) = sum b_k w^k and the two divergence thresholds on log|w|.  A node is
    dead when a term exceeds 1e100, log|w| > dead_at; dead_at = -inf marks
    every node dead (b_0 itself past 1e100).  A node is growing when each of
    the last 26 finite terms exceeds the one before by 1 + 1e-12, log|w| >
    grow_at.
    """
    k = np.flatnonzero(np.isfinite(lg))
    b = np.zeros(len(lg), dtype=complex)
    b[k] = np.exp(np.minimum(lg[k], 690.0)) * ph[k]
    absb = np.abs(b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        logb = np.log(absb[k])
        dead_at = np.min((math.log(1e100) - logb[k > 0]) / k[k > 0], initial=math.inf)
        if len(k) and k[0] == 0 and logb[0] > math.log(1e100):
            dead_at = -math.inf
        # the first finite term grows from a zero term at k = -1
        kg, logb_g = np.append(-1, k)[-27:], np.append(-math.inf, logb)[-27:]
        grow_at = (np.max((math.log1p(1e-12) - np.diff(logb_g)) / np.diff(kg))
                   if len(kg) == 27 else math.inf)
    return b, absb, dead_at, grow_at


_BLOCK = 24         # at most this many coefficients per block of _poly_eval
_MIN_BLOCKED = 64   # shorter polynomials, the Pade fits among them, take plain Horner
_CHUNK = 512        # nodes per chunk: the power table stays under 0.2 MB
_ALIGN = 16         # chunks are zero-padded to a multiple of this many nodes


def _poly_eval(c, x):
    """sum_k c_k x^k at the nodes x, by blocked Horner (Paterson-Stockmeyer).

    The K coefficients form nb = ceil(K / L) blocks of L = min(_BLOCK,
    isqrt(K)).  Per chunk of at most _CHUNK nodes, the powers x^0..x^(L-1)
    form an (L, nodes) table, one complex matrix product C @ P evaluates
    every block polynomial, and Horner in x^L over the blocks sums them.
    A chunk is zero-padded to a multiple of _ALIGN columns, so that the BLAS
    kernel treats each node alike: a node's value depends only on the node
    and c, never on the chunk it falls in.

    Below _MIN_BLOCKED coefficients it is Horner's rule, with the rounding of
    np.polyval: a Pade quotient p/q near a pole magnifies any change of
    rounding in q, and blocks would save little there.
    """
    x = np.asarray(x, dtype=complex)
    K = len(c)
    if K < _MIN_BLOCKED:
        acc = np.zeros(x.shape, dtype=complex)
        for ck in c[::-1]:
            acc = acc * x + ck
        return acc
    L = min(_BLOCK, math.isqrt(K))
    nb = -(-K // L)
    C = np.zeros(nb * L, dtype=complex)
    C[:K] = c
    C = C.reshape(nb, L)
    out = np.empty(x.shape, dtype=complex)
    for s in range(0, len(x), _CHUNK):
        xc = x[s:s + _CHUNK]
        n = len(xc)
        xp = np.zeros(-(-n // _ALIGN) * _ALIGN, dtype=complex)
        xp[:n] = xc
        P = np.empty((L, len(xp)), dtype=complex)
        P[0] = 1.0
        for j in range(1, L):
            np.multiply(P[j - 1], xp, out=P[j])
        xL = P[L - 1] * xp
        B = C @ P
        acc = B[-1]
        for i in range(nb - 2, -1, -1):
            acc *= xL
            acc += B[i]
        out[s:s + n] = acc[:n]
    return out


def _raw_diverged(terms, w):
    """Per-node divergence mask of g at w (or at |w|, which gives the same
    mask): dead or growing (see _raw_terms), whatever the sign pattern of
    the terms.  No term is summed."""
    _, _, dead_at, grow_at = terms
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(w))
    return (logw > dead_at) | (dead_at == -math.inf) | (logw > grow_at)


def _raw_sum(terms, w):
    """Per-point part of the raw series: (values, diverged_mask) of g at w.

    When max|w| < 1 the sum stops where the majorant tail
    sum_{j>=n} |b_j| max|w|^j falls below 1e-17 of its largest term: one
    cutoff per call, so each node's value depends on the node and that
    cutoff alone.  The terms are summed by blocked Horner (_poly_eval), over
    chunks of at most _CHUNK nodes.  The mask is _raw_diverged; values at
    diverged nodes may be non-finite.
    """
    b, absb = terms[:2]
    w = np.asarray(w, dtype=complex)
    absw = np.abs(w)
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(np.max(absw, initial=0.0))
        t = absb * m ** np.arange(len(b))
        small = np.cumsum(t[::-1])[::-1] < 1e-17 * np.max(t, initial=0.0)
        acc = _poly_eval(b[:np.argmax(small) if m < 1.0 and small.any() else len(b)], w)
    return acc, _raw_diverged(terms, absw)


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
        return _poly_eval(self.p, v) / _poly_eval(self.q, v)

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

    Built once per sequence, with the coefficient terms of the raw series
    (_raw_terms) set up once.  The coefficients of g are normalized by its
    estimated radius r, lb_k = lg_k + k log r: the raw series (inside 0.85 r),
    both Pade fits and their validation ring work in v = w / r.  ``real``
    says that the raw terms and both fits have zero imaginary parts.
    """

    def __init__(self, c: CoeffSeq):
        lg, self.ph = _series_coeffs_g(c)
        self.odd = c.parity == "odd"
        self.n_finite = int(np.count_nonzero(np.isfinite(lg)))
        self.log_r, self.lb, self.unit = _radius_units(lg)
        self.terms = _raw_terms(self.lb, self.ph)
        self._build_pade()
        # real coefficients: f_1(conj zeta) is conj(f_1(zeta)), bit for bit
        coeffs = [self.terms[0]] + [a for f in (self.pade, self.pade_hi) if f is not None
                                    for a in (f.p, f.q)]
        self.real = not any(np.any(a.imag) for a in coeffs)

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
        raw, _ = _raw_sum(self.terms, ring)
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
        return self._evaluate(zeta, masks_only=False)

    def _evaluate(self, zeta, masks_only):
        """values(zeta); with masks_only, (None, unresolved_mask, raw_diverged_mask)
        with the same masks and no raw sum: raw nodes take _raw_diverged alone,
        while Pade nodes still take both fits, whose disagreement is the mask."""
        zeta = np.asarray(zeta, dtype=complex)
        v = zeta * zeta / self.unit
        vals = None if masks_only else np.empty_like(v)
        unresolved = np.zeros(v.shape, dtype=bool)
        rawdiv = np.zeros(v.shape, dtype=bool)
        if math.isfinite(self.log_r):
            inner = np.abs(v) <= 0.85
        else:
            inner = np.ones(v.shape, dtype=bool)

        def raw(at):  # one call per node set: its cutoff is that set's own
            if masks_only:
                rawdiv[at] = _raw_diverged(self.terms, v[at])
            else:
                vals[at], rawdiv[at] = _raw_sum(self.terms, v[at])

        if inner.any():
            raw(inner)
        outer = ~inner
        if outer.any():
            if self.pade_valid:
                a = self.pade(v[outer])
                bb = self.pade_hi(v[outer])
                if not masks_only:
                    vals[outer] = bb
                scale = np.maximum(np.abs(bb), 1e-300)
                unresolved[outer] = np.abs(a - bb) > 1e-5 * scale
            else:
                raw(outer)
        if self.odd and not masks_only:
            vals = vals * zeta
        return vals, unresolved, rawdiv


def _scale(R_scale) -> float:
    R = float(R_scale)
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"R_scale must be finite and > 0, got {R_scale!r}")
    return R


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


@functools.lru_cache(maxsize=8)
def _node_orbits(n: int, real: bool):
    """(reps, inv): one node of each orbit of the n x n grid, and the map back.

    Node (i, j) of OmegaDomain.quad_nodes(eps, n) is zeta; for every eps,
    node (n-1-i, n-1-j) is exactly -zeta and node (n-1-j, n-1-i) exactly
    conj(zeta), each with the same weight (leggauss's nodes are exactly
    antisymmetric and its weights symmetric).  The orbit is
    {zeta, -zeta}, or {+-zeta, +-conj(zeta)} when real: (n^2 + 2n)/4 orbits
    for even n instead of n^2/2.  reps lists the lowest grid index of each
    orbit; grid node k lies in the orbit of reps[inv[k]].  Cached per (n,
    real); the arrays are shared, hence read-only.
    """
    k = np.arange(n * n)
    i, j = np.divmod(k, n)
    rep = np.minimum(k, n * n - 1 - k)
    if real:
        rep = np.minimum(rep, np.minimum((n - 1 - j) * n + (n - 1 - i), j * n + i))
    reps, inv = np.unique(rep, return_inverse=True)
    reps.flags.writeable = inv.flags.writeable = False
    return reps, inv


def _margin_norm(ev: SeriesEvaluator, R: float, eps: float, n: int,
                 masks_only: bool = False):
    """Quadrature of |f_R|^2 over Omega_eps, one node of each orbit evaluated.

    |f_1(-zeta)| = |f_1(zeta)| for either parity, and when ev.real (the raw
    terms and both Pade fits have real coefficients) f_1(conj zeta) is
    exactly conj(f_1(zeta)): so one node of each orbit of _node_orbits is
    evaluated, {+-zeta} in general and {+-zeta, +-conj(zeta)} when ev.real.
    Every orbit node has the same |zeta|, hence the same raw cutoff.  The
    masks and |f|^2 are gathered back into grid order, so the sum runs in
    the same order as over the full grid.  With masks_only the evaluator
    sums no raw series and a resolved margin's norm is NaN; the failure
    reasons and fractions are the same.
    """
    zeta, W = OmegaDomain.quad_nodes(eps, n)
    reps, inv = _node_orbits(n, ev.real)
    at = R * zeta[reps]
    vals, unresolved, rawdiv = ev._evaluate(at, True) if masks_only else ev.values(at)
    if rawdiv.any():
        return None, "raw-divergence", float(np.mean(rawdiv[inv]))
    if unresolved.any():
        return None, "continuation-disagreement", float(np.mean(unresolved[inv]))
    if masks_only:
        return math.nan, "", 0.0
    return float(np.sum(W * (np.abs(vals) ** 2)[inv])), "", 0.0


def bergman_norm_estimate(c: CoeffSeq, R_scale: float) -> BergmanReport:
    """Per-margin A^2(Omega_eps) norms of the scaled series plus a trend class.

    The margins are DEFAULT_MARGINS and the class follows the rule stated in
    _classify.  Norms are quadrature refinement-checked (_NODES vs 3/2 _NODES).
    """
    R = _scale(R_scale)
    if c.is_zero:
        return BergmanReport(DEFAULT_MARGINS, tuple(0.0 for _ in DEFAULT_MARGINS),
                             "convergent", 0.0, math.inf, "zero sequence", 0.0)
    return _classify(SeriesEvaluator(c), R, _NODES)


def _classify(ev: SeriesEvaluator, R: float, nodes: int,
              class_only: bool = False) -> BergmanReport:
    """Bergman report of f_R(zeta) = f_1(R zeta) from the evaluator of f_1.

    The class rule, in order:
    * divergent when the series itself certifiably diverges at a margin's
      quadrature nodes and no validated continuation exists;
    * divergent when a validated singularity of the continuation sits
      strictly inside Omega (guard band _POLE_GUARD in the |Re|+|Im| gauge);
    * undecided when fewer than three of DEFAULT_MARGINS resolve;
    * convergent when the coefficients certify an entire-type function, or
      when all validated singularities lie strictly outside the closed
      square (holomorphic on a neighborhood of the closure);
    * otherwise, singularity location unresolved: divergent when the last
      three margin norms grow with log-log slope >= 0.5 in 1/eps, convergent
      when their increments vanish or decay geometrically (ratio <= 0.7),
      undecided else.

    With class_only the report is good for the class alone, and no raw
    series is summed where the rule reads only the divergence and
    continuation masks.  A scale that the coefficient evidence settles
    (inside, entire or certified outside) reads the masks of no margin when
    inside, of the first three when certified outside, and of every margin
    for an entire-type series, where a later margin can still diverge; its
    norms are NaN and its slope is not fitted.  Any other scale reads the
    masks at `nodes` and the norm at 3/2 nodes, or at `nodes` when the finer
    grid does not resolve.  Its quad_refinement (refine_gap) is then 0.
    """
    # tail increments of log|g_R| below -25: superexponential decay, effectively
    # entire on our domain, so the continuation and its singularities play no part
    entire = ev.log_r - 2.0 * math.log(R) > 25.0
    pade_valid = ev.pade_valid and not entire
    l1sing = math.inf if entire else ev.singularity_l1() / R
    inside = l1sing <= 1.0 - _POLE_GUARD
    # all validated singularities strictly outside the closed square
    certified_outside = (pade_valid and len(ev.singularities) > 0
                         and l1sing >= 1.0 + _POLE_GUARD)
    settled = class_only and (inside or entire or certified_outside)
    margins = DEFAULT_MARGINS
    if settled:
        margins = () if inside else margins if entire else margins[:3]

    norms = []
    notes = ""
    refine_gap = 0.0
    for eps in margins:
        val, why, frac = _margin_norm(ev, R, eps, nodes, masks_only=class_only)
        if val is None:
            if why == "raw-divergence" and not pade_valid:
                return BergmanReport(tuple(margins[: len(norms)]), tuple(norms),
                                     "divergent", math.nan, l1sing,
                                     f"series divergence at eps={eps} ({frac:.0%} of nodes)",
                                     refine_gap)
            notes = f"{why} at eps={eps}"
            break
        if not settled:
            val2, _, _ = _margin_norm(ev, R, eps, nodes + nodes // 2)
            if val2 is not None:
                if not class_only:
                    refine_gap = max(refine_gap, abs(val2 - val) / max(abs(val2), 1e-300))
                val = val2
            elif class_only:  # the masks carried no norm
                val, _, _ = _margin_norm(ev, R, eps, nodes)
        norms.append(val)

    if inside:
        return BergmanReport(tuple(margins[: len(norms)]), tuple(norms), "divergent",
                             math.nan, l1sing,
                             "validated singularity inside Omega; " + notes, refine_gap)
    if len(norms) < 3:
        return BergmanReport(tuple(margins[: len(norms)]), tuple(norms), "undecided",
                             math.nan, l1sing, "too few resolvable margins; " + notes,
                             refine_gap)

    eps_arr = np.array(margins[: len(norms)])
    n_arr = np.array(norms)
    # a settled scale is entire or certified outside here: its trend is not read
    slope = math.nan if settled else float(
        np.polyfit(np.log(1.0 / eps_arr[-3:]), np.log(np.maximum(n_arr[-3:], 1e-300)), 1)[0])
    if entire or certified_outside:
        # holomorphic on a neighborhood of the closure, hence a member even
        # while the margin norms are still climbing toward their limit
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

def radius_Ra(c: CoeffSeq, tol: float):
    """Bracket of R_a = sup{ R : the scaled series lies in A^2(Omega) }.

    One evaluator serves every R and each distinct R is classified once, by
    the rule of _classify asked for the class alone.  The scan doubles R
    from 0.05 up to 64.  One bisection runs for the supremum of
    certified-convergent R and again for the infimum of certified-divergent
    R; undecided classifications widen the bracket instead of being guessed.
    Returns (R_lo, R_hi) or "unbounded".
    """
    if not tol > 1e-4:
        raise ValueError("tol must exceed 1e-4")
    if c.is_zero:
        return "unbounded"
    ev = SeriesEvaluator(c)
    memo = {}

    def cls(R):
        if R not in memo:
            memo[R] = _classify(ev, R, _NODES, class_only=True).classification
        return memo[R]

    # initial bracket
    R_div = None
    R_conv = None
    R = 0.05
    while R <= 64.0:
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
    ratio = np.exp(seq.log_mag[n] - log_gamma(2 * n + 1))
    resid = np.abs(ratio - np.sqrt(np.pi / n))
    expo, amp = np.polyfit(np.log(n), np.log(resid), 1)

    grow = np.exp(seq.log_mag - log_gamma(2 * np.arange(N) + 1)) * np.sqrt(1.0 + np.arange(N))
    growth_sup = float(np.max(grow))
    growth_tail = float(grow[-1])

    # membership series of the reachable/trackable class: odd parity, shift 1
    track = borel_range_test(seq, p=1, parity="odd", R=1.0 / math.sqrt(2.0))
    # the flat series itself (even, R = 1/sqrt2): integrable boundary blow-up;
    # only its class is reported
    fn = _classify(SeriesEvaluator(seq), 1.0 / math.sqrt(2.0), _NODES, class_only=True)
    return CounterexampleReport(
        residual_exponent=float(expo),
        residual_amplitude=float(math.exp(amp)),
        growth_sup=growth_sup,
        growth_tail=growth_tail,
        trackability_class=track.classification,
        trackability_slope=track.slope,
        fn_class=fn.classification,
    )


def borel_range_test(c: CoeffSeq, p: int, parity: str, R: float) -> BergmanReport:
    """Range test for the shifted Borel sequence: reindex by p, set the series
    parity, and delegate to the Bergman estimate at scale R."""
    shifted = c.shifted(p)
    return bergman_norm_estimate(CoeffSeq(shifted.log_mag, shifted.phase, parity), R)


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


def loss_crossover() -> float:
    """Root of cos(pi/2s) = exp(-1/(es)) between s = 3 and s = 4, by bisection
    to within 1e-10."""
    f = lambda s: math.exp(-1.0 / (math.e * s)) - math.cos(math.pi / (2.0 * s))
    lo, hi = 3.0, 4.0  # f(3) > 0 > f(4)
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
