import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.optimize import brentq

import heatflat
from heatflat import holo
from heatflat.holo import (
    CoeffSeq,
    OmegaDomain,
    SeriesEvaluator,
    _margin_norm,
    _series_coeffs_g,
    bergman_norm_estimate,
    interpolation_counterexample,
    loss_crossover,
    loss_factors,
    radius_Ra,
)
from oracles import eval_series, l1, polylog, polylog_seq, raw_eval

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestOmegaDomain:
    def test_l1_and_contains(self):
        # the square contains zeta exactly when l1(zeta) < 1
        assert l1(0.5 + 0.4j) == pytest.approx(0.9)
        assert l1(0.8 + 0.4j) > 1.0

    def test_quadrature_measures_area(self):
        for eps in (0.2, 0.05):
            _, w = OmegaDomain.quad_nodes(eps, 64)
            assert abs(w.sum() - 2.0 * (1 - eps) ** 2) < 1e-12

    @pytest.mark.parametrize("n", [64, 96, 33])
    def test_grid_is_point_symmetric(self, n):
        # _margin_norm evaluates one node of each orbit {+-zeta}, or
        # {+-zeta, +-conj(zeta)} for real coefficients (holo._node_orbits)
        for eps in (0.3, *holo.DEFAULT_MARGINS):
            zeta, w = OmegaDomain.quad_nodes(eps, n)
            assert np.array_equal(zeta[::-1], -zeta)
            assert np.array_equal(w[::-1], w)
            # node (n-1-j, n-1-i) is conj of node (i, j), with an equal weight
            Z, Wm = zeta.reshape(n, n), w.reshape(n, n)
            assert np.array_equal(Z[::-1, ::-1].T, np.conj(Z))
            assert np.array_equal(Wm[::-1, ::-1].T, Wm)


class TestCoeffSeq:
    def test_from_values_bit_exact(self):
        values = [1.0, -0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, -2.5, 0.1, 3,
                  math.pi, -1e-300, 3.0 - 4.0j, -1e-200 + 1e-200j, 0j]
        seq = CoeffSeq.from_values(values)
        for v, lm, ph in zip(values, seq.log_mag, seq.phase):
            if v == 0:
                assert lm == -math.inf and ph == 1.0
            else:
                assert lm == math.log(abs(v))
                assert ph == v / abs(v)

    def test_derivative(self):
        # d/dzeta sum a_k zeta^2k/(2k)! = sum a_{k+1} zeta^{2k+1}/(2k+1)!
        seq = CoeffSeq.from_values([1.0, -2.0, 3.0j])
        d = seq.derivative()
        assert d.parity == "odd"
        assert d.log_mag.tolist() == seq.log_mag[1:].tolist()
        assert d.phase.tolist() == [-1.0, 1j]
        with pytest.raises(ValueError, match="even series"):
            d.derivative()


class TestEvalSeries:
    def test_constant_one(self):
        seq = CoeffSeq.from_values([1.0])
        r = eval_series(seq, 0.3 + 0.2j, 1.0)
        assert r.value == pytest.approx(1.0)
        assert not r.diverged

    @pytest.mark.parametrize("zeta", [0.25, 0.5j, 0.3 - 0.3j])
    def test_geometric_closed_form(self, zeta):
        # sum (2k)! (sqrt2 R zeta)^{2k}/(2k)! = 1/(1 - 2 R^2 zeta^2)
        R = 0.5
        seq = CoeffSeq.geometric(1.0, 400)
        r = eval_series(seq, zeta, R)
        want = 1.0 / (1.0 - 2.0 * R * R * zeta * zeta)
        assert abs(r.value - want) < 1e-12 * abs(want)
        assert not r.diverged

    @pytest.mark.parametrize("zeta", [0.5, 0.7j, 0.55 + 0.3j, 0.9])
    def test_polylog_composition_oracle(self, zeta):
        # coefficients (2k)! k^{1/2}: series at R = 1/sqrt2 is Li_{-1/2}(zeta^2)
        seq = polylog_seq(-0.5, 2000)
        r = eval_series(seq, zeta, INV_SQRT2)
        want = polylog(-0.5, zeta * zeta)
        assert abs(r.value - want) <= 1e-8 * abs(want)

    def test_divergence_diagnostic(self):
        seq = CoeffSeq.geometric(1.0, 400)
        r = eval_series(seq, 0.999, 1.0)  # singularity at 1/sqrt2 < 0.999
        assert r.diverged

    @staticmethod
    def _mp_sum(seq, zeta):
        lg, ph = _series_coeffs_g(seq)
        with mp.workdps(40):
            w, ref = mp.mpc(zeta) ** 2, mp.mpc(0)
            for k in np.flatnonzero(np.isfinite(lg)):
                ref += mp.exp(lg[k]) * mp.mpc(complex(ph[k])) * w ** int(k)
            return complex(ref)

    def test_coefficients_past_e690_inside_the_radius(self):
        # b_k = 4^k i^k / sqrt(k) exceeds e^690 from k = 498 on; |w| = 0.99 r
        seq = CoeffSeq.sharp_radius(700)
        r = eval_series(seq, 0.4975j, 1.0)
        want = self._mp_sum(seq, 0.4975j)
        assert not r.diverged and abs(r.value - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("N", [700, 1200])
    def test_same_sign_divergence(self, N):
        # ratio 1.125 beyond the radius 1/sqrt2, every term below 1e100 and of
        # one sign: the partial sum outweighs the last term, yet it diverges
        seq = CoeffSeq.geometric(1.0, N)
        r = eval_series(seq, 0.75, 1.0)
        assert r.diverged
        want = self._mp_sum(seq, 0.75)
        assert abs(r.value - want) <= 1e-12 * abs(want)

    def test_domain(self):
        with pytest.raises(ValueError):
            eval_series(CoeffSeq.from_values([1.0]), 0.9 + 0.2j, 1.0)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_scale_dilates_the_argument(self, parity):
        # f_R(zeta) = f_1(R zeta)
        base = polylog_seq(1.5, 400)
        seq = CoeffSeq(base.log_mag, base.phase, parity)
        for R, zeta in ((0.5, 0.6 + 0.3j), (0.9, -0.2 + 0.5j), (1.3, 0.3 - 0.2j)):
            want = eval_series(seq, R * zeta, 1.0).value
            assert abs(eval_series(seq, zeta, R).value - want) <= 1e-12 * abs(want)


# sequences with the radius r of g(w) = sum b_k w^k and a direction in which
# the terms b_k w^k alternate in sign; the tests work in v = w / r, with the
# coefficients b_k r^k normalized as SeriesEvaluator does
RAW_SEQS = {
    "geometric": (CoeffSeq.geometric(1.0, 900), 0.5, -1.0),  # b_k = 2^k
    "sharp_radius": (CoeffSeq.sharp_radius(900), 0.25, 1j),  # b_k = (4i)^k / sqrt(k)
    "polylog": (polylog_seq(-0.5, 900), 0.5, -1.0),  # b_k = 2^k sqrt(k)
}
RAW_ANGLES = np.exp(2j * np.pi * (np.arange(5) + 0.17) / 5)


def _normalized(name):
    seq, r, alternating = RAW_SEQS[name]
    lg, ph = _series_coeffs_g(seq)
    return lg + np.arange(len(lg)) * math.log(r), ph, alternating


class TestRawEval:
    @pytest.mark.parametrize("name", RAW_SEQS)
    def test_against_mpmath_termwise_sum(self, name):
        lb, ph, _ = _normalized(name)
        v = np.concatenate([rho * RAW_ANGLES for rho in (0.3, 0.85, 0.95)])
        vals, _, div = raw_eval(lb, ph, v)
        assert not div.any()
        with mp.workdps(30):
            for vi, got in zip(v, vals):
                ref, vk = mp.mpc(0), mp.mpc(1)
                for l, p in zip(lb, ph):
                    if np.isfinite(l):
                        ref += mp.exp(l) * mp.mpc(complex(p)) * vk
                    vk *= complex(vi)
                assert abs(got - complex(ref)) <= 1e-13 * abs(complex(ref))

    @pytest.mark.parametrize("name", RAW_SEQS)
    def test_diverged_beyond_the_radius_only(self, name):
        lb, ph, alternating = _normalized(name)
        inside = np.concatenate([rho * RAW_ANGLES for rho in (0.3, 0.85, 0.95)])
        outside = np.concatenate([rho * RAW_ANGLES for rho in (1.5, 2.0)])
        assert not raw_eval(lb, ph, inside)[2].any()
        assert raw_eval(lb, ph, outside)[2].all()  # terms past 1e100
        # terms below 1e100 that grow to the end and outweigh the partial sum
        assert raw_eval(lb, ph, np.array([1.1 * alternating]))[2].all()


class TestPolyEval:
    # complex coefficients of modulus about 1 (radius 1) and nodes inside and
    # beyond the unit disc; K straddles the block sizes, the node counts the chunk
    KS = (1, holo._BLOCK - 1, holo._BLOCK, holo._BLOCK + 1, holo._MIN_BLOCKED - 1,
          holo._MIN_BLOCKED, holo._BLOCK ** 2 + 1, 700)
    NS = (0, 1, holo._CHUNK - 1, holo._CHUNK, holo._CHUNK + 1, 4608)

    @staticmethod
    def _case(K, n=4608):
        rng = np.random.default_rng(K)
        c = np.exp(2j * np.pi * rng.random(K)) * (0.5 + rng.random(K))
        x = 1.5 * rng.random(n) * np.exp(2j * np.pi * rng.random(n))
        return c, x

    @pytest.mark.parametrize("K", KS)
    def test_against_mpmath_termwise_sum(self, K):
        c, x = self._case(K)
        chunk = holo._CHUNK
        idx = sorted({0, 1, 2, chunk - 2, chunk - 1, chunk, chunk + 1, 2 * chunk, 4607}
                     | set(np.random.default_rng(0).integers(0, 4608, 12).tolist()))
        with mp.workdps(30):
            ref = {}
            for i in idx:
                s, xk = mp.mpc(0), mp.mpc(1)
                for ck in c:
                    s += mp.mpc(complex(ck)) * xk
                    xk *= complex(x[i])
                ref[i] = complex(s)
        for n in self.NS:
            got = holo._poly_eval(c, x[:n])
            assert got.shape == (n,)
            for i in (i for i in idx if i < n):
                majorant = np.sum(np.abs(c) * np.abs(x[i]) ** np.arange(K))
                assert abs(got[i] - ref[i]) <= 1e-13 * majorant, (n, i)

    @pytest.mark.parametrize("K", [holo._MIN_BLOCKED, 237, 700])
    def test_node_value_independent_of_its_chunk(self, K):
        c, x = self._case(K)
        x = x / 1.5  # inside the disc, where every value is finite
        full = holo._poly_eval(c, x)
        rng = np.random.default_rng(1)
        for n in (3, 100, holo._CHUNK + 5, 3000):
            sub = np.sort(rng.choice(len(x), n, replace=False))
            assert np.array_equal(holo._poly_eval(c, x[sub]), full[sub])
        for i in rng.choice(len(x), 40, replace=False):
            assert np.array_equal(holo._poly_eval(c, x[i:i + 1]), full[i:i + 1])

    def test_short_polynomials_round_as_polyval(self):
        # the Pade numerator and denominator (at most 41 coefficients)
        c, x = self._case(holo._MIN_BLOCKED - 1)
        for K in (1, 9, 41, holo._MIN_BLOCKED - 1):
            assert np.array_equal(holo._poly_eval(c[:K], x), np.polyval(c[:K][::-1], x))

    def test_values_memory_on_the_half_grid(self):
        # the power table of one chunk, not of every node at once: about 0.7 MB
        # here, 2.2 MB with all 4608 nodes in one table
        import tracemalloc

        ev = SeriesEvaluator(CoeffSeq.geometric(1.0, 700))
        zeta, _ = OmegaDomain.quad_nodes(0.0125, 96)
        half = 0.6 * zeta[:len(zeta) // 2]  # |v| up to 0.84: inner nodes, about 240 terms
        assert np.all(np.abs(half * half / ev.unit) <= 0.85)
        ev.values(half)
        tracemalloc.start()
        try:
            ev.values(half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_holo_never_calls_polyval(self, monkeypatch, parity):
        def boom(*a, **k):
            raise AssertionError("np.polyval called")

        monkeypatch.setattr(np, "polyval", boom)
        base = CoeffSeq.sharp_radius(700)
        seq = CoeffSeq(base.log_mag, base.phase, parity)
        for R in (0.5, 0.6, 0.75):  # inner nodes only; Pade nodes; a pole inside
            bergman_norm_estimate(seq, R)
        eval_series(seq, 0.3 + 0.2j, 0.6)


# classes of the parent implementation on a slice of the R-scan battery
# (letters c/d/u = convergent/divergent/undecided at R = 0.5, 0.6, 1.0, 1.1)
PINNED_R = (0.5, 0.6, 1.0, 1.1)
PINNED = {
    "geometric(2.0)": (lambda: CoeffSeq.geometric(2.0, 700), {"even": "uddd", "odd": "cddd"}),
    "geometric(-0.5)": (lambda: CoeffSeq.geometric(-0.5, 700), {"even": "ccud", "odd": "cccd"}),
    "polylog(-0.5)": (lambda: polylog_seq(-0.5, 900), {"even": "ccdd", "odd": "ccdd"}),
    "sharp_radius": (lambda: CoeffSeq.sharp_radius(700), {"even": "ccdd", "odd": "ccdd"}),
}
CLASS_OF = {"c": "convergent", "d": "divergent", "u": "undecided"}


@pytest.mark.parametrize("name, parity, i", [
    (name, parity, i) for name in PINNED for parity in ("even", "odd")
    for i in range(len(PINNED_R))])
def test_pinned_battery_class(name, parity, i):
    make, classes = PINNED[name]
    base = make()
    rep = bergman_norm_estimate(CoeffSeq(base.log_mag, base.phase, parity), PINNED_R[i])
    assert rep.classification == CLASS_OF[classes[parity][i]]
    assert len(rep.margins) == 5


# the R-scan battery: 9 sequences x 2 parities x 11 R
BATTERY = {
    "geometric(1.0)": lambda: CoeffSeq.geometric(1.0, 700),
    "geometric(2.0)": lambda: CoeffSeq.geometric(2.0, 700),
    "geometric(-0.5)": lambda: CoeffSeq.geometric(-0.5, 700),
    "polylog(-0.5)": lambda: polylog_seq(-0.5, 700),
    "polylog(0.5)": lambda: polylog_seq(0.5, 700),
    "polylog(2.0)": lambda: polylog_seq(2.0, 700),
    "sharp_radius": lambda: CoeffSeq.sharp_radius(700),
    "factorial_pair": lambda: CoeffSeq.factorial_pair(700),
    "constant3": lambda: CoeffSeq.from_values([1.0, 1.0, 1.0]),
}
BATTERY_R = (0.05, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.9, 1.0, 1.1)


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("name", list(BATTERY))
def test_scale_class_equals_full_report_class(name, parity):
    base = BATTERY[name]()
    ev = SeriesEvaluator(CoeffSeq(base.log_mag, base.phase, parity))
    for R in BATTERY_R:
        want = holo._classify(ev, R).classification
        got = holo._classify(ev, R, class_only=True)
        assert got.classification == want, R


def s_eps_jets(eps, K=60):
    """The terminal jets log sum_j (j pi)^{2k} e^{-eps j}, k <= K, of
    S_eps(t) = sum_j e^{-eps j - j^2 pi^2 (T - t)} as an even sequence."""
    j = np.arange(1, 4001)
    lt = 2 * np.arange(K + 1)[:, None] * np.log(j * math.pi) - eps * j
    top = lt.max(axis=1)
    lm = top + np.log(np.exp(lt - top[:, None]).sum(axis=1))
    return CoeffSeq(lm, np.ones(K + 1, dtype=complex), "even")


# the terminal family S_eps around its threshold eps = pi (ROADMAP item 19)
S_EPS = (1.5, 2.5, 3.0, math.pi, 3.4, 4.5, 6.0)


@pytest.mark.parametrize("name", list(BATTERY) + ["S_eps"])
def test_derivative_report_implies_the_even_report(name):
    # f' in A^2 of the bounded star-shaped square puts f in A^2, as
    # f(zeta) = f(0) + zeta int_0^1 f'(s zeta) ds: the even report adds nothing
    if name == "S_eps":
        cases = [(s_eps_jets(eps), INV_SQRT2) for eps in S_EPS]
    else:
        base = BATTERY[name]()
        seq = CoeffSeq(base.log_mag, base.phase, "even")
        cases = [(seq, R) for R in BATTERY_R]
    for seq, R in cases:
        even = bergman_norm_estimate(seq, R).classification
        deriv = bergman_norm_estimate(seq.derivative(), R).classification
        assert even != "divergent" or deriv == "divergent", R
        # the former rule joining the two reports
        pair = (even, deriv)
        joined = ("divergent" if "divergent" in pair
                  else "convergent" if pair == ("convergent", "convergent") else "undecided")
        assert joined == deriv, R


# the battery with two sequences whose raw series diverges on the grids: no
# Pade fit (30 terms), and an entire type whose a_1 kills the outer nodes
MASK_SEQS = {**BATTERY,
             "geometric(1.0)[30]": lambda: CoeffSeq.geometric(1.0, 30),
             "dead a_1": lambda: CoeffSeq.from_values([1.0, 1e100 / 0.5, 1.0])}


@pytest.mark.parametrize("parity", ["even", "odd"])
@pytest.mark.parametrize("name", list(MASK_SEQS))
def test_masks_only_path_gives_the_masks_of_values(name, parity):
    # the class-only read takes the masks without the raw sums: they must be
    # the masks of the full evaluation, bit for bit, on every grid it reads
    base = MASK_SEQS[name]()
    ev = SeriesEvaluator(CoeffSeq(base.log_mag, base.phase, parity))
    for n in (64, 96):
        for eps in holo.DEFAULT_MARGINS:
            zeta, _ = OmegaDomain.quad_nodes(eps, n)
            half = zeta[:len(zeta) - len(zeta) // 2]
            for R in BATTERY_R:
                _, unresolved, rawdiv = ev.values(R * half)
                vals, got_unresolved, got_rawdiv = ev._evaluate(R * half, masks_only=True)
                assert vals is None
                assert np.array_equal(got_unresolved, unresolved), (n, eps, R)
                assert np.array_equal(got_rawdiv, rawdiv), (n, eps, R)


class _FineGridDiverges(SeriesEvaluator):
    """An evaluator whose values report raw divergence on the 96-node grid only."""

    def values(self, zeta):
        vals, unresolved, rawdiv = super().values(zeta)
        if len(zeta) == len(holo._node_orbits(96, self.real)[0]):
            rawdiv = np.ones_like(rawdiv)
        return vals, unresolved, rawdiv


@pytest.mark.parametrize("parity, R, want", [
    ("even", 0.5, "convergent"),  # by the decay of the norm increments
    ("odd", 0.8, "divergent"),    # by the slope of the norms
    ("even", 0.75, "divergent"),  # by raw divergence at the third margin
])
def test_class_only_falls_back_to_the_coarse_grid(parity, R, want):
    # 30 terms: no Pade fit and no entire type, so no scale is settled and
    # the class reads the norms; with the 3/2-node grid unresolved, both
    # reads keep the norms of the 64-node grid
    base = CoeffSeq.geometric(1.0, 30)
    ev = _FineGridDiverges(CoeffSeq(base.log_mag, base.phase, parity))
    assert not ev.pade_valid and math.isfinite(ev.log_r)
    full = holo._classify(ev, R)
    got = holo._classify(ev, R, class_only=True)
    assert full.classification == got.classification == want
    assert got.norms == full.norms and all(math.isfinite(v) for v in got.norms)
    assert got.norms == tuple(_margin_norm(ev, R, eps, 64)[0] for eps in got.margins)


@pytest.mark.parametrize("parity, a1, R, first_unresolved", [
    ("even", 1e100 / 0.93, 1.0, 3),
    ("odd", 1e100 / 0.5, 1.05, 4),
    ("even", 1e100 / 0.5, 0.9, 0),
])
def test_scale_class_entire_raw_divergence(parity, a1, R, first_unresolved):
    # three terms: entire-type, no Pade fit; a_1 near 1e100 kills the nodes
    # with |zeta^2| past a threshold, so raw divergence shows first at the
    # given margin and, even after three resolved margins, decides the class
    ev = SeriesEvaluator(CoeffSeq.from_values([1.0, a1, 1.0], parity))
    # entire: under 8 finite terms give no radius estimate, so no Pade fit
    assert ev.log_r == math.inf and not ev.pade_valid
    rep = holo._classify(ev, R)
    assert len(rep.margins) == first_unresolved
    assert rep.classification == "divergent"
    class_only = lambda R: holo._classify(ev, R, class_only=True).classification
    assert class_only(R) == "divergent"
    assert class_only(0.5) == "convergent"


def _full_grid_norm(ev, R, eps, n):
    """_margin_norm by a sum over every node of the grid."""
    zeta, W = OmegaDomain.quad_nodes(eps, n)
    vals, unresolved, rawdiv = ev.values(R * zeta)
    if rawdiv.any():
        return None, "raw-divergence", float(np.mean(rawdiv))
    if unresolved.any():
        return None, "continuation-disagreement", float(np.mean(unresolved))
    return float(np.sum(W * np.abs(vals) ** 2)), "", 0.0


def _barely_complex(N=700):
    """geometric(1.0, N) with a 1e-300j part on one coefficient."""
    base = CoeffSeq.geometric(1.0, N)
    phase = base.phase.copy()
    phase[5] += 1e-300j
    return CoeffSeq(base.log_mag, phase)


class TestMarginNorm:
    # (sequence, R, kind of nodes, real coefficients): Horner inside 0.85 r
    # only; Pade nodes beyond it; no Pade fit (30 terms) and the raw series
    # diverging outside
    CASES = [
        (lambda: CoeffSeq.geometric(1.0, 700), 0.5, "inner", True),
        (lambda: CoeffSeq.geometric(1.0, 700), 1.0, "pade", True),
        (lambda: CoeffSeq.sharp_radius(700), 0.6, "pade", False),
        (lambda: CoeffSeq.geometric(1.0, 30), 1.0, "raw-divergent", True),
        (lambda: CoeffSeq.factorial_pair(1000), INV_SQRT2, "pade", True),
        (_barely_complex, 1.0, "pade", False),
    ]
    # points per margin that reach the evaluator: one per orbit of the grid
    POINTS = {True: {64: 1056, 96: 2352, 33: 289}, False: {64: 2048, 96: 4608, 33: 545}}

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_half_grid_equals_full_grid_sum(self, monkeypatch, case, parity):
        make, R, kind, real = self.CASES[case]
        base = make()
        ev = SeriesEvaluator(CoeffSeq(base.log_mag, base.phase, parity))
        assert ev.real == real
        points = []
        evaluate = ev._evaluate
        monkeypatch.setattr(ev, "_evaluate", lambda z, masks_only:
                            points.append(len(z)) or evaluate(z, masks_only))
        for eps in (0.05, 0.0125):
            for n in (64, 96, 33):  # 33: an odd grid with a centre node
                zeta, _ = OmegaDomain.quad_nodes(eps, n)
                outer = np.abs((R * zeta) ** 2 / ev.unit) > 0.85
                assert outer.any() == (kind != "inner")
                assert ev.pade_valid == (kind != "raw-divergent")
                points.clear()
                got = _margin_norm(ev, R, eps, n)
                assert points == [self.POINTS[real][n]]
                assert (got[1] == "raw-divergence") == (kind == "raw-divergent")
                assert got == _full_grid_norm(ev, R, eps, n)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("case", [0, 1, 4])
    def test_real_series_values_at_conj_are_conj(self, case, parity):
        # what the orbit {+-zeta, +-conj(zeta)} rests on: with real
        # coefficients every step of the raw sum (the matrix product among
        # them) and of the Pade quotient maps conj inputs to exactly conj outputs
        make, R, kind, _ = self.CASES[case]
        base = make()
        ev = SeriesEvaluator(CoeffSeq(base.log_mag, base.phase, parity))
        assert ev.real
        rng = np.random.default_rng(case)
        z = R * np.concatenate([OmegaDomain.quad_nodes(0.0125, 96)[0],
                                rng.uniform(-0.5, 0.5, 300) + 1j * rng.uniform(-0.5, 0.5, 300)])
        vals, unresolved, rawdiv = ev.values(z)
        assert np.all(np.isfinite(vals)) and not unresolved.any() and not rawdiv.any()
        assert (np.abs(z * z / ev.unit) > 0.85).any() == (kind == "pade")
        got = ev.values(np.conj(z))
        assert np.array_equal(got[0], np.conj(vals))
        assert np.array_equal(got[1], unresolved) and np.array_equal(got[2], rawdiv)

    def test_coefficient_terms_set_up_once_per_evaluator(self, monkeypatch):
        calls = []
        raw_terms = holo._raw_terms
        monkeypatch.setattr(holo, "_raw_terms", lambda *a: calls.append(a) or raw_terms(*a))
        ev = SeriesEvaluator(CoeffSeq.sharp_radius(700))
        assert len(calls) == 1 and ev.pade_valid
        for R in (0.3, 0.6, 0.68):
            holo._classify(ev, R)
        assert len(calls) == 1


class TestBergmanNormEstimate:
    def test_constant_area(self):
        rep = bergman_norm_estimate(CoeffSeq.from_values([1.0]), 1.0)
        assert rep.classification == "convergent"
        for eps, val in zip(rep.margins, rep.norms):
            assert abs(val - 2.0 * (1 - eps) ** 2) < 1e-10

    def test_geometric_convergent_with_quadrature_oracle(self):
        # independent oracle: adaptive 2-D quadrature of the closed form
        R = 0.5
        rep = bergman_norm_estimate(CoeffSeq.geometric(1.0, 500), R)
        assert rep.classification == "convergent"
        eps = rep.margins[-1]
        half = (1 - eps) / math.sqrt(2.0)

        def f2(v, u):
            zeta = ((u - v) + 1j * (u + v)) / math.sqrt(2.0)
            return abs(1.0 / (1.0 - 2.0 * R * R * zeta * zeta)) ** 2

        want, _ = dblquad(f2, -half, half, -half, half, epsabs=1e-10, epsrel=1e-10)
        assert abs(rep.norms[-1] - want) < 1e-8 * want

    def test_li_minus_half_divergent_by_slope(self):
        rep = bergman_norm_estimate(polylog_seq(-0.5, 3000), INV_SQRT2)
        assert rep.classification == "divergent"
        # blow-up like integral of |1-zeta|^{-3}: norms ~ 1/eps, slope ~ 1
        assert 0.7 < rep.slope < 1.3

    def test_sharp_radius_through_continuation(self):
        rep = bergman_norm_estimate(CoeffSeq.sharp_radius(700), 0.65)
        assert rep.classification == "convergent"
        rep = bergman_norm_estimate(CoeffSeq.sharp_radius(700), 0.75)
        assert rep.classification == "divergent"

    def test_norms_monotone_in_margin_and_scale(self):
        seq = CoeffSeq.geometric(1.0, 500)
        rep = bergman_norm_estimate(seq, 0.5)
        assert np.all(np.diff(rep.norms) > 0)  # smaller eps = larger domain
        n_small = bergman_norm_estimate(seq, 0.4).norms[-1]
        n_big = bergman_norm_estimate(seq, 0.6).norms[-1]
        assert n_small < n_big

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_scale_validation(self, R):
        with pytest.raises(ValueError, match="R_scale must be finite and > 0"):
            bergman_norm_estimate(CoeffSeq.geometric(1.0, 100), R)


class TestRadiusRa:
    def test_zero_sequence_unbounded(self):
        assert radius_Ra(CoeffSeq.from_values([0.0, 0.0]), 0.01) == "unbounded"

    def test_tol_validated(self):
        with pytest.raises(ValueError):
            radius_Ra(CoeffSeq.geometric(1.0, 100), 1e-5)

    def test_geometric_brackets_inv_sqrt2(self):
        lo, hi = radius_Ra(CoeffSeq.geometric(1.0, 700), tol=0.01)
        assert INV_SQRT2 - 0.02 <= lo <= hi <= INV_SQRT2 + 0.02

    def test_sharp_radius_brackets_inv_sqrt2(self):
        lo, hi = radius_Ra(CoeffSeq.sharp_radius(700), tol=0.01)
        assert INV_SQRT2 - 0.02 <= lo <= hi <= INV_SQRT2 + 0.02

    def test_one_evaluator_and_one_classification_per_scale(self, monkeypatch):
        from heatflat import holo

        builds, scales = [], []
        make, classify = holo.SeriesEvaluator, holo._classify
        monkeypatch.setattr(holo, "SeriesEvaluator",
                            lambda *a: builds.append(a) or make(*a))
        monkeypatch.setattr(holo, "_classify",
                            lambda ev, R, *a, **k: scales.append(R) or classify(ev, R, *a, **k))
        lo, hi = radius_Ra(CoeffSeq.geometric(1.0, 300), tol=0.02)
        assert INV_SQRT2 - 0.02 <= lo <= hi <= INV_SQRT2 + 0.02
        assert len(builds) == 1
        assert len(scales) == len(set(scales)) > 5

    @pytest.mark.parametrize("make", [lambda: CoeffSeq.geometric(1.0, 700),
                                      lambda: CoeffSeq.sharp_radius(700)])
    def test_raw_sums_per_bracket(self, monkeypatch, make):
        # the Pade validation ring plus 2 unsettled scales x 5 margins at
        # 3/2 nodes: settled scales and the 64-node grid read masks only
        calls = []
        raw_sum = holo._raw_sum
        monkeypatch.setattr(holo, "_raw_sum", lambda *a: calls.append(a) or raw_sum(*a))
        assert radius_Ra(make(), tol=0.01) == pytest.approx((0.703125, 0.7125), abs=1e-12)
        assert len(calls) == 11

    def test_bracket_classifications_consistent(self):
        seq = CoeffSeq.geometric(1.0, 700)
        lo, hi = radius_Ra(seq, tol=0.01)
        assert bergman_norm_estimate(seq, lo).classification == "convergent"
        assert bergman_norm_estimate(seq, hi).classification == "divergent"

    def test_cube_strength_singularity_brackets(self):
        # |f|^2 ~ |1-w|^{-3}: norms climb hard even with the branch point
        # outside the square; the certified-outside rule must keep the
        # membership verdict until the singularity actually reaches the
        # boundary (regression: the slope rule used to fire ~5% early)
        lo, hi = radius_Ra(polylog_seq(-0.5, 900), tol=0.01)
        assert INV_SQRT2 - 0.02 <= lo <= hi <= INV_SQRT2 + 0.02


class TestCounterexample:
    def test_small_n_integer_cross_check(self):
        import math as m

        seq = CoeffSeq.factorial_pair(20)
        for n in range(0, 16):
            b = 1 if n == 0 else m.factorial(n - 1) * m.factorial(n)
            want = m.log(4.0**n * b)
            assert abs(seq.log_mag[n] - want) <= 1e-12 * max(1.0, abs(want))

    def test_report(self):
        rep = interpolation_counterexample(1000)
        assert -1.6 <= rep.residual_exponent <= -1.4
        assert rep.trackability_class == "divergent"
        assert rep.trackability_slope > 0.5
        assert math.isfinite(rep.growth_sup)
        # growth ratio tends to sqrt(pi) from the sharper Stirling estimate
        assert abs(rep.growth_tail - math.sqrt(math.pi)) < 0.01

    def test_trackability_is_the_terminal_derivative_report(self):
        # the counterexample and the finite-horizon terminal test run one derivative test
        from heatflat.flatness import terminal_state_report

        rep = interpolation_counterexample(1000)
        terminal = terminal_state_report(CoeffSeq.factorial_pair(1000))
        assert rep.trackability_class == terminal.classification
        assert rep.trackability_slope.hex() == terminal.slope.hex()

    def test_fn_class_is_the_full_report_class(self):
        full = bergman_norm_estimate(CoeffSeq.factorial_pair(1000), INV_SQRT2)
        assert interpolation_counterexample(1000).fn_class == full.classification == "undecided"

    def test_N_validation(self):
        with pytest.raises(ValueError):
            interpolation_counterexample(50)


class TestBorelRangeTest:
    """The Bergman estimate on Borel sequences: as given, shifted and odd."""

    def test_delta_sequence_convergent(self):
        rep = bergman_norm_estimate(CoeffSeq.from_values([1.0, 0, 0, 0]), INV_SQRT2)
        assert rep.classification == "convergent"

    def test_factorial_pair_shift_still_divergent(self):
        d = CoeffSeq.factorial_pair(1500).derivative()
        rep = bergman_norm_estimate(CoeffSeq(d.log_mag, d.phase, "even"), INV_SQRT2)
        # shifting changes only (1+n)-power prefactors, not the (2k)! growth;
        # shifted by one the even series gains a factor ~ 4k per term: still divergent
        assert rep.classification == "divergent"

    def test_odd_parity_geometric_analogue(self):
        # a_k = (2k+1)!: odd series is sqrt2 R zeta/(1 - 2 R^2 zeta^2)
        from scipy.special import gammaln

        k = np.arange(400)
        seq = CoeffSeq(gammaln(2 * k + 2), np.ones(400, dtype=complex), "odd")
        rep_c = bergman_norm_estimate(seq, 0.5)
        assert rep_c.classification == "convergent"
        rep_d = bergman_norm_estimate(seq, 0.75)
        assert rep_d.classification == "divergent"
        r = eval_series(seq, 0.4 + 0.2j, 0.5)
        zeta = 0.4 + 0.2j
        want = math.sqrt(2) * 0.5 * zeta / (1 - 2 * 0.25 * zeta * zeta)
        assert abs(r.value - want) < 1e-12 * abs(want)


class TestLossFactors:
    def test_s2_row(self):
        row = loss_factors([2.0])[0]
        assert row["rho_s"] == pytest.approx(INV_SQRT2, abs=1e-15)
        assert row["rho_mrr"] == pytest.approx(math.exp(-1.0 / (2 * math.e)), abs=1e-15)
        assert round(row["rho_mrr"], 3) == 0.832
        assert row["sign"] == 1
        assert row["Gamma_s"] == pytest.approx(2.0, abs=1e-12)

    def test_signs_and_crossover(self):
        rows = loss_factors([1.2, 1.8, 2.5, 2.9, 4.5, 6.0, 10.0])
        for r in rows:
            if r["s"] < 3.0:
                assert r["sign"] > 0
            if r["s"] > 4.0:
                assert r["sign"] < 0
        c = loss_crossover()
        assert 3.0 < c < 4.0
        f = math.exp(-1.0 / (math.e * c)) - math.cos(math.pi / (2 * c))
        assert abs(f) < 1e-9

    def test_crossover_agrees_with_brentq(self):
        f = lambda s: math.exp(-1.0 / (math.e * s)) - math.cos(math.pi / (2.0 * s))
        assert abs(loss_crossover() - brentq(f, 3.0, 4.0, xtol=1e-10)) <= 1e-10

    def test_holo_does_not_import_scipy_optimize(self):
        src = os.path.dirname(os.path.dirname(heatflat.__file__))
        code = "import sys, heatflat.holo; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.strip() == "False"

    def test_rho_increasing_to_1_gamma_above_1(self):
        s = np.linspace(1.01, 400.0, 300)
        rho = np.cos(np.pi / (2 * s))
        assert np.all(np.diff(rho) > 0)
        assert rho[-1] < 1.0
        rows = loss_factors(list(s[:50]))
        assert all(r["Gamma_s"] > 1.0 for r in rows)
        # bridging identity rho_s = Gamma_s^{-1/s}
        for r in rows:
            assert r["rho_s"] == pytest.approx(r["Gamma_s"] ** (-1.0 / r["s"]), rel=1e-12)

    @pytest.mark.parametrize("s", [1e16, 1e308, sys.float_info.max])
    def test_sign_where_both_factors_round_to_1(self, s):
        # rho_mrr < rho_s for every s > 4; from s ~ 1e16 on both factors read 1.0
        row = loss_factors([s])[0]
        assert row["rho_s"] == row["rho_mrr"] == 1.0
        assert row["sign"] == -1

    def test_sign_against_mpmath(self):
        # the sign of exp(-1/(e s)) - cos(pi/(2 s)), at enough digits to resolve both from 1
        c = loss_crossover()
        for s in np.geomspace(1.001, 1e300, 120):
            if abs(s - c) < 1e-6:
                continue
            with mp.workdps(int(2 * math.log10(s)) + 30):
                want = mp.sign(mp.exp(-1 / (mp.e * s)) - mp.cos(mp.pi / (2 * s)))
            assert loss_factors([float(s)])[0]["sign"] == int(want), s

    def test_domain(self):
        with pytest.raises(ValueError):
            loss_factors([1.0])
