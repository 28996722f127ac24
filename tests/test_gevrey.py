import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from heatflat import cli, flatness, gevrey
from heatflat.gevrey import (
    DecayFit,
    GevreyParams,
    Signal,
    _log_l2_norm,
    _log_Mn,
    _one_sided_bump,
    bump_gevrey,
    fourier_decay_fit,
    gaussian_signal,
    gevrey_cutoff,
    gevrey_norm_time,
    nominal_order,
    product_signal,
    two_sided_bump,
    weighted_fourier_norm,
)
from heatflat.heatsim import SimConfig

P2 = GevreyParams(2.0, 0.5, 0.0)


class TestWeightMn:
    def test_M0_unit(self):
        assert abs(math.exp(_log_Mn(GevreyParams(2, 1, 0), np.array([0.0]))[0]) - 1.0) < 1e-15

    def test_M1_highprec_oracle(self):
        # (s=2, R=1, gamma=0, n=1): 2! * 2^(-1/4)
        with mp.workdps(40):
            want = float(mp.gamma(3) * mp.mpf(2) ** mp.mpf("-0.25"))
        got = math.exp(_log_Mn(GevreyParams(2, 1, 0), np.array([1.0]))[0])
        assert abs(got - want) < 1e-14
        assert abs(got - 1.6817928305074290) < 1e-12

    def test_index_bridge(self):
        # M_k at (2, 1/sqrt2, -1/2) equals (2k)! 2^k (1+k)^{3/4} exactly
        p = GevreyParams(2.0, 1.0 / math.sqrt(2.0), -0.5)
        logM = _log_Mn(p, np.arange(51, dtype=float))
        for k in range(0, 51):
            rhs = gammaln(2 * k + 1) + k * math.log(2.0) + 0.75 * math.log1p(k)
            assert abs(logM[k] - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_log_convexity_gamma0(self):
        logM = _log_Mn(GevreyParams(2.0, 1.0, 0.0), np.arange(103, dtype=float))
        for n in range(2, 101):
            assert logM[n + 1] + logM[n - 1] >= 2 * logM[n] - 1e-9


class TestSignal:
    def test_uniform_grid_required(self):
        g = np.array([0.0, 0.1, 0.3])
        with pytest.raises(ValueError):
            Signal(g, np.zeros(3))

    def test_fine_time_grid_accepted(self):
        # dt=1e-4 spacings deviate by ~1e-12 relative to dt, but only by an
        # ulp or so of the grid values
        grid = SimConfig(dt=1e-4).time_grid()
        Signal(grid, np.zeros_like(grid))
        moved = grid.copy()
        moved[5000] += 1e-6 * 1e-4
        with pytest.raises(ValueError):
            Signal(moved, np.zeros_like(moved))

    @pytest.mark.filterwarnings("error")
    def test_deriv_consistency_checked(self):
        g = np.linspace(0, 1, 11)
        for fill in (1.0, math.nan):  # NaN compares as neither near nor far
            with pytest.raises(ValueError, match="disagrees with sampled values"):
                Signal(g, np.zeros(11), derivs=lambda N, t: np.full((N + 1, len(t)), fill))

    def test_values_default_to_row_zero(self):
        g = np.linspace(0, 1, 11)
        calls = []
        sig = Signal(g, derivs=lambda N, t: calls.append(N) or np.ones((N + 1, len(t))) * t)
        assert calls == [0] and np.array_equal(sig.values, g)
        with pytest.raises(ValueError, match="values or a derivative provider"):
            Signal(g)

    def test_sum_signal(self):
        a = gaussian_signal(0.0, 1.0, grid=np.linspace(-10, 10, 513))
        b = gaussian_signal(1.0, 0.8, grid=np.linspace(-10, 10, 513))
        s = a + b
        t = np.array([0.3, 1.2])
        assert np.allclose(s.deriv(2, t), a.deriv(2, t) + b.deriv(2, t), rtol=1e-13)


def _families():
    grid = np.linspace(-6.0, 6.0, 1025)
    g = gaussian_signal(0.3, 0.9, grid=grid)
    b = two_sided_bump(0.5, 2.0, 1.5, grid=grid)
    chi = gevrey_cutoff(1.0, 3.0, 1.5, grid=grid)
    return {"gaussian": g, "one_sided_bump": bump_gevrey(1.5, t_scale=0.4, grid=grid),
            "two_sided_bump": b, "cutoff": chi, "sum": g + b, "product": product_signal(chi, g)}


def test_nominal_order_of_each_family():
    fam = _families()
    got = {k: nominal_order(sig.descriptor()) for k, sig in fam.items()}
    assert got == {"gaussian": 0.5, "one_sided_bump": 1.0 + 1.0 / 1.5,
                   "two_sided_bump": 1.0 + 1.0 / 1.5, "cutoff": 1.5,
                   "sum": 1.0 + 1.0 / 1.5, "product": 1.5}
    raw = Signal(fam["gaussian"].grid, fam["gaussian"].values)
    assert nominal_order(raw.descriptor()) is None
    assert nominal_order((raw + fam["gaussian"]).descriptor()) is None


def _fresh_node_ladder(f, a, b, log_w=0.0, rtol=1e-8, m0=513, mmax=32769):
    """The quadrature before nesting: a whole new table at every level, summed
    row by row by the trapezoid rule with the end weights (17, 59, 43, 49)/48,
    and settled when the log of the weighted total moves by less than rtol."""
    prev = math.nan
    m = m0
    while True:
        t = np.linspace(a, b, m)
        rows = np.asarray(f(t))
        shape, rows = rows.shape[:-1], rows.reshape(-1, m)
        w = np.ones(m, dtype=np.longdouble)
        w[:4] = np.array([17.0, 59.0, 43.0, 49.0], dtype=np.longdouble) / 48.0
        w[-4:] = w[3::-1]
        h = (b - a) / (m - 1)
        log_norms = np.full(len(rows), -math.inf)
        for i, row in enumerate(rows):
            v = row.astype(np.longdouble)
            mx = np.max(np.abs(v))
            if mx != 0.0:
                integral = float(np.log(np.sum(w * (v / mx) ** 2)) + np.log(h))
                log_norms[i] = float(np.log(mx)) + 0.5 * integral
        x = 2.0 * (log_norms - np.ravel(log_w))
        if not np.all(x < math.inf):  # an inf or NaN row
            return log_norms.reshape(shape), False
        if np.all(x == -math.inf):
            return log_norms.reshape(shape), True
        total = math.log(math.fsum(np.exp(x - np.max(x)))) + np.max(x)
        if abs(total - prev) < rtol:
            return log_norms.reshape(shape), True
        if 2 * m - 1 > mmax:
            return log_norms.reshape(shape), False
        prev, m = total, 2 * m - 1


class TestNestedLadder:
    """The nested ladder of _log_l2_norm against the fresh-node ladder."""

    @staticmethod
    def _check(f, a, b, **kw):
        seen = []
        got = _log_l2_norm(lambda t: seen.append(t) or f(t), a, b, **kw)
        want = _fresh_node_ladder(f, a, b, **kw)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        # every node of the last level exactly once
        m = (kw.get("m0", 513) - 1) * 2 ** (len(seen) - 1) + 1
        nodes = np.concatenate(seen)
        assert len(nodes) == m
        assert np.array_equal(np.sort(nodes), np.linspace(a, b, m))
        return got

    @pytest.mark.parametrize("k", range(8))
    def test_plancherel_ratio_family(self, k):
        # weighted by M_n, as gevrey_norm_time weighs them
        sig = cli._ratio_family()[k]
        log_w = _log_Mn(P2, np.arange(9.0))
        self._check(lambda t: sig.derivs(8, t), sig.t0, sig.t1, log_w=log_w)

    def test_one_sided_bump(self):
        sig = bump_gevrey(1.5, 0.2)
        log_norms, ok = self._check(lambda t: sig.derivs(17, t), sig.t0, sig.t1)
        assert ok and log_norms.shape == (18,)

    def test_vanishing_row(self):
        sig = gaussian_signal(0.0, 1.0)
        log_norms, ok = self._check(
            lambda t: np.vstack([sig.derivs(3, t), np.zeros_like(t)]), sig.t0, sig.t1)
        assert ok and log_norms[-1] == -math.inf and np.all(np.isfinite(log_norms[:-1]))

    def test_single_row(self):
        sig = gaussian_signal(0.0, 1.0)
        log_norm, ok = self._check(lambda t: sig.deriv(2, t), sig.t0, sig.t1)
        assert ok and np.ndim(log_norm) == 0

    def test_unconverged_at_mmax(self):
        # a jump at an irrational point: the rule converges only like 1/m
        f = lambda t: np.vstack([np.where(t < 1.0 / math.sqrt(2.0), 1.0, 2.0), np.cos(t)])
        log_norms, ok = self._check(f, 0.0, 2.0, m0=9, mmax=4097)
        assert not ok and np.all(np.isfinite(log_norms))

    @pytest.mark.parametrize("m", [8, 9])
    def test_cubics_integrated_exactly(self, m):
        # f^2 a positive cubic: one level of m nodes, not settled, returns its sum
        cubic = lambda t: 1.0 + 0.3 * t - 0.2 * t**2 + 0.05 * t**3
        antiderivative = lambda t: t + 0.15 * t**2 - 0.2 / 3.0 * t**3 + 0.0125 * t**4
        log_norm, ok = _log_l2_norm(lambda t: np.sqrt(cubic(t)), 0.3, 1.7, m0=m, mmax=m)
        want = antiderivative(1.7) - antiderivative(0.3)
        assert not ok and abs(math.exp(2.0 * log_norm) - want) <= 1e-15 * want

    def test_end_patches_must_not_overlap(self):
        with pytest.raises(ValueError, match="needs m0 >= 8 nodes, got 7"):
            _log_l2_norm(np.cos, 0.0, 1.0, m0=7)

    @pytest.mark.parametrize("k, nodes", [(3, 1025), (7, 1025)])
    def test_flat_integrands_settle_one_halving_before_simpson(self, k, nodes):
        # the norms round of perfbench (N = 8); settled row by row, the
        # trapezoid rule needed 4097 and 8193 nodes and Simpson 8193 and 16385
        sig = cli._ratio_family()[k]
        seen = []
        counted = Signal(sig.grid, sig.values,
                         derivs=lambda N, t: seen.append(len(t)) or sig.derivs(N, t))
        seen.clear()
        res = gevrey_norm_time(counted, GevreyParams(2.0, 0.5, 0.0), 8)
        assert res.quadrature_ok and sum(seen) == nodes

    @pytest.mark.parametrize("m0", [513, 9])
    def test_linspace_nesting(self, m0):
        # the even nodes of each level are the previous level's nodes, bit for bit
        sigs = cli._ratio_family() + [bump_gevrey(1.5, 0.2), *_families().values()]
        ends = {(s.t0, s.t1) for s in sigs} | {(0.0, 2.0), (-0.1, 0.8), (-0.5 * 0.3, 4.0 * 0.3)}
        for a, b in ends:
            m = m0
            while 2 * m - 1 <= 32769:
                assert np.array_equal(np.linspace(a, b, 2 * m - 1)[::2], np.linspace(a, b, m))
                m = 2 * m - 1


class TestDerivativeTable:
    @pytest.mark.parametrize("family", ["gaussian", "one_sided_bump", "two_sided_bump",
                                        "cutoff", "sum", "product", "yprime"])
    def test_providers_are_pointwise(self, family, monkeypatch):
        fams = _families()
        held = []  # the y' signal that check_trackable_infinite builds
        monkeypatch.setattr(flatness, "gevrey_norm_time", lambda sig, p, N: held.append(sig))
        flatness.check_trackable_infinite(fams["one_sided_bump"], 1)
        sig = held[0] if family == "yprime" else fams[family]
        for m in (513, 1025):
            t = np.linspace(sig.t0, sig.t1, m)
            assert np.array_equal(sig.derivs(12, t)[:, ::2], sig.derivs(12, t[::2]))
            assert np.array_equal(sig.derivs(12, t)[:, 1::2], sig.derivs(12, t[1::2]))

    @pytest.mark.parametrize("family", ["gaussian", "one_sided_bump", "two_sided_bump",
                                        "cutoff", "sum", "product"])
    def test_rows_do_not_depend_on_table_size(self, family):
        sig = _families()[family]
        t = np.concatenate([sig.grid[::7], [-1.5, 0.0, 1.0, 2.5, 3.0]])
        N = 14
        tab = sig.derivs(N, t)
        assert tab.shape == (N + 1, len(t))
        for n in range(N + 1):
            row = sig.derivs(n, t)[n]
            assert np.array_equal(tab[n], row) and np.array_equal(sig.deriv(n, t), row)

    @staticmethod
    def _mp_bump_rows(g, t, N):
        with mp.workdps(80):
            return np.array([float(w) for w in mp.diffs(lambda x: mp.exp(-x ** (-g)),
                                                        mp.mpf(float(t)), N)])

    def test_bump_rows_against_mpmath(self):
        # 1.3e-16 relative at worst (n <= 30)
        for g in (1.0, 1.5):
            ts = np.array([0.3, 0.7, 1.5])
            tab = bump_gevrey(g).derivs(30, ts)
            for i, t in enumerate(ts):
                want = self._mp_bump_rows(g, t, 30)
                assert np.all(np.abs(tab[:, i] - want) <= 1e-14 * np.abs(want))

    def test_bump_rows_against_mpmath_small_t(self):
        # large u = t^-g: 1.0e-15 relative at worst (n <= 25)
        ts = np.array([0.1, 0.135, 0.185, 0.3])
        tab = bump_gevrey(1.5).derivs(25, ts)
        for i, t in enumerate(ts):
            want = self._mp_bump_rows(1.5, t, 25)
            assert np.all(np.abs(tab[:, i] - want) <= 1e-14 * np.abs(want))

    @staticmethod
    def _mp_series_rows(g, t, N):
        # f^(n)(t) = n! c_n, c_n the Taylor coefficients in h of exp(-(t + h)^-g):
        # the binomial series of the exponent, then the recurrence of its exp
        with mp.workdps(100):
            t, g = mp.mpf(float(t)), mp.mpf(g)
            a = [-t ** (-g) * mp.binomial(-g, k) * t ** (-k) for k in range(N + 1)]
            c = [mp.exp(a[0])]
            for k in range(1, N + 1):
                c.append(mp.fsum(j * a[j] * c[k - j] for j in range(1, k + 1)) / k)
            return np.array([float(mp.factorial(n) * c[n]) for n in range(N + 1)])

    def test_series_oracle_matches_mpmath_diffs(self):
        for g, t, N in ((1.5, 0.3, 30), (1.0, 0.7, 30), (1.5, 0.1, 25)):
            assert np.array_equal(self._mp_series_rows(g, t, N), self._mp_bump_rows(g, t, N))

    @pytest.mark.parametrize("g", [1.0, 1.5, 2.0])
    def test_high_bump_rows_against_mpmath(self, g):
        # rows up to 50 where u = t^-g reaches 400: 6.6e-16 relative at worst
        ts = np.array([0.05, 0.08, 0.1, 0.15, 0.3])
        tab = bump_gevrey(g).derivs(50, ts)
        for i, t in enumerate(ts):
            want = self._mp_series_rows(g, t, 50)
            assert np.all(np.abs(tab[:, i] - want) <= 1e-13 * np.abs(want))

    def test_two_sided_bump_rows_against_mpmath(self):
        # one recurrence on the summed exponent, near both ends and inside
        ts = np.array([-2.9, -2.5, -1.0, 0.3, 2.5, 2.9])
        tab = two_sided_bump(0.0, 3.0, 1.5).derivs(30, ts)
        for i, t in enumerate(ts):
            with mp.workdps(100):
                peak = mp.exp(-2 * mp.mpf(3) ** -1.5)
                want = np.array([float(w) for w in mp.diffs(
                    lambda x: mp.exp(-(x + 3) ** -1.5 - (3 - x) ** -1.5) / peak,
                    mp.mpf(float(t)), 30)])
            assert np.count_nonzero(want) == 31
            assert np.all(np.abs(tab[:, i] - want) <= 1e-13 * np.abs(want))

    def test_bump_rows_scaled_by_one_exp_per_point(self):
        # row n's scale n! e^-u / rho^n is row n-1's times n/rho, one exp per
        # point, over the track grid's small t: 4.1e-16 relative at worst
        # wherever a row is a normal float
        for g, N, ts in ((1.5, 25, np.arange(1, 5001, 50) * 2e-4 / 0.2),
                         (1.0, 30, [0.3, 0.7, 1.5])):
            tab = _one_sided_bump(g, N, ts)
            ref = np.array([self._mp_series_rows(g, t, N) for t in ts]).T
            normal = np.abs(ref) >= np.finfo(float).smallest_normal
            assert np.all(np.abs(tab - ref)[normal] <= 1e-15 * np.abs(ref[normal]))
            assert np.all(np.abs(tab - ref)[~normal] <= np.finfo(float).smallest_normal * 1e-15)

    def test_bump_rows_where_exp_of_minus_u_is_subnormal(self):
        # e^-u leaves the normal long double range at u = 11355.5 and is 0 from
        # u = 11399.5; at g = 0.05 and N = 60 the top rows are in float range
        # there, and those points take the per-row exp
        g, N = 0.05, 60
        us = np.array([11300.0, 11370.0, 11390.0, 11420.0])  # e^-u normal, subnormal x2, 0
        ts = us ** (-1 / g)
        tab = _one_sided_bump(g, N, ts)
        for i, t in enumerate(ts):
            want = self._mp_series_rows(g, t, N)
            assert np.count_nonzero(want) >= 5
            assert np.all(np.abs(tab[:, i] - want) <= 1e-13 * np.abs(want))

    def test_bump_rows_vanish_where_they_underflow(self):
        # f^(n)(t) = exp(-t^-g) * (...) is far below the float64 range here
        ts = np.array([1e-300, 1e-200, 1e-80, 1e-20])
        for sig in (bump_gevrey(1.5), bump_gevrey(1.5, t_scale=0.2)):
            tab = sig.derivs(30, ts)
            assert np.array_equal(tab, np.zeros_like(tab))

    def test_one_table_per_quadrature_level(self):
        sig = two_sided_bump(0.0, 3.0, 1.5)
        orders = []
        counted = Signal(sig.grid, sig.values,
                         derivs=lambda N, t: orders.append(N) or sig.derivs(N, t))
        orders.clear()
        r = gevrey_norm_time(counted, P2, 16)
        assert 1 <= len(orders) <= 7 and set(orders) == {16}
        assert np.array_equal(r.increments, gevrey_norm_time(sig, P2, 16).increments)


class TestGevreyNormTime:
    @staticmethod
    def _quadpack_sq_norm(sig, n, a, b):
        # ||sig^(n)||^2 on [a, b] by adaptive Gauss-Kronrod on the same table rows
        return quad(lambda t: sig.derivs(n, np.array([t]))[n, 0] ** 2, a, b,
                    epsabs=0.0, epsrel=2e-14, limit=400)[0]

    def test_bump_increments_against_quadpack(self):
        sig = two_sided_bump(0.0, 3.0, 1.5)
        incs = gevrey_norm_time(sig, P2, 8).increments
        logM = _log_Mn(P2, np.arange(4.0))
        for n in range(4):
            want = self._quadpack_sq_norm(sig, n, -3.0, 3.0) * math.exp(-2.0 * logM[n])
            assert abs(incs[n] - want) <= 1e-12 * want

    def test_one_sided_yprime_increments_against_quadpack(self):
        # y' of the track target is not flat at t1: the end weights keep the
        # error near 1e-14, where the plain trapezoid rule is 1.6e-9 off
        y = bump_gevrey(1.5, t_scale=0.2)
        incs = flatness.check_trackable_infinite(y, 16).increments
        for k in range(4):
            log_w = gammaln(2 * k + 1) + k * math.log(2.0) + 0.75 * math.log1p(k)
            want = self._quadpack_sq_norm(y, k + 1, 0.0, y.t1) * math.exp(-2.0 * log_w)
            assert abs(incs[k] - want) <= 1e-12 * want

    @pytest.mark.filterwarnings("error")
    def test_overflowed_increment_gives_non_finite_total(self):
        # row 2 is 1e300 e^{-t^2}: finite, but its increment is past float64,
        # which a cap on the exponent once read as a finite 1e304
        scale = lambda N: 10.0 ** (150.0 * np.arange(N + 1))[:, None]
        sig = Signal(np.linspace(-8.0, 8.0, 257), None,
                     derivs=lambda N, t: np.exp(-t**2) * scale(N))
        r = gevrey_norm_time(sig, P2, 2)
        assert np.all(np.isfinite(r.increments[:2])) and r.increments[2] == math.inf
        assert r.total == math.inf and r.quadrature_ok and not r.converged

    def test_zero_signal(self):
        g = np.linspace(0, 1, 65)
        z = Signal(g, np.zeros(65), derivs=lambda N, t: np.zeros((N + 1, len(t))))
        r = gevrey_norm_time(z, P2, 8)
        assert r.total == 0.0 and r.converged

    def test_gaussian_l2_norms_analytic(self):
        # || d^n/dt^n e^{-t^2/2} ||_{L2}^2 = Gamma(n + 1/2) via Plancherel
        sig = gaussian_signal(0.0, 1.0)
        from heatflat.gevrey import _log_l2_norm

        for n in range(0, 11):
            log_norm, ok = _log_l2_norm(lambda t, n=n: sig.deriv(n, t), sig.t0, sig.t1)
            assert ok
            want = 0.5 * math.lgamma(n + 0.5)
            assert abs(log_norm - want) < 1e-8 * max(1.0, abs(want))

    def test_gaussian_converges(self):
        r = gevrey_norm_time(gaussian_signal(0.0, 1.0), P2, 16)
        assert r.converged
        assert np.all(np.diff(r.partial_sums) >= 0)

    def test_requires_derivatives(self):
        g = np.linspace(0, 1, 65)
        with pytest.raises(ValueError):
            gevrey_norm_time(Signal(g, np.zeros(65)), P2, 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_dilation_jacobian(self, seed):
        # psi(t) = phi(R^s t): ||psi||_(s,1,gamma) = R^{-s/2} ||phi||_(s,R,gamma)
        rng = np.random.default_rng(seed)
        s, R = 2.0, float(rng.uniform(0.4, 0.9))
        gamma = float(rng.uniform(-0.6, 0.6))
        c = float(rng.uniform(-0.5, 0.5))
        sg = float(rng.uniform(0.8, 1.3))
        phi = gaussian_signal(c, sg, grid=np.linspace(-14, 14, 2049))
        Rs = R**s
        psi = Signal(
            phi.grid / Rs,
            phi.values,
            derivs=lambda N, t: phi.derivs(N, np.asarray(t) * Rs)
            * np.array([Rs**n for n in range(N + 1)])[:, None],
            family="dilated",
        )
        n1 = gevrey_norm_time(psi, GevreyParams(s, 1.0, gamma), 10).total
        n2 = gevrey_norm_time(phi, GevreyParams(s, R, gamma), 10).total
        assert abs(n1 - n2 / Rs) < 1e-6 * abs(n1)


class TestWeightedFourierNorm:
    def test_parseval_at_tiny_R(self):
        sig = gaussian_signal(0.0, 1.0)
        val = weighted_fourier_norm(sig, GevreyParams(2.0, 1e-12, 0.0))
        l2sq = math.sqrt(math.pi)  # integral of e^{-t^2}
        assert abs(val - l2sq) < 1e-6 * l2sq

    def test_gaussian_closed_form_oracle(self):
        # F phi = e^{-xi^2/2}; independent quadrature of the weighted integral
        sig = gaussian_signal(0.0, 1.0)
        val = weighted_fourier_norm(sig, P2)
        want = 2.0 * quad(lambda x: math.exp(-x * x + 2 * P2.R * math.sqrt(x)), 0, 40,
                          limit=200)[0]
        assert abs(val - want) < 1e-6 * want

    @pytest.mark.parametrize("center, sigma", [(2.0, 0.7), (0.0, 1.0), (-1.0, 1.4)])
    @pytest.mark.filterwarnings("error")
    def test_gaussian_at_s1_above_the_noise_floor(self, center, sigma):
        # at s = 1 the weight e^{|xi|} outgrows |F|^2 only in the FFT's noise
        # floor, which must be cut: the norm is sigma sqrt(pi) e^{R^2/sigma^2}
        # erfc(-R/sigma) for R = 1/2
        val = weighted_fourier_norm(gaussian_signal(center, sigma), GevreyParams(1.0, 0.5, 0.0))
        want = sigma * math.sqrt(math.pi) * math.exp(0.25 / sigma**2) * math.erfc(-0.5 / sigma)
        assert val == pytest.approx(want, rel=1e-12)

    def test_monotone_in_R_and_gamma(self):
        sig = gaussian_signal(0.0, 1.0)
        v = [weighted_fourier_norm(sig, GevreyParams(2.0, r, 0.0)) for r in (0.2, 0.4, 0.6)]
        assert v[0] < v[1] < v[2]
        w = [weighted_fourier_norm(sig, GevreyParams(2.0, 0.5, g)) for g in (-0.5, 0.0, 0.5)]
        assert w[0] < w[1] < w[2]

    def test_leaky_signal_rejected(self):
        g = np.linspace(-2, 2, 257)
        sig = Signal(g, np.exp(-g**2 / 2), derivs=None)
        with pytest.raises(ValueError):
            weighted_fourier_norm(sig, P2)

    @pytest.mark.parametrize("k", range(8))
    def test_interpolant_matches_trapezoid_dft(self, k, monkeypatch):
        # |F|^2 read between the FFT frequencies against the trapezoid DFT of
        # the samples, summed directly at every fourth point the norm reads
        sig = cli._ratio_family()[k]
        calls, interp = [], gevrey._lagrange8

        def recorded(*args):
            calls.append((args[-1], interp(*args)))
            return calls[-1][1]

        monkeypatch.setattr(gevrey, "_lagrange8", recorded)
        weighted_fourier_norm(sig, P2)
        (xs, F2), = calls
        xs, F2 = xs[::4], F2[::4]
        tj = sig.step * np.arange(len(sig.grid))
        exact = np.concatenate([
            np.abs(np.exp(-1j * np.outer(xs[i:i + 256], tj)) @ sig.values) ** 2
            for i in range(0, len(xs), 256)]) * sig.step**2 / (2.0 * math.pi)
        assert np.max(np.abs(F2 - exact)) <= 1e-11 * np.max(exact)

    def test_ratio_band(self):
        # Fourier/time ratio stays in one modest band across the family
        sigs = [gaussian_signal(0.0, 1.0), gaussian_signal(1.5, 0.7),
                two_sided_bump(0.0, 3.0, 1.5), two_sided_bump(0.5, 2.0, 2.0)]
        ratios = []
        for sig in sigs:
            tn = gevrey_norm_time(sig, P2, 14)
            assert tn.converged
            ratios.append(weighted_fourier_norm(sig, P2) / tn.total)
        chat = max(max(ratios), 1.0 / min(ratios))
        assert chat < 50.0


class TestBumpGevrey:
    def test_flat_at_zero(self):
        sig = bump_gevrey(1.0)
        t = np.array([-1.0, -0.1, 0.0])
        for n in range(0, 8):
            assert np.all(sig.deriv(n, t) == 0.0)

    def test_value_and_first_derivative_at_1(self):
        sig = bump_gevrey(1.0)
        t = np.array([1.0])
        assert abs(sig.deriv(0, t)[0] - math.exp(-1.0)) < 1e-15
        # d/dt e^{-1/t} = t^{-2} e^{-1/t} = e^{-1} at t=1
        assert abs(sig.deriv(1, t)[0] - math.exp(-1.0)) < 1e-14

    def test_order6_richardson_fd(self):
        # independent finite-difference oracle; the 6th difference at h=1e-3
        # cancels below float64 resolution, so the stencil values come from
        # a 50-digit evaluation of the elementary function itself
        sig = bump_gevrey(1.0)
        t0, h = 0.5, 1e-3

        def stencil(hh):
            c = [1, -6, 15, -20, 15, -6, 1]
            with mp.workdps(50):
                s = mp.fsum(
                    ci * mp.exp(-1 / (t0 + mp.mpf(hh) * k)) for ci, k in zip(c, range(-3, 4))
                )
                return float(s / mp.mpf(hh) ** 6)

        a, b = stencil(h), stencil(h / 2)
        fd = b + (b - a) / 3.0  # Richardson in h^2
        got = float(sig.deriv(6, np.array([t0]))[0])
        assert abs(got - fd) < 1e-5 * abs(got)

    @pytest.mark.parametrize("t_scale, N", [(0.2, 470), (1e-3, 120)])
    def test_flat_rows_stay_zero_where_the_scale_underflows(self, t_scale, N):
        # t_scale**n underflows to 0 from n = 463 and n = 108: 0/0 was NaN
        with np.errstate(all="raise"):
            tab = bump_gevrey(1.5, t_scale=t_scale).derivs(N, np.array([-0.1 * t_scale, 0.0]))
        assert np.array_equal(tab, np.zeros_like(tab))

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            bump_gevrey(0.0)
        for t_scale in (0.0, -0.2, math.inf, math.nan):
            with pytest.raises(ValueError, match="t_scale must be finite and > 0"):
                bump_gevrey(1.5, t_scale=t_scale)
        for gamma_exp in (0.0, -1.0):
            with pytest.raises(ValueError, match="gamma_exp must be > 0"):
                two_sided_bump(0.0, 1.0, gamma_exp)


class TestGevreyCutoff:
    def test_endpoint_values(self):
        chi = gevrey_cutoff(0.2, 0.8, 1.5)
        t = np.array([0.2, 0.8])
        v = chi.deriv(0, t)
        assert abs(v[0] - 1.0) < 1e-12
        assert abs(v[1]) < 1e-12

    def test_values_against_quadrature(self):
        # chi(t) = 1 - int_{t_a}^t rho / int rho, rho the bump on (t_a, t_b)
        t_a, t_b, g = 0.2, 0.8, 2.0  # order 1.5
        rho = lambda t: math.exp(-((t - t_a) ** -g) - (t_b - t) ** -g)
        Z = quad(rho, t_a, t_b, epsabs=0, epsrel=1e-13)[0]
        t = np.array([0.2001, 0.25, 0.3, 0.437, 0.5, 0.61, 0.75, 0.7999])
        want = [1.0 - quad(rho, t_a, ti, epsabs=0, epsrel=1e-13)[0] / Z for ti in t]
        assert np.max(np.abs(gevrey_cutoff(t_a, t_b, 1.5).deriv(0, t) - want)) < 1e-12

    def test_monotone_nonincreasing(self):
        chi = gevrey_cutoff(0.0, 1.0, 1.5)
        t = np.linspace(-0.2, 1.2, 400)
        v = chi.deriv(0, t)
        assert np.all(np.diff(v) <= 1e-12)

    def test_product_with_gevrey2_signal_stays_summable(self):
        # chi * phi keeps a finite partial norm at slightly reduced radius
        grid = np.linspace(-6.0, 6.0, 2049)
        chi = gevrey_cutoff(1.0, 3.0, 1.5, grid=grid)
        for phi in [gaussian_signal(0.0, 1.0, grid=grid),
                    gaussian_signal(0.7, 1.2, grid=grid),
                    two_sided_bump(0.0, 4.0, 2.0, grid=grid)]:
            prod = product_signal(chi, phi)
            r = gevrey_norm_time(prod, GevreyParams(2.0, 0.45, 0.0), 12)
            assert np.isfinite(r.total)
            assert r.converged

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            gevrey_cutoff(1.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            gevrey_cutoff(0.0, 1.0, 2.5)
        # order 1.1: exp(-(1/2)^-10)^2 = e^-2048 at the centre, 0.0 everywhere
        with pytest.raises(ValueError, match="order_s = 1.1 .* underflows"):
            gevrey_cutoff(0.0, 1.0, 1.1)
        chi = gevrey_cutoff(0.0, 1.0, 1.2)
        v = chi.deriv(0, np.array([-0.1, 0.5, 1.1]))
        assert v[0] == 1.0 and 0.0 < v[1] < 1.0 and v[2] == 0.0


class TestFourierDecayFit:
    def test_bump_positive_delta(self):
        fit = fourier_decay_fit(two_sided_bump(0.0, 1.0, 1.0), 2.0)
        assert isinstance(fit, DecayFit)
        assert fit.delta > 0
        assert not fit.mismatch

    def test_gaussian_vs_order1_mismatch(self):
        g = gaussian_signal(0.0, 1.0, grid=np.linspace(-10, 10, 2049))
        window = two_sided_bump(0.0, 9.0, 2.0, grid=np.linspace(-10, 10, 2049))
        fit = fourier_decay_fit(product_signal(g, window), 1.0)
        assert fit.mismatch

    def test_mollifier_scaling(self):
        sig = two_sided_bump(0.0, 1.0, 1.0)
        base = fourier_decay_fit(sig, 2.0)
        eps = 0.5
        grid = np.linspace(-1.0, 1.0, 2049)
        scaled = Signal(
            grid,
            sig.deriv(0, grid / eps) / eps,
            derivs=lambda N, t: sig.derivs(N, np.asarray(t) / eps)
            / np.array([eps ** (n + 1) for n in range(N + 1)])[:, None],
            compact_support=True,
        )
        fit = fourier_decay_fit(scaled, 2.0)
        assert abs(fit.delta / base.delta - eps ** 0.5) < 0.05 * eps ** 0.5

    def test_requires_compact_support(self):
        with pytest.raises(ValueError):
            fourier_decay_fit(gaussian_signal(0.0, 1.0), 2.0)
