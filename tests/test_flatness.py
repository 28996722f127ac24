import math

import numpy as np
import pytest
from scipy.special import gammaln

from heatflat.flatness import (
    check_trackable_finite,
    check_trackable_infinite,
    flat_control,
    flat_state,
    terminal_state_report,
    tracking_experiment,
)
from heatflat.gevrey import (
    GevreyParams,
    Signal,
    _log_l2_norm,
    bump_gevrey,
    gaussian_signal,
    gevrey_cutoff,
    gevrey_norm_time,
    two_sided_bump,
)
from heatflat.heatsim import SimConfig
from heatflat.holo import CoeffSeq


def zeros(N, t):
    return np.zeros((N + 1, len(t)))


def zero_signal(grid):
    return Signal(grid, np.zeros_like(grid), derivs=zeros)


class TestFlatState:
    def test_zero(self):
        r = flat_state(zeros, 0.3, 0.5, 10)
        assert r.value == 0.0

    def test_x0_reproduces_target(self):
        y = bump_gevrey(1.0)
        for t in (0.3, 0.7, 1.5):
            r = flat_state(y.derivs, t, 0.0, 8)
            assert r.value == pytest.approx(float(y.deriv(0, np.array([t]))[0]), abs=1e-15)

    def test_geometric_term_decay(self):
        # formal target with y^(k) = (2k)!/rho^{2k}: flat-series terms at x
        # decay with exact ratio (x/rho)^2
        rho = 0.8

        def provider(N, t):
            return np.array([np.full_like(np.asarray(t, dtype=float),
                                          math.exp(gammaln(2 * k + 1) - 2 * k * math.log(rho)))
                             for k in range(N + 1)])

        for x in (0.2, 0.5):
            terms = []
            for k in range(1, 8):
                v = math.exp(gammaln(2 * k + 1) - 2 * k * math.log(rho)
                             + 2 * k * math.log(x) - gammaln(2 * k + 1))
                terms.append(v)
            ratios = [terms[i + 1] / terms[i] for i in range(len(terms) - 1)]
            assert all(abs(r - (x / rho) ** 2) <= 0.2 * (x / rho) ** 2 for r in ratios)
            r = flat_state(provider, 0.0, x, 30)
            want = sum(math.exp(2 * k * (math.log(x) - math.log(rho))) for k in range(0, 200))
            assert r.value == pytest.approx(want, rel=1e-10)
            assert r.converged
        r = flat_state(provider, 0.0, 0.9, 30)  # x > rho: series diverges
        assert not r.converged
        r = flat_state(provider, 0.0, rho, 30)  # x = rho: terms of constant size
        assert not r.converged


    @pytest.mark.filterwarnings("error")
    def test_row_not_finite(self):
        # an overflowed row is an error where it has weight, and skipped at
        # x = 0 where it has none
        def provider(N, t):
            tab = np.ones((N + 1, len(t)))
            tab[3] = np.inf
            return tab

        with pytest.raises(ValueError, match=r"flat state with K=5: derivative row 3 "):
            flat_state(provider, 0.1, 0.5, 5)
        assert flat_state(provider, 0.1, 0.0, 5).value == 1.0


class TestFlatControl:
    def test_zero(self):
        grid = np.linspace(0, 1, 101)
        syn = flat_control(zeros, grid, 10)
        assert np.all(syn.value == 0.0)

    def test_single_term_probe(self):
        # formal y with y^(1) = 1, all other orders 0: u = 1/1! = 1
        def provider(N, t):
            tab = zeros(N, t)
            tab[1] = 1.0
            return tab

        syn = flat_control(provider, np.linspace(0, 1, 11), 6)
        assert np.allclose(syn.value, 1.0)

    def test_linearity(self):
        grid = np.linspace(0, 1, 201)
        y1 = bump_gevrey(1.5, t_scale=0.3, grid=grid)
        y2 = bump_gevrey(2.0, t_scale=0.5, grid=grid)
        a, b = 0.7, -1.3
        mix = lambda N, t: a * y1.derivs(N, t) + b * y2.derivs(N, t)
        u_mix = flat_control(mix, grid, 12).value
        u_sep = (a * flat_control(y1.derivs, grid, 12).value
                 + b * flat_control(y2.derivs, grid, 12).value)
        assert np.max(np.abs(u_mix - u_sep)) <= 1e-12 * max(1.0, np.abs(u_sep).max())

    def test_terms_of_constant_size_diverge(self):
        # y^(k) = (2k-1)!: every term y^(k)/(2k-1)! is 1, a ratio of 1 that the
        # one series verdict reads as an infinite tail, as for flat_state at
        # x = rho
        def provider(N, t):
            return np.array([np.full(len(t), float(math.factorial(max(2 * k - 1, 0))))
                             for k in range(N + 1)])

        syn = flat_control(provider, np.linspace(0, 1, 11), 10)
        assert np.allclose(syn.value, 10.0, rtol=1e-14)
        assert syn.tail == math.inf and not syn.converged
        assert not flat_control(provider, np.linspace(0, 1, 11), 5).converged

    # the bump target of ``track``: verdict and tail of the control, the tail
    # in units of max|u|.  Up to K = 13 the terms grow; at dt = 1e-3 the
    # sampled maxima of the later terms alternate in size (ratios above 1)
    @pytest.mark.parametrize("dt, K, converged, tail", [
        pytest.param(dt, K, converged, tail, id=f"{dt:g}-K{K}") for dt, K, converged, tail in [
            (1e-3, 5, False, math.inf), (1e-3, 6, False, math.inf),
            (1e-3, 10, False, math.inf), (1e-3, 25, False, 14.92838475441673),
            (1e-3, 40, False, math.inf), (1e-3, 60, False, math.inf),
            (2.5e-4, 5, False, math.inf), (2.5e-4, 6, False, math.inf),
            (2.5e-4, 10, False, math.inf), (2.5e-4, 25, False, 9.377945061458725),
            (2.5e-4, 40, False, 0.09102092513369207), (2.5e-4, 60, True, 7.200257303645593e-06),
        ]])
    def test_synthesis_flags_on_the_track_target(self, dt, K, converged, tail):
        grid = SimConfig(dt=dt).time_grid()
        syn = flat_control(bump_gevrey(1.5, t_scale=0.2, grid=grid).derivs, grid, K)
        assert syn.converged is converged
        assert syn.tail / np.max(np.abs(syn.value)) == pytest.approx(tail, rel=1e-12)

    def test_overflowing_row_is_a_clean_error(self):
        # rows >= 89 of this bump's table exceed float range near t = 0.01
        grid = SimConfig(dt=1e-3).time_grid()
        y = bump_gevrey(1.5, t_scale=0.2, grid=grid)
        with pytest.raises(ValueError, match=r"K=100: derivative row 89 "):
            flat_control(y.derivs, grid, 100)
        assert np.all(np.isfinite(flat_control(y.derivs, grid, 88).value))


class TestTracking:
    def test_zero_target(self):
        cfg = SimConfig(J=64, dt=1e-3, T=0.5)
        res = tracking_experiment(zero_signal(cfg.time_grid()), cfg, K=8)
        assert res.max_error == 0.0

    def test_standard_bump_target(self):
        cfg = SimConfig(J=128, dt=1e-3, T=1.0)
        y = bump_gevrey(1.5, t_scale=0.2, grid=cfg.time_grid())
        res25 = tracking_experiment(y, cfg, K=25)
        res10 = tracking_experiment(y, cfg, K=10)
        assert res25.max_error < 1e-4
        assert res10.max_error / res25.max_error >= 10.0

    def test_non_flat_target_rejected(self):
        cfg = SimConfig(J=32, dt=1e-3, T=1.0)
        g = gaussian_signal(0.5, 1.0, grid=cfg.time_grid())
        with pytest.raises(ValueError):
            tracking_experiment(g, cfg, K=6)

    def test_nan_derivative_at_t0_rejected(self):
        cfg = SimConfig(J=32, dt=1e-3, T=1.0)
        y = bump_gevrey(1.5, t_scale=0.2, grid=cfg.time_grid())

        def nan_at_t0(N, t):
            tab = y.derivs(N, t)
            tab[1:, t == 0.0] = np.nan
            return tab

        with pytest.raises(ValueError, match=r"not flat at t=0 \(max \|y\^\(k\)\(0\)\| = nan\)"):
            tracking_experiment(Signal(y.grid, y.values, derivs=nan_at_t0), cfg, K=6)

    def test_target_off_the_time_grid_rejected(self):
        cfg = SimConfig(J=32, dt=1e-3, T=1.0)
        y = bump_gevrey(1.5, t_scale=0.2, grid=SimConfig(dt=2e-3).time_grid())
        with pytest.raises(ValueError, match="sampled on the simulation's time grid"):
            tracking_experiment(y, cfg, K=6)

    def test_error_nonincreasing_under_refinement(self):
        y_of = lambda grid: bump_gevrey(1.5, t_scale=0.25, grid=grid)
        errs = []
        for K, dt in ((6, 4e-3), (12, 2e-3), (24, 1e-3)):
            cfg = SimConfig(J=128, dt=dt, T=1.0)
            errs.append(tracking_experiment(y_of(cfg.time_grid()), cfg, K).max_error)
        assert errs[0] >= errs[1] >= errs[2] * 0.999

    def test_second_order_in_dt(self):
        # the piecewise-linear control gives an O(dt^2) error: each halving
        # of dt divides it by about 4.0
        errs = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            cfg = SimConfig(J=128, dt=dt, T=1.0)
            y = bump_gevrey(1.5, t_scale=0.2, grid=cfg.time_grid())
            errs.append(tracking_experiment(y, cfg, K=25).max_error)
        assert errs[0] >= 3.5 * errs[1] and errs[1] >= 3.5 * errs[2]

    def test_csv(self, tmp_path):
        cfg = SimConfig(J=32, dt=1e-2, T=0.2)
        res = tracking_experiment(zero_signal(cfg.time_grid()), cfg, K=4)
        res.to_csv(tmp_path / "track.csv")
        assert (tmp_path / "track.csv").read_text().splitlines()[0] == "t,y_target,y_sim,u"


class TestTrackableInfinite:
    def test_zero(self):
        chk = check_trackable_infinite(zero_signal(np.linspace(0, 1, 65)), 6)
        assert chk.total == 0.0 and chk.converged

    def test_scaled_bump_converges(self):
        y = two_sided_bump(0.5, 0.4, 1.5, grid=np.linspace(0.0, 1.1, 1101))
        chk = check_trackable_infinite(y, 12)
        assert chk.converged
        assert np.all(np.diff(chk.partial_sums) >= 0)

    def test_track_target_quadrature_settles_at_N32(self):
        # its rows past k = 16 add 1e-8 of the total: settled row by row, they ran out of nodes
        chk16, chk32 = (check_trackable_infinite(bump_gevrey(1.5, 0.2), N) for N in (16, 32))
        assert chk32.quadrature_ok and abs(chk32.total - chk16.total) <= 1e-7 * chk16.total

    def test_summand_matches_gevrey_norm_of_derivative(self):
        # the (2,1/sqrt2,-1/2) norm summand of y' at k == condition-(5)
        # summand (||y^(k+1)|| / [(2k)! 2^k (1+k)^{3/4}])^2 written out
        y = two_sided_bump(0.5, 0.4, 1.5, grid=np.linspace(0.0, 1.1, 1101))
        chk = check_trackable_infinite(y, 12)
        for k in range(13):
            log_norm, _ = _log_l2_norm(lambda t: y.deriv(k + 1, t), y.t0, y.t1)
            log_w = gammaln(2 * k + 1) + k * math.log(2.0) + 0.75 * math.log1p(k)
            a, b = chk.increments[k], math.exp(2.0 * (log_norm - log_w))
            assert abs(a - b) <= 1e-12 * max(a, b, 1e-300)


    def test_order_1_91_target_converges_only_by_N48(self):
        # y' of bump_gevrey(1.1, 0.2) is of Gevrey order 1.91, inside the
        # class, but at N = 16 about 16.5 of its 109.13 are still missing
        chk16, chk48 = (check_trackable_infinite(bump_gevrey(1.1, 0.2), N) for N in (16, 48))
        missing = chk48.total - chk16.total
        assert not chk16.converged and missing <= chk16.tail <= 3.0 * missing
        assert chk48.converged


@pytest.mark.parametrize("N", range(1, 6))
def test_short_series_on_gaussian(N):
    # every N >= 1 works, and the first N+1 increments do not depend on N
    g = gaussian_signal(0.0, 1.0)
    p = GevreyParams(2.0, 0.5, 0.0)
    for series in (lambda n: gevrey_norm_time(g, p, n),
                   lambda n: check_trackable_infinite(g, n)):
        res = series(N)
        assert np.array_equal(res.increments, series(5).increments[:N + 1])
        assert res.converged is True


class TestTrackableFinite:
    def test_flat_at_T_trivially_reachable(self):
        # cutoff signal is identically 0 near T: zero terminal sequence
        # (N = 20 reaches past the increment hump of the condition-13 series)
        y = gevrey_cutoff(0.2, 0.8, 1.5, grid=np.linspace(0.0, 1.0, 1001))
        res = check_trackable_finite(y, N=20, K=10)
        assert res.condition13.converged
        assert res.reachable_class == "convergent"

    def test_constant_near_T_gives_area_norm(self):
        seq = CoeffSeq.from_values([1.0] + [0.0] * 9)
        even, deriv = terminal_state_report(seq)
        assert even.classification == "convergent"
        eps = even.margins[-1]
        assert even.norms[-1] == pytest.approx(2.0 * (1 - eps) ** 2, abs=1e-10)
        assert deriv.classification == "convergent"

    def test_factorial_pair_sequence_fails(self):
        even, deriv = terminal_state_report(CoeffSeq.factorial_pair(1500))
        assert deriv.classification == "divergent"
