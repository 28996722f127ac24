import cmath
import math
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from heatflat.heatsim import (
    SimConfig,
    _kernel_eigen_f64,
    _kernel_eigen_small_t,
    _kernel_poisson,
    _poisson_terms,
    kernel_k,
    simulate,
)
from oracles import kernel_eigen_two_sums, kernel_laplace_quadrature, neu_dir_transfer


class TestKernel:
    def test_poisson_term_count(self):
        # sqrt(42) sqrt(t) gives the count of sqrt(42 t) on the kernel checks' grids, and
        # stays finite where 42 t passes the float range
        for t in np.concatenate([np.geomspace(0.01, 10.0, 200), np.geomspace(3.51e-4, 1e9, 4001)]):
            assert _poisson_terms(t) == int(math.sqrt(42.0 * t)) + 2
        assert 8.6e154 < _poisson_terms(sys.float_info.max) < 8.7e154

    @pytest.mark.parametrize("t", [np.geomspace(0.01, 10.0, 200),
                                   np.geomspace(3.51e-4, 1e3, 5000)], ids=["default", "wide"])
    def test_grouped_sums_match_per_point_formulas(self, t):
        # the sums over each point's own terms, which one 2-D sum per term count replaces
        def poisson(ti):
            m = np.arange(_poisson_terms(ti))
            return 2.0 * np.exp(-((m + 0.5) ** 2) / ti).sum() / math.sqrt(math.pi * ti)

        def eigen(ti):
            j = np.arange(1, int(math.sqrt(42.0 / (math.pi**2 * ti))) + 2)
            return 1.0 + 2.0 * np.sum((-1.0) ** j * np.exp(-(math.pi**2) * j**2 * ti))

        assert _kernel_poisson(t).tobytes() == np.array([poisson(ti) for ti in t]).tobytes()
        assert _kernel_eigen_f64(t).tobytes() == np.array([eigen(ti) for ti in t]).tobytes()

    @pytest.mark.parametrize("rep", ["eigen", "poisson"])
    def test_scalar_gives_float(self, rep):
        for t in (3.4e-4, 0.05, 0.3, 2.0):
            v = kernel_k(t, rep)
            assert type(v) is float and v == kernel_k(np.array([t]), rep)[0]

    def test_cross_representation_at_03(self):
        e = kernel_k(0.3, "eigen")
        p = kernel_k(0.3, "poisson")
        assert abs(e - p) < 1e-12 * abs(p)

    def test_large_t_plateau(self):
        assert abs(kernel_k(10.0, "eigen") - 1.0) < 1e-14

    def test_flat_at_zero(self):
        # k(0.01) = 2 (pi 0.01)^{-1/2} e^{-25} = 1.5668e-10: flat at 0+;
        # assert the decade rather than a rounded bound
        v = kernel_k(0.01, "poisson")
        assert 1e-11 < v < 2e-10
        assert kernel_k(0.005, "poisson") < 1e-17

    def test_dual_representation_band(self):
        t = np.geomspace(0.01, 10.0, 200)
        e = kernel_k(t, "eigen")
        p = kernel_k(t, "poisson")
        assert np.max(np.abs(e - p) / np.abs(p)) < 1e-10

    def test_eigen_small_t_against_mpmath_images(self):
        # where the alternating eigen sum cancels to k(t) (down to 1e-270 here),
        # it must still match the positive image-charge series summed in mpmath
        t = np.geomspace(4e-4, 0.03, 12)
        e = kernel_k(t, "eigen")
        with mp.workdps(30):
            ref = [float(2 * mp.fsum(mp.exp(-(m + mp.mpf(0.5)) ** 2 / ti) for m in range(5))
                         / mp.sqrt(mp.pi * ti)) for ti in t]
        assert np.max(np.abs(e - ref) / ref) < 1e-13

    def test_eigen_below_normal_range_against_mpmath_images(self):
        # below t ~ 3.5e-4 k(t) is subnormal or rounds to zero: the eigen sum
        # must give the image series rounded to float, never a negative value
        t = np.geomspace(1e-4, 3.6e-4, 40)
        e = kernel_k(t, "eigen")
        with mp.workdps(30):
            ref = [float(2 * mp.fsum(mp.exp(-(m + mp.mpf(0.5)) ** 2 / ti) for m in range(5))
                         / mp.sqrt(mp.pi * ti)) for ti in t]
        assert np.array_equal(e, ref)

    def test_eigen_small_t_equals_the_two_sum_form(self):
        # one alternating walk gives the floats of twice the even-j Gaussian
        # sum minus the full one, down to where k(t) leaves the normal range
        t = np.geomspace(3.51e-4, 0.05, 3000)
        est = _kernel_poisson(t)
        walk = [_kernel_eigen_small_t(ti, ei) for ti, ei in zip(t, est)]
        assert walk == [kernel_eigen_two_sums(ti, ei) for ti, ei in zip(t, est)]

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_k(0.0, "poisson")
        with pytest.raises(ValueError):
            kernel_k(1.0, "fourier")


def _sequential(u, cfg):
    """Reference: the per-step recurrence c_{m+1} = E c_m + f_m run as a loop,
    with the output taken as the state at x = 0 (returns y and z).  The mode
    data are float64 as in simulate; the decay factors and the running sums are long double, so the reference
    carries neither the float64 rounding of a 3000-step sum nor that of
    E = exp(-lam dt), which the sum amplifies by 1 / (lam dt) in the slow modes."""
    dt = cfg.dt
    J = max(cfg.J, math.ceil(math.sqrt(35.0 / dt) / math.pi) - 1)
    j = np.arange(1, J + 1)
    lam = np.concatenate(([0.0], (j * np.pi) ** 2))
    x = np.concatenate(([0.0], cfg.x_grid))
    cos = np.cos(np.outer(j * np.pi, x))
    ex = np.vstack((np.ones(len(x)), math.sqrt(2.0) * cos))  # e_j(x)
    e1 = np.concatenate(([1.0], math.sqrt(2.0) * (-1.0) ** j))  # e_j(1)
    alt = 2.0 * (-1.0) ** j[:, None] * cos
    tail1 = 0.5 * (x**2 - 1.0 / 3.0) - (alt / lam[1:, None]).sum(axis=0)
    tail2 = -(x**4) / 24.0 + x**2 / 12.0 - 7.0 / 360.0 - (alt / lam[1:, None] ** 2).sum(axis=0)
    em1 = np.expm1(-lam[1:] * dt)
    I0 = np.concatenate(([dt], -em1 / lam[1:]))
    I1 = np.concatenate(([0.5 * dt * dt], (dt + em1 / lam[1:]) / lam[1:]))
    E = np.exp(-lam.astype(np.longdouble) * dt)
    c = np.zeros(J + 1, dtype=np.longdouble)
    out = np.zeros((len(u), len(x)), dtype=np.longdouble)
    for m in range(len(u) - 1):
        b = (u[m + 1] - u[m]) / dt
        c = c * E + e1 * (u[m] * I0 + b * I1)
        out[m + 1] = c @ ex + u[m + 1] * tail1 - b * tail2
    out = out.astype(float)
    return out[:, 0], out[:, 1:]


class TestSimulate:
    # simulate works in blocks of heatsim._BLOCK = 32 steps, and holds
    # heatsim._GROUP = 64 blocks (2048 steps) at a time
    @pytest.mark.parametrize("J, dt, T", [
        (128, 1e-3, 0.193),  # six blocks and one step
        (128, 1e-3, 0.256),  # exactly eight blocks
        (128, 1e-3, 0.031),  # part of one block
        (128, 2.5e-4, 0.3),
        (128, 1e-4, 0.3),  # a full group, then part of one
        (128, 1e-4, 0.4097),  # two full groups and one step
        (128, 1e-3, 1e-3),  # one step
        (8, 1e-5, 0.01),  # J raised to the closure floor
    ])
    def test_scan_matches_sequential_recurrence(self, J, dt, T):
        cfg = SimConfig(J=J, dt=dt, T=T, x_grid=(0.0, 0.3, 1.0))
        t = cfg.time_grid()
        u = np.sin(9.0 * t) + 40.0 * t**2 + 0.3
        res = simulate(u, cfg)
        y, z = _sequential(u, cfg)
        # y = z(t, 0) stays near 0 on the short horizons (k is flat at 0+),
        # so the bound is relative to the largest state value
        scale = max(np.max(np.abs(y)), np.max(np.abs(z)))
        assert np.max(np.abs(res.y - y)) <= 1e-13 * scale
        assert np.max(np.abs(res.z - z)) <= 1e-13 * scale

    def test_control_not_finite_rejected(self):
        cfg = SimConfig(J=32, dt=1e-3, T=0.1)
        u = np.ones(len(cfg.time_grid()))
        u[7] = np.nan
        with pytest.raises(ValueError, match=r"not finite at index 7 \(t=0\.007\)"):
            simulate(u, cfg)

    def test_zero_control(self):
        cfg = SimConfig(J=64, dt=1e-3, T=0.5, x_grid=(0.0, 0.5, 1.0))
        res = simulate(np.zeros(len(cfg.time_grid())), cfg)
        assert np.all(res.y == 0.0)
        assert np.all(res.z == 0.0)

    def test_step_response_is_kernel_integral(self):
        cfg = SimConfig(J=128, dt=1e-3, T=1.0)
        res = simulate(np.ones(len(cfg.time_grid())), cfg)
        for t in (0.1, 0.3, 0.7, 1.0):
            want = quad(lambda s: kernel_k(s, "poisson"), 0, t, limit=200, epsabs=1e-11)[0]
            got = res.y[int(round(t / cfg.dt))]
            assert abs(got - want) < 1e-6 * max(abs(want), 1e-3)

    def test_ramp_response_is_kernel_convolution(self):
        # u = t is its own linear interpolant, so y is int_0^t k(t - s) s ds
        # to rounding; the unit slope also drives the I1 kernel
        cfg = SimConfig(J=128, dt=1e-3, T=1.0)
        res = simulate(cfg.time_grid(), cfg)
        for t in (0.1, 0.3, 0.7, 1.0):
            want = quad(lambda s: kernel_k(s, "poisson") * (t - s), 0, t, limit=200,
                        epsabs=1e-14, epsrel=1e-13)[0]
            got = res.y[int(round(t / cfg.dt))]
            assert abs(got - want) < 1e-12 * abs(want)

    def test_traced_memory_over_many_steps(self):
        # 10^5 steps at J = 595: the products hold one group of blocks at a
        # time, never an array of (steps / block) x modes
        cfg = SimConfig(J=128, dt=1e-5, T=1.0)
        u = np.sin(9.0 * cfg.time_grid())
        tracemalloc.start()
        try:
            simulate(u, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_J_doubling_insensitive(self):
        cfg64 = SimConfig(J=64, dt=1e-3, T=1.0)
        cfg128 = SimConfig(J=128, dt=1e-3, T=1.0)
        u = np.sin(2 * np.pi * cfg64.time_grid()) ** 2
        y64 = simulate(u, cfg64).y
        y128 = simulate(u, cfg128).y
        m = cfg64.time_grid() >= 0.05
        rel = np.abs(y64 - y128)[m] / np.maximum(np.abs(y128[m]), 1e-12)
        assert rel.max() < 1e-10

    def test_linearity(self):
        cfg = SimConfig(J=96, dt=1e-3, T=0.5)
        t = cfg.time_grid()
        u1 = np.sin(3 * t) * t
        u2 = np.cos(5 * t) ** 2 * t
        y1 = simulate(u1, cfg).y
        y2 = simulate(u2, cfg).y
        y12 = simulate(u1 + u2, cfg).y
        assert np.max(np.abs(y12 - y1 - y2)) < 1e-10 * max(1.0, np.abs(y12).max())

    def test_causality(self):
        cfg = SimConfig(J=96, dt=1e-3, T=1.0)
        t = cfg.time_grid()
        tau = 0.4
        u = np.where(t >= tau, (t - tau) ** 2, 0.0)
        res = simulate(u, cfg)
        assert np.max(np.abs(res.y[t < tau])) < 1e-12

    def test_steady_state_drift(self):
        cfg = SimConfig(J=128, dt=1e-3, T=10.0)
        res = simulate(np.ones(len(cfg.time_grid())), cfg)
        t = cfg.time_grid()
        m = t >= 5.0
        slope = np.polyfit(t[m], res.y[m], 1)[0]
        assert abs(slope - 1.0) < 1e-6
        # the DC offset tends to 2 sum (-1)^j / lambda_j = -1/6
        assert abs((res.y[m] - t[m]).mean() + 1.0 / 6.0) < 1e-9

    def test_state_profile_heats_up(self):
        # T = 3 puts the slowest transient at e^{-3 pi^2} ~ 1e-13
        cfg = SimConfig(J=64, dt=1e-3, T=3.0, x_grid=tuple(np.linspace(0, 1, 11)))
        res = simulate(np.ones(len(cfg.time_grid())), cfg)
        # hot end at x=1 where the flux enters; parabolic steady shape + drift
        assert res.z[-1, -1] > res.z[-1, 0]
        want = res.y[-1] + 0.5 * 1.0**2  # z(t,1)-z(t,0) = 1/2 at steady state
        assert abs(res.z[-1, -1] - want) < 1e-9

    def test_closure_flag_and_tail(self):
        # J = 8 is raised to the closure floor (J+1)^2 pi^2 dt >= 35, so the
        # step response is int_0^t k exactly: each image charge a contributes
        # 2 (2 sqrt(t/pi) e^{-a^2/t} - 2a erfc(a/sqrt t)); a >= 2.5 is below 1e-270
        cfg = SimConfig(J=8, dt=1e-5, T=0.01)
        res = simulate(np.ones(len(cfg.time_grid())), cfg)
        assert res.closure_active
        assert res.tail_bound <= math.exp(-35.0)
        a = np.arange(3) + 0.5
        t = res.t[1:, None]
        want = 2.0 * (2.0 * np.sqrt(t / np.pi) * np.exp(-a**2 / t)
                      - 2.0 * a * erfc(a / np.sqrt(t))).sum(axis=1)
        assert np.max(np.abs(res.y[1:] - want)) < 1e-15

    @pytest.mark.filterwarnings("error")
    def test_step_response_with_65536_modes(self):
        # j^4 of a mode index past 55 108 wraps in int64; the closure sums
        # run over j^2 and j^4 of every mode up to J
        cfg = SimConfig(J=65536, dt=1e-3, T=0.05)
        res = simulate(np.ones(len(cfg.time_grid())), cfg)
        a = np.arange(3) + 0.5
        t = res.t[1:, None]
        want = 2.0 * (2.0 * np.sqrt(t / np.pi) * np.exp(-a**2 / t)
                      - 2.0 * a * erfc(a / np.sqrt(t))).sum(axis=1)
        assert np.max(np.abs(res.y[1:] - want)) < 1e-15

    def test_output_is_the_state_at_x0(self):
        # one synthesis over x = [0, *x_grid]: y is its x = 0 column, bit for
        # bit, and state points do not move it
        cfg = SimConfig(J=128, dt=5e-4, T=0.4, x_grid=(0.3, 0.0, 1.0))
        t = cfg.time_grid()
        u = np.sin(9.0 * t) + 40.0 * t**2 + 0.3
        res = simulate(u, cfg)
        assert res.z.shape == (len(t), 3)
        assert np.array_equal(res.y, res.z[:, 1])
        bare = simulate(u, SimConfig(J=128, dt=5e-4, T=0.4))
        assert bare.z.shape == (len(t), 0)
        assert np.array_equal(bare.y, res.y)
        for n in (1, 2, 5, 11):
            grid = tuple(np.linspace(0.0, 1.0, n))
            assert np.array_equal(simulate(u, SimConfig(J=128, dt=5e-4, T=0.4,
                                                        x_grid=grid)).y, res.y)

    def test_control_must_be_an_array_on_the_grid(self):
        cfg = SimConfig(J=32, dt=1e-3, T=0.1)
        with pytest.raises(ValueError, match="control array must have length 101"):
            simulate(np.ones(100), cfg)

    def test_sim_config_checks_for_library_callers(self):
        # the CLI declares these ranges for track; a library caller meets them here
        with pytest.raises(ValueError, match="SimConfig requires J >= 1, dt > 0"):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError, match=r"dt=1e-12 needs 1e\+12 time steps over T=1, "
                                             "above the cap of 1000000"):
            SimConfig(dt=1e-12)

    def test_T_must_be_a_multiple_of_dt(self):
        with pytest.raises(ValueError, match="multiple of dt"):
            SimConfig(dt=0.3, T=1.0)  # the grid would stop at 0.9
        for dt in (1e-3, 5e-4, 2.5e-4, 2e-4, 1e-4):  # the refinement ladder
            grid = SimConfig(dt=dt, T=1.0).time_grid()
            assert grid[-1] == pytest.approx(1.0, abs=1e-12)


class TestTransfer:
    def test_neu_dir_at_1(self):
        assert abs(neu_dir_transfer(1.0) - 1.0 / math.sinh(1.0)) < 1e-14

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_laplace_oracle(self, s):
        got = neu_dir_transfer(s)
        want = kernel_laplace_quadrature(s)
        assert abs(got - want) < 1e-8 * abs(want)

    def test_closed_forms_consistent(self):
        s = 2.3 + 1.1j
        w = cmath.sqrt(s)
        assert abs(neu_dir_transfer(s) - 1.0 / (w * cmath.sinh(w))) < 1e-13

    def test_large_s_no_overflow(self):
        v = neu_dir_transfer(1e6 + 1e6j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_domain(self):
        with pytest.raises(ValueError):
            neu_dir_transfer(-1.0)
