import cmath
import math
import time

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from heatflat.heatsim import (
    DIR_DIR,
    DIR_NEU,
    NEU_DIR,
    NEU_NEU,
    SimConfig,
    TransferKind,
    interior,
    kernel_k,
    kernel_laplace_quadrature,
    omega_characterization,
    omega_log,
    simulate,
    transfer,
)


class TestKernel:
    def test_cross_representation_at_03(self):
        e = kernel_k(0.3, "eigen")
        p = kernel_k(0.3, "poisson")
        assert abs(e - p) < 1e-12 * abs(p)

    def test_large_t_plateau(self):
        assert abs(kernel_k(10.0) - 1.0) < 1e-14

    def test_flat_at_zero(self):
        # k(0.01) = 2 (pi 0.01)^{-1/2} e^{-25} = 1.5668e-10: flat at 0+;
        # assert the decade rather than a rounded bound
        v = kernel_k(0.01)
        assert 1e-11 < v < 2e-10
        assert kernel_k(0.005) < 1e-17

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

    def test_auto_matches_branches(self):
        for t in (0.05, 0.31, 0.33, 2.0):
            a = kernel_k(t, "auto")
            b = kernel_k(t, "poisson" if t < 1 / math.pi else "eigen")
            assert a == b
        t = np.geomspace(1e-3, 10.0, 301)
        small = t < 1 / math.pi
        want = np.where(small, kernel_k(t, "poisson"), kernel_k(t, "eigen"))
        assert np.array_equal(kernel_k(t, "auto"), want)

    def test_auto_evaluates_only_the_chosen_branch(self):
        # the eigen sum at t = 1e-20 would take about 2e10 terms
        t0 = time.perf_counter()
        assert kernel_k(1e-20, "auto") == kernel_k(1e-20, "poisson")
        assert time.perf_counter() - t0 < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            kernel_k(0.0)
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
    @pytest.mark.parametrize("J, dt, T", [
        (128, 1e-3, 0.193),  # 193 steps: a full block, then 65 = 2^6 + 1
        (128, 2.5e-4, 0.3),
        (128, 1e-4, 0.3),
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
            want = quad(lambda s: kernel_k(s), 0, t, limit=200, epsabs=1e-11)[0]
            got = res.y[int(round(t / cfg.dt))]
            assert abs(got - want) < 1e-6 * max(abs(want), 1e-3)

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

    def test_signal_input(self):
        from heatflat.gevrey import bump_gevrey

        cfg = SimConfig(J=64, dt=1e-3, T=1.0)
        sig = bump_gevrey(1.5, t_scale=0.3, grid=cfg.time_grid())
        r1 = simulate(sig, cfg)
        r2 = simulate(np.asarray(sig.values, dtype=float), cfg)
        assert np.array_equal(r1.y, r2.y)

    def test_T_must_be_a_multiple_of_dt(self):
        with pytest.raises(ValueError, match="multiple of dt"):
            SimConfig(dt=0.3, T=1.0)  # the grid would stop at 0.9
        for dt in (1e-3, 5e-4, 2.5e-4, 2e-4, 1e-4):  # the refinement ladder
            grid = SimConfig(dt=dt, T=1.0).time_grid()
            assert grid[-1] == pytest.approx(1.0, abs=1e-12)


class TestTransfer:
    def test_neu_dir_at_1(self):
        assert abs(transfer(NEU_DIR, 1.0) - 1.0 / math.sinh(1.0)) < 1e-14

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 5.0])
    def test_laplace_oracle(self, s):
        got = transfer(NEU_DIR, s)
        want = kernel_laplace_quadrature(s)
        assert abs(got - want) < 1e-8 * abs(want)

    def test_neu_neu_bounded_on_right_half_plane(self):
        rng = np.random.default_rng(2)
        re = rng.uniform(1e-3, 50.0, 100)
        im = rng.uniform(-50.0, 50.0, 100)
        vals = transfer(NEU_NEU, re + 1j * im)
        assert np.max(np.abs(vals)) <= 1.1

    def test_closed_forms_consistent(self):
        s = 2.3 + 1.1j
        w = cmath.sqrt(s)
        assert abs(transfer(NEU_DIR, s) - 1.0 / (w * cmath.sinh(w))) < 1e-13
        assert abs(transfer(NEU_NEU, s) - 1.0 / cmath.cosh(w)) < 1e-13
        assert abs(transfer(DIR_NEU, s) - w / cmath.sinh(w)) < 1e-13
        assert abs(transfer(DIR_DIR, s) - 1.0 / cmath.cosh(w)) < 1e-13
        x0 = 0.37
        assert abs(transfer(interior(x0), s)
                   - cmath.cosh(w * x0) / (w * cmath.sinh(w))) < 1e-13

    def test_large_s_no_overflow(self):
        v = transfer(NEU_DIR, 1e6 + 1e6j)
        assert np.isfinite(v.real) and np.isfinite(v.imag)

    def test_domain(self):
        with pytest.raises(ValueError):
            transfer(NEU_DIR, -1.0)
        with pytest.raises(ValueError):
            TransferKind("InteriorX0", 1.5)
        with pytest.raises(ValueError):
            TransferKind("NeuDir", 0.5)


class TestOmega:
    def test_neu_dir_at_zero(self):
        assert omega_characterization(0.0, NEU_DIR) == 1.0

    def test_band_against_phi(self):
        # |phi(i xi)| / omega(xi) in [1/c, c], c < 10, phi = sinh(sqrt s)/sqrt s
        xi = np.geomspace(1.0, 1e6, 200)
        w = np.sqrt(1j * xi)
        log_phi = np.log(np.abs(np.sinh(w))) - 0.5 * np.log(xi)
        # scaled form for large arguments
        big = w.real > 30
        log_phi[big] = (w.real[big] + np.log(np.abs(1 - np.exp(-2 * w[big])) / 2.0)
                        - 0.5 * np.log(xi[big]))
        ratio = log_phi - omega_log(xi, NEU_DIR)
        assert np.max(np.abs(ratio)) < math.log(10.0)

    def test_interior_consistency_x0_to_0(self):
        xi = np.array([4.0, 100.0, 1e4])
        near = omega_log(xi, TransferKind("InteriorX0", 1e-9))
        neu = np.sqrt(xi / 2.0) - np.log1p(np.sqrt(xi))
        assert np.allclose(near, neu, rtol=1e-6)

    def test_interior_band_against_psi(self):
        # psi(s) = sinh(sqrt s)/(sqrt s cosh(sqrt s x0)): |psi(i xi)| tracks
        # the interior weight within a fixed multiplicative band
        x0 = 0.37
        xi = np.geomspace(1.0, 1e6, 150)
        w = np.sqrt(1j * xi)
        # scaled log forms, stable for large |w|
        log_sinh = w.real + np.log(np.abs(1 - np.exp(-2 * w)) / 2.0)
        log_cosh = w.real * x0 + np.log(np.abs(1 + np.exp(-2 * w * x0)) / 2.0)
        log_psi = log_sinh - 0.5 * np.log(xi) - log_cosh
        ratio = log_psi - omega_log(xi, TransferKind("InteriorX0", x0))
        assert np.max(np.abs(ratio)) < math.log(10.0)

    def test_gamma_classes(self):
        xi = 100.0
        assert abs(omega_log(xi, NEU_NEU) - math.sqrt(xi / 2.0)) < 1e-12
        assert abs(omega_log(xi, DIR_NEU)
                   - (math.sqrt(xi / 2.0) - 0.5 * math.log1p(xi))) < 1e-12
