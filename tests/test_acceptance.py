"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every stated tolerance is asserted directly.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import gammaln

from heatflat import flatness, gevrey, heatsim, holo, numkit, plancherel
from oracles import kernel_laplace_quadrature, neu_dir_transfer

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def report(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_kernel_duality():
    t0 = time.perf_counter()
    t = np.geomspace(0.01, 10.0, 200)
    e = heatsim.kernel_k(t, "eigen")
    p = heatsim.kernel_k(t, "poisson")
    gap = float(np.max(np.abs(e - p) / np.abs(p)))
    dt = time.perf_counter() - t0
    report(1, "kernel duality", gap < 1e-10 and dt < 1.0,
           f"max relative gap {gap:.3e} (< 1e-10), runtime {dt:.2f}s (< 1 s)")


def test_02_transfer_identity():
    worst = 0.0
    for s in (0.5, 1.0, 2.0, 5.0):
        closed = neu_dir_transfer(s)
        quad = kernel_laplace_quadrature(s)
        worst = max(worst, abs(closed - quad) / abs(quad))
    report(2, "transfer identity", worst < 1e-8,
           f"max |closed - Laplace quadrature| relative {worst:.3e} (< 1e-8)")


def test_03_tracking():
    t0 = time.perf_counter()
    cfg = heatsim.SimConfig(J=128, dt=1e-3, T=1.0)
    target = gevrey.bump_gevrey(1.5, t_scale=0.2, grid=cfg.time_grid())
    err25 = flatness.tracking_experiment(target, cfg, K=25).max_error
    err10 = flatness.tracking_experiment(target, cfg, K=10).max_error
    dt = time.perf_counter() - t0
    ok = err25 < 1e-4 and err10 >= 10.0 * err25 and dt < 30.0
    report(3, "tracking", ok,
           f"err(K=25) {err25:.3e} (< 1e-4), shrink x{err10 / err25:.1f} (>= 10), "
           f"runtime {dt:.1f}s (< 30 s)")


def test_04_plancherel_ratio():
    p = gevrey.GevreyParams(2.0, 0.5, 0.0)
    grid = np.linspace(-14, 14, 2049)
    family = [
        gevrey.gaussian_signal(0.0, 1.0),
        gevrey.gaussian_signal(2.0, 0.7),
        gevrey.gaussian_signal(-1.0, 1.4),
        gevrey.two_sided_bump(0.0, 3.0, 1.5),
        gevrey.two_sided_bump(1.0, 2.0, 1.5),
        gevrey.two_sided_bump(0.0, 2.5, 2.0),
        gevrey.gaussian_signal(0.0, 1.0, grid=grid) + gevrey.gaussian_signal(2.0, 0.7, grid=grid),
        gevrey.gaussian_signal(-1.0, 1.4, grid=grid) + gevrey.two_sided_bump(1.0, 2.0, 1.5, grid=grid),
    ]
    assert len(family) >= 8
    ratios = []
    for sig in family:
        tn = gevrey.gevrey_norm_time(sig, p, 16)
        fn = gevrey.weighted_fourier_norm(sig, p)
        ratios.append(fn / tn.total)
    chat = max(max(ratios), 1.0 / min(ratios))
    report(4, "plancherel ratio", chat <= 50.0,
           f"{len(family)} signals, ratio band [{min(ratios):.3f}, {max(ratios):.3f}], "
           f"C_hat = {chat:.2f} (<= 50)")


def test_05_An_asymptotics():
    t0 = time.perf_counter()
    p = gevrey.GevreyParams(2.0, 1.0, -0.5)  # alpha = 4, beta = 1
    N = 2000
    logA = plancherel.convolution_An(p, N)
    n = np.arange(50, N + 1)
    logpred = 4.0 * n * (np.log(2 * math.e) - np.log(4.0 * n)) + (-2.5) * np.log(n)
    ratio = np.exp(logA[50:] - logpred)
    band = float(ratio.max() / ratio.min())
    dt = time.perf_counter() - t0
    report(5, "A_n asymptotics", band <= 10.0 and dt < 10.0,
           f"band width factor {band:.3f} (<= 10) over n in [50, 2000], runtime {dt:.1f}s (< 10 s)")


def test_06_discrete_laplace_and_theta():
    logs = []
    for n in (100, 1000, 10000):
        dps = int(0.25 * n / math.log(10)) + 40
        r = plancherel.discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, n, dps=dps)
        logs.append(r.log10_rel_err)
    ok_quad = logs[-1] < -2.0 and logs[0] > logs[1] > logs[2]
    th = numkit.theta_gauss_sum(100, 2.0, 0.5)
    ok_theta = th.c_uniform < 10.0
    report(6, "discrete Laplace + theta", ok_quad and ok_theta,
           f"quadratic log10 rel_err {[round(l, 1) for l in logs]} decreasing, "
           f"final < -2; theta gap constant C = {th.c_uniform:.2f} (< 10) "
           f"against exp(-2 n pi^2/a)")


def test_07_counterexample():
    rep = holo.interpolation_counterexample(1000)
    ok = (-1.6 <= rep.residual_exponent <= -1.4
          and rep.trackability_class == "divergent")
    report(7, "interpolation counterexample", ok,
           f"residual exponent {rep.residual_exponent:.3f} (in [-1.6, -1.4]), "
           f"membership series classified {rep.trackability_class} "
           f"(slope {rep.trackability_slope:.2f})")


def test_08_radius_recovery():
    res = {}
    for name, seq in (("geometric", holo.CoeffSeq.geometric(1.0, 700)),
                      ("sharp_radius", holo.CoeffSeq.sharp_radius(700))):
        lo, hi = holo.radius_Ra(seq, tol=0.01)
        res[name] = (lo, hi)
    ok = all(INV_SQRT2 - 0.02 <= lo and hi <= INV_SQRT2 + 0.02 for lo, hi in res.values())
    report(8, "radius recovery", ok,
           f"brackets {({k: (round(v[0], 4), round(v[1], 4)) for k, v in res.items()})} "
           f"within 1/sqrt2 +- 0.02")


def test_09_loss_factor_table():
    rows = holo.loss_factors([1.5, 2.0, 2.5, 2.9, 3.2, 4.5, 6.0])
    r2 = [r for r in rows if r["s"] == 2.0][0]
    ok = abs(r2["rho_s"] - 0.7071067811865476) < 1e-12
    # rho^MRR = exp(-1/(2e)) = 0.8319859... ~ 0.832 > 0.707
    ok = ok and abs(r2["rho_mrr"] - math.exp(-1.0 / (2 * math.e))) < 1e-12
    ok = ok and round(r2["rho_mrr"], 3) == 0.832
    ok = ok and all(r["sign"] > 0 for r in rows if r["s"] < 3.0)
    ok = ok and all(r["sign"] < 0 for r in rows if r["s"] > 4.0)
    cross = holo.loss_crossover()
    ok = ok and 3.0 < cross < 4.0
    report(9, "loss-factor table", ok,
           f"rho_2 = {r2['rho_s']:.10f}, rho_mrr = {r2['rho_mrr']:.7f}, "
           f"signs + on (1,3) / - above 4, crossover s = {cross:.10f} in (3,4)")


def test_10_mittag_type_imaginary():
    y = np.exp(np.linspace(2 * math.log(15.0), 2 * math.log(25.0), 12))
    fit = numkit.mittag_type_imaginary(2.0, y)
    target = math.cos(math.pi / 4.0)
    ok = abs(fit.type_fitted - target) <= 0.01
    report(10, "Mittag-Leffler imaginary type", ok,
           f"fitted type {fit.type_fitted:.6f} vs cos(pi/4) = {target:.6f} (+- 0.01)")
