"""Batch experiment runner: one subcommand per acceptance experiment.

Usage: heatflat <subcommand> [--config PATH] [--out DIR] [--assert]

Each subcommand reads an optional JSON config ({"schema": 1, ...}), writes
CSV/JSON results with 17 significant digits, and -- with --assert -- exits
nonzero when its acceptance threshold is violated.  Unknown keys, values of the
wrong kind, numbers not finite or beyond the float range, fractions where the
default is an integer, and values outside the range RULES declares for their
key are rejected before any work: one ERROR line names the key, exit code 2.
All computations are deterministic (fixed summation orders), so re-running
with an identical config reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import os
import sys

import numpy as np

from . import flatness, gevrey, heatsim, holo, numkit, plancherel
from .numkit import write_csv as _write_csv


def _kind(v) -> str:
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return "number"
    if isinstance(v, list):
        return "list[" + "|".join(sorted({_kind(x) for x in v})) + "]"
    return "string" if isinstance(v, str) else type(v).__name__


def _integral(v) -> bool:
    return isinstance(v, int) or float(v).is_integer()


def _numbers(v) -> list:
    """The numbers in a config value, at any depth of a list."""
    if isinstance(v, list):
        return [x for item in v for x in _numbers(item)]
    return [v] if _kind(v) == "number" else []


def _load_config(path, defaults: dict, rules: dict) -> dict:
    cfg = dict(defaults)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except (OSError, ValueError) as e:  # JSON and UTF-8 decode errors are ValueErrors
            raise ValueError(f"cannot read config {path}: {e}") from None
        if not isinstance(user, dict) or user.get("schema") != 1:
            raise ValueError("config must be a JSON object carrying \"schema\": 1")
        if unknown := set(user) - set(defaults) - {"schema"}:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for k in sorted(set(user) - {"schema"}):
            d, v = defaults[k], user[k]
            if _kind(v) != _kind(d):
                raise ValueError(f"config key {k!r} must be a {_kind(d)}, not a {_kind(v)}")
            # integer keys, and the all-integer lists n_quadratic and n_logh, take
            # integral values only, and integral floats such as 25.0 become ints
            if isinstance(d, int) or (isinstance(d, list) and all(isinstance(x, int) for x in d)):
                if bad := [x for x in (v if isinstance(v, list) else [v]) if not _integral(x)]:
                    raise ValueError(f"config key {k!r} takes integers only, got {bad[0]!r}")
                user[k] = [int(x) for x in v] if isinstance(v, list) else int(v)
            # json reads NaN, Infinity, -Infinity and integers of any size
            if not all(abs(x) <= sys.float_info.max for x in _numbers(user[k])):
                raise ValueError(f"config key {k!r} takes finite numbers within the float "
                                 "range only")
        cfg.update({k: v for k, v in user.items() if k != "schema"})
    for key, rule in ((k, r) for k, rs in rules.items() for r in rs):
        if broken := _broken(rule, cfg[key], cfg):
            raise ValueError(f"{key} {broken}")
    return cfg


_OPS = {">": (operator.gt, "be >"), ">=": (operator.ge, "be at least"), "<": (operator.lt, "be <"),
        "<=": (operator.le, "be at most"), "in": (lambda x, allowed: x in allowed, "be")}


def _broken(rule, v, cfg):
    """What follows the key in the ERROR line when its value v breaks rule, else None."""
    show = lambda x: format(x, "g") if isinstance(x, float) else repr(x)
    if callable(rule):
        return rule(v, cfg) or None
    op, lim, must, cost = (*rule, None, None)[:4]
    lim = lim(cfg) if callable(lim) else lim
    for x in v if isinstance(v, list) else [v]:
        n = cost(x, cfg) if cost else x
        if not _OPS[op][0](n, lim):
            if cost:
                return (f"{'entry' if isinstance(v, list) else '='} {show(x)} needs {n:g} "
                        f"{must.format(**cfg)}, above the cap of {lim}")
            must = must.format(**cfg) if must else f"{_OPS[op][1]} " + (
                " or ".join(map(repr, lim)) if op == "in" else show(lim))
            return f"{'entries ' * isinstance(v, list)}must {must}, got {show(x)}"
    return None


# subcommand implementations: each returns (ok, message)
def run_kernel_check(cfg, out):
    t = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["n_points"])
    ke, kp = heatsim.kernel_k(t, "eigen"), heatsim.kernel_k(t, "poisson")
    gap = np.abs(ke - kp) / np.abs(kp)
    _write_csv(os.path.join(out, "kernel_check.csv"), ["t", "eigen", "poisson", "rel_gap"],
               np.column_stack((t, ke, kp, gap)))
    mx = float(gap.max())
    return mx < cfg["threshold"], f"max relative gap {mx:.3e} (threshold {cfg['threshold']:g})"


def run_track(cfg, out):
    """Track the target at K, and at K_low when set, on one time grid.

    Both experiments read one derivative table of rows 0..max(K, K_low) on
    that grid, computed once: the target's samples and the two controls are
    slices of it, which are bit for bit the tables a fresh target would give
    (a provider's row n does not depend on the table's size).  The flatness
    check at t = 0 goes to the target's own provider.
    """
    sim_cfg = heatsim.SimConfig(J=int(cfg["J"]), dt=cfg["dt"], T=cfg["T"])
    tgrid = sim_cfg.time_grid()
    derivs = (gevrey.bump_derivs(cfg["gamma_exp"], t_scale=cfg["t_scale"])
              if cfg["target"] == "bump" else lambda N, t: np.zeros((N + 1, len(t))))
    with np.errstate(over="ignore", invalid="ignore"):  # flat_control names a row that overflows
        table = derivs(max(int(cfg["K"]), int(cfg["K_low"])), tgrid)

    def shared(N, t):
        if N < len(table) and np.array_equal(t, tgrid):
            return table[:N + 1]
        return derivs(N, t)

    y = gevrey.Signal(tgrid, None, derivs=shared)
    res = flatness.tracking_experiment(y, sim_cfg, K=int(cfg["K"]))
    res.to_csv(os.path.join(out, "track.csv"))
    ok = res.max_error < cfg["threshold"]
    msg = f"max tracking error {res.max_error:.3e} (threshold {cfg['threshold']:g})"
    if cfg["K_low"]:
        res_lo = flatness.tracking_experiment(y, sim_cfg, K=int(cfg["K_low"]))
        if res.max_error == 0.0:  # nothing left to shrink
            msg += f"; K={cfg['K_low']} -> K={cfg['K']}: exact at K={cfg['K']}"
        else:
            ratio = res_lo.max_error / max(res.max_error, 1e-300)
            ok = ok and ratio >= cfg["shrink_factor"]
            msg += f"; K={cfg['K_low']} -> K={cfg['K']} error shrink x{ratio:.1f}"
    return ok, msg


def _ratio_family():
    g, b, grid = gevrey.gaussian_signal, gevrey.two_sided_bump, np.linspace(-14, 14, 2049)
    return [g(0.0, 1.0), g(2.0, 0.7), g(-1.0, 1.4), b(0.0, 3.0, 1.5), b(1.0, 2.0, 1.5),
            b(0.0, 2.5, 2.0), g(0.0, 1.0, grid=grid) + g(2.0, 0.7, grid=grid),
            g(-1.0, 1.4, grid=grid) + b(1.0, 2.0, 1.5, grid=grid)]


def run_plancherel_ratio(cfg, out):
    p = gevrey.GevreyParams(cfg["s"], cfg["R"], cfg["gamma"])
    rows, unconverged, unresolved, above_s = [], [], [], []
    for sig in _ratio_family():
        name = sig.family + json.dumps(sig.params, sort_keys=True).replace(",", ";")
        tn = gevrey.gevrey_norm_time(sig, p, int(cfg["N"]))
        fn = gevrey.weighted_fourier_norm(sig, p)
        rows.append((name, tn.total, fn, fn / tn.total))
        if not tn.converged:
            unconverged.append(name)
        if not tn.quadrature_ok:
            unresolved.append(name)
        if (gevrey.nominal_order(sig.descriptor()) or 0.0) > cfg["s"]:
            above_s.append(name)
    _write_csv(os.path.join(out, "plancherel_ratio.csv"),
               ["signal", "time_norm", "fourier_norm", "ratio"], rows)
    # max and min skip a NaN that does not come first, so check every row
    bad = [r[0] for r in rows if not all(math.isfinite(v) for v in r[1:])]
    fails = [f"{what} for {', '.join(names)}" for what, names in (
        ("non-finite norm or ratio", bad),
        ("time norm series not converged", unconverged),
        ("time norm quadrature not converged", unresolved)) if names]
    if fails:
        return False, "; ".join(fails)
    # a nominal order above s means infinite norms, which N rows on a grid may not show
    if above_s:
        return False, f"nominal Gevrey order above s = {cfg['s']:g} for {', '.join(above_s)}"
    ratios = [r[3] for r in rows]
    chat = max(max(ratios), 1.0 / min(ratios))
    # .2f from 1e6 up grows with the exponent: about 300 digits at s = 1e300
    shown = f"{chat:.2f}" if chat < 1e6 else f"{chat:.3e}"
    return chat <= cfg["c_hat"], f"ratio band needs C_hat = {shown} (allowed {cfg['c_hat']:g})"


def run_an_asymptotics(cfg, out):
    p = gevrey.GevreyParams(cfg["s"], 1.0, cfg["gamma"])
    alpha, beta = plancherel.varpi_params(p)
    N = int(cfg["n_max"])
    logA = plancherel.convolution_An(p, N)
    n = np.arange(1, N + 1)
    logpred = alpha * n * (np.log(2.0 * math.e) - np.log(alpha * n)) + (-2 * beta - 0.5) * np.log(n)
    log_ratio = logA[1:] - logpred
    # n <= MAX_AN_TERMS goes as a float, which %.17g writes with the digits of the integer;
    # a ratio beyond the float range is written as inf
    with np.errstate(over="ignore"):
        ratio = np.exp(log_ratio)
    _write_csv(os.path.join(out, "an_asymptotics.csv"), ["n", "log_An", "log_pred", "ratio"],
               np.column_stack((n, logA[1:], logpred, ratio)))
    # the band from the log ratios: the ratios themselves underflow long before it leaves
    # the float range
    lr = log_ratio[n >= int(cfg["n_min"])]
    width = float(lr.max() - lr.min())
    span = f"over n in [{cfg['n_min']}, {N}]"
    if not width <= math.log(sys.float_info.max):  # NaN too
        return False, (f"A_n/prediction band factor e^{width:.4g} {span} is beyond the float "
                       f"range (log ratio from {lr.min():.6g} to {lr.max():.6g})")
    band = math.exp(width)
    return band <= cfg["band_factor"], (
        f"A_n/prediction band factor {band:.4g} {span} (allowed {cfg['band_factor']:g})")


def _log10_truncation_law(n: int) -> float:
    """log10 of 2 e^{-n/4} / ((e - 1) sqrt(pi n)), the error of the quadratic case."""
    return (math.log10(2.0) - n / (4.0 * math.log(10.0)) - math.log10(math.e - 1.0)
            - 0.5 * math.log10(math.pi * n))


def _log_h(alpha):
    """u = alpha (x log x + (1 - x) log(1 - x)) on an array: 0.0 outside (0, 1)."""
    def u(x):
        x = np.asarray(x, float)
        v, inside = np.zeros_like(x), (0 < x) & (x < 1)
        xi = x[inside]
        v[inside] = alpha * (xi * np.log(xi) + (1 - xi) * np.log(1 - xi))
        return v
    return u


def run_laplace_discrete(cfg, out):
    rows, log_rels = [], []
    for n in cfg["n_quadratic"]:
        # the dual form resolves the error at a fixed 40 digits, whatever n
        r = plancherel.discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, int(n), dps=40)
        log_rels.append(r.log10_rel_err)
        rows.append(("quadratic", n, r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err,
                     _log10_truncation_law(int(n))))
    ok = log_rels[-1] < math.log10(cfg["threshold"])
    ok = ok and all(b < a for a, b in zip(log_rels, log_rels[1:]))
    alpha = cfg["alpha"]
    for n in cfg["n_logh"]:
        r = plancherel.discrete_laplace(_log_h(alpha), 4.0 * alpha, 0.5, int(n))
        rows.append(("log_h", n, r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err, ""))
        if n >= 2000:
            ok = ok and r.rel_err < 5e-2
    _write_csv(os.path.join(out, "laplace_discrete.csv"),
               ["case", "n", "log_sum", "log_prediction", "rel_err", "log10_rel_err",
                "log10_truncation_law"], rows)
    return ok, (f"quadratic log10 rel_err sequence {[round(l, 1) for l in log_rels]}, "
                f"decreasing and below log10({cfg['threshold']:g})")


def run_theta_identity(cfg, out):
    rows, worst = [], 0.0
    for n, a, b in cfg["cases"]:
        r = numkit.theta_gauss_sum(int(n), a, b)
        rows.append((int(n), a, b, r.sum, r.predicted, r.log10_gap, r.log10_bound, r.c_uniform))
        worst = max(worst, r.c_uniform)
    _write_csv(os.path.join(out, "theta_identity.csv"),
               ["n", "a", "b", "sum", "predicted", "log10_gap", "log10_bound", "c_uniform"], rows)
    return worst < cfg["c_max"], f"uniform constant {worst:.3f} (allowed {cfg['c_max']:g})"


_SEQUENCES = {"geometric": lambda: holo.CoeffSeq.geometric(1.0, 700),
              "sharp_radius": lambda: holo.CoeffSeq.sharp_radius(700)}


def run_bergman_radius(cfg, out):
    target, rows, ok = 1.0 / math.sqrt(2.0), [], True
    for name in cfg["sequences"]:
        lo, hi = holo.radius_Ra(_SEQUENCES[name](), tol=cfg["tol"])
        rows.append((name, lo, hi))
        ok = ok and (target - cfg["window"] <= lo) and (hi <= target + cfg["window"])
    _write_csv(os.path.join(out, "bergman_radius.csv"), ["sequence", "R_lo", "R_hi"], rows)
    return ok, f"brackets {rows} vs 1/sqrt2 +- {cfg['window']:g}"


def run_counterexample(cfg, out):
    rep = holo.interpolation_counterexample(int(cfg["N"]))
    with open(os.path.join(out, "counterexample.json"), "w") as f:
        f.write(json.dumps(vars(rep)))
    ok = (cfg["exponent_lo"] <= rep.residual_exponent <= cfg["exponent_hi"]
          and rep.trackability_class == "divergent" and math.isfinite(rep.growth_sup))
    return ok, (f"residual exponent {rep.residual_exponent:.3f}, trackability "
                f"{rep.trackability_class}, growth sup {rep.growth_sup:.3f}")


def run_loss_table(cfg, out):
    rows = holo.loss_factors(cfg["s_grid"])
    _write_csv(os.path.join(out, "loss_table.csv"), ["s", "rho_s", "Gamma_s", "rho_mrr", "sign"],
               [(r["s"], r["rho_s"], r["Gamma_s"], r["rho_mrr"], r["sign"]) for r in rows])
    cross = holo.loss_crossover()
    ok = (all(r["sign"] > 0 for r in rows if 1 < r["s"] < 3) and 3.0 < cross < 4.0
          and all(r["sign"] < 0 for r in rows if r["s"] > 4)
          and all(abs(r["rho_s"] - 0.7071067811865476) < 1e-12
                  and abs(r["rho_mrr"] - 0.8319859539411386) < 1e-12
                  for r in rows if r["s"] == 2.0))
    return ok, f"crossover at s = {cross:.6f}; rho_2 = {1/math.sqrt(2):.7f}, mrr = {math.exp(-1/(2*math.e)):.7f}"


def run_fourier_decay(cfg, out):
    rows, fails = [], []
    for gamma_exp in cfg["gamma_exps"]:
        s_nom = 1.0 + 1.0 / gamma_exp
        sig = gevrey.two_sided_bump(0.0, cfg["halfwidth"], gamma_exp)
        fit = gevrey.fourier_decay_fit(sig, s_nom)
        name = f"bump({gamma_exp})"
        rows.append((name, s_nom, fit.delta, fit.residual_rms, int(fit.mismatch)))
        if not fit.delta > 0:  # NaN fails too
            fails.append(f"{name} delta {fit.delta:.3g} not positive")
        if fit.mismatch:
            fails.append(f"{name} flagged as mismatch")
    grid = np.linspace(-10, 10, 2049)
    gc = gevrey.product_signal(gevrey.gaussian_signal(0.0, 1.0, grid=grid),
                               gevrey.two_sided_bump(0.0, 9.0, 2.0, grid=grid))
    fit = gevrey.fourier_decay_fit(gc, 1.0)
    rows.append(("gaussian-vs-s1", 1.0, fit.delta, fit.residual_rms, int(fit.mismatch)))
    if not fit.mismatch:
        fails.append("gaussian not flagged as mismatch for s=1")
    _write_csv(os.path.join(out, "fourier_decay.csv"),
               ["signal", "s_nominal", "delta", "residual_rms", "mismatch"], rows)
    if fails:
        return False, "; ".join(fails)
    return True, "bump fits positive and clean; gaussian flagged as mismatch for s=1"


def run_mittag_type(cfg, out):
    (lo, hi), rows, ok = cfg["x_range"], [], True
    for beta in cfg["betas"]:
        y = np.exp(np.linspace(beta * math.log(lo), beta * math.log(hi), int(cfg["n_points"])))
        fit = numkit.mittag_type_imaginary(beta, y)
        target = math.cos(math.pi / (2.0 * beta))
        rows.append((beta, fit.type_fitted, target, abs(fit.type_fitted - target)))
        ok = ok and abs(fit.type_fitted - target) < cfg["tolerance"]
    _write_csv(os.path.join(out, "mittag_type.csv"),
               ["beta", "fitted_type", "expected", "abs_diff"], rows)
    return ok, f"fitted types {[(r[0], round(r[1], 6)) for r in rows]}"


SUBCOMMANDS = {
    "kernel-check": (run_kernel_check, {"t_min": 0.01, "t_max": 10.0, "n_points": 200,
                                        "threshold": 1e-10}),
    "track": (run_track, {"target": "bump", "gamma_exp": 1.5, "t_scale": 0.2, "K": 25,
                          "K_low": 10, "J": 128, "dt": 1e-3, "T": 1.0, "threshold": 1e-4,
                          "shrink_factor": 10.0}),
    "plancherel-ratio": (run_plancherel_ratio, {"s": 2.0, "R": 0.5, "gamma": 0.0, "N": 16,
                                                "c_hat": 50.0}),
    "an-asymptotics": (run_an_asymptotics, {"s": 2.0, "gamma": -0.5, "n_min": 50,
                                            "n_max": 2000, "band_factor": 10.0}),
    "laplace-discrete": (run_laplace_discrete, {"n_quadratic": [100, 1000, 10000],
                                                "n_logh": [500, 2000], "alpha": 4.0,
                                                "threshold": 1e-2}),
    "theta-identity": (run_theta_identity, {"cases": [[100, 2.0, 0.5], [50, 1.0, 0.25],
                                                      [200, 3.0, 0.7]], "c_max": 10.0}),
    "bergman-radius": (run_bergman_radius, {"sequences": ["geometric", "sharp_radius"],
                                            "tol": 0.01, "window": 0.02}),
    "counterexample": (run_counterexample, {"N": 1000, "exponent_lo": -1.6, "exponent_hi": -1.4}),
    "loss-table": (run_loss_table, {"s_grid": [1.5, 2.0, 3.0, 5.0]}),
    "fourier-decay": (run_fourier_decay, {"gamma_exps": [1.0, 1.5], "halfwidth": 1.0}),
    "mittag-type": (run_mittag_type, {"betas": [2.0, 3.0], "x_range": [15.0, 25.0],
                                      "n_points": 12, "tolerance": 0.01}),
}

_K_LOW, _N_MIN = "be 0 (no comparison) or lie in [1, K = {K})", "lie in [1, n_max = {n_max}]"
_DPS = "digits of working precision"
# the bound on alpha n_max and on beta: once both reach 8.54e304, the convolution's sum of two
# log Gamma values of the coefficients leaves the float range
_AN_PRODUCT = 5e304
# the least width of a fourier-decay bump's central spike, halfwidth^(1 + g/2)/sqrt(2 g (g + 1))
# for gamma_exp g (its curvature at the peak), over halfwidth: 1.32 steps of the bump's grid.
# Narrower, the spectrum's decay window closed ("decay window too small"), last at 0.0025783 for
# g = 250, the gamma_exps bound
_SPIKE = 0.00258

# Every config key's range, checked in order before any work; [] leaves a threshold open (README's
# "Config ranges" gives what each limit rests on).  A rule is (op, limit[, must[, cost]]): x, each
# entry of a list, or cost(x, config) op limit (a number or a function of the config), where must
# (formatted with the config) replaces "be <op> <limit>" or names what cost counts; or a function.
RULES = {
    "kernel-check": {
        "t_min": [(">=", 3.51e-4, "be at least 3.51e-4, where k(t) leaves the normal float range")],
        "n_points": [(">=", 2), ("<=", 10_000)], "threshold": [],
        "t_max": [(">", lambda c: c["t_min"], "exceed t_min = {t_min:g}"),
                  ("<=", 10**6, "Poisson terms over {n_points} points",
                   lambda t, c: c["n_points"] * heatsim._poisson_terms(t))]},
    "track": {
        "target": [("in", ("bump", "zero"))], "gamma_exp": [(">", 0)], "T": [(">", 0)],
        "t_scale": [(">", 0, "be finite and > 0")], "J": [(">=", 1), ("<=", 65536)],
        "dt": [(">", 0), ("<=", heatsim.MAX_STEPS, "time steps over T = {T:g}",
                          lambda dt, c: c["T"] / dt),
               lambda dt, c: not heatsim._whole_steps(c["T"], dt) and (
                   f"must divide T = {c['T']:g} into whole steps, got {dt:g}")],
        "K": [(">=", 1), ("<=", 10**9, "steps of the target's derivative recurrence",
                          lambda K, c: (K + 1.0) * (K + 1.0) * (round(c["T"] / c["dt"]) + 1))],
        "K_low": [(">=", 0, _K_LOW), ("<", lambda c: c["K"], _K_LOW)],
        "threshold": [], "shrink_factor": []},
    "plancherel-ratio": {"s": [(">=", 1)], "R": [(">", 0)], "gamma": [(">=", -300), ("<=", 200)],
                         "N": [(">=", 1), ("<=", 512)], "c_hat": []},
    "an-asymptotics": {"s": [(">", 0), ("<=", _AN_PRODUCT, "as alpha n_max = 2 s n_max",
                                        lambda s, c: 2.0 * s * c["n_max"])],
                       "gamma": [("<", 0), ("<=", _AN_PRODUCT, "as beta = -gamma s",
                                            lambda g, c: -g * c["s"])], "band_factor": [],
                       "n_max": [(">=", 1), ("<=", plancherel.MAX_AN_TERMS)],
                       "n_min": [(">=", 1, _N_MIN), ("<=", lambda c: c["n_max"], _N_MIN)]},
    "laplace-discrete": {
        "n_quadratic": [(">=", 2), ("<=", plancherel.MAX_LAPLACE_N)],
        "n_logh": [(">=", 2), ("<=", plancherel.MAX_LAPLACE_N)],
        "alpha": [(">=", 1.6e-14, "be at least 1.6e-14, below which log h spans under 1e-14 "
                                  "on the grid of n = 3 and reads as constant"), ("<=", 1e300)],
        "threshold": [(">", 0)]},
    "theta-identity": {"c_max": [], "cases": [
        lambda v, c: any(len(e) != 3 for e in v) and f"entries must be [n, a, b] triples, got {v}",
        lambda v, c: next((f"entries need an integer n, got {e[0]!r}"
                           for e in v if not _integral(e[0])), None),
        lambda v, c: next((f"entries need n >= 1 and a > 0, got {e}"
                           for e in v if not (e[0] >= 1 and e[1] > 0)), None),
        ("<=", numkit.MAX_DPS, _DPS, lambda e, c: numkit._theta_digits(e[0], e[1]))]},
    "bergman-radius": {"sequences": [("in", _SEQUENCES)], "tol": [(">", 1e-4)], "window": []},
    "counterexample": {"N": [(">=", 100), ("<=", 10**6)], "exponent_lo": [], "exponent_hi": []},
    "loss-table": {"s_grid": [(">", 1)]},
    "fourier-decay": {
        "gamma_exps": [lambda v, c: not all(g > 0 for g in v) and f"entries must be > 0, got {v}",
                       (">=", 1e-12, "be at least 1e-12, below which the fit's abscissae "
                                     "xi^(1/s_nominal) all but coincide and the fitted slope "
                                     "is lost to rounding"),
                       ("<=", 250)],
        "halfwidth": [(">", 0), ("<=", 1e164),
                      lambda hw, c: next((f"must keep the bump's peak exp(-2 halfwidth^-gamma_exp) "
                                          f"at least e^-700, got {hw:g} at gamma_exp = {g:g}"
                                          for g in c["gamma_exps"]
                                          if -g * math.log(hw) > math.log(350.0)), None),
                      lambda hw, c: next((f"must let the grid resolve the bump's central spike, "
                                          f"of width halfwidth^(1 + g/2)/sqrt(2 g (g + 1)) at "
                                          f"least {_SPIKE:g} halfwidth, got {hw:g} at "
                                          f"gamma_exps entry g = {g:g}"
                                          for g in c["gamma_exps"]
                                          if 0.5 * (g * math.log(hw) - math.log(2 * g * (g + 1)))
                                          < math.log(_SPIKE)), None)]},
    "mittag-type": {
        "betas": [(">", 1)], "tolerance": [],
        "x_range": [lambda v, c: not (len(v) == 2 and 0 < v[0] < v[1]) and (
                        f"must be [lo, hi] with 0 < lo < hi, got {v}"),
                    lambda v, c: next((f"upper end {v[1]:g} {why}" for b in c["betas"]
                                       if (why := numkit._imag_beyond_reach(b, v[1]))), None)],
        "n_points": [(">=", 4), ("<=", 100_000, "series sums, one per point and beta",
                                 lambda n, c: float(n) * len(c["betas"]))]},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="heatflat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, defaults) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=f"defaults: {defaults}")
        p.add_argument("--config", default=None, help="JSON config ({'schema': 1, ...})")
        p.add_argument("--out", default=".", help="output directory for CSV/JSON results")
        p.add_argument("--assert", dest="do_assert", action="store_true",
                       help="exit nonzero if the acceptance threshold is violated")
    args = parser.parse_args(argv)
    fn, defaults = SUBCOMMANDS[args.subcommand]
    try:
        cfg = _load_config(args.config, defaults, RULES[args.subcommand])
        os.makedirs(args.out, exist_ok=True)
        ok, msg = fn(cfg, args.out)
    except ValueError as e:  # a rejected config, or a value of the right kind out of its range
        print(f"{args.subcommand}: ERROR: {e}")
        return 2
    print(f"{args.subcommand}: {'PASS' if ok else 'FAIL'}: {msg}")
    return 1 if args.do_assert and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
