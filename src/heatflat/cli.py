"""Batch experiment runner: one subcommand per acceptance experiment.

Usage: heatflat <subcommand> [--config PATH] [--out DIR] [--assert]

Each subcommand reads an optional JSON config ({"schema": 1, ...}; unknown
keys, values or list entries of the wrong type, numbers that are not finite
or lie beyond the float range, and fractional numbers where the default is
an integer are rejected), writes
CSV/JSON results with 17 significant digits, and -- with --assert -- exits
nonzero when its acceptance threshold is violated; a rejected config or a
value out of range ends in an ERROR line and exit code 2.
All computations are deterministic (fixed summation orders), so re-running
with an identical config reproduces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
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


def _load_config(path, defaults: dict) -> dict:
    cfg = dict(defaults)
    if path is not None:
        try:
            with open(path) as f:
                user = json.load(f)
        except (OSError, ValueError) as e:  # JSON and UTF-8 decode errors are ValueErrors
            raise ValueError(f"cannot read config {path}: {e}") from None
        if not isinstance(user, dict) or user.get("schema") != 1:
            raise ValueError("config must be a JSON object carrying \"schema\": 1")
        unknown = set(user) - set(defaults) - {"schema"}
        if unknown:
            raise ValueError(f"unknown config keys {sorted(unknown)}")
        for k in sorted(set(user) - {"schema"}):
            if _kind(user[k]) != _kind(defaults[k]):
                raise ValueError(f"config key {k!r} must be a {_kind(defaults[k])}, "
                                 f"not a {_kind(user[k])}")
            # integer keys, and the all-integer lists n_quadratic and n_logh, take
            # integral values only, and integral floats such as 25.0 become ints
            d, v = defaults[k], user[k]
            if isinstance(d, int) or (isinstance(d, list) and all(isinstance(x, int) for x in d)):
                bad = [x for x in (v if isinstance(v, list) else [v]) if not _integral(x)]
                if bad:
                    raise ValueError(f"config key {k!r} takes integers only, got {bad[0]!r}")
                user[k] = [int(x) for x in v] if isinstance(v, list) else int(v)
            # json reads NaN, Infinity, -Infinity and integers of any size
            if not all(abs(x) <= sys.float_info.max for x in _numbers(user[k])):
                raise ValueError(f"config key {k!r} takes finite numbers within the float "
                                 "range only")
        cfg.update({k: v for k, v in user.items() if k != "schema"})
    return cfg


# --------------------------------------------------------------------------
# subcommand implementations: return (ok, message)
# --------------------------------------------------------------------------

def run_kernel_check(cfg, out):
    if cfg["n_points"] < 2:
        raise ValueError(f"n_points must be at least 2, got {cfg['n_points']}")
    if cfg["t_min"] < 3.51e-4:  # k(t) ~ 2 e^{-1/(4t)} / sqrt(pi t) falls below 2.2e-308 there
        raise ValueError(f"t_min must be at least 3.51e-4, where k(t) leaves the normal "
                         f"float range, got {cfg['t_min']:g}")
    if not cfg["t_max"] > cfg["t_min"]:
        raise ValueError(f"t_max must exceed t_min = {cfg['t_min']:g}, got {cfg['t_max']:g}")
    t = np.geomspace(cfg["t_min"], cfg["t_max"], cfg["n_points"])
    ke = heatsim.kernel_k(t, "eigen")
    kp = heatsim.kernel_k(t, "poisson")
    gap = np.abs(ke - kp) / np.abs(kp)
    _write_csv(os.path.join(out, "kernel_check.csv"), ["t", "eigen", "poisson", "rel_gap"],
               zip(t, ke, kp, gap))
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
    if cfg["target"] not in ("bump", "zero"):
        raise ValueError(f"target must be 'bump' or 'zero', got {cfg['target']!r}")
    if cfg["K"] < 1:
        raise ValueError(f"K must be at least 1, got {cfg['K']}")
    if cfg["K_low"] and not 1 <= cfg["K_low"] < cfg["K"]:
        raise ValueError(f"K_low must be 0 (no comparison) or lie in [1, K = {cfg['K']}), "
                         f"got {cfg['K_low']}")
    sim_cfg = heatsim.SimConfig(J=int(cfg["J"]), dt=cfg["dt"], T=cfg["T"])
    tgrid = sim_cfg.time_grid()
    if cfg["target"] == "zero":
        derivs = lambda N, t: np.zeros((N + 1, len(t)))
    else:
        derivs = gevrey.bump_derivs(cfg["gamma_exp"], t_scale=cfg["t_scale"])
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
    fam = [gevrey.gaussian_signal(0.0, 1.0), gevrey.gaussian_signal(2.0, 0.7),
           gevrey.gaussian_signal(-1.0, 1.4),
           gevrey.two_sided_bump(0.0, 3.0, 1.5), gevrey.two_sided_bump(1.0, 2.0, 1.5),
           gevrey.two_sided_bump(0.0, 2.5, 2.0)]
    g1 = gevrey.gaussian_signal(0.0, 1.0, grid=np.linspace(-14, 14, 2049))
    g2 = gevrey.gaussian_signal(2.0, 0.7, grid=np.linspace(-14, 14, 2049))
    g3 = gevrey.gaussian_signal(-1.0, 1.4, grid=np.linspace(-14, 14, 2049))
    b1 = gevrey.two_sided_bump(1.0, 2.0, 1.5, grid=np.linspace(-14, 14, 2049))
    fam.append(g1 + g2)
    fam.append(g3 + b1)
    return fam


def run_plancherel_ratio(cfg, out):
    p = gevrey.GevreyParams(cfg["s"], cfg["R"], cfg["gamma"])
    rows, ratios, unconverged, unresolved, above_s = [], [], [], [], []
    for sig in _ratio_family():
        name = sig.family + json.dumps(sig.params, sort_keys=True).replace(",", ";")
        tn = gevrey.gevrey_norm_time(sig, p, int(cfg["N"]))
        fn = gevrey.weighted_fourier_norm(sig, p)
        ratios.append(fn / tn.total)
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
    # a signal of nominal order above s has infinite norms, though N rows
    # and a finite grid may not show it
    if above_s:
        return False, f"nominal Gevrey order above s = {cfg['s']:g} for {', '.join(above_s)}"
    chat = max(max(ratios), 1.0 / min(ratios))
    return chat <= cfg["c_hat"], f"ratio band needs C_hat = {chat:.2f} (allowed {cfg['c_hat']:g})"


def run_an_asymptotics(cfg, out):
    if cfg["n_max"] < 1:
        raise ValueError(f"n_max must be at least 1, got {cfg['n_max']}")
    if cfg["n_max"] > plancherel.MAX_AN_TERMS:
        raise ValueError(f"n_max must be at most {plancherel.MAX_AN_TERMS}, got {cfg['n_max']}")
    if not 1 <= cfg["n_min"] <= cfg["n_max"]:
        raise ValueError(f"n_min must lie in [1, n_max = {cfg['n_max']}], got {cfg['n_min']}")
    p = gevrey.GevreyParams(cfg["s"], 1.0, cfg["gamma"])
    alpha, beta = plancherel.varpi_params(p)
    N = int(cfg["n_max"])
    logA = plancherel.convolution_An(p, N)
    n = np.arange(1, N + 1)
    logpred = alpha * n * (np.log(2.0 * math.e) - np.log(alpha * n)) + (-2 * beta - 0.5) * np.log(n)
    ratio = np.exp(logA[1:] - logpred)
    _write_csv(os.path.join(out, "an_asymptotics.csv"), ["n", "log_An", "log_pred", "ratio"],
               zip(n, logA[1:], logpred, ratio))
    sel = (n >= int(cfg["n_min"]))
    band = float(ratio[sel].max() / ratio[sel].min())
    return band <= cfg["band_factor"], (
        f"A_n/prediction band factor {band:.3f} over n in [{cfg['n_min']}, {N}] "
        f"(allowed {cfg['band_factor']:g})")


def _log10_truncation_law(n: int) -> float:
    """log10 of 2 e^{-n/4} / ((e - 1) sqrt(pi n)), the error of the quadratic case."""
    return (math.log10(2.0) - n / (4.0 * math.log(10.0)) - math.log10(math.e - 1.0)
            - 0.5 * math.log10(math.pi * n))


def run_laplace_discrete(cfg, out):
    if not cfg["threshold"] > 0:
        raise ValueError(f"threshold must be > 0, got {cfg['threshold']:g}")
    # 40 digits below the truncation error
    dps = {n: int(0.25 * n / math.log(10)) + 40 for n in cfg["n_quadratic"]}
    for n, d in dps.items():
        if d > numkit.MAX_DPS:
            raise ValueError(f"n_quadratic entry {n} needs {d} digits of working precision, "
                             f"above the cap of {numkit.MAX_DPS}")
    rows = []
    ok = True
    log_rels = []
    for n in cfg["n_quadratic"]:
        r = plancherel.discrete_laplace(lambda x: (x - 0.5) ** 2, 2.0, 0.5, int(n), dps=dps[n])
        log_rels.append(r.log10_rel_err)
        rows.append(("quadratic", n, r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err,
                     _log10_truncation_law(int(n))))
    ok = ok and log_rels[-1] < math.log10(cfg["threshold"])
    ok = ok and all(b < a for a, b in zip(log_rels, log_rels[1:]))
    alpha = cfg["alpha"]
    for n in cfg["n_logh"]:
        logh = lambda x: alpha * (x * math.log(x) + (1 - x) * math.log(1 - x)) if 0 < x < 1 else 0.0
        r = plancherel.discrete_laplace(logh, 4.0 * alpha, 0.5, int(n))
        rows.append(("log_h", n, r.log_sum, r.log_prediction, r.rel_err, r.log10_rel_err, ""))
        if n >= 2000:
            ok = ok and r.rel_err < 5e-2
    _write_csv(os.path.join(out, "laplace_discrete.csv"),
               ["case", "n", "log_sum", "log_prediction", "rel_err", "log10_rel_err",
                "log10_truncation_law"], rows)
    return ok, (f"quadratic log10 rel_err sequence {[round(l, 1) for l in log_rels]}, "
                f"decreasing and below log10({cfg['threshold']:g})")


def run_theta_identity(cfg, out):
    if any(len(case) != 3 for case in cfg["cases"]):
        raise ValueError(f"cases entries must be [n, a, b] triples, got {cfg['cases']}")
    for n, _, _ in cfg["cases"]:
        if not _integral(n):
            raise ValueError(f"cases entries need an integer n, got {n!r}")
    cases = [(int(n), a, b) for n, a, b in cfg["cases"]]
    for n, a, _ in cases:  # every case's precision is checked before any sum runs
        numkit.theta_dps(n, a)
    rows = []
    worst = 0.0
    for n, a, b in cases:
        r = numkit.theta_gauss_sum(n, a, b)
        rows.append((n, a, b, r.sum, r.predicted, r.log10_gap, r.log10_bound, r.c_uniform))
        worst = max(worst, r.c_uniform)
    _write_csv(os.path.join(out, "theta_identity.csv"),
               ["n", "a", "b", "sum", "predicted", "log10_gap", "log10_bound", "c_uniform"], rows)
    return worst < cfg["c_max"], f"uniform constant {worst:.3f} (allowed {cfg['c_max']:g})"


def run_bergman_radius(cfg, out):
    target = 1.0 / math.sqrt(2.0)
    rows = []
    ok = True
    seqs = {"geometric": holo.CoeffSeq.geometric(1.0, 700),
            "sharp_radius": holo.CoeffSeq.sharp_radius(700)}
    unknown = sorted(set(cfg["sequences"]) - set(seqs))
    if unknown:
        raise ValueError(f"unknown sequences {unknown}; allowed: {sorted(seqs)}")
    for name in cfg["sequences"]:
        lo, hi = holo.radius_Ra(seqs[name], tol=cfg["tol"])
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
    ok = all(r["sign"] > 0 for r in rows if 1 < r["s"] < 3)
    ok = ok and all(r["sign"] < 0 for r in rows if r["s"] > 4)
    ok = ok and (3.0 < cross < 4.0)
    for r in rows:
        if r["s"] == 2.0:
            ok = ok and abs(r["rho_s"] - 0.7071067811865476) < 1e-12
            ok = ok and abs(r["rho_mrr"] - 0.8319859539411386) < 1e-12
    return ok, f"crossover at s = {cross:.6f}; rho_2 = {1/math.sqrt(2):.7f}, mrr = {math.exp(-1/(2*math.e)):.7f}"


def run_fourier_decay(cfg, out):
    if not all(g > 0 for g in cfg["gamma_exps"]):
        raise ValueError(f"gamma_exps entries must be > 0, got {cfg['gamma_exps']}")
    rows = []
    ok = True
    for gamma_exp in cfg["gamma_exps"]:
        s_nom = 1.0 + 1.0 / gamma_exp
        sig = gevrey.two_sided_bump(0.0, cfg["halfwidth"], gamma_exp)
        fit = gevrey.fourier_decay_fit(sig, s_nom)
        rows.append((f"bump({gamma_exp})", s_nom, fit.delta, fit.residual_rms, int(fit.mismatch)))
        ok = ok and fit.delta > 0 and not fit.mismatch
    g = gevrey.gaussian_signal(0.0, 1.0, grid=np.linspace(-10, 10, 2049))
    gc = gevrey.product_signal(g, gevrey.two_sided_bump(0.0, 9.0, 2.0,
                                                        grid=np.linspace(-10, 10, 2049)))
    fit = gevrey.fourier_decay_fit(gc, 1.0)
    rows.append(("gaussian-vs-s1", 1.0, fit.delta, fit.residual_rms, int(fit.mismatch)))
    ok = ok and fit.mismatch
    _write_csv(os.path.join(out, "fourier_decay.csv"),
               ["signal", "s_nominal", "delta", "residual_rms", "mismatch"], rows)
    return ok, "bump fits positive and clean; gaussian flagged as mismatch for s=1"


def run_mittag_type(cfg, out):
    if cfg["n_points"] < 4:  # the type fit needs four points
        raise ValueError(f"n_points must be at least 4, got {cfg['n_points']}")
    if not (len(cfg["x_range"]) == 2 and 0 < cfg["x_range"][0] < cfg["x_range"][1] < math.inf):
        raise ValueError(f"x_range must be [lo, hi] with 0 < lo < hi, got {cfg['x_range']}")
    lo, hi = cfg["x_range"]
    for beta in cfg["betas"]:  # every beta is checked before any series is summed
        if not beta > 1:
            raise ValueError(f"betas entries must be > 1, got {beta:g}")
        terms = numkit._imag_series_terms(beta, hi)
        if terms > numkit.MAX_SERIES_TERMS:
            raise ValueError(f"x_range upper end {hi:g} needs {terms:.6g} series terms at "
                             f"beta = {beta:g}, above the cap of {numkit.MAX_SERIES_TERMS}")
        if beta * math.log(hi) > math.log(sys.float_info.max):
            raise ValueError(f"x_range upper end {hi:g} gives y = hi^beta beyond the float "
                             f"range at beta = {beta:g}")
        lost = numkit._imag_digits_lost(beta, hi)
        if lost > numkit.MAX_LOST_DIGITS:
            raise ValueError(f"x_range upper end {hi:g} loses {lost:.3g} float64 digits to "
                             f"cancellation at beta = {beta:g}, above the limit of "
                             f"{numkit.MAX_LOST_DIGITS:g}")
    rows = []
    ok = True
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
                          "K_low": 10, "J": 128, "dt": 1e-3, "T": 1.0,
                          "threshold": 1e-4, "shrink_factor": 10.0}),
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
    "counterexample": (run_counterexample, {"N": 1000, "exponent_lo": -1.6,
                                            "exponent_hi": -1.4}),
    "loss-table": (run_loss_table, {"s_grid": [1.5, 2.0, 3.0, 5.0]}),
    "fourier-decay": (run_fourier_decay, {"gamma_exps": [1.0, 1.5], "halfwidth": 1.0}),
    "mittag-type": (run_mittag_type, {"betas": [2.0, 3.0], "x_range": [15.0, 25.0],
                                      "n_points": 12, "tolerance": 0.01}),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatflat", description=__doc__,
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
        cfg = _load_config(args.config, defaults)
        os.makedirs(args.out, exist_ok=True)
        ok, msg = fn(cfg, args.out)
    except ValueError as e:  # a rejected config, or a value of the right kind out of its range
        print(f"{args.subcommand}: ERROR: {e}")
        return 2
    status = "PASS" if ok else "FAIL"
    print(f"{args.subcommand}: {status}: {msg}")
    if args.do_assert and not ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
