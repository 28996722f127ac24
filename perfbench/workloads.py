"""The four workloads: the units timed in one round, the known-fault probes,
and the checks of each round's outputs against :mod:`refs`.

A unit is one verification step at the acceptance config of a CLI
subcommand (``cli.SUBCOMMANDS``), run through the subcommand's ``run_*``
function so that its result files are written as a user would get them.
Two sizes differ from the acceptance configs so that a run can repeat the
unit several times: ``plancherel-ratio`` sums the norm series to N=8 instead
of 16 (the increments beyond n=6 are below 1e-16 of the total, so every
norm and C_hat agree to the last printed digit), and ``laplace-discrete``
takes n=5000 instead of 10000 as its largest quadratic case.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from heatflat import cli, flatness, gevrey, heatsim, holo, numkit, plancherel

import calibrate
import refs

# heatflat functions whose results the checks read, wrapped where cli looks them up
CAPTURED = [
    (gevrey, "gevrey_norm_time"), (gevrey, "weighted_fourier_norm"),
    (holo, "radius_Ra"), (holo, "interpolation_counterexample"),
    (plancherel, "discrete_laplace"), (plancherel, "convolution_An"),
    (numkit, "theta_gauss_sum"),
    (heatsim, "kernel_k"), (flatness, "tracking_experiment"),
]


class Capture:
    """Return values of the CAPTURED functions since the last ``clear``."""

    def __init__(self):
        self.calls = defaultdict(list)
        for owner, attr in CAPTURED:
            setattr(owner, attr, self._wrap(attr, getattr(owner, attr)))

    def _wrap(self, attr, fn):
        def captured(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls[attr].append((args, kwargs, out))
            return out
        return captured

    def clear(self):
        self.calls.clear()


def _config(name: str, **overrides) -> dict:
    return dict(cli.SUBCOMMANDS[name][1], **overrides)


def _cli_unit(name: str, cfg: dict, out: str):
    fn = cli.SUBCOMMANDS[name][0]

    def unit():
        ok, msg = fn(cfg, out)
        return [] if ok else [f"{name}: FAIL: {msg}"]
    return unit


@dataclass
class Workload:
    units: list                      # (name, fn) timed as one round; fn() -> failure list
    check: object                    # (Capture) -> failure list, run after the round
    probes: list = field(default_factory=list)  # (name, fn, check): known faults, untimed
    warmup: tuple = ()                # units of the warm-up round; empty means all
    kinds: tuple = tuple(calibrate.REFERENCE_S)  # kernel components that scale its rounds


class _Refs:
    """Reference values, computed once per run on first use (outside the timed rounds)."""

    def __init__(self):
        self._cache = {}

    def get(self, key, fn, *args):
        k = (key, json.dumps(args, sort_keys=True, default=str))
        if k not in self._cache:
            self._cache[k] = fn(*args)
        return self._cache[k]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def _signal_terms(desc: dict):
    """(Gaussian members, bump exponent terms, break points) of a signal descriptor."""
    fam, par = desc["family"], desc["params"]
    if fam == "gaussian":
        return [(par["center"], par["sigma"])], [], []
    if fam == "two_sided_bump":
        c, h = par["center"], par["halfwidth"]
        return [], [refs.two_sided_phi(c, h, par["gamma_exp"])], [c - h, c, c + h]
    if fam == "sum":
        parts = [_signal_terms(d) for d in par["terms"]]
        return tuple(sum((p[i] for p in parts), []) for i in range(3))
    raise ValueError(f"no reference for signal family {fam!r}")


def _norms_member_check(ref: _Refs, sig, p, N, res, fourier) -> list:
    members, bumps, breaks = _signal_terms(sig.descriptor())
    fails = refs.check_norm_flags(res.converged, res.quadrature_ok)
    if not bumps:
        ref_t = ref.get("gauss_time", refs.gaussian_sum_time_norm, members, N, p.s, p.R, p.gamma)
        ref_f = ref.get("gauss_fourier", refs.gaussian_fourier_norm, members, p.s, p.R, p.gamma)
        return fails + refs.check_gaussian_member(res.total, fourier, ref_t, ref_f)
    terms = [refs.gaussian_phi(c, s) for c, s in members] + bumps
    pts = sorted({sig.t0, sig.t1, *(b for b in breaks if sig.t0 < b < sig.t1)})
    sq = ref.get("bump", lambda d: refs.deriv_sq_norms(terms, range(4), pts), sig.descriptor())
    return fails + refs.check_increments(
        res.increments, sq, [refs.log_weight(n, p.s, p.R, p.gamma) for n in range(4)])


def norms(out: str) -> Workload:
    ref = _Refs()
    cfg = _config("plancherel-ratio", N=8)
    tcfg = _config("track")
    target = gevrey.bump_gevrey(tcfg["gamma_exp"], t_scale=tcfg["t_scale"])
    held = {}

    def trackable():
        held["series"] = flatness.check_trackable_infinite(target, 16)
        return []

    def check(cap: Capture) -> list:
        norms_ = cap.calls["gevrey_norm_time"]
        fouriers = cap.calls["weighted_fourier_norm"]
        fails = []
        for (t_args, _, res), (_, _, fn) in zip(norms_, fouriers):
            sig, p, N = t_args
            fails += _norms_member_check(ref, sig, p, N, res, fn)
        fails += refs.check_ratio_band([fn / res.total for (_, _, res), (_, _, fn)
                                        in zip(norms_, fouriers)])
        series = held["series"]
        g, s = tcfg["gamma_exp"], tcfg["t_scale"]
        sq = ref.get("trackable", lambda: refs.deriv_sq_norms(
            [refs.one_sided_phi(g, s)], range(1, 4), [0.0, s, target.t1]))
        fails += refs.check_increments(series.increments, sq,
                                       [refs.log_weight_trackable(k) for k in range(3)])
        # a SeriesCheck carries no quadrature flag
        return fails + refs.check_norm_flags(series.converged, quadrature_ok=True)

    return Workload([("plancherel-ratio", _cli_unit("plancherel-ratio", cfg, out)),
                     ("trackable-infinite", trackable)], check,
                    kinds=("vector", "longdouble"))  # numpy providers, long double included


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------

def radius(out: str) -> Workload:
    def check(cap: Capture) -> list:
        fails = []
        for _, kwargs, bracket in cap.calls["radius_Ra"]:
            fails += (refs.check_bracket(*bracket, kwargs["tol"]) if isinstance(bracket, tuple)
                      else [f"radius bracket {bracket!r}"])
        for _, _, rep in cap.calls["interpolation_counterexample"]:
            fails += refs.check_counterexample(rep.residual_exponent, rep.trackability_class)
        return fails

    return Workload([
        ("bergman-radius", _cli_unit("bergman-radius", _config("bergman-radius"), out)),
        ("counterexample", _cli_unit("counterexample", _config("counterexample"), out)),
    ], check, warmup=("counterexample",))  # same holo code paths as a 7-10 s full round


# ---------------------------------------------------------------------------
# precision
# ---------------------------------------------------------------------------

def precision(out: str) -> Workload:
    ref = _Refs()

    def check(cap: Capture) -> list:
        fails = []
        for args, kwargs, r in cap.calls["discrete_laplace"]:
            _, d2u, _, n = args
            if kwargs.get("dps"):
                fails += refs.check_laplace_quadratic(n, r.log10_rel_err)
            else:
                # log_h case: u'' (1/2) = 4 alpha
                fails += refs.check_log_sum(r.log_sum,
                                            ref.get("log_h", refs.laplace_log_h_sum, n, d2u / 4))
        for args, _, r in cap.calls["theta_gauss_sum"]:
            fails += refs.check_theta(r.sum, r.log10_gap, *ref.get("theta", refs.theta_dual, *args))
        for (p, _), _, logA in cap.calls["convolution_An"]:
            alpha, beta = 2.0 * p.s, -p.gamma * p.s
            fails += refs.check_log_An(logA, ref.get("An", refs.log_An, 50, alpha, beta))
        return fails

    return Workload([
        ("laplace-discrete", _cli_unit(
            "laplace-discrete", _config("laplace-discrete", n_quadratic=[100, 1000, 5000]), out)),
        ("theta-identity", _cli_unit("theta-identity", _config("theta-identity"), out)),
        ("an-asymptotics", _cli_unit("an-asymptotics", _config("an-asymptotics"), out)),
    ], check, kinds=("mpmath",))  # pure-Python mpmath slows about twice as much as numpy


# ---------------------------------------------------------------------------
# chain
# ---------------------------------------------------------------------------

def chain(out: str) -> Workload:
    ref = _Refs()
    tcfg = _config("track")
    target = gevrey.bump_gevrey(tcfg["gamma_exp"], t_scale=tcfg["t_scale"],
                                grid=heatsim.SimConfig(J=tcfg["J"], dt=tcfg["dt"],
                                                       T=tcfg["T"]).time_grid())
    held = {}

    def trackable():
        held["finite"] = flatness.check_trackable_finite(target, 16, tcfg["K"])
        return []

    def tracking_errors(cap: Capture) -> dict:
        return {(args[1].dt, res.K):
                float(np.max(np.abs(res.sim.y - refs.bump_target(
                    res.sim.t, tcfg["gamma_exp"], tcfg["t_scale"]))))
                for args, _, res in cap.calls["tracking_experiment"]}

    def check_tracks(cap: Capture) -> list:
        return refs.check_tracking(tracking_errors(cap), tcfg["K"], tcfg["K_low"],
                                   tcfg["threshold"], tcfg["shrink_factor"])

    def check(cap: Capture) -> list:
        fails = []
        for (t, _), _, vals in cap.calls["kernel_k"]:
            fails += refs.check_kernel(vals, ref.get("theta4", refs.kernel_theta, list(t)))
        fails += check_tracks(cap)
        fin = held["finite"]
        return fails + refs.check_terminal(fin.reachable_class, fin.condition13.converged)

    ladder = [(f"track dt={dt:g}", _cli_unit("track", _config("track", dt=dt), out))
              for dt in (1e-3, 5e-4, 2.5e-4)]
    # known faults: the non-uniform np.arange grid at dt=1e-4, and the tail
    # closure switching off at dt=2e-4 with J=128
    probes = [(f"track dt={dt:g}", _cli_unit("track", _config("track", dt=dt), out), check_tracks)
              for dt in (1e-4, 2e-4)]
    return Workload([("kernel-check", _cli_unit("kernel-check", _config("kernel-check"), out)),
                     *ladder, ("trackable-finite", trackable)], check, probes)


BUILD = {"norms": norms, "radius": radius, "precision": precision, "chain": chain}
