"""Spans and counters for the traced run.

The tracer wraps heatflat's public functions, and the private ones the
layers are made of, at every place they are looked up: a name that
one module imports by value from another (``flatness.simulate``,
``flatness._log_l2_norm``, ``flatness.bergman_norm_estimate``) and the
``holo.SeriesEvaluator`` that ``bergman_norm_estimate`` builds are wrapped
apart from the module that defines them.  Spans (name, start, end, parent)
are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter

from heatflat import cli, flatness, gevrey, heatsim, holo, numkit, plancherel

# metric -> (kind, span or counter); "incl" sums outermost span durations,
# "self" subtracts the time covered by child spans, "count" reads a counter.
# Every value is per round, except the ones marked "run".
METRICS = {
    "gevrey.norm_time_s": ("incl", "gevrey.norm_time"),
    "gevrey.deriv_s": ("self", "gevrey.deriv"),
    "gevrey.deriv_calls": ("count", "gevrey.deriv_calls"),
    "gevrey.deriv_points": ("count", "gevrey.deriv_points"),
    "gevrey.quad_s": ("self", "gevrey.quad"),
    "gevrey.quad_nodes": ("count", "gevrey.quad_nodes"),
    "gevrey.quad_unconverged": ("count", "gevrey.quad_unconverged"),
    "gevrey.fourier_s": ("incl", "gevrey.fourier"),
    "holo.radius_s": ("incl", "holo.radius"),
    "holo.classify_s": ("incl", "holo.classify"),
    "holo.classify_calls": ("count", "holo.classify_calls"),
    "holo.classify_distinct": ("count", "holo.classify_distinct"),
    "holo.classify_useful_ratio": ("ratio", ("holo.classify_distinct", "holo.classify_calls")),
    "holo.evaluator_builds": ("count", "holo.evaluator_builds"),
    "holo.evaluator_build_s": ("incl", "holo.evaluator_build"),
    "holo.values_s": ("incl", "holo.values"),
    "holo.values_points": ("count", "holo.values_points"),
    "holo.quad_nodes_calls": ("count", "holo.quad_nodes_calls"),
    "holo.counterexample_s": ("incl", "holo.counterexample"),
    "plancherel.laplace_s": ("incl", "plancherel.laplace"),
    "plancherel.laplace_mp_terms": ("count", "plancherel.laplace_mp_terms"),
    "plancherel.laplace_max_dps": ("run", "plancherel.laplace_max_dps"),
    "plancherel.convolution_s": ("incl", "plancherel.convolution"),
    "plancherel.convolution_terms": ("count", "plancherel.convolution_terms"),
    "numkit.theta_s": ("incl", "numkit.theta"),
    "numkit.theta_calls": ("count", "numkit.theta_calls"),
    "heatsim.simulate_s": ("incl", "heatsim.simulate"),
    "heatsim.sim_steps": ("count", "heatsim.sim_steps"),
    "heatsim.mode_steps": ("count", "heatsim.mode_steps"),
    "heatsim.kernel_s": ("incl", "heatsim.kernel"),
    "heatsim.kernel_points": ("count", "heatsim.kernel_points"),
    "heatsim.closure_off": ("count", "heatsim.closure_off"),
    "flatness.flat_control_s": ("self", "flatness.flat_control"),
    "flatness.control_terms": ("count", "flatness.control_terms"),
    "flatness.tracking_s": ("incl", "flatness.tracking"),
    "flatness.trackable_s": ("incl", "flatness.trackable"),
    "cli.import_s": ("run", "cli.import_s"),
    "cli.write_s": ("incl", "cli.write"),
    "cli.bytes_written": ("count", "cli.bytes_written"),
}


def unit_of(metric: str) -> str:
    kind = METRICS[metric][0]
    if metric.endswith("_s"):
        return "s"
    if kind == "ratio":
        return "ratio"
    return "digits" if metric.endswith("_dps") else "count"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.run_values = {}
        self.rounds = 0
        self._classified = set()

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(i)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[i][2] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(out, *args, **kwargs)
            return out
        return traced

    def patch(self, owner, attr, name, count=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, staticmethod):
            setattr(owner, attr, staticmethod(self.wrap(name, raw.__func__, count)))
        else:
            setattr(owner, attr, self.wrap(name, raw, count))

    def new_round(self):
        """Close a round: distinct classifier inputs are counted per round."""
        self.counts["holo.classify_distinct"] += len(self._classified)
        self._classified.clear()
        self.rounds += 1

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._classified.clear()
        self.rounds = 0

    # -- installation ------------------------------------------------------

    def install(self):
        c = self.counts

        def traced_signal(sig):
            def points(out, n, t):
                c["gevrey.deriv_calls"] += 1
                c["gevrey.deriv_points"] += getattr(t, "size", 1)
            sig.deriv = self.wrap("gevrey.deriv", sig.deriv, points)
            return sig

        for ctor in ("gaussian_signal", "two_sided_bump", "bump_gevrey"):
            make = getattr(gevrey, ctor)
            setattr(gevrey, ctor, lambda *a, _make=make, **k: traced_signal(_make(*a, **k)))

        def quad_counted(fn):
            def counted_quad(f, a, b, *args, **kwargs):
                def nodes(t):
                    c["gevrey.quad_nodes"] += len(t)
                    return f(t)
                return fn(nodes, a, b, *args, **kwargs)
            return counted_quad

        def unconverged(out, *a, **k):
            c["gevrey.quad_unconverged"] += not out[1]

        quad = quad_counted(gevrey._log_l2_norm)
        for mod in (gevrey, flatness):
            setattr(mod, "_log_l2_norm", self.wrap("gevrey.quad", quad, unconverged))
        self.patch(gevrey, "gevrey_norm_time", "gevrey.norm_time")
        self.patch(gevrey, "weighted_fourier_norm", "gevrey.fourier")

        def classified(out, seq, R, *a, **k):
            c["holo.classify_calls"] += 1
            self._classified.add((seq.log_mag.tobytes(), seq.phase.tobytes(), seq.parity, R))

        for mod in (holo, flatness):
            self.patch(mod, "bergman_norm_estimate", "holo.classify", classified)
        self.patch(holo.SeriesEvaluator, "values", "holo.values",
                   lambda out, ev, zeta: c.update({"holo.values_points": len(zeta)}))
        self.patch(holo, "SeriesEvaluator", "holo.evaluator_build",
                   lambda *a, **k: c.update({"holo.evaluator_builds": 1}))
        self.patch(holo.OmegaDomain, "quad_nodes", "holo.quad_nodes",
                   lambda *a, **k: c.update({"holo.quad_nodes_calls": 1}))
        self.patch(holo, "radius_Ra", "holo.radius")
        self.patch(holo, "interpolation_counterexample", "holo.counterexample")

        def laplace(out, u, d2u, x0, n, dps=None):
            if dps:
                c["plancherel.laplace_mp_terms"] += n + 1
                self.run_values["plancherel.laplace_max_dps"] = max(
                    dps, self.run_values.get("plancherel.laplace_max_dps", 0))

        self.patch(plancherel, "discrete_laplace", "plancherel.laplace", laplace)
        self.patch(plancherel, "convolution_An", "plancherel.convolution",
                   lambda out, p, N: c.update({"plancherel.convolution_terms":
                                               (N + 1) * (N + 2) // 2}))
        self.patch(numkit, "theta_gauss_sum", "numkit.theta",
                   lambda *a, **k: c.update({"numkit.theta_calls": 1}))

        def simulated(out, u, cfg):
            steps = len(out.t) - 1
            c["heatsim.sim_steps"] += steps
            c["heatsim.mode_steps"] += steps * (cfg.J + 1)
            c["heatsim.closure_off"] += not out.closure_active

        for mod in (heatsim, flatness):
            self.patch(mod, "simulate", "heatsim.simulate", simulated)
        self.patch(heatsim, "kernel_k", "heatsim.kernel",
                   lambda out, t, *a: c.update({"heatsim.kernel_points": getattr(t, "size", 1)}))
        self.patch(flatness, "flat_control", "flatness.flat_control",
                   lambda out, y, t, K: c.update({"flatness.control_terms": K * len(t)}))
        self.patch(flatness, "tracking_experiment", "flatness.tracking")
        for fn in ("check_trackable_infinite", "check_trackable_finite"):
            self.patch(flatness, fn, "flatness.trackable")

        def written(out, path, *rest):
            c["cli.bytes_written"] += os.path.getsize(path)

        self.patch(cli, "_write_csv", "cli.write", written)
        self.patch(flatness.TrackingResult, "to_csv", "cli.write",
                   lambda out, res, path: written(out, path))

    # -- reduction ---------------------------------------------------------

    def _covered(self) -> list:
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def totals(self):
        """(inclusive time of outermost spans, self time) per span name."""
        covered = self._covered()
        incl, own = Counter(), Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent < 0 or self.spans[parent][0] != name:
                incl[name] += end - start
            own[name] += end - start - covered[i]
        return incl, own

    def coverage(self) -> float:
        """Share of the timed units' wall time that is self time of layer spans."""
        covered = self._covered()
        root, units, layers = [], 0.0, 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            root.append(i if parent < 0 else root[parent])
            if name == "bench.unit":
                units += end - start
            elif self.spans[root[i]][0] == "bench.unit":
                layers += end - start - covered[i]
        return layers / units if units else 0.0

    def metrics(self) -> dict:
        incl, own = self.totals()
        rounds = max(self.rounds, 1)
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "incl":
                value = incl[key] / rounds
            elif kind == "self":
                value = own[key] / rounds
            elif kind == "count":
                value = self.counts[key] / rounds
            elif kind == "ratio":
                num, den = (self.counts[k] for k in key)
                value = num / den if den else 0.0
            else:
                value = self.run_values.get(key, 0)
            out[metric] = {"value": value, "unit": unit_of(metric)}
        return out

    def dump(self, path: str, extra: dict) -> None:
        with open(path, "w") as f:
            json.dump(dict(extra, spans=self.spans), f)
