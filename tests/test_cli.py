import dataclasses
import json
import math
import re

import numpy as np
import pytest

from heatflat import cli, flatness, gevrey, heatsim, numkit
from heatflat.cli import _write_csv, main
from heatflat.flatness import FlatSum, TrackingResult
from heatflat.heatsim import SimResult


def run(args):
    return main(args)


class TestCli:
    def test_loss_table(self, tmp_path, capsys):
        assert run(["loss-table", "--out", str(tmp_path), "--assert"]) == 0
        out = capsys.readouterr().out
        assert "loss-table: PASS" in out
        csv = (tmp_path / "loss_table.csv").read_text()
        assert csv.splitlines()[0] == "s,rho_s,Gamma_s,rho_mrr,sign"
        # s = 2 row carries 0.70711 and 0.832
        row2 = [l for l in csv.splitlines() if l.startswith("2,")][0]
        assert "0.7071067811865" in row2
        assert "0.83198" in row2

    def test_kernel_check_with_config(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "n_points": 50}))
        assert run(["kernel-check", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 0
        rows = (tmp_path / "kernel_check.csv").read_text().splitlines()
        assert len(rows) == 51

    def test_plancherel_ratio_rerun_identical(self, tmp_path):
        # the time norms sum each derivative table in a fixed order
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "N": 4}))
        for d in ("a", "b"):
            run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path / d)])
        assert (tmp_path / "a" / "plancherel_ratio.csv").read_bytes() == \
               (tmp_path / "b" / "plancherel_ratio.csv").read_bytes()

    def test_track_zero_target(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "target": "zero", "K_low": 0}))
        assert run(["track", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 0
        assert "track: PASS" in capsys.readouterr().out

    def test_track_exact_result_passes(self, tmp_path, capsys):
        # one 1 ms step, where the target is flat: both K runs are exact, and
        # an error ratio of 0 / 0 is no failure to shrink
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "T": 0.001}))
        assert run(["track", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 0
        assert capsys.readouterr().out == (
            "track: PASS: max tracking error 0.000e+00 (threshold 0.0001); "
            "K=10 -> K=25: exact at K=25\n")

    def test_track_refines_below_the_closure_threshold(self, tmp_path, capsys):
        # below dt = 2.13e-4 the tail closure needs more than the default
        # J = 128 modes; J is raised, so refining dt keeps lowering the error
        errors = []
        for dt in (2e-4, 1e-4):
            cfgp = tmp_path / "cfg.json"
            cfgp.write_text(json.dumps({"schema": 1, "dt": dt}))
            assert run(["track", "--config", str(cfgp), "--out", str(tmp_path),
                        "--assert"]) == 0
            out = capsys.readouterr().out
            assert "track: PASS" in out
            errors.append(float(re.search(r"max tracking error (\S+) ", out).group(1)))
        assert errors[0] >= 3.0 * errors[1]

    def test_track_error_does_not_rise_with_K(self, tmp_path, capsys):
        # rows up to K + 1 = 61 stay accurate, so more terms never hurt
        errors = []
        for K in (25, 40, 60):
            cfgp = tmp_path / "cfg.json"
            cfgp.write_text(json.dumps({"schema": 1, "dt": 2.5e-4, "K": K}))
            assert run(["track", "--config", str(cfgp), "--out", str(tmp_path),
                        "--assert"]) == 0
            out = capsys.readouterr().out
            errors.append(float(re.search(r"max tracking error (\S+) ", out).group(1)))
        assert all(e <= 1.1 * errors[0] for e in errors[1:])

    def test_track_builds_one_table_on_the_time_grid(self, monkeypatch):
        # the K and K_low controls and the target's samples share one table
        cfg = cli.SUBCOMMANDS["track"][1]
        nt = len(heatsim.SimConfig(J=cfg["J"], dt=cfg["dt"], T=cfg["T"]).time_grid())
        bump, sizes = gevrey._one_sided_bump, []
        monkeypatch.setattr(gevrey, "_one_sided_bump",
                            lambda g, N, t, s: sizes.append(len(t)) or bump(g, N, t, s))
        cli.run_track(dict(cfg))
        assert sizes.count(nt) == 1

    def test_track_experiments_match_fresh_targets(self, monkeypatch):
        # slices of the shared table are bit for bit the tables of a fresh target
        experiment, runs = flatness.tracking_experiment, []
        monkeypatch.setattr(flatness, "tracking_experiment",
                            lambda *a, **k: runs.append(experiment(*a, **k)) or runs[-1])
        cfg = cli.SUBCOMMANDS["track"][1]
        cli.run_track(dict(cfg))
        sim_cfg = heatsim.SimConfig(J=cfg["J"], dt=cfg["dt"], T=cfg["T"])
        assert [r.K for r in runs] == [cfg["K"], cfg["K_low"]]
        for res in runs:
            y = gevrey.bump_gevrey(cfg["gamma_exp"], t_scale=cfg["t_scale"],
                                   grid=sim_cfg.time_grid())
            fresh = experiment(y, sim_cfg, res.K)
            assert np.array_equal(res.sim.u, fresh.sim.u)
            assert np.array_equal(res.sim.y, fresh.sim.y)
            assert np.array_equal(res.y_target, fresh.y_target)
            assert res.max_error == fresh.max_error

    def test_laplace_discrete_truncation_law_column(self, tmp_path):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "n_quadratic": [100, 400], "n_logh": [500]}))
        assert run(["laplace-discrete", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "laplace_discrete.csv").read_text().splitlines()
        assert lines[0].endswith(",log10_rel_err,log10_truncation_law")
        rows = [line.split(",") for line in lines[1:]]
        assert [r[0] for r in rows] == ["quadratic", "quadratic", "log_h"]
        for r in rows[:2]:  # the error follows the law 2 e^{-n/4} / ((e - 1) sqrt(pi n))
            assert abs(float(r[5]) - float(r[6])) < 0.2
        assert rows[2][6] == ""

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "bogus": 5}))
        assert run(["loss-table", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == "loss-table: ERROR: unknown config keys ['bogus']\n"

    @pytest.mark.parametrize("cmd, key, value, kind", [
        ("track", "dt", "0.001", "number"),
        ("laplace-discrete", "n_quadratic", 100, "list"),
        ("track", "K", "25", "number"),
        ("laplace-discrete", "n_quadratic", ["100"], "list"),
        ("laplace-discrete", "n_quadratic", [], "list"),
        ("theta-identity", "cases", [[100, "2.0", 0.5]], "list"),
    ])
    def test_wrong_value_type_rejected(self, tmp_path, capsys, cmd, key, value, kind):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, key: value}))
        assert run([cmd, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith(f"{cmd}: ERROR: config key '{key}' must be a {kind}")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("cmd, key, value, bad", [
        ("track", "K", 25.7, "25.7"),
        ("track", "K_low", 10.5, "10.5"),
        ("an-asymptotics", "n_max", 2000.5, "2000.5"),
        ("plancherel-ratio", "N", 8.5, "8.5"),
        ("kernel-check", "n_points", float("nan"), "nan"),
        ("laplace-discrete", "n_quadratic", [100.7, 1000], "100.7"),
        ("laplace-discrete", "n_logh", [500, 2000.25], "2000.25"),
    ])
    def test_fractional_integer_value_rejected(self, tmp_path, capsys, cmd, key, value, bad):
        # such a value would be computed at int(value) but written as given
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, key: value}))
        assert run([cmd, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == (
            f"{cmd}: ERROR: config key '{key}' takes integers only, got {bad}\n")

    def test_integral_float_accepted_as_int(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "n_points": 50.0}))
        assert run(["kernel-check", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 0
        assert len((tmp_path / "kernel_check.csv").read_text().splitlines()) == 51
        cfgp.write_text(json.dumps({"schema": 1, "K": 25.0, "K_low": 10.0}))
        assert run(["track", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
        assert "; K=10 -> K=25 error shrink" in capsys.readouterr().out
        cfgp.write_text(json.dumps({"schema": 1, "cases": [[100.0, 2.0, 0.5]]}))
        assert run(["theta-identity", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "theta_identity.csv").read_text().splitlines()
        assert lines[1].startswith("100,2,0.5,")

    def test_theta_identity_fractional_n_is_clean_error(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "cases": [[100, 2.0, 0.5], [100.5, 2.0, 0.5]]}))
        assert run(["theta-identity", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == (
            "theta-identity: ERROR: cases entries need an integer n, got 100.5\n")
        assert not (tmp_path / "theta_identity.csv").exists()

    @pytest.mark.parametrize("b", [1e25, 1e300, 1e307, -1e307])
    def test_theta_identity_at_large_b(self, tmp_path, capsys, b):
        # the sum does not change under k -> k + m: its window is centred on the
        # integer nearest n b, found in mpmath (a float centre missed the peak
        # from b = 1e25 on, and overflowed at 1e307)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "cases": [[100, 2.0, 0.0], [100, 2.0, b]]}))
        assert run(["theta-identity", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.startswith("theta-identity: PASS: ")
        rows = (tmp_path / "theta_identity.csv").read_text().splitlines()[1:]
        assert rows[1].split(",")[-1] == rows[0].split(",")[-1]  # c_uniform, written repr-exact

    @pytest.mark.parametrize("values, msg", [
        ({"n_quadratic": [3, 2]}, "[-1.0, -0.9], not decreasing; last entry not below "
                                  "log10(0.01)"),
        ({"n_quadratic": [1000, 100]}, "[-110.3, -12.1], not decreasing"),
        ({"n_quadratic": [3]}, "[-1.0], last entry not below log10(0.01)"),
        ({"n_quadratic": [100], "n_logh": [2000], "alpha": 1e-3},
         "[-12.1], log_h rel_err 0.184 at n = 2000, not below 0.05")],
        ids=["both", "decreasing", "below", "log_h"])
    def test_laplace_discrete_fail_names_what_broke(self, tmp_path, capsys, values, msg):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["laplace-discrete", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (
            f"laplace-discrete: FAIL: quadratic log10 rel_err sequence {msg}\n")

    @pytest.mark.parametrize("cfg", [
        ("track", {"dt": 0.0}, "dt must be > 0, got 0"),
        ("track", {"dt": 0.3}, "dt must divide T = 1 into whole steps, got 0.3"),
        ("bergman-radius", {"sequences": ["foo"]},
         "sequences entries must be 'geometric' or 'sharp_radius', got 'foo'"),
        ("laplace-discrete", {"n_quadratic": [-5]},
         "n_quadratic entries must be at least 2, got -5"),
        ("kernel-check", {"n_points": 0}, "n_points must be at least 2"),
        ("theta-identity", {"cases": [[100, 2.0]]},
         "cases entries must be [n, a, b] triples, got [[100, 2.0]]"),
        ("kernel-check", {"t_min": 1e-4},
         "t_min must be at least 3.51e-4, where k(t) leaves the normal float range, got 0.0001"),
        ("fourier-decay", {"gamma_exps": [0.0]}, "gamma_exps entries must be > 0, got [0.0]"),
        ("fourier-decay", {"gamma_exps": [-1.0]}, "gamma_exps entries must be > 0, got [-1.0]"),
        ("fourier-decay", {"halfwidth": 0.0}, "halfwidth must be > 0"),
        ("an-asymptotics", {"n_min": 10, "n_max": 5}, "n_min must lie in [1, n_max = 5], got 10"),
        ("an-asymptotics", {"n_max": 1}, "n_min must lie in [1, n_max = 1], got 50"),
        ("an-asymptotics", {"n_min": 0}, "n_min must lie in [1, n_max = 2000], got 0"),
        ("an-asymptotics", {"n_max": 0}, "n_max must be at least 1, got 0"),
        ("fourier-decay", {"gamma_exps": [10.0], "halfwidth": 0.5},
         "halfwidth must keep the bump's peak exp(-2 halfwidth^-gamma_exp) at least e^-700, "
         "got 0.5 at gamma_exp = 10"),
        ("track", {"K": 100},
         "flat control with K=100: derivative row 89 of the target is not finite"),
        ("theta-identity", {"cases": [[100, 2.0, 0.5], [1, 1e-5, 0.0]]},
         "cases entry [1, 1e-05, 0.0] needs 857302 digits of working precision, "
         "above the cap of 10000"),
        ("laplace-discrete", {"n_quadratic": [100, 1000001]},
         "n_quadratic entries must be at most 1000000, got 1000001"),
        ("plancherel-ratio", {"s": 1e-12}, "s must be at least 1, got 1e-12"),
        ("plancherel-ratio", {"s": 0.05}, "s must be at least 1, got 0.05"),
        ("an-asymptotics", {"n_max": 20000}, "n_max must be at most 5000, got 20000"),
        ("laplace-discrete", {"threshold": 0}, "threshold must be > 0, got 0"),
        ("mittag-type", {"n_points": -1}, "n_points must be at least 4, got -1"),
        ("kernel-check", {"t_max": -1}, "t_max must exceed t_min = 0.01, got -1"),
        ("track", {"dt": 1e-12},  # a 7.28 TiB time grid
         "dt = 1e-12 needs 1e+12 time steps over T = 1, above the cap of 1000000"),
        ("track", {"t_scale": 0}, "t_scale must be finite and > 0, got 0"),
        ("plancherel-ratio", {"s": 0.5}, "s must be at least 1, got 0.5"),
        ("mittag-type", {"x_range": [0.0, 25.0]},
         "x_range must be [lo, hi] with 0 < lo < hi, got [0.0, 25.0]"),
        ("mittag-type", {"x_range": [15.0, 1e300]},  # y = x^2 overflowed at 1e300
         "x_range upper end 1e+300 needs 1e+300 series terms at beta = 2, "
         "above the cap of 100000"),
        ("mittag-type", {"betas": [2.0, 400.0]},
         "x_range upper end 25 gives y = hi^beta beyond the float range at beta = 400"),
        ("mittag-type", {"betas": [2.0, 0.0]}, "betas entries must be > 1, got 0"),
        ("mittag-type", {"x_range": [15.0, 200.0]},  # ln|E_2(iy)| off by 27 at x = 200
         "x_range upper end 200 loses 25.4 float64 digits to cancellation at beta = 2, "
         "above the limit of 8"),
        ("track", {"K": -3}, "K must be at least 1, got -3"),
        ("track", {"K": 0}, "K must be at least 1, got 0"),
        ("track", {"K_low": -1}, "K_low must be 0 (no comparison) or lie in [1, K = 25), got -1"),
        ("track", {"K_low": 30}, "K_low must be 0 (no comparison) or lie in [1, K = 25), got 30"),
        ("track", {"K_low": 25}, "K_low must be 0 (no comparison) or lie in [1, K = 25), got 25"),
        ("track", {"target": "foo"}, "target must be 'bump' or 'zero', got 'foo'"),
        ("laplace-discrete", {"n_logh": [1e8]},  # a MemoryError after about 54 s
         "n_logh entries must be at most 1000000, got 100000000"),
        ("track", {"gamma_exp": 1e300},  # the exponent's binomial coefficients overflow
         "flat control with K=25: derivative row 2 of the target is not finite"),
        ("track", {"T": 1e-7, "dt": 5e-10},  # J raised to 84216 passed the cap on J
         "dt = 5e-10 needs 84216 simulated modes, above the cap of 65536"),
        ("track", {"T": 1e-300, "dt": 1e-300},  # numpy's "Maximum allowed size exceeded"
         "dt = 1e-300 needs 1.88315e+150 simulated modes, above the cap of 65536"),
        ("mittag-type", {"x_range": [1.0, 10.0]},  # the library's "insufficient grid range"
         "x_range upper end 10 gives x = y^(1/beta) = 10.000000000000002 at beta = 2, below "
         "the 20 that exposes the exponential regime"),
        ("mittag-type", {"x_range": [15.0, 19.0]},
         "x_range upper end 19 gives x = y^(1/beta) = 18.999999999999996 at beta = 2"),
        ("mittag-type", {"n_points": 4, "x_range": [19.9, 20.0]},  # the grid's top rounds down
         "x_range upper end 20 gives x = y^(1/beta) = 19.999999999999996 at beta = 2"),
    ])
    @pytest.mark.filterwarnings("error")  # a warning before the ERROR line is a leak
    def test_out_of_range_value_is_clean_error(self, tmp_path, capsys, cfg):
        cmd, values, msg = cfg
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run([cmd, "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out.startswith(f"{cmd}: ERROR: {msg}")

    @pytest.mark.parametrize("cmd, values, msg", [
        ("laplace-discrete", {"alpha": 1e-300},  # "u appears constant: no strict minimum"
         "alpha must be at least 1.6e-14, below which log h spans under 1e-14 on the grid of "
         "n = 3 and reads as constant, got 1e-300"),
        ("fourier-decay", {"gamma_exps": [1e300]},  # "decay window too small"
         "gamma_exps entries must be at most 250, got 1e+300"),
        ("fourier-decay", {"gamma_exps": [10.0], "halfwidth": 0.5},  # the peak underflowed
         "halfwidth must keep the bump's peak exp(-2 halfwidth^-gamma_exp) at least e^-700, "
         "got 0.5 at gamma_exp = 10"),
        ("track", {"K": 100, "K_low": 0},  # passes every rule; the library stops the run
         "flat control with K=100: derivative row 89 of the target is not finite; "
         "lower K below 89")],
        ids=["laplace-alpha", "fourier-gamma", "fourier-peak", "track-row"])
    def test_library_refusals_are_declared(self, tmp_path, capfd, cmd, values, msg):
        # each of the first three configs was refused by the library after the output
        # directory was made, in a line that did not name the key; a run the library
        # still stops leaves no output directory either
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run([cmd, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert capfd.readouterr() == (f"{cmd}: ERROR: {msg}\n", "")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("values, msg", [
        ({"t_max": 1e300},  # killed with exit code 137: GBs of image terms for each point
         "t_max = 1e+300 needs 1.29615e+153 Poisson terms over 200 points, above the cap of "
         "1000000"),
        ({"n_points": 10**8}, "n_points must be at most 10000, got 100000000")],
        ids=["t_max", "n_points"])
    def test_kernel_check_budget_stops_before_any_kernel_sum(self, tmp_path, capsys, monkeypatch,
                                                             values, msg):
        monkeypatch.setattr(heatsim, "kernel_k", lambda *a: pytest.fail("kernel_k was called"))
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["kernel-check", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().out == f"kernel-check: ERROR: {msg}\n"

    def test_plancherel_ratio_N_budget(self, tmp_path, capsys, monkeypatch):
        # N = 5000 ran past 60 s; every row past N ~ 400 overflows anyway
        monkeypatch.setattr(gevrey, "gevrey_norm_time", lambda *a: pytest.fail("a norm ran"))
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "N": 5000}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == (
            "plancherel-ratio: ERROR: N must be at most 512, got 5000\n")

    def test_mittag_type_n_points_budget(self, tmp_path, capsys, monkeypatch):
        # 10^8 points ran past 60 s, 10^5 took 5.9 s
        monkeypatch.setattr(numkit, "mittag_type_imaginary", lambda *a: pytest.fail("a fit ran"))
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "n_points": 1e8}))
        assert run(["mittag-type", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == (
            "mittag-type: ERROR: n_points = 100000000 needs 2e+08 series sums, one per point "
            "and beta, above the cap of 100000\n")

    @pytest.mark.parametrize("gamma_exps, halfwidth, code", [
        ([1.0, 1.5], 1e300, 2),  # LAPACK wrote to stderr, then "SVD did not converge"
        ([1.0, 250], 1e164, 0)],  # the bound: the fit is clean there at any gamma_exp
        ids=["above", "at"])
    def test_fourier_decay_halfwidth_bound(self, tmp_path, capfd, gamma_exps, halfwidth, code):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "gamma_exps": gamma_exps, "halfwidth": halfwidth}))
        assert run(["fourier-decay", "--config", str(cfgp), "--out", str(tmp_path)]) == code
        out, err = capfd.readouterr()
        assert err == ""
        if code:
            assert out == "fourier-decay: ERROR: halfwidth must be at most 1e+164, got 1e+300\n"

    @pytest.mark.filterwarnings("error")  # a warning of the fit must not reach stderr
    @pytest.mark.parametrize("gamma_exp, code", [(1e-13, 2), (1e-12, 0)], ids=["below", "at"])
    def test_fourier_decay_gamma_floor(self, tmp_path, capfd, gamma_exp, code):
        # at halfwidth 1 the fitted slope times gamma_exp reads 0.1616 at 1e-12
        # and strays below about 5e-14
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "gamma_exps": [gamma_exp]}))
        assert run(["fourier-decay", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == code
        out, err = capfd.readouterr()
        assert err == ""
        if code:
            assert out == ("fourier-decay: ERROR: gamma_exps entries must be at least 1e-12, "
                           "below which the fit's abscissae xi^(1/s_nominal) all but coincide "
                           "and the fitted slope is lost to rounding, got 1e-13\n")
            assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma_exps, halfwidth, code", [
        ([150], 0.99, 2),  # made the output directory, then "decay window too small"
        ([250], 0.99928, 2),  # spike width 0.0025797 halfwidth: just inside the rule's reach
        ([250], 0.99929, 0)],  # 0.0025830: the fit runs clean
        ids=["below", "edge-below", "edge-at"])
    def test_fourier_decay_spike_rule(self, tmp_path, capfd, gamma_exps, halfwidth, code):
        # the window closed below 0.0025783 halfwidth at gamma_exp = 250, and at less elsewhere
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "gamma_exps": gamma_exps,
                                    "halfwidth": halfwidth}))
        assert run(["fourier-decay", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == code
        out, err = capfd.readouterr()
        assert err == ""
        if code:
            assert out == ("fourier-decay: ERROR: halfwidth must let the grid resolve the bump's "
                           "central spike, of width halfwidth^(1 + g/2)/sqrt(2 g (g + 1)) at least "
                           f"0.00258 halfwidth, got {halfwidth:g} at gamma_exps entry "
                           f"g = {gamma_exps[0]}\n")
            assert not (tmp_path / "o").exists()
        else:
            assert out.startswith("fourier-decay: PASS")

    def test_fourier_decay_fail_names_the_failed_fits(self, tmp_path, capsys):
        # at halfwidth 100 both bump fits are flagged; the line said "bump fits positive and clean"
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "halfwidth": 100}))
        assert run(["fourier-decay", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        assert capsys.readouterr().out == ("fourier-decay: FAIL: bump(1.0) flagged as mismatch; "
                                           "bump(1.5) flagged as mismatch\n")

    def test_fourier_decay_fail_names_delta_and_gaussian(self, tmp_path, capsys, monkeypatch):
        fit = gevrey.fourier_decay_fit

        def flipped(sig, s):  # bump(1.5) loses its slope, the Gaussian its mismatch flag
            res = fit(sig, s)
            if sig.params.get("gamma_exp") == 1.5:
                return dataclasses.replace(res, delta=-0.25)
            return dataclasses.replace(res, mismatch=False) if s == 1.0 else res

        monkeypatch.setattr(gevrey, "fourier_decay_fit", flipped)
        assert run(["fourier-decay", "--out", str(tmp_path), "--assert"]) == 1
        assert capsys.readouterr().out == (
            "fourier-decay: FAIL: bump(1.5) delta -0.25 not positive; "
            "gaussian not flagged as mismatch for s=1\n")

    @pytest.mark.filterwarnings("error")  # the band's 0/0 warned on stderr before the FAIL
    @pytest.mark.parametrize("values", [{"gamma": -1000}], ids=["gamma"])
    def test_an_asymptotics_non_finite_band_fails_by_name(self, tmp_path, capfd, values):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["an-asymptotics", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        out, err = capfd.readouterr()
        assert err == ""
        assert out == ("an-asymptotics: FAIL: A_n/prediction band factor e^7923 over n in "
                       "[50, 2000] is beyond the float range (log ratio from -11564.1 to "
                       "-3641.37)\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, band, span", [
        # the log ratio spans -6942.1 to -6920.1: the ratios underflowed and the band read nan
        ({"s": 1000}, "3.513e+09", "[50, 2000]"),
        # the band printed with .3f ran to 83 digits
        ({"s": 1, "gamma": -150, "n_max": 300}, "3.588e+82", "[50, 300]")],
        ids=["s", "gamma-150"])
    def test_an_asymptotics_band_from_the_log_ratios(self, tmp_path, capfd, values, band, span):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["an-asymptotics", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        assert capfd.readouterr() == (f"an-asymptotics: FAIL: A_n/prediction band factor {band} "
                                      f"over n in {span} (allowed 10)\n", "")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, msg", [
        # numpy warned on stderr, then "ERROR: log_gamma requires x > 0, got nan"
        ({"s": 1e308}, "s = 1e+308 needs inf as alpha n_max = 2 s n_max"),
        # an OverflowError traceback from math.lgamma
        ({"s": 1e302}, "s = 1e+302 needs 4e+305 as alpha n_max = 2 s n_max"),
        # numpy warned on stderr, then "ERROR: math domain error"
        ({"gamma": -1.7e308}, "gamma = -1.7e+308 needs inf as beta = -gamma s"),
        ({"s": 1e300, "gamma": -1e10}, "gamma = -1e+10 needs inf as beta = -gamma s")],
        ids=["s-1e308", "s-1e302", "gamma", "product"])
    def test_an_asymptotics_products_bound(self, tmp_path, capfd, values, msg):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["an-asymptotics", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert capfd.readouterr() == (
            f"an-asymptotics: ERROR: {msg}, above the cap of 5e+304\n", "")
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values, ratio", [
        # alpha n_max = 4.8e304 and beta = 4.92e304: the coefficients' logs stay finite
        ({"s": 1.2e301, "gamma": -4100.0}, "0"),
        # exp of the log ratios overflowed with a warning on stderr
        ({"s": 1e250, "gamma": -1e-250}, "inf")], ids=["corner", "ratio-inf"])
    def test_an_asymptotics_inside_the_products_bound(self, tmp_path, capfd, values, ratio):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["an-asymptotics", "--config", str(cfgp), "--out", str(tmp_path)]) == 0
        out, err = capfd.readouterr()
        assert err == ""
        assert out.startswith("an-asymptotics: FAIL: A_n/prediction band factor e^")
        assert f",{ratio}\n" in (tmp_path / "an_asymptotics.csv").read_text()

    def test_plancherel_ratio_non_finite_norm_fails(self, tmp_path, capsys, monkeypatch):
        # N >= 100 gave NaN bump norms that max/min skipped, and a PASS
        from heatflat import gevrey

        norm_time = gevrey.gevrey_norm_time

        def nan_for_one_bump(sig, p, N):
            res = norm_time(sig, p, N)
            if sig.params == {"center": 1.0, "halfwidth": 2.0, "gamma_exp": 1.5}:
                return dataclasses.replace(res, partial_sums=res.partial_sums * math.nan)
            return res

        monkeypatch.setattr(gevrey, "gevrey_norm_time", nan_for_one_bump)
        assert run(["plancherel-ratio", "--out", str(tmp_path), "--assert"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("plancherel-ratio: FAIL: non-finite norm or ratio for two_sided_bump")
        assert out.count("two_sided_bump") == 1 and "gaussian" not in out
        assert "nan" in (tmp_path / "plancherel_ratio.csv").read_text()

    @staticmethod
    def _ratio_rows(out):
        lines = (out / "plancherel_ratio.csv").read_text().splitlines()[1:]
        return [line.split(",") for line in lines]

    @pytest.mark.parametrize("values, flag, rows", [
        # Gevrey order 1 + 1/gamma_exp > s = 1: the bump norms diverge
        ({"s": 1.0}, "time norm series not converged", [3, 4, 5, 7]),
    ], ids=["s1-diverged"])
    def test_plancherel_ratio_names_unconverged_norms(self, tmp_path, capsys, values, flag,
                                                      rows):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(dict(values, schema=1)))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        names = [r[0] for r in self._ratio_rows(tmp_path)]
        assert capsys.readouterr().out == (
            f"plancherel-ratio: FAIL: {flag} for {', '.join(names[i] for i in rows)}\n")

    def test_plancherel_ratio_names_signals_above_order_s(self, tmp_path, capsys):
        # two_sided_bump(., ., 1.5) is of order 5/3: its norms are infinite at
        # s = 1.5, though N = 16 rows converge (C_hat 2.24); order 1.5 is not above
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "s": 1.5}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        names = [r[0] for r in self._ratio_rows(tmp_path)]
        assert len(names) == 8
        assert capsys.readouterr().out == (
            "plancherel-ratio: FAIL: nominal Gevrey order above s = 1.5 for "
            f"{names[3]}, {names[4]}, {names[7]}\n")

    def test_plancherel_ratio_passes_at_s_above_every_order(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "s": 1.7}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 0
        assert capsys.readouterr().out == (
            "plancherel-ratio: PASS: ratio band needs C_hat = 2.31 (allowed 50)\n")

    def test_plancherel_ratio_names_unresolved_quadrature(self, tmp_path, capsys, monkeypatch):
        norm_time = gevrey.gevrey_norm_time
        bump = {"center": 1.0, "halfwidth": 2.0, "gamma_exp": 1.5}

        def unresolved_for_one_bump(sig, p, N):
            res = norm_time(sig, p, N)
            return dataclasses.replace(res, quadrature_ok=res.quadrature_ok and sig.params != bump)

        monkeypatch.setattr(gevrey, "gevrey_norm_time", unresolved_for_one_bump)
        assert run(["plancherel-ratio", "--out", str(tmp_path), "--assert"]) == 1
        name = self._ratio_rows(tmp_path)[4][0]
        assert name.startswith("two_sided_bump") and '"center": 1.0' in name
        assert capsys.readouterr().out == (
            f"plancherel-ratio: FAIL: time norm quadrature not converged for {name}\n")

    def test_plancherel_ratio_time_norms_hold_as_N_grows(self, tmp_path, capsys):
        # the quadrature settles on the weighted total, so the rows past n = 16,
        # below 1e-41 of it, neither move it nor ask for finer nodes; rows up
        # to n = 100 of the bumps stay finite
        norms = {}
        for N in (16, 32, 48, 64, 100):
            cfgp, out = tmp_path / f"cfg{N}.json", tmp_path / f"N{N}"
            cfgp.write_text(json.dumps({"schema": 1, "N": N}))
            assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(out),
                        "--assert"]) == 0
            norms[N] = np.array([float(r[1]) for r in self._ratio_rows(out)])
        for N in (32, 48, 64, 100):
            assert np.all(np.abs(norms[N] - norms[16]) <= 1e-12 * norms[16])
        assert capsys.readouterr().out.count("PASS") == 5

    @pytest.mark.filterwarnings("error")
    def test_plancherel_ratio_overflow_fails_by_name_without_warnings(self, tmp_path, capsys,
                                                                      monkeypatch):
        # rows near n = 128 of the bumps pass float64: their norms are NaN,
        # found on the first level of nodes
        norm_time = gevrey.gevrey_norm_time
        nodes = []

        def counted(sig, p, N):
            derivs, seen = sig.derivs, []
            sig.derivs = lambda n, t: seen.append(len(t)) or derivs(n, t)
            res = norm_time(sig, p, N)
            nodes.append(sum(seen))
            return res

        monkeypatch.setattr(gevrey, "gevrey_norm_time", counted)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "N": 128}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        names = [r[0] for r in self._ratio_rows(tmp_path)]
        assert capsys.readouterr().out.startswith(
            "plancherel-ratio: FAIL: non-finite norm or ratio for "
            f"{names[3]}, {names[4]}, {names[5]}, {names[7]}; ")
        assert [names[i].split("{")[0] for i in (3, 4, 5)] == ["two_sided_bump"] * 3
        assert [nodes[i] for i in (3, 4, 5, 7)] == [513] * 4

    @pytest.mark.filterwarnings("error")
    def test_plancherel_ratio_weight_overflow_fails_without_warnings(self, tmp_path, capsys):
        # at R = 50 the weight e^(2 R rho) overflows on the rho grid of the
        # bumps' Fourier norms: one FAIL line names them, nothing on stderr
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "R": 50}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "plancherel-ratio: FAIL: non-finite norm or ratio for two_sided_bump")

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings went to stderr
    def test_plancherel_ratio_simpson_sum_overflow_fails_without_warnings(self, tmp_path,
                                                                         capfd):
        # at gamma = 200, R = 5 the Simpson sum of every Fourier norm overflows, inside
        # the declared gamma range: one FAIL line names the signals, nothing on stderr
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, "gamma": 200, "R": 5}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        out, err = capfd.readouterr()
        assert err == ""
        names = [r[0] for r in self._ratio_rows(tmp_path)]
        assert len(names) == 8 and out.count("\n") == 1
        assert out.startswith(f"plancherel-ratio: FAIL: non-finite norm or ratio for "
                              f"{', '.join(names)}; ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cfg, why", [
        ({"gamma": -300, "s": 1}, "nominal Gevrey order above s = 1 for two_sided_bump"),
        ({"gamma": -300, "R": 20}, "ratio band needs C_hat = 127.16 (allowed 50)"),
        ({"gamma": 200, "s": 20}, "non-finite norm or ratio for gaussian"),
        ({"gamma": 200, "R": 1e-3}, "non-finite norm or ratio for gaussian"),
        ({"gamma": 200, "s": 5, "R": 20}, "non-finite norm or ratio for gaussian"),
        # from 1e6 up C_hat is printed with .3e: at s = 1e300 .2f gave about 300 digits
        ({"s": 1e6}, "ratio band needs C_hat = 1.024e+13 (allowed 50)\n"),
        ({"s": 1e300}, "ratio band needs C_hat = 5.516e+295 (allowed 50)\n"),
        ({"R": 1e6}, "non-finite norm or ratio for gaussian"),
    ], ids=["g-300-s1", "g-300-R20", "g200-s20", "g200-R1e-3", "g200-s5-R20", "s1e6",
            "s1e300", "R1e6"])
    def test_plancherel_ratio_range_edges_fail_by_name(self, tmp_path, capfd, cfg, why):
        # the gamma range [-300, 200] away from the default s and R, and extreme
        # s and R: one FAIL line that names the reason, nothing on stderr
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"schema": 1, **cfg}))
        assert run(["plancherel-ratio", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        out, err = capfd.readouterr()
        assert err == "" and out.count("\n") == 1
        assert out.startswith(f"plancherel-ratio: FAIL: {why}")

    @pytest.mark.parametrize("text, msg", [
        ("{bad", "cannot read config .*cfg.json: Expecting property name"),
        (None, "cannot read config .*cfg.json: .*No such file"),
        ("[1]", "config must be a JSON object"),
    ], ids=["bad-json", "missing-file", "not-an-object"])
    def test_malformed_config_rejected(self, tmp_path, capsys, text, msg):
        cfgp = tmp_path / "cfg.json"
        if text is not None:
            cfgp.write_text(text)
        assert run(["laplace-discrete", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        out = capsys.readouterr().out
        assert re.match(f"laplace-discrete: ERROR: {msg}", out) and out.count("\n") == 1

    def test_missing_schema_rejected(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"s_grid": [2.0]}))
        assert run(["loss-table", "--config", str(cfgp), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().out == (
            'loss-table: ERROR: config must be a JSON object carrying "schema": 1\n')

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            run(["frobnicate"])

    def test_assert_failure_exit_code(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        # unattainable threshold forces a FAIL and nonzero exit under --assert
        cfgp.write_text(json.dumps({"schema": 1, "threshold": 1e-30}))
        assert run(["kernel-check", "--config", str(cfgp), "--out", str(tmp_path),
                    "--assert"]) == 1
        assert "FAIL" in capsys.readouterr().out


def test_csv_format(tmp_path):
    # one writer: header line, then .17g numbers (repr-exact) joined by commas
    t = np.array([0.0, 0.1])
    sim = SimResult(t, np.array([0.0, 1 / 3]), np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                    np.array([[0.0, 0.5], [0.25, 1 / 3]]), True, 0.0)
    TrackingResult(sim, np.array([0.0, 0.3]), 0.0, FlatSum(sim.u, 0.0, True),
                   1).to_csv(tmp_path / "track.csv")
    _write_csv(tmp_path / "rows.csv", ["name", "n", "x"], [("a;b", 3, -2.5e-20)])
    read = lambda name: (tmp_path / name).read_text()
    assert read("track.csv") == ("t,y_target,y_sim,u\n0,0,0,1\n"
                                 "0.10000000000000001,0.29999999999999999,"
                                 "0.33333333333333331,2\n")
    assert read("rows.csv") == "name,n,x\na;b,3,-2.4999999999999999e-20\n"


def test_cli_imports_no_scipy(tmp_path):
    # numpy and mpmath are the whole runtime; scipy serves the tests as an oracle.  A
    # bergman-radius run imports no numpy.ma either (np.median did, 13.9 ms on first use)
    import os
    import subprocess
    import sys

    import heatflat

    src = os.path.dirname(os.path.dirname(heatflat.__file__))
    code = ("import sys, heatflat.cli; "
            f"heatflat.cli.main(['bergman-radius', '--out', {str(tmp_path)!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True).stdout
    assert out.splitlines()[-1] == "[]"
    assert out.startswith("bergman-radius: PASS")
