"""The names the package exports, and the ones the traced benchmark run needs.

``perfbench/run.py --trace 1`` patches heatflat's functions by name and reads
fields of the results it counts (``perfbench/tracing.py``); a deletion that
removes one of them breaks traced runs without failing any other test.
"""

import os

import pytest

from heatflat import cli, flatness, gevrey, heatsim, holo, numkit, plancherel

MODULES = (flatness, gevrey, heatsim, holo, numkit, plancherel)

# (owner, attribute) pairs that perfbench/tracing.py patches or reads.
TRACED = [
    (gevrey, "gaussian_signal"), (gevrey, "two_sided_bump"), (gevrey, "bump_gevrey"),
    (gevrey.Signal, "deriv"), (gevrey, "_log_l2_norm"),
    (gevrey, "gevrey_norm_time"), (gevrey, "weighted_fourier_norm"),
    (holo, "bergman_norm_estimate"), (flatness, "bergman_norm_estimate"),
    (holo.CoeffSeq, "log_mag"), (holo.CoeffSeq, "phase"), (holo.CoeffSeq, "parity"),
    (holo, "SeriesEvaluator"), (holo.SeriesEvaluator, "values"),
    (holo.OmegaDomain, "quad_nodes"), (holo, "radius_Ra"),
    (holo, "interpolation_counterexample"),
    (plancherel, "discrete_laplace"), (plancherel, "convolution_An"),
    (numkit, "theta_gauss_sum"),
    (heatsim, "simulate"), (flatness, "simulate"), (heatsim, "kernel_k"),
    (heatsim.SimResult, "t"), (heatsim.SimResult, "closure_active"), (heatsim.SimConfig, "J"),
    (flatness, "flat_control"), (flatness, "tracking_experiment"),
    (flatness, "check_trackable_infinite"), (flatness, "check_trackable_finite"),
    (flatness.TrackingResult, "to_csv"), (cli, "_write_csv"),
]


@pytest.mark.parametrize("mod", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(mod):
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_every_traced_attribute_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in TRACED
               if not (hasattr(owner, attr) or attr in getattr(owner, "__dataclass_fields__", {}))]
    assert missing == []


@pytest.mark.parametrize("name", ["track", "kernel-check"])
def test_subcommand_entry_writes_through_the_traced_name(name, tmp_path, monkeypatch):
    # perfbench runs a unit as ok, msg = SUBCOMMANDS[name][0](cfg, out), and its tracer
    # counts the bytes of every CSV written through cli._write_csv
    write, paths = cli._write_csv, []
    monkeypatch.setattr(cli, "_write_csv", lambda path, *a: paths.append(path) or write(path, *a))
    result = cli.SUBCOMMANDS[name][0](dict(cli.SUBCOMMANDS[name][1]), str(tmp_path))
    assert len(result) == 2 and type(result[0]) is bool and type(result[1]) is str
    csv = name.replace("-", "_") + ".csv"
    assert paths == [os.path.join(tmp_path, csv)]
    assert [p.name for p in tmp_path.iterdir()] == [csv]
