"""The 11 default result files and messages against their committed copies.

Every subcommand runs at its default config, in one process, into a fresh
directory.  Each result file is compared with ``tests/golden/<file>``: byte
for byte when TOLERANCES gives it no columns, otherwise column by column,
numbers within the stated bound and everything else as text.  The messages
must equal ``tests/golden/messages.txt`` line for line.

A change that moves a result file updates the golden copy and its bound here
in the same diff, and says by how much in CHANGES.md.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from heatflat import cli

GOLDEN = Path(__file__).parent / "golden"

# file -> {column or JSON key: ("rel", b) for |new - old| <= b |old| or
# ("abs", b) for |new - old| <= b}; an empty dict means byte-identical.
# The bounds are about twice the largest move seen when numkit.log_gamma
# (math.lgamma per entry) replaced scipy's gammaln and an 8-point Lagrange
# interpolant replaced the cubic spline of |F|^2; the moves are in CHANGES.md.
TOLERANCES = {
    "kernel_check.csv": {},
    "track.csv": {"u": ("abs", 2e-11),  # 2.4e-13 of max|u| = 35.6 moved
                  "y_sim": ("abs", 2e-15)},  # 9.7e-16 of max|y_sim| = 0.92
    "plancherel_ratio.csv": {"time_norm": ("rel", 1e-15),
                             # the spline's error, up to 1.5e-8, is gone
                             "fourier_norm": ("rel", 3e-8), "ratio": ("rel", 3e-8)},
    "an_asymptotics.csv": {"log_An": ("rel", 1e-15), "ratio": ("rel", 2e-11)},
    "laplace_discrete.csv": {},
    "theta_identity.csv": {},
    "bergman_radius.csv": {},
    "counterexample.json": {"residual_exponent": ("rel", 1e-10),
                            "residual_amplitude": ("rel", 1e-9),
                            "growth_sup": ("rel", 1e-15),
                            # a Pade-sensitive margin-norm slope (ROADMAP item 6)
                            "trackability_slope": ("rel", 1e-6)},
    "loss_table.csv": {},
    "fourier_decay.csv": {},
    "mittag_type.csv": {"fitted_type": ("rel", 5e-13), "abs_diff": ("abs", 5e-13)},
}


def _close(new: str, old: str, bound) -> bool:
    a, b = float(new), float(old)
    if not (math.isfinite(a) and math.isfinite(b)):
        return new == old
    kind, tol = bound
    return abs(a - b) <= (tol * abs(b) if kind == "rel" else tol)


def _columns(path: Path) -> dict:
    if path.suffix == ".json":
        return {k: [v if isinstance(v, str) else repr(v)]
                for k, v in json.loads(path.read_text()).items()}
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return {name: [r[i] for r in rows[1:]] for i, name in enumerate(rows[0])}


def _mismatches(new: Path, old: Path, tols: dict) -> list:
    if not tols:
        return [] if new.read_bytes() == old.read_bytes() else ["not byte-identical"]
    cn, co = _columns(new), _columns(old)
    if list(cn) != list(co):
        return [f"columns {list(cn)} != {list(co)}"]
    bad = []
    for name in co:
        if len(cn[name]) != len(co[name]):
            bad.append(f"{name}: {len(cn[name])} rows != {len(co[name])}")
            continue
        for i, (a, b) in enumerate(zip(cn[name], co[name])):
            if not (a == b or (name in tols and _close(a, b, tols[name]))):
                bad.append(f"{name}[{i}]: {a} != {b}")
    return bad


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    lines = []
    for name in cli.SUBCOMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main([name, "--out", str(out)])
        lines.append(buf.getvalue())
    return out, "".join(lines)


def test_every_result_file_has_a_golden_copy(default_run):
    out, _ = default_run
    assert sorted(p.name for p in out.iterdir()) == sorted(TOLERANCES)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*TOLERANCES, "messages.txt"])


@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_result_file_matches_golden(default_run, name):
    out, _ = default_run
    assert _mismatches(out / name, GOLDEN / name, TOLERANCES[name]) == []


def test_messages_match_golden(default_run):
    _, messages = default_run
    assert messages == (GOLDEN / "messages.txt").read_text()
