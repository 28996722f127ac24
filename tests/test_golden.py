"""The 11 default result files and messages against their committed copies.

Every subcommand runs at its default config, in one process, into a fresh
directory, with its defaults spelled out in a ``--config`` file.  Each
result file is compared with ``tests/golden/<file>``: byte for byte when
TOLERANCES gives it no columns, otherwise column by column, numbers within
the stated bound and everything else as text.  The messages must equal
``tests/golden/messages.txt`` line for line.  The 11 runs are made again in
reverse order into a second directory, without a config and with the caches
of the first runs still warm, and must give the same bytes.  Each ``run_*``
is also called alone at its defaults with ``open`` and ``os.makedirs`` made
to raise: it must return its golden message and exactly its golden file's
name, which ``cli._write`` alone writes.

A change that moves a result file updates the golden copy and its bound here
in the same diff, and says by how much in CHANGES.md.

The 11 runs are made once more in a subprocess under
``OPENBLAS_CORETYPE=Nehalem``, a BLAS kernel for CPUs without AVX, and must
match the same golden copies under the same TOLERANCES: the results must not
hang on the kernel that OpenBLAS picks for the CPU.  That check is skipped
where numpy is not linked to OpenBLAS.

The first runs are traced with ``sys.setprofile``.  Every module-level
function and class method of ``src/heatflat`` that none of them calls must
be in KEEP with the reason it stays, and every entry of KEEP must be such a
function; methods that ``dataclasses`` generates are not counted.  A new
function that no default run reaches, or a kept one that becomes reached,
is a one-line edit of KEEP in the same diff.
"""

import builtins
import contextlib
import csv
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import heatflat
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
    # the residual fields, fitted by numkit.fit_line, compare as text
    "counterexample.json": {"growth_sup": ("rel", 1e-15),
                            # a Pade-sensitive margin-norm slope (ROADMAP item 6)
                            "trackability_slope": ("rel", 1e-6)},
    "loss_table.csv": {},
    "fourier_decay.csv": {},
    "mittag_type.csv": {},
}


# qualified name -> why it stays although no default run calls it: the links
# of the chain that no run reaches yet
KEEP = {
    "flatness.Trackable2Result.reachable_class":
        "terminal-state link of the chain (ROADMAP item 5); perfbench chain",
    "flatness.TrackingResult.to_csv": "perfbench's tracer patches it",
    "flatness.check_trackable_finite":
        "finite-horizon trackability test; perfbench chain and its tracer",
    "flatness.check_trackable_infinite":
        "infinite-horizon trackability series; perfbench norms and chain",
    "flatness.flat_state": "flat state z(t, x) of the chain (ROADMAP item 5); test_flatness",
    "flatness.terminal_state_report":
        "reachability of a terminal Taylor sequence (ROADMAP item 5); test_flatness",
    "gevrey.Signal.deriv": "one derivative row; perfbench's tracer wraps it",
    "gevrey.bump_gevrey": "the one-sided bump target as a Signal; perfbench norms and chain",
    "gevrey.gevrey_cutoff": "Gevrey cutoff of order s; test_gevrey and test_flatness",
    "holo.CoeffSeq.from_values":
        "builds the terminal sequence of check_trackable_finite; test_holo",
}


def _library():
    """(module, qualified name, object) of every module-level name and class
    attribute of src/heatflat, functions still wrapped (an lru_cache, say)."""
    for info in pkgutil.iter_modules(heatflat.__path__):
        mod = importlib.import_module(f"heatflat.{info.name}")
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, m in vars(obj).items():
                    m = getattr(m, "__func__", m)  # staticmethod, classmethod
                    accessors = (m.fget, m.fset, m.fdel) if isinstance(m, property) else (m,)
                    for a in accessors:
                        yield mod, f"{info.name}.{name}.{attr}", a
            else:
                yield mod, f"{info.name}.{name}", obj


def _library_functions() -> dict:
    """Qualified name -> code object; dataclass-generated methods have no
    code in the module's file and are left out."""
    out = {}
    for mod, name, obj in _library():
        fn = inspect.unwrap(obj)
        if inspect.isfunction(fn) and fn.__code__.co_filename == mod.__file__:
            out[name] = fn.__code__
    return out


def _run_all(names, out: Path, configs: Path = None) -> dict:
    """Messages of the runs by name; with ``configs``, each run reads its
    defaults from a config file written there."""
    messages = {}
    for name in names:
        args = [name, "--out", str(out)]
        if configs is not None:
            path = configs / f"{name}.json"
            path.write_text(json.dumps({"schema": 1, **cli.SUBCOMMANDS[name][1]}))
            args += ["--config", str(path)]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(args)
        messages[name] = buf.getvalue()
    return messages


@dataclass
class DefaultRun:
    out: Path
    messages: str
    reverse_out: Path
    reverse_messages: str  # in forward order
    called: set  # code objects the first runs entered


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
    # earlier tests may have filled the caches: cleared, a cached function's
    # body is entered by the traced runs whatever ran before
    for _, _, obj in _library():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    out, reverse_out = tmp_path_factory.mktemp("golden"), tmp_path_factory.mktemp("reverse")
    configs = tmp_path_factory.mktemp("configs")
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        messages = _run_all(cli.SUBCOMMANDS, out, configs)
    finally:
        sys.setprofile(previous)
    reverse = _run_all(list(cli.SUBCOMMANDS)[::-1], reverse_out)
    return DefaultRun(out, "".join(messages.values()), reverse_out,
                      "".join(reverse[name] for name in cli.SUBCOMMANDS), called)


def test_every_result_file_has_a_golden_copy(default_run):
    out = default_run.out
    assert sorted(p.name for p in out.iterdir()) == sorted(TOLERANCES)
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*TOLERANCES, "messages.txt"])


@pytest.mark.parametrize("name", sorted(TOLERANCES))
def test_result_file_matches_golden(default_run, name):
    assert _mismatches(default_run.out / name, GOLDEN / name, TOLERANCES[name]) == []


def test_messages_match_golden(default_run):
    assert default_run.messages == (GOLDEN / "messages.txt").read_text()


@pytest.mark.parametrize("name", cli.SUBCOMMANDS)
def test_runs_touch_no_file(name, monkeypatch):
    # a run returns its result files and its message; cli._write alone makes the files
    messages = (GOLDEN / "messages.txt").read_text()

    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} touched the filesystem: {args}")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(os, "makedirs", refuse)
    ok, msg, files = getattr(cli, "run_" + name.replace("-", "_"))(dict(cli.SUBCOMMANDS[name][1]))
    assert type(ok) is bool and type(msg) is str
    assert list(files) == [f for f in TOLERANCES if f.split(".")[0] == name.replace("-", "_")]
    assert f"{name}: {'PASS' if ok else 'FAIL'}: {msg}\n" in messages


def test_reverse_order_gives_the_same_bytes(default_run):
    # process-wide caches (OmegaDomain.quad_nodes, numkit._line_format) are
    # warm for the reverse runs and must not change what they write, nor must
    # the defaults spelled out in the forward runs' config files
    files = sorted(p.name for p in default_run.out.iterdir())
    assert sorted(p.name for p in default_run.reverse_out.iterdir()) == files
    assert [f for f in files if (default_run.out / f).read_bytes()
            != (default_run.reverse_out / f).read_bytes()] == []
    assert default_run.reverse_messages == default_run.messages


def test_unreached_functions_are_kept_on_purpose(default_run):
    unreached = {name for name, code in _library_functions().items()
                 if code not in default_run.called}
    assert sorted(unreached - set(KEEP)) == []  # add to KEEP, with the reason
    assert sorted(set(KEEP) - unreached) == []  # reached or gone: drop from KEEP


def _blas_name() -> str:
    """The BLAS numpy was built against, in lower case; '' where numpy does not say."""
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"].lower()
    except (TypeError, KeyError):  # numpy < 1.25 has no mode
        return ""


_RUN_ALL = """
import sys
from heatflat import cli
for name in cli.SUBCOMMANDS:
    cli.main([name, "--out", sys.argv[1]])
"""


@pytest.mark.skipif("openblas" not in _blas_name(),
                    reason="numpy is not linked to OpenBLAS, so OPENBLAS_CORETYPE picks no kernel")
def test_default_runs_match_golden_under_the_nehalem_blas_kernel(tmp_path):
    env = dict(os.environ, OPENBLAS_CORETYPE="Nehalem",
               PYTHONPATH=str(Path(heatflat.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _RUN_ALL,
                           str(tmp_path)], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (GOLDEN / "messages.txt").read_text()
    assert {name: _mismatches(tmp_path / name, GOLDEN / name, tols)
            for name, tols in TOLERANCES.items()} == {name: [] for name in TOLERANCES}
