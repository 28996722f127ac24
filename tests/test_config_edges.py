"""Edge values for every config key of every subcommand.

Each key gets a value of another kind and, where it holds numbers, NaN,
Infinity, -Infinity and an integer beyond the float range (json reads all
four).  Every case must end in one stdout line ``{cmd}: ERROR: ...`` that
names the key, exit code 2, nothing on stderr and no result file.  A key
added to ``cli.SUBCOMMANDS`` is swept without a new test.
"""

import json
import math

import pytest

from heatflat import cli


def _with_first_number(v, x):
    """v with its first number, at any depth of a list, replaced by x; None without one."""
    if isinstance(v, list):
        for i, item in enumerate(v):
            new = _with_first_number(item, x)
            if new is not None:
                return v[:i] + [new] + v[i + 1:]
        return None
    return x if cli._kind(v) == "number" else None


def _cases():
    for cmd, (_, defaults) in cli.SUBCOMMANDS.items():
        for key, default in defaults.items():
            other = 1.0 if isinstance(default, str) else "x"
            yield pytest.param(cmd, key, other, id=f"{cmd}-{key}-other-kind")
            for x, name in ((math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
                            (10**400, "1e400")):
                value = _with_first_number(default, x)
                if value is not None:
                    yield pytest.param(cmd, key, value, id=f"{cmd}-{key}-{name}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd, key, value", list(_cases()))
def test_edge_value_is_one_error_line(tmp_path, capsys, cmd, key, value):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema": 1, key: value}))
    out_dir = tmp_path / "out"
    assert cli.main([cmd, "--config", str(cfgp), "--out", str(out_dir), "--assert"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"{cmd}: ERROR: ")
    assert f"'{key}'" in lines[0]
    assert not out_dir.exists()
