"""Edge values for every config key of every subcommand.

Each key gets a value of another kind and, where it holds numbers, NaN,
Infinity, -Infinity and an integer beyond the float range (json reads all
four).  Every case must end in one stdout line ``{cmd}: ERROR: ...`` that
names the key, exit code 2, nothing on stderr and no result file.  A key
declared in ``cli._DECLARED`` is swept without a new test.

After those cases, the sweep of the declared ranges is generated from
``cli.RULES``: one config just past every bound, cross-key rule and budget
ends the same way, in the line that rule gives.  The walks start from the
defaults, and from ``STARTS`` where a rule binds only far from them.
"""

import json
import math
import re
import sys

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


# ---------------------------------------------------------------------------
# The edge sweep generated from cli.RULES.  Each number of each key walks away
# from its default in doubling steps, and every change in which rule the config
# breaks first is bisected to its edge; a string also becomes another string,
# and a list loses or gains an entry.  The first config found past each rule's
# edge is one case, so every bound, cross-key rule and budget has one.
# ---------------------------------------------------------------------------

# the keys left open on purpose: the acceptance thresholds
OPEN = {("kernel-check", "threshold"), ("track", "threshold"), ("track", "shrink_factor"),
        ("plancherel-ratio", "c_hat"), ("an-asymptotics", "band_factor"),
        ("theta-identity", "c_max"), ("bergman-radius", "window"),
        ("counterexample", "exponent_lo"), ("counterexample", "exponent_hi"),
        ("mittag-type", "tolerance")}


def _first_broken(cmd, cfg):
    """(key, index, message with its numbers cut) of the first rule of cli.RULES[cmd] that
    cfg breaks, or None; a rule with several limits gives one message for each."""
    for key, rules in cli.RULES[cmd].items():
        for i, rule in enumerate(rules):
            if line := cli._broken(rule, cfg[key], cfg):
                return key, i, re.sub(r"-?\d[\d.e+-]*|inf", "#", line)
    return None


def _paths(v, at=()):
    """Paths to the numbers of v: each entry of a list, in a list of lists the first's."""
    if isinstance(v, list):
        return [p for i, x in enumerate(v[:1] if isinstance(v[0], list) else v)
                for p in _paths(x, at + (i,))]
    return [at] if cli._kind(v) == "number" else []


def _get(v, path):
    return _get(v[path[0]], path[1:]) if path else v


def _put(v, path, x):
    return x if not path else v[:path[0]] + [_put(v[path[0]], path[1:], x)] + v[path[0] + 1:]


def _reshaped(v):
    """Another string, and a list with one entry fewer or one more (of its first entry too)."""
    if isinstance(v, str):
        return ["x"]
    if not isinstance(v, list):
        return []
    out = [v[:-1], v + v[-1:], ["x"] + v[1:] if isinstance(v[0], str) else []]
    if isinstance(v[0], list):
        out += [[v[0][:-1]] + v[1:], [v[0] + v[0][-1:]] + v[1:]]
    return [w for w in out if w and cli._kind(w) == cli._kind(v)]


def _changes(f, a, x, whole):
    """Each b in (a, x] where f(b) differs from f just before it, nearest to a first."""
    while f(x) != f(a):
        b, fa = x, f(a)
        while (mid := (a + b) // 2 if whole else a / 2 + b / 2) not in (a, b):
            a, b = (mid, b) if f(mid) == fa else (a, mid)
        yield b
        a = b


# further configs the walks start from, after the defaults: fourier-decay's spike rule binds
# only at gamma_exps above 14, and track's mode budget on dt only below 8.26e-10, where every
# walk from the defaults breaks another rule first (at T = 1, the time-step cap)
STARTS = {"fourier-decay": [{"gamma_exps": [150.0]}], "track": [{"T": 1e-7}]}


def _outside(cmd):
    """{first broken rule, as _first_broken gives it: the keys set, just past its edge}."""
    found = {}
    for start in [{}] + STARTS.get(cmd, []):
        base = dict(cli.SUBCOMMANDS[cmd][1], **start)
        for key, default in base.items():
            def first(v):
                return _first_broken(cmd, dict(base, **{key: v}))

            def note(v):
                if first(v) is not None:
                    found.setdefault(first(v), dict(start, **{key: v}))
            for v in _reshaped(default):
                note(v)
            for path, d in [(p, d) for p in _paths(default) for d in (1, -1)]:
                a = x0 = _get(default, path)
                whole = isinstance(x0, int)
                at = lambda x: _put(default, path, x)
                if whole:  # a fraction where an integer goes
                    note(at(x0 + 0.5))
                for k in range(0 if whole else -40, 1024):
                    x = x0 + d * (2**k if whole else 2.0**k)
                    if abs(x) > sys.float_info.max:
                        break
                    for b in _changes(lambda y: first(at(y)), a, x, whole):
                        note(at(b))
                    a = x
    return found


_SWEEP = [(cmd, rule_key, i, values) for cmd in cli.RULES
          for (rule_key, i, _), values in sorted(_outside(cmd).items())]


def _sweep_ids():
    # cmd-key-rule<i>, and -<j> for the j-th further limit of one rule
    seen = []
    for cmd, rule_key, i, *_ in _SWEEP:
        j = seen.count((cmd, rule_key, i))
        seen.append((cmd, rule_key, i))
        yield f"{cmd}-{rule_key}-rule{i}" + (f"-{j}" if j else "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cmd, rule_key, i, values", _SWEEP, ids=list(_sweep_ids()))
def test_just_past_a_declared_edge_is_one_error_line(tmp_path, capsys, cmd, rule_key, i, values):
    # the keys set may be others than the rule's: a cross-key rule or a budget
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"schema": 1, **values}))
    out_dir = tmp_path / "out"
    assert cli.main([cmd, "--config", str(cfgp), "--out", str(out_dir), "--assert"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    cfg = dict(cli.SUBCOMMANDS[cmd][1], **values)
    line = cli._broken(cli.RULES[cmd][rule_key][i], cfg[rule_key], cfg)
    assert captured.out == f"{cmd}: ERROR: {rule_key} {line}\n"
    assert not out_dir.exists()


def test_every_rule_has_an_edge_case():
    rules = [(cmd, key, i) for cmd, keys in cli.RULES.items()
             for key, rs in keys.items() for i in range(len(rs))]
    assert sorted(rules) == sorted({(cmd, rule_key, i) for cmd, rule_key, i, *_ in _SWEEP})


def test_every_key_is_declared():
    # a key lands with its rules, or as an acceptance threshold left open, and the defaults
    # list the keys in the order their rules are checked
    for cmd, (_, defaults) in cli.SUBCOMMANDS.items():
        assert list(cli.RULES[cmd]) == list(defaults)
    assert {(cmd, key) for cmd, keys in cli.RULES.items() for key, rs in keys.items()
            if not rs} == OPEN
