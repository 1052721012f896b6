"""The command-line parser: parsed values, usage errors, help, and a
property over arbitrary argv."""

import random

import pytest

from stabctab.cli import COMMANDS, build_parser
from stabctab.errors import BadInput

from draws import GRAMMAR, RUNS, command, run, text
from test_cli import check, each


@pytest.mark.parametrize("argv, values", [
    (["stable-betti", "--b1", "0", "--b2=10", "--max-k", "4"],
     {"b1": 0, "b2": 10, "max_k": 4, "format": "tsv"}),
    (["perverse", "--format=json", "--oracle", "--b2", "2", "--b1=2"],
     {"b1": 2, "b2": 2, "max_order": 12, "oracle": True, "format": "json"}),
    (["identity", "--b1", "-2", "--b2=-1", "--order", "-3", "--perturb"],
     {"b1": -2, "b2": -1, "order": -3, "perturb": True, "format": "tsv"}),
    (["germ", "--poly", "-x^2 + y^3", "--branches=a=b.br"],
     {"poly": "-x^2 + y^3", "branches": "a=b.br", "format": "tsv"}),
    (["germ", "--poly=", "--format", "json"],
     {"poly": "", "branches": None, "format": "json"}),
    (["bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2", "--j=3", "--generic"],
     {"surface": "enriques", "beta_sq": 10, "a": None, "b": None, "lam": None, "mu": None,
      "gamma": None, "d": None, "i": 2, "j": 3, "generic": True, "format": "tsv"}),
    (["bounds", "--surface=bielliptic", "--a", "1", "--b", "2", "--lambda=1/2", "--mu", "3",
      "--gamma", "2", "--d", "+4"],
     {"surface": "bielliptic", "beta_sq": None, "a": 1, "b": 2, "lam": "1/2", "mu": "3",
      "gamma": 2, "d": 4, "i": None, "j": None, "generic": False, "format": "tsv"}),
    (["decompose", "--lattice=bielliptic-rank2", "--beta=-1,3"],
     {"lattice": "bielliptic-rank2", "beta": "-1,3", "format": "tsv"}),
    (["stable-betti", "--b1", "0", "--b1", "2", "--b2", "1", "--format", "json",
      "--format=tsv", "--b2=3"],
     {"b1": 2, "b2": 3, "max_k": 12, "format": "tsv"}),
    (["identity", "--b1", "0", "--b2", "1"],
     {"b1": 0, "b2": 1, "order": 12, "perturb": False, "format": "tsv"}),
], ids=["stable-betti", "perverse", "identity", "germ", "germ-empty", "bounds-enriques",
        "bounds-bielliptic", "decompose", "last-repeat-wins", "identity-default-order"])
def test_parsed_values(argv, values):
    assert vars(build_parser().parse_args(argv)) == {"subcommand": argv[0], **values}


@each("usage")
def test_usage_errors_exit_2_with_one_line(call, tmp_path, monkeypatch):
    check(call, tmp_path, monkeypatch)
    # the parser raises the message, and main adds the "stabctab ...: " prefix
    with pytest.raises(BadInput) as info:
        build_parser().parse_args(call.argv)
    assert call.err.partition(": ")[2] == f"{info.value}\n"


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "frob"]])
def test_top_level_help(argv):
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    # the parser returns the help, and main writes it
    assert build_parser().parse_args(argv) == out
    assert out.startswith("usage: stabctab SUBCOMMAND [FLAGS]\n")
    for name, (about, _, _) in COMMANDS.items():
        assert f"  {name}  " in out and about in out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_subcommand_help_lists_every_flag(name):
    for argv in ([name, "--help"], [name, "--format", "json", "-h", "--frob"]):
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        usage, *rest = out.splitlines()
        assert usage.startswith(f"usage: stabctab {name} ")
        listed = [line.split()[0] for line in rest if line.startswith("  --")]
        assert listed == [f for f, spec in COMMANDS[name][2].items() if not spec.get("hidden")]
        assert "--perturb" not in out


def test_help_shows_the_default_order():
    code, out, _ = run(["perverse", "--help"])
    assert code == 0
    assert "(default: 12)" in out and "--b1 B1" in out and "(required)" in out


#: Named flag values: choices, lattices, classes, polynomials, rationals
#: and bare punctuation.
WORDS = ["tsv", "json", "enriques", "bielliptic", "bielliptic-rank2", "1,1", "3,2", "-1,3",
         "y^2 - x^3", "x*y", "0", "1/2", "1/0", "", "=", "-", "--"]

#: The characters of a short junk value: the polynomial grammar's, the
#: separators of a flag and a class, a letter that is not ASCII, a
#: no-break space and NUL.
JUNK = GRAMMAR + "=,\u00e9\u00a0\x00"


def value(rng) -> str:
    """A flag value: an integer in -3..12, a named word, or up to 4
    characters of ``JUNK``, each a third of the time."""
    kind = rng.randrange(3)
    if kind == 0:
        return str(rng.randint(-3, 12))
    return rng.choice(WORDS) if kind == 1 else text(rng, JUNK, 4)


def argv(rng) -> list:
    """A subcommand with flags that make it run (or junk), then up to four
    flags of that subcommand (or junk) with a value in both forms or bare,
    and stray values."""
    name = rng.choice([*COMMANDS, "frob", "", "-h", "--help", "--b1"])
    out = command(name) if name in RUNS else [name]
    flags = [*COMMANDS.get(name, COMMANDS["bounds"])[2], "-h", "--frob"]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice("ppppjjjjbs")
        if kind == "p":
            out += [rng.choice(flags), value(rng)]
        elif kind == "j":
            out.append(f"{rng.choice(flags)}={value(rng)}")
        else:
            out.append(rng.choice(flags) if kind == "b" else value(rng))
    return out


def test_any_argv_returns_or_exits_0_or_2():
    rng = random.Random(44)
    for _ in range(400):
        call = argv(rng)
        code, out, err = run(call)
        # the one verification a drawn call can fail is the identity that
        # the hidden --perturb breaks on purpose: exit 1, stderr empty
        perturbed = call[0] == "identity" and "--perturb" in call
        assert code in ((0, 1, 2) if perturbed else (0, 2)), (call, err)
        if code == 1:
            assert err == "" and "FAIL" in out, call
        if code == 2:
            assert out == "" and err.count("\n") == 1, (call, err)


def test_any_argv_ignores_the_old_order_variable():
    # STABCTAB_MAX_ORDER once set the default order; no value of it may
    # change a call
    rng = random.Random(45)
    with pytest.MonkeyPatch.context() as mp:
        for _ in range(150):
            call = argv(rng)
            mp.delenv("STABCTAB_MAX_ORDER", raising=False)
            unset = run(call)
            mp.setenv("STABCTAB_MAX_ORDER", rng.choice(["frog", "-1", "65", "3"]))
            assert run(call) == unset, call
