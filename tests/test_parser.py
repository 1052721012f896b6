"""The command-line parser: parsed values, usage errors, help, and a
property over arbitrary argv."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabctab.cli import COMMANDS, build_parser, main
from stabctab.errors import BadInput


def parsed(argv):
    return vars(build_parser().parse_args(argv))


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
    assert parsed(argv) == {"subcommand": argv[0], **values}


@pytest.mark.parametrize("argv, err", [
    ([], "stabctab: missing subcommand; choose from "
         "stable-betti, perverse, identity, germ, bounds, decompose"),
    (["frob", "--b1", "0"], "stabctab: unknown subcommand 'frob'; choose from "
                            "stable-betti, perverse, identity, germ, bounds, decompose"),
    (["no-such-command"], "stabctab: unknown subcommand 'no-such-command'; choose from "
                          "stable-betti, perverse, identity, germ, bounds, decompose"),
    (["--b1", "0"], "stabctab: unknown subcommand '--b1'; choose from "
                    "stable-betti, perverse, identity, germ, bounds, decompose"),
    (["stable-betti", "--b1", "0", "--b2", "1", "--max"],
     "stabctab stable-betti: unknown flag '--max'"),
    (["perverse", "--b1", "0", "--b2", "1", "--perturb"],
     "stabctab perverse: unknown flag '--perturb'"),
    (["germ", "--poly", "x", "y"], "stabctab germ: unexpected argument 'y'"),
    (["identity", "--b1", "0", "--b2", "1", "--order"], "stabctab identity: --order needs a value"),
    (["stable-betti", "--b1", "0", "--b2", "ten"],
     "stabctab stable-betti: --b2 needs an integer, got 'ten'"),
    (["stable-betti", "--b1", "0", "--b2", "1_0"],
     "stabctab stable-betti: --b2 needs an integer, got '1_0'"),
    (["stable-betti", "--b1", "0", "--b2", "\u0661"],
     "stabctab stable-betti: --b2 needs an integer, got '\u0661'"),
    # an integer, but of more digits than Python reads: not echoed
    (["stable-betti", "--b1", "0", "--b2", "9" * 5000],
     "stabctab stable-betti: --b2 has more digits than Python reads; "
     "its cap is 1000000000000"),
    (["decompose", "--lattice", "x", "--beta", "1", "--format", "xml"],
     "stabctab decompose: --format must be one of tsv, json, got 'xml'"),
    (["bounds", "--surface=k3"],
     "stabctab bounds: --surface must be one of enriques, bielliptic, got 'k3'"),
    (["perverse", "--b1", "0"], "stabctab perverse: missing required --b2"),
    (["stable-betti", "--b1", "0"], "stabctab stable-betti: missing required --b2"),
    (["decompose"], "stabctab decompose: missing required --lattice, --beta"),
    (["perverse", "--b1", "0", "--b2", "1", "--oracle=yes"],
     "stabctab perverse: --oracle takes no value"),
    # the caps are checked after every other usage error
    (["perverse", "--b1", "0", "--b2", "1", "--max-order", "65", "--oracle"],
     "stabctab perverse: --max-order 65 exceeds the cap of 64"),
    (["identity", "--b1", "0", "--b2", "1", "--order", "65"],
     "stabctab identity: --order 65 exceeds the cap of 64"),
    (["stable-betti", "--b1", "0", "--b2", "1", "--max-k", "385"],
     "stabctab stable-betti: --max-k 385 exceeds the cap of 384"),
], ids=["no-subcommand", "unknown-subcommand", "no-such-command", "flag-first", "unknown-flag",
        "hidden-elsewhere", "stray-argument", "missing-value", "non-integer",
        "underscore-integer", "arabic-indic-integer", "integer-too-long-to-read",
        "format-choice", "surface-choice", "missing-required", "stable-betti-missing-required",
        "missing-two", "switch-value",
        "max-order-above-cap", "order-above-cap", "max-k-above-cap"])
def test_usage_errors_exit_2_with_one_line(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err + "\n")
    # the parser raises the message, and main adds the "stabctab ...: " prefix
    with pytest.raises(BadInput) as info:
        build_parser().parse_args(argv)
    assert err.partition(": ")[2] == str(info.value)


def shown_flags(name):
    return [f for f, spec in COMMANDS[name][2].items() if not spec.get("hidden")]


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["-h", "frob"]])
def test_top_level_help(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    # the parser returns the help, and main writes it
    assert build_parser().parse_args(argv) == captured.out
    assert captured.out.startswith("usage: stabctab SUBCOMMAND [FLAGS]\n")
    for name, (about, _, _) in COMMANDS.items():
        assert f"  {name}  " in captured.out and about in captured.out


@pytest.mark.parametrize("name", list(COMMANDS))
def test_subcommand_help_lists_every_flag(capsys, name):
    for argv in ([name, "--help"], [name, "--format", "json", "-h", "--frob"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        usage, *rest = captured.out.splitlines()
        assert usage.startswith(f"usage: stabctab {name} ")
        listed = [line.split()[0] for line in rest if line.startswith("  --")]
        assert listed == shown_flags(name)
        assert "--perturb" not in captured.out


def test_help_shows_the_default_order(capsys):
    assert main(["perverse", "--help"]) == 0
    out = capsys.readouterr().out
    assert "(default: 12)" in out and "--b1 B1" in out and "(required)" in out


VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["tsv", "json", "enriques", "bielliptic", "bielliptic-rank2", "1,1", "3,2",
                     "-1,3", "y^2 - x^3", "x*y", "0", "1/2", "1/0", "", "=", "-", "--"]),
    st.text(max_size=4),
)


#: A call of each subcommand that runs, for argvs to start from.
RUNS = {
    "stable-betti": ["--b1", "0", "--b2", "1"],
    "perverse": ["--b1", "0", "--b2", "1"],
    "identity": ["--b1", "0", "--b2", "1"],
    "germ": ["--poly", "x*y"],
    "bounds": ["--surface", "enriques", "--beta-sq", "10", "--d", "2"],
    "decompose": ["--lattice", "bielliptic-rank2", "--beta", "2,2"],
}


@st.composite
def argvs(draw):
    """A subcommand with flags that make it run (or junk), then flags of
    that subcommand (or junk) with a value in both forms or bare, and
    stray values."""
    name = draw(st.sampled_from([*COMMANDS, "frob", "", "-h", "--help", "--b1"]))
    argv = [name, *RUNS.get(name, [])]
    flags = st.sampled_from([*COMMANDS.get(name, COMMANDS["bounds"])[2], "-h", "--frob"])
    for kind in draw(st.lists(st.sampled_from("ppppjjjjbs"), max_size=4)):
        if kind == "p":
            argv += [draw(flags), draw(VALUES)]
        elif kind == "j":
            argv.append(f"{draw(flags)}={draw(VALUES)}")
        else:
            argv.append(draw(flags if kind == "b" else VALUES))
    return argv


def outcome(argv):
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=400)
@given(argvs())
def test_any_argv_returns_or_exits_0_or_2(argv):
    code, out, err = outcome(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "" and err.count("\n") == 1


@settings(max_examples=150)
@given(argvs(), st.sampled_from(["frog", "-1", "65", "3"]))
def test_any_argv_ignores_the_old_order_variable(argv, value):
    # STABCTAB_MAX_ORDER once set the default order; no value of it may
    # change a call
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("STABCTAB_MAX_ORDER", raising=False)
        unset = outcome(argv)
        mp.setenv("STABCTAB_MAX_ORDER", value)
        assert outcome(argv) == unset, argv
