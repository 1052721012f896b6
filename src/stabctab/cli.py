"""Command-line interface.

Every subcommand prints one machine-readable record, as TSV (default)
or JSON (--format json), and is deterministic: identical invocations
produce byte-identical output.  Exit codes:

* 0 success, 1 verification failure;
* 2 the input was rejected: a usage error (below), or a flag value,
  polynomial, branch file, lattice file or class beta that is not
  admissible, or a named file that cannot be read.  The layer that reads
  the input, the parser for a usage error, raises ``errors.BadInput``,
  and stderr gets one line, ``stabctab <subcommand>: <message>``;
* 3 any other failure, for instance a coefficient that must be an exact
  nonnegative integer was not, or the Betti tower the library built for
  ``perverse --oracle`` is inconsistent: always a bug, never bad input.
  stderr gets one line, ``stabctab: internal error: <class>: <message>``,
  and no traceback;
* 141 when the reader closes stdout before the record or the help is
  written (128 + SIGPIPE, as a shell reports a process killed by that
  signal; the rest is dropped and nothing is printed on stderr).

The process entry point is ``run``: ``python -m stabctab``, the
``stabctab`` console script and ``python -m stabctab.cli`` all call it.
``run`` calls ``main`` and, as the call ends, ``gc.freeze()``, so that
the interpreter's exit-time collections, which no caller can observe,
skip every object still alive.  ``main`` never freezes: tests and
library callers run it in-process and keep a normal collector.  ``main``
returns the exit status of every call and raises nothing; ``run`` alone
exits, by ``SystemExit``, so ``atexit`` handlers, the final flush of
stdout and the exit code are as ``main`` leaves them.

Each handler ``cmd_<subcommand>`` returns ``(status, record, rows)``
and writes nothing: the record's ``parameters``, ``results`` and
``provenance`` hold the library's values as they are, and ``rows``, the
TSV rows, is any iterable of tuples, which ``main`` reads once.  ``main``
alone turns values into text: it adds ``command`` and writes the record
as JSON, a Fraction or a QuadSurd by its str, or each row with a cell as
its str, a tuple cell (a class of ``decompose``) as its items joined by
',' and a list cell as JSON; the help, which the parser returns, it
writes the same way.  It alone maps an outcome to its exit status, in
one place: BadInput 2, a closed stdout 141, any other exception 3; the
parser and the handlers catch nothing.  A call's output depends only on its
argv and the files it names: no environment variable is read, and an
order flag that is not given takes its default, 12.

The command line is read by one table, COMMANDS, that gives each
subcommand's flags once; ``-h``/``--help``, top-level or after a
subcommand, prints help built from it to stdout and exits 0 (the
testing flag ``--perturb`` is not shown).  A flag takes its value as
``--flag value`` or ``--flag=value``; the value is the next argument
whatever it is, so it may start with '-'; when a flag is repeated the
last one wins; flags are not abbreviated.  A usage error (an unknown
subcommand or flag, a missing value, a value that is not an integer or
not one of the flag's choices, a missing required flag, a stray
argument) exits 2 with one line on stderr that names the subcommand and
the flag.  An integer is an optional sign and ASCII digits, as in every
file the package reads: ``1_0`` and the digits of other scripts are not.
One predicate, ``_record.is_integer``, decides it, with str methods and
not ``re``.

Orders are capped, and the caps are checked after the usage errors and
before any computation: ``--max-order`` and ``--order`` at 64 and
``--max-k`` at 384 (the README gives the cost of a call at the caps).
``--b1`` and ``--b2`` are capped at 10^12, and the integer flags of
``bounds`` at 10^600, so that no value a record or a message prints has
more digits than Python turns into a string (4,300); ``bounds`` bounds
the numerator and the denominator of ``--lambda`` and ``--mu`` alike.
A value above its cap exits 2 with one line on stderr, and so does one
of more digits than Python reads, naming the flag and its cap and not
the value.  The codimension bounds of ``bounds --d`` take exact square
roots by trial division and cap their radicand at 10^12
(``surd.MAX_RADICAND``); a larger one exits 2 with one line on stderr
as well.  The threshold of ``bounds --i --j`` needs only ceilings of
square roots, which it takes by ``math.isqrt`` at any size.

Each subcommand imports only the layer it runs: the parser and the
dispatch load no computation module (only ``_record``, whose
``parse_int`` reads the integer flags), nor ``argparse``, ``gettext``,
``locale`` or ``re``, and each handler lives in the module of the layer
it runs, so that a call compiles that layer and no other (a checkout run
without cached bytecode compiles every module it imports on every call).
``stable-betti``, ``identity`` and ``perverse`` run from ``genfunc`` and
load it alone, only ``perverse --oracle`` adds ``perverse``; ``germ``
runs from ``germ`` and loads ``poly`` with it (and ``re``, for the term
grammar); ``decompose`` runs from ``nslattice``, which reads a preset by
``_record.read_data`` as a plain file, without ``importlib.resources``,
and loads no ``codim``; ``bounds`` runs from ``codim`` and loads no
``nslattice``; only ``bounds --d`` adds ``surd``.

``identity`` checks H(zw, z)(1 - z^2) = (1 - w)(1 - z^2 w) G(z, w), the
change of variables z = t, w = q/t with denominators cleared; a
``first_difference`` names the key q^n t^(i-n) of the differing z^i w^n
coefficient and gives the integer coefficients of the two sides there
(rendered as strings in JSON).
"""

from __future__ import annotations

import gc
import os
import sys
from importlib import import_module
from types import SimpleNamespace

from ._record import MAX_ARGUMENT, is_integer, parse_int
from .errors import BadInput

#: Default truncation order of the order flags (--max-k, --max-order,
#: --order).  The library builds every series at the order a call asks for:
#: a coefficient of degree n is exact at any order >= n.
DEFAULT_ORDER = 12


#: Cap of --b1 and --b2 (see the module docstring): at --b1 = --b2 = 10^12
#: the largest value printed, a stable Betti number at --max-k 384, has
#: 3,781 digits.  The integer flags of bounds take _record.MAX_ARGUMENT.
_SURFACE_CAP = 10**12

_SURFACE = {
    "--b1": {"type": int, "required": True, "cap": _SURFACE_CAP,
             "help": "first Betti number of the surface"},
    "--b2": {"type": int, "required": True, "cap": _SURFACE_CAP,
             "help": "second Betti number of the surface"},
}
_FORMAT = {"--format": {"choices": ("tsv", "json"), "default": "tsv",
                        "help": "TSV rows or one JSON record"}}

#: Subcommand -> (help, home, flags).  The handler is the function
#: cmd_<subcommand> of stabctab.<home>, the module of the layer it runs,
#: imported only when the subcommand runs.  Each flag maps to its spec:
#: "type" int (str when absent), or "switch", a flag without a value that
#: sets True; "required", or a "default" (None when absent); "cap", the
#: largest value of an int flag; "choices"; "help"; "dest" when the
#: attribute is not named after the flag; "hidden" for a flag that
#: --help leaves out.
COMMANDS = {
    "stable-betti": ("table of stable Betti numbers", "genfunc", {
        **_SURFACE,
        "--max-k": {"type": int, "default": DEFAULT_ORDER, "cap": 384,
                    "help": "largest k of the table"},
        **_FORMAT,
    }),
    "perverse": ("table of stable perverse numbers", "genfunc", {
        **_SURFACE,
        "--max-order": {"type": int, "default": DEFAULT_ORDER, "cap": 64,
                        "help": "truncation order of the table"},
        "--oracle": {"switch": True, "help": "cross-check against the Betti-tower recursion"},
        **_FORMAT,
    }),
    "identity": ("verify the change-of-variables identity", "genfunc", {
        **_SURFACE,
        "--order": {"type": int, "default": DEFAULT_ORDER, "cap": 64,
                    "help": "truncation order of the check"},
        "--perturb": {"switch": True, "hidden": True},
        **_FORMAT,
    }),
    "germ": ("plane-curve singularity invariants", "germ", {
        "--poly": {"required": True, "help": "polynomial in x and y"},
        "--branches": {"help": "branch file: 'x(t) ; y(t)' per line"},
        **_FORMAT,
    }),
    "bounds": ("codimension bounds and thresholds", "codim", {
        "--surface": {"choices": ("enriques", "bielliptic"), "required": True,
                      "help": "surface type"},
        "--beta-sq": {"type": int, "cap": MAX_ARGUMENT,
                      "help": "self-intersection beta^2 (enriques)"},
        "--a": {"type": int, "cap": MAX_ARGUMENT,
                "help": "coefficient a of beta = a*lambda*A + b*mu*B (bielliptic)"},
        "--b": {"type": int, "cap": MAX_ARGUMENT, "help": "coefficient b of beta (bielliptic)"},
        "--lambda": {"dest": "lam", "help": "rational scale lambda of A (bielliptic)"},
        "--mu": {"help": "rational scale mu of B (bielliptic)"},
        "--gamma": {"type": int, "cap": MAX_ARGUMENT,
                    "help": "intersection number A.B (bielliptic)"},
        "--d": {"type": int, "cap": MAX_ARGUMENT, "help": "the codimension bounds in |d*beta|"},
        "--i": {"type": int, "cap": MAX_ARGUMENT,
                "help": "with --j: the threshold d0 of entry (i, j) (enriques)"},
        "--j": {"type": int, "cap": MAX_ARGUMENT, "help": "with --i: see --i"},
        "--generic": {"switch": True,
                      "help": "generic Enriques surface: drop the rigid-curve cases"},
        **_FORMAT,
    }),
    "decompose": ("candidate divisor-class splittings", "nslattice", {
        "--lattice": {"required": True,
                      "help": "preset name (bielliptic-rank2, enriques-u-e8) or file path"},
        "--beta": {"required": True, "help": "comma-separated integer coordinates"},
        **_FORMAT,
    }),
}

DESCRIPTION = ("Exact stable Betti / perverse tables, plane-curve singularity "
               "invariants, and divisor-class bounds.")


def _dest(flag: str, spec: dict) -> str:
    return spec.get("dest", flag[2:].replace("-", "_"))


def _default(spec: dict):
    return False if spec.get("switch") else spec.get("default")


class Parser:
    """Reads argv by COMMANDS: a subcommand, then flags in any order, each
    as ``--flag value`` or ``--flag=value``; the last repeat wins."""

    def parse_args(self, argv) -> SimpleNamespace | str:
        """The values of argv, or for -h/--help the help text; a usage error
        is BadInput, its message without the ``stabctab ...: `` prefix."""
        argv = list(argv)
        if argv[:1] in (["-h"], ["--help"]):
            return self.format_help(None)
        if not argv or argv[0] not in COMMANDS:
            what = f"unknown subcommand {argv[0]!r}" if argv else "missing subcommand"
            raise BadInput(f"{what}; choose from {', '.join(COMMANDS)}")
        name, *rest = argv
        flags = COMMANDS[name][2]
        values = {}
        tokens = iter(rest)
        for token in tokens:
            if token in ("-h", "--help"):
                return self.format_help(name)
            flag, eq, value = token.partition("=")
            spec = flags.get(flag)
            if spec is None:
                what = "unknown flag" if token.startswith("-") else "unexpected argument"
                raise BadInput(f"{what} {token!r}")
            if spec.get("switch"):
                if eq:
                    raise BadInput(f"{flag} takes no value")
                values[flag] = True
                continue
            if not eq:
                value = next(tokens, None)
                if value is None:
                    raise BadInput(f"{flag} needs a value")
            if spec.get("type") is int:
                try:
                    value = parse_int(value)
                except BadInput:
                    what = (f"has more digits than Python reads; its cap is {spec['cap']}"
                            if is_integer(value.strip()) else f"needs an integer, got {value!r}")
                    raise BadInput(f"{flag} {what}") from None
            choices = spec.get("choices")
            if choices and value not in choices:
                raise BadInput(f"{flag} must be one of {', '.join(choices)}, got {value!r}")
            values[flag] = value
        missing = [f for f, spec in flags.items() if spec.get("required") and f not in values]
        if missing:
            raise BadInput(f"missing required {', '.join(missing)}")
        for flag, spec in flags.items():
            cap = spec.get("cap")
            if cap is not None and values.get(flag, cap) > cap:
                raise BadInput(f"{flag} {values[flag]} exceeds the cap of {cap}")
        return SimpleNamespace(subcommand=name, **{
            _dest(f, spec): values[f] if f in values else _default(spec)
            for f, spec in flags.items()
        })

    def format_help(self, name) -> str:
        """The help of the command line (name None) or of one subcommand."""
        if name is None:
            width = max(map(len, COMMANDS))
            return "\n".join([
                "usage: stabctab SUBCOMMAND [FLAGS]", "", DESCRIPTION, "", "subcommands:",
                *(f"  {n:<{width}}  {COMMANDS[n][0]}" for n in COMMANDS), "",
                "Run 'stabctab SUBCOMMAND --help' for the flags of one subcommand.",
            ]) + "\n"
        about, _, flags = COMMANDS[name]
        usage, rows = [], [("-h, --help", "print this help and exit")]
        for flag, spec in flags.items():
            if spec.get("hidden"):
                continue
            if spec.get("switch"):
                shown = flag
            elif "choices" in spec:
                shown = f"{flag} {{{','.join(spec['choices'])}}}"
            else:
                shown = f"{flag} {_dest(flag, spec).upper()}"
            usage.append(shown if spec.get("required") else f"[{shown}]")
            notes = [spec.get("help", "")]
            if spec.get("required"):
                notes.append("(required)")
            elif _default(spec) not in (None, False):
                notes.append(f"(default: {_default(spec)})")
            rows.append((shown, " ".join(filter(None, notes))))
        width = max(len(shown) for shown, _ in rows)
        return "\n".join([
            f"usage: stabctab {name} {' '.join(usage)}", "", about, "", "flags:",
            *(f"  {shown:<{width}}  {note}".rstrip() for shown, note in rows),
        ]) + "\n"


def build_parser() -> Parser:
    """The parser of the command line."""
    return Parser()


def _exact_text(value) -> str:
    """A Fraction or a QuadSurd as JSON: its str, the class matched by name
    so that neither module is imported; any other value is a TypeError."""
    name = f"{type(value).__module__}.{type(value).__name__}"
    if name in ("fractions.Fraction", f"{__package__}.surd.QuadSurd"):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _cell(value) -> str:
    """A TSV cell: str(value), but a tuple as its items' str joined by ','
    and a list as JSON (``json`` loads only then)."""
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    if isinstance(value, list):
        import json

        return json.dumps(value, default=_exact_text)
    return str(value)


def main(argv=None) -> int:
    where = "stabctab"  # the prefix of a rejection
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        if argv and argv[0] in COMMANDS:
            where = f"stabctab {argv[0]}"
        args = build_parser().parse_args(argv)
        if isinstance(args, str):
            status, text = 0, [args]  # the help
        else:
            home = import_module(f".{COMMANDS[args.subcommand][1]}", __package__)
            status, record, rows = getattr(home, "cmd_" + args.subcommand.replace("-", "_"))(args)
            if args.format == "json":
                import json
                from itertools import chain, islice

                encoder = json.JSONEncoder(sort_keys=True, indent=2, default=_exact_text)
                chunks = encoder.iterencode({"command": args.subcommand, **record})
                # batches of chunks: a large record is never held as one string
                text = chain(iter(lambda: "".join(islice(chunks, 65536)), ""), "\n")
            else:
                text = ("\t".join(map(_cell, row)) + "\n" for row in rows)
        sys.stdout.writelines(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: send what is left, and the final flush
        # at exit, to devnull, and exit as a process killed by SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BadInput as exc:
        status, message = 2, f"{where}: {exc}"
    except Exception as exc:
        # not bad input, so a fault of this package, whatever the input
        status, message = 3, f"stabctab: internal error: {type(exc).__name__}: {exc}"
    else:
        return status
    sys.stderr.write(" ".join(message.splitlines()) + "\n")
    return status


def run():
    """The process entry point: exit with ``main``'s status, freezing the
    collector first (see the module docstring)."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
