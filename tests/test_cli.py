"""Command-line surface: every call pinned by its whole output, as one
table, then exit codes, schema, determinism and what a call's output
alone does not show."""

import hashlib
import json
import random
import shlex
from importlib import resources
from typing import NamedTuple

import pytest

from stabctab.cli import main
from stabctab.errors import BadInput

from draws import RUNS, command, fresh_env, lattice_text, run, run_fresh


class Call(NamedTuple):
    """A pinned call: its id, its command line as a POSIX shell splits it,
    its exit code, its stdout (the text, or ``sha256:`` and the digest of a
    long record), its exact stderr, the files it reads, {name: text or
    bytes}, written to the working directory it runs in, and, for a call
    that guards a time bound, the seconds after which a fresh interpreter
    running it is killed (None: it runs in-process)."""

    id: str
    line: str
    code: int
    out: str = ""
    err: str = ""
    files: dict = {}
    timeout: float | None = None

    @property
    def argv(self):
        return shlex.split(self.line)


def _lattice(gram="0 2\n2 0", witness="1 1", basis="1 1\n1 -1", tests="2", rank=2):
    return (f"rank {rank}\ngram\n{gram}\nample_witness {witness}\n"
            f"ortho_basis\n{basis}\nample_tests {tests}\n")


def bad_lattice(name, text, message):
    """The row of a lattice file that ``decompose`` refuses with message."""
    return Call(f"lattice:{name}", LATTICE, 2, "", f"stabctab decompose: {message}\n",
                {"model.lat": text})


def digests(name, line, tsv_sha, json_sha, code=0, files={}):
    """The rows of line as TSV and as JSON, each stdout pinned by its sha256."""
    return [Call(f"{name}-{fmt}", f"{line} --format {fmt}", code, f"sha256:{sha}", "", files)
            for fmt, sha in (("tsv", tsv_sha), ("json", json_sha))]


def dense_lattice(rank, seed, entry):
    """A lattice file with a dense symmetric gram of entry(rng) values, rng
    seeded with seed, and the identity basis."""
    rng, gram = random.Random(seed), [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = entry(rng)
    identity = [[int(i == j) for j in range(rank)] for i in range(rank)]
    return lattice_text(gram, identity[0], identity, [1] * (rank - 1))


def _int_error(text):
    """The message of the ValueError that int(text) raises."""
    try:
        int(text)
    except ValueError as exc:
        return str(exc)


BIELLIPTIC = "bounds --surface bielliptic --a 1 --b 1 --gamma 2 --d 3"
TACNODE = "germ --poly 'y^2 - x^4' --branches tacnode.br"
CUSP = "germ --poly 'y^2 - x^3' --branches cusp.br"
LATTICE = "decompose --lattice model.lat --beta 1,1"
CHOOSE = "choose from stable-betti, perverse, identity, germ, bounds, decompose\n"
ZERO_DENOMINATOR_LATTICE = (
    "rank 2\ngram\n0 2\n2 0\nample_witness 1 1\n"
    "ortho_basis\n1/0 1\n1 -1\nample_tests 2\n"
)
#: The test class D1 + D2 = (1/2, 1) has denominator 2, but its pairing
#: form (4, -1) is already integral and reads 1 on beta = (400, 1599),
#: so no theta1 splits beta, however large the enumeration box is.
HALF_TEST_FORM_LATTICE = (
    "rank 2\ngram\n4 2\n2 -2\nample_witness 1 0\n"
    "ortho_basis\n1 0\n-1/2 1\nample_tests 1\n"
)
#: The square of its test class, 2 - N^3 for N of 4,300 nines, has more
#: digits than Python turns into a string.
SQUARE_TOO_LONG_LATTICE = _lattice(gram=f"2 0\n0 -{'9' * 4300}", witness="1 0",
                                   basis=f"1 0\n0 {'9' * 4300}", tests="1")
#: A rank-3 lattice whose D2, D3 come from Gram-Schmidt, so its basis is
#: rational; a record that reads it names it relative to the working
#: directory, so that the JSON record holds no temporary path.
RANK3_RATIONAL_LATTICE = (
    "rank 3\ngram\n-2 -2 1\n-2 -1 -3\n1 -3 -3\nample_witness -1 1 0\n"
    "ortho_basis\n-1 1 0\n1 0 0\n-7/2 4 1\nample_tests 2 5\n"
)
#: The record of a germ whose two branches are the axes.
AXES_RECORD = "mu\t1\ntau\t1\ndelta\t1\nr\t2\nmilnor_formula\tOK\n"
MANY_TERMS = "y^2 - x^3 + " + " + ".join(f"x^{i}*y^{170 - i}" for i in range(171))
BIG_IMAGE = " + ".join(f"{'9' * 400}*t^{k}" for k in range(1, 33))
SHIPPED_TACNODE = resources.files("stabctab").joinpath("data/branches/tacnode.br").read_text()
#: A comment line one character longer than the file cap of 2^20.
LONG_FILE = "#" * (2**20 + 1)

#: Every call whose test checks only its exit code, stdout and stderr, each
#: compared whole (README, "Install and test").  A row's id is unique;
#: ``group:name`` puts it in a group whose test runs one node per row,
#: shown by its name.
CALLS = [
    Call("stable-betti-enriques", "stable-betti --b1 0 --b2 10 --max-k 4", 0,
         "k\tb_k\n0\t1\n1\t0\n2\t11\n3\t0\n4\t78\n"),
    Call("stable-betti-k0", "stable-betti --b1 0 --b2 10 --max-k 0", 0, "k\tb_k\n0\t1\n"),
    Call("stable-betti-bielliptic", "stable-betti --b1 2 --b2 2 --max-k 2", 0,
         "k\tb_k\n0\t1\n1\t2\n2\t4\n"),
    # its table is [[0, 0, 1], [0, 2, 1], [1, 1, 9], [2, 0, 1]]
    Call("perverse-table", "perverse --b1 0 --b2 10 --max-order 2 --format json", 0,
         "sha256:667cafd27d305901169b7ba04b32724bdd78cde5a7dda9232904d3f88fc108ab"),
    # its table is [[0, 0, 1]]
    Call("perverse-order-zero", "perverse --b1 2 --b2 2 --max-order 0 --format json", 0,
         "sha256:8fa7b3445ca0f5a7b164d5a9739eb3c86e8e6c82fe922667e3722183ee61f1db"),
    # the table to order 10, then "oracle\tAGREE\t"
    Call("perverse-oracle-agrees", "perverse --b1 0 --b2 10 --max-order 10 --oracle", 0,
         "sha256:ce8d76df0f37ca82db854de324ae40aac2f2601eb629eed54c9bb9e1f8402afb"),
    # with first_oracle_mismatch stubbed to report (1, 1) as 8 != 9, as
    # test_perverse_oracle_disagreement_exits_1 does: the table, then the
    # difference, in JSON {"i": 1, "j": 1, "recursion": 8, "series": 9}
    Call("oracle-disagrees:tsv", "perverse --b1 0 --b2 10 --max-order 2 --oracle", 1,
         "i\tj\tn\n0\t0\t1\n0\t2\t1\n1\t1\t9\n2\t0\t1\noracle\tDISAGREE\t(1,1) 8!=9\n"),
    Call("oracle-disagrees:json", "perverse --b1 0 --b2 10 --max-order 2 --oracle --format json",
         1, "sha256:7c4507f732105974dfbd2e27096c6680b71af66e24f4fb14cdd862060316138d"),
    Call("identity-pass", "identity --b1 0 --b2 10 --order 12", 0, "status\tPASS\n"),
    Call("identity-order-zero", "identity --b1 4 --b2 6 --order 0", 0, "status\tPASS\n"),
    Call("identity-perturbed", "identity --b1 0 --b2 10 --order 6 --perturb", 1,
         "status\tFAIL\nfirst_difference\tq^0 t^0: 2 != 1\n"),
    # the hidden --perturb negative control, pinned before the identity moved
    # to integer rows: its first difference keeps the old record format
    *digests("perturb", "identity --b1 0 --b2 10 --order 6 --perturb",
             "d5c639b44928cbe2999e55127a4324d0371db43706aeb57c431cbe39c51c9a4a",
             "0b753eccd359b82bb1ed16ca532b4f5086e8ba7671b704243cf821753370b7b0", code=1),
    Call("germ-cusp", "germ --poly 'y^2 - x^3'", 0, "mu\t2\ntau\t2\n"),
    Call("germ-smooth", "germ --poly x", 0, "mu\t0\ntau\t0\n"),
    # mu 3, tau 3, delta 2, r 2, milnor_formula OK
    Call("germ-with-branches", f"{TACNODE} --format json", 0,
         "sha256:fe675ebae8c50c1e705b7596ce0d45a2d0884be09a7562e15839706ff48e7cf1", "",
         {"tacnode.br": SHIPPED_TACNODE}),
    # recorded with the two-class polynomial layer
    Call("germ-branches-digest", TACNODE, 0,
         "sha256:a020e730b37fb7c81eafe10a0e3007ecd0d49f5968e964e70191307eb674decf", "",
         {"tacnode.br": SHIPPED_TACNODE}),
    # truncation 6 is the cusp's conductor bound 2*mu + 2: enough precision
    Call("germ-conductor-bound", CUSP, 0, "mu\t2\ntau\t2\ndelta\t1\nr\t1\nmilnor_formula\tOK\n",
         "", {"cusp.br": "truncation: 6\nt^2 ; t^3\n"}),
    # a '#' comment runs to the end of its line, after a space or not
    Call("branch-comments", TACNODE, 0, "mu\t3\ntau\t3\ndelta\t2\nr\t2\nmilnor_formula\tOK\n", "",
         {"tacnode.br": "# the tacnode\nt ; t^2  # upper\nt ; -t^2#lower\n"}),
    Call("germ-missing-branch-file", "germ --poly 'y^2 - x^3' --branches absent.br", 2, "",
         "stabctab germ: [Errno 2] No such file or directory: 'absent.br'\n"),
    # A_64 has mu = 64, the largest the maximal-ideal power cap certifies
    Call("mu-at-the-cap", "germ --poly 'y^2 - x^65'", 0, "mu\t64\ntau\t64\n"),
    Call("mu-non-isolated", "germ --poly 'y^2 - x^66'", 2, "",
         "stabctab germ: quotient dimension still growing at maximal-ideal power 64: the "
         "singularity is non-isolated or its mu/tau exceeds the cap of 64\n"),
    # a quotient that stops growing above the cap is refused, not printed
    Call("mu-above-the-cap", "germ --poly 'x^6 + y^14'", 2, "",
         "stabctab germ: quotient dimension 65 exceeds the cap of 64 on mu and tau\n"),
    # the powers of x(t) up to x(t)^300, cut past t^40 as the branch is
    # declared, bound the work at 16,224 operations; a bound whose degrees
    # ran past the cutoff would count 122,979,608 and refuse the branch
    Call("work-within-the-cutoff", "germ --poly 'y^2 - x^3 + x^300' --branches dense.br", 2, "",
         "stabctab germ: branch 0 does not lie on the germ (residual order 7)\n",
         {"dense.br": "truncation: 40\n" + " + ".join(f"t^{k}" for k in range(2, 41))
          + " ; t^3\n"}),
    # each below in a fresh interpreter, killed after a timeout: trial
    # division of these radicands, uncapped, takes seconds to hours
    Call("radicand:enriques-huge", "bounds --surface enriques --beta-sq 2000000000000000014 --d 1",
         2, "", "stabctab bounds: radicand 4000000000000000028 exceeds the cap of 1000000000000\n",
         timeout=20),
    Call("radicand:enriques-above-cap", "bounds --surface enriques --beta-sq 500000000002 --d 1",
         2, "", "stabctab bounds: radicand 1000000000004 exceeds the cap of 1000000000000\n",
         timeout=20),
    Call("radicand:bielliptic-lambda", "bounds --surface bielliptic --a 1 --b 1 --lambda "
         "1000000000039/3 --mu 3 --gamma 1 --d 1", 2, "",
         "stabctab bounds: radicand 2000000000078 exceeds the cap of 1000000000000\n", timeout=20),
    # Fraction reads this literal as 10^-10000000, which takes seconds to build
    Call("exponent-literal", "bounds --surface bielliptic --a 1 --b 1 --lambda 1e-10000000 --mu 1 "
         "--gamma 2 --d 1", 2, "", "stabctab bounds: Invalid literal for Fraction: "
         "'1e-10000000'\n", timeout=1),
    # powers of x(t) built up to the exponent take minutes and gigabytes;
    # each term has a factor whose image is 0, so both compositions are 0,
    # exact or truncated
    Call("huge-exponent:truncated", "germ --poly 'x*y + x^100000000*y' --branches axes.br", 0,
         AXES_RECORD, "", {"axes.br": "truncation: 4\nt ; 0\n0 ; t\n"}, timeout=1),
    Call("huge-exponent:exact", "germ --poly 'x*y + x^100000000*y' --branches axes.br", 0,
         AXES_RECORD, "", {"axes.br": "t ; 0\n0 ; t\n"}, timeout=1),
    # x^128*y composes to 0 on both branches: no power of x(t) is formed
    Call("zero-image", "germ --poly 'x*y + x^128*y' --branches axes.br", 0, AXES_RECORD, "",
         {"axes.br": " + ".join(f"t^{k}" for k in range(1, 9)) + " ; 0\n0 ; t\n"}, timeout=1),
    # 171 terms of t-degree at most 850 each, a product apiece when composed
    # term by term; Horner's rule in y forms one product by a power of y(t)
    # per exponent of y
    Call("many-terms", f"germ --poly '{MANY_TERMS}' --branches branch.br", 2, "",
         "stabctab germ: branch 0 does not lie on the germ (residual order 2)\n",
         {"branch.br": "t + t^2 + t^3 + t^4 ; t + t^3 + t^5\n"}, timeout=2),
    # below the degree cap: x(t)^1 .. x(t)^1000 of a dense branch, each
    # truncated past t^1024, would take about half a billion term pairs
    Call("dense-branch", "germ --poly 'y^2 - x^3 + x^1000' --branches dense.br", 2, "",
         "stabctab germ: branch 0 composes with the germ in up to 2221688576 term operations, "
         "above the cap of 2000000\n", {"dense.br": "truncation: 1024\n" + " + ".join(
             f"t^{k}" for k in range(1, 1025)) + " ; t^3\n"}, timeout=2),
    # README's y^32 - x^3 + x^32 on c*t + ... + c*t^32 twice, c of 400
    # digits: as many term operations as with c = 1, each on numbers of up
    # to 13,000 digits; it ran for over a minute before they were counted
    Call("large-coefficients", "germ --poly 'y^32 - x^3 + x^32' --branches big.br", 2, "",
         "stabctab germ: branch 0 composes with the germ in up to 60732131 term operations, "
         "above the cap of 2000000\n", {"big.br": f"{BIG_IMAGE} ; {BIG_IMAGE}\n"}, timeout=2),
    # in a fresh interpreter with a timeout: a dense symmetric gram of rank
    # 250, under the file-size cap, took seconds of determinant and basis
    # checks before it was rejected
    Call("dense-rank-250", f"decompose --lattice dense.lat --beta {','.join(['1'] * 250)}", 2, "",
         "stabctab decompose: lattice rank 250 is above the cap of 32\n",
         {"dense.lat": dense_lattice(250, 5, lambda rng: rng.randint(-999, 999))}, timeout=2),
    # rank 32 with 900-digit entries (925 kB, under the file-size cap): a
    # determinant of the gram took 25-30 s before the basis check failed
    Call("large-gram-entries", f"decompose --lattice digits.lat --beta {','.join(['1'] * 32)}", 2,
         "", "stabctab decompose: orthogonal basis must have exactly one positive square, "
         "first\n", {"digits.lat": dense_lattice(
             32, 32, lambda rng: rng.randrange(10**899, 10**900) * rng.choice((-1, 1)))},
         timeout=2),
    Call("degree-cap:above-the-cap", "germ --poly 'y - x^1025' --branches branch.br", 2, "",
         "stabctab germ: branch 0 composes with the germ to t-degree 1025, above the cap of "
         "1024\n", {"branch.br": "t ; t^1025\n"}),
    Call("degree-cap:truncation-above-the-cap", "germ --poly 'y - x^1025' --branches branch.br",
         2, "", "stabctab germ: branch 0 composes with the germ to t-degree 1025, above the cap "
         "of 1024\n", {"branch.br": "truncation: 2048\nt ; t^1025\n"}),
    Call("degree-cap:at-the-cap", "germ --poly 'y - x^1024' --branches branch.br", 0,
         "mu\t0\ntau\t0\ndelta\t0\nr\t1\nmilnor_formula\tOK\n", "", {"branch.br": "t ; t^1024\n"}),
    Call("zero-denominator:poly", "germ --poly 'x^2+1/0*y^3'", 2, "",
         "stabctab germ: zero denominator in '1/0'\n"),
    Call("zero-denominator:branch-file", CUSP, 2, "",
         "stabctab germ: zero denominator in '1/0'\n", {"cusp.br": "t^2 ; 1/0\n"}),
    Call("zero-denominator:lattice-file", LATTICE, 2, "", "stabctab decompose: zero denominator "
         "in '1/0'\n", {"model.lat": ZERO_DENOMINATOR_LATTICE}),
    Call("zero-denominator:lambda", f"{BIELLIPTIC} --lambda 1/0 --mu 1", 2, "",
         "stabctab bounds: zero denominator in '1/0'\n"),
    Call("zero-denominator:mu", f"{BIELLIPTIC} --lambda 1 --mu 1/0", 2, "",
         "stabctab bounds: zero denominator in '1/0'\n"),
    # d0 = 4
    Call("bounds-enriques-d0", "bounds --surface enriques --beta-sq 10 --i 2 --j 3 --format json",
         0, "sha256:4d9ab2ce11de02bc45a9a46ac06e44de42d8d687b3152b76d49df3a84bd60687"),
    # codim_bound 5, n_bound 8, governing case "1 or 2 (tie)"
    Call("bounds-bielliptic", f"{BIELLIPTIC} --lambda 1 --mu 1 --format json", 0,
         "sha256:44a1f2d0d6346fbcc8242089265acea0eb5a0b1e5093f62374473f59503fcf3c"),
    # codim_bound 1/2, n_bound 0
    Call("bounds-enriques-small", "bounds --surface enriques --beta-sq 2 --d 1 --format json", 0,
         "sha256:afea988710313cdf1179bf0fed64c98a1844a0f4c0949cb14e75edaccf06a590"),
    # 2 * beta^2 = 10^12 is the largest radicand taken apart: case 1.1 is 999998
    Call("radicand-at-the-cap", "bounds --surface enriques --beta-sq 500000000000 --d 1 "
         "--format json", 0,
         "sha256:9cfd95192855974f32b7409119796cd94e65eaebe2332b142784d6fdd0358099"),
    # d0 takes ceilings of square roots by math.isqrt, so the radicand cap
    # of the --d bounds does not apply: 2 * beta^2 here is above it; d0 = 5
    Call("d0-above-the-radicand-cap",
         "bounds --surface enriques --beta-sq 499999999946 --i 3 --j 4 --format json", 0,
         "sha256:e6a62a0f6d8475bf93229fc2a4d4ff39d3738cd3992ae3366acbc787df848229"),
    Call("decompose-preset", "decompose --lattice bielliptic-rank2 --beta 1,1", 0,
         "theta1\ttheta2\n0,1\t1,0\n1,0\t0,1\n"),
    # count 7
    Call("decompose-seven-pairs", "decompose --lattice bielliptic-rank2 --beta 2,2 --format json",
         0, "sha256:6d54d833a917872db3e460d6593f1a4c9bf3cecda867f36f0181ab45c5c59ad4"),
    Call("decompose-minimal-empty", "decompose --lattice bielliptic-rank2 --beta 1,0", 0,
         "theta1\ttheta2\n"),
    Call("half-test-form", "decompose --lattice half.lat --beta 400,1599", 0, "theta1\ttheta2\n",
         "", {"half.lat": HALF_TEST_FORM_LATTICE}),
    # one lattice file per validation failure of the lattice model, each
    # varying the bielliptic preset, with the stderr line the command line
    # printed when the model checked itself in Fraction arithmetic; then one
    # per keyword given twice, the second gram block the same as the first;
    # then one per fault of the reader itself
    bad_lattice("rank", "rank 0\ngram\nample_witness\northo_basis\nample_tests\n",
                "rank must be at least 1"),
    bad_lattice("gram-shape", _lattice(gram="0 2 1\n2 0"), "gram matrix has wrong shape"),
    bad_lattice("gram-symmetry", _lattice(gram="0 2\n1 0"), "gram matrix is not symmetric"),
    bad_lattice("witness-length", _lattice(witness="1 1 1"), "ample witness has wrong length"),
    bad_lattice("basis-shape", _lattice(basis="1 1 0\n1 -1"), "orthogonal basis has wrong shape"),
    bad_lattice("tests-length", _lattice(tests="2 2"),
                "expected one ample test integer per basis vector past the first"),
    # a degenerate gram fails the basis checks
    bad_lattice("degenerate", _lattice(gram="1 1\n1 1", basis="1 0\n0 1"),
                "orthogonal basis must have exactly one positive square, first"),
    bad_lattice("signature", _lattice(gram="2 0\n0 2", witness="1 0", basis="1 0\n0 1"),
                "orthogonal basis must have exactly one positive square, first"),
    bad_lattice("orthogonality", _lattice(gram="2 0\n0 -2", witness="1 0", basis="1 0\n1/2 1"),
                "basis vectors 1 and 2 are not orthogonal"),
    bad_lattice("witness-square", _lattice(witness="1 0"),
                "ample witness must have positive self-intersection"),
    bad_lattice("test-integer", _lattice(tests="0"), "ample test integers must be positive"),
    bad_lattice("test-square-rational",
                _lattice(gram="2 0\n0 -8", witness="1 0", basis="1/2 0\n0 1", tests="1"),
                "test class 1*D1 +/- D2 has nonpositive square -15/2"),
    bad_lattice("test-square-zero", _lattice(tests="1"),
                "test class 1*D1 +/- D2 has nonpositive square 0"),
    bad_lattice("repeated-rank", _lattice() + "rank 2\n",
                "lattice file keyword 'rank' is repeated"),
    bad_lattice("repeated-gram", _lattice() + "gram\n0 2\n2 0\n",
                "lattice file keyword 'gram' is repeated"),
    bad_lattice("repeated-witness", _lattice() + "ample_witness 1 2\n",
                "lattice file keyword 'ample_witness' is repeated"),
    bad_lattice("repeated-basis", _lattice() + "ortho_basis\n1 1\n1 -1\n",
                "lattice file keyword 'ortho_basis' is repeated"),
    bad_lattice("repeated-tests", _lattice() + "ample_tests 3\n",
                "lattice file keyword 'ample_tests' is repeated"),
    bad_lattice("end-in-gram", "rank 2\ngram\n0 2\n", "unexpected end of lattice file"),
    bad_lattice("end-in-basis", "rank 2\ngram\n0 2\n2 0\nample_witness 1 1\northo_basis\n1 1\n",
                "unexpected end of lattice file"),
    bad_lattice("gram-before-rank", "gram\n0 2\n2 0\nrank 2\n", "rank must come before gram"),
    bad_lattice("unknown-keyword", _lattice() + "foo 1\n", "unknown lattice file keyword 'foo'"),
    bad_lattice("missing-field", _lattice().replace("ample_tests 2\n", ""),
                "lattice file is missing a required field"),
    # a bad row is reported before the block is found cut short
    bad_lattice("first-fault", "rank 3\ngram\n0 x 1\n0 2 1\n",
                "invalid literal for int() with base 10: 'x'"),
    # a block cut short by a keyword line is reported as short
    bad_lattice("short-gram", _lattice(gram="0 2"), "gram has 1 of 2 rows before 'ample_witness'"),
    bad_lattice("short-basis", _lattice(basis="1 1"),
                "ortho_basis has 1 of 2 rows before 'ample_tests'"),
    # a row's first word ends at a tab as at a space
    bad_lattice("short-gram-tab", _lattice(gram="0 2").replace("ample_witness ", "ample_witness\t"),
                "gram has 1 of 2 rows before 'ample_witness'"),
    # a block keyword's line holds the keyword alone
    bad_lattice("text-after-gram", _lattice().replace("gram\n", "gram 7\n"),
                "lattice file keyword 'gram' takes its rows on the lines below it"),
    bad_lattice("text-after-basis", _lattice().replace("ortho_basis\n", "ortho_basis junk\n"),
                "lattice file keyword 'ortho_basis' takes its rows on the lines below it"),
    Call("refused:enriques-box-cap", "decompose --lattice enriques-u-e8 --beta=1,1,0,0,0,0,0,0,0,0",
         2, "", "stabctab decompose: decomposition enumeration region is too large\n"),
    Call("refused:bielliptic-box-cap", "decompose --lattice bielliptic-rank2 --beta=3000,3000", 2,
         "", "stabctab decompose: decomposition enumeration region is too large\n"),
    Call("refused:not-effective", "decompose --lattice bielliptic-rank2 --beta=-1,-1", 2, "",
         "stabctab decompose: class pairs non-positively with the ample witness\n"),
    # each rejected input names its subcommand
    Call("rejected:truncation-literal", TACNODE, 2, "",
         "stabctab germ: invalid literal for int() with base 10: ' x'\n",
         {"tacnode.br": "truncation: x\nt ; t^2\nt ; -t^2\n"}),
    Call("rejected:no-branches", TACNODE, 2, "", "stabctab germ: a germ has at least one branch\n",
         {"tacnode.br": "# no branches\n"}),
    Call("rejected:not-utf-8", TACNODE, 2, "", "stabctab germ: 'utf-8' codec can't decode byte "
         "0xff in position 8: invalid start byte\n", {"tacnode.br": b"t ; t^2\n\xff ; -t^2\n"}),
    Call("rejected:bounds-d-zero", "bounds --surface enriques --beta-sq 10 --d 0", 2, "",
         "stabctab bounds: d must be a positive integer\n"),
    Call("rejected:odd-beta-sq", "bounds --surface enriques --beta-sq 9 --d 1", 2, "",
         "stabctab bounds: beta^2 must be a positive even integer for an ample class\n"),
    Call("rejected:odd-b1", "perverse --b1 1 --b2 10", 2, "",
         "stabctab perverse: b1 must be a nonnegative even integer, got 1\n"),
    Call("rejected:decimal-lambda", f"{BIELLIPTIC} --lambda 0.5 --mu 1", 2, "",
         "stabctab bounds: Invalid literal for Fraction: '0.5'\n"),
    Call("rejected:exponent-in-lattice-file", LATTICE, 2, "",
         "stabctab decompose: Invalid literal for Fraction: '1e-9'\n",
         {"model.lat": ZERO_DENOMINATOR_LATTICE.replace("1/0", "1e-9")}),
    # a bounds flag that the call would not read
    Call("rejected:bielliptic-generic", f"{BIELLIPTIC} --lambda 1 --mu 1 --generic", 2, "",
         "stabctab bounds: --generic applies to --surface enriques --d only\n"),
    Call("rejected:bielliptic-beta-sq", f"{BIELLIPTIC} --lambda 1 --mu 1 --beta-sq 10", 2, "",
         "stabctab bounds: --beta-sq applies to --surface enriques only\n"),
    Call("rejected:enriques-a", "bounds --surface enriques --beta-sq 10 --d 3 --a 3", 2, "",
         "stabctab bounds: --a applies to --surface bielliptic only\n"),
    Call("rejected:enriques-ij-generic",
         "bounds --surface enriques --beta-sq 10 --i 2 --j 3 --generic", 2, "",
         "stabctab bounds: --generic applies to --surface enriques --d only\n"),
    # the rejections of bounds, a branch file and a lattice file, each once
    Call("rejected:i-without-j", "bounds --surface enriques --beta-sq 10 --i 2", 2, "",
         "stabctab bounds: --i and --j go together\n"),
    Call("rejected:enriques-without-beta-sq", "bounds --surface enriques --d 2", 2, "",
         "stabctab bounds: enriques needs --beta-sq\n"),
    Call("rejected:bielliptic-d0", "bounds --surface bielliptic --a 1 --b 1 --gamma 2 --lambda 1 "
         "--mu 1 --i 1 --j 1", 2, "",
         "stabctab bounds: the d0 threshold is defined for enriques only\n"),
    Call("rejected:negative-i", "bounds --surface enriques --beta-sq 10 --i -1 --j 0", 2, "",
         "stabctab bounds: i and j must be nonnegative\n"),
    Call("rejected:zero-lambda", f"{BIELLIPTIC} --lambda 0 --mu 1", 2, "",
         "stabctab bounds: lambda and mu must be positive\n"),
    Call("rejected:zero-gamma", f"{BIELLIPTIC} --lambda 1 --mu 1 --gamma 0", 2, "",
         "stabctab bounds: gamma must be a positive integer\n"),
    Call("rejected:bielliptic-d-zero", f"{BIELLIPTIC} --lambda 1 --mu 1 --d 0", 2, "",
         "stabctab bounds: d must be a positive integer\n"),
    Call("rejected:lambda-too-long-for-int", f"{BIELLIPTIC} --lambda {'1' * 4400} --mu 1", 2, "",
         f"stabctab bounds: {_int_error('1' * 4400)}\n"),
    Call("rejected:zero-truncation", TACNODE, 2, "",
         "stabctab germ: declared truncation must be positive\n",
         {"tacnode.br": "truncation: 0\nt ; t^2\nt ; -t^2\n"}),
    Call("rejected:ortho-basis-before-rank", LATTICE, 2, "",
         "stabctab decompose: rank must come before ortho_basis\n",
         {"model.lat": "ortho_basis\n1 0\n0 1\nrank 2\n"}),
    # an integer is an optional sign and ASCII digits, wherever it is read
    Call("rejected:beta-underscore", "decompose --lattice bielliptic-rank2 --beta 1_0,1", 2, "",
         "stabctab decompose: invalid literal for int() with base 10: '1_0'\n"),
    Call("rejected:beta-underscore-joined", "decompose --lattice bielliptic-rank2 --beta=1_0,1",
         2, "", "stabctab decompose: invalid literal for int() with base 10: '1_0'\n"),
    Call("rejected:beta-arabic-indic", "decompose --lattice bielliptic-rank2 --beta \u0661,1", 2,
         "", "stabctab decompose: invalid literal for int() with base 10: '\u0661'\n"),
    Call("rejected:lambda-arabic-indic", f"{BIELLIPTIC} --lambda \u0661/\u0662 --mu 1", 2, "",
         "stabctab bounds: Invalid literal for Fraction: '\u0661/\u0662'\n"),
    Call("rejected:exponent-arabic-indic", "germ --poly 'x^\u0661 + y^2'", 2, "",
         "stabctab germ: cannot parse term 'x^\u0661'\n"),
    Call("rejected:truncation-underscore", TACNODE, 2, "",
         "stabctab germ: invalid literal for int() with base 10: ' 1_0'\n",
         {"tacnode.br": "truncation: 1_0\nt ; t^2\nt ; -t^2\n"}),
    Call("rejected:ample-tests-arabic-indic", LATTICE, 2, "",
         "stabctab decompose: invalid literal for int() with base 10: '\u0662'\n",
         {"model.lat": ZERO_DENOMINATOR_LATTICE.replace("1/0", "1").replace("ample_tests 2",
                                                                            "ample_tests \u0662")}),
    Call("rejected:no-mode", "bounds --surface enriques --beta-sq 10", 2, "",
         "stabctab bounds: give exactly one of --d or --i/--j\n"),
    Call("rejected:bielliptic-missing-flags", "bounds --surface bielliptic --a 1 --d 2", 2, "",
         "stabctab bounds: bielliptic needs --a --b --lambda --mu --gamma\n"),
    Call("rejected:test-square-too-long-to-print", "decompose --lattice model.lat --beta=2,0", 2,
         "", "stabctab decompose: test class 1*D1 +/- D2 has nonpositive square too long to "
         "print\n", {"model.lat": SQUARE_TOO_LONG_LATTICE}),
    Call("rejected:beta-wrong-length", "decompose --lattice bielliptic-rank2 --beta 1,2,3", 2, "",
         "stabctab decompose: beta has 3 coordinates, lattice has rank 2\n"),
    # truncation: is read on a branch file's first line only: a second or
    # trailing one is a line that is not a pair
    Call("rejected:second-truncation", CUSP, 2, "",
         "stabctab germ: branch line 'truncation: 12' is not 'x(t) ; y(t)'\n",
         {"cusp.br": "truncation: 8\nt^2 ; t^3\ntruncation: 12\n"}),
    Call("rejected:trailing-truncation", CUSP, 2, "",
         "stabctab germ: branch line 'truncation: 12' is not 'x(t) ; y(t)'\n",
         {"cusp.br": "t^2 ; t^3\ntruncation: 12\n"}),
    *(Call(f"rejected:negative-{flag[2:]}", f"{name} --b1 0 --b2 10 {flag} -1", 2, "",
           f"stabctab {name}: truncation order must be nonnegative\n")
      for name, flag in (("identity", "--order"), ("perverse", "--max-order"),
                         ("stable-betti", "--max-k"))),
    Call("rejected:poly-unknown-variable", "germ --poly 'y^2 - z^3'", 2, "",
         "stabctab germ: unknown factor 'z^3' in term 'z^3'\n"),
    # an empty path names no file, as for --lattice: it is not a call
    # without --branches
    Call("rejected:empty-branch-path", "germ --poly 'y^2 - x^3' --branches ''", 2, "",
         "stabctab germ: [Errno 2] No such file or directory: ''\n"),
    # an integer of a file with more digits than Python reads
    Call("rejected:rank-too-long-for-int", LATTICE, 2, "",
         f"stabctab decompose: {_int_error('9' * 5000)}\n", {"model.lat": f"rank {'9' * 5000}\n"}),
    Call("rejected:truncation-too-long-for-int", TACNODE, 2, "",
         f"stabctab germ: {_int_error(' ' + '9' * 5000)}\n",
         {"tacnode.br": f"truncation: {'9' * 5000}\nt ; t^2\nt ; -t^2\n"}),
    Call("too-long:lattice-file", "decompose --lattice long.txt --beta 1,1", 2, "",
         "stabctab decompose: long.txt: file longer than 1048576 characters\n",
         {"long.txt": LONG_FILE}),
    Call("too-long:branch-file", "germ --poly 'y^2 - x^3' --branches long.txt", 2, "",
         "stabctab germ: long.txt: file longer than 1048576 characters\n", {"long.txt": LONG_FILE}),
    # Python prints no int of more than 4,300 digits: these values, or a
    # value built from them, once exited 3 when the record was written
    Call("too-large:stable-betti-b2", f"stable-betti --b1 0 --b2 {'9' * 1000}", 2, "",
         f"stabctab stable-betti: --b2 {'9' * 1000} exceeds the cap of 1000000000000\n"),
    Call("too-large:perverse-b2", f"perverse --b1 0 --b2 {'9' * 1000}", 2, "",
         f"stabctab perverse: --b2 {'9' * 1000} exceeds the cap of 1000000000000\n"),
    Call("too-large:enriques-d", f"bounds --surface enriques --beta-sq 10 --d {'9' * 4000}", 2, "",
         f"stabctab bounds: --d {'9' * 4000} exceeds the cap of {10**600}\n"),
    Call("too-large:bielliptic-lambda-mu", f"bounds --surface bielliptic --a 1 --b 1 --lambda "
         f"{'7' * 3000} --mu 1/{'7' * 3000} --gamma 2 --d 1", 2, "",
         f"stabctab bounds: lambda and mu must have numerator and denominator at most {10**600}\n"),
    Call("too-large:enriques-beta-sq", f"bounds --surface enriques --beta-sq {'8' * 4300} --d 1",
         2, "", f"stabctab bounds: --beta-sq {'8' * 4300} exceeds the cap of {10**600}\n"),
    # the order flags at their caps: the tables end at (64, 0, 1) and at
    # b_384 = 2396527873254065426956
    Call("order-cap:perverse", "perverse --b1 0 --b2 1 --max-order 64", 0,
         "sha256:fad5fcb0a5397cbc5f8f49863cf2e38f708650c2d919eeda6a3464499692ead5"),
    Call("order-cap:identity", "identity --b1 0 --b2 1 --order 64", 0, "status\tPASS\n"),
    Call("order-cap:stable-betti", "stable-betti --b1 0 --b2 1 --max-k 384", 0,
         "sha256:9b18196ab35c2c09a31c80265b8b36c68c644a09bb39ac6e6f2b7013472ca409"),
    # the parser's usage errors, each one line: test_parser.py runs these
    Call("usage:no-subcommand", "", 2, "", f"stabctab: missing subcommand; {CHOOSE}"),
    Call("usage:unknown-subcommand", "frob --b1 0", 2, "",
         f"stabctab: unknown subcommand 'frob'; {CHOOSE}"),
    Call("usage:no-such-command", "no-such-command", 2, "",
         f"stabctab: unknown subcommand 'no-such-command'; {CHOOSE}"),
    Call("usage:flag-first", "--b1 0", 2, "", f"stabctab: unknown subcommand '--b1'; {CHOOSE}"),
    Call("usage:unknown-flag", "stable-betti --b1 0 --b2 1 --max", 2, "",
         "stabctab stable-betti: unknown flag '--max'\n"),
    Call("usage:hidden-elsewhere", "perverse --b1 0 --b2 1 --perturb", 2, "",
         "stabctab perverse: unknown flag '--perturb'\n"),
    Call("usage:stray-argument", "germ --poly x y", 2, "",
         "stabctab germ: unexpected argument 'y'\n"),
    Call("usage:missing-value", "identity --b1 0 --b2 1 --order", 2, "",
         "stabctab identity: --order needs a value\n"),
    Call("usage:non-integer", "stable-betti --b1 0 --b2 ten", 2, "",
         "stabctab stable-betti: --b2 needs an integer, got 'ten'\n"),
    Call("usage:underscore-integer", "stable-betti --b1 0 --b2 1_0", 2, "",
         "stabctab stable-betti: --b2 needs an integer, got '1_0'\n"),
    Call("usage:arabic-indic-integer", "stable-betti --b1 0 --b2 \u0661", 2, "",
         "stabctab stable-betti: --b2 needs an integer, got '\u0661'\n"),
    # an integer, but of more digits than Python reads: not echoed
    Call("usage:integer-too-long-to-read", f"stable-betti --b1 0 --b2 {'9' * 5000}", 2, "",
         "stabctab stable-betti: --b2 has more digits than Python reads; its cap is "
         "1000000000000\n"),
    Call("usage:format-choice", "decompose --lattice x --beta 1 --format xml", 2, "",
         "stabctab decompose: --format must be one of tsv, json, got 'xml'\n"),
    Call("usage:surface-choice", "bounds --surface=k3", 2, "",
         "stabctab bounds: --surface must be one of enriques, bielliptic, got 'k3'\n"),
    Call("usage:missing-required", "perverse --b1 0", 2, "",
         "stabctab perverse: missing required --b2\n"),
    Call("usage:stable-betti-missing-required", "stable-betti --b1 0", 2, "",
         "stabctab stable-betti: missing required --b2\n"),
    Call("usage:missing-two", "decompose", 2, "",
         "stabctab decompose: missing required --lattice, --beta\n"),
    Call("usage:switch-value", "perverse --b1 0 --b2 1 --oracle=yes", 2, "",
         "stabctab perverse: --oracle takes no value\n"),
    # the caps are checked after every other usage error
    Call("usage:max-order-above-cap", "perverse --b1 0 --b2 1 --max-order 65 --oracle", 2, "",
         "stabctab perverse: --max-order 65 exceeds the cap of 64\n"),
    Call("usage:order-above-cap", "identity --b1 0 --b2 1 --order 65", 2, "",
         "stabctab identity: --order 65 exceeds the cap of 64\n"),
    Call("usage:max-k-above-cap", "stable-betti --b1 0 --b2 1 --max-k 385", 2, "",
         "stabctab stable-betti: --max-k 385 exceeds the cap of 384\n"),
    # sha256 of stdout, recorded with the factor-by-factor product expansion
    # that preceded the integer kernel, the germ entry with the two-class
    # polynomial layer, the decompose and bounds entries with Fraction-valued
    # positivity tests and surd helper functions (three JSON records re-pinned
    # once each provenance named only what ran): not to change by a byte
    *digests("digest:perverse-oracle", "perverse --b1 2 --b2 2 --max-order 14 --oracle",
             "3a72ff2833be4af01ef88b5b99dec3b7b5da64bbd5160157176b86f978ee11f3",
             "ea17aa80d117a41de3fda5083586b9c78555c0294780304f53a68ffe0bca0c34"),
    *digests("digest:perverse", "perverse --b1 0 --b2 10 --max-order 12",
             "aaab53a3c10918457520b28279283b30361b4a27aa13c9ad9ecb704e5522ceae",
             "8edf845ec177e55a6d86e1c0046e90aa08498100287d85da599947b4df78e685"),
    *digests("digest:identity", "identity --b1 4 --b2 6 --order 12",
             "b029a1c4892cf91382326dcc6013292d384646627694849c8635038a18c72a39",
             "c07aa6ad1eac8876d43aefb8c855dd1156b5fd3aa64241f2af0493d9ee9c4258"),
    *digests("digest:stable-betti-enriques", "stable-betti --b1 0 --b2 10 --max-k 30",
             "b70d7eb52157dffce53daffcae5990506de7968e116b5c1c8a439e022c14ff41",
             "6049c0b8491521542e2827233fd5acab3d8192f11c3541ce741120861797c61c"),
    *digests("digest:stable-betti-b1-4", "stable-betti --b1 4 --b2 11 --max-k 40",
             "50c639c01a5745f05db811bfc633bc79bbb540d28acf2e8b460a9672cf8b6fb5",
             "cb4a305ea43d6e97c4d6a3f484286b6b288d6b5ee88090876009444687d41942"),
    *digests("digest:germ", "germ --poly 'x^3*y - x*y^3'",
             "d4f7a817ea494a60e4b3432450e625839bca0fa2c78b14075f7c950ed01e4699",
             "28bbd880f74744b19d1eea3c6f032d9cfd9f0da4d1eed7cc28aebce53aef09ff"),
    *digests("digest:decompose", "decompose --lattice bielliptic-rank2 --beta 12,12",
             "646ab6e8a3ba6f9f27aae9a1d9c55c30fa8d71f6d269c3fb1dacee41cd643ec1",
             "f175a350cb858394e2c5cfd64257fd32cfd6d74bc56bc202cb072316e45c492b"),
    *digests("digest:bounds-bielliptic", "bounds --surface bielliptic --a 1 --b 2 --lambda 1 "
             "--mu 1 --gamma 2 --d 3",
             "727c69d91adf42cd3dbe897f8062d26aa3201780daccedf6af21e438ac3b7490",
             "6106ee441f9110ca50f2e2dee7181677317686be42caaa51baef2b7fdd772796"),
    # its JSON: codim_bound 5, governing case 2.1, case 1.1 -2+20*sqrt(5)
    *digests("digest:bounds-enriques-d", "bounds --surface enriques --beta-sq 10 --d 10",
             "0c389be4f5aad60872bbd3c7fdcafeb3632d0b526da66b2aa511ba3e8c098c0f",
             "8306bb3426a840caf4970532eff919e1206132e93cc9b61fb89e403b9db3da36"),
    *digests("digest:bounds-enriques-d0", "bounds --surface enriques --beta-sq 6 --i 3 --j 4",
             "0a9f0603789fb88e05a4a309adb75a9d11e570bb6a1451751b71660121f4aa5c",
             "43e0a27f9ca06302b759c9a2cace0400d8c31184fba6fe6ee4c7b6e1c7fa320d"),
    # these two with the lattice model checked in Fraction arithmetic and
    # the last gram coordinate scanned point by point
    *digests("digest:decompose-rank3", "decompose --lattice rank3.lat --beta=10,2,-5",
             "6008b09f0cf11bf343d77049897a552e0d927af1dac79d1e9aef82c98b875c82",
             "82bfa18282e8bf7120ae28a2953051b96a3e34178daf786f7031b06dd43465bc",
             files={"rank3.lat": RANK3_RATIONAL_LATTICE}),
    *digests("digest:decompose-u-e8", "decompose --lattice enriques-u-e8 --beta "
             "1,2,0,1,-1,0,0,0,0,0",
             "aa574b29b0e7ea1dca1a471c4554d38350410f07cd9a09402971db7ffbcacf97",
             "692b9c48e63b35e381eda6190bacc3ff7cdab600a115b2c29db9584b875ca4e4"),
]


def rows(*names):
    """The rows of ``CALLS`` that names name: a row by its id, or a group,
    the rows whose ids are the name, a colon and more."""
    found = [[call for call in CALLS if call.id == name or call.id.startswith(name + ":")]
             for name in names]
    assert all(found), names
    return [call for group in found for call in group]


def check(call, tmp_path, monkeypatch):
    """Run call in tmp_path, with its files written there, in-process or,
    if it has a timeout, in a fresh interpreter killed after that many
    seconds, and compare its whole (exit code, stdout, stderr) with the row."""
    monkeypatch.chdir(tmp_path)
    if call.timeout is None:
        code, out, err = run(call.argv, call.files)
    else:
        proc = run_fresh(*call.argv, timeout=call.timeout, files=call.files)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    if call.out.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert (code, out, err) == call[2:5], call.id


def each(*names):
    """Parametrize a test's ``call`` over the rows named, each node shown by
    its row's name past its group."""
    calls = rows(*names)
    return pytest.mark.parametrize("call", calls,
                                   ids=[call.id.partition(":")[2] or call.id for call in calls])


def pinned(*names):
    """A test that checks the rows named, in one node."""
    calls = rows(*names)

    def test(tmp_path, monkeypatch):
        for call in calls:
            check(call, tmp_path, monkeypatch)
    return test


def pinned_each(*names):
    """A test that checks the rows named, one node each."""
    @each(*names)
    def test(call, tmp_path, monkeypatch):
        check(call, tmp_path, monkeypatch)
    return test


def test_call_ids_are_unique():
    # a dict literal would keep only the last of two rows with one id
    ids = [call.id for call in CALLS]
    assert sorted({i for i in ids if ids.count(i) > 1}) == []


# Each test below checks rows of CALLS and nothing more.  Its name is a
# node id that bench/mutate.py, CHANGES.md and earlier tier-1 runs cite,
# so it stays, though each row could be a node of one parametrized test.
test_stable_betti_enriques = pinned("stable-betti-enriques")
test_stable_betti_k0 = pinned("stable-betti-k0")
test_stable_betti_bielliptic = pinned("stable-betti-bielliptic")
test_perverse_table = pinned("perverse-table")
test_perverse_order_zero = pinned("perverse-order-zero")
test_perverse_oracle_agrees = pinned("perverse-oracle-agrees")
test_identity_pass = pinned("identity-pass")
test_identity_order_zero = pinned("identity-order-zero")
test_identity_perturbed_fails = pinned("identity-perturbed")
test_pinned_perturb_digests = pinned("perturb-tsv", "perturb-json")
test_germ_cusp = pinned("germ-cusp")
test_germ_smooth = pinned("germ-smooth")
test_germ_with_branches = pinned("germ-with-branches")
test_pinned_germ_branches_digest = pinned("germ-branches-digest")
test_germ_branches_at_the_conductor_bound = pinned("germ-conductor-bound")
test_germ_missing_branch_file_is_usage_error = pinned("germ-missing-branch-file")
test_germ_milnor_cap_boundary = pinned("mu-at-the-cap", "mu-non-isolated", "mu-above-the-cap")
test_composition_work_counts_no_degree_past_the_cutoff = pinned("work-within-the-cutoff")
test_bounds_radicand_above_the_cap_exits_2 = pinned_each("radicand")
test_exponent_literal_is_rejected_at_once = pinned("exponent-literal")
test_huge_exponent_composes_with_branches_at_once = pinned_each("huge-exponent")
test_term_with_a_zero_image_builds_no_powers = pinned("zero-image")
test_composition_work_does_not_grow_with_the_terms = pinned("many-terms")
test_composition_work_is_capped_before_it_is_done = pinned("dense-branch")
test_large_coefficients_count_toward_the_work_cap = pinned("large-coefficients")
test_lattice_rank_is_capped_before_the_gram_is_read = pinned("dense-rank-250")
test_large_gram_entries_are_checked_at_once = pinned("large-gram-entries")
test_composed_degree_cap = pinned_each("degree-cap")
test_zero_denominator_is_usage_error = pinned_each("zero-denominator")
test_bounds_enriques_d0 = pinned("bounds-enriques-d0")
test_bounds_bielliptic = pinned("bounds-bielliptic")
test_bounds_enriques_small = pinned("bounds-enriques-small")
test_bounds_enriques_cases = pinned("digest:bounds-enriques-d-json")
test_bounds_radicand_at_the_cap_runs = pinned("radicand-at-the-cap")
test_bounds_d0_above_the_radicand_cap = pinned("d0-above-the-radicand-cap")
test_decompose_preset = pinned("decompose-preset")
test_decompose_seven_pairs = pinned("decompose-seven-pairs")
test_decompose_minimal_empty = pinned("decompose-minimal-empty")
test_decompose_small_test_form_value_is_empty = pinned("half-test-form")
test_invalid_lattice_file_exits_2_as_pinned = pinned_each("lattice")
test_decompose_refusals_as_pinned = pinned_each("refused")
test_rejected_input_names_its_subcommand = pinned_each("rejected")
test_integers_too_large_to_print_exit_2 = pinned_each("too-large")
test_order_flags_at_their_cap_run = pinned_each("order-cap")
test_pinned_stdout_digests = pinned("digest")


def test_perverse_oracle_disagreement_exits_1(tmp_path, monkeypatch):
    from stabctab import perverse

    monkeypatch.setattr(perverse, "first_oracle_mismatch", lambda s, k: ((1, 1), 8, 9))
    for call in rows("oracle-disagrees"):
        check(call, tmp_path, monkeypatch)


def test_perverse_oracle_builds_each_series_once(tmp_path, monkeypatch):
    from stabctab import genfunc

    calls = []
    product = genfunc._product

    def counting_product(factors, order, top):
        calls.append((list(factors), order))
        return product(factors, order, top)

    monkeypatch.setattr(genfunc, "_product", counting_product)
    check(*rows("perverse-oracle-agrees"), tmp_path, monkeypatch)
    surface = genfunc.ENRIQUES
    assert calls == [(genfunc._perverse_factors(surface, 10), 10),
                     (genfunc._goettsche_factors(surface, 10), 10)]


def test_germ_with_branches_computes_mu_once(tmp_path, monkeypatch):
    # and delta once, by the library's public route, handed that mu
    from stabctab import germ

    calls, milnor, delta, delta_calls = [], germ.milnor, germ.delta, []

    def counting_milnor(g):
        calls.append(g)
        return milnor(g)

    def counting_delta(*args):
        delta_calls.append(args)
        return delta(*args)

    monkeypatch.setattr(germ, "milnor", counting_milnor)
    monkeypatch.setattr(germ, "delta", counting_delta)
    check(*rows("germ-with-branches"), tmp_path, monkeypatch)
    assert len(calls) == 1
    assert len(delta_calls) == 1


def test_germ_provenance_names_delta_only_with_branches(tmp_path, monkeypatch):
    code, out, _ = run(["germ", "--poly", "y^2 - x^3", "--format", "json"])
    assert code == 0
    # neither the results nor the provenance mention delta
    assert "delta" not in out
    assert json.loads(out)["provenance"] == "local quotient-algebra dimensions"
    monkeypatch.chdir(tmp_path)
    _, out, _ = run(["germ", "--poly", "y^2 - x^3", "--branches", "cusp.br", "--format", "json"],
                    {"cusp.br": "t^2 ; t^3\n"})
    record = json.loads(out)
    assert record["provenance"] == ("local quotient-algebra dimensions; delta from the "
                                    "normalization cokernel of the branch parametrizations")


@pytest.mark.parametrize("argv, provenance", [
    (("--surface", "enriques", "--beta-sq", "10", "--d", "3"),
     "five-case codimension bounds for non-integral members of |d*beta| on an "
     "Enriques surface"),
    (("--surface", "enriques", "--beta-sq", "10", "--d", "3", "--generic"),
     "cases 1.1-1.3 of the codimension bounds for non-integral members of |d*beta| "
     "on a generic Enriques surface, which has no rigid curves"),
    (("--surface", "enriques", "--beta-sq", "10", "--i", "3", "--j", "4"),
     "stabilization threshold d0 of an Enriques surface: the max of five explicit terms"),
    (("--surface", "bielliptic", "--a", "1", "--b", "2", "--lambda", "1", "--mu", "1",
      "--gamma", "2", "--d", "3"),
     "three-case codimension bounds in the fiber-class basis of a bielliptic surface"),
], ids=["enriques-d", "enriques-d-generic", "enriques-i-j", "bielliptic"])
def test_bounds_provenance_names_what_ran(argv, provenance):
    code, out, _ = run(["bounds", *argv, "--format", "json"])
    record = json.loads(out)
    assert code == 0
    assert record["provenance"] == provenance


@pytest.mark.parametrize("argv", [
    ("--surface", "enriques", "--beta-sq", "10", "--d", "3"),
    ("--surface", "enriques", "--beta-sq", "10", "--d", "3", "--generic"),
    ("--surface", "bielliptic", "--a", "1", "--b", "2", "--lambda", "1", "--mu", "3/2",
     "--gamma", "2", "--d", "2"),
], ids=["enriques", "enriques-generic", "bielliptic"])
def test_bounds_takes_each_radicand_apart_once(monkeypatch, argv):
    from stabctab import surd

    calls = []
    split = surd._squarefree_split
    monkeypatch.setattr(surd, "_squarefree_split", lambda n: calls.append(n) or split(n))
    code, _, _ = run(["bounds", *argv])
    assert code == 0
    assert len(calls) == 1, calls


@pytest.mark.parametrize("call", rows("stable-betti-enriques", "rejected:beta-wrong-length",
                                      "usage:stable-betti-missing-required"),
                         ids=["success", "bad-input", "usage"])
def test_main_leaves_the_collector_unfrozen(call):
    # only the process entry point freezes; in-process callers keep a
    # normal collector
    import gc

    before = gc.get_freeze_count()
    main(call.argv)
    assert gc.get_freeze_count() == before


#: Calls whose whole output the entry point must print as main does: one
#: per exit code of a completed record (0, 1 and 2), then rejections that
#: each exit 2 in a fresh interpreter within 5 s; keyed by the node id.
FRESH = {
    "0": "stable-betti-enriques",
    "1": "identity-perturbed",
    "2": "rejected:beta-wrong-length",
    "stable-betti-missing-required": "usage:stable-betti-missing-required",
    "beta-underscore": "rejected:beta-underscore-joined",
    "test-square-too-long-to-print": "rejected:test-square-too-long-to-print",
    "trailing-truncation": "rejected:trailing-truncation",
    "b2-too-large-to-print": "too-large:stable-betti-b2",
    "bielliptic-generic": "rejected:bielliptic-generic",
    "mu-above-the-cap": "mu-above-the-cap",
    "short-gram": "lattice:short-gram",
}


@pytest.mark.parametrize("call", rows(*FRESH.values()), ids=list(FRESH))
def test_entry_point_prints_what_main_prints(tmp_path, monkeypatch, call):
    check(call, tmp_path, monkeypatch)
    check(call._replace(timeout=5), tmp_path, monkeypatch)


@pytest.mark.parametrize("argv, first_line", [
    # the record (about 250 kB) outgrows the pipe, so the reader, which
    # takes one line and closes its end, is gone before the last write
    (("decompose", "--lattice", "bielliptic-rank2", "--beta=100,100"), b"theta1\ttheta2\n"),
    # the reader is gone before the first write: the record fails at the
    # final flush (at its first write when unbuffered), which must not be
    # tried again at exit
    (("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"), None),
    # so does help, which the parser writes
    (("--help",), None),
    (("perverse", "--help"), None),
], ids=["mid-record", "before-record", "help", "subcommand-help"])
def test_closed_stdout_exits_141_quietly(argv, first_line):
    import subprocess
    import sys

    env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        # leaving the with block closes both pipes and reaps the child
        with subprocess.Popen([sys.executable, "-m", "stabctab", *argv], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, env={**env, **unbuffered}) as proc:
            try:
                if first_line is not None:
                    assert proc.stdout.readline() == first_line
                proc.stdout.close()
                err = proc.stderr.read()
                assert proc.wait(timeout=60) == 141, unbuffered
            finally:
                proc.kill()
        assert err == b"", unbuffered


def test_json_records_validate_against_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        resources.files("stabctab").joinpath("data/output.schema.json").read_text()
    )
    for name in RUNS:
        _, out, _ = run([*command(name), "--format", "json"])
        record = json.loads(out)
        jsonschema.validate(record, schema)


def test_byte_determinism():
    for argv in (("perverse", "--b1", "0", "--b2", "10", "--max-order", "6", "--format", "json"),
                 ("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "10")):
        assert run(argv) == run(argv)


def rendered(value):
    """value as main writes it to JSON: a Fraction or a QuadSurd as its str,
    a tuple as a list."""
    from fractions import Fraction

    from stabctab.surd import QuadSurd

    if isinstance(value, (Fraction, QuadSurd)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [rendered(v) for v in value]
    if isinstance(value, dict):
        return {k: rendered(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize("name", sorted(RUNS))
def test_handlers_return_the_record_and_write_nothing(capsys, name):
    from fractions import Fraction
    from importlib import import_module

    from stabctab.cli import COMMANDS, build_parser
    from stabctab.surd import QuadSurd

    assert set(RUNS) == set(COMMANDS)
    args = build_parser().parse_args(command(name))
    handler = getattr(import_module(f"stabctab.{COMMANDS[name][1]}"),
                      "cmd_" + name.replace("-", "_"))
    result = handler(args)
    assert capsys.readouterr().out == ""
    status, record, rows = result
    # rows may be any iterable, a generator among them: read it once
    rows = list(rows)
    assert status == 0
    assert sorted(record) == ["parameters", "provenance", "results"]
    assert rows and all(isinstance(row, tuple) for row in rows)
    if name == "bounds":
        # the record holds the library's exact values, not their text
        results = record["results"]
        assert isinstance(results["codim_bound"], Fraction)
        assert any(isinstance(v, QuadSurd) for _, v in results["case_bounds"])
    # main alone renders: it adds the command and writes the record with
    # each exact value as its str, or each row with a cell as its str, a
    # tuple cell as its items joined by ',' and a list cell as JSON
    code, out, _ = run([*command(name), "--format", "json"])
    assert (code, json.loads(out)) == (0, rendered({"command": name, **record}))
    tsv = "".join(
        "\t".join(json.dumps(rendered(c)) if isinstance(c, list)
                  else ",".join(map(str, c)) if isinstance(c, tuple) else str(c) for c in row)
        + "\n" for row in rows
    )
    assert run(command(name))[:2] == (0, tsv)


def test_value_json_cannot_write_exits_3(monkeypatch):
    from stabctab import germ

    # only a Fraction or a QuadSurd is written by its str
    record = {"parameters": {}, "results": {"mu": object()}, "provenance": ""}
    monkeypatch.setattr(germ, "cmd_germ", lambda args: (0, record, []))
    assert run(["germ", "--poly", "x*y", "--format", "json"]) == (
        3, "", "stabctab: internal error: TypeError: "
        "Object of type object is not JSON serializable\n")


@each("too-long")
def test_file_longer_than_the_cap_exits_2(tmp_path, monkeypatch, call):
    check(call, tmp_path, monkeypatch)
    # a file that never ends, read in a fresh interpreter whose address space
    # is capped, is read no further than the cap
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    proc = run_fresh(*(a.replace("long.txt", "/dev/zero") for a in call.argv), timeout=5,
                     preexec_fn=cap_address_space)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", call.err.replace("long.txt", "/dev/zero"))


def test_internal_failure_exits_3(monkeypatch):
    from stabctab import genfunc

    # an L that is no integer series' log-derivative trips the kernel's guard
    monkeypatch.setattr(
        genfunc, "_log_derivative", lambda factors, order: [{}, {}, {0: 1}] + [{}] * (order - 2)
    )
    code, _, err = run(["stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"])
    assert code == 3 and err.startswith("stabctab: internal error: ") and err.count("\n") == 1


def _raise(exc_type):
    def stray(*args, **kwargs):
        raise exc_type("stray")
    return stray


def _broken_table(surface, order):
    from stabctab.genfunc import PerverseTable

    # a base-row entry of 2 breaks a PerverseTable invariant
    return PerverseTable(order, {(0, 1): 2})


@pytest.mark.parametrize("module, name, stray, argv, exc_type", [
    ("genfunc", "_log_derivative", _raise(ValueError),
     ("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"), "ValueError"),
    ("genfunc", "stable_perverse_table", _broken_table,
     ("perverse", "--b1", "0", "--b2", "10", "--max-order", "4"), "ValueError"),
    ("germ", "milnor", _raise(ZeroDivisionError),
     ("germ", "--poly", "y^2 - x^3"), "ZeroDivisionError"),
    ("nslattice", "decompose", _raise(TypeError),
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"), "TypeError"),
    ("codim", "enriques_d0", _raise(ValueError),
     ("bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2", "--j", "3"), "ValueError"),
    # a data file the package ships is not input: without it the package
    # is broken, whatever the call
    ("_record", "DATA_DIR", "no-such-data-directory",
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"), "FileNotFoundError"),
    # nor is one that does not parse: its parser's BadInput exits 3, not 2
    ("nslattice", "parse_lattice", _raise(BadInput),
     ("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"),
     "ValueError: shipped file data/lattices/bielliptic-rank2.lat"),
], ids=["genfunc-value", "perverse-table", "germ-zero-division", "nslattice-type",
        "codim-value", "missing-data-file", "malformed-data-file"])
def test_stray_exception_exits_3(monkeypatch, module, name, stray, argv, exc_type):
    from importlib import import_module

    monkeypatch.setattr(import_module(f"stabctab.{module}"), name, stray)
    code, out, err = run(argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"stabctab: internal error: {exc_type}: ") and err.count("\n") == 1


def test_inconsistent_tower_exits_3(monkeypatch):
    from stabctab import perverse

    # a tower whose base row holds 2, which no surface produces
    monkeypatch.setattr(perverse, "build_tower",
                        lambda s, k: perverse.RelHilbBettiTower(s, k, {(0, 0): 2}))
    code, _, err = run(["perverse", "--b1", "0", "--b2", "10", "--max-order", "2", "--oracle"])
    assert code == 3 and err.startswith("stabctab: internal error: ") and err.count("\n") == 1


SURFACE_CAP, BOUNDS_CAP = 10**12, 10**600


@pytest.mark.parametrize("line", [
    f"stable-betti --b1 {SURFACE_CAP} --b2 {SURFACE_CAP} --max-k 384",
    f"perverse --b1 {SURFACE_CAP} --b2 {SURFACE_CAP} --max-order 64",
    f"identity --b1 {SURFACE_CAP} --b2 {SURFACE_CAP} --order 64 --perturb",
    f"bounds --surface enriques --beta-sq 10 --d {BOUNDS_CAP}",
    f"bounds --surface enriques --beta-sq {BOUNDS_CAP} --i {BOUNDS_CAP} --j {BOUNDS_CAP}",
    f"bounds --surface bielliptic --a {BOUNDS_CAP} --b {BOUNDS_CAP} --lambda 1/{BOUNDS_CAP} "
    f"--mu 1/{BOUNDS_CAP} --gamma 2 --d {BOUNDS_CAP}",
], ids=["stable-betti", "perverse", "identity", "enriques-d", "enriques-d0", "bielliptic"])
def test_records_at_the_integer_caps_print(line):
    from stabctab import codim
    from stabctab.cli import COMMANDS

    assert COMMANDS["bounds"][2]["--d"]["cap"] == codim.MAX_ARGUMENT == BOUNDS_CAP
    for fmt in ("tsv", "json"):
        code, out, _ = run([*shlex.split(line), "--format", fmt])
        assert code == (1 if "--perturb" in line else 0)
        assert out


def bench_script(name):
    """bench/<name>.py of this checkout, imported as a module."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_sweep_checks_its_own_digests(monkeypatch, capsys):
    # bench/sweep.py of this checkout, on the stabctab the suite imports: its
    # usage grid gives the pinned count and digest, and one that is not
    # pinned exits 1 with one stderr line naming the grid
    import sys

    # the sweep puts tests/ on the path as it is imported
    monkeypatch.setattr(sys, "path", list(sys.path))
    sweep = bench_script("sweep")
    assert sweep.cli(["usage"]) == 0
    assert capsys.readouterr() == ("usage\t181\t{}\n".format(sweep.DIGESTS["usage"][1]), "")
    monkeypatch.setitem(sweep.DIGESTS, "usage", (181, "0" * 64))
    assert sweep.cli(["usage"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("sweep.py: usage gave 181 calls and "), err


def test_every_mutation_killer_is_a_node_of_the_suite():
    # bench/mutate.py names the tests that kill its mutants by node id, row
    # ids included; pytest, run as the script runs it, collects each of them
    # from this checkout, or exits 4 naming one that it does not find
    import subprocess
    import sys

    mutate = bench_script("mutate")
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
                           "no:cacheprovider", *mutate.KILLERS], cwd=mutate.ROOT,
                          env=fresh_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
