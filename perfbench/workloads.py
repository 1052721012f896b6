"""Seeded workloads: endless streams of CLI calls, dealt in decks.

A deck visits every cell of its workload once (a command at a surface
type, a lattice kind, a germ family, ...) in a fixed order.  Sizes (orders,
the size of a class) sweep their stated range on a fixed interleaved
schedule, the same for every seed, so that every run of a given length has
the same size mix: per-call cost grows steeply with size, and seeded sizes
made ops_per_s differ by a quarter between seeds.  The seed draws
everything else: surfaces, lattices, classes, germs, bounds parameters and
which calls ask for JSON.

The program only sees the generated argv and the files written here.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from checks import dot, count_splittings, integer_forms


@dataclass
class Op:
    argv: tuple[str, ...]
    #: expected invariants, for germ ops
    expect: dict = field(default_factory=dict)


def passes(rng: random.Random, values):
    """Endless draws that visit every value once per shuffled pass."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def sweep(values, phase: int = 0):
    """Endless fixed sweep of every value once per pass, in strides of about
    0.6 of the range, so that any few consecutive draws spread over it."""
    values = list(values)
    n = len(values)
    stride = next(s for s in range(max(1, round(0.6 * n)), n + 1) if math.gcd(s, n) == 1)
    for i in itertools.count(phase):
        yield values[i * stride % n]


def _surface(b1: int, b2: int) -> tuple[str, ...]:
    return ("--b1", str(b1), "--b2", str(b2))


# --- tables ---------------------------------------------------------------------


def tables(rng: random.Random, work: Path):
    """perverse --oracle at 14..20, identity at 12..20, stable-betti at 24..48,
    each at b1 = 0, 2, 4 with b2 in 1..22.  Every other deck uses Enriques
    (0,10) and bielliptic (2,2) for b1 = 0 and 2.  The costliest cells,
    b1 = 2 and 4 of perverse and identity, take mirrored orders in a deck
    (K and 34-K, K and 32-K) to even out the deck's cost."""
    spans = {"perverse": range(14, 21), "identity": range(12, 21), "stable-betti": range(24, 49)}
    sizes = {(cmd, b1): sweep(span, phase)
             for cmd, span in spans.items() for phase, b1 in enumerate((0, 2, 4))}
    b2s = {b1: sweep(range(1, 23), rng.randrange(22)) for b1 in (0, 2, 4)}
    for d in itertools.count():
        named = d % 2 == 0
        order = {(cmd, b1): next(sizes[cmd, b1]) for cmd, b1 in sizes}
        for cmd in ("perverse", "identity"):
            order[cmd, 4] = spans[cmd][0] + spans[cmd][-1] - order[cmd, 2]
        deck = []
        for b1 in (0, 2, 4):
            b2 = {0: 10, 2: 2}[b1] if named and b1 in (0, 2) else next(b2s[b1])
            s = _surface(b1, b2)
            deck += [
                Op(("perverse", *s, "--max-order", str(order["perverse", b1]), "--oracle")),
                Op(("identity", *s, "--order", str(order["identity", b1]))),
                Op(("stable-betti", *s, "--max-k", str(order["stable-betti", b1]))),
            ]
        yield deck


# --- lattice ----------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """The data of a lattice file, read and used on the benchmark side, so
    that the generated classes depend on the seed and this directory only.
    The fields and methods mirror those of the program's lattice model that
    checks.integer_forms and scan_volume use."""

    gram: tuple
    ample_witness: tuple
    ortho_basis: tuple
    ample_tests: tuple

    @property
    def rank(self) -> int:
        return len(self.gram)

    def ip(self, u, v) -> Fraction:
        return sum(Fraction(u[i]) * self.gram[i][j] * Fraction(v[j])
                   for i in range(self.rank) for j in range(self.rank))

    def test_classes(self) -> list:
        """D1, then n D1 + D_l and n D1 - D_l for each test integer n."""
        d = self.ortho_basis
        out = [d[0]]
        for n, dl in zip(self.ample_tests, d[1:]):
            out += [tuple(n * x + y for x, y in zip(d[0], dl)),
                    tuple(n * x - y for x, y in zip(d[0], dl))]
        return out

    def text(self) -> str:
        rows = lambda m: (" ".join(map(str, r)) for r in m)  # noqa: E731
        lines = [f"rank {self.rank}", "gram", *rows(self.gram),
                 "ample_witness " + " ".join(map(str, self.ample_witness)),
                 "ortho_basis", *rows(self.ortho_basis),
                 "ample_tests " + " ".join(map(str, self.ample_tests))]
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Lattice":
        """Read the keywords ``rank``, ``gram``, ``ample_witness``,
        ``ortho_basis`` and ``ample_tests`` of a lattice file."""
        lines = iter(ln.strip() for ln in text.splitlines()
                     if ln.strip() and not ln.strip().startswith("#"))
        fields = {}
        for ln in lines:
            word, _, rest = ln.partition(" ")
            if word == "rank":
                rank = int(rest)
            elif word in ("gram", "ortho_basis"):
                fields[word] = tuple(tuple(map(Fraction, next(lines).split())) for _ in range(rank))
            else:
                fields[word] = tuple(map(int, rest.split()))
        return cls(**fields)


def _gram_schmidt(gram, rank):
    def ip(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(rank) for j in range(rank))

    basis = []
    for ell in range(rank):
        v = [Fraction(int(i == ell)) for i in range(rank)]
        for d in basis:
            c = ip(v, d) / ip(d, d)
            v = [x - c * y for x, y in zip(v, d)]
        basis.append(v)
    return basis, [ip(v, v) for v in basis]


def random_lattice(rng: random.Random, rank: int) -> Lattice:
    """A random lattice of signature (1, rank-1): e1^2 > 0 is the ample
    witness and D1, the rest orthogonalized by Gram-Schmidt."""
    while True:
        gram = [[0] * rank for _ in range(rank)]
        gram[0][0] = 2 * rng.randint(1, 3)
        for i in range(1, rank):
            gram[i][i] = -2 * rng.randint(1, 4)
        for i, j in itertools.combinations(range(rank), 2):
            gram[i][j] = gram[j][i] = rng.randint(-1, 1)
        basis, squares = _gram_schmidt(gram, rank)
        if all(s < 0 for s in squares[1:]):
            break
    tests = []
    for s in squares[1:]:
        n = 1
        while n * n * squares[0] + s <= 0:
            n += 1
        tests.append(n)
    return Lattice(tuple(map(tuple, gram)), tuple(int(i == 0) for i in range(rank)),
                   tuple(map(tuple, basis)), tuple(tests))


#: (rank, range of |beta| coordinates, accepted scan volumes) of the random
#: lattice files, two of each per deck.  The narrow volume bands keep these
#: calls between 0.4 and 0.8 s, and as they are half of the calls, the run's
#: median latency falls among them rather than in the gap below them, where
#: the seed's bielliptic classes would move it.
RANDOM_LATTICES = ((2, 40, (2500, 3200)), (3, 8, (1300, 1700))) * 2


def scan_volume(model, beta) -> int:
    """Points in the gram-coordinate box that the baseline decompose scans
    for beta: its orthogonal intervals pushed through the basis.  Sizes the
    random classes only; a later decompose may visit far fewer points."""
    d = model.ortho_basis
    squares = [model.ip(v, v) for v in d]
    a1 = model.ip(beta, d[0]) / squares[0]
    widths = [a1] + [2 * n * a1 * squares[0] / -sq for n, sq in zip(model.ample_tests, squares[1:])]
    volume = 1
    for i in range(model.rank):
        volume *= math.floor(sum(w * abs(v[i]) for w, v in zip(widths, d))) + 1
    return volume


def decompose_op(lattice_source: str, beta) -> Op:
    # --beta=... because a class may start with a minus sign
    return Op(("decompose", "--lattice", lattice_source, "--beta=" + ",".join(map(str, beta))))


def _random_beta(rng, model, spread):
    return tuple(rng.randint(-spread // 4, spread) if i == 0 else rng.randint(-spread, spread)
                 for i in range(model.rank))


def _random_case(rng, rank, spread, band):
    """A random lattice and a class with at least one splitting whose scan
    volume lies in the band; a lattice with no such class among 200 draws
    is replaced."""
    while True:
        model = random_lattice(rng, rank)
        forms = integer_forms(model)
        for _ in range(200):
            beta = _random_beta(rng, model, spread)
            if (model.ip(beta, model.ample_witness) > 0
                    and band[0] <= scan_volume(model, beta) <= band[1]
                    and count_splittings(forms, beta) > 0):
                return model, beta


def lattice(rng: random.Random, work: Path, root: Path):
    """decompose on two bielliptic-rank2 classes (a+b in 4..50, first
    quadrant; the two sizes of a deck add up to 54 to even out its cost),
    on two random rank-2 and two random rank-3 lattice files, on an
    enriques-u-e8 class that exits on integrality, and one bounds call."""
    enriques = Lattice.parse(
        (root / "src" / "stabctab" / "data" / "lattices" / "enriques-u-e8.lat").read_text(encoding="utf-8"))
    enriques_forms = integer_forms(enriques)
    sums = sweep(range(4, 51))
    bounds = bounds_calls(rng)
    for d in itertools.count():
        deck = []
        first = next(sums)
        for s in (first, 54 - first):
            a = rng.randint(1, s - 1)
            deck.append(decompose_op("bielliptic-rank2", (a, s - a)))
        for i, (rank, spread, band) in enumerate(RANDOM_LATTICES):
            model, beta = _random_case(rng, rank, spread, band)
            path = work / f"lattice-{d}-{i}-rank{rank}.lat"
            path.write_text(model.text(), encoding="utf-8")
            deck.append(decompose_op(str(path), beta))
        # some ample test pairs with beta below 2, so no splitting exists
        while True:
            beta = _random_beta(rng, enriques, 3)
            if (enriques.ip(beta, enriques.ample_witness) > 0
                    and any(dot(f, beta) < 2 for f in enriques_forms)):
                break
        deck.append(decompose_op("enriques-u-e8", beta))
        deck.append(next(bounds))
        yield deck


# --- session ----------------------------------------------------------------------


def bounds_calls(rng: random.Random):
    """Endless bounds calls cycling through the three record kinds."""
    for kind in itertools.cycle(("enriques-d", "enriques-ij", "bielliptic")):
        if kind == "enriques-d":
            argv = ("bounds", "--surface", "enriques", "--beta-sq", str(2 * rng.randint(1, 10)),
                    "--d", str(rng.randint(1, 10)))
            if rng.random() < 0.5:
                argv += ("--generic",)
        elif kind == "enriques-ij":
            argv = ("bounds", "--surface", "enriques", "--beta-sq", str(2 * rng.randint(1, 10)),
                    "--i", str(rng.randint(0, 6)), "--j", str(rng.randint(0, 6)))
        else:
            argv = ("bounds", "--surface", "bielliptic", "--a", str(rng.randint(1, 3)),
                    "--b", str(rng.randint(1, 3)), "--lambda", str(rng.randint(1, 2)),
                    "--mu", str(rng.randint(1, 2)), "--gamma", str(rng.randint(1, 3)),
                    "--d", str(rng.randint(1, 5)))
        yield Op(argv)


def _germ_op(work: Path, name: str, poly: str, branches, expect: dict) -> Op:
    path = work / f"{name}.br"
    if not path.exists():
        path.write_text("".join(f"{x} ; {y}\n" for x, y in branches), encoding="utf-8")
    return Op(("germ", "--poly", poly, "--branches", str(path)), expect)


def a_k_germ(work: Path, k: int) -> Op:
    """y^2 - x^(k+1): one branch (t^2, t^(k+1)) for even k, two branches
    (t, +-t^((k+1)/2)) for odd k."""
    if k % 2 == 0:
        branches = [("t^2", f"t^{k + 1}")]
    else:
        branches = [("t", f"t^{(k + 1) // 2}"), ("t", f"-t^{(k + 1) // 2}")]
    expect = {"mu": k, "tau": k, "delta": (k + 1) // 2, "r": 1 if k % 2 == 0 else 2}
    return _germ_op(work, f"A{k}-gen", f"y^2 - x^{k + 1}", branches, expect)


def ade_corpus(root: Path) -> list[dict]:
    text = (root / "src" / "stabctab" / "data" / "ade_corpus.jsonl").read_text(encoding="utf-8")
    return [json.loads(ln) for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]


def session(rng: random.Random, work: Path, root: Path):
    """Short calls of all six subcommands: orders <= 10 at b1 = 0, 2, 4 in
    turn, the ADE corpus and A_k germs, small bielliptic classes, half of
    each deck as JSON."""
    series_cmds = ("stable-betti", "perverse", "identity")
    small = {cmd: sweep(range(2, 11), phase) for phase, cmd in enumerate(series_cmds)}
    b1s = {cmd: itertools.cycle((0, 2, 4)[phase:] + (0, 2, 4)[:phase])
           for phase, cmd in enumerate(series_cmds)}
    corpus = passes(rng, ade_corpus(root))
    a_k = sweep(range(1, 13))
    sums = sweep(range(2, 9))
    bounds = bounds_calls(rng)

    def surface(cmd):
        return _surface(next(b1s[cmd]), rng.randint(1, 22))

    while True:
        s = next(sums)
        a = rng.randint(1, s - 1)
        rec = next(corpus)
        deck = [
            Op(("stable-betti", *surface("stable-betti"), "--max-k", str(next(small["stable-betti"])))),
            Op(("perverse", *surface("perverse"), "--max-order", str(next(small["perverse"])),
                "--oracle")),
            Op(("identity", *surface("identity"), "--order", str(next(small["identity"])))),
            _germ_op(work, rec["name"], rec["poly"], rec["branches"], rec["expected"]),
            a_k_germ(work, next(a_k)),
            next(bounds), next(bounds), next(bounds),
            decompose_op("bielliptic-rank2", (a, s - a)),
            a_k_germ(work, next(a_k)),
        ]
        for i in rng.sample(range(len(deck)), len(deck) // 2):
            deck[i].argv += ("--format", "json")
        yield deck


#: workload -> (deck stream factory, seconds a deck takes at the baseline
#: commit on a 2-core x86 host, which sizes every run)
WORKLOADS = {
    "tables": (lambda rng, work, root: tables(rng, work), 7.5),
    "lattice": (lattice, 4.3),
    "session": (session, 1.6),
}
