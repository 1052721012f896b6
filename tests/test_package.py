"""The package's public surface."""

import copy
import pickle
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

import pytest

import stabctab
from stabctab import codim, genfunc, germ, nslattice, perverse, poly, series, surd
from stabctab.errors import BadInput, InconsistentTower, NotInvertible, OrderMismatch, OutOfOrder

from draws import run_fresh
from test_cli import rows


def test_every_exported_name_resolves():
    missing = [name for name in stabctab.__all__ if not hasattr(stabctab, name)]
    assert missing == []
    assert len(set(stabctab.__all__)) == len(stabctab.__all__)


def test_dir_lists_every_exported_name():
    assert set(stabctab.__all__) <= set(dir(stabctab))


def test_record_classes_behave_as_pinned():
    # recorded when SurfaceTopology, PerverseTable and RelHilbBettiTower
    # were frozen dataclasses; the plain classes keep what callers observe
    from stabctab import PerverseTable, RelHilbBettiTower, SurfaceTopology

    s = SurfaceTopology(b1=0, b2=10, chi_o=1)
    assert repr(s) == "SurfaceTopology(b1=0, b2=10, chi_o=1)"
    assert repr(stabctab.BIELLIPTIC) == "SurfaceTopology(b1=2, b2=2, chi_o=0)"
    assert s == stabctab.ENRIQUES == SurfaceTopology(0, 10, 1)
    assert s != SurfaceTopology(0, 10, 0) and s != (0, 10, 1)
    assert hash(s) == hash(SurfaceTopology(0, 10, 1)) == hash((0, 10, 1))
    assert len({s, stabctab.ENRIQUES, stabctab.BIELLIPTIC}) == 2

    t = PerverseTable(order=2, entries={(0, 0): 1, (1, 1): 0, (0, 2): 1, (1, 0): 3})
    assert repr(t) == "PerverseTable(order=2, entries={(0, 0): 1, (0, 2): 1, (1, 0): 3})"
    assert repr(PerverseTable(3)) == "PerverseTable(order=3, entries={})"
    assert PerverseTable(3).entries is not PerverseTable(3).entries
    assert t == PerverseTable(2, {(0, 0): 1, (0, 2): 1, (1, 0): 3})
    assert t != PerverseTable(3, t.entries) and t != t.entries

    tower = RelHilbBettiTower(surface=s, order=1, values={(0, 0): 1})
    assert repr(tower) == ("RelHilbBettiTower(surface=SurfaceTopology(b1=0, b2=10, chi_o=1), "
                           "order=1, values={(0, 0): 1})")
    assert repr(RelHilbBettiTower(s, 0)) == (
        "RelHilbBettiTower(surface=SurfaceTopology(b1=0, b2=10, chi_o=1), order=0, values={})")
    assert tower == RelHilbBettiTower(SurfaceTopology(0, 10, 1), 1, {(0, 0): 1})
    assert tower != RelHilbBettiTower(stabctab.BIELLIPTIC, 1, {(0, 0): 1})
    assert stabctab.build_tower(s, 2) == stabctab.build_tower(s, 2)

    for record in (s, t, tower):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_lattice_record_classes_behave_as_pinned():
    # recorded when LatticeModel, BiellipticParams and QuadSurd were frozen
    # dataclasses; the plain classes keep what callers observe
    from stabctab.nslattice import BiellipticParams, LatticeModel, load_lattice
    from stabctab.surd import QuadSurd, sqrt_rational

    one = Fraction(1)
    fields = (2, ((0, 2), (2, 0)), (1, 1), ((one, one), (one, -one)), (2,))
    m = load_lattice("bielliptic-rank2")
    assert repr(m) == (
        "LatticeModel(rank=2, gram=((0, 2), (2, 0)), ample_witness=(1, 1), "
        "ortho_basis=((Fraction(1, 1), Fraction(1, 1)), (Fraction(1, 1), Fraction(-1, 1))), "
        "ample_tests=(2,))")
    assert m == LatticeModel(*fields) == LatticeModel(
        rank=2, gram=fields[1], ample_witness=(1, 1), ortho_basis=fields[3], ample_tests=(2,))
    assert m != LatticeModel(2, fields[1], (1, 2), fields[3], (2,)) and m != fields
    assert hash(m) == hash(LatticeModel(*fields)) == hash(fields)
    assert len({m, LatticeModel(*fields), load_lattice("enriques-u-e8")}) == 2

    p = BiellipticParams(1, 2, 1, Fraction(3, 2), 2)
    assert repr(p) == "BiellipticParams(a=1, b=2, lam=Fraction(1, 1), mu=Fraction(3, 2), gamma=2)"
    assert p == BiellipticParams(a=1, b=2, lam=one, mu=Fraction(3, 2), gamma=2)
    assert p != BiellipticParams(2, 1, 1, Fraction(3, 2), 2) and p != m
    assert hash(p) == hash((1, 2, one, Fraction(3, 2), 2))

    q = sqrt_rational(20)
    assert repr(q) == str(q) == "0+2*sqrt(5)"
    assert q == QuadSurd(Fraction(0), Fraction(2), 5) and q != QuadSurd(one, Fraction(2), 5)
    assert q != 0 and q != Fraction(1) and q.__eq__("x") is NotImplemented
    assert hash(q) == hash((Fraction(0), Fraction(2), 5))

    for record in (m, p, q):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_germ_record_classes_behave_as_pinned():
    # recorded when CurveGerm, BranchSet and CorpusRecord were frozen
    # dataclasses
    from stabctab.germ import BranchSet, CorpusRecord, CurveGerm, load_corpus

    g = CurveGerm.from_string("y^2 - x^3")
    assert repr(g) == "CurveGerm(poly=Poly(2, {(0, 2): Fraction(1, 1), (3, 0): Fraction(-1, 1)}))"
    assert g == CurveGerm(poly=g.poly) and g != CurveGerm.from_string("y^2 - x^5")
    assert hash(g) == hash((g.poly,))
    b = BranchSet.from_strings([("t^2", "t^3")])
    assert repr(b) == ("BranchSet(branches=((Poly(1, {(2,): Fraction(1, 1)}), "
                       "Poly(1, {(3,): Fraction(1, 1)})),), declared_truncation=None)")
    assert b == BranchSet(b.branches) == BranchSet(branches=b.branches, declared_truncation=None)
    assert b != BranchSet(b.branches, 5) and hash(b) == hash((b.branches, None))
    c = load_corpus()[0]
    assert repr(c) == (
        "CorpusRecord(name='A1', germ=CurveGerm(poly=Poly(2, {(1, 1): Fraction(1, 1)})), "
        "branches=BranchSet(branches=((Poly(1, {(1,): Fraction(1, 1)}), Poly(1, {})), "
        "(Poly(1, {}), Poly(1, {(1,): Fraction(1, 1)}))), declared_truncation=None), "
        "expected={'mu': 1, 'tau': 1, 'delta': 1, 'r': 2})")
    assert c == CorpusRecord(name="A1", germ=c.germ, branches=c.branches, expected=c.expected)
    for record in (g, b, c):
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_ring_record_classes_behave_as_pinned():
    # Poly and TruncatedBiSeries are Records: immutable, picklable and
    # copyable, hashed by their terms
    from stabctab.poly import Poly
    from stabctab.series import TruncatedBiSeries

    p = Poly(2, {(0, 2): 1, (3, 0): -1, (1, 1): 0})
    assert repr(p) == "Poly(2, {(0, 2): Fraction(1, 1), (3, 0): Fraction(-1, 1)})"
    h = stabctab.stable_perverse_series(stabctab.ENRIQUES, 2)
    assert repr(h) == ("TruncatedBiSeries(2, {(0, 0): Fraction(1, 1), (0, 2): Fraction(1, 1), "
                       "(1, 1): Fraction(9, 1), (2, 0): Fraction(1, 1)})")
    twin = TruncatedBiSeries(2, {(0, 0): 1, (0, 2): 1, (1, 1): 9, (2, 0): 1, (3, 0): 7})
    assert twin == h and hash(twin) == hash(h)
    assert h != TruncatedBiSeries(3, h.terms) and h != Poly(2, h.terms) != h

    for value in (p, h):
        for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert other == value and hash(other) == hash(value)


#: Numbers that are not exact where an int or a rational is asked: a
#: float, a float equal to an integer, a bool and a str.
NOT_EXACT = (2.5, 2.0, True, "2")

#: The preset bielliptic-rank2 lattice, and its fields but its rank.
LATTICE = nslattice.load_lattice("bielliptic-rank2")
GRAM, WITNESS, BASIS, TESTS = ((0, 2), (2, 0)), (1, 1), ((1, 1), (1, -1)), (2,)

#: Messages that more than one row pins.
B1 = "b1 must be a nonnegative even integer, got {v}"
B2 = "b2 must be a positive integer, got {v}"
TABLE = "the order and the keys of entries must be integers"
TOWER = "the order, the keys and the values of a tower must be integers"
HILB = "n and k must be integers"
#: the kernel's message: each table's factor list checks its order with it
#: before range() reads the order
SIZES = "order and top must be integers"
ORDER = "order must be nonnegative"
D = "d must be a positive integer"
BETA_SQ = "beta^2 must be a positive even integer for an ample class"
IJ = "i and j must be integers"
AB = "a and b must be positive integers"
SCALES = "lambda and mu must be rational, got {t}"
CHI = "s and t must be rational and gamma an integer"
LATTICE_TYPES = "rank, gram, ample_witness, ample_tests: ints; ortho_basis: rationals"
CAP = "lattice rank {v} is above the cap of 32"
BETA = "beta coordinate {r} is not an integer"
CUTOFF = "cutoff must be an integer"
FLOAT = "coefficient must be rational, got {t}"
EXPONENTS = "exponent keys must be 2 nonnegative integers, got {v}"
#: Python's own message for an operand that neither side takes.
OPERAND = "unsupported operand type(s) for {op}: '{left}' and '{{t}}'"

#: Keys of a table or a tower that are not a pair: Python would unpack the
#: first, and the two others, with its own messages.
KEY_SHAPES = (5, (1,), (1, 2, 3))

#: The Enriques surface, bielliptic parameters, the cusp with its branch,
#: as delta takes them, the polynomials t and x in (x, y), the series 1 of
#: a given order, the values of the Enriques tower of order 4, the Enriques
#: table of order 2, written out so that no fault of the tables stops the
#: collection of this module, and the surd sqrt(2).
E, P = genfunc.ENRIQUES, codim.BiellipticParams(1, 1, 1, 1, 2)
CUSP = (germ.CurveGerm.from_string("y^2 - x^3"), germ.BranchSet.from_strings([("t^2", "t^3")]))
T, X, ONE = poly.Poly(1, {(1,): 1}), poly.Poly(2, {(1, 0): 1}), series.TruncatedBiSeries.one
TOWER4 = perverse.build_tower(E, 4).values
TABLE2 = genfunc.PerverseTable(2, {(0, 0): 1, (0, 2): 1, (1, 1): 9, (2, 0): 1})
ROOT2 = surd.sqrt_rational(2)

#: A series and a corpus record, the records whose classes define no
#: __hash__, and (record, field) pairs that cover every Record class.
SERIES, CORPUS = ONE(2), germ.CorpusRecord(name="A1", germ=CUSP[0], branches=CUSP[1], expected={})
UNHASHABLE = (genfunc.PerverseTable(2), perverse.RelHilbBettiTower(E, 1), CORPUS)
FIELDS = ((E, "b1"), (UNHASHABLE[0], "order"), (UNHASHABLE[1], "values"), (LATTICE, "rank"),
          (P, "lam"), (surd.sqrt_rational(20), "rat"), (CUSP[0], "poly"),
          (CUSP[1], "declared_truncation"), (CORPUS, "name"), (T, "nvars"), (T, "terms"),
          (SERIES, "nvars"), (SERIES, "order"), (SERIES, "terms"))


class Refusal(NamedTuple):
    """A pinned refusal: its id, a public entry called with a value v, the
    exact class it raises, its whole message, formatted with v, its repr r
    and its type's name t, and the values v.  A row with the default values
    holds the one rule of _record: an int is an int, not a bool or a float
    equal to one, and a rational is that or a Fraction; so no entry returns
    a float, or builds a value that holds a bool."""

    id: str
    call: Callable
    error: type
    message: str
    values: tuple = NOT_EXACT


#: Every refusal of the library's public entries, by entry.
REFUSALS = [Refusal(*row) for row in [
    ("SurfaceTopology-b1", lambda v: genfunc.SurfaceTopology(v, 2, 0), BadInput, B1),
    ("SurfaceTopology-b1-range", lambda v: genfunc.SurfaceTopology(v, 2, 0), BadInput, B1,
     (1, -2)),
    ("SurfaceTopology-b2", lambda v: genfunc.SurfaceTopology(0, v, 0), BadInput, B2),
    ("SurfaceTopology-b2-range", lambda v: genfunc.SurfaceTopology(0, v, 0), BadInput, B2, (0,)),
    ("SurfaceTopology-chi_o", lambda v: genfunc.SurfaceTopology(0, 2, v), TypeError,
     "chi_o must be an integer, got {t}"),
    ("PerverseTable-order", genfunc.PerverseTable, TypeError, TABLE),
    ("PerverseTable-order-negative", genfunc.PerverseTable, ValueError, ORDER, (-1, -2)),
    ("PerverseTable-keys", lambda v: genfunc.PerverseTable(2, {(1, v): 1}), TypeError, TABLE),
    ("PerverseTable-key-shape", lambda v: genfunc.PerverseTable(2, {v: 1}), TypeError, TABLE,
     KEY_SHAPES),
    ("PerverseTable-key-range", lambda v: genfunc.PerverseTable(2, {v: 1}), ValueError,
     "entry {v} outside the table range", ((-1, 0), (0, 3), (2, 1))),
    ("PerverseTable-entries", lambda v: genfunc.PerverseTable(2, {(1, 1): v}), ValueError,
     "entry (1, 1) = {r} is not a nonnegative integer"),
    ("PerverseTable-entry-range", lambda v: genfunc.PerverseTable(2, {(1, 1): v}), ValueError,
     "entry (1, 1) = {r} is not a nonnegative integer", (-1, 1.0)),
    ("PerverseTable-base-row", lambda v: genfunc.PerverseTable(2, {(0, 1): v}), ValueError,
     "base-row entry (0, 1) = {v} exceeds 1", (2,)),
    # an index is an int, though an int off the table reads 0
    ("PerverseTable-entry", lambda v: TABLE2.entry(v, 1), TypeError, IJ),
    ("goettsche_series-order", lambda v: genfunc.goettsche_series(E, v), TypeError, SIZES),
    ("hilb_betti-n", lambda v: genfunc.hilb_betti(E, v, 2), TypeError, HILB),
    ("hilb_betti-k", lambda v: genfunc.hilb_betti(E, 2, v), TypeError, HILB),
    ("hilb_betti-k-negative", lambda v: genfunc.hilb_betti(E, 1, v), ValueError,
     "n and k must be nonnegative", (-1,)),
    ("stable_betti-k", lambda v: genfunc.stable_betti(E, v), TypeError, SIZES),
    ("stable_betti_numbers-max_k", lambda v: genfunc.stable_betti_numbers(E, v), TypeError, SIZES),
    ("stable_betti_numbers-max_k-negative", lambda v: genfunc.stable_betti_numbers(E, v),
     BadInput, "truncation order must be nonnegative", (-1,)),
    ("stable_perverse_series-order", lambda v: genfunc.stable_perverse_series(E, v),
     TypeError, SIZES),
    ("stable_perverse_table-order", lambda v: genfunc.stable_perverse_table(E, v),
     TypeError, SIZES),
    ("check_remark_identity-order", lambda v: genfunc.check_remark_identity(E, v),
     TypeError, SIZES),
    ("build_tower-order", lambda v: perverse.build_tower(E, v), TypeError, SIZES),
    ("RelHilbBettiTower-order", lambda v: perverse.RelHilbBettiTower(E, v), TypeError, TOWER),
    ("RelHilbBettiTower-order-negative", lambda v: perverse.RelHilbBettiTower(E, v), ValueError,
     ORDER, (-1, -3)),
    ("RelHilbBettiTower-keys", lambda v: perverse.RelHilbBettiTower(E, 2, {(1, v): 1}),
     TypeError, TOWER),
    ("RelHilbBettiTower-key-shape", lambda v: perverse.RelHilbBettiTower(E, 2, {v: 1}),
     TypeError, TOWER, KEY_SHAPES),
    ("RelHilbBettiTower-key-range", lambda v: perverse.RelHilbBettiTower(E, 1, {v: 7}),
     ValueError, "key {v} outside the tower range", ((5, 5), (2, 0), (0, -1))),
    ("RelHilbBettiTower-values", lambda v: perverse.RelHilbBettiTower(E, 2, {(1, 1): v}),
     TypeError, TOWER),
    ("RelHilbBettiTower-value", lambda v: perverse.RelHilbBettiTower(E, 4, TOWER4).value(v, 0),
     TypeError, "ell and m must be integers"),
    # a tower that no surface gives is solve_perverse's to report
    ("solve_perverse-base-row", lambda v: perverse.solve_perverse(
        perverse.RelHilbBettiTower(E, 4, {**TOWER4, (0, 2): v})), InconsistentTower,
     "base row value {v} at degree 2 is not 0 or 1", (5, -1)),
    ("solve_perverse-negative-entry", lambda v: perverse.solve_perverse(
        perverse.RelHilbBettiTower(E, 4, {**TOWER4, (1, 2): v})), InconsistentTower,
     "entry (1, 1) came out negative (-2)", (0,)),
    ("enriques_dim_ls-dsq", codim.enriques_dim_ls, TypeError, "dsq must be an integer, got {t}"),
    ("enriques_dim_ls-dsq-range", codim.enriques_dim_ls, BadInput,
     "the linear-system dimension needs a positive self-intersection", (0, -2)),
    ("enriques_dim_ls-dsq-odd", codim.enriques_dim_ls, BadInput,
     "odd self-intersection {v} is impossible in an even lattice", (7,)),
    ("enriques_codim_terms-beta_sq", lambda v: codim.enriques_codim_terms(v, 2, False), BadInput,
     BETA_SQ),
    ("enriques_codim_terms-d", lambda v: codim.enriques_codim_terms(10, v, False), BadInput, D),
    ("enriques_codim_bound-d", lambda v: codim.enriques_codim_bound(10, v), BadInput, D),
    ("enriques_d0-beta_sq", lambda v: codim.enriques_d0(v, 2, 3), BadInput, BETA_SQ),
    ("enriques_d0-i", lambda v: codim.enriques_d0(10, v, 3), TypeError, IJ),
    ("enriques_d0-j", lambda v: codim.enriques_d0(10, 2, v), TypeError, IJ),
    ("n_lower_bound-codim_bound", codim.n_lower_bound, TypeError,
     "codim_bound must be an int, a Fraction or a QuadSurd"),
    ("BiellipticParams-a", lambda v: codim.BiellipticParams(v, 1, 1, 1, 2), BadInput, AB),
    ("BiellipticParams-a-range", lambda v: codim.BiellipticParams(v, 1, 1, 1, 2), BadInput, AB,
     (0,)),
    ("BiellipticParams-b", lambda v: codim.BiellipticParams(1, v, 1, 1, 2), BadInput, AB),
    ("BiellipticParams-lam", lambda v: codim.BiellipticParams(1, 1, v, 1, 2), TypeError, SCALES),
    ("BiellipticParams-mu", lambda v: codim.BiellipticParams(1, 1, 1, v, 2), TypeError, SCALES),
    ("BiellipticParams-chi", lambda v: codim.BiellipticParams(1, 1, v, 1, 3), BadInput,
     "chi = 3/2 must be an integer", (Fraction(1, 2),)),
    ("BiellipticParams-gamma", lambda v: codim.BiellipticParams(1, 1, 1, 1, v), BadInput,
     "gamma must be a positive integer"),
    ("bielliptic_chi-s", lambda v: codim.bielliptic_chi(v, 1, 2), TypeError, CHI),
    ("bielliptic_chi-t", lambda v: codim.bielliptic_chi(1, v, 2), TypeError, CHI),
    ("bielliptic_chi-gamma", lambda v: codim.bielliptic_chi(1, 1, v), TypeError, CHI),
    ("bielliptic_dim_ls-d", lambda v: codim.bielliptic_dim_ls(P, v), BadInput, D),
    ("bielliptic_codim_terms-d", lambda v: codim.bielliptic_codim_terms(P, v), BadInput, D),
    ("bielliptic_codim_bound-d", lambda v: codim.bielliptic_codim_bound(P, v), BadInput, D),
    ("QuadSurd-radicand", lambda v: surd.QuadSurd(1, 1, v), ValueError,
     "radicand must be >= 2 (use Fraction otherwise)", (1,)),
    ("QuadSurd-squarefree", lambda v: surd.QuadSurd(1, 1, v), ValueError,
     "radicand must be squarefree", (8,)),
    ("QuadSurd-coefficient", lambda v: surd.QuadSurd(1, v, 5), ValueError,
     "coefficient zero: use a plain Fraction", (0,)),
    # a surd's scalars are is_rational ones: a bool is not 1; a str, which
    # multiplies by repetition, is left out of the product
    ("QuadSurd-add", lambda v: ROOT2 + v, TypeError, OPERAND.format(op="+", left="QuadSurd")),
    ("QuadSurd-sub", lambda v: ROOT2 - v, TypeError, OPERAND.format(op="-", left="QuadSurd")),
    ("QuadSurd-mul", lambda v: ROOT2 * v, TypeError, OPERAND.format(op="*", left="QuadSurd"),
     (2.5, 2.0, True)),
    ("QuadSurd-lt", lambda v: ROOT2 < v, TypeError, "cannot compare 0+1*sqrt(2) with {r}"),
    # min compares v < ROOT2, which Python reflects to ROOT2 > v
    ("QuadSurd-min", lambda v: min(ROOT2, v), TypeError, "cannot compare 0+1*sqrt(2) with {r}"),
    ("LatticeModel-rank", lambda v: nslattice.LatticeModel(v, GRAM, WITNESS, BASIS, TESTS),
     TypeError, "rank must be an integer"),
    # the rank is capped before the gram is read
    ("LatticeModel-rank-cap", lambda v: nslattice.LatticeModel(v, (), (), (), ()), BadInput, CAP,
     (33,)),
    ("LatticeModel-gram",
     lambda v: nslattice.LatticeModel(2, ((v, 2), (2, 0)), WITNESS, BASIS, TESTS),
     TypeError, LATTICE_TYPES),
    ("LatticeModel-signature",
     lambda v: nslattice.LatticeModel(2, v, (1, 0), ((1, 0), (0, 1)), (1,)), BadInput,
     "orthogonal basis must have exactly one positive square, first",
     (((2, 0), (0, 2)), ((1, 1), (1, 1)))),
    ("LatticeModel-ample_witness",
     lambda v: nslattice.LatticeModel(2, GRAM, (1, v), BASIS, TESTS), TypeError, LATTICE_TYPES),
    ("LatticeModel-ortho_basis",
     lambda v: nslattice.LatticeModel(2, GRAM, WITNESS, ((v, 1), (1, -1)), TESTS),
     TypeError, LATTICE_TYPES),
    ("LatticeModel-ample_tests",
     lambda v: nslattice.LatticeModel(2, GRAM, WITNESS, BASIS, (v,)), TypeError, LATTICE_TYPES),
    ("LatticeModel-ip", lambda v: LATTICE.ip((1, v), (1, 1)), TypeError,
     "coordinates of u and v must be rational"),
    # a vector of the wrong length, on either side, would pair its prefix
    ("LatticeModel-ip-length", lambda v: LATTICE.ip(*v), ValueError,
     "vector has 1 coordinates, lattice has rank 2", (((1,), (1, 1)), ((1, 1), (1,)))),
    ("parse_lattice-rank-cap", lambda v: nslattice.parse_lattice(f"rank {v}\n"), BadInput, CAP,
     (33,)),
    ("parse_lattice-keyword", lambda v: nslattice.parse_lattice(f"rank 2\n{v} 1 2\n"), BadInput,
     "unknown lattice file keyword {r}", ("whatever",)),
    ("parse_lattice-missing-field", lambda v: nslattice.parse_lattice(f"rank 2\n{v}\n"),
     BadInput, "lattice file is missing a required field", ("gram\n0 2\n2 0",)),
    ("decompose-beta", lambda v: nslattice.decompose(LATTICE, (v, 2)), BadInput, BETA),
    ("decompose-beta-fraction", lambda v: nslattice.decompose(LATTICE, (v, 2)), BadInput, BETA,
     (Fraction(5, 2),)),
    # every coordinate is checked, not the first alone
    ("decompose-beta-second", lambda v: nslattice.decompose(LATTICE, (2, v)), BadInput, BETA),
    ("decompose-beta-length", lambda v: nslattice.decompose(LATTICE, (2,) * v), BadInput,
     "beta has {v} coordinates, lattice has rank 2", (3, 1)),
    ("decompose-not-effective", lambda v: nslattice.decompose(LATTICE, v), BadInput,
     "class pairs non-positively with the ample witness", ((-1, -1), (1, -1), (0, 0))),
    ("CurveGerm-off-origin", germ.CurveGerm.from_string, BadInput,
     "germ must vanish at the origin", ("1 + x",)),
    ("CurveGerm-zero", germ.CurveGerm.from_string, BadInput,
     "zero polynomial does not define a curve germ", ("x - x",)),
    ("BranchSet-empty", germ.BranchSet, BadInput, "a germ has at least one branch", ((),)),
    ("BranchSet-off-origin", lambda v: germ.BranchSet.from_strings([v]), BadInput,
     "branch must pass through the origin", (("t", "1 + t"),)),
    ("BranchSet-zero", lambda v: germ.BranchSet.from_strings([v]), BadInput,
     "branch must not be identically zero", (("0", "0"),)),
    ("BranchSet-duplicate", lambda v: germ.BranchSet.from_strings([v, v]), BadInput,
     "duplicate branch parametrization", (("t", "0"),)),
    ("BranchSet-declared_truncation", lambda v: germ.BranchSet.from_strings([("t^2", "t^3")], v),
     TypeError, "declared_truncation must be an integer or None"),
    ("parse_branch_file-line", lambda v: germ.parse_branch_file(f"t^2 ; t^3\n{v}\n"), BadInput,
     "branch line {r} is not 'x(t) ; y(t)'", ("t, t^2", "truncation: 12", "TRUNCATION: 12")),
    ("delta-mu", lambda v: germ.delta(*CUSP, mu=v), TypeError, "mu must be an integer or None"),
    ("delta-mu-negative", lambda v: germ.delta(*CUSP, mu=v), ValueError,
     "mu must be nonnegative", (-1, -5)),
    ("delta-branch-off-germ", lambda v: germ.delta(
        germ.CurveGerm.from_string("x*y"), germ.BranchSet.from_strings([v])), BadInput,
     "branch 0 does not lie on the germ (residual order 2)", (("t", "t"),)),
    # the bound is 2 * mu + 2 = 6, at mu = 2
    ("delta-truncation-below-conductor", lambda v: germ.delta(
        CUSP[0], germ.BranchSet.from_strings([("t^2", "t^3 + t^12")], v)), BadInput,
     "declared truncation {v} is below the conductor bound 6", (4, 5)),
    ("Poly-exponent", lambda v: poly.Poly(1, {(v,): 1}), ValueError,
     "exponent keys must be 1 nonnegative integers, got ({r},)"),
    ("Poly-exponent-keys", lambda v: poly.Poly(2, {v: 0}), ValueError, EXPONENTS,
     ((1,), (0, -1))),
    ("Poly-coefficient", lambda v: poly.Poly(1, {(1,): v}), TypeError, FLOAT),
    ("Poly-scale", T.scale, TypeError, FLOAT),
    ("Poly-mul-cutoff", lambda v: T.mul(T, v), TypeError, CUTOFF),
    ("Poly-powers-n", lambda v: T.powers(v, 4), TypeError, "n must be an integer"),
    ("Poly-powers-n-negative", lambda v: T.powers(v, 4), ValueError, "n must be nonnegative",
     (-1, -4)),
    ("Poly-substitute-cutoff", lambda v: CUSP[0].poly.substitute(CUSP[1].branches[0], v),
     TypeError, CUTOFF),
    ("Poly-substitute_work-cutoff",
     lambda v: CUSP[0].poly.substitute_work(CUSP[1].branches[0], v), TypeError, CUTOFF),
    ("Poly-substitute-images", lambda v: CUSP[0].poly.substitute(v, 6), ValueError,
     "need 2 images, got 1", ((T,),)),
    ("Poly-derivative", X.derivative, TypeError, "i must be an integer"),
    ("Poly-derivative-range", X.derivative, ValueError, "i must lie in range(2), got {v}",
     (2, -1)),
    # a sum, difference or product takes a value of its own ring alone: the
    # same class, as == asks, in the same number of variables
    ("Poly-add", lambda v: X + v, TypeError, OPERAND.format(op="+", left="Poly"),
     (ONE(2), T, 1, 2.5)),
    ("Poly-sub", lambda v: X - v, TypeError, OPERAND.format(op="-", left="Poly"),
     (ONE(2), T, 1, 2.5)),
    ("Poly-mul", lambda v: T.mul(v, 3), TypeError, "mul needs a Poly in 1 variables",
     (X, ONE(2), 1)),
    ("TruncatedBiSeries-order", series.TruncatedBiSeries, TypeError, "order must be an integer"),
    ("TruncatedBiSeries-order-negative", series.TruncatedBiSeries, ValueError,
     "truncation order must be nonnegative", (-1,)),
    ("TruncatedBiSeries-coefficient", lambda v: series.TruncatedBiSeries(2, {(1, 0): v}),
     TypeError, FLOAT),
    ("TruncatedBiSeries-coefficient-beyond-order",
     lambda v: series.TruncatedBiSeries(1, {(2, 0): v}), TypeError, FLOAT, (0.5,)),
    # no t-exponent may be negative, also in a key beyond the order
    ("TruncatedBiSeries-exponent-keys", lambda v: series.TruncatedBiSeries(1, {v: 1}),
     ValueError, EXPONENTS, ((1, -1), (1, -2), (0, -1), (-1, 2), (3, -1))),
    ("TruncatedBiSeries-add-order-mismatch", lambda v: ONE(3) + ONE(v), OrderMismatch,
     "orders differ: 3 != {v}", (4,)),
    ("TruncatedBiSeries-add", lambda v: SERIES + v, TypeError,
     OPERAND.format(op="+", left="TruncatedBiSeries"), (X, 1, 2.5)),
    ("TruncatedBiSeries-mul-ring", lambda v: SERIES.mul(v, 3), TypeError,
     "mul needs a TruncatedBiSeries in 2 variables", (X,)),
    # a product with a series is a product of series or a scaling, on either side
    ("TruncatedBiSeries-mul", lambda v: SERIES * v, TypeError, FLOAT),
    ("TruncatedBiSeries-rmul", lambda v: v * SERIES, TypeError, FLOAT),
    ("TruncatedBiSeries-inverse", lambda v: series.TruncatedBiSeries(4, {v: 1}).inverse(),
     NotInvertible, "series has zero constant term", ((1, 0),)),
    ("TruncatedBiSeries-coeff-beyond-order", lambda v: ONE(4).coeff(*v), OutOfOrder,
     "coefficient of q^3 t^2 lies beyond order 4", ((3, 2),)),
    ("TruncatedBiSeries-coeff", lambda v: SERIES.coeff(v, 0), TypeError,
     "a and b must be integers"),
    # a record is immutable, and unhashable unless its class defines __hash__
    ("Record-setattr", lambda v: setattr(*v, 0), AttributeError,
     "cannot assign to field {v[1]!r}", FIELDS),
    ("Record-delattr", lambda v: delattr(*v), AttributeError, "cannot delete field {v[1]!r}",
     FIELDS),
    ("Record-hash", hash, TypeError, "unhashable type: '{t}'", UNHASHABLE),
]]

#: The rows of REFUSALS by id.
BY_ID = {row.id: row for row in REFUSALS}


def check_refusal(row):
    """Call row.call(v) for each of row's values, and compare the class of
    what it raises by identity, so that a BadInput is not a ValueError, and
    the whole message."""
    for v in row.values:
        try:
            result = row.call(v)
        except Exception as exc:
            message = row.message.format(v=v, r=repr(v), t=type(v).__name__)
            assert (type(exc), str(exc)) == (row.error, message), (row.id, v)
        else:
            pytest.fail(f"{row.id} returned {result!r} for {v!r}")


def refused(*ids):
    """A test that checks the rows with these ids in one node: it keeps the
    node id of a test whose checks became those rows."""
    def test():
        for i in ids:
            check_refusal(BY_ID[i])
    return test


def test_refusal_ids_are_unique():
    assert len(BY_ID) == len(REFUSALS)


# named for its first rows, the numbers that are not exact, whose node ids it keeps
@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_every_entry_refuses_a_number_that_is_not_exact(row):
    check_refusal(row)


#: Runs the command line as ``python -m stabctab`` does and prints
#: {report} to stderr at exit.
PROBE_AT_EXIT = """
import atexit, gc, runpy, sys
atexit.register(lambda: print({report}, file=sys.stderr))
sys.argv[0] = "stabctab"
runpy.run_module("stabctab", run_name="__main__", alter_sys=True)
"""

#: Prints, at exit, every module the run loaded.
PROBE = PROBE_AT_EXIT.format(report="*sorted(sys.modules)")

#: Prints every module loaded so far.
PRINT_MODULES = "print(*sorted(sys.modules), file=sys.stderr)"

#: the command line reads its integer flags with the readers of _record
CLI = {"stabctab", "stabctab.cli", "stabctab.errors", "stabctab._record"}
TABLES = CLI | {"stabctab.genfunc"}


@pytest.mark.parametrize("argv, code, loaded", [
    (("-c", f"import sys, stabctab; {PRINT_MODULES}"), 0, {"stabctab"}),
    (("-c", f"import sys; from stabctab.germ import load_corpus; load_corpus(); {PRINT_MODULES}"),
     0, {"stabctab", "stabctab.errors", "stabctab._record", "stabctab.germ", "stabctab.poly"}),
    (("stable-betti", "--b1", "0", "--b2", "10", "--max-k", "4"), 0, TABLES),
    (("identity", "--b1", "0", "--b2", "10", "--order", "4"), 0, TABLES),
    (("perverse", "--b1", "0", "--b2", "10", "--max-order", "4", "--oracle"), 0,
     TABLES | {"stabctab.perverse"}),
    (("perverse", "--b1", "0", "--b2", "10", "--max-order", "4"), 0, TABLES),
    (("perverse", "--b1", "0", "--b2", "10", "--max-order", "65", "--oracle"), 2,
     CLI),
    (("germ", "--poly", "y^2 - x^3", "--branches", "cusp.br"), 0,
     CLI | {"stabctab.germ", "stabctab.poly"}),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--d", "10"), 0,
     CLI | {"stabctab.codim", "stabctab.surd"}),
    (("bounds", "--surface", "enriques", "--beta-sq", "10", "--i", "2", "--j", "3"), 0,
     CLI | {"stabctab.codim"}),
    (("decompose", "--lattice", "bielliptic-rank2", "--beta", "2,2"), 0,
     CLI | {"stabctab.nslattice"}),
    (("--help",), 0, CLI),
], ids=["import", "load-corpus", "stable-betti", "identity", "perverse",
        "perverse-without-oracle", "perverse-above-cap", "germ", "bounds", "bounds-d0", "decompose", "help"])
def test_each_subcommand_imports_only_its_layer(tmp_path, monkeypatch, argv, code, loaded):
    # a fresh interpreter per case, without site hooks, which may import
    # modules of their own
    monkeypatch.chdir(tmp_path)
    cmd = argv if argv[0] == "-c" else ("-c", PROBE, *argv)
    proc = run_fresh(*cmd, options=("-S",), timeout=60, files={"cusp.br": "t^2 ; t^3\n"})
    assert proc.returncode == code, proc.stderr
    modules = set(proc.stderr.splitlines()[-1].split())
    assert {m for m in modules if m.split(".")[0] == "stabctab"} == loaded
    # annotations are evaluated as written, so no module needs __future__
    assert not modules & {"dataclasses", "inspect", "argparse", "gettext", "locale",
                          "__future__"}
    if argv[0] in ("stable-betti", "identity", "perverse"):
        assert "fractions" not in modules
    if "--i" in argv:
        # d0 is pure int, and its record holds no list for JSON to render
        assert not modules & {"fractions", "json"}
    if argv[0] in ("stable-betti", "identity", "perverse") or "--i" in argv:
        # an integer is read without re
        assert "re" not in modules
    if argv[0] == "germ":
        # only load_corpus, which no subcommand calls, reads JSON
        assert "json" not in modules
    if argv[0] in ("germ", "decompose") or "load_corpus" in argv[-1]:
        # the package's data files are read as plain files
        assert not modules & {"importlib.resources", "pathlib", "zipfile"}


@pytest.mark.parametrize("call", rows("stable-betti-enriques", "identity-perturbed",
                                      "rejected:beta-wrong-length"),
                         ids=["success", "verification-failure", "bad-input"])
def test_entry_point_freezes_the_collector_before_atexit(call):
    # the exit-time collections skip what is frozen, and atexit still runs
    probe = PROBE_AT_EXIT.format(report="'frozen', gc.get_freeze_count() > 0")
    proc = run_fresh("-c", probe, *call.argv, options=("-S",), timeout=60)
    assert proc.returncode == call.code, proc.stderr
    assert proc.stderr.splitlines()[-1] == "frozen True"


def test_rejected_input_has_one_class():
    # every layer raises BadInput itself; its message says what was rejected
    from stabctab import cli  # noqa: F401 (the one layer not imported above)

    assert BadInput.__subclasses__() == []


def test_no_module_reads_the_environment():
    # a call depends only on its argv and the files it names:
    # STABCTAB_MAX_ORDER, which once set the default orders, is gone, and no
    # module reads os.environ or os.getenv in its place
    import ast
    from pathlib import Path

    for path in sorted(Path(stabctab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {getattr(node, "attr", None) or getattr(node, "id", None)
                 for node in ast.walk(tree)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name


def test_every_source_parses_as_python_3_10():
    # pyproject asks for Python 3.10 or later, and the suite may run on a
    # later one only: no module, test or bench script (tier-1 imports
    # bench/sweep.py) may use newer grammar, such as except*
    import ast
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    bench = list(tests.parent.joinpath("bench").glob("*.py"))
    paths = [*Path(stabctab.__file__).parent.rglob("*.py"), *tests.rglob("*.py"), *bench]
    assert len(paths) > 20 and bench
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
