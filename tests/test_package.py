"""The package's public surface."""

import pytest

import stabctab
from stabctab import codim, genfunc, germ, nslattice, perverse, poly, series
from stabctab.errors import BadInput

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
    import copy
    import pickle

    from stabctab import PerverseTable, RelHilbBettiTower, SurfaceTopology
    from stabctab.errors import BadInput

    s = SurfaceTopology(b1=0, b2=10, chi_o=1)
    assert repr(s) == "SurfaceTopology(b1=0, b2=10, chi_o=1)"
    assert repr(stabctab.BIELLIPTIC) == "SurfaceTopology(b1=2, b2=2, chi_o=0)"
    assert s == stabctab.ENRIQUES == SurfaceTopology(0, 10, 1)
    assert s != SurfaceTopology(0, 10, 0) and s != (0, 10, 1)
    assert hash(s) == hash(SurfaceTopology(0, 10, 1)) == hash((0, 10, 1))
    assert len({s, stabctab.ENRIQUES, stabctab.BIELLIPTIC}) == 2
    # a float or a bool is no Betti number (more in EXACT_ENTRIES below)
    for args, message in (((1, 10, 0), "b1 must be a nonnegative even integer, got 1"),
                          ((-2, 10, 0), "b1 must be a nonnegative even integer, got -2"),
                          ((0, 0, 0), "b2 must be a positive integer, got 0"),
                          ((0, 10.0, 1), "b2 must be a positive integer, got 10.0")):
        with pytest.raises(BadInput) as exc:
            SurfaceTopology(*args)
        assert str(exc.value) == message

    t = PerverseTable(order=2, entries={(0, 0): 1, (1, 1): 0, (0, 2): 1, (1, 0): 3})
    assert repr(t) == "PerverseTable(order=2, entries={(0, 0): 1, (0, 2): 1, (1, 0): 3})"
    assert repr(PerverseTable(3)) == "PerverseTable(order=3, entries={})"
    assert PerverseTable(3).entries is not PerverseTable(3).entries
    assert t == PerverseTable(2, {(0, 0): 1, (0, 2): 1, (1, 0): 3})
    assert t != PerverseTable(3, t.entries) and t != t.entries
    for entries, message in (({(-1, 0): 1}, "entry (-1, 0) outside the table range"),
                             ({(0, 3): 1}, "entry (0, 3) outside the table range"),
                             ({(1, 1): -1}, "entry (1, 1) = -1 is not a nonnegative integer"),
                             ({(1, 1): 1.0}, "entry (1, 1) = 1.0 is not a nonnegative integer"),
                             ({(0, 1): 2}, "base-row entry (0, 1) = 2 exceeds 1")):
        with pytest.raises(ValueError) as exc:
            PerverseTable(2, entries)
        assert str(exc.value) == message

    tower = RelHilbBettiTower(surface=s, order=1, values={(0, 0): 1})
    assert repr(tower) == ("RelHilbBettiTower(surface=SurfaceTopology(b1=0, b2=10, chi_o=1), "
                           "order=1, values={(0, 0): 1})")
    assert repr(RelHilbBettiTower(s, 0)) == (
        "RelHilbBettiTower(surface=SurfaceTopology(b1=0, b2=10, chi_o=1), order=0, values={})")
    assert tower == RelHilbBettiTower(SurfaceTopology(0, 10, 1), 1, {(0, 0): 1})
    assert tower != RelHilbBettiTower(stabctab.BIELLIPTIC, 1, {(0, 0): 1})
    assert stabctab.build_tower(s, 2) == stabctab.build_tower(s, 2)

    for record, field in ((s, "b1"), (t, "order"), (tower, "values")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
    for record in (t, tower):
        with pytest.raises(TypeError):
            hash(record)


def test_lattice_record_classes_behave_as_pinned():
    # recorded when LatticeModel, BiellipticParams and QuadSurd were frozen
    # dataclasses; the plain classes keep what callers observe
    import copy
    import pickle
    from fractions import Fraction

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
    for args, message in (((one, one, 1), "radicand must be >= 2 (use Fraction otherwise)"),
                          ((one, one, 8), "radicand must be squarefree"),
                          ((one, Fraction(0), 5), "coefficient zero: use a plain Fraction")):
        with pytest.raises(ValueError) as exc:
            QuadSurd(*args)
        assert str(exc.value) == message

    for record, field in ((m, "rank"), (p, "lam"), (q, "rat")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_germ_record_classes_behave_as_pinned():
    # recorded when CurveGerm, BranchSet and CorpusRecord were frozen
    # dataclasses
    import copy
    import pickle

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
    with pytest.raises(TypeError):
        hash(c)
    for record, field in ((g, "poly"), (b, "declared_truncation"), (c, "name")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)


def test_ring_record_classes_behave_as_pinned():
    # Poly and TruncatedBiSeries are Records: immutable, picklable and
    # copyable, hashed by their terms, with floats refused
    import copy
    import pickle

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

    for value, fields in ((p, ("nvars", "terms")), (h, ("nvars", "order", "terms"))):
        for field in fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(value, field, {})
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(value, field)
        for other in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert other == value and hash(other) == hash(value)

    for make in (lambda: Poly(1, {(1,): 0.1}), lambda: p.scale(0.5),
                 lambda: TruncatedBiSeries(2, {(1, 0): 0.5}),
                 lambda: TruncatedBiSeries(1, {(2, 0): 0.5})):
        with pytest.raises(TypeError, match="coefficient must be rational, got float"):
            make()
    for make in (lambda: Poly(1, {(-1,): 0}), lambda: Poly(2, {(1,): 1}),
                 lambda: TruncatedBiSeries(1, {(3, -1): 1})):
        with pytest.raises(ValueError, match="exponent keys must be"):
            make()


#: Numbers that are not exact where an int or a rational is asked: a
#: float, a float equal to an integer, a bool and a str.
NOT_EXACT = (2.5, 2.0, True, "2")

#: The fields of the preset bielliptic-rank2 lattice but its rank.
GRAM, WITNESS, BASIS, TESTS = ((0, 2), (2, 0)), (1, 1), ((1, 1), (1, -1)), (2,)

SCALES = "lambda and mu must be rational, got {t}"
CHI = "s and t must be rational and gamma an integer"
LATTICE_TYPES = "rank, gram, ample_witness, ample_tests: ints; ortho_basis: rationals"

D = "d must be a positive integer"
TOWER = "the order, the keys and the values of a tower must be integers"
HILB = "n and k must be integers"
#: the kernel's message: each table's factor list checks its order with it
#: before range() reads the order
SIZES = "order and top must be integers"

#: The Enriques surface, bielliptic parameters, the cusp with its branch,
#: as delta takes them, and the polynomial t.
E, P = genfunc.ENRIQUES, codim.BiellipticParams(1, 1, 1, 1, 2)
CUSP = (germ.CurveGerm.from_string("y^2 - x^3"), germ.BranchSet.from_strings([("t^2", "t^3")]))
T = poly.Poly(1, {(1,): 1})

#: (entry-parameter, the entry called with v in that parameter, the class
#: it raises, its message): every public entry that takes a count, an
#: order, an exponent or a rational.  A message is formatted with v, its
#: repr r and its type's name t.
EXACT_ENTRIES = [
    ("SurfaceTopology-b1", lambda v: genfunc.SurfaceTopology(v, 2, 0), BadInput,
     "b1 must be a nonnegative even integer, got {v}"),
    ("SurfaceTopology-b2", lambda v: genfunc.SurfaceTopology(0, v, 0), BadInput,
     "b2 must be a positive integer, got {v}"),
    ("SurfaceTopology-chi_o", lambda v: genfunc.SurfaceTopology(0, 2, v), TypeError,
     "chi_o must be an integer, got {t}"),
    ("PerverseTable-order", lambda v: genfunc.PerverseTable(v), TypeError,
     "the order and the keys of entries must be integers"),
    ("PerverseTable-keys", lambda v: genfunc.PerverseTable(2, {(1, v): 1}), TypeError,
     "the order and the keys of entries must be integers"),
    ("PerverseTable-entries", lambda v: genfunc.PerverseTable(2, {(1, 1): v}), ValueError,
     "entry (1, 1) = {r} is not a nonnegative integer"),
    ("goettsche_series-order", lambda v: genfunc.goettsche_series(E, v), TypeError, SIZES),
    ("hilb_betti-n", lambda v: genfunc.hilb_betti(E, v, 2), TypeError, HILB),
    ("hilb_betti-k", lambda v: genfunc.hilb_betti(E, 2, v), TypeError, HILB),
    ("stable_betti-k", lambda v: genfunc.stable_betti(E, v), TypeError, SIZES),
    ("stable_betti_numbers-max_k", lambda v: genfunc.stable_betti_numbers(E, v), TypeError, SIZES),
    ("stable_perverse_series-order", lambda v: genfunc.stable_perverse_series(E, v),
     TypeError, SIZES),
    ("stable_perverse_table-order", lambda v: genfunc.stable_perverse_table(E, v),
     TypeError, SIZES),
    ("check_remark_identity-order", lambda v: genfunc.check_remark_identity(E, v),
     TypeError, SIZES),
    ("build_tower-order", lambda v: perverse.build_tower(E, v), TypeError, SIZES),
    ("RelHilbBettiTower-order", lambda v: perverse.RelHilbBettiTower(E, v), TypeError, TOWER),
    ("RelHilbBettiTower-keys", lambda v: perverse.RelHilbBettiTower(E, 2, {(1, v): 1}),
     TypeError, TOWER),
    ("RelHilbBettiTower-values", lambda v: perverse.RelHilbBettiTower(E, 2, {(1, 1): v}),
     TypeError, TOWER),
    ("enriques_dim_ls-dsq", lambda v: codim.enriques_dim_ls(v), TypeError,
     "dsq must be an integer, got {t}"),
    ("enriques_codim_terms-beta_sq", lambda v: codim.enriques_codim_terms(v, 2, False),
     BadInput, "beta^2 must be a positive even integer for an ample class"),
    ("enriques_codim_terms-d", lambda v: codim.enriques_codim_terms(10, v, False), BadInput, D),
    ("enriques_codim_bound-d", lambda v: codim.enriques_codim_bound(10, v), BadInput, D),
    ("enriques_d0-beta_sq", lambda v: codim.enriques_d0(v, 2, 3), BadInput,
     "beta^2 must be a positive even integer for an ample class"),
    ("enriques_d0-i", lambda v: codim.enriques_d0(10, v, 3), TypeError,
     "i and j must be integers"),
    ("enriques_d0-j", lambda v: codim.enriques_d0(10, 2, v), TypeError,
     "i and j must be integers"),
    ("n_lower_bound-codim_bound", lambda v: codim.n_lower_bound(v), TypeError,
     "codim_bound must be an int, a Fraction or a QuadSurd"),
    ("BiellipticParams-a", lambda v: codim.BiellipticParams(v, 1, 1, 1, 2), BadInput,
     "a and b must be positive integers"),
    ("BiellipticParams-b", lambda v: codim.BiellipticParams(1, v, 1, 1, 2), BadInput,
     "a and b must be positive integers"),
    ("BiellipticParams-lam", lambda v: codim.BiellipticParams(1, 1, v, 1, 2), TypeError, SCALES),
    ("BiellipticParams-mu", lambda v: codim.BiellipticParams(1, 1, 1, v, 2), TypeError, SCALES),
    ("BiellipticParams-gamma", lambda v: codim.BiellipticParams(1, 1, 1, 1, v), BadInput,
     "gamma must be a positive integer"),
    ("bielliptic_chi-s", lambda v: codim.bielliptic_chi(v, 1, 2), TypeError, CHI),
    ("bielliptic_chi-t", lambda v: codim.bielliptic_chi(1, v, 2), TypeError, CHI),
    ("bielliptic_chi-gamma", lambda v: codim.bielliptic_chi(1, 1, v), TypeError, CHI),
    ("bielliptic_dim_ls-d", lambda v: codim.bielliptic_dim_ls(P, v), BadInput, D),
    ("bielliptic_codim_terms-d", lambda v: codim.bielliptic_codim_terms(P, v), BadInput, D),
    ("bielliptic_codim_bound-d", lambda v: codim.bielliptic_codim_bound(P, v), BadInput, D),
    ("LatticeModel-rank", lambda v: nslattice.LatticeModel(v, GRAM, WITNESS, BASIS, TESTS),
     TypeError, "rank must be an integer"),
    ("LatticeModel-gram",
     lambda v: nslattice.LatticeModel(2, ((v, 2), (2, 0)), WITNESS, BASIS, TESTS),
     TypeError, LATTICE_TYPES),
    ("LatticeModel-ample_witness",
     lambda v: nslattice.LatticeModel(2, GRAM, (1, v), BASIS, TESTS), TypeError, LATTICE_TYPES),
    ("LatticeModel-ortho_basis",
     lambda v: nslattice.LatticeModel(2, GRAM, WITNESS, ((v, 1), (1, -1)), TESTS),
     TypeError, LATTICE_TYPES),
    ("LatticeModel-ample_tests",
     lambda v: nslattice.LatticeModel(2, GRAM, WITNESS, BASIS, (v,)), TypeError, LATTICE_TYPES),
    ("decompose-beta",
     lambda v: nslattice.decompose(nslattice.load_lattice("bielliptic-rank2"), (v, 2)),
     BadInput, "beta coordinate {r} is not an integer"),
    ("delta-mu", lambda v: germ.delta(*CUSP, mu=v), TypeError, "mu must be an integer or None"),
    ("BranchSet-declared_truncation",
     lambda v: germ.BranchSet.from_strings([("t^2", "t^3")], v), TypeError,
     "declared_truncation must be an integer or None"),
    ("Poly-exponent", lambda v: poly.Poly(1, {(v,): 1}), ValueError,
     "exponent keys must be 1 nonnegative integers, got ({r},)"),
    ("Poly-coefficient", lambda v: poly.Poly(1, {(1,): v}), TypeError,
     "coefficient must be rational, got {t}"),
    ("Poly-mul-cutoff", lambda v: T.mul(T, v), TypeError, "cutoff must be an integer"),
    ("Poly-powers-n", lambda v: T.powers(v, 4), TypeError, "n must be an integer"),
    ("Poly-substitute-cutoff", lambda v: CUSP[0].poly.substitute(CUSP[1].branches[0], v),
     TypeError, "cutoff must be an integer"),
    ("Poly-substitute_work-cutoff",
     lambda v: CUSP[0].poly.substitute_work(CUSP[1].branches[0], v), TypeError,
     "cutoff must be an integer"),
    ("TruncatedBiSeries-order", lambda v: series.TruncatedBiSeries(v), TypeError,
     "order must be an integer"),
    ("TruncatedBiSeries-coefficient", lambda v: series.TruncatedBiSeries(2, {(1, 0): v}),
     TypeError, "coefficient must be rational, got {t}"),
]


@pytest.mark.parametrize("call, error, message", [entry[1:] for entry in EXACT_ENTRIES],
                         ids=[entry[0] for entry in EXACT_ENTRIES])
def test_every_entry_refuses_a_number_that_is_not_exact(call, error, message):
    # the one rule of _record: an int is an int, not a bool or a float equal
    # to one, and a rational is that or a Fraction; so no entry returns a
    # float, or builds a value that holds a bool
    for v in NOT_EXACT:
        try:
            result = call(v)
        except error as exc:
            assert type(exc) is error, (v, exc)
            assert str(exc) == message.format(v=v, r=repr(v), t=type(v).__name__), v
        else:
            pytest.fail(f"returned {result!r} for {v!r}")


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
    from stabctab import cli, codim, germ, nslattice, surd  # noqa: F401
    from stabctab.errors import BadInput

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
    # later one only: no module or test may use newer grammar, such as except*
    import ast
    from pathlib import Path

    paths = [*Path(stabctab.__file__).parent.rglob("*.py"), *Path(__file__).parent.rglob("*.py")]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
