import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hochschild
from hochschild.matrix import Matrix
from hochschild.rings import GF, QQ, ZZ, RingError, ScalarRing, is_prime


def test_primality_small_and_large():
    primes = [2, 3, 5, 7, 11, 101, 2**31 - 1]
    composites = [0, 1, 4, 9, 91, 2**32, 2**61 - 2]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(RingError):
        GF(6)
    with pytest.raises(RingError):
        GF(1)


def test_fp_elements_are_canonical_residues():
    F5 = GF(5)
    assert F5.canon(7) == 2
    assert F5.canon(-1) == 4
    assert F5.neg(2) == 3
    assert F5.invert(2) == 3
    with pytest.raises(RingError):
        F5.parse("5")


def test_rationals_are_reduced_fractions():
    x = QQ.parse("-2/4")
    assert x == Fraction(-1, 2)
    assert QQ.format(x) == "-1/2"
    assert QQ.invert(Fraction(3)) == Fraction(1, 3)


def test_integer_units():
    assert ZZ.is_unit(-1) and ZZ.is_unit(1)
    assert not ZZ.is_unit(2)
    with pytest.raises(RingError):
        ZZ.invert(2)
    with pytest.raises(RingError):
        ZZ.canon(Fraction(1, 2))


def test_parse_format_round_trip():
    for ring, samples in [(ZZ, ["0", "17", "-3"]), (QQ, ["0", "-1/2", "22/7"]), (GF(7), ["0", "6"])]:
        for s in samples:
            assert ring.format(ring.parse(s)) == s


def test_parse_takes_a_sign_and_ascii_digits_only():
    # int() and Fraction() also take digit separators and non-ASCII digits
    for ring in (ZZ, QQ, GF(5)):
        assert ring.parse(" +3 ") == 3 and ring.parse("03") == 3 and type(ring.parse("3")) is int
        for s in ("1_000", "\u0663", "\uff13", "1e3", "0x3", "3 4", "+-3", "", "+", "1.5" if ring != QQ else "1.2.3"):
            with pytest.raises(RingError):
                ring.parse(s)
    for s in ("1_0/3", "1/3_0", "1 / 3", "1/-3", "1/0", "1.5e1", "\u0661/\u0663", "/3", "1/", "."):
        with pytest.raises(RingError):
            QQ.parse(s)
    assert QQ.parse("-10/4") == Fraction(-5, 2) and QQ.parse("+0.25") == Fraction(1, 4)
    assert QQ.parse(".5") == Fraction(1, 2) and QQ.parse("-2.") == -2 and type(QQ.parse("-2.")) is int


def test_ring_equality_and_hash():
    assert GF(5) == ScalarRing("Fp", 5)
    assert len({ZZ, QQ, GF(5), GF(5)}) == 3


def test_rational_canon_keeps_fractions_and_shares_constants():
    # the unique Q form: a Fraction with denominator > 1, otherwise an int
    for x in (Fraction(-1, 2), Fraction(22, 7)):
        assert QQ.canon(x) is x
    for x, n in ((Fraction(0), 0), (Fraction(6, 2), 3), (3, 3), ("4/2", 2), ("-0", 0)):
        assert QQ.canon(x) == n and type(QQ.canon(x)) is int
    assert QQ.canon("-2/4") == Fraction(-1, 2)
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert (QQ.zero, QQ.one) == (0, 1)
    assert type(QQ.zero) is int and type(QQ.one) is int


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)])
def test_canon_refuses_floats(ring):
    for x in (2.5, 0.1, 2.0, -0.0):
        with pytest.raises(RingError):
            ring.canon(x)
    with pytest.raises(RingError):
        Matrix.from_rows(ring, [[2.5]])


def test_div_is_exact_and_canonical():
    assert QQ.div(1, 3) == Fraction(1, 3) and QQ.div(-3, 6) == Fraction(-1, 2)
    for a, b, q in ((6, 3, 2), (Fraction(3, 2), Fraction(3, 4), 2), (Fraction(1, 2), Fraction(-1, 2), -1), (0, 7, 0)):
        assert QQ.div(a, b) == q and type(QQ.div(a, b)) is int
    assert ZZ.div(6, -3) == -2 and GF(5).div(1, 2) == 3 and GF(5).div(4, 2) == 2
    with pytest.raises(RingError):
        ZZ.div(1, 2)
    for ring in (ZZ, QQ, GF(5)):
        with pytest.raises(RingError):
            ring.div(1, 0)
    with pytest.raises(RingError):
        QQ.div(Fraction(1, 2), Fraction(0))


@pytest.mark.parametrize(
    "ring, exact, inexact",
    [
        (ZZ, (-6, 3, -2), (-6, 4, "4 does not divide -6 in Z")),
        (QQ, (-6, 3, -2), (-6, 4, Fraction(-3, 2))),
        (GF(5), (4, 2, 2), (2, 4, 3)),
    ],
)
def test_div_exact_inexact_and_by_zero(ring, exact, inexact):
    a, b, q = exact
    got = ring.div(a, b)
    assert got == q and type(got) is int
    a, b, q = inexact
    if isinstance(q, str):
        with pytest.raises(RingError, match=q):
            ring.div(a, b)
    else:
        got = ring.div(a, b)
        assert got == q and type(got) is type(q) and ring.is_canonical(got)
    with pytest.raises(RingError, match="^division by zero$"):
        ring.div(3, 0)


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30))
def test_rational_div_matches_fraction_division(a, b):
    a, b = QQ.canon(a), QQ.canon(b)
    if b == 0:
        with pytest.raises(RingError):
            QQ.div(a, b)
        return
    q = QQ.div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) is int or (type(q) is Fraction and q.denominator > 1)
    assert q == QQ.canon(q) and type(q) is type(QQ.canon(q))


# every module that computes with ring values; true division there would turn two ints into a float
_SCALAR_MODULES = ("rings", "matrix", "algebra", "bar", "cohomology", "extensions", "projectivity", "koszul", "catalog")


def _true_divisions(tree) -> list[int]:
    """Lines of the `/` and `/=` operators in a module outside ScalarRing.div."""
    exempt = {
        id(node)
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "ScalarRing"
        for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "div"
        for node in ast.walk(fn)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div) and id(node) not in exempt
    )


def test_only_scalar_ring_div_divides():
    assert _true_divisions(ast.parse("x = a / b\ny /= 2\nz = a // b")) == [1, 2]
    assert _true_divisions(ast.parse("class ScalarRing:\n    def div(self, a, b):\n        return a / b")) == []
    root = Path(hochschild.__file__).parent
    for name in _SCALAR_MODULES:
        assert _true_divisions(ast.parse((root / f"{name}.py").read_text())) == [], name
