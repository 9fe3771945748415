from fractions import Fraction

import pytest

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


def test_ring_equality_and_hash():
    assert GF(5) == ScalarRing("Fp", 5)
    assert len({ZZ, QQ, GF(5), GF(5)}) == 3


def test_rational_canon_keeps_fractions_and_shares_constants():
    for x in (Fraction(0), Fraction(-1, 2), Fraction(22, 7)):
        assert QQ.canon(x) is x
    assert QQ.canon(3) == Fraction(3) and type(QQ.canon(3)) is Fraction
    assert QQ.canon("-2/4") == Fraction(-1, 2)
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert (QQ.zero, QQ.one) == (Fraction(0), Fraction(1))
    assert type(QQ.zero) is Fraction and type(QQ.one) is Fraction
