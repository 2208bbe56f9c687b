"""Scalar fields: parsing, arithmetic, and the tag registry."""
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbxmod import GF2, GF3, QQ, InputDataError
from lbxmod.fields import _RATIONAL, FpElement, PrimeField, get_field


def test_rational_parse_and_serialize_round_trip():
    assert QQ.parse_scalar("3/4") == Fraction(3, 4)
    assert QQ.parse_scalar("-7") == Fraction(-7)
    assert QQ.parse_scalar(5) == Fraction(5)
    assert QQ.scalar_to_json(Fraction(-1, 2)) == "-1/2"
    assert QQ.parse_scalar(QQ.scalar_to_json(Fraction(22, 7))) == Fraction(22, 7)


@pytest.mark.parametrize("bad", [True, False, "1/0", "abc", 0.5, None, [1],
                                 "1e5", "1e5000", "1.5", "1_0", "+5", " 5", "5\n", "1/-2",
                                 "\u0663", "9" * 5000, "1/" + "9" * 5000, "-0/0", "1e1000000"])
def test_rational_rejects_non_scalars(bad):
    with pytest.raises(InputDataError):
        QQ.parse_scalar(bad)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.from_regex(r"-?[0-9]{1,40}(/[0-9]{1,40})?", fullmatch=True),
                 st.from_regex(r"[-+ 0-9/._e\u0663]{0,8}", fullmatch=True), st.text(max_size=8)))
def test_rational_reader_agrees_with_fraction(v):
    """The reader builds the Fraction from int() parts; on every string of
    the documented form it gives what Fraction(v) gives, and it refuses
    every other string."""
    if re.fullmatch(_RATIONAL, v):
        try:
            want = Fraction(v)
        except (ValueError, ZeroDivisionError):
            want = None
        if want is not None:
            got = QQ.parse_scalar(v)
            assert type(got) is Fraction and (got.numerator, got.denominator) == (want.numerator, want.denominator)
            return
    with pytest.raises(InputDataError):
        QQ.parse_scalar(v)


def test_prime_field_reads_residues_in_ascii_digits():
    assert GF3.parse_scalar("5") == FpElement(2, 3)
    assert GF3.parse_scalar("-4") == FpElement(2, 3)
    assert GF3.parse_scalar("007") == FpElement(1, 3)
    assert GF3.parse_scalar(-1) == FpElement(2, 3)


@pytest.mark.parametrize("bad", [True, None, 0.5, "", "-", "abc", "1/2", "1e3", "1.0",
                                 "\u0663", "\u00b2", "\uff15", "1_0", " 5", "5 ", "+5", "5\n", "9" * 5000])
def test_prime_field_rejects_residues_outside_the_documented_form(bad):
    with pytest.raises(InputDataError):
        GF3.parse_scalar(bad)


def test_prime_field_arithmetic_matches_int_arithmetic():
    p = 5
    f = PrimeField(p)
    for a in range(p):
        for b in range(p):
            x, y = FpElement(a, p), FpElement(b, p)
            assert (x + y).value == (a + b) % p
            assert (x - y).value == (a - b) % p
            assert (x * y).value == (a * b) % p
            assert (-x).value == (-a) % p
            if b:
                assert ((x / y) * y) == x
    assert f.zero + f.one == f.one


def test_prime_field_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GF3.one / GF3.zero


def test_fp_elements_refuse_to_mix():
    with pytest.raises(TypeError):
        FpElement(1, 2) + FpElement(1, 3)
    with pytest.raises(TypeError):
        FpElement(1, 2) + 1  # type: ignore[operator]


def test_fp_reprs_and_mixing_errors_keep_their_own_text():
    """The record decorator keeps the reprs the two classes define."""
    assert repr(FpElement(2, 3)) == "2:F3" and repr(GF3) == "F3" and repr(PrimeField(7)) == "F7"
    with pytest.raises(TypeError, match=r"^cannot mix F3 scalars with 1:F2$"):
        FpElement(1, 3) * FpElement(1, 2)
    with pytest.raises(TypeError, match=r"^cannot mix F3 scalars with 1:F5$"):
        FpElement(2, 3) / FpElement(1, 5)


def test_coerce_rationals_into_prime_fields():
    assert GF3.coerce(Fraction(1, 2)) == FpElement(2, 3)  # 1/2 = 2 mod 3
    assert GF2.coerce(7) == GF2.one
    with pytest.raises(InputDataError):
        GF3.coerce(Fraction(1, 3))
    with pytest.raises(TypeError):
        GF2.coerce("1")


def test_get_field_registry():
    assert get_field("q") is QQ
    assert get_field("F3") is GF3
    assert get_field("f7") == PrimeField(7)
    with pytest.raises(InputDataError):
        get_field("f4")  # not prime
    with pytest.raises(InputDataError):
        get_field("r")


def test_field_objects_hash_by_value():
    assert PrimeField(5) == PrimeField(5)
    assert hash(PrimeField(5)) == hash(PrimeField(5))
    assert get_field("q") == QQ and hash(get_field("q")) == hash(QQ)


def test_fp_truthiness():
    assert not FpElement(0, 3)
    assert FpElement(2, 3)


def test_primes_are_bounded_before_trial_division():
    assert PrimeField(2**31 - 1).one.value == 1  # the largest supported prime
    with pytest.raises(InputDataError, match="2\\^31"):
        PrimeField(2**31 + 11)
    with pytest.raises(InputDataError, match="2\\^31"):
        get_field("f" + "9" * 5000)  # refused before the digits are parsed
    with pytest.raises(InputDataError):
        get_field("f\u00b2")  # a digit that int() does not read


def test_field_constants_are_shared():
    assert QQ.zero is QQ.zero and QQ.one is QQ.one
    assert GF3.zero is GF3.zero and GF3.one is GF3.one
    assert (QQ.characteristic, GF2.characteristic, GF3.characteristic) == (0, 2, 3)
