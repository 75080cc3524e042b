from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdet import EXACT, FLOAT, QMatrix, Quaternion, ddet, format_quaternion, parse_quaternion
from qdet.errors import ModeError, ParseError
from qdet.scalar import literal_mode

ONE = Quaternion.one()
I = Quaternion(0, 1, 0, 0)
J = Quaternion(0, 0, 1, 0)
K = Quaternion(0, 0, 0, 1)

components = st.fractions(min_value=-3, max_value=3, max_denominator=4)
quaternions = st.builds(Quaternion, components, components, components, components)
nonzero_quaternions = quaternions.filter(lambda q: not q.is_zero())


def test_unit_multiplication_table():
    assert I * I == J * J == K * K == -ONE
    assert I * J == K and J * K == I and K * I == J
    assert J * I == -K and K * J == -I and I * K == -J


def test_product_expansion():
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_conjugation_examples():
    assert I.conj() == -I
    assert Quaternion(1, 2, -3, 1).conj() == Quaternion(1, -2, 3, -1)


def test_inverse_examples():
    assert Quaternion.real(2).inv() == Quaternion.real(Fraction(1, 2))
    assert I.inv() == -I
    q = Quaternion(1, 1, 1, 1)
    assert q.inv() == Quaternion(1, -1, -1, -1) / 4
    assert q * q.inv() == ONE
    assert q.inv() * q == ONE


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion.zero().inv()


def test_mode_mixing_rejected():
    with pytest.raises(ModeError):
        I * Quaternion.one(FLOAT)
    with pytest.raises(ModeError):
        Quaternion(0.5)
    with pytest.raises(ModeError):
        Quaternion(Fraction(1, 2), mode=FLOAT)


@pytest.mark.parametrize("component", ["0.1", "nan", "1e400", Decimal("0.1"), None, 1j])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_a_component_of_another_type_is_a_type_error(component, mode):
    # parse_quaternion is the way in from text; a string is not a number.
    with pytest.raises(TypeError):
        Quaternion(component, mode=mode)
    with pytest.raises(TypeError):
        Quaternion(0, 0, 0, component, mode=mode)


def test_mode_not_component_type_is_the_contract():
    a, b = Quaternion(Fraction(6, 2)), Quaternion(3)
    assert a == b and hash(a) == hash(b)
    assert format_quaternion(a) == format_quaternion(b) == "3"
    assert Quaternion(Fraction(1, 2)) * 2 == ONE and hash(Quaternion(Fraction(1, 2)) * 2) == hash(ONE)
    with pytest.raises(ModeError):
        Quaternion(3.0)
    with pytest.raises(ModeError):
        Quaternion(Fraction(6, 2), mode=FLOAT)
    with pytest.raises(ModeError):
        b + Quaternion(3, mode=FLOAT)
    with pytest.raises(ModeError):
        b * 0.5
    for h in (
        QMatrix.from_literals([["2", "i"], ["-i", "2"]]),
        QMatrix.from_literals([["1/2", "i"], ["-i", "3"]]),
    ):
        value = ddet(h)
        assert isinstance(value, (int, Fraction))
        assert isinstance(ddet(h.to_float()), float)


@given(quaternions, quaternions, quaternions)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(quaternions, quaternions)
def test_norm_multiplicative(a, b):
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@given(quaternions, quaternions)
def test_conj_antihomomorphism(a, b):
    assert (a * b).conj() == b.conj() * a.conj()


@given(quaternions)
def test_conj_involution(q):
    assert q.conj().conj() == q


@given(quaternions, components)
def test_reals_are_central(q, r):
    real = Quaternion.real(r)
    assert real * q == q * real


@given(nonzero_quaternions)
def test_inverse_is_two_sided(q):
    assert q * q.inv() == ONE
    assert q.inv() * q == ONE


# -- literal grammar -------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("0", Quaternion.zero()),
        ("-k", -K),
        ("1+2i-3j+1/2k", Quaternion(1, 2, -3, Fraction(1, 2))),
        ("i", I),
        ("-1/3", Quaternion.real(Fraction(-1, 3))),
        ("2i+2i", Quaternion(0, 4, 0, 0)),
    ],
)
def test_parse_exact(text, expected):
    assert parse_quaternion(text) == expected


def test_parse_float_literals():
    q = parse_quaternion("1.5-2.0i+1e-3k")
    assert q.mode == FLOAT
    assert q.components() == (1.5, -2.0, 0.0, 0.001)


@pytest.mark.parametrize("bad", ["", "1+", "++i", "1..2", "q", "1 2", "2i3j", "1/2.5"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_quaternion(bad)


def test_literal_mode_classification():
    assert literal_mode("3") is None
    assert literal_mode("1/2k") == EXACT
    assert literal_mode("2.5i") == FLOAT
    with pytest.raises(ParseError):
        literal_mode("1/2+0.5i")
    # Among the literals of a matrix: integers take the others' mode.
    assert literal_mode("3", EXACT) == EXACT and literal_mode("-i", FLOAT) == FLOAT
    assert literal_mode("2.5i", None) == FLOAT and literal_mode("1/2", EXACT) == EXACT
    for text, among in (("2.5i", EXACT), ("1/2k", FLOAT)):
        with pytest.raises(ModeError):
            literal_mode(text, among)


def test_parse_mode_enforcement():
    with pytest.raises(ParseError):
        parse_quaternion("0.5", EXACT)
    with pytest.raises(ParseError):
        parse_quaternion("1/2", FLOAT)


@given(quaternions)
def test_format_parse_round_trip(q):
    assert parse_quaternion(format_quaternion(q)) == q


def test_format_float_round_trip_keeps_mode():
    q = Quaternion(0.0, 1.0, 0.0, -2.5, mode=FLOAT)
    text = format_quaternion(q)
    back = parse_quaternion(text)
    assert back.mode == FLOAT and back == q
    zero = format_quaternion(Quaternion.zero(FLOAT))
    assert parse_quaternion(zero).mode == FLOAT
