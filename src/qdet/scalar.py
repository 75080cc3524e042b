"""Quaternion scalars in exact and floating-point arithmetic.

A quaternion is q = a0 + a1*i + a2*j + a3*k with real components and the
defining relations i**2 = j**2 = k**2 = -1, ij = k, jk = i, ki = j (so the
product is noncommutative).  Two component representations are supported:

* ``exact`` -- components are `int` or `fractions.Fraction` (a `Fraction`
  only where a denominator appears); every identity in the package can
  then be asserted as bit-exact equality.  The mode, not the component
  type, is the contract: ``Fraction(3) == 3`` and the two hash alike, so
  equal quaternions compare, hash and format the same either way.
* ``float`` -- components are doubles; used only by the numeric oracles
  and limit-based estimates.

The two modes never mix inside one expression; mixing raises `ModeError`.
Values are immutable after construction and all operations are pure, so
they are safe to share between concurrent workers.

This module also owns the quaternion literal grammar used by the matrix
file format: a literal is a sequence of signed terms, each an optional
coefficient (integer, fraction ``p/q``, or decimal in float mode) followed
by an optional unit ``i|j|k``, with no internal whitespace.  Examples:
``1+2i-3j+1/2k``, ``-k``, ``0``.
"""

import math
import re
from fractions import Fraction

from .errors import ModeError, ParseError

EXACT = "exact"
FLOAT = "float"

_MODES = (EXACT, FLOAT)


def _coerce(value, mode):
    """Coerce a real number into the component type of `mode`.

    Integers are mode-neutral.  Fractions are exact-only (ModeError in
    float mode), floats are float-only; any other type, a string or a
    `Decimal` included, is a TypeError.  Exact mode keeps integers as
    `int` (an integral `Fraction` becomes its numerator), because integer
    arithmetic is far cheaper than `Fraction` arithmetic.
    """
    if isinstance(value, int):
        return int(value) if mode == EXACT else float(value)
    if isinstance(value, Fraction):
        if mode == FLOAT:
            raise ModeError(f"Fraction component {value!r} not allowed in float mode")
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, float):
        if mode == EXACT:
            raise ModeError(f"float component {value!r} not allowed in exact mode")
        return float(value)
    raise TypeError(f"quaternion components must be int, Fraction or float, got {type(value).__name__}")


def _coerce_real_operand(value, mode):
    """Coerce an int/Fraction/float scalar operand, or return None if not a real."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction, float)):
        return None
    return _coerce(value, mode)


class Quaternion:
    """An immutable quaternion with a scalar-mode tag.

    In exact mode components are `int` or canonical reduced `Fraction`
    values; comparisons are structural equality, under which an integral
    `Fraction` equals the `int` of the same value.
    """

    __slots__ = ("a0", "a1", "a2", "a3", "mode")

    def __init__(self, a0=0, a1=0, a2=0, a3=0, mode=EXACT):
        if mode not in _MODES:
            raise ValueError(f"unknown scalar mode {mode!r}")
        self.a0 = _coerce(a0, mode)
        self.a1 = _coerce(a1, mode)
        self.a2 = _coerce(a2, mode)
        self.a3 = _coerce(a3, mode)
        self.mode = mode

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, mode=EXACT):
        return cls(0, 0, 0, 0, mode)

    @classmethod
    def one(cls, mode=EXACT):
        return cls(1, 0, 0, 0, mode)

    @classmethod
    def real(cls, value, mode=EXACT):
        return cls(value, 0, 0, 0, mode)

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        return not (self.a0 or self.a1 or self.a2 or self.a3)

    def is_real(self):
        return not (self.a1 or self.a2 or self.a3)

    def components(self):
        return (self.a0, self.a1, self.a2, self.a3)

    # -- ring operations ----------------------------------------------

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ModeError(f"cannot combine {self.mode} and {other.mode} quaternions")

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            r = _coerce_real_operand(other, self.mode)
            if r is None:
                return NotImplemented
            return _of(self.a0 + r, self.a1, self.a2, self.a3, self.mode)
        self._check_mode(other)
        return _of(
            self.a0 + other.a0,
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
            self.mode,
        )

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _of(-self.a0, -self.a1, -self.a2, -self.a3, self.mode)

    def __mul__(self, other):
        if not isinstance(other, Quaternion):
            r = _coerce_real_operand(other, self.mode)
            if r is None:
                return NotImplemented
            return _of(self.a0 * r, self.a1 * r, self.a2 * r, self.a3 * r, self.mode)
        self._check_mode(other)
        a0, a1, a2, a3 = self.a0, self.a1, self.a2, self.a3
        b0, b1, b2, b3 = other.a0, other.a1, other.a2, other.a3
        return _of(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            self.mode,
        )

    def __rmul__(self, other):
        # Real scalars are central, so left and right products coincide.
        r = _coerce_real_operand(other, self.mode)
        if r is None:
            return NotImplemented
        return self * r

    def __truediv__(self, other):
        # Division is only defined by a real scalar; dividing by a general
        # quaternion is ambiguous (left vs right) and must go through inv().
        r = _coerce_real_operand(other, self.mode)
        if r is None:
            return NotImplemented
        if r == 0:
            raise ZeroDivisionError("division of quaternion by zero scalar")
        if self.mode == EXACT:
            return self * (Fraction(1) / r)
        return self * (1.0 / r)

    def conj(self):
        """Quaternion conjugate: negates the i, j, k components."""
        return _of(self.a0, -self.a1, -self.a2, -self.a3, self.mode)

    def norm_sq(self):
        """Squared norm a0^2 + a1^2 + a2^2 + a3^2; real, exact in exact mode."""
        return self.a0 * self.a0 + self.a1 * self.a1 + self.a2 * self.a2 + self.a3 * self.a3

    def inv(self):
        """Two-sided multiplicative inverse conj(q) / |q|^2."""
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("quaternion zero has no inverse")
        return self.conj() / n

    def to_float(self):
        if self.mode == FLOAT:
            return self
        return Quaternion(float(self.a0), float(self.a1), float(self.a2), float(self.a3), FLOAT)

    # -- comparisons and hashing ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.mode == other.mode and self.components() == other.components()

    def __hash__(self):
        return hash((self.mode, self.components()))

    def __repr__(self):
        return f"Quaternion({format_quaternion(self)!r}, mode={self.mode!r})"

    def __str__(self):
        return format_quaternion(self)


_new = object.__new__


def _of(a0, a1, a2, a3, mode):
    """Build a quaternion from components that already have the type of
    `mode` (results of arithmetic on coerced components): no `_coerce`."""
    q = _new(Quaternion)
    q.a0 = a0
    q.a1 = a1
    q.a2 = a2
    q.a3 = a3
    q.mode = mode
    return q


# ---------------------------------------------------------------------------
# Literal grammar
# ---------------------------------------------------------------------------

_TERM = re.compile(
    r"""
    (?P<sign>[+-]?)
    (?P<coef>
        \d+/\d+                                 # fraction
      | (?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?     # decimal with a dot
      | \d+[eE][+-]?\d+                         # decimal, exponent only
      | \d+                                     # integer
    )?
    (?P<unit>[ijk]?)
    """,
    re.VERBOSE,
)

_UNIT_SLOT = {"": 0, "i": 1, "j": 2, "k": 3}


def _split_terms(text):
    """Split a literal into (sign, coef, unit) triples; raise on malformed input."""
    pos = 0
    terms = []
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (m.group("coef") is None and not m.group("unit")):
            raise ParseError(f"malformed quaternion literal {text!r} at offset {pos}")
        if pos > 0 and not m.group("sign"):
            raise ParseError(f"missing sign between terms in {text!r} at offset {pos}")
        terms.append((m.group("sign") or "+", m.group("coef"), m.group("unit")))
        pos = m.end()
    if not terms:
        raise ParseError("empty quaternion literal")
    return terms


def literal_mode(text: str, among=None):
    """Classify a literal: FLOAT if any decimal coefficient, EXACT if any
    fraction, None when only integers appear (mode-neutral).  Given the
    mode `among` of the literals of a matrix read before it, the mode of
    them all: literals of both kinds are a ModeError."""
    return _terms_mode(text, _split_terms(text), among)


def _terms_mode(text, terms, among=None):
    """`literal_mode` of text, read from its split terms."""
    mode = None
    for _, coef, _ in terms:
        if coef is None:
            continue
        if "." in coef or "e" in coef or "E" in coef:
            this = FLOAT
        elif "/" in coef:
            this = EXACT
        else:
            continue
        if mode is not None and mode != this:
            raise ParseError(f"literal {text!r} mixes exact and float coefficients")
        mode = this
    if None not in (mode, among) and mode != among:
        raise ModeError(f"mixed-mode literals: {text!r} is {mode}, earlier ones are {among}")
    return mode or among


def parse_quaternion(text: str, mode=None) -> Quaternion:
    """Parse a quaternion literal.

    With ``mode=None`` the mode is inferred from the literal itself
    (decimals imply float, otherwise exact).  Passing an explicit mode
    rejects literals of the other kind, e.g. a decimal in exact mode.
    A zero denominator or a float that is not finite raises `ParseError`.
    """
    terms = _split_terms(text)
    inferred = _terms_mode(text, terms)
    if mode is None:
        mode = inferred or EXACT
    elif inferred is not None and inferred != mode:
        raise ParseError(f"literal {text!r} is not valid in {mode} mode")

    comps = [Fraction(0)] * 4 if mode == EXACT else [0.0] * 4
    for sign, coef, unit in terms:
        try:
            if coef is None:
                value = Fraction(1) if mode == EXACT else 1.0
            elif mode == EXACT:
                value = Fraction(coef)
            else:  # a fraction is refused in float mode above
                value = float(coef)
        except (ArithmeticError, ValueError) as exc:  # 1/0, float overflow, digit limit
            raise ParseError(f"literal {text!r} has no {mode} value: {exc}") from None
        if sign == "-":
            value = -value
        comps[_UNIT_SLOT[unit]] += value
    if mode == FLOAT and not all(map(math.isfinite, comps)):
        raise ParseError(f"literal {text!r} is not a finite float")
    return Quaternion(*comps, mode=mode)


def _format_coef(value, mode):
    return str(value) if mode == EXACT else repr(value)


def format_quaternion(q: Quaternion) -> str:
    """Render a quaternion in the literal grammar; output reparses to q.

    Float zero renders as ``0.0`` so that formatted float matrices keep
    inferring float mode on the way back in.
    """
    parts = []
    for value, unit in zip(q.components(), ("", "i", "j", "k")):
        if value == 0:
            continue
        sign = "-" if value < 0 else "+"
        mag = -value if value < 0 else value
        if unit and mag == 1 and q.mode == EXACT:
            body = unit
        else:
            body = _format_coef(mag, q.mode) + unit
        parts.append((sign, body))
    if not parts:
        return "0" if q.mode == EXACT else "0.0"
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text
