"""Exact scalars: the field Q(q) of rational functions of q.

Everything downstream (tensor operators, noncommutative polynomials) is
generic over the scalar type, and three kinds are provided:

* ``QScalar``  -- a rational function of q over Q, kept in canonical form;
* ``Fraction`` -- plain rationals, used when q is pinned to a rational value;
* ``ModInt``   -- residues modulo a large prime, for fast sampled runs.

A ``FieldSpec`` names the scalar kind plus its parameters; ``make_field``
turns it into a small adapter exposing the constants (zero, one, q, lam)
and the map from symbolic values into the chosen field.

Canonical form of a ``QScalar``: q^shift * N(q) / D(q), with N and D
tuples of integer coefficients (index = exponent) whose constant terms
are nonzero, D(0) > 0, and no common factor over Z[q], integer content
included.  Every value has exactly one such representation, so equality
and hashing are structural.  The common factor is cancelled by the
heuristic gcd ``intpoly.gcd_heu``, exact because it accepts a candidate
only after dividing both parts by it over Z; Euclid's algorithm with
primitive pseudo-remainders (``_poly_gcd``) runs only when the heuristic
gives up.  The text form divides N and D by D(0), so that a printed
denominator has constant term 1.

All scalar kinds interoperate with ``int`` and ``Fraction`` operands, which
keeps generic code free of explicit zero/one plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from random import Random

from .intpoly import exact_quotient, gcd_heu, primitive_part


class SpecializationError(ArithmeticError):
    """Substituting a concrete q hit a pole or an invalid parameter."""


class ScalarParseError(ValueError):
    def __init__(self, message, pos):
        super().__init__("%s (at position %d)" % (message, pos))
        self.pos = pos


# ---------------------------------------------------------------------------
# integer coefficient lists (index = exponent)
# ---------------------------------------------------------------------------

def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _add(a, i, b, j):
    """q^i a + q^j b."""
    out = [0] * max(len(a) + i, len(b) + j)
    out[i:i + len(a)] = a
    for k, y in enumerate(b, j):
        out[k] += y
    return out


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_gcd(a, b):
    """Primitive gcd with positive lead of two nonzero integer lists,
    by Euclid's algorithm with primitive pseudo-remainders.

    The fallback of ``_canonical`` when ``gcd_heu`` gives up, and the
    tests' reference for it.
    """
    a, b = primitive_part(a)[1], primitive_part(b)[1]
    while len(b) > 1:
        m, lead = len(b) - 1, b[-1]
        for i in range(len(a) - 1 - m, -1, -1):
            f = a[i + m]
            a = [x * lead for x in a]
            for j, y in enumerate(b, i):
                a[j] -= f * y
        while a and not a[-1]:
            a.pop()
        if not a:
            return b
        a, b = b, primitive_part(a)[1]
    return [1]


# ---------------------------------------------------------------------------
# QScalar: canonical rational functions of q
# ---------------------------------------------------------------------------

class QScalar:
    """Element of Q(q) in canonical form (see module docstring): the value
    q^shift * num(q) / den(q).  Build values by arithmetic from ``Q_VAR``,
    ``from_rat`` and ``q_power``."""

    __slots__ = ("shift", "num", "den")

    def __init__(self, shift, num, den):
        self.shift = shift
        self.num = num
        self.den = den

    @classmethod
    def from_rat(cls, c):
        c = Fraction(c)
        if not c:
            return Q_ZERO
        return cls(0, (c.numerator,), (c.denominator,))

    @classmethod
    def q_power(cls, e):
        return cls(e, (1,), (1,))

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return (self.shift == other.shift and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        if not self.num:
            return hash(0)
        if self.shift or len(self.num) > 1 or len(self.den) > 1:
            return hash((self.shift, self.num, self.den))
        # constants hash like the rational they equal
        return hash(Fraction(self.num[0], self.den[0]))

    def __neg__(self):
        return QScalar(self.shift, tuple(-x for x in self.num), self.den)

    def __add__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        s = min(self.shift, other.shift)
        if self.den == other.den:
            a, b, den = self.num, other.num, self.den
        else:
            a, b = _mul(self.num, other.den), _mul(other.num, self.den)
            den = _mul(self.den, other.den)
        return _canonical(s, _add(a, self.shift - s, b, other.shift - s), den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return Q_ZERO
        return _canonical(self.shift + other.shift, _mul(self.num, other.num),
                          _mul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero in Q(q)")
        if not self.num:
            return Q_ZERO
        return _canonical(self.shift - other.shift, _mul(self.num, other.den),
                          _mul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k):
        k = int(k)
        if k == 0:
            return Q_ONE
        base = self if k > 0 else Q_ONE / self
        k = abs(k)
        acc = Q_ONE
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def evaluate(self, q0):
        """Exact value at q = q0 as a Fraction; SpecializationError at poles."""
        q0 = Fraction(q0)
        den = _horner(self.den, q0)
        if not den:
            raise SpecializationError("pole at q = %s" % q0)
        if not q0 and self.shift < 0:
            raise SpecializationError("negative power of q at q = 0")
        return _horner(self.num, q0) * q0 ** self.shift / den

    def evaluate_mod(self, q0, prime):
        """Value at q = q0 in the prime field Z/prime, read from the text
        form, so that the error names the coefficient without a value."""
        den = _value_mod(self.den, 0, self.den[0], q0, prime)
        if den == 0:
            raise SpecializationError("pole at q = %d (mod %d)" % (q0, prime))
        num = _value_mod(self.num, self.shift, self.den[0], q0, prime)
        return num * pow(den, -1, prime) % prime

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return "QScalar(%s)" % format_scalar(self)


def _value_mod(coeffs, shift, d0, q0, prime):
    """sum(coeffs[e] / d0 * q0^(e + shift)) in Z/prime."""
    acc = 0
    for e, c in enumerate(coeffs, shift):
        if c:
            c = Fraction(c, d0)
            if c.denominator % prime == 0:
                raise SpecializationError("coefficient %s has no value mod %d"
                                          % (c, prime))
            acc += c.numerator * pow(c.denominator, -1, prime) * pow(q0, e, prime)
    return acc % prime


def _canonical(shift, num, den):
    """The canonical QScalar equal to q^shift * num / den, for integer
    lists num and den with den's constant term and lead nonzero."""
    while num and not num[-1]:
        num.pop()
    if not num:
        return Q_ZERO
    k = 0
    while not num[k]:
        k += 1
    if k:
        num, shift = num[k:], shift + k
    # cancel the integer content, then the primitive gcd
    cn, pn = primitive_part(num)
    cd, pd = primitive_part(den)
    c = gcd(cn, cd)
    cn, cd = cn // c, cd // c
    found = gcd_heu(pn, pd)
    if found is None:
        g = _poly_gcd(pn, pd)
        pn, pd = exact_quotient(pn, g), exact_quotient(pd, g)
    else:
        _, pn, pd = found
    if cd * pd[0] < 0:
        cn, cd = -cn, -cd
    return QScalar(shift, tuple(cn * x for x in pn), tuple(cd * x for x in pd))


def _lift(x):
    if isinstance(x, QScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return QScalar.from_rat(x)
    return None


Q_ZERO = QScalar(0, (), (1,))
Q_ONE = QScalar(0, (1,), (1,))
Q_VAR = QScalar.q_power(1)  # the deformation parameter itself


# ---------------------------------------------------------------------------
# q-combinatorics
# ---------------------------------------------------------------------------

def q_number(p):
    """Symmetric q-analogue of the integer p.

    q_number(p) = (q^p - q^-p)/(q - q^-1) = q^(p-1) + q^(p-3) + ... + q^(1-p),
    extended to p <= 0 by the same quotient formula (odd under p -> -p).
    """
    p = int(p)
    if p == 0:
        return Q_ZERO
    sign = 1 if p > 0 else -1
    n = abs(p)
    return QScalar(1 - n, tuple(sign * (1 - e % 2) for e in range(2 * n - 1)), (1,))


def q_factorial(i):
    """Product q_number(1) * ... * q_number(i); empty product is 1."""
    i = int(i)
    if i < 0:
        raise ValueError("q_factorial of negative integer")
    acc = Q_ONE
    for k in range(2, i + 1):
        acc = acc * q_number(k)
    return acc


def q_binomial(p, i):
    """Gaussian binomial q_factorial(p) / (q_factorial(i) q_factorial(p-i)).

    Symmetric in i <-> p-i and specialises to the ordinary binomial
    coefficient at q = 1.
    """
    p, i = int(p), int(i)
    if not 0 <= i <= p:
        raise ValueError("q_binomial needs 0 <= i <= p, got (%d, %d)" % (p, i))
    # build as an explicit product of quotients so intermediate gcds stay small
    acc = Q_ONE
    for k in range(1, i + 1):
        acc = acc * q_number(p - i + k) / q_number(k)
    return acc


# ---------------------------------------------------------------------------
# formatting and parsing (the one textual grammar used everywhere)
# ---------------------------------------------------------------------------

def _format_rat(c):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _format_terms(coeffs, shift, d0):
    """sum(coeffs[e] / d0 * q^(e + shift)), exponents descending."""
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        if not coeffs[e]:
            continue
        c = Fraction(coeffs[e], d0)
        neg = c < 0
        mag = -c if neg else c
        e += shift
        if e == 0:
            body = _format_rat(mag)
        else:
            qp = "q" if e == 1 else "q^%d" % e
            body = qp if mag == 1 else "%s*%s" % (_format_rat(mag), qp)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts) or "0"


def format_scalar(x):
    """Canonical textual form; parse_scalar inverts this exactly."""
    if isinstance(x, Fraction):
        return _format_rat(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, ModInt):
        return str(x.value)
    num = _format_terms(x.num, x.shift, x.den[0])
    if len(x.den) == 1:
        return num
    return "(%s)/(%s)" % (num, _format_terms(x.den, 0, x.den[0]))


_TOKEN_CHARS = set("0123456789q^*/+-() \t\n")

# Bounds on one written scalar, checked before any arithmetic runs: the
# parser recurses once per parenthesis level, and the sum of the written
# |exponents| of q bounds the length of every coefficient list it builds.
MAX_NESTING = 100
MAX_WRITTEN_DEGREE = 1000


def _tokenize(text):
    toks = []  # (kind, value, pos)
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\n":
            i += 1
            continue
        if ch not in _TOKEN_CHARS:
            raise ScalarParseError("unexpected character %r" % ch, i)
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
        else:
            toks.append((ch, ch, i))
            i += 1
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0
        self.degree = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None, len(self.text))

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind):
        k, v, p = self.take()
        if k != kind:
            raise ScalarParseError("expected %r" % kind, p)
        return v

    def parse(self):
        result = self.parse_sum()
        k, _, p = self.peek()
        if k is not None:
            raise ScalarParseError("trailing input", p)
        return result

    def parse_sum(self):
        k, _, _ = self.peek()
        sign = 1
        if k in ("+", "-"):  # tolerated leading sign
            self.take()
            sign = -1 if k == "-" else 1
        acc = self.parse_product() * sign
        while True:
            k, _, _ = self.peek()
            if k == "+":
                self.take()
                acc = acc + self.parse_product()
            elif k == "-":
                self.take()
                acc = acc - self.parse_product()
            else:
                return acc

    def parse_product(self):
        """Factors joined by '*' and '/', left to right, binding tighter
        than '+' and '-'; a number written straight before q multiplies
        it, so ``2q^2`` is 2*q^2 and ``1/2q`` is 1/2*q."""
        start = self.i
        acc = self.parse_factor()
        while True:
            k, _, p = self.peek()
            if k in ("*", "/"):
                self.take()
            elif not (k == "q" and self.i == start + 1
                      and self.toks[start][0] == "int"):
                return acc
            start = self.i
            x = self.parse_factor()
            if k != "/":
                acc = acc * x
            elif not x:
                raise ScalarParseError("division by zero", p)
            else:
                acc = acc / x

    def parse_factor(self):
        k, v, p = self.peek()
        if k == "(":
            if self.depth == MAX_NESTING:
                raise ScalarParseError("parentheses nested deeper than %d"
                                       % MAX_NESTING, p)
            self.take()
            self.depth += 1
            x = self.parse_sum()
            self.expect(")")
            self.depth -= 1
            return x
        if k == "q":
            return self.parse_qpow()
        if k != "int":
            raise ScalarParseError("expected a term", p)
        self.take()
        return QScalar.from_rat(v)

    def parse_qpow(self):
        _, _, pos = self.take()
        e = 1
        if self.peek()[0] == "^":
            self.take()
            k, v, p = self.take()
            sign = 1
            if k == "-":
                sign = -1
                k, v, p = self.take()
            elif k == "+":
                k, v, p = self.take()
            if k != "int":
                raise ScalarParseError("expected integer exponent", p)
            e = sign * v
        self.degree += abs(e)
        if self.degree > MAX_WRITTEN_DEGREE:
            raise ScalarParseError("written powers of q sum to more than %d"
                                   % MAX_WRITTEN_DEGREE, pos)
        return QScalar.q_power(e)


def parse_scalar(text):
    """Parse the textual scalar grammar into a canonical QScalar.

    Accepted forms: sums of products like ``3*q^2``, ``q^-1``, ``1/2*q``,
    ``7``, ``1/q^2`` and ``(sum)/(sum)``.  ``*`` and ``/`` bind tighter
    than ``+`` and ``-``, so ``q + 1/q`` is q + q^-1.  Whitespace is
    insignificant.  Parentheses nested deeper than ``MAX_NESTING``, and
    written |exponents| of q (a bare q counts 1) summing to more than
    ``MAX_WRITTEN_DEGREE``, are parse errors.
    """
    if not isinstance(text, str):
        raise ScalarParseError("expected a string", 0)
    p = _Parser(text)
    if not p.toks:
        raise ScalarParseError("empty input", 0)
    return p.parse()


# ---------------------------------------------------------------------------
# modular scalars
# ---------------------------------------------------------------------------

def _inverse(v, prime):
    """The inverse of the integer v modulo prime."""
    if v % prime == 0:
        raise ZeroDivisionError("division by zero mod %d" % prime)
    return pow(v, -1, prime)


class ModInt:
    """Residue in Z/prime with field arithmetic; mixes with int operands."""

    __slots__ = ("value", "prime")

    def __init__(self, value, prime):
        self.value = value % prime
        self.prime = prime

    def _coerce(self, other):
        if isinstance(other, ModInt):
            assert other.prime == self.prime, "mixed moduli"
            return other.value
        if isinstance(other, int):
            return other % self.prime
        if isinstance(other, Fraction):
            return (other.numerator * _inverse(other.denominator, self.prime)
                    % self.prime)
        return None

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return self.value == v

    def __hash__(self):
        return hash(self.value)

    def __neg__(self):
        return ModInt(-self.value, self.prime)

    def __add__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value + v, self.prime)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value - v, self.prime)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(v - self.value, self.prime)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value * v, self.prime)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(self.value * _inverse(v, self.prime), self.prime)

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is None:
            return NotImplemented
        return ModInt(v * _inverse(self.value, self.prime), self.prime)

    def __pow__(self, k):
        k = int(k)
        if k < 0:
            return ModInt(_inverse(self.value, self.prime), self.prime) ** (-k)
        return ModInt(pow(self.value, k, self.prime), self.prime)

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return "ModInt(%d mod %d)" % (self.value, self.prime)


# ---------------------------------------------------------------------------
# field specifications and adapters
# ---------------------------------------------------------------------------

DEFAULT_PRIME = (1 << 61) - 1


def is_probable_prime(n):
    """Miller-Rabin; deterministic for n < 3.3e24 with this base set."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Names a scalar field: 'symbolic', 'evaluated' (q: Fraction) or
    'modular' (prime, q residue).

    q = 0 is always rejected.  q = 1 and q = -1 are allowed when given
    explicitly (the involutive, classical case); the sampling helpers never
    draw them.
    """

    mode: str
    q: object = None
    prime: int = None

    def __post_init__(self):
        if self.mode == "symbolic":
            assert self.q is None and self.prime is None
        elif self.mode == "evaluated":
            q = Fraction(self.q)
            object.__setattr__(self, "q", q)
            if q == 0:
                raise SpecializationError("q = 0 is not a valid evaluation")
        elif self.mode == "modular":
            p = int(self.prime)
            if p <= 2 or not is_probable_prime(p):
                raise SpecializationError("modulus must be an odd prime")
            q = int(self.q) % p
            object.__setattr__(self, "q", q)
            object.__setattr__(self, "prime", p)
            if q == 0:
                raise SpecializationError("q = 0 is not a valid evaluation")
        else:
            raise ValueError("unknown field mode %r" % self.mode)

    @classmethod
    def symbolic(cls):
        return cls("symbolic")

    @classmethod
    def evaluated(cls, q):
        return cls("evaluated", q=Fraction(q))

    @classmethod
    def modular(cls, prime, q):
        return cls("modular", q=q, prime=prime)

    def describe(self):
        if self.mode == "symbolic":
            return "symbolic Q(q)"
        if self.mode == "evaluated":
            return "Q at q = %s" % self.q
        return "GF(%d) at q = %d" % (self.prime, self.q)


class _FieldBase:
    def of_int(self, n):
        return self.of_rat(Fraction(n))

    def q_number(self, k):
        return self.from_qscalar(q_number(k))


class SymbolicField(_FieldBase):
    """Q(q): scalars are QScalar values."""

    def __init__(self):
        self.spec = FieldSpec.symbolic()
        self.zero = Q_ZERO
        self.one = Q_ONE
        self.q = Q_VAR
        self.lam = Q_VAR - Q_VAR ** -1

    def of_rat(self, c):
        return QScalar.from_rat(c)

    def from_qscalar(self, x):
        return x


class RationalField(_FieldBase):
    """Q with q pinned to a nonzero rational: scalars are Fractions."""

    def __init__(self, q0):
        q0 = Fraction(q0)
        self.spec = FieldSpec.evaluated(q0)
        self.zero = Fraction(0)
        self.one = Fraction(1)
        self.q = q0
        self.lam = q0 - 1 / q0

    def of_rat(self, c):
        return Fraction(c)

    def from_qscalar(self, x):
        return x.evaluate(self.q)


class ModularField(_FieldBase):
    """Z/prime with q pinned to a residue: scalars are ModInt values."""

    def __init__(self, prime, q0):
        self.spec = FieldSpec.modular(prime, q0)
        p = self.spec.prime
        self.prime = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)
        self.q = ModInt(self.spec.q, p)
        self.lam = self.q - self.q ** -1

    def of_rat(self, c):
        c = Fraction(c)
        return ModInt(c.numerator * pow(c.denominator, -1, self.prime), self.prime)

    def from_qscalar(self, x):
        return ModInt(x.evaluate_mod(self.spec.q, self.prime), self.prime)


def make_field(spec):
    if spec.mode == "symbolic":
        return SymbolicField()
    if spec.mode == "evaluated":
        return RationalField(spec.q)
    return ModularField(spec.prime, spec.q)


# ---------------------------------------------------------------------------
# deterministic q sampling
# ---------------------------------------------------------------------------

def sample_rational_qs(count, seed):
    """Distinct rationals a/b with 2 <= a, b <= 7 and a != b, drawn
    deterministically from the seed.  Never 0 or +-1."""
    rng = Random(seed)
    pool = sorted({Fraction(a, b) for a in range(2, 8) for b in range(2, 8)
                   if a != b})
    if count > len(pool):
        raise ValueError("at most %d distinct sample points available" % len(pool))
    return rng.sample(pool, count)


# q^k != 1 for k <= 18 keeps every q-number i_q = (q^(2i) - 1) /
# (q^(i-1) (q^2 - 1)) with i <= 9 invertible, which covers the q-numbers
# up to the default rank bound of 8 that the antisymmetrizers divide by.
_MODULAR_ORDER_FLOOR = 18


def sample_modular_qs(count, prime, seed):
    """Distinct residues mod prime whose multiplicative order exceeds
    _MODULAR_ORDER_FLOOR.  The modulus is checked before any draw: it
    must be an odd prime, and above _MODULAR_ORDER_FLOOR + 1, since every
    order divides prime - 1."""
    if prime <= 2 or not is_probable_prime(prime):
        raise SpecializationError("modulus must be an odd prime")
    if prime - 1 <= _MODULAR_ORDER_FLOOR:
        raise SpecializationError(
            "every residue has multiplicative order at most %d, not above "
            "the order floor %d" % (prime - 1, _MODULAR_ORDER_FLOOR))
    rng = Random(seed)
    out = []
    seen = set()
    guard = 0
    while len(out) < count:
        guard += 1
        if guard > 10000:
            raise SpecializationError("could not sample suitable residues")
        v = rng.randrange(2, prime - 1)
        if v in seen:
            continue
        seen.add(v)
        t = v
        ok = True
        for _ in range(_MODULAR_ORDER_FLOOR):
            if t == 1:
                ok = False
                break
            t = t * v % prime
        if ok:
            out.append(v)
    return out
